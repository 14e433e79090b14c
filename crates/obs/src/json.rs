//! Minimal JSON value model with a canonical writer and a strict parser.
//!
//! The run-report checksum covers the *serialized payload bytes*, so the
//! writer must be deterministic: objects preserve insertion order, no
//! whitespace is emitted, numbers use Rust's shortest-roundtrip `f64`
//! formatting (integral values within `2^53` print without a fraction),
//! and string escapes are fixed. Re-serializing a parsed document that
//! this writer produced yields the identical bytes, which is what lets
//! [`unseal`] recompute the CRC of a [`seal`]ed envelope.

use std::fmt::Write as _;

/// Largest integer magnitude `f64` represents exactly.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Nesting depth cap for the parser (defense against stack overflow on
/// adversarial input handed to `tind verify`).
const MAX_DEPTH: usize = 128;

/// An owned JSON document. Objects are ordered key/value vectors, not
/// maps: report sections render in the order they were inserted.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Integers above 2^53 lose precision as `f64`; callers encode those
    /// (fingerprints, checksums) as hex strings instead.
    pub fn num(v: f64) -> Value {
        Value::Num(v)
    }

    /// Object field lookup (first match; canonical documents have unique keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace a field, preserving the position of an existing key.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_string(), value)),
            }
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Canonical serialization: compact, insertion-ordered, deterministic.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => write_num(*v, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        // NaN/inf have no JSON spelling; null keeps the document parseable.
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= MAX_SAFE_INT {
        let _ = write!(out, "{}", v as i64);
    } else {
        // Rust's Display for f64 is shortest-roundtrip, so
        // parse(write(v)) == v and write(parse(write(v))) == write(v).
        let _ = write!(out, "{v}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Wraps `payload` in the one-line checksummed envelope of every JSON
/// artifact (`TINDRR` run reports, `TINDTF` traces):
/// `{"magic":M,"crc32":C,"payload":P}` and a newline, where `C` is the
/// CRC-32 of `P`, the payload's canonical serialization.
pub fn seal(magic: &str, payload: &Value) -> String {
    let body = payload.to_json();
    let crc = tind_model::checksum::crc32(body.as_bytes());
    format!("{{\"magic\":\"{magic}\",\"crc32\":{crc},\"payload\":{body}}}\n")
}

/// Parses and checks an envelope [`seal`]ed with `magic`, and returns the
/// payload; `what` names the artifact in refusals. A parse error carries
/// the parser's byte offset, and a checksum mismatch the byte offset of
/// the payload whose bytes no longer match the stored CRC.
pub fn unseal(text: &str, magic: &str, what: &str) -> Result<Value, String> {
    let doc = parse(text.trim_end()).map_err(|e| e.to_string())?;
    match doc.get("magic").and_then(Value::as_str) {
        Some(found) if found == magic => {}
        Some(other) => return Err(format!("unsupported {what} magic `{other}`")),
        None => return Err("missing `magic` field".to_string()),
    }
    let stored = doc
        .get("crc32")
        .and_then(Value::as_f64)
        .ok_or_else(|| "missing `crc32` field".to_string())?;
    let payload = doc.get("payload").ok_or_else(|| "missing `payload` field".to_string())?;
    let actual = tind_model::checksum::crc32(payload.to_json().as_bytes());
    if stored != f64::from(actual) {
        let payload_offset = text.find("\"payload\":").map_or(0, |p| p + "\"payload\":".len());
        return Err(format!(
            "checksum mismatch over payload at byte offset {payload_offset}: \
             stored {stored}, computed {actual}"
        ));
    }
    Ok(payload.clone())
}

/// Strict recursive-descent parser. Accepts standard JSON (including
/// escapes the canonical writer never emits, so hand-written schema files
/// parse too); rejects trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes (UTF-8 passes through verbatim).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Safe: input is &str and we only stopped on ASCII bytes,
                // so the run is valid UTF-8 on char boundaries.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?,
                );
            }
            _ => return Err(self.err("invalid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_canonical_scalars() {
        assert_eq!(Value::Null.to_json(), "null");
        assert_eq!(Value::Bool(true).to_json(), "true");
        assert_eq!(Value::Num(0.0).to_json(), "0");
        assert_eq!(Value::Num(42.0).to_json(), "42");
        assert_eq!(Value::Num(-3.0).to_json(), "-3");
        assert_eq!(Value::Num(0.5).to_json(), "0.5");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::str("a\"b\\c\nd").to_json(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn preserves_object_insertion_order() {
        let v = Value::obj([
            ("zebra", Value::Num(1.0)),
            ("alpha", Value::Num(2.0)),
            ("mid", Value::Arr(vec![Value::Bool(false), Value::Null])),
        ]);
        assert_eq!(v.to_json(), "{\"zebra\":1,\"alpha\":2,\"mid\":[false,null]}");
    }

    #[test]
    fn roundtrips_written_documents_byte_identically() {
        let doc = Value::obj([
            ("name", Value::str("índice tíndalo \u{1F600} \t end")),
            ("ints", Value::Arr((0..5).map(|i| Value::Num(i as f64 * 1e12)).collect())),
            ("floats", Value::Arr(vec![Value::Num(0.1), Value::Num(2.5e-7), Value::Num(1e300)])),
            ("nested", Value::obj([("deep", Value::obj([("x", Value::Num(-0.0))]))])),
        ]);
        let text = doc.to_json();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parses_foreign_escapes_and_whitespace() {
        let v = parse(" { \"k\" : \"a\\/b\\u0041\\ud83d\\ude00\" , \"n\" : -1.5e2 } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), "a/bA\u{1F600}");
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), -150.0);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"\\u12\"", "1 2", "\"\\ud800x\""] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn set_replaces_in_place_and_appends() {
        let mut v = Value::obj([("a", Value::Num(1.0)), ("b", Value::Num(2.0))]);
        v.set("a", Value::Num(9.0));
        v.set("c", Value::Num(3.0));
        assert_eq!(v.to_json(), "{\"a\":9,\"b\":2,\"c\":3}");
    }
}
