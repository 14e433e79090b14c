//! Compact hand-rolled binary serialization for datasets.
//!
//! Datasets at experiment scale hold millions of versions; a dedicated
//! binary format (varints, delta-encoded timestamps and value ids) keeps
//! files small and loading fast without pulling in a serialization
//! framework. The format is versioned via a magic header.
//!
//! The dataset encoding is canonical: [`decode_dataset`] accepts only what
//! [`encode_dataset`] produces, so a verified file's bytes *are* the
//! dataset's encoding and [`dataset_fingerprint`] (the hash of that
//! encoding) is read off them once, at load, instead of re-encoding.
//!
//! [`decode_dataset`] runs on two threads. The caller checks the magic
//! and CRC, then scans the dictionary's string lengths to find where the
//! histories begin. One scoped worker checks the dictionary's UTF-8,
//! interns it, rejects duplicates and hashes the file for the
//! fingerprint; meanwhile the caller decodes the histories straight into
//! place, which needs only the dictionary's stated length, then joins the
//! worker. A worker panic resumes on the caller. Errors are reported in
//! byte order — the one a sequential decode meets first — and a failed
//! spawn runs the worker's closure inline, so there is one decode path,
//! not two.

use std::sync::Arc;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::history::{AttributeHistory, Version};
use crate::time::Timeline;
use crate::value::{Dictionary, ValueId};

/// Magic bytes identifying a serialized dataset, including a format version.
/// Version 2 appended the CRC-32 integrity trailer (see [`crate::checksum`]).
pub const MAGIC: &[u8; 8] = b"TINDDS\x00\x02";

/// Errors arising while decoding a serialized dataset.
#[derive(Debug)]
pub enum BinIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The byte stream does not conform to the format.
    Corrupt(String),
    /// The integrity trailer does not match the payload: the file was
    /// truncated or bit-flipped after it was written.
    Checksum {
        /// CRC-32 stored in the trailer.
        stored: u32,
        /// CRC-32 recomputed over the payload.
        computed: u32,
        /// Byte offset of the trailer within the file — everything before
        /// this offset is covered by the checksum, so this is also the
        /// payload length the verifier hashed. Operators use it to locate
        /// where a file was cut or copied short.
        offset: u64,
    },
}

impl std::fmt::Display for BinIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinIoError::Io(e) => write!(f, "i/o error: {e}"),
            BinIoError::Corrupt(msg) => write!(f, "corrupt dataset file: {msg}"),
            BinIoError::Checksum { stored, computed, offset } => write!(
                f,
                "checksum mismatch over bytes 0..{offset}: trailer at byte offset {offset} says \
                 {stored:#010x} but payload hashes to {computed:#010x} (file truncated or \
                 corrupted)"
            ),
        }
    }
}

impl std::error::Error for BinIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinIoError::Io(e) => Some(e),
            BinIoError::Corrupt(_) | BinIoError::Checksum { .. } => None,
        }
    }
}

impl From<std::io::Error> for BinIoError {
    fn from(e: std::io::Error) -> Self {
        BinIoError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> BinIoError {
    BinIoError::Corrupt(msg.into())
}

/// Validates an 8-byte magic header (7-byte identifier + version byte),
/// distinguishing "not this kind of file" from "right file, wrong
/// version" so operators see an actionable message.
fn check_magic(bytes: &[u8], magic: &[u8; 8], what: &str) -> Result<(), BinIoError> {
    if bytes.len() < magic.len() || bytes[..magic.len() - 1] != magic[..magic.len() - 1] {
        return Err(corrupt(format!("bad {what} magic header")));
    }
    let version = bytes[magic.len() - 1];
    if version != magic[magic.len() - 1] {
        return Err(corrupt(format!(
            "unsupported {what} format version {version} (this build reads version {}; \
             re-generate the file)",
            magic[magic.len() - 1]
        )));
    }
    Ok(())
}

/// Opens a checksummed container: checks the magic header, verifies and
/// strips the CRC-32 trailer, and returns a reader positioned just after
/// the magic. Every on-disk container starts its decode here.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], what: &str) -> Result<Reader<'a>, BinIoError> {
    check_magic(bytes, magic, what)?;
    let payload = crate::checksum::verify_and_strip(bytes)?;
    Ok(Reader::new(&payload[magic.len()..]))
}

/// Checked read cursor over a byte slice: every accessor returns
/// `Corrupt("truncated {what}")` instead of reading past the end, so no
/// decoder needs a length check of its own.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over all of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, borrowed from the underlying buffer.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], BinIoError> {
        if self.buf.len() < n {
            return Err(corrupt(format!("truncated {what}")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], BinIoError> {
        Ok(self.bytes(N, what)?.try_into().expect("N-byte slice"))
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, BinIoError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32_le(&mut self, what: &str) -> Result<u32, BinIoError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self, what: &str) -> Result<u64, BinIoError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A big-endian `f64` (the byte order the formats have always used).
    pub fn f64(&mut self, what: &str) -> Result<f64, BinIoError> {
        Ok(f64::from_be_bytes(self.array(what)?))
    }

    /// Decodes a varint, failing on truncation, on encodings that do not
    /// fit a `u64` (more than 10 bytes, or a 10th byte carrying more than
    /// the one bit that is left), and on overlong encodings (a final zero
    /// byte after the first): every accepted varint is the one
    /// [`put_varint`] writes for its value.
    ///
    /// On failure the reader has consumed the bytes up to and including
    /// the one that failed (all of them, for a truncation).
    pub fn varint(&mut self) -> Result<u64, BinIoError> {
        let buf = self.buf;
        if let Some(&byte) = buf.first().filter(|&&b| b < 0x80) {
            self.buf = &buf[1..];
            return Ok(u64::from(byte));
        }
        let mut v: u64 = 0;
        for (i, &byte) in buf.iter().enumerate() {
            let shift = 7 * i as u32;
            if shift >= 64 || (shift == 63 && byte & 0x7f > 1) {
                self.buf = &buf[i + 1..];
                return Err(corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.buf = &buf[i + 1..];
                if byte == 0 && i > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        self.buf = &[];
        Err(corrupt("truncated varint"))
    }

    /// Decodes a length-prefixed UTF-8 string, validated where it lies.
    pub fn str(&mut self) -> Result<&'a str, BinIoError> {
        let len = usize::try_from(self.varint()?).map_err(|_| corrupt("string length overflow"))?;
        std::str::from_utf8(self.bytes(len, "string")?)
            .map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// Fails with `Corrupt("trailing bytes after {what}")` unless every
    /// byte was read.
    pub fn finish(self, what: &str) -> Result<(), BinIoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("trailing bytes after {what}")))
        }
    }
}

/// LEB128-style unsigned varint encoding.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Encodes a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Serializes `dataset` into a byte buffer.
pub fn encode_dataset(dataset: &Dataset) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 << 20);
    buf.extend_from_slice(MAGIC);
    put_varint(&mut buf, u64::from(dataset.timeline().len()));
    // Dictionary, in id order so ids are implicit.
    put_varint(&mut buf, dataset.dictionary().len() as u64);
    for (_, s) in dataset.dictionary().iter() {
        put_str(&mut buf, s);
    }
    put_varint(&mut buf, dataset.len() as u64);
    for h in dataset.attributes() {
        put_str(&mut buf, h.name());
        put_varint(&mut buf, u64::from(h.last_observed()));
        put_varint(&mut buf, h.versions().len() as u64);
        let mut prev_start = 0u32;
        for v in h.versions() {
            put_varint(&mut buf, u64::from(v.start - prev_start));
            prev_start = v.start;
            put_varint(&mut buf, v.values.len() as u64);
            let mut prev_val: u64 = 0;
            for &val in &v.values {
                // Values are sorted ascending; delta-encode.
                put_varint(&mut buf, u64::from(val) - prev_val);
                prev_val = u64::from(val);
            }
        }
    }
    crate::checksum::append_trailer(&mut buf);
    buf
}

/// Deserializes a dataset from bytes produced by [`encode_dataset`].
///
/// The decode is canonical: it accepts exactly the byte strings
/// [`encode_dataset`] can produce, so re-encoding an accepted file gives
/// back the same bytes. Everything else — overlong varints, a version
/// equal to its predecessor (which [`HistoryBuilder::push`] would merge
/// away), start or value-id delta sums that overflow — is `Corrupt`. That
/// is what lets the returned dataset carry `hash_bytes(bytes)` as its
/// [`dataset_fingerprint`] without re-encoding anything.
///
/// The dictionary and the histories decode on two threads (see the module
/// docs). The error reported is still the one a sequential decode meets
/// first: magic and checksum, then the dictionary (if the length scan
/// stops at a truncated entry, an invalid or duplicate entry before it
/// still wins), then the histories, then trailing bytes.
///
/// [`HistoryBuilder::push`]: crate::history::HistoryBuilder::push
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, BinIoError> {
    let mut buf = open(bytes, MAGIC, "dataset")?;
    let timeline_len =
        u32::try_from(buf.varint()?).map_err(|_| corrupt("timeline length overflow"))?;
    if timeline_len == 0 {
        return Err(corrupt("zero-length timeline"));
    }
    let dict_len = buf.varint()? as usize;
    let entries = buf.clone();
    let arena_bytes = match skip_strings(&mut buf, dict_len) {
        Ok(total) => total,
        // The scan reads only lengths: an entry before the one it stopped
        // at may be invalid or a duplicate, and that fault comes first.
        Err(scan) => return Err(decode_dictionary(entries, dict_len, 0).err().unwrap_or(scan)),
    };
    // Captures only shared references, so the closure is `Copy`: a failed
    // spawn drops one copy and the caller runs another.
    let dictionary_and_fingerprint = || {
        let dictionary = decode_dictionary(entries.clone(), dict_len, arena_bytes);
        (dictionary, crate::hash::hash_bytes(bytes))
    };
    let (dictionary, fingerprint, attributes) = std::thread::scope(|scope| {
        let worker = std::thread::Builder::new().spawn_scoped(scope, dictionary_and_fingerprint);
        let attributes = decode_histories(buf, dict_len, timeline_len);
        let (dictionary, fingerprint) = match worker {
            Ok(handle) => handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(_) => dictionary_and_fingerprint(),
        };
        (dictionary, fingerprint, attributes)
    });
    // Byte order: a dictionary fault precedes any history fault.
    let dictionary = dictionary?;
    let attributes = attributes?;
    let dataset =
        DatasetBuilder::from_parts(Timeline::new(timeline_len), dictionary, attributes).build();
    dataset.fingerprint_cell().get_or_init(|| fingerprint);
    Ok(dataset)
}

/// Steps over `count` length-prefixed strings without looking inside
/// them, and returns their total length in bytes.
fn skip_strings(buf: &mut Reader<'_>, count: usize) -> Result<usize, BinIoError> {
    let mut total = 0;
    for _ in 0..count {
        let len = usize::try_from(buf.varint()?).map_err(|_| corrupt("string length overflow"))?;
        total += buf.bytes(len, "string")?.len();
    }
    Ok(total)
}

/// Decodes the `len` dictionary entries at the front of `buf`, whose
/// strings total `arena_bytes` (0 when unknown).
fn decode_dictionary(
    mut buf: Reader<'_>,
    len: usize,
    arena_bytes: usize,
) -> Result<Dictionary, BinIoError> {
    let mut dictionary = Dictionary::new();
    // Every entry takes at least its length byte, so the bytes left bound
    // the count: a hostile `len` cannot out-allocate its own file.
    dictionary.reserve_exact(len.min(buf.remaining()), arena_bytes);
    for expected_id in 0..len {
        // A repeated string interns to the id of its first occurrence.
        let id = dictionary.intern(buf.str()?);
        if id as usize != expected_id {
            let first = dictionary.resolve(id);
            return Err(corrupt(format!("duplicate dictionary entry '{first}'")));
        }
    }
    Ok(dictionary)
}

/// Decodes the attribute section, which must end the payload, straight
/// into place. Each history's invariants are proven as its bytes are read
/// — starts strictly increase, every id is above its predecessor and
/// inside the dictionary, no version repeats the one before — so nothing
/// is sorted or scanned twice.
fn decode_histories(
    mut buf: Reader<'_>,
    dict_len: usize,
    timeline_len: u32,
) -> Result<Vec<Arc<AttributeHistory>>, BinIoError> {
    // One compare per id: at or past this bound an id is either outside
    // the dictionary or not a `u32`, and the cold path says which.
    let id_bound = (dict_len as u64).min(1 << 32);
    let num_attrs = buf.varint()? as usize;
    // Counts are bounded by the bytes left, as for the dictionary.
    let mut attributes = Vec::with_capacity(num_attrs.min(buf.remaining()));
    for _ in 0..num_attrs {
        let name = buf.str()?;
        let last_observed =
            u32::try_from(buf.varint()?).map_err(|_| corrupt("last_observed overflow"))?;
        let num_versions = buf.varint()? as usize;
        if num_versions == 0 {
            return Err(corrupt(format!("attribute '{name}' has no versions")));
        }
        let mut versions: Vec<Version> = Vec::with_capacity(num_versions.min(buf.remaining()));
        let mut start = 0u32;
        for vi in 0..num_versions {
            let delta =
                u32::try_from(buf.varint()?).map_err(|_| corrupt("start delta overflow"))?;
            if vi > 0 && delta == 0 {
                return Err(corrupt(format!("attribute '{name}': non-increasing version start")));
            }
            start = start
                .checked_add(delta)
                .ok_or_else(|| corrupt(format!("attribute '{name}': version start overflow")))?;
            let card = buf.varint()? as usize;
            let mut values: Vec<ValueId> = Vec::with_capacity(card.min(buf.remaining()));
            let mut val: u64 = 0;
            for ci in 0..card {
                let d = buf.varint()?;
                if ci > 0 && d == 0 {
                    return Err(corrupt("duplicate value id in version"));
                }
                val = val.checked_add(d).ok_or_else(|| corrupt("value id overflow"))?;
                if val >= id_bound {
                    return Err(match u32::try_from(val) {
                        Ok(id) => corrupt(format!("value id {id} outside dictionary")),
                        Err(_) => corrupt("value id overflow"),
                    });
                }
                values.push(val as ValueId);
            }
            // The encoder never writes a version equal to its predecessor
            // (`HistoryBuilder::push` merges one away).
            if versions.last().is_some_and(|prev| prev.values == values) {
                return Err(corrupt(format!("attribute '{name}': repeated version")));
            }
            versions.push(Version { start, values });
        }
        if last_observed < start || last_observed >= timeline_len {
            return Err(corrupt(format!("attribute '{name}': invalid last_observed")));
        }
        let history = AttributeHistory::from_canonical(name.to_owned(), versions, last_observed);
        attributes.push(Arc::new(history));
    }
    buf.finish("dataset")?;
    Ok(attributes)
}

/// Serializes a weight function (tag byte + payload).
pub fn put_weight_fn(buf: &mut Vec<u8>, w: &crate::WeightFn) {
    use crate::WeightFn;
    match w {
        WeightFn::Constant { per_timestamp } => {
            buf.push(0);
            buf.extend_from_slice(&per_timestamp.to_be_bytes());
        }
        WeightFn::ExponentialDecay { a, n } => {
            buf.push(1);
            buf.extend_from_slice(&a.to_be_bytes());
            put_varint(buf, u64::from(*n));
        }
        WeightFn::LinearDecay { n } => {
            buf.push(2);
            put_varint(buf, u64::from(*n));
        }
        WeightFn::Piecewise { prefix } => {
            buf.push(3);
            put_varint(buf, prefix.len() as u64);
            for &p in prefix.iter() {
                buf.extend_from_slice(&p.to_be_bytes());
            }
        }
    }
}

/// Deserializes a weight function written by [`put_weight_fn`].
pub fn get_weight_fn(buf: &mut Reader<'_>) -> Result<crate::WeightFn, BinIoError> {
    use crate::WeightFn;
    const PAYLOAD: &str = "weight function payload";
    match buf.u8("weight function")? {
        0 => Ok(WeightFn::Constant { per_timestamp: buf.f64(PAYLOAD)? }),
        1 => {
            let a = buf.f64(PAYLOAD)?;
            let n = u32::try_from(buf.varint()?).map_err(|_| corrupt("n overflow"))?;
            if !(a > 0.0 && a < 1.0) {
                return Err(corrupt("decay base out of range"));
            }
            Ok(WeightFn::ExponentialDecay { a, n })
        }
        2 => {
            let n = u32::try_from(buf.varint()?).map_err(|_| corrupt("n overflow"))?;
            Ok(WeightFn::LinearDecay { n })
        }
        3 => {
            let len = buf.varint()? as usize;
            let bytes = len.checked_mul(8).ok_or_else(|| corrupt("prefix overflow"))?;
            let prefix: Vec<f64> = buf
                .bytes(bytes, PAYLOAD)?
                .chunks_exact(8)
                .map(|c| f64::from_be_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            if prefix.windows(2).any(|w| w[1] < w[0]) || prefix.first() != Some(&0.0) {
                return Err(corrupt("invalid weight prefix sums"));
            }
            Ok(WeightFn::Piecewise { prefix: std::sync::Arc::new(prefix) })
        }
        other => Err(corrupt(format!("unknown weight function tag {other}"))),
    }
}

/// A 64-bit fingerprint of a dataset's serialized form —
/// `hash_bytes(encode_dataset(dataset))`, trailer included; persisted
/// indexes store it so a stale index cannot silently be used with a
/// different dataset.
///
/// Computed at most once per dataset value: [`decode_dataset`] records the
/// hash of the file bytes it verified (the canonical encoding, so the same
/// number), and a built dataset encodes itself on the first call.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    *dataset.fingerprint_cell().get_or_init(|| crate::hash::hash_bytes(&encode_dataset(dataset)))
}

/// Writes `dataset` to the file at `path`.
pub fn write_dataset_file(dataset: &Dataset, path: &std::path::Path) -> Result<(), BinIoError> {
    std::fs::write(path, encode_dataset(dataset))?;
    Ok(())
}

/// Reads a dataset from the file at `path`.
pub fn read_dataset_file(path: &std::path::Path) -> Result<Dataset, BinIoError> {
    decode_dataset(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timeline;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(100));
        b.add_attribute(
            "games",
            &[(0, vec!["red", "blue"]), (40, vec!["red", "blue", "gold"])],
            99,
        );
        b.add_attribute("devs", &[(10, vec!["masuda", "morimoto"])], 80);
        b.add_attribute("empty-ish", &[(5, Vec::<&str>::new())], 9);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = sample();
        let d2 = decode_dataset(&encode_dataset(&d)).expect("decodes");
        assert_eq!(d2.timeline(), d.timeline());
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.dictionary().len(), d.dictionary().len());
        for (id, h) in d.iter() {
            let h2 = d2.attribute(id);
            assert_eq!(h2.name(), h.name());
            assert_eq!(h2.versions(), h.versions());
            assert_eq!(h2.last_observed(), h.last_observed());
        }
        // Interning must produce identical ids after roundtrip.
        assert_eq!(d.dictionary().get("gold"), d2.dictionary().get("gold"));
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut bytes = Reader::new(&buf);
        for &v in &values {
            assert_eq!(bytes.varint().expect("decodes"), v);
        }
        bytes.finish("varints").expect("all read");
    }

    /// The byte-at-a-time decoder `Reader::varint` replaced: the oracle.
    fn reference_varint(r: &mut Reader<'_>) -> Result<u64, BinIoError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = r.u8("varint")?;
            if shift >= 64 || (shift == 63 && byte & 0x7f > 1) {
                return Err(corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Same value or same error text, and the same bytes consumed.
    fn assert_varint_agrees(bytes: &[u8]) {
        let (mut fast, mut slow) = (Reader::new(bytes), Reader::new(bytes));
        let got = fast.varint().map_err(|e| e.to_string());
        let want = reference_varint(&mut slow).map_err(|e| e.to_string());
        assert_eq!(got, want, "{bytes:02x?}");
        assert_eq!(fast.remaining(), slow.remaining(), "{bytes:02x?}");
    }

    #[test]
    fn varint_matches_the_byte_loop_reference() {
        let mut values = vec![0u64, 127, 128, u64::MAX];
        for k in 0..64 {
            let p = 1u64 << k;
            values.extend([p - 1, p, p + 1]);
        }
        let mut inputs = Vec::new();
        for v in values {
            let mut enc = Vec::new();
            put_varint(&mut enc, v);
            // Overlong forms: the last byte continued, then zero or more
            // empty continuation bytes and a final zero, up to 11 bytes.
            for pad in 0..=11usize.saturating_sub(enc.len() + 1) {
                let mut long = enc.clone();
                *long.last_mut().expect("non-empty") |= 0x80;
                long.resize(long.len() + pad, 0x80);
                long.push(0x00);
                inputs.push(long);
            }
            inputs.push(enc);
        }
        for input in &inputs {
            for cut in 0..=input.len() {
                assert_varint_agrees(&input[..cut]);
            }
            let mut followed = input.clone();
            followed.push(0x2a);
            assert_varint_agrees(&followed);
        }
        crate::rng::cases("varint_matches_the_byte_loop_reference", 4096, |rng| {
            let len = rng.range(0..=12usize);
            // Mostly continuation bytes, so long runs and the 10th-byte
            // limit come up often.
            let bytes: Vec<u8> = (0..len)
                .map(|_| rng.range(0..=255u8) | if rng.range(0..4u32) == 0 { 0 } else { 0x80 })
                .collect();
            assert_varint_agrees(&bytes);
        });
    }

    /// Regression: the 10th byte has one payload bit left (bit 63). A
    /// larger payload used to be shifted out silently, so a non-canonical
    /// encoding decoded as a different number.
    #[test]
    fn varint_tenth_byte_overflow_is_rejected() {
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        assert_eq!(Reader::new(&max).varint().expect("u64::MAX"), u64::MAX);
        let mut over = max;
        over[9] = 0x02;
        let err = Reader::new(&over).varint().expect_err("bit 64 does not exist");
        assert!(err.to_string().contains("varint overflows u64"), "{err}");
        // An 11th byte is still refused, and a cut-off run is a truncation.
        let err = Reader::new(&[0xff; 11]).varint().expect_err("overlong");
        assert!(err.to_string().contains("varint overflows u64"), "{err}");
        let err = Reader::new(&[0xff; 9]).varint().expect_err("cut");
        assert!(err.to_string().contains("truncated varint"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode_dataset(b"NOTADATASET").expect_err("must fail");
        assert!(matches!(err, BinIoError::Corrupt(_)));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode_dataset(&sample());
        for cut in [MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_dataset(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut raw = encode_dataset(&sample());
        raw.push(0x42);
        assert!(decode_dataset(&raw).is_err());
    }

    /// A CRC-valid dataset file: `body` between the magic and the trailer.
    fn sealed(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_varint(&mut buf, 100); // timeline
        body(&mut buf);
        crate::checksum::append_trailer(&mut buf);
        buf
    }

    #[test]
    fn hostile_counts_cannot_out_allocate_the_file() {
        // 40 bytes in all, claiming 2^40 dictionary entries. Sizing
        // anything by the claim would ask the allocator for terabytes and
        // abort the process; the claim must instead run into the end of
        // the file (here: a second empty string is a duplicate entry).
        let file = sealed(|buf| {
            put_varint(buf, 1 << 40);
            buf.extend_from_slice(&[0u8; 21]);
        });
        assert_eq!(file.len(), 40);
        assert!(matches!(decode_dataset(&file), Err(BinIoError::Corrupt(_))));

        // Same for a version claiming 2^40 values.
        let file = sealed(|buf| {
            put_varint(buf, 1); // dictionary: one entry
            put_str(buf, "a");
            put_varint(buf, 1); // attributes: one
            put_str(buf, "x");
            put_varint(buf, 5); // last_observed
            put_varint(buf, 1); // versions: one
            put_varint(buf, 0); // start
            put_varint(buf, 1 << 40); // cardinality
        });
        assert!(matches!(decode_dataset(&file), Err(BinIoError::Corrupt(_))));
    }

    /// One attribute "x" over a two-entry dictionary, observed through 5,
    /// whose version list is `versions` (count included).
    fn sealed_versions(versions: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        sealed_versions_over(2, versions)
    }

    /// [`sealed_versions`] over a dictionary of `entries` one-letter strings.
    fn sealed_versions_over(entries: u8, versions: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        sealed(|buf| {
            put_varint(buf, u64::from(entries));
            for letter in b'a'..b'a' + entries {
                put_str(buf, std::str::from_utf8(&[letter]).expect("ascii"));
            }
            put_varint(buf, 1);
            put_str(buf, "x");
            put_varint(buf, 5); // last_observed
            versions(buf);
        })
    }

    fn assert_corrupt(file: &[u8], needle: &str) {
        match decode_dataset(file) {
            Err(BinIoError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    /// Regression: start deltas summing past `u32::MAX` overflowed (debug)
    /// or wrapped into `HistoryBuilder::push`'s ordering assert (release).
    #[test]
    fn version_start_overflow_is_corrupt() {
        let file = sealed_versions(|buf| {
            put_varint(buf, 2);
            put_varint(buf, u64::from(u32::MAX)); // start u32::MAX
            put_varint(buf, 0);
            put_varint(buf, 1); // start u32::MAX + 1
            put_varint(buf, 1);
            put_varint(buf, 0);
        });
        assert_corrupt(&file, "version start overflow");
    }

    /// Regression: value-id deltas summing past `u64::MAX` overflowed
    /// (debug) or wrapped to id 0 and decoded as `{0, 1}` (release).
    #[test]
    fn value_id_delta_overflow_is_corrupt() {
        let file = sealed_versions(|buf| {
            put_varint(buf, 1);
            put_varint(buf, 0);
            put_varint(buf, 2); // cardinality
            put_varint(buf, 1); // id 1
            put_varint(buf, u64::MAX); // 1 + u64::MAX
        });
        assert_corrupt(&file, "value id overflow");
    }

    /// Regression: a varint with a redundant zero continuation byte
    /// decoded like the short form, so the file re-encoded differently.
    #[test]
    fn overlong_varint_is_corrupt() {
        let file = sealed_versions(|buf| {
            put_varint(buf, 1);
            put_varint(buf, 0);
            buf.extend_from_slice(&[0x81, 0x00]); // cardinality 1, overlong
            put_varint(buf, 0);
        });
        assert_corrupt(&file, "overlong varint");
        assert_eq!(Reader::new(&[0x80, 0x01]).varint().expect("128"), 128);
        assert!(Reader::new(&[0x80, 0x80, 0x00]).varint().is_err());
    }

    /// Regression: a version repeating its predecessor's set was merged
    /// away by `HistoryBuilder::push`, so the file re-encoded differently.
    #[test]
    fn repeated_version_is_corrupt() {
        let file = sealed_versions(|buf| {
            put_varint(buf, 2);
            for start_delta in [0, 3] {
                put_varint(buf, start_delta);
                put_varint(buf, 1);
                put_varint(buf, 1);
            }
        });
        assert_corrupt(&file, "repeated version");
    }

    /// One attribute "x", over the two-entry dictionary, whose only
    /// version holds the ids encoded by the delta list `deltas`.
    fn sealed_ids(deltas: &[u64]) -> Vec<u8> {
        sealed_versions(|buf| {
            put_varint(buf, 1);
            put_varint(buf, 0);
            put_varint(buf, deltas.len() as u64);
            for &d in deltas {
                put_varint(buf, d);
            }
        })
    }

    #[test]
    fn every_history_fault_is_named() {
        // Id 0 is inside the two-entry dictionary; id 2 is the first past it.
        assert_corrupt(&sealed_ids(&[0, 2]), "value id 2 outside dictionary");
        assert_corrupt(&sealed_ids(&[1, 0]), "duplicate value id in version");
        assert_corrupt(&sealed_versions(|buf| put_varint(buf, 0)), "attribute 'x' has no versions");
        let file = sealed_versions(|buf| {
            put_varint(buf, 2);
            for start_delta in [1, 0] {
                put_varint(buf, start_delta);
                put_varint(buf, 0);
            }
        });
        assert_corrupt(&file, "attribute 'x': non-increasing version start");
        // Observed through 5, but the only version starts at 6.
        let file = sealed_versions(|buf| {
            put_varint(buf, 1);
            put_varint(buf, 6);
            put_varint(buf, 0);
        });
        assert_corrupt(&file, "attribute 'x': invalid last_observed");
    }

    /// A dictionary of `entries`, then one attribute whose only version
    /// holds id 7 — outside any dictionary below eight entries.
    fn sealed_with_bad_history(entries: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        sealed(|buf| {
            entries(buf);
            put_varint(buf, 1);
            put_str(buf, "x");
            put_varint(buf, 5);
            put_varint(buf, 1);
            put_varint(buf, 0);
            put_varint(buf, 1);
            put_varint(buf, 7);
        })
    }

    #[test]
    fn faults_are_reported_in_byte_order() {
        let history_only = sealed_with_bad_history(|buf| {
            put_varint(buf, 1);
            put_str(buf, "a");
        });
        assert_corrupt(&history_only, "value id 7 outside dictionary");
        // The dictionary is decoded on another thread, but its fault comes
        // first in the file, so it is the one reported.
        let duplicate = sealed_with_bad_history(|buf| {
            put_varint(buf, 2);
            put_str(buf, "a");
            put_str(buf, "a");
        });
        assert_corrupt(&duplicate, "duplicate dictionary entry 'a'");
        let bad_utf8 = sealed_with_bad_history(|buf| {
            put_varint(buf, 1);
            put_varint(buf, 1);
            buf.push(0xff);
        });
        assert_corrupt(&bad_utf8, "invalid utf-8 in string");
        // The length scan stops at entry 2, whose length never ends; a
        // fault in an entry before it comes first and wins.
        let cut_after_bad_utf8 = sealed(|buf| {
            put_varint(buf, 3);
            put_varint(buf, 1);
            buf.push(0xff);
            put_str(buf, "b");
            buf.push(0x80); // entry 2's length: a varint that never ends
        });
        assert_corrupt(&cut_after_bad_utf8, "invalid utf-8 in string");
        let cut_after_duplicate = sealed(|buf| {
            put_varint(buf, 3);
            put_str(buf, "b");
            put_str(buf, "b");
            buf.push(0x80);
        });
        assert_corrupt(&cut_after_duplicate, "duplicate dictionary entry 'b'");
        let cut_after_valid = sealed(|buf| {
            put_varint(buf, 3);
            put_str(buf, "a");
            put_str(buf, "b");
            buf.push(0x80);
        });
        assert_corrupt(&cut_after_valid, "truncated varint");
        // A checksum mismatch beats every fault of the payload.
        for file in [history_only, duplicate, cut_after_bad_utf8] {
            let mut flipped = file.clone();
            flipped[MAGIC.len()] ^= 0x01; // the timeline length
            assert!(matches!(decode_dataset(&flipped), Err(BinIoError::Checksum { .. })));
        }
    }

    #[test]
    fn empty_dictionary_and_empty_attribute_list_decode() {
        let no_values = sealed_versions_over(0, |buf| {
            put_varint(buf, 1);
            put_varint(buf, 3);
            put_varint(buf, 0); // the empty set
        });
        let d = decode_dataset(&no_values).expect("an empty dictionary is valid");
        assert_eq!((d.dictionary().len(), d.len()), (0, 1));
        assert!(d.attribute(0).values_at(4).is_empty());
        assert_eq!(encode_dataset(&d), no_values);
        // An id is outside an empty dictionary, whatever it is.
        assert_corrupt(
            &sealed_versions_over(0, |buf| {
                put_varint(buf, 1);
                put_varint(buf, 0);
                put_varint(buf, 1);
                put_varint(buf, 0);
            }),
            "value id 0 outside dictionary",
        );

        let no_attributes = sealed(|buf| {
            put_varint(buf, 2);
            put_str(buf, "a");
            put_str(buf, "b");
            put_varint(buf, 0);
        });
        let d = decode_dataset(&no_attributes).expect("an empty attribute list is valid");
        assert_eq!((d.dictionary().len(), d.len()), (2, 0));
        assert_eq!(encode_dataset(&d), no_attributes);
        let empty = DatasetBuilder::new(Timeline::new(1)).build();
        let d = decode_dataset(&encode_dataset(&empty)).expect("the empty dataset decodes");
        assert_eq!((d.dictionary().len(), d.len()), (0, 0));
    }

    #[test]
    fn fingerprint_is_the_file_hash_and_retain_resets_it() {
        let bytes = encode_dataset(&sample());
        let mut d = decode_dataset(&bytes).expect("decodes");
        assert_eq!(dataset_fingerprint(&d), crate::hash::hash_bytes(&bytes));
        assert_eq!(dataset_fingerprint(&d.clone()), crate::hash::hash_bytes(&bytes));
        d.retain(|h| h.name() != "devs");
        let fp = dataset_fingerprint(&d);
        assert_ne!(fp, crate::hash::hash_bytes(&bytes), "retain must drop the cached value");
        assert_eq!(fp, crate::hash::hash_bytes(&encode_dataset(&d)));
    }

    #[test]
    fn rejects_duplicate_dictionary_entry_and_bad_utf8() {
        let dup = sealed(|buf| {
            put_varint(buf, 2);
            put_str(buf, "red");
            put_str(buf, "red");
            put_varint(buf, 0);
        });
        let err = decode_dataset(&dup).expect_err("duplicate entry");
        assert!(err.to_string().contains("duplicate dictionary entry 'red'"), "{err}");

        let bad = sealed(|buf| {
            put_varint(buf, 1);
            put_varint(buf, 2);
            buf.extend_from_slice(&[0xff, 0xfe]);
            put_varint(buf, 0);
        });
        let err = decode_dataset(&bad).expect_err("invalid utf-8");
        assert!(err.to_string().contains("invalid utf-8"), "{err}");
    }

    #[test]
    fn decoded_dictionary_keeps_its_ids_through_clone_and_into_builder() {
        let d = decode_dataset(&encode_dataset(&sample())).expect("decodes");
        assert_eq!(dataset_fingerprint(&d), dataset_fingerprint(&sample()));
        let mut b = d.clone().into_builder();
        for (id, s) in d.dictionary().iter() {
            assert_eq!(b.dictionary_mut().intern(s), id, "'{s}' re-interns to its id");
        }
        assert_eq!(dataset_fingerprint(&b.build()), dataset_fingerprint(&d));
        let mut b = d.clone().into_builder();
        assert_eq!(b.dictionary_mut().intern("brand-new") as usize, d.dictionary().len());
        assert_eq!(d.dictionary().get("brand-new"), None, "the clone interned, not the source");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("tind-model-binio-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.tind");
        let d = sample();
        write_dataset_file(&d, &path).expect("write");
        let d2 = read_dataset_file(&path).expect("read");
        assert_eq!(d2.len(), d.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weight_fn_roundtrip() {
        let tl = Timeline::new(30);
        let fns = [
            crate::WeightFn::constant_one(),
            crate::WeightFn::uniform_normalized(tl),
            crate::WeightFn::exponential(0.97, tl),
            crate::WeightFn::linear(tl),
            crate::WeightFn::piecewise(&[1.0, 0.5, 0.0, 2.0]),
        ];
        for w in fns {
            let mut buf = Vec::new();
            put_weight_fn(&mut buf, &w);
            let mut bytes = Reader::new(&buf);
            let w2 = get_weight_fn(&mut bytes).expect("roundtrip decodes");
            assert_eq!(w, w2);
            bytes.finish("weight function").expect("all read");
        }
    }

    #[test]
    fn weight_fn_rejects_garbage() {
        assert!(get_weight_fn(&mut Reader::new(&[9])).is_err());
        assert!(get_weight_fn(&mut Reader::new(&[])).is_err());
        assert!(get_weight_fn(&mut Reader::new(&[1, 0, 0])).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_datasets() {
        let a = sample();
        let mut b = DatasetBuilder::new(Timeline::new(100));
        b.add_attribute("other", &[(0, vec!["x", "y", "z", "w", "v"])], 99);
        let b = b.build();
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a));
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
    }

    #[test]
    fn error_display_and_source() {
        let e = corrupt("boom");
        assert!(e.to_string().contains("boom"));
        let io: BinIoError = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
        use std::error::Error;
        assert!(io.source().is_some());
    }
}
