//! `TINDRR` run reports: checksummed JSON snapshots of one run's spans
//! and metrics, emitted by the CLI's `--report <path>`.
//!
//! On-disk shape (one line, canonical serialization):
//!
//! ```json
//! {"magic":"TINDRR1","crc32":<u32>,"payload":{...}}
//! ```
//!
//! The CRC-32 (same polynomial as the binary artifact trailers) covers
//! the canonically serialized payload bytes, so `verify_report` can
//! recompute it after parsing. The payload carries:
//!
//! * `schema_version`, `command`, `args`, `wall_ns`
//! * `phases` — spans whose name starts with `phase.` (the CLI wraps
//!   each coarse stage of a command in one), plus `phase_coverage`
//!   (Σ phase time / wall time; the acceptance bar is ≥ 0.9)
//! * `spans` — every span aggregate (name, count, total_ns, max_ns)
//! * `metrics` — `counters` (with per-shard partials), `gauges`,
//!   `histograms` (log2 buckets)
//! * any extra sections a command appends (e.g. index diagnostics)
//!
//! `devtools/report-schema.json` pins this shape; `validate_schema`
//! implements the JSON-Schema subset the file uses.

use crate::json::{self, Value};
use crate::metrics::{metrics_snapshot, MetricValue};
use crate::span::span_snapshot;

/// Magic string identifying a run report ("TINDRR" + format version).
pub const REPORT_MAGIC: &str = "TINDRR1";

/// Version of the payload layout, bumped on breaking schema changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Prefix that marks a span as a coarse CLI phase.
pub const PHASE_PREFIX: &str = "phase.";

/// Leading bytes of a serialized report; `tind verify` sniffs these the
/// way it sniffs the binary artifact magics.
pub const REPORT_PREFIX: &str = "{\"magic\":\"TINDRR";

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320): the workspace's one
/// implementation, the same function that signs the binary artifacts.
pub use tind_model::checksum::crc32;

/// Snapshot the whole metric registry as the canonical `metrics` JSON
/// object: `{"counters":[...],"gauges":[...],"histograms":[...]}`.
///
/// This is the same shape embedded in a `TINDRR` report payload; the
/// serve daemon's `/metrics` endpoint returns it directly so a scrape
/// and a final report agree field-for-field.
pub fn metrics_value() -> Value {
    // Intern the ring-overflow drop counter up front so scrapes and
    // reports always list it — a 0 reading is the "no data was lost"
    // signal, which matters as much as a nonzero one.
    crate::metrics::counter(crate::trace::DROPPED_COUNTER);
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for m in metrics_snapshot() {
        match m.value {
            MetricValue::Counter { total, shards } => counters.push(Value::obj([
                ("name", Value::str(m.name)),
                ("total", Value::num(total as f64)),
                (
                    "shards",
                    Value::Arr(shards.into_iter().map(|s| Value::num(s as f64)).collect()),
                ),
            ])),
            MetricValue::Gauge(v) => gauges.push(Value::obj([
                ("name", Value::str(m.name)),
                ("value", Value::num(v)),
            ])),
            MetricValue::Histogram { count, sum, buckets } => {
                histograms.push(Value::obj([
                    ("name", Value::str(m.name)),
                    ("count", Value::num(count as f64)),
                    ("sum", Value::num(sum as f64)),
                    (
                        "p50",
                        Value::num(crate::metrics::histogram_quantile(&buckets, 0.50) as f64),
                    ),
                    (
                        "p90",
                        Value::num(crate::metrics::histogram_quantile(&buckets, 0.90) as f64),
                    ),
                    (
                        "p99",
                        Value::num(crate::metrics::histogram_quantile(&buckets, 0.99) as f64),
                    ),
                    (
                        "buckets",
                        Value::Arr(
                            buckets
                                .into_iter()
                                .map(|(bound, n)| {
                                    // u64::MAX exceeds f64's exact range;
                                    // bounds ride along as hex strings.
                                    Value::obj([
                                        ("le", Value::str(format!("{bound:#x}"))),
                                        ("count", Value::num(n as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]))
            }
        }
    }
    Value::obj([
        ("counters", Value::Arr(counters)),
        ("gauges", Value::Arr(gauges)),
        ("histograms", Value::Arr(histograms)),
    ])
}

/// An in-memory run report: the payload object, ready to extend with
/// command-specific sections and serialize.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    payload: Value,
}

impl RunReport {
    /// Snapshot the current span aggregates and metric registry into a
    /// payload. `wall_ns` is the caller-measured wall time of the run;
    /// phase coverage is computed against it.
    pub fn collect(command: &str, args: &[String], wall_ns: u64) -> RunReport {
        let spans = span_snapshot();

        let phase_total: u64 = spans
            .iter()
            .filter(|s| s.name.starts_with(PHASE_PREFIX))
            .map(|s| s.total_ns)
            .sum();
        let coverage = if wall_ns == 0 { 0.0 } else { phase_total as f64 / wall_ns as f64 };

        let span_value = |name: &str, count: u64, total_ns: u64, max_ns: u64| {
            Value::obj([
                ("name", Value::str(name)),
                ("count", Value::num(count as f64)),
                ("total_ns", Value::num(total_ns as f64)),
                ("max_ns", Value::num(max_ns as f64)),
            ])
        };

        let phases: Vec<Value> = spans
            .iter()
            .filter(|s| s.name.starts_with(PHASE_PREFIX))
            .map(|s| span_value(s.name, s.count, s.total_ns, s.max_ns))
            .collect();
        let all_spans: Vec<Value> = spans
            .iter()
            .map(|s| span_value(s.name, s.count, s.total_ns, s.max_ns))
            .collect();

        let mut payload = Value::obj([
            ("schema_version", Value::num(SCHEMA_VERSION as f64)),
            ("command", Value::str(command)),
            ("args", Value::Arr(args.iter().map(Value::str).collect())),
            ("wall_ns", Value::num(wall_ns as f64)),
            ("phase_coverage", Value::num(coverage)),
            ("phases", Value::Arr(phases)),
            ("spans", Value::Arr(all_spans)),
            ("metrics", metrics_value()),
        ]);
        // Long-running commands that ticked the metrics-history ring get
        // their time series embedded; one-shot commands stay compact.
        if crate::history::history_len() > 0 {
            payload.set("metrics_history", crate::history::history_value());
        }
        RunReport { payload }
    }

    /// Append (or replace) a command-specific section in the payload.
    pub fn insert_section(&mut self, name: &str, value: Value) {
        self.payload.set(name, value);
    }

    pub fn payload(&self) -> &Value {
        &self.payload
    }

    /// Fraction of wall time covered by `phase.*` spans.
    pub fn phase_coverage(&self) -> f64 {
        self.payload.get("phase_coverage").and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// Serialize with magic + CRC envelope (trailing newline included).
    pub fn to_json(&self) -> String {
        json::seal(REPORT_MAGIC, &self.payload)
    }
}

/// Parse and integrity-check a serialized report; returns the payload.
/// Refusals name the failing byte offset (see [`json::unseal`]).
pub fn verify_report(text: &str) -> Result<Value, String> {
    json::unseal(text, REPORT_MAGIC, "report")
}

/// Validate `value` against a JSON-Schema subset: `type` (string or list),
/// `required`, `properties`, `items`, `enum`, `minimum`, `maximum`.
/// Unknown object fields are allowed (reports may carry extra sections).
/// Returns human-readable errors with `$`-rooted paths; empty = valid.
pub fn validate_schema(value: &Value, schema: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    check(value, schema, "$", &mut errors);
    errors
}

fn type_name(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Num(_) => "number",
        Value::Str(_) => "string",
        Value::Arr(_) => "array",
        Value::Obj(_) => "object",
    }
}

fn type_matches(value: &Value, wanted: &str) -> bool {
    match wanted {
        "integer" => matches!(value, Value::Num(v) if v.fract() == 0.0),
        other => type_name(value) == other,
    }
}

fn check(value: &Value, schema: &Value, path: &str, errors: &mut Vec<String>) {
    if errors.len() >= 64 {
        return; // enough to act on; don't flood on totally-wrong documents
    }
    if let Some(ty) = schema.get("type") {
        let ok = match ty {
            Value::Str(s) => type_matches(value, s),
            Value::Arr(options) => options
                .iter()
                .filter_map(Value::as_str)
                .any(|s| type_matches(value, s)),
            _ => true,
        };
        if !ok {
            errors.push(format!("{path}: expected type {}, got {}", ty.to_json(), type_name(value)));
            return;
        }
    }
    if let Some(Value::Arr(allowed)) = schema.get("enum") {
        if !allowed.contains(value) {
            errors.push(format!("{path}: value {} not in enum", value.to_json()));
        }
    }
    if let (Some(min), Some(v)) = (schema.get("minimum").and_then(Value::as_f64), value.as_f64()) {
        if v < min {
            errors.push(format!("{path}: {v} below minimum {min}"));
        }
    }
    if let (Some(max), Some(v)) = (schema.get("maximum").and_then(Value::as_f64), value.as_f64()) {
        if v > max {
            errors.push(format!("{path}: {v} above maximum {max}"));
        }
    }
    if let Some(Value::Arr(required)) = schema.get("required") {
        for key in required.iter().filter_map(Value::as_str) {
            if value.get(key).is_none() {
                errors.push(format!("{path}: missing required field `{key}`"));
            }
        }
    }
    if let Some(Value::Obj(props)) = schema.get("properties") {
        for (key, sub) in props {
            if let Some(field) = value.get(key) {
                check(field, sub, &format!("{path}.{key}"), errors);
            }
        }
    }
    if let (Some(items), Some(elems)) = (schema.get("items"), value.as_arr()) {
        for (i, elem) in elems.iter().enumerate() {
            check(elem, items, &format!("{path}[{i}]"), errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn collect_serialize_verify_roundtrip() {
        let _g = crate::test_guard();
        crate::reset();
        crate::metrics::counter("test.report.counter").add(7);
        crate::metrics::gauge("test.report.gauge").set(0.25);
        crate::metrics::histogram("test.report.hist").record(100);
        {
            let _p = crate::span::span("phase.test");
        }
        let mut report =
            RunReport::collect("unit-test", &["--flag".to_string()], 1_000_000);
        report.insert_section("extra", Value::obj([("answer", Value::num(42.0))]));

        let text = report.to_json();
        assert!(text.starts_with(REPORT_PREFIX));
        let payload = verify_report(&text).expect("roundtrip verifies");
        assert_eq!(payload.get("command").unwrap().as_str().unwrap(), "unit-test");
        assert_eq!(
            payload.get("extra").unwrap().get("answer").unwrap().as_f64().unwrap(),
            42.0
        );
        let phases = payload.get("phases").unwrap().as_arr().unwrap();
        assert!(phases
            .iter()
            .any(|p| p.get("name").unwrap().as_str() == Some("phase.test")));
        let counters = payload.get("metrics").unwrap().get("counters").unwrap().as_arr().unwrap();
        let c = counters
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("test.report.counter"))
            .unwrap();
        assert_eq!(c.get("total").unwrap().as_f64().unwrap(), 7.0);
        let shard_sum: f64 = c
            .get("shards")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_f64().unwrap())
            .sum();
        assert_eq!(shard_sum, 7.0);
    }

    #[test]
    fn tampering_fails_verification() {
        let report = RunReport::collect("t", &[], 10);
        let text = report.to_json();
        let tampered = text.replace("\"wall_ns\":10", "\"wall_ns\":11");
        assert_ne!(text, tampered);
        assert!(verify_report(&tampered).unwrap_err().contains("checksum"));
        assert!(verify_report("{\"magic\":\"NOPE\",\"crc32\":0,\"payload\":{}}")
            .unwrap_err()
            .contains("magic"));
    }

    #[test]
    fn schema_subset_validates_and_reports_paths() {
        let schema = json::parse(
            r#"{
                "type": "object",
                "required": ["name", "count"],
                "properties": {
                    "name": {"type": "string"},
                    "count": {"type": "integer", "minimum": 0},
                    "tags": {"type": "array", "items": {"type": "string"}},
                    "mode": {"enum": ["fast", "slow"]}
                }
            }"#,
        )
        .unwrap();

        let good = json::parse(
            r#"{"name":"x","count":3,"tags":["a","b"],"mode":"fast","extra":true}"#,
        )
        .unwrap();
        assert!(validate_schema(&good, &schema).is_empty());

        let bad = json::parse(r#"{"count":-1.5,"tags":["a",7],"mode":"medium"}"#).unwrap();
        let errors = validate_schema(&bad, &schema);
        assert!(errors.iter().any(|e| e.contains("missing required field `name`")));
        assert!(errors.iter().any(|e| e.contains("$.count")));
        assert!(errors.iter().any(|e| e.contains("$.tags[1]")));
        assert!(errors.iter().any(|e| e.contains("not in enum")));
    }
}
