//! Request-scoped tracing: trace identity, the shared obs clock, and the
//! checksummed `TINDTF` file format.
//!
//! Span aggregates can say *stage 4 cost 40 % overall* but not *why
//! this request was slow*. A [`TraceContext`] (128-bit trace id + span
//! id) is allocated per traced request and propagated explicitly across
//! threads (admission queues, coalesced batch waves, the core search
//! kernels). The one recorder ([`crate::span`](mod@crate::span)) writes
//! every interval opened under a live context to the recording thread's
//! bounded ring, with its own span id and an explicit parent edge: [`crate::traced_span`] for same-thread scopes,
//! [`record_span`] / [`record_link`] for cross-thread intervals and
//! cross-trace edges. A coalesced wave gets its *own* trace id; each
//! member links to the wave's span, and [`collect_trace`] merges the
//! member's and the wave's trace ids into one [`ParsedTrace`] — the same
//! type `tind trace` reads back from a file. Collection scans every ring,
//! so it runs off the hot path and only for traces someone keeps.
//!
//! With `obs-off` the context allocators return the zero context, which
//! every recording call ignores; this module's format half stays, so an
//! `obs-off` build still verifies and renders trace files.
//!
//! ## `TINDTF` on-disk shape
//!
//! The one envelope of `TINDRR` too ([`crate::json::seal`]: one line,
//! canonical JSON, CRC-32 over the serialized payload bytes):
//!
//! ```json
//! {"magic":"TINDTF1","crc32":<u32>,"payload":{"schema_version":1,
//!  "trace_id":"0x…","root_span_id":"0x…","dropped":0,"events":[
//!  {"trace":"0x…","span":"0x…","parent":"0x…","name":"serve.request",
//!   "tid":3,"start_ns":12,"dur_ns":3456,"kind":"span"}]}}
//! ```
//!
//! Ids are hex strings (they exceed `f64`'s exact integer range); times
//! are nanoseconds since the process-wide obs epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{self, Value};

pub use crate::span::{collect_trace, record_link, record_span, trace_drops_total};

/// Capacity of each thread's ring buffer of trace events.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Name of the counter of trace events lost to trace-ring overflow.
pub const DROPPED_COUNTER: &str = "obs.spans.dropped_total";

/// Magic string identifying a trace file ("TINDTF" + format version).
pub const TRACE_MAGIC: &str = "TINDTF1";

/// Leading bytes of a serialized trace file; `tind verify` sniffs these
/// the way it sniffs `TINDRR` reports and the binary artifact magics.
pub const TRACE_PREFIX: &str = "{\"magic\":\"TINDTF";

/// Version of the trace payload layout.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Identity carried by one traced request (or wave): which trace its
/// events belong to and which span new children should parent to.
///
/// `trace_id` 0 / `span_id` 0 mean "not traced" — recording against a
/// zeroed context is harmless, and parent id 0 marks a root span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    pub trace_id: u128,
    pub span_id: u64,
}

impl TraceContext {
    /// The same trace, re-rooted at `span_id` — how a parent hands its
    /// children the edge to attach to.
    pub fn child(self, span_id: u64) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id }
    }
}

/// Nanoseconds since the process-wide obs epoch — the one clock every
/// span and trace event is stamped with, so intervals recorded on
/// different threads are directly comparable. `0` under `obs-off`.
pub fn now_ns() -> u64 {
    if cfg!(feature = "obs-off") {
        return 0;
    }
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// Allocate a fresh trace identity (128-bit trace id + root span id);
/// the zero context, which records nothing, under `obs-off`. Trace ids
/// mix a per-process nonce with a counter, so ids from different runs of
/// a long-lived fleet don't collide when traces are exported side by
/// side; span ids are process-unique and nonzero.
pub fn alloc_context() -> TraceContext {
    if cfg!(feature = "obs-off") {
        return TraceContext { trace_id: 0, span_id: 0 };
    }
    static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
    static NONCE: OnceLock<u64> = OnceLock::new();
    let nonce = *NONCE.get_or_init(|| {
        // Wall-clock nanos make a good-enough uniqueness nonce; the low
        // bits differ between any two process starts.
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5eed, |d| d.as_nanos() as u64)
            | 1
    });
    let low = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    TraceContext { trace_id: (u128::from(nonce) << 64) | u128::from(low), span_id: alloc_span_id() }
}

/// Process-unique nonzero span id — for callers that record cross-thread
/// intervals with [`record_span`] and need the interval's identity
/// before (or on a different thread than) the recording.
pub fn alloc_span_id() -> u64 {
    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Parse and integrity-check a serialized `TINDTF` line; returns the
/// payload. Refusals name the failing byte offset (see [`json::unseal`]).
pub fn verify_trace(text: &str) -> Result<Value, String> {
    json::unseal(text, TRACE_MAGIC, "trace")
}

/// An owned trace: what [`collect_trace`] returns from the rings and
/// what `tind trace` decodes from a `TINDTF` payload, renders and diffs.
/// [`ParsedTrace::to_value`] reproduces a parsed payload bit-exactly
/// (round-trip is pinned by tests).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedTrace {
    pub trace_id: String,
    pub root_span_id: String,
    pub dropped: u64,
    pub events: Vec<ParsedEvent>,
}

/// One owned event of a [`ParsedTrace`]; ids stay in their hex spelling.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    pub trace: String,
    pub span: String,
    pub parent: String,
    pub name: String,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub kind: String,
}

impl ParsedTrace {
    /// Decode a verified payload (see [`verify_trace`]).
    pub fn from_payload(payload: &Value) -> Result<ParsedTrace, String> {
        let field_str = |v: &Value, name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("trace payload missing string field `{name}`"))
        };
        let field_num = |v: &Value, name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("trace payload missing numeric field `{name}`"))
        };
        let version = field_num(payload, "schema_version")?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(format!("unsupported trace schema_version {version}"));
        }
        let events_raw = payload
            .get("events")
            .and_then(Value::as_arr)
            .ok_or_else(|| "trace payload missing `events` array".to_string())?;
        let mut events = Vec::with_capacity(events_raw.len());
        for (i, e) in events_raw.iter().enumerate() {
            let kind = field_str(e, "kind").map_err(|err| format!("events[{i}]: {err}"))?;
            if kind != "span" && kind != "link" {
                return Err(format!("events[{i}]: unknown kind `{kind}`"));
            }
            events.push(ParsedEvent {
                trace: field_str(e, "trace").map_err(|err| format!("events[{i}]: {err}"))?,
                span: field_str(e, "span").map_err(|err| format!("events[{i}]: {err}"))?,
                parent: field_str(e, "parent").map_err(|err| format!("events[{i}]: {err}"))?,
                name: field_str(e, "name").map_err(|err| format!("events[{i}]: {err}"))?,
                tid: field_num(e, "tid").map_err(|err| format!("events[{i}]: {err}"))? as u32,
                start_ns: field_num(e, "start_ns")
                    .map_err(|err| format!("events[{i}]: {err}"))?,
                dur_ns: field_num(e, "dur_ns").map_err(|err| format!("events[{i}]: {err}"))?,
                kind,
            });
        }
        Ok(ParsedTrace {
            trace_id: field_str(payload, "trace_id")?,
            root_span_id: field_str(payload, "root_span_id")?,
            dropped: field_num(payload, "dropped")?,
            events,
        })
    }

    /// The canonical `TINDTF` payload — for a parsed trace, bit-identical
    /// to the payload it was parsed from.
    pub fn to_value(&self) -> Value {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                Value::obj([
                    ("trace", Value::str(e.trace.clone())),
                    ("span", Value::str(e.span.clone())),
                    ("parent", Value::str(e.parent.clone())),
                    ("name", Value::str(e.name.clone())),
                    ("tid", Value::num(f64::from(e.tid))),
                    ("start_ns", Value::num(e.start_ns as f64)),
                    ("dur_ns", Value::num(e.dur_ns as f64)),
                    ("kind", Value::str(e.kind.clone())),
                ])
            })
            .collect();
        Value::obj([
            ("schema_version", Value::num(TRACE_SCHEMA_VERSION as f64)),
            ("trace_id", Value::str(self.trace_id.clone())),
            ("root_span_id", Value::str(self.root_span_id.clone())),
            ("dropped", Value::num(self.dropped as f64)),
            ("events", Value::Arr(events)),
        ])
    }

    /// Serialize with the `TINDTF` magic + CRC envelope (one line).
    pub fn to_json(&self) -> String {
        json::seal(TRACE_MAGIC, &self.to_value())
    }

    /// The root span event, when present.
    pub fn root(&self) -> Option<&ParsedEvent> {
        self.events.iter().find(|e| e.span == self.root_span_id && e.kind == "span")
    }

    /// Events referencing a span id that was recorded nowhere — a
    /// dangling parent edge, or a link whose target span is absent.
    /// Evidence of ring overflow or partial collection.
    pub fn missing_parents(&self) -> usize {
        let known: std::collections::HashSet<&str> = self
            .events
            .iter()
            .filter(|e| e.kind == "span")
            .map(|e| e.span.as_str())
            .collect();
        self.events
            .iter()
            .filter(|e| {
                (e.parent != "0x0" && !known.contains(e.parent.as_str()))
                    || (e.kind == "link" && !known.contains(e.span.as_str()))
            })
            .count()
    }

    /// Fraction of the root span's wall time covered by the union of
    /// its recorded descendant intervals (1.0 when fully attributed;
    /// `None` without a root). The acceptance bar for served request
    /// traces is ≥ 0.9.
    pub fn coverage(&self) -> Option<f64> {
        let root = self.root()?;
        if root.dur_ns == 0 {
            return Some(1.0);
        }
        let (lo, hi) = (root.start_ns, root.start_ns + root.dur_ns);
        let mut intervals: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.kind == "span" && e.span != self.root_span_id)
            .map(|e| (e.start_ns.clamp(lo, hi), (e.start_ns + e.dur_ns).clamp(lo, hi)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = lo;
        for (a, b) in intervals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        Some(covered as f64 / root.dur_ns as f64)
    }

    /// Export as Chrome `trace_event` JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format"): spans become complete (`ph:"X"`)
    /// events with microsecond timestamps, links become instants.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                let mut ev = Value::obj([
                    ("name", Value::str(e.name.clone())),
                    ("cat", Value::str("tind")),
                    ("ph", Value::str(if e.kind == "span" { "X" } else { "i" })),
                    ("ts", Value::num(e.start_ns as f64 / 1000.0)),
                    ("pid", Value::num(1.0)),
                    ("tid", Value::num(f64::from(e.tid))),
                    (
                        "args",
                        Value::obj([
                            ("trace", Value::str(e.trace.clone())),
                            ("span", Value::str(e.span.clone())),
                            ("parent", Value::str(e.parent.clone())),
                        ]),
                    ),
                ]);
                if e.kind == "span" {
                    ev.set("dur", Value::num(e.dur_ns as f64 / 1000.0));
                } else {
                    ev.set("s", Value::str("t"));
                }
                ev
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ns")),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of [`sample_trace`]; `at` is `(start_ns, dur_ns)`.
    fn event(ids: (&str, &str, &str), name: &str, at: (u64, u64), kind: &str) -> ParsedEvent {
        let (trace, span, parent) = ids;
        ParsedEvent {
            trace: trace.into(),
            span: span.into(),
            parent: parent.into(),
            name: name.into(),
            tid: if name == "serve.request" { 1 } else { 2 },
            start_ns: at.0,
            dur_ns: at.1,
            kind: kind.into(),
        }
    }

    fn sample_trace() -> ParsedTrace {
        let (req, wave) = ("0xabc00000001", "0xabc00000002");
        ParsedTrace {
            trace_id: req.into(),
            root_span_id: "0x7".into(),
            dropped: 0,
            events: vec![
                event((req, "0x7", "0x0"), "serve.request", (100, 1000), "span"),
                event((req, "0x8", "0x7"), "serve.queued", (100, 400), "span"),
                event((req, "0x63", "0x7"), "serve.wave_link", (500, 0), "link"),
                event((wave, "0x63", "0x0"), "serve.wave", (500, 600), "span"),
            ],
        }
    }

    #[test]
    fn tindtf_roundtrips_bit_exactly() {
        let text = sample_trace().to_json();
        assert!(text.starts_with(TRACE_PREFIX));
        let payload = verify_trace(&text).expect("pristine trace verifies");
        let parsed = ParsedTrace::from_payload(&payload).expect("decodes");
        assert_eq!(parsed, sample_trace());
        assert_eq!(parsed.to_json(), text, "round trip is bit-exact");
    }

    #[test]
    fn tampering_is_refused_with_an_offset() {
        let text = sample_trace().to_json();
        let tampered = text.replace("\"dur_ns\":1000", "\"dur_ns\":1001");
        assert_ne!(text, tampered);
        let err = verify_trace(&tampered).unwrap_err();
        assert!(err.contains("byte offset"), "error names an offset: {err}");
        let garbled = text.replace("{\"magic\"", "{\"magic");
        let err = verify_trace(&garbled).unwrap_err();
        assert!(err.contains("byte"), "parse errors carry offsets: {err}");
        assert!(verify_trace("{\"magic\":\"NOPE1\",\"crc32\":0,\"payload\":{}}")
            .unwrap_err()
            .contains("magic"));
    }

    #[test]
    fn coverage_and_missing_parents_flag_incomplete_traces() {
        let parsed = sample_trace();
        // queued [100,500) + the merged wave span [500,1100) tile the
        // whole 1000ns root.
        let cov = parsed.coverage().expect("has a root");
        assert!((cov - 1.0).abs() < 1e-9, "coverage {cov}");
        assert_eq!(parsed.missing_parents(), 0, "wave span 0x63 is recorded");

        // Drop the wave span: the link's target dangles and coverage
        // falls to the queued span's 400ns.
        let mut cut = parsed.clone();
        cut.events.retain(|e| e.name != "serve.wave");
        assert_eq!(cut.missing_parents(), 1);
        let cov = cut.coverage().expect("root survives");
        assert!((cov - 0.4).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn chrome_export_is_deterministic_and_flags_links() {
        let parsed = sample_trace();
        let chrome = parsed.to_chrome_json();
        assert_eq!(chrome, parsed.to_chrome_json());
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"name\":\"serve.wave\""));
        assert!(chrome.starts_with("{\"traceEvents\":["));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn record_and_collect_links_through_a_shared_wave() {
        let _g = crate::test_guard();
        crate::span::reset_recorder();
        let req = alloc_context();
        let wave = alloc_context();
        let t0 = now_ns();
        record_span(req, 0, "serve.request", t0, 1000);
        record_link(req, wave.span_id, "serve.wave_link", t0 + 10);
        record_span(wave, 0, "serve.wave", t0 + 10, 500);
        {
            let child = crate::traced_span("core.search.stage4", Some(wave));
            assert_eq!(child.child_ctx().unwrap().trace_id, wave.trace_id);
        }

        let hex = |v: u64| format!("{v:#x}");
        let snap = collect_trace(req, &[wave.trace_id]);
        assert_eq!(snap.trace_id, format!("{:#x}", req.trace_id));
        assert_eq!(snap.root_span_id, hex(req.span_id));
        let names: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"serve.request"));
        assert!(names.contains(&"serve.wave"));
        assert!(names.contains(&"serve.wave_link"));
        assert!(names.contains(&"core.search.stage4"));
        let link = snap.events.iter().find(|e| e.kind == "link").unwrap();
        assert_eq!(link.span, hex(wave.span_id));
        assert_eq!(link.parent, hex(req.span_id));
        let stage = snap.events.iter().find(|e| e.name == "core.search.stage4").unwrap();
        assert_eq!(stage.parent, hex(wave.span_id), "stage parents to the wave span");
        assert_eq!(snap.missing_parents(), 0);

        // Other traces never leak into a collection.
        let other = alloc_context();
        record_span(other, 0, "noise", t0, 5);
        let again = collect_trace(req, &[wave.trace_id]);
        assert!(again.events.iter().all(|e| e.name != "noise"));
        crate::span::reset_recorder();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn ring_overflow_counts_drops() {
        let _g = crate::test_guard();
        crate::span::reset_recorder();
        crate::metrics::reset_metrics();
        let ctx = alloc_context();
        for i in 0..(TRACE_RING_CAPACITY + 25) {
            record_span(ctx.child(ctx.span_id + i as u64), 0, "flood", i as u64, 1);
        }
        assert_eq!(trace_drops_total(), 25);
        assert_eq!(crate::counter("obs.spans.dropped_total").value(), 25);
        let snap = collect_trace(ctx, &[]);
        assert_eq!(snap.dropped, 25, "collected traces carry the drop total");
        assert_eq!(snap.events.len(), TRACE_RING_CAPACITY);
        // The oldest events were overwritten, the newest kept.
        assert_eq!(snap.events[0].start_ns, 25);
        crate::span::reset_recorder();
        assert_eq!(trace_drops_total(), 0);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_trace_layer_is_inert() {
        let ctx = alloc_context();
        assert_eq!(ctx.trace_id, 0);
        record_span(ctx, 0, "x", 0, 1);
        record_link(ctx, 1, "l", 0);
        assert!(crate::traced_span("y", Some(ctx)).child_ctx().is_none());
        assert!(collect_trace(ctx, &[]).events.is_empty());
        assert_eq!(trace_drops_total(), 0);
        // The pure exporters still work.
        assert!(verify_trace(&collect_trace(ctx, &[]).to_json()).is_ok());
        assert!(verify_trace(&sample_trace().to_json()).is_ok());
    }
}
