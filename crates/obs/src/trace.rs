//! Request-scoped tracing: explicit-parent interval events in bounded
//! per-thread rings, with checksummed `TINDTF` export.
//!
//! The span layer ([`crate::span`]) aggregates — it can say *stage 4 cost
//! 40% overall* but not *why this request was slow*. This module records
//! per-request timelines instead: a [`TraceContext`] (128-bit trace id +
//! span id) is allocated per accepted request, propagated explicitly
//! across threads (admission queues, coalesced batch waves, the core
//! search kernels), and every completed interval is recorded as a
//! [`TraceEvent`] carrying its own span id and an explicit
//! `parent_span_id` edge. Events land in the recording thread's bounded
//! ring — no allocation on the hot path (names are `&'static str`, rings
//! are preallocated) — and are only *collected* (scanned and merged
//! across rings) for requests that were sampled, off the hot path.
//!
//! Ring overflow is never silent: each overwrite bumps the thread's drop
//! count and the `obs.spans.dropped_total` counter, and the drop total
//! rides along in every [`TraceSnapshot`] so renderers can warn that a
//! trace may be incomplete.
//!
//! Cross-thread spans (a request's queue wait starts on a reader thread
//! and ends on a worker) are recorded with explicit start/duration via
//! [`record_span`] using the shared [`now_ns`] clock; same-thread scopes
//! use the RAII [`TraceSpan`]. A coalesced wave gets its *own* trace id;
//! each member records a link event ([`record_link`]) naming the wave's
//! span, and member exec spans parent directly to it — collection then
//! merges the member's and the wave's trace ids into one timeline.
//!
//! With `obs-off` every recording function is a no-op, [`TraceSpan`] is
//! zero-sized, and collection returns empty snapshots; the pure
//! export/verify half (TINDTF envelope, Chrome JSON) stays available so
//! `tind trace` can still render files produced by enabled builds.
//!
//! ## `TINDTF` on-disk shape
//!
//! Same envelope discipline as `TINDRR` (one line, canonical JSON, CRC-32
//! over the serialized payload bytes):
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

use crate::json::{self, Value};
use crate::report::crc32;

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

/// What a recorded event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A completed interval (`span_id` is the interval's own id).
    Span,
    /// A cross-trace edge: `span_id` names a span in *another* trace
    /// (e.g. the shared wave span) that `parent_span_id` links to.
    Link,
}

/// One recorded trace event. `parent_span_id == 0` marks a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub trace_id: u128,
    pub span_id: u64,
    pub parent_span_id: u64,
    pub name: &'static str,
    /// Small stable id of the recording thread (Chrome export lane).
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub kind: TraceEventKind,
}

/// A collected trace: every event whose trace id matched, merged across
/// all thread rings and sorted, plus the drop total at collection time
/// (nonzero ⇒ the trace may be missing events).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSnapshot {
    pub trace_id: u128,
    pub root_span_id: u64,
    pub dropped: u64,
    pub events: Vec<TraceEvent>,
}

#[cfg(not(feature = "obs-off"))]
pub use enabled::{
    alloc_context, alloc_span_id, collect_trace, now_ns, record_link, record_span,
    reset_traces, trace_drops_total, TraceSpan,
};

#[cfg(feature = "obs-off")]
pub use disabled::{
    alloc_context, alloc_span_id, collect_trace, now_ns, record_link, record_span,
    reset_traces, trace_drops_total, TraceSpan,
};

#[cfg(not(feature = "obs-off"))]
mod enabled {
    use super::{TraceContext, TraceEvent, TraceEventKind, TraceSnapshot, TRACE_RING_CAPACITY};
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    struct ThreadTraces {
        tid: u32,
        ring: Vec<TraceEvent>,
        /// Next slot to overwrite once the ring is full.
        ring_next: usize,
        /// Events overwritten before anyone collected them.
        dropped: u64,
    }

    impl ThreadTraces {
        fn record(&mut self, event: TraceEvent) {
            if self.ring.len() < TRACE_RING_CAPACITY {
                self.ring.push(event);
            } else {
                self.ring[self.ring_next] = event;
                self.ring_next = (self.ring_next + 1) % TRACE_RING_CAPACITY;
                self.dropped += 1;
                drop_counter().incr();
            }
        }
    }

    /// Cached handle to the ring-overflow counter, interned once so the
    /// overflow path stays allocation-free after the first drop.
    fn drop_counter() -> &'static crate::metrics::Counter {
        static HANDLE: OnceLock<&'static crate::metrics::Counter> = OnceLock::new();
        HANDLE.get_or_init(|| crate::metrics::counter(super::DROPPED_COUNTER))
    }

    type Shared = Arc<Mutex<ThreadTraces>>;

    fn registry() -> &'static Mutex<Vec<Shared>> {
        static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    thread_local! {
        static STATE: Shared = {
            static NEXT_TID: AtomicU32 = AtomicU32::new(1);
            let state = Arc::new(Mutex::new(ThreadTraces {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ring: Vec::with_capacity(TRACE_RING_CAPACITY),
                ring_next: 0,
                dropped: 0,
            }));
            lock(registry()).push(state.clone());
            state
        };
    }

    /// Nanoseconds since the process-wide obs epoch — the shared clock
    /// every trace event is stamped with, so intervals recorded on
    /// different threads are directly comparable.
    pub fn now_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        Instant::now().saturating_duration_since(epoch).as_nanos() as u64
    }

    /// Allocate a fresh trace identity (128-bit trace id + root span id).
    /// Trace ids mix a per-process nonce with a counter, so ids from
    /// different runs of a long-lived fleet don't collide when traces are
    /// exported side by side; span ids are process-unique and nonzero.
    pub fn alloc_context() -> TraceContext {
        static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
        static NONCE: OnceLock<u64> = OnceLock::new();
        let nonce = *NONCE.get_or_init(|| {
            // Wall-clock nanos make a good-enough uniqueness nonce; the
            // low bits differ between any two process starts.
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0x5eed, |d| d.as_nanos() as u64)
                | 1
        });
        let low = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            trace_id: (u128::from(nonce) << 64) | u128::from(low),
            span_id: alloc_span_id(),
        }
    }

    /// Process-unique nonzero span id — for callers that record
    /// cross-thread intervals with [`record_span`] and need the interval's
    /// identity before (or on a different thread than) the recording.
    pub fn alloc_span_id() -> u64 {
        static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a completed interval with explicit identity and timing —
    /// the cross-thread form (queue waits start on one thread and end on
    /// another, where RAII guards can't follow).
    pub fn record_span(
        ctx: TraceContext,
        parent_span_id: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if ctx.trace_id == 0 {
            return;
        }
        record(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id,
            name,
            tid: 0,
            start_ns,
            dur_ns,
            kind: TraceEventKind::Span,
        });
    }

    /// Record a cross-trace edge in `ctx.trace_id`: `linked_span_id`
    /// (a span of another trace, e.g. the shared wave span) is linked
    /// from `ctx.span_id`.
    pub fn record_link(
        ctx: TraceContext,
        linked_span_id: u64,
        name: &'static str,
        at_ns: u64,
    ) {
        if ctx.trace_id == 0 {
            return;
        }
        record(TraceEvent {
            trace_id: ctx.trace_id,
            span_id: linked_span_id,
            parent_span_id: ctx.span_id,
            name,
            tid: 0,
            start_ns: at_ns,
            dur_ns: 0,
            kind: TraceEventKind::Link,
        });
    }

    fn record(mut event: TraceEvent) {
        STATE.with(|s| {
            let mut t = lock(s);
            event.tid = t.tid;
            t.record(event);
        });
    }

    /// RAII same-thread trace span: allocates its span id up front (so
    /// children can parent to [`TraceSpan::id`] before it closes) and
    /// records on drop with `parent = ctx.span_id`. A `None` context is
    /// a complete no-op — not even the clock is read.
    pub struct TraceSpan {
        ctx: Option<(TraceContext, u64, &'static str)>,
        start_ns: u64,
    }

    impl TraceSpan {
        pub fn start(ctx: Option<TraceContext>, name: &'static str) -> TraceSpan {
            match ctx {
                Some(c) if c.trace_id != 0 => TraceSpan {
                    ctx: Some((c, alloc_span_id(), name)),
                    start_ns: now_ns(),
                },
                _ => TraceSpan { ctx: None, start_ns: 0 },
            }
        }

        /// This span's own id (0 when not tracing) — what children use
        /// as their parent edge, via [`TraceContext::child`].
        pub fn id(&self) -> u64 {
            self.ctx.map_or(0, |(_, id, _)| id)
        }

        /// The context children of this span should record under.
        pub fn child_ctx(&self) -> Option<TraceContext> {
            self.ctx.map(|(c, id, _)| c.child(id))
        }
    }

    impl Drop for TraceSpan {
        fn drop(&mut self) {
            if let Some((ctx, span_id, name)) = self.ctx {
                let end = now_ns();
                record(TraceEvent {
                    trace_id: ctx.trace_id,
                    span_id,
                    parent_span_id: ctx.span_id,
                    name,
                    tid: 0,
                    start_ns: self.start_ns,
                    dur_ns: end.saturating_sub(self.start_ns),
                    kind: TraceEventKind::Span,
                });
            }
        }
    }

    /// Collect every event belonging to `root.trace_id` or any id in
    /// `extra` (e.g. the wave trace a request's exec span parents into),
    /// merged across all thread rings and sorted by start time. Runs off
    /// the hot path — only sampled requests pay for a scan.
    pub fn collect_trace(root: TraceContext, extra: &[u128]) -> TraceSnapshot {
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut dropped = 0u64;
        for shared in lock(registry()).iter() {
            let state = lock(shared);
            dropped += state.dropped;
            events.extend(
                state
                    .ring
                    .iter()
                    .filter(|e| e.trace_id == root.trace_id || extra.contains(&e.trace_id))
                    .cloned(),
            );
        }
        events.sort_by_key(|e| (e.start_ns, e.span_id));
        TraceSnapshot { trace_id: root.trace_id, root_span_id: root.span_id, dropped, events }
    }

    /// Total trace events dropped to ring overflow across all threads.
    pub fn trace_drops_total() -> u64 {
        lock(registry()).iter().map(|s| lock(s).dropped).sum()
    }

    /// Clear all recorded trace events and drop state for exited threads.
    pub fn reset_traces() {
        let mut reg = lock(registry());
        reg.retain(|shared| Arc::strong_count(shared) > 1);
        for shared in reg.iter() {
            let mut state = lock(shared);
            state.ring.clear();
            state.ring_next = 0;
            state.dropped = 0;
        }
    }
}

#[cfg(feature = "obs-off")]
mod disabled {
    use super::{TraceContext, TraceSnapshot};

    pub fn now_ns() -> u64 {
        0
    }

    pub fn alloc_context() -> TraceContext {
        TraceContext { trace_id: 0, span_id: 0 }
    }

    pub fn alloc_span_id() -> u64 {
        0
    }

    #[inline(always)]
    pub fn record_span(
        _ctx: TraceContext,
        _parent_span_id: u64,
        _name: &'static str,
        _start_ns: u64,
        _dur_ns: u64,
    ) {
    }

    #[inline(always)]
    pub fn record_link(
        _ctx: TraceContext,
        _linked_span_id: u64,
        _name: &'static str,
        _at_ns: u64,
    ) {
    }

    /// Zero-cost no-op guard.
    pub struct TraceSpan;

    impl TraceSpan {
        #[inline(always)]
        pub fn start(_ctx: Option<TraceContext>, _name: &'static str) -> TraceSpan {
            TraceSpan
        }

        pub fn id(&self) -> u64 {
            0
        }

        pub fn child_ctx(&self) -> Option<TraceContext> {
            None
        }
    }

    pub fn collect_trace(root: TraceContext, _extra: &[u128]) -> TraceSnapshot {
        TraceSnapshot {
            trace_id: root.trace_id,
            root_span_id: root.span_id,
            dropped: 0,
            events: Vec::new(),
        }
    }

    pub fn trace_drops_total() -> u64 {
        0
    }

    pub fn reset_traces() {}
}

// ---------------------------------------------------------------------
// Export / verify — pure data transforms, available with or without
// `obs-off` (the CLI must render trace files however it was built).
// ---------------------------------------------------------------------

fn hex_u128(v: u128) -> Value {
    Value::str(format!("{v:#x}"))
}

fn hex_u64(v: u64) -> Value {
    Value::str(format!("{v:#x}"))
}

fn kind_str(kind: TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::Span => "span",
        TraceEventKind::Link => "link",
    }
}

impl TraceSnapshot {
    /// The canonical `TINDTF` payload object.
    pub fn to_value(&self) -> Value {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                Value::obj([
                    ("trace", hex_u128(e.trace_id)),
                    ("span", hex_u64(e.span_id)),
                    ("parent", hex_u64(e.parent_span_id)),
                    ("name", Value::str(e.name)),
                    ("tid", Value::num(f64::from(e.tid))),
                    ("start_ns", Value::num(e.start_ns as f64)),
                    ("dur_ns", Value::num(e.dur_ns as f64)),
                    ("kind", Value::str(kind_str(e.kind))),
                ])
            })
            .collect();
        Value::obj([
            ("schema_version", Value::num(TRACE_SCHEMA_VERSION as f64)),
            ("trace_id", hex_u128(self.trace_id)),
            ("root_span_id", hex_u64(self.root_span_id)),
            ("dropped", Value::num(self.dropped as f64)),
            ("events", Value::Arr(events)),
        ])
    }

    /// Serialize with the `TINDTF` magic + CRC envelope (one line).
    pub fn to_json(&self) -> String {
        trace_envelope(&self.to_value())
    }
}

/// Wrap a trace payload in the checksummed one-line envelope.
pub fn trace_envelope(payload: &Value) -> String {
    let body = payload.to_json();
    let crc = crc32(body.as_bytes());
    format!("{{\"magic\":\"{TRACE_MAGIC}\",\"crc32\":{crc},\"payload\":{body}}}\n")
}

/// Parse and integrity-check a serialized `TINDTF` line; returns the
/// payload. Every refusal names the failing byte offset: parse errors
/// carry the parser's position, and a checksum mismatch reports the
/// offset of the payload whose bytes no longer match the stored CRC.
pub fn verify_trace(text: &str) -> Result<Value, String> {
    let doc = json::parse(text.trim_end()).map_err(|e| e.to_string())?;
    match doc.get("magic").and_then(Value::as_str) {
        Some(TRACE_MAGIC) => {}
        Some(other) => return Err(format!("unsupported trace magic `{other}`")),
        None => return Err("missing `magic` field".to_string()),
    }
    let stored = doc
        .get("crc32")
        .and_then(Value::as_f64)
        .ok_or_else(|| "missing `crc32` field".to_string())?;
    let payload = doc.get("payload").ok_or_else(|| "missing `payload` field".to_string())?;
    let actual = crc32(payload.to_json().as_bytes());
    if stored != f64::from(actual) {
        let payload_offset = text.find("\"payload\":").map_or(0, |p| p + "\"payload\":".len());
        return Err(format!(
            "checksum mismatch over payload at byte offset {payload_offset}: \
             stored {stored}, computed {actual}"
        ));
    }
    Ok(payload.clone())
}

/// An owned trace decoded from a `TINDTF` payload — what `tind trace`
/// renders and diffs. [`ParsedTrace::to_value`] reproduces the payload
/// bit-exactly (round-trip is pinned by tests).
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

    /// Re-encode as the canonical payload — bit-identical to the
    /// [`TraceSnapshot::to_value`] output it was parsed from.
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

    fn sample_snapshot() -> TraceSnapshot {
        TraceSnapshot {
            trace_id: 0xabc_0000_0001,
            root_span_id: 7,
            dropped: 0,
            events: vec![
                TraceEvent {
                    trace_id: 0xabc_0000_0001,
                    span_id: 7,
                    parent_span_id: 0,
                    name: "serve.request",
                    tid: 1,
                    start_ns: 100,
                    dur_ns: 1000,
                    kind: TraceEventKind::Span,
                },
                TraceEvent {
                    trace_id: 0xabc_0000_0001,
                    span_id: 8,
                    parent_span_id: 7,
                    name: "serve.queued",
                    tid: 2,
                    start_ns: 100,
                    dur_ns: 400,
                    kind: TraceEventKind::Span,
                },
                TraceEvent {
                    trace_id: 0xabc_0000_0001,
                    span_id: 99,
                    parent_span_id: 7,
                    name: "serve.wave_link",
                    tid: 2,
                    start_ns: 500,
                    dur_ns: 0,
                    kind: TraceEventKind::Link,
                },
                TraceEvent {
                    trace_id: 0xabc_0000_0002,
                    span_id: 99,
                    parent_span_id: 0,
                    name: "serve.wave",
                    tid: 2,
                    start_ns: 500,
                    dur_ns: 600,
                    kind: TraceEventKind::Span,
                },
            ],
        }
    }

    #[test]
    fn tindtf_roundtrips_bit_exactly() {
        let snap = sample_snapshot();
        let text = snap.to_json();
        assert!(text.starts_with(TRACE_PREFIX));
        let payload = verify_trace(&text).expect("pristine trace verifies");
        let parsed = ParsedTrace::from_payload(&payload).expect("decodes");
        assert_eq!(parsed.events.len(), 4);
        assert_eq!(trace_envelope(&parsed.to_value()), text, "round trip is bit-exact");
    }

    #[test]
    fn tampering_is_refused_with_an_offset() {
        let text = sample_snapshot().to_json();
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
        let snap = sample_snapshot();
        let parsed =
            ParsedTrace::from_payload(&verify_trace(&snap.to_json()).unwrap()).unwrap();
        // queued [100,500) + the merged wave span [500,1100) tile the
        // whole 1000ns root.
        let cov = parsed.coverage().expect("has a root");
        assert!((cov - 1.0).abs() < 1e-9, "coverage {cov}");
        assert_eq!(parsed.missing_parents(), 0, "wave span 99 is recorded");

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
        let parsed = ParsedTrace::from_payload(
            &verify_trace(&sample_snapshot().to_json()).unwrap(),
        )
        .unwrap();
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
        reset_traces();
        let req = alloc_context();
        let wave = alloc_context();
        let t0 = now_ns();
        record_span(req, 0, "serve.request", t0, 1000);
        record_link(req, wave.span_id, "serve.wave_link", t0 + 10);
        record_span(wave, 0, "serve.wave", t0 + 10, 500);
        {
            let child = TraceSpan::start(Some(wave), "core.search.stage4");
            assert_ne!(child.id(), 0);
            assert_eq!(child.child_ctx().unwrap().span_id, child.id());
        }

        let snap = collect_trace(req, &[wave.trace_id]);
        assert_eq!(snap.trace_id, req.trace_id);
        assert_eq!(snap.root_span_id, req.span_id);
        let names: Vec<&str> = snap.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"serve.request"));
        assert!(names.contains(&"serve.wave"));
        assert!(names.contains(&"serve.wave_link"));
        assert!(names.contains(&"core.search.stage4"));
        let link = snap.events.iter().find(|e| e.kind == TraceEventKind::Link).unwrap();
        assert_eq!(link.span_id, wave.span_id);
        assert_eq!(link.parent_span_id, req.span_id);
        let stage = snap.events.iter().find(|e| e.name == "core.search.stage4").unwrap();
        assert_eq!(stage.parent_span_id, wave.span_id, "stage parents to the wave span");

        // Other traces never leak into a collection.
        let other = alloc_context();
        record_span(other, 0, "noise", t0, 5);
        let again = collect_trace(req, &[wave.trace_id]);
        assert!(again.events.iter().all(|e| e.name != "noise"));
        reset_traces();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn ring_overflow_counts_drops() {
        let _g = crate::test_guard();
        reset_traces();
        crate::metrics::reset_metrics();
        let ctx = alloc_context();
        for i in 0..(TRACE_RING_CAPACITY + 25) {
            record_span(ctx.child(ctx.span_id + i as u64), 0, "flood", i as u64, 1);
        }
        assert_eq!(trace_drops_total(), 25);
        assert_eq!(crate::counter("obs.spans.dropped_total").value(), 25);
        let snap = collect_trace(ctx, &[]);
        assert_eq!(snap.dropped, 25, "snapshots carry the drop total");
        assert_eq!(snap.events.len(), TRACE_RING_CAPACITY);
        reset_traces();
        assert_eq!(trace_drops_total(), 0);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_trace_layer_is_inert() {
        let ctx = alloc_context();
        assert_eq!(ctx.trace_id, 0);
        record_span(ctx, 0, "x", 0, 1);
        record_link(ctx, 1, "l", 0);
        let s = TraceSpan::start(Some(ctx), "y");
        assert_eq!(s.id(), 0);
        drop(s);
        assert!(collect_trace(ctx, &[]).events.is_empty());
        assert_eq!(trace_drops_total(), 0);
        // The pure exporters still work on hand-built data.
        let snap = TraceSnapshot {
            trace_id: 1,
            root_span_id: 1,
            dropped: 0,
            events: Vec::new(),
        };
        assert!(verify_trace(&snap.to_json()).is_ok());
    }
}
