//! The one recorder: wall-time spans, aggregated per name and, inside a
//! sampled request, also written to a bounded per-thread trace ring.
//!
//! [`span`] opens a guard; dropping it adds the interval to the calling
//! thread's per-name aggregate (count / total / max), which
//! [`span_snapshot`] merges across threads for the `TINDRR` report.
//! [`traced_span`] also takes an `Option<TraceContext>`: when the context
//! is live (`trace_id != 0`), the guard gets its own span id up front —
//! children parent to it through [`SpanGuard::child_ctx`] — and the same
//! interval is written to the thread's ring as an event with an explicit
//! parent edge. [`trace_only_span`] writes the ring event alone; it serves
//! the few sites whose name already has an aggregate elsewhere.
//!
//! A guard reads the obs clock ([`crate::trace::now_ns`]) once at open
//! and once at close, and takes the thread's own mutex once, on close —
//! uncontended except while a snapshot, a collection or a reset walks the
//! registry. Nothing is allocated per span: names are `&'static str`,
//! aggregate slots are reused, and a thread's ring (4096 events) is
//! allocated once, by its first traced event.
//!
//! Cross-thread intervals (a queue wait starts on a reader thread and
//! ends on a worker) are recorded with explicit start and duration by
//! [`record_span`], and cross-trace edges by [`record_link`]. Both write
//! the ring only: they fire for sampled requests alone, and an aggregate
//! fed by them would move with the sampling rate.
//!
//! A full ring overwrites its oldest event and counts the loss in the
//! thread's drop count and the `obs.spans.dropped_total` counter;
//! [`collect_trace`] carries the drop total into every collected trace.
//!
//! With the `obs-off` feature the guard is a zero-sized no-op and nothing
//! else records either (every context is the zero one), so every query
//! returns empty data.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::trace::{ParsedEvent, ParsedTrace, TraceContext, TRACE_RING_CAPACITY};

pub use guard::SpanGuard;

/// Per-name aggregate merged across all threads.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Open a span that adds its interval to `name`'s aggregate. Cheap (a
/// clock read here, a clock read and one thread-local mutex op on drop);
/// safe to call on any thread, including inside worker pools.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::open(name, true, None)
}

/// [`span`], and while `ctx` is live also a trace event parented to
/// `ctx.span_id`.
#[inline]
pub fn traced_span(name: &'static str, ctx: Option<TraceContext>) -> SpanGuard {
    SpanGuard::open(name, true, ctx)
}

/// A trace event only, for sites whose name is aggregated elsewhere. A
/// `None` or untraced context makes it a complete no-op: not even the
/// clock is read.
#[inline]
pub fn trace_only_span(name: &'static str, ctx: Option<TraceContext>) -> SpanGuard {
    SpanGuard::open(name, false, ctx)
}

/// One ring slot: a completed interval (`kind` "span") or a cross-trace
/// edge (`kind` "link", whose `span_id` names a span of another trace).
/// `parent_span_id == 0` marks a root.
#[derive(Clone, Copy)]
struct Event {
    trace_id: u128,
    span_id: u64,
    parent_span_id: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    kind: &'static str,
}

/// Everything one thread records: its span aggregates and its ring.
struct ThreadState {
    /// Small stable id of the thread (the Chrome export lane).
    tid: u32,
    spans: Vec<SpanStats>,
    ring: Vec<Event>,
    /// Next slot to overwrite once the ring is full.
    ring_next: usize,
    /// Events overwritten before anyone collected them.
    dropped: u64,
}

impl ThreadState {
    fn record(&mut self, event: Event) {
        if self.ring.len() < TRACE_RING_CAPACITY {
            // The first traced event allocates the whole ring, so no
            // later push reallocates.
            self.ring.reserve_exact(TRACE_RING_CAPACITY - self.ring.len());
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
    HANDLE.get_or_init(|| crate::metrics::counter(crate::trace::DROPPED_COUNTER))
}

type Shared = Arc<Mutex<ThreadState>>;

fn registry() -> &'static Mutex<Vec<Shared>> {
    static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// A poisoned lock only means a panic elsewhere while holding it; the
/// recorded data is still sound enough for diagnostics, so keep going.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static STATE: Shared = {
        static NEXT_TID: AtomicU32 = AtomicU32::new(1);
        let state = Arc::new(Mutex::new(ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            ring: Vec::new(),
            ring_next: 0,
            dropped: 0,
        }));
        lock(registry()).push(state.clone());
        state
    };
}

#[cfg(not(feature = "obs-off"))]
mod guard {
    use super::{lock, Event, SpanStats, ThreadState, TraceContext, STATE};
    use crate::trace::{alloc_span_id, now_ns};

    impl ThreadState {
        fn add(&mut self, name: &'static str, dur_ns: u64) {
            // Linear scan: a run touches a few dozen distinct span names,
            // and pointer equality short-circuits the common case.
            match self.spans.iter_mut().find(|a| std::ptr::eq(a.name, name) || a.name == name) {
                Some(agg) => {
                    agg.count += 1;
                    agg.total_ns += dur_ns;
                    agg.max_ns = agg.max_ns.max(dur_ns);
                }
                None => {
                    self.spans.push(SpanStats { name, count: 1, total_ns: dur_ns, max_ns: dur_ns })
                }
            }
        }
    }

    /// RAII guard: on drop, adds its interval to the name's aggregate
    /// and, when traced, writes the same interval to the ring.
    pub struct SpanGuard {
        name: &'static str,
        start_ns: u64,
        aggregate: bool,
        /// The context this interval records under, and its own span id.
        trace: Option<(TraceContext, u64)>,
    }

    impl SpanGuard {
        #[inline]
        pub(super) fn open(
            name: &'static str,
            aggregate: bool,
            ctx: Option<TraceContext>,
        ) -> SpanGuard {
            let trace = ctx.filter(|c| c.trace_id != 0).map(|c| (c, alloc_span_id()));
            let start_ns = if aggregate || trace.is_some() { now_ns() } else { 0 };
            SpanGuard { name, start_ns, aggregate, trace }
        }

        /// The context children of this span record under (`None` when
        /// the span is not traced).
        pub fn child_ctx(&self) -> Option<TraceContext> {
            self.trace.map(|(c, id)| c.child(id))
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if !self.aggregate && self.trace.is_none() {
                return;
            }
            let (name, dur_ns) = (self.name, now_ns().saturating_sub(self.start_ns));
            STATE.with(|s| {
                let mut state = lock(s);
                if self.aggregate {
                    state.add(name, dur_ns);
                }
                if let Some((ctx, span_id)) = self.trace {
                    state.record(Event {
                        trace_id: ctx.trace_id,
                        span_id,
                        parent_span_id: ctx.span_id,
                        name,
                        start_ns: self.start_ns,
                        dur_ns,
                        kind: "span",
                    });
                }
            });
        }
    }
}

#[cfg(feature = "obs-off")]
mod guard {
    use super::TraceContext;

    /// Zero-sized no-op guard.
    pub struct SpanGuard;

    impl SpanGuard {
        #[inline(always)]
        pub(super) fn open(_: &'static str, _: bool, _: Option<TraceContext>) -> SpanGuard {
            SpanGuard
        }

        pub fn child_ctx(&self) -> Option<TraceContext> {
            None
        }
    }
}

fn record_event(event: Event) {
    if !cfg!(feature = "obs-off") && event.trace_id != 0 {
        STATE.with(|s| lock(s).record(event));
    }
}

/// Record a completed interval with explicit identity and timing — the
/// cross-thread form, where a guard cannot follow. Trace only.
pub fn record_span(
    ctx: TraceContext,
    parent_span_id: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
) {
    record_event(Event {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_span_id,
        name,
        start_ns,
        dur_ns,
        kind: "span",
    });
}

/// Record a cross-trace edge in `ctx.trace_id`: `linked_span_id` (a span
/// of another trace, e.g. the shared wave span) is linked from
/// `ctx.span_id`. Trace only.
pub fn record_link(ctx: TraceContext, linked_span_id: u64, name: &'static str, at_ns: u64) {
    record_event(Event {
        trace_id: ctx.trace_id,
        span_id: linked_span_id,
        parent_span_id: ctx.span_id,
        name,
        start_ns: at_ns,
        dur_ns: 0,
        kind: "link",
    });
}

/// Merge per-name aggregates across every registered thread, sorted by
/// name.
pub fn span_snapshot() -> Vec<SpanStats> {
    let mut merged: Vec<SpanStats> = Vec::new();
    for shared in lock(registry()).iter() {
        for agg in lock(shared).spans.iter() {
            match merged.iter_mut().find(|s| s.name == agg.name) {
                Some(s) => {
                    s.count += agg.count;
                    s.total_ns += agg.total_ns;
                    s.max_ns = s.max_ns.max(agg.max_ns);
                }
                None => merged.push(agg.clone()),
            }
        }
    }
    merged.sort_by(|a, b| a.name.cmp(b.name));
    merged
}

/// Collect every event belonging to `root.trace_id` or any id in `extra`
/// (e.g. the wave trace a request's exec span parents into), merged
/// across all thread rings and sorted by start time, plus the drop total
/// at collection time (nonzero ⇒ events may be missing).
pub fn collect_trace(root: TraceContext, extra: &[u128]) -> ParsedTrace {
    let mut events: Vec<(u32, Event)> = Vec::new();
    let mut dropped = 0u64;
    for shared in lock(registry()).iter() {
        let state = lock(shared);
        dropped += state.dropped;
        events.extend(
            state
                .ring
                .iter()
                .filter(|e| e.trace_id == root.trace_id || extra.contains(&e.trace_id))
                .map(|e| (state.tid, *e)),
        );
    }
    events.sort_by_key(|(_, e)| (e.start_ns, e.span_id));
    ParsedTrace {
        trace_id: format!("{:#x}", root.trace_id),
        root_span_id: format!("{:#x}", root.span_id),
        dropped,
        events: events
            .into_iter()
            .map(|(tid, e)| ParsedEvent {
                trace: format!("{:#x}", e.trace_id),
                span: format!("{:#x}", e.span_id),
                parent: format!("{:#x}", e.parent_span_id),
                name: e.name.to_string(),
                tid,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns,
                kind: e.kind.to_string(),
            })
            .collect(),
    }
}

/// Total trace events dropped to ring overflow across all threads.
pub fn trace_drops_total() -> u64 {
    lock(registry()).iter().map(|s| lock(s).dropped).sum()
}

/// Clear every aggregate, ring and drop count, and drop the state of
/// threads that have exited. Guards still open finish into the cleared
/// state.
pub fn reset_recorder() {
    let mut reg = lock(registry());
    // strong_count == 1 means the owning thread's TLS slot is gone.
    reg.retain(|shared| Arc::strong_count(shared) > 1);
    for shared in reg.iter() {
        let mut state = lock(shared);
        state.spans.clear();
        state.ring.clear();
        state.ring_next = 0;
        state.dropped = 0;
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    // Recorder state is process-global; serialize the tests that assert on it.
    use crate::test_guard as guard;

    #[test]
    fn records_nested_spans() {
        let _g = guard();
        reset_recorder();
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        let stats = span_snapshot();
        let outer = stats.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = stats.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Inner closes before outer, so it can never exceed it.
        assert!(inner.total_ns <= outer.total_ns);
    }

    #[test]
    fn aggregates_repeated_spans() {
        let _g = guard();
        reset_recorder();
        for _ in 0..10 {
            let _s = span("test.repeat");
        }
        let stats = span_snapshot();
        let s = stats.iter().find(|s| s.name == "test.repeat").unwrap();
        assert_eq!(s.count, 10);
        assert!(s.max_ns <= s.total_ns);
    }

    #[test]
    fn merges_across_threads() {
        let _g = guard();
        reset_recorder();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..25 {
                        let _s = span("test.worker");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = span_snapshot();
        let s = stats.iter().find(|s| s.name == "test.worker").unwrap();
        assert_eq!(s.count, 100);
    }

    #[test]
    fn spans_never_count_as_dropped() {
        // An untraced guard writes no ring event, so no number of them
        // loses data: the drop counter counts traced events alone.
        let _g = guard();
        reset_recorder();
        crate::metrics::reset_metrics();
        for _ in 0..3 * crate::trace::TRACE_RING_CAPACITY {
            let _s = span("test.flood");
        }
        for _ in 0..3 * crate::trace::TRACE_RING_CAPACITY {
            let _s = traced_span("test.flood_untraced", None);
        }
        let stats = span_snapshot();
        let flood = |name| stats.iter().find(|s| s.name == name).unwrap().count as usize;
        assert_eq!(flood("test.flood"), 3 * crate::trace::TRACE_RING_CAPACITY);
        assert_eq!(flood("test.flood_untraced"), 3 * crate::trace::TRACE_RING_CAPACITY);
        assert_eq!(trace_drops_total(), 0);
        assert_eq!(crate::metrics::counter(crate::trace::DROPPED_COUNTER).value(), 0);
        let probe = crate::trace::alloc_context();
        assert!(collect_trace(probe, &[]).events.is_empty());
    }

    #[test]
    fn traced_guard_writes_one_interval_to_aggregate_and_ring() {
        let _g = guard();
        reset_recorder();
        let root = crate::trace::alloc_context();
        let child_ctx = {
            let guard = traced_span("test.clock", Some(root));
            let child_ctx = guard.child_ctx().expect("a live context traces");
            assert_eq!(child_ctx.trace_id, root.trace_id);
            assert_ne!(child_ctx.span_id, root.span_id, "the guard has its own span id");
            std::thread::sleep(std::time::Duration::from_millis(1));
            child_ctx
        };
        let agg = span_snapshot().into_iter().find(|s| s.name == "test.clock").unwrap();
        let trace = collect_trace(root, &[]);
        assert_eq!(trace.events.len(), 1);
        let event = &trace.events[0];
        assert_eq!(event.name, "test.clock");
        assert_eq!(event.span, format!("{:#x}", child_ctx.span_id));
        assert_eq!(event.parent, format!("{:#x}", root.span_id));
        assert_eq!(agg.count, 1);
        assert!(event.dur_ns >= 1_000_000);
        assert_eq!(event.dur_ns, agg.total_ns, "one interval, read from one clock");

        // A trace-only guard records the event and no aggregate.
        drop(trace_only_span("test.trace_only", Some(root)));
        assert!(span_snapshot().iter().all(|s| s.name != "test.trace_only"));
        assert_eq!(collect_trace(root, &[]).events.len(), 2);
        // Untraced, it touches nothing at all.
        drop(trace_only_span("test.trace_only", None));
        assert!(span_snapshot().iter().all(|s| s.name != "test.trace_only"));
    }

    #[test]
    fn reset_clears_everything() {
        let _g = guard();
        {
            let _s = span("test.cleared");
        }
        reset_recorder();
        assert!(span_snapshot().iter().all(|s| s.name != "test.cleared"));
    }
}
