//! Lightweight wall-time span aggregates.
//!
//! `span("core.search.stage4")` returns a guard; dropping it adds the
//! elapsed time to the calling thread's per-name aggregates (count /
//! total / max). Thread states register themselves in a global list on
//! first use, so a span touches only the thread's own mutex, once, on
//! exit — uncontended except while a snapshot or reset is walking the
//! registry — and allocates nothing (names are `&'static str`, aggregate
//! slots are reused). Per-request timelines are [`crate::trace`]'s job.
//!
//! With the `obs-off` feature the guard is a zero-sized no-op and every
//! query function returns empty data.

#[cfg(not(feature = "obs-off"))]
pub use enabled::{reset_spans, span, span_snapshot, SpanGuard};

#[cfg(feature = "obs-off")]
pub use disabled::{reset_spans, span, span_snapshot, SpanGuard};

/// Per-name aggregate merged across all threads.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

#[cfg(not(feature = "obs-off"))]
mod enabled {
    use super::SpanStats;
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    type Shared = Arc<Mutex<Vec<SpanStats>>>;

    fn registry() -> &'static Mutex<Vec<Shared>> {
        static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// A poisoned lock only means a panic elsewhere while holding it; the
    /// span data is still sound enough for diagnostics, so keep going.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    thread_local! {
        static STATE: Shared = {
            let state = Arc::new(Mutex::new(Vec::new()));
            lock(registry()).push(state.clone());
            state
        };
    }

    /// RAII guard: records the span on drop.
    pub struct SpanGuard {
        name: &'static str,
        start: Instant,
    }

    /// Open a span. Cheap (a clock read here, a clock read and one
    /// thread-local mutex op on drop); safe to call on any thread,
    /// including inside worker pools.
    #[inline]
    pub fn span(name: &'static str) -> SpanGuard {
        SpanGuard { name, start: Instant::now() }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let dur_ns = self.start.elapsed().as_nanos() as u64;
            let name = self.name;
            STATE.with(|s| {
                let mut aggs = lock(s);
                // Linear scan: a run touches a few dozen distinct span
                // names, and pointer equality short-circuits the common
                // case.
                match aggs.iter_mut().find(|a| std::ptr::eq(a.name, name) || a.name == name) {
                    Some(agg) => {
                        agg.count += 1;
                        agg.total_ns += dur_ns;
                        agg.max_ns = agg.max_ns.max(dur_ns);
                    }
                    None => {
                        aggs.push(SpanStats { name, count: 1, total_ns: dur_ns, max_ns: dur_ns })
                    }
                }
            });
        }
    }

    /// Merge per-name aggregates across every registered thread, sorted
    /// by name.
    pub fn span_snapshot() -> Vec<SpanStats> {
        let mut merged: Vec<SpanStats> = Vec::new();
        for shared in lock(registry()).iter() {
            for agg in lock(shared).iter() {
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

    /// Clear all recorded spans and drop state for threads that have
    /// exited. Call at the start of a run; guards still open finish into
    /// the cleared aggregates.
    pub fn reset_spans() {
        let mut reg = lock(registry());
        // strong_count == 1 means the owning thread's TLS slot is gone.
        reg.retain(|shared| Arc::strong_count(shared) > 1);
        for shared in reg.iter() {
            lock(shared).clear();
        }
    }
}

#[cfg(feature = "obs-off")]
mod disabled {
    use super::SpanStats;

    /// Zero-sized no-op guard.
    pub struct SpanGuard;

    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    pub fn span_snapshot() -> Vec<SpanStats> {
        Vec::new()
    }

    pub fn reset_spans() {}
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    // Span state is process-global; serialize the tests that assert on it.
    use crate::test_guard as guard;

    #[test]
    fn records_nested_spans() {
        let _g = guard();
        reset_spans();
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
        reset_spans();
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
        reset_spans();
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
        // Spans keep aggregates only, so no number of them loses data:
        // the drop counter is the trace rings' alone.
        let _g = guard();
        reset_spans();
        crate::metrics::reset_metrics();
        for _ in 0..3 * 1024 {
            let _s = span("test.flood");
        }
        let stats = span_snapshot();
        assert_eq!(stats.iter().find(|s| s.name == "test.flood").unwrap().count, 3 * 1024);
        assert_eq!(crate::metrics::counter(crate::trace::DROPPED_COUNTER).value(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = guard();
        {
            let _s = span("test.cleared");
        }
        reset_spans();
        assert!(span_snapshot().iter().all(|s| s.name != "test.cleared"));
    }
}
