//! Time-series layer over the metrics registry: a fixed-size ring of
//! periodic registry snapshots, so a run's latency/QPS/cache-hit
//! *trajectory* is visible rather than just its end-state totals.
//!
//! A driver (the serve main loop, or any long-running command) calls
//! [`history_tick`] on its own cadence; each tick captures the registry
//! and stores a compact delta record: counters and histogram totals are
//! delta-encoded against the previous tick (zero deltas are elided),
//! gauges are stored absolute. The ring holds the most recent
//! [`history_capacity`] ticks — older ticks are dropped and counted, so
//! consumers can tell a short run from a truncated one.
//!
//! [`history_value`] renders the ring as canonical JSON for
//! `GET /metrics/history` and for embedding in TINDRR reports (the
//! report layer includes it only when at least one tick was recorded).
//! With `obs-off` the whole layer is a no-op.

use crate::json::Value;

/// Default number of ticks retained.
pub const DEFAULT_HISTORY_CAPACITY: usize = 256;

#[cfg(not(feature = "obs-off"))]
pub use enabled::{
    history_capacity, history_len, history_tick, history_value, reset_history,
    set_history_capacity,
};

#[cfg(feature = "obs-off")]
pub use disabled::{
    history_capacity, history_len, history_tick, history_value, reset_history,
    set_history_capacity,
};

#[cfg(not(feature = "obs-off"))]
mod enabled {
    use super::{render, Tick, DEFAULT_HISTORY_CAPACITY};
    use crate::metrics::{metrics_snapshot, MetricValue};
    use std::collections::VecDeque;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct History {
        capacity: usize,
        /// Ticks evicted after the ring filled.
        ticks_dropped: u64,
        /// Last-seen absolute totals, for delta encoding:
        /// name → (counter_total) or (hist_count, hist_sum).
        prev_counters: Vec<(String, u64)>,
        prev_hists: Vec<(String, (u64, u64))>,
        ticks: VecDeque<Tick>,
    }

    fn state() -> &'static Mutex<History> {
        static STATE: OnceLock<Mutex<History>> = OnceLock::new();
        STATE.get_or_init(|| {
            Mutex::new(History {
                capacity: DEFAULT_HISTORY_CAPACITY,
                ticks_dropped: 0,
                prev_counters: Vec::new(),
                prev_hists: Vec::new(),
                ticks: VecDeque::new(),
            })
        })
    }

    fn lock() -> MutexGuard<'static, History> {
        state().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lookup<T: Copy>(prev: &[(String, T)], name: &str) -> Option<T> {
        prev.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn store<T>(prev: &mut Vec<(String, T)>, name: &str, v: T) {
        match prev.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => prev.push((name.to_string(), v)),
        }
    }

    /// Number of ticks the ring retains (0 disables recording).
    pub fn history_capacity() -> usize {
        lock().capacity
    }

    /// Resize the ring; evicts oldest ticks if shrinking below the
    /// current length. Capacity 0 turns recording off entirely.
    pub fn set_history_capacity(capacity: usize) {
        let mut h = lock();
        h.capacity = capacity;
        while h.ticks.len() > capacity {
            h.ticks.pop_front();
            h.ticks_dropped += 1;
        }
    }

    /// Ticks currently held.
    pub fn history_len() -> usize {
        lock().ticks.len()
    }

    /// Capture the registry now and append a delta-encoded tick.
    pub fn history_tick() {
        let snap = metrics_snapshot();
        let t_ns = crate::trace::now_ns();
        let mut h = lock();
        if h.capacity == 0 {
            return;
        }
        let mut tick = Tick {
            t_ns,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        for m in &snap {
            match &m.value {
                MetricValue::Counter { total, .. } => {
                    let prev = lookup(&h.prev_counters, &m.name).unwrap_or(0);
                    // A reset between ticks makes totals go backwards;
                    // re-baseline rather than emit a bogus delta.
                    let delta = total.saturating_sub(prev);
                    store(&mut h.prev_counters, &m.name, *total);
                    if delta > 0 {
                        tick.counters.push((m.name.clone(), delta));
                    }
                }
                MetricValue::Gauge(v) => {
                    if *v != 0.0 {
                        tick.gauges.push((m.name.clone(), *v));
                    }
                }
                MetricValue::Histogram { count, sum, .. } => {
                    let (pc, ps) = lookup(&h.prev_hists, &m.name).unwrap_or((0, 0));
                    let dc = count.saturating_sub(pc);
                    let ds = sum.saturating_sub(ps);
                    store(&mut h.prev_hists, &m.name, (*count, *sum));
                    if dc > 0 {
                        tick.histograms.push((m.name.clone(), dc, ds));
                    }
                }
            }
        }
        if h.ticks.len() >= h.capacity {
            h.ticks.pop_front();
            h.ticks_dropped += 1;
        }
        h.ticks.push_back(tick);
    }

    /// Render the ring as canonical JSON.
    pub fn history_value() -> crate::json::Value {
        let h = lock();
        render(h.capacity, h.ticks_dropped, h.ticks.iter())
    }

    /// Clear ticks, drop counts, and delta baselines; capacity persists.
    pub fn reset_history() {
        let mut h = lock();
        h.ticks.clear();
        h.ticks_dropped = 0;
        h.prev_counters.clear();
        h.prev_hists.clear();
    }
}

#[cfg(feature = "obs-off")]
mod disabled {
    use crate::json::Value;

    pub fn history_capacity() -> usize {
        0
    }

    pub fn set_history_capacity(_capacity: usize) {}

    pub fn history_len() -> usize {
        0
    }

    #[inline(always)]
    pub fn history_tick() {}

    pub fn history_value() -> Value {
        super::render(0, 0, std::iter::empty())
    }

    pub fn reset_history() {}
}

/// One recorded tick: monotonically timestamped deltas since the
/// previous tick (counters/histograms) plus absolute gauge values.
struct Tick {
    t_ns: u64,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, u64, u64)>,
}

fn render<'a>(
    capacity: usize,
    ticks_dropped: u64,
    ticks: impl Iterator<Item = &'a Tick>,
) -> Value {
    let ticks: Vec<Value> = ticks
        .map(|t| {
            Value::obj([
                ("t_ns", Value::num(t.t_ns as f64)),
                (
                    "counters",
                    Value::Arr(
                        t.counters
                            .iter()
                            .map(|(name, delta)| {
                                Value::obj([
                                    ("name", Value::str(name.clone())),
                                    ("delta", Value::num(*delta as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "gauges",
                    Value::Arr(
                        t.gauges
                            .iter()
                            .map(|(name, v)| {
                                Value::obj([
                                    ("name", Value::str(name.clone())),
                                    ("value", Value::num(*v)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "histograms",
                    Value::Arr(
                        t.histograms
                            .iter()
                            .map(|(name, dc, ds)| {
                                Value::obj([
                                    ("name", Value::str(name.clone())),
                                    ("count_delta", Value::num(*dc as f64)),
                                    ("sum_delta", Value::num(*ds as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("capacity", Value::num(capacity as f64)),
        ("ticks_dropped", Value::num(ticks_dropped as f64)),
        ("ticks", Value::Arr(ticks)),
    ])
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn ticks_delta_encode_counters_and_bound_the_ring() {
        let _g = crate::test_guard();
        crate::metrics::reset_metrics();
        reset_history();
        set_history_capacity(4);

        let c = crate::counter("test.history.requests");
        c.add(5);
        history_tick();
        c.add(7);
        history_tick();
        history_tick(); // no movement → counter elided

        let v = history_value();
        let ticks = v.get("ticks").and_then(Value::as_arr).unwrap();
        assert_eq!(ticks.len(), 3);
        let delta_of = |tick: &Value| -> Option<f64> {
            tick.get("counters").and_then(Value::as_arr).and_then(|cs| {
                cs.iter()
                    .find(|e| e.get("name").and_then(Value::as_str) == Some("test.history.requests"))
                    .and_then(|e| e.get("delta").and_then(Value::as_f64))
            })
        };
        assert_eq!(delta_of(&ticks[0]), Some(5.0));
        assert_eq!(delta_of(&ticks[1]), Some(7.0));
        assert_eq!(delta_of(&ticks[2]), None, "zero deltas are elided");

        // Timestamps never go backwards.
        let t: Vec<f64> = ticks
            .iter()
            .map(|tk| tk.get("t_ns").and_then(Value::as_f64).unwrap())
            .collect();
        assert!(t.windows(2).all(|w| w[0] <= w[1]));

        // Overflow drops oldest and counts it.
        for _ in 0..6 {
            history_tick();
        }
        let v = history_value();
        assert_eq!(v.get("ticks").and_then(Value::as_arr).unwrap().len(), 4);
        assert!(v.get("ticks_dropped").and_then(Value::as_f64).unwrap() >= 5.0);

        reset_history();
        set_history_capacity(DEFAULT_HISTORY_CAPACITY);
        assert_eq!(history_len(), 0);
    }

    #[test]
    fn histograms_and_gauges_are_captured() {
        let _g = crate::test_guard();
        crate::metrics::reset_metrics();
        reset_history();
        set_history_capacity(8);

        crate::gauge("test.history.depth").set(3.5);
        let h = crate::histogram("test.history.lat");
        h.record(100);
        h.record(900);
        history_tick();

        let v = history_value();
        let tick = &v.get("ticks").and_then(Value::as_arr).unwrap()[0];
        let gauges = tick.get("gauges").and_then(Value::as_arr).unwrap();
        assert!(gauges.iter().any(|g| {
            g.get("name").and_then(Value::as_str) == Some("test.history.depth")
                && g.get("value").and_then(Value::as_f64) == Some(3.5)
        }));
        let hists = tick.get("histograms").and_then(Value::as_arr).unwrap();
        let mine = hists
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("test.history.lat"))
            .expect("histogram tick present");
        assert_eq!(mine.get("count_delta").and_then(Value::as_f64), Some(2.0));
        assert_eq!(mine.get("sum_delta").and_then(Value::as_f64), Some(1000.0));

        // Capacity 0 disables recording entirely.
        reset_history();
        set_history_capacity(0);
        history_tick();
        assert_eq!(history_len(), 0);
        set_history_capacity(DEFAULT_HISTORY_CAPACITY);
    }
}
