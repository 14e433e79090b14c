//! Named counters, gauges, and histograms behind a global registry.
//!
//! * `Counter` — monotonically increasing `u64`, sharded across 16
//!   cache-line-padded atomics so concurrent workers don't bounce one
//!   line; `value()` sums the shards.
//! * `Gauge` — an `f64` stored as bits in an `AtomicU64`; supports
//!   `set`, `add`, and `set_max` (high-water marks).
//! * `Histogram` — 64 log2 buckets over `u64` samples (bucket *i* holds
//!   values whose bit length is *i*), plus a running sum.
//!
//! `counter("search.validations")` interns the name and leaks one
//! allocation per distinct metric, returning a `&'static` handle callers
//! cache; `reset_metrics()` zeroes values but keeps registrations, so
//! handles stay valid across runs. Names use dotted
//! `component.metric` form (see DESIGN.md §7 for the convention).

#[cfg(not(feature = "obs-off"))]
pub use enabled::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
};

#[cfg(feature = "obs-off")]
pub use disabled::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
};

/// Shards per counter; a power of two so the thread-slot mapping is a mask.
pub const COUNTER_SHARDS: usize = 16;

/// Log2 buckets per histogram.
pub const HIST_BUCKETS: usize = 64;

/// Point-in-time copy of one metric's value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter {
        total: u64,
        /// Per-shard partial sums; `total` is their sum (the report and
        /// the shard-sum property test both rely on that).
        shards: Vec<u64>,
    },
    Gauge(f64),
    Histogram {
        count: u64,
        sum: u64,
        /// Non-empty buckets as `(upper_bound, count)`; the bound is the
        /// largest value the bucket admits.
        buckets: Vec<(u64, u64)>,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    pub name: String,
    pub value: MetricValue,
}

#[cfg(not(feature = "obs-off"))]
mod enabled {
    use super::{MetricSnapshot, MetricValue, COUNTER_SHARDS, HIST_BUCKETS};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// One atomic on its own cache line.
    #[repr(align(64))]
    struct Padded(AtomicU64);

    impl Padded {
        fn new() -> Self {
            Padded(AtomicU64::new(0))
        }
    }

    /// Round-robin shard assignment: each thread gets a stable slot.
    fn shard_index() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        }
        SLOT.with(|s| *s)
    }

    pub struct Counter {
        shards: [Padded; COUNTER_SHARDS],
    }

    impl Counter {
        fn new() -> Self {
            Counter { shards: std::array::from_fn(|_| Padded::new()) }
        }

        #[inline]
        pub fn add(&self, n: u64) {
            self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
        }

        #[inline]
        pub fn incr(&self) {
            self.add(1);
        }

        pub fn value(&self) -> u64 {
            self.shard_values().iter().sum()
        }

        pub fn shard_values(&self) -> Vec<u64> {
            self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).collect()
        }

        fn reset(&self) {
            for s in &self.shards {
                s.0.store(0, Ordering::Relaxed);
            }
        }
    }

    pub struct Gauge {
        bits: AtomicU64,
    }

    impl Gauge {
        fn new() -> Self {
            Gauge { bits: AtomicU64::new(0f64.to_bits()) }
        }

        pub fn set(&self, v: f64) {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }

        pub fn get(&self) -> f64 {
            f64::from_bits(self.bits.load(Ordering::Relaxed))
        }

        pub fn add(&self, delta: f64) {
            let mut cur = self.bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + delta).to_bits();
                match self.bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(observed) => cur = observed,
                }
            }
        }

        /// Raise the gauge to `v` if `v` is larger (high-water mark).
        pub fn set_max(&self, v: f64) {
            let mut cur = self.bits.load(Ordering::Relaxed);
            loop {
                if f64::from_bits(cur) >= v {
                    return;
                }
                match self.bits.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(observed) => cur = observed,
                }
            }
        }

        fn reset(&self) {
            self.set(0.0);
        }
    }

    pub struct Histogram {
        buckets: [AtomicU64; HIST_BUCKETS],
        sum: AtomicU64,
    }

    impl Histogram {
        fn new() -> Self {
            Histogram {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
            }
        }

        /// Bucket index = bit length of the sample (0 stays in bucket 0),
        /// clamped to the last bucket.
        #[inline]
        pub fn record(&self, v: u64) {
            let idx = ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1);
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }

        pub fn count(&self) -> u64 {
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
        }

        pub fn sum(&self) -> u64 {
            self.sum.load(Ordering::Relaxed)
        }

        /// Non-empty `(upper_bound, count)` buckets in ascending order.
        pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
            self.buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (super::bucket_upper_bound(i), n))
                })
                .collect()
        }

        /// Estimated `q`-quantile (see [`super::histogram_quantile`]).
        pub fn quantile(&self, q: f64) -> u64 {
            super::histogram_quantile(&self.nonzero_buckets(), q)
        }

        fn reset(&self) {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.sum.store(0, Ordering::Relaxed);
        }
    }

    enum MetricRef {
        Counter(&'static Counter),
        Gauge(&'static Gauge),
        Histogram(&'static Histogram),
    }

    fn registry() -> &'static Mutex<Vec<(String, MetricRef)>> {
        static REGISTRY: OnceLock<Mutex<Vec<(String, MetricRef)>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn lock() -> MutexGuard<'static, Vec<(String, MetricRef)>> {
        registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up or create the counter named `name`. The handle is
    /// `&'static`; hot paths should call this once and reuse it.
    pub fn counter(name: &str) -> &'static Counter {
        let mut reg = lock();
        for (n, m) in reg.iter() {
            if n == name {
                match m {
                    MetricRef::Counter(c) => return c,
                    _ => panic!("metric `{name}` already registered with a different type"),
                }
            }
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        reg.push((name.to_string(), MetricRef::Counter(c)));
        c
    }

    pub fn gauge(name: &str) -> &'static Gauge {
        let mut reg = lock();
        for (n, m) in reg.iter() {
            if n == name {
                match m {
                    MetricRef::Gauge(g) => return g,
                    _ => panic!("metric `{name}` already registered with a different type"),
                }
            }
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        reg.push((name.to_string(), MetricRef::Gauge(g)));
        g
    }

    pub fn histogram(name: &str) -> &'static Histogram {
        let mut reg = lock();
        for (n, m) in reg.iter() {
            if n == name {
                match m {
                    MetricRef::Histogram(h) => return h,
                    _ => panic!("metric `{name}` already registered with a different type"),
                }
            }
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        reg.push((name.to_string(), MetricRef::Histogram(h)));
        h
    }

    /// Copy every registered metric, sorted by name.
    pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
        let reg = lock();
        let mut out: Vec<MetricSnapshot> = reg
            .iter()
            .map(|(name, m)| MetricSnapshot {
                name: name.clone(),
                value: match m {
                    MetricRef::Counter(c) => MetricValue::Counter {
                        total: c.value(),
                        shards: c.shard_values(),
                    },
                    MetricRef::Gauge(g) => MetricValue::Gauge(g.get()),
                    MetricRef::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    },
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Zero every metric's value; registrations (and `&'static` handles)
    /// survive, so one leaked allocation per distinct name is the cap.
    pub fn reset_metrics() {
        for (_, m) in lock().iter() {
            match m {
                MetricRef::Counter(c) => c.reset(),
                MetricRef::Gauge(g) => g.reset(),
                MetricRef::Histogram(h) => h.reset(),
            }
        }
    }
}

/// Largest value admitted by log2 bucket `i` (bit length == `i`). The
/// last bucket also absorbs bit-length-64 samples, so its bound is MAX.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Smallest value a bucket with upper bound `bound` admits (the bound of
/// the previous log2 bucket plus one).
fn bucket_lower_bound(bound: u64) -> u64 {
    if bound == 0 {
        0
    } else {
        bound / 2 + 1
    }
}

/// Estimate the `q`-quantile (0.0 ≤ q ≤ 1.0) of a log2-bucketed sample
/// set given ascending `(upper_bound, count)` pairs, as produced by
/// [`Histogram::nonzero_buckets`] or parsed back from a TINDRR report.
///
/// Nearest-rank selection locates the bucket; the value is then
/// log-linearly interpolated between the bucket's lower and upper bound
/// by the rank's position within it. Exact for single-value buckets
/// (0 and 1), at most one octave off otherwise — plenty for the p50/p90/
/// p99 latency attribution this feeds. Returns 0 for an empty histogram.
pub fn histogram_quantile(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    // Nearest-rank: the k-th smallest sample, 1-based.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(bound, n) in buckets {
        if seen + n >= rank {
            let lo = bucket_lower_bound(bound);
            if bound <= lo || n == 0 {
                return bound;
            }
            // Position of the rank inside this bucket, in (0, 1].
            let frac = (rank - seen) as f64 / n as f64;
            let est = lo as f64 + frac * (bound - lo) as f64;
            return est.round().min(bound as f64) as u64;
        }
        seen += n;
    }
    buckets.last().map_or(0, |&(bound, _)| bound)
}

#[cfg(feature = "obs-off")]
mod disabled {
    use super::{MetricSnapshot, COUNTER_SHARDS};

    pub struct Counter;
    pub struct Gauge;
    pub struct Histogram;

    static COUNTER: Counter = Counter;
    static GAUGE: Gauge = Gauge;
    static HISTOGRAM: Histogram = Histogram;

    impl Counter {
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        #[inline(always)]
        pub fn incr(&self) {}
        pub fn value(&self) -> u64 {
            0
        }
        pub fn shard_values(&self) -> Vec<u64> {
            vec![0; COUNTER_SHARDS]
        }
    }

    impl Gauge {
        #[inline(always)]
        pub fn set(&self, _v: f64) {}
        pub fn get(&self) -> f64 {
            0.0
        }
        #[inline(always)]
        pub fn add(&self, _delta: f64) {}
        #[inline(always)]
        pub fn set_max(&self, _v: f64) {}
    }

    impl Histogram {
        #[inline(always)]
        pub fn record(&self, _v: u64) {}
        pub fn count(&self) -> u64 {
            0
        }
        pub fn sum(&self) -> u64 {
            0
        }
        pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
            Vec::new()
        }
        pub fn quantile(&self, _q: f64) -> u64 {
            0
        }
    }

    pub fn counter(_name: &str) -> &'static Counter {
        &COUNTER
    }

    pub fn gauge(_name: &str) -> &'static Gauge {
        &GAUGE
    }

    pub fn histogram(_name: &str) -> &'static Histogram {
        &HISTOGRAM
    }

    pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
        Vec::new()
    }

    pub fn reset_metrics() {}
}

// Property pin for the report invariant: a counter's total is exactly the
// sum of its per-worker shards, for any interleaving of adds across any
// number of threads (`counter_totals_equal_shard_sums_across_threads`
// below is the fixed-shape pin of the same property).
#[cfg(all(test, not(feature = "obs-off")))]
mod prop_tests {
    use super::*;

    #[test]
    fn counter_total_equals_shard_sum() {
        tind_model::rng::cases("counter_total_equals_shard_sum", 32, |rng| {
            let amounts: Vec<u64> =
                (0..rng.range(1..64usize)).map(|_| rng.range(0..1_000u64)).collect();
            let threads = rng.range(1..8usize);
            let _g = crate::test_guard();
            let c = counter("test.metrics.prop_shard_sum");
            let before = c.value();
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let amounts = amounts.clone();
                    std::thread::spawn(move || {
                        let c = counter("test.metrics.prop_shard_sum");
                        for &a in &amounts {
                            c.add(a);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let shards = c.shard_values();
            assert_eq!(c.value(), shards.iter().sum::<u64>());
            assert_eq!(c.value() - before, amounts.iter().sum::<u64>() * threads as u64);
        });
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_equal_shard_sums_across_threads() {
        let _g = crate::test_guard();
        let c = counter("test.metrics.shard_sum");
        let before = c.value();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let c = counter("test.metrics.shard_sum");
                    for k in 0..100u64 {
                        c.add((i + k) % 7);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let shards = c.shard_values();
        assert_eq!(shards.len(), COUNTER_SHARDS);
        assert_eq!(c.value(), shards.iter().sum::<u64>());
        let expected: u64 = (0..8u64).map(|i| (0..100).map(|k| (i + k) % 7).sum::<u64>()).sum();
        assert_eq!(c.value() - before, expected);
    }

    #[test]
    fn gauge_set_add_and_high_water() {
        let _g = crate::test_guard();
        let g = gauge("test.metrics.gauge");
        g.set(2.5);
        g.add(1.5);
        assert_eq!(g.get(), 4.0);
        g.set_max(3.0);
        assert_eq!(g.get(), 4.0);
        g.set_max(10.0);
        assert_eq!(g.get(), 10.0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _g = crate::test_guard();
        let h = histogram("test.metrics.hist");
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 0u64.wrapping_add(1 + 2 + 3 + 4 + 1000).wrapping_add(u64::MAX));
        let buckets = h.nonzero_buckets();
        // 0 → bound 0; 1 → bound 1; 2,3 → bound 3; 4 → bound 7; 1000 → bound 1023.
        assert!(buckets.contains(&(0, 1)));
        assert!(buckets.contains(&(1, 1)));
        assert!(buckets.contains(&(3, 2)));
        assert!(buckets.contains(&(7, 1)));
        assert!(buckets.contains(&(1023, 1)));
        assert!(buckets.contains(&(u64::MAX, 1)));
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let _g = crate::test_guard();
        // Degenerate cases first: empty, and single-value buckets.
        assert_eq!(histogram_quantile(&[], 0.5), 0);
        assert_eq!(histogram_quantile(&[(0, 10)], 0.99), 0);
        assert_eq!(histogram_quantile(&[(1, 4)], 0.5), 1);

        // 100 samples in the [512, 1023] bucket: every quantile lands
        // inside the bucket, ordered by rank.
        let b = [(1023u64, 100u64)];
        let p50 = histogram_quantile(&b, 0.50);
        let p90 = histogram_quantile(&b, 0.90);
        let p99 = histogram_quantile(&b, 0.99);
        assert!((512..=1023).contains(&p50));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= 1023);

        // Two buckets, 90 low + 10 high: p50 stays low, p99 lands high.
        let b = [(15u64, 90u64), (1023u64, 10u64)];
        assert!(histogram_quantile(&b, 0.50) <= 15);
        assert!(histogram_quantile(&b, 0.99) >= 512);

        // Live histogram agrees with the free function on its own buckets.
        let h = histogram("test.metrics.quantile");
        for v in [1u64, 2, 4, 8, 16, 700, 700, 700, 700, 70_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), histogram_quantile(&h.nonzero_buckets(), 0.5));
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        assert!(h.quantile(1.0) >= 65_536, "max quantile reaches the top bucket");
    }

    #[test]
    fn registry_interns_and_snapshots() {
        let _g = crate::test_guard();
        let a = counter("test.metrics.interned");
        let b = counter("test.metrics.interned");
        assert!(std::ptr::eq(a, b));
        a.add(3);
        let snap = metrics_snapshot();
        let mine = snap.iter().find(|m| m.name == "test.metrics.interned").unwrap();
        match &mine.value {
            MetricValue::Counter { total, shards } => {
                assert!(*total >= 3);
                assert_eq!(*total, shards.iter().sum::<u64>());
            }
            other => panic!("wrong type: {other:?}"),
        }
        // Snapshot is name-sorted.
        let names: Vec<_> = snap.iter().map(|m| m.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let _g = crate::test_guard();
        let c = counter("test.metrics.reset");
        c.add(41);
        reset_metrics();
        assert_eq!(c.value(), 0);
        c.incr();
        assert_eq!(c.value(), 1);
    }
}
