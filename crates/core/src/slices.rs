//! Time-slice interval selection (Section 4.4).
//!
//! Slice *length* is sized so that the summed weight of the interval
//! strictly exceeds the ε the index is built for (`w(I) > ε`, §4.4.1) —
//! otherwise a slice could only ever record partial violations and never
//! prune on its own. Slice *starting times* are chosen either uniformly at
//! random or weighted by estimated pruning power
//! `p(I) = Σ_A |A[I]| / |I|` (§4.4.2). Selected slices are pairwise
//! disjoint; optionally their δ-expansions are kept disjoint too, which the
//! reverse search requires (§4.5).

use tind_model::rng::Rng;
use tind_model::{Dataset, Interval, Timeline, Timestamp, WeightFn};

/// How slice starting times are chosen (§4.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStrategy {
    /// Uniformly random starts. Best for larger `k` (Figure 13): the extra
    /// variance avoids redundant slices.
    Random,
    /// Starts sampled proportionally to estimated pruning power. Best for
    /// small `k`.
    WeightedRandom,
}

/// Configuration for slice selection.
#[derive(Debug, Clone)]
pub struct SliceConfig {
    /// Number of time slices `k`.
    pub k: usize,
    /// Start-time selection strategy.
    pub strategy: SliceStrategy,
    /// ε used for length sizing: each slice satisfies `w(I) > sizing_eps`.
    pub sizing_eps: f64,
    /// Weight function used for length sizing.
    pub sizing_weights: WeightFn,
    /// Maximum δ queries will use; slice value windows are expanded by it.
    pub max_delta: u32,
    /// If true, even the δ-expanded windows `I^δ` are kept disjoint
    /// (required to reuse the slices for reverse search, §4.5).
    pub expanded_disjoint: bool,
    /// Granularity at which candidate starts are enumerated for the
    /// weighted strategy (1 = every timestamp).
    pub start_stride: u32,
    /// Number of attributes sampled when estimating pruning power.
    pub attr_sample: usize,
}

impl SliceConfig {
    /// Slice configuration matching the paper's defaults for tIND search:
    /// `k = 16`, random starts, sizing from the given (ε, w).
    pub fn search_default(sizing_eps: f64, sizing_weights: WeightFn, max_delta: u32) -> Self {
        SliceConfig {
            k: 16,
            strategy: SliceStrategy::Random,
            sizing_eps,
            sizing_weights,
            max_delta,
            expanded_disjoint: false,
            start_stride: 1,
            attr_sample: 256,
        }
    }

    /// The paper's best configuration for reverse search: `k = 2`,
    /// weighted-random starts, δ-expanded windows disjoint.
    pub fn reverse_default(sizing_eps: f64, sizing_weights: WeightFn, max_delta: u32) -> Self {
        SliceConfig {
            k: 2,
            strategy: SliceStrategy::WeightedRandom,
            sizing_eps,
            sizing_weights,
            max_delta,
            expanded_disjoint: true,
            start_stride: 1,
            attr_sample: 256,
        }
    }
}

/// Whether `candidate` may be added to the pairwise-disjoint set `chosen`,
/// honoring `expanded_disjoint`.
fn is_compatible(candidate: Interval, chosen: &[Interval], cfg: &SliceConfig, timeline: Timeline) -> bool {
    let probe = if cfg.expanded_disjoint {
        candidate.expand(cfg.max_delta, timeline)
    } else {
        candidate
    };
    chosen.iter().all(|&c| {
        let existing = if cfg.expanded_disjoint { c.expand(cfg.max_delta, timeline) } else { c };
        !probe.overlaps(&existing)
    })
}

/// Sizes the slice starting at `start`, or `None` if the remaining timeline
/// cannot exceed the sizing ε.
fn slice_at(start: Timestamp, cfg: &SliceConfig, timeline: Timeline) -> Option<Interval> {
    cfg.sizing_weights.interval_exceeding(start, cfg.sizing_eps, timeline)
}

/// Estimated pruning power `p(I) = Σ_A |A[I]| / |I|` over a deterministic
/// attribute sample (§4.4.2).
pub fn pruning_power(dataset: &Dataset, interval: Interval, attr_sample: usize) -> f64 {
    let n = dataset.len();
    if n == 0 {
        return 0.0;
    }
    let step = (n / attr_sample.max(1)).max(1);
    let mut distinct_sum = 0usize;
    let mut sampled = 0usize;
    let mut i = 0;
    while i < n {
        distinct_sum += dataset.attribute(i as u32).distinct_count_in(interval);
        sampled += 1;
        i += step;
    }
    // Scale the sample back up so powers are comparable across strides.
    let scale = n as f64 / sampled as f64;
    distinct_sum as f64 * scale / f64::from(interval.len())
}

/// Selects up to `cfg.k` disjoint time slices for `dataset`.
///
/// Returns fewer than `k` slices when the timeline cannot fit more disjoint
/// intervals of the required length; an empty vector means the index will
/// consist of `M_T` alone.
pub fn select_slices(dataset: &Dataset, cfg: &SliceConfig, rng: &mut Rng) -> Vec<Interval> {
    match cfg.strategy {
        SliceStrategy::Random => select_random(dataset.timeline(), cfg, rng),
        SliceStrategy::WeightedRandom => select_weighted(dataset, cfg, rng),
    }
}

fn select_random(timeline: Timeline, cfg: &SliceConfig, rng: &mut Rng) -> Vec<Interval> {
    let mut chosen: Vec<Interval> = Vec::with_capacity(cfg.k);
    if cfg.k == 0 {
        return chosen;
    }
    let max_attempts = cfg.k * 64 + 128;
    let mut attempts = 0;
    while chosen.len() < cfg.k && attempts < max_attempts {
        attempts += 1;
        let start = rng.range(0..timeline.len());
        let Some(candidate) = slice_at(start, cfg, timeline) else { continue };
        if is_compatible(candidate, &chosen, cfg, timeline) {
            chosen.push(candidate);
        }
    }
    chosen.sort_unstable();
    chosen
}

fn select_weighted(dataset: &Dataset, cfg: &SliceConfig, rng: &mut Rng) -> Vec<Interval> {
    let timeline = dataset.timeline();
    let mut chosen: Vec<Interval> = Vec::with_capacity(cfg.k);
    if cfg.k == 0 {
        return chosen;
    }
    // Enumerate candidate starts at the configured stride and weigh them by
    // pruning power.
    let stride = cfg.start_stride.max(1);
    let mut candidates: Vec<(Interval, f64)> = Vec::new();
    let mut start = 0u32;
    while start < timeline.len() {
        if let Some(interval) = slice_at(start, cfg, timeline) {
            let p = pruning_power(dataset, interval, cfg.attr_sample);
            if p > 0.0 {
                candidates.push((interval, p));
            }
        }
        start = start.saturating_add(stride);
    }
    // Iterative weighted sampling without replacement; incompatible draws
    // are zeroed out and sampling continues.
    let mut total: f64 = candidates.iter().map(|&(_, p)| p).sum();
    while chosen.len() < cfg.k && total > 0.0 {
        let mut r = rng.f64() * total;
        let mut picked = None;
        for (idx, &(interval, p)) in candidates.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            r -= p;
            if r <= 0.0 {
                picked = Some((idx, interval));
                break;
            }
        }
        // Float underflow may leave r slightly positive after the last
        // candidate; pick the final positive-weight candidate then.
        let (idx, interval) = match picked {
            Some(x) => x,
            None => match candidates.iter().enumerate().rev().find(|(_, &(_, p))| p > 0.0) {
                Some((idx, &(interval, _))) => (idx, interval),
                None => break,
            },
        };
        total -= candidates[idx].1;
        candidates[idx].1 = 0.0;
        if is_compatible(interval, &chosen, cfg, timeline) {
            chosen.push(interval);
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_model::DatasetBuilder;

    fn dataset(n: u32) -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(n));
        // A busy attribute living only in the early timeline (each version
        // has fresh values) and a quiet one spanning everything.
        let busy: Vec<(Timestamp, Vec<String>)> = (0..10u32)
            .map(|i| (i * 3, (0..6).map(|v| format!("b{i}-{v}")).collect()))
            .filter(|(t, _)| *t < n - 1)
            .collect();
        b.add_attribute("busy", &busy, (n - 1).min(29));
        b.add_attribute("quiet", &[(0, vec!["q".to_string()])], n - 1);
        b.build()
    }

    fn cfg(k: usize, strategy: SliceStrategy) -> SliceConfig {
        SliceConfig {
            k,
            strategy,
            sizing_eps: 3.0,
            sizing_weights: WeightFn::constant_one(),
            max_delta: 2,
            expanded_disjoint: false,
            start_stride: 1,
            attr_sample: 16,
        }
    }

    #[test]
    fn random_slices_are_disjoint_and_sized() {
        let d = dataset(200);
        let mut rng = Rng::seed_from_u64(7);
        let c = cfg(8, SliceStrategy::Random);
        let slices = select_slices(&d, &c, &mut rng);
        assert_eq!(slices.len(), 8);
        for w in slices.windows(2) {
            assert!(w[0].end < w[1].start, "slices must be disjoint and sorted");
        }
        for s in &slices {
            assert!(c.sizing_weights.interval_weight(*s) > c.sizing_eps, "w(I) > ε violated");
        }
    }

    #[test]
    fn weighted_slices_prefer_busy_regions() {
        let d = dataset(300);
        // The busy attribute dies at t = 29; intervals beyond have ~7x less
        // pruning power. Weighted selection must hit the busy region far
        // more often than its ~11% share of starting positions.
        let weighted = cfg(1, SliceStrategy::WeightedRandom);
        let random = cfg(1, SliceStrategy::Random);
        let (mut w_hits, mut r_hits) = (0, 0);
        for seed in 0..30 {
            let mut rng = Rng::seed_from_u64(seed);
            let s = select_slices(&d, &weighted, &mut rng);
            assert_eq!(s.len(), 1);
            if s[0].start <= 33 {
                w_hits += 1;
            }
            let mut rng = Rng::seed_from_u64(seed);
            let s = select_slices(&d, &random, &mut rng);
            if s[0].start <= 33 {
                r_hits += 1;
            }
        }
        assert!(
            w_hits >= 10 && w_hits > 2 * r_hits.max(1),
            "weighted {w_hits}/30 vs random {r_hits}/30"
        );
    }

    #[test]
    fn expanded_disjointness_spaces_slices() {
        let d = dataset(200);
        let mut c = cfg(6, SliceStrategy::Random);
        c.expanded_disjoint = true;
        c.max_delta = 5;
        let mut rng = Rng::seed_from_u64(3);
        let slices = select_slices(&d, &c, &mut rng);
        let tl = d.timeline();
        for w in slices.windows(2) {
            assert!(
                !w[0].expand(5, tl).overlaps(&w[1].expand(5, tl)),
                "expanded windows must not overlap"
            );
        }
    }

    #[test]
    fn short_timeline_yields_fewer_slices() {
        // Timeline of 10, sizing needs w(I) > 3 → intervals of 4; at most 2
        // disjoint ones fit.
        let d = dataset(10);
        let mut rng = Rng::seed_from_u64(1);
        let slices = select_slices(&d, &cfg(16, SliceStrategy::Random), &mut rng);
        assert!(slices.len() <= 2, "got {}", slices.len());
    }

    #[test]
    fn zero_k_yields_no_slices() {
        let d = dataset(50);
        let mut rng = Rng::seed_from_u64(1);
        assert!(select_slices(&d, &cfg(0, SliceStrategy::Random), &mut rng).is_empty());
        assert!(select_slices(&d, &cfg(0, SliceStrategy::WeightedRandom), &mut rng).is_empty());
    }

    #[test]
    fn weighted_exhausts_gracefully() {
        let d = dataset(12);
        let mut rng = Rng::seed_from_u64(9);
        // Ask for far more slices than fit; must terminate with what fits.
        let slices = select_slices(&d, &cfg(50, SliceStrategy::WeightedRandom), &mut rng);
        assert!(!slices.is_empty());
        assert!(slices.len() <= 3);
    }

    #[test]
    fn pruning_power_scales_with_distinct_values() {
        let d = dataset(300);
        let busy = pruning_power(&d, Interval::new(0, 9), 16);
        let quiet = pruning_power(&d, Interval::new(200, 209), 16);
        assert!(busy > quiet, "busy {busy} should exceed quiet {quiet}");
    }

    #[test]
    fn decay_weights_make_older_slices_longer() {
        let d = dataset(400);
        let tl = d.timeline();
        let mut c = cfg(4, SliceStrategy::Random);
        c.sizing_weights = WeightFn::exponential(0.995, tl);
        c.sizing_eps = 0.5;
        let mut rng = Rng::seed_from_u64(11);
        let slices = select_slices(&d, &c, &mut rng);
        assert!(!slices.is_empty());
        for s in &slices {
            assert!(c.sizing_weights.interval_weight(*s) > 0.5);
        }
    }
}
