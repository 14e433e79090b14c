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

use std::ops::Range;

use tind_model::rng::Rng;
use tind_model::{AttributeHistory, Dataset, Interval, Timeline, Timestamp, Version, WeightFn};

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
    pruning_powers(dataset, &[interval], attr_sample)[0]
}

/// [`pruning_power`] of every interval in `intervals`, whose starts must
/// rise. One [`VersionWindow`] pass per sampled attribute yields the
/// `Σ_A |A[I]|` of all of them.
fn pruning_powers(dataset: &Dataset, intervals: &[Interval], attr_sample: usize) -> Vec<f64> {
    let n = dataset.len();
    if n == 0 {
        return vec![0.0; intervals.len()];
    }
    let (distinct_sums, sampled) = distinct_sums(dataset, intervals, attr_sample);
    // Scale the sample back up so powers are comparable across strides.
    let scale = n as f64 / sampled as f64;
    distinct_sums
        .iter()
        .zip(intervals)
        .map(|(&sum, interval)| sum as f64 * scale / f64::from(interval.len()))
        .collect()
}

/// `Σ_A |A[I]|` for every interval over the attribute sample (every
/// `n / attr_sample`-th attribute), and the sample's size.
fn distinct_sums(
    dataset: &Dataset,
    intervals: &[Interval],
    attr_sample: usize,
) -> (Vec<usize>, usize) {
    debug_assert!(intervals.windows(2).all(|w| w[0].start < w[1].start));
    let mut sums = vec![0usize; intervals.len()];
    // The latest end among the intervals up to each one: the end itself
    // whenever ends never fall, and sorted either way, so every interval
    // before the first reach at or past an observation ends before it.
    let reach: Vec<Timestamp> = intervals
        .iter()
        .scan(0, |latest, i| {
            *latest = i.end.max(*latest);
            Some(*latest)
        })
        .collect();
    let n = dataset.len();
    let step = (n / attr_sample.max(1)).max(1);
    let mut window = VersionWindow::default();
    let mut sampled = 0usize;
    for attr in (0..n).step_by(step) {
        sampled += 1;
        let history = dataset.attribute(attr as u32);
        // Only intervals that overlap the observation can count a value.
        let observed = history.observation();
        let first = reach.partition_point(|&end| end < observed.start);
        let last = intervals.partition_point(|i| i.start <= observed.end);
        if first >= last {
            continue;
        }
        window.reset(history);
        for (sum, &interval) in sums[first..last].iter_mut().zip(&intervals[first..last]) {
            *sum += window.distinct_in(history, interval);
        }
    }
    (sums, sampled)
}

/// A sliding window over one attribute's versions that answers `|A[I]|`:
/// a per-value count over the versions in the window and the number of
/// values counted at least once.
///
/// Moving to the next interval adds and drops whole versions at the
/// window's edges, and an interval whose start and end fall between the
/// same version starts as the last one's costs four compares. Over
/// intervals whose starts and ends never fall, each version enters and
/// leaves once: O(versions + intervals) per attribute instead of one union
/// per version per interval. Any other order is answered exactly, only
/// slower.
#[derive(Default)]
struct VersionWindow {
    /// Every version's values as local ids (dense, in value order),
    /// concatenated; version `i` is `ids[bounds[i]..bounds[i + 1]]`.
    ids: Vec<u32>,
    bounds: Vec<usize>,
    /// Scratch for the id mapping: `value << 32 | position in ids`.
    keys: Vec<u64>,
    /// Per local id, how many versions in the window carry it.
    counts: Vec<u32>,
    /// Number of local ids with a non-zero count.
    distinct: usize,
    /// Versions `lo..hi` are in the window.
    lo: usize,
    hi: usize,
    /// Every interval with its start in `start_span` and its end in
    /// `end_span` names the same versions as the last one.
    start_span: Range<Timestamp>,
    end_span: Range<Timestamp>,
}

impl VersionWindow {
    /// Empties the window and maps `history`'s values to local ids.
    fn reset(&mut self, history: &AttributeHistory) {
        let versions = history.versions();
        // Each occurrence keyed by value, then by its position in `ids`:
        // sorted, equal values are adjacent and get one local id.
        self.keys.clear();
        self.keys.reserve(versions.iter().map(|v| v.values.len()).sum());
        self.bounds.clear();
        self.bounds.reserve(versions.len() + 1);
        self.bounds.push(0);
        for version in versions {
            let at = self.keys.len() as u64;
            let keyed = version.values.iter().zip(at..).map(|(&v, i)| u64::from(v) << 32 | i);
            self.keys.extend(keyed);
            self.bounds.push(self.keys.len());
        }
        self.keys.sort_unstable();
        self.ids.clear();
        self.ids.resize(self.keys.len(), 0);
        let mut distinct = 0u32;
        let mut last = None;
        for &key in &self.keys {
            let value = (key >> 32) as u32;
            if last != Some(value) {
                last = Some(value);
                distinct += 1;
            }
            self.ids[key as u32 as usize] = distinct - 1;
        }
        self.counts.clear();
        self.counts.resize(distinct as usize, 0);
        self.distinct = 0;
        (self.lo, self.hi) = (0, 0);
        (self.start_span, self.end_span) = (0..0, 0..0);
    }

    /// `|A[I]|`: the window's count once it holds the versions
    /// `history.version_range_in(interval)` names.
    fn distinct_in(&mut self, history: &AttributeHistory, interval: Interval) -> usize {
        if !self.start_span.contains(&interval.start) || !self.end_span.contains(&interval.end) {
            self.slide(history.versions(), interval);
        }
        self.distinct
    }

    fn slide(&mut self, versions: &[Version], interval: Interval) {
        // The number of versions starting at or before `t`, and the
        // timestamps with the same number.
        let started_by = |t: Timestamp| {
            let count = versions.partition_point(|v| v.start <= t);
            let from = if count == 0 { 0 } else { versions[count - 1].start };
            (count, from..versions.get(count).map_or(Timestamp::MAX, |v| v.start))
        };
        let (by_start, start_span) = started_by(interval.start);
        let (by_end, end_span) = started_by(interval.end);
        (self.start_span, self.end_span) = (start_span, end_span);
        // The version valid at `interval.start` (or the first one, if the
        // interval starts before the observation) through the last version
        // starting inside the interval — empty when it ends before the
        // first version starts.
        let (lo, hi) = (by_start.saturating_sub(1), by_end);
        while self.hi < hi {
            self.add(self.hi);
            self.hi += 1;
        }
        while self.lo > lo {
            self.lo -= 1;
            self.add(self.lo);
        }
        while self.lo < lo {
            self.remove(self.lo);
            self.lo += 1;
        }
        while self.hi > hi {
            self.hi -= 1;
            self.remove(self.hi);
        }
    }

    fn add(&mut self, version: usize) {
        for &id in &self.ids[self.bounds[version]..self.bounds[version + 1]] {
            let count = &mut self.counts[id as usize];
            self.distinct += usize::from(*count == 0);
            *count += 1;
        }
    }

    fn remove(&mut self, version: usize) {
        for &id in &self.ids[self.bounds[version]..self.bounds[version + 1]] {
            let count = &mut self.counts[id as usize];
            *count -= 1;
            self.distinct -= usize::from(*count == 0);
        }
    }
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
    if cfg.k == 0 {
        return Vec::new();
    }
    draw_weighted(weighted_candidates(dataset, cfg), dataset.timeline(), cfg, rng)
}

/// Every candidate slice of positive pruning power, with that power.
fn weighted_candidates(dataset: &Dataset, cfg: &SliceConfig) -> Vec<(Interval, f64)> {
    let timeline = dataset.timeline();
    // Enumerate candidate starts at the configured stride and weigh them by
    // pruning power. A start gets no slice once the rest of the timeline
    // weighs at most the sizing ε; that suffix weight only shrinks as the
    // start rises (weights are non-negative), so neither does any later one.
    let stride = cfg.start_stride.max(1);
    let mut intervals: Vec<Interval> = Vec::new();
    let mut start = 0u32;
    while start < timeline.len() {
        let Some(interval) = slice_at(start, cfg, timeline) else { break };
        intervals.push(interval);
        start = start.saturating_add(stride);
    }
    let powers = pruning_powers(dataset, &intervals, cfg.attr_sample);
    intervals.into_iter().zip(powers).filter(|&(_, p)| p > 0.0).collect()
}

/// Draws up to `cfg.k` pairwise-compatible slices from `candidates`.
fn draw_weighted(
    mut candidates: Vec<(Interval, f64)>,
    timeline: Timeline,
    cfg: &SliceConfig,
    rng: &mut Rng,
) -> Vec<Interval> {
    let mut chosen: Vec<Interval> = Vec::with_capacity(cfg.k);
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
    use tind_model::rng::cases;
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

    /// Attributes observed over random parts of an `n`-day timeline, each
    /// with versions over a shared pool of 40 values.
    fn random_dataset(rng: &mut Rng, n: u32, attributes: usize) -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(n));
        for a in 0..attributes {
            let first = rng.range(0..n);
            let last = rng.range(first..n);
            let mut versions = Vec::new();
            let mut t = first;
            while t <= last {
                let size = rng.range(0..7u32);
                let values: Vec<String> =
                    (0..size).map(|_| format!("v{}", rng.range(0..40u32))).collect();
                versions.push((t, values));
                t += rng.range(1..=9u32);
            }
            b.add_attribute(&format!("a{a}"), &versions, last);
        }
        b.build()
    }

    /// `Σ_A |A[I]|` over the same attribute sample, one union per interval.
    fn reference_sums(d: &Dataset, intervals: &[Interval], attr_sample: usize) -> Vec<usize> {
        let step = (d.len() / attr_sample.max(1)).max(1);
        let sample = || (0..d.len()).step_by(step).map(|a| d.attribute(a as u32));
        intervals.iter().map(|&i| sample().map(|h| h.values_in(i).len()).sum()).collect()
    }

    /// Slice selection's candidates scored one interval at a time, every
    /// start tried.
    fn reference_candidates(d: &Dataset, cfg: &SliceConfig) -> Vec<(Interval, f64)> {
        let (n, tl) = (d.len(), d.timeline());
        let sampled = (0..n).step_by((n / cfg.attr_sample.max(1)).max(1)).count();
        (0..tl.len())
            .step_by(cfg.start_stride.max(1) as usize)
            .filter_map(|start| slice_at(start, cfg, tl))
            .map(|i| {
                let sum = reference_sums(d, &[i], cfg.attr_sample)[0] as f64;
                let scale = n as f64 / sampled as f64;
                (i, if n == 0 { 0.0 } else { sum * scale / f64::from(i.len()) })
            })
            .filter(|&(_, p)| p > 0.0)
            .collect()
    }

    fn random_cfg(rng: &mut Rng, tl: Timeline, attributes: usize) -> SliceConfig {
        let sizing_weights =
            if rng.bool() { WeightFn::constant_one() } else { WeightFn::exponential(0.97, tl) };
        SliceConfig {
            k: rng.range(1..=4usize),
            strategy: SliceStrategy::WeightedRandom,
            sizing_eps: f64::from(rng.range(0..8u32)) * 0.5,
            sizing_weights,
            max_delta: rng.range(0..4u32),
            expanded_disjoint: rng.bool(),
            start_stride: [1, 3, 8][rng.range(0..3usize)],
            attr_sample: [1, 16, attributes + 5][rng.range(0..3usize)],
        }
    }

    #[test]
    fn window_sums_equal_per_interval_unions() {
        cases("slices::window_sums_equal_per_interval_unions", 24, |rng| {
            let n = rng.range(12..160u32);
            let attributes = rng.range(1..40usize);
            let d = random_dataset(rng, n, attributes);
            let tl = d.timeline();
            for weights in [WeightFn::constant_one(), WeightFn::exponential(0.97, tl)] {
                for stride in [1, 3, 8] {
                    for attr_sample in [1, 16, attributes + 5] {
                        let mut c = cfg(1, SliceStrategy::WeightedRandom);
                        c.sizing_weights = weights.clone();
                        c.sizing_eps = f64::from(rng.range(0..8u32)) * 0.5;
                        let intervals: Vec<Interval> = (0..n)
                            .step_by(stride)
                            .map_while(|start| slice_at(start, &c, tl))
                            .collect();
                        let (sums, sampled) = distinct_sums(&d, &intervals, attr_sample);
                        assert_eq!(sums, reference_sums(&d, &intervals, attr_sample));
                        let step = (attributes / attr_sample).max(1);
                        assert_eq!(sampled, (0..attributes).step_by(step).count());
                    }
                }
            }
            // Ends that fall as starts rise are still counted exactly.
            let mut intervals = Vec::new();
            let mut start = rng.range(0..4u32);
            while start < n {
                intervals.push(Interval::new(start, rng.range(start..n.min(start + 30))));
                start += rng.range(1..6u32);
            }
            assert_eq!(distinct_sums(&d, &intervals, 16).0, reference_sums(&d, &intervals, 16));
        });
    }

    #[test]
    fn window_sums_of_an_empty_dataset_are_zero() {
        let d = DatasetBuilder::new(Timeline::new(50)).build();
        let intervals = [Interval::new(0, 4), Interval::new(3, 9)];
        assert_eq!(distinct_sums(&d, &intervals, 16), (vec![0, 0], 0));
        assert_eq!(pruning_power(&d, Interval::new(0, 4), 16), 0.0);
        let mut rng = Rng::seed_from_u64(5);
        assert!(select_slices(&d, &cfg(2, SliceStrategy::WeightedRandom), &mut rng).is_empty());
    }

    #[test]
    fn weighted_selection_matches_per_interval_reference() {
        cases("slices::weighted_selection_matches_per_interval_reference", 32, |rng| {
            let n = rng.range(12..200u32);
            let attributes = rng.range(1..48usize);
            let d = random_dataset(rng, n, attributes);
            let c = random_cfg(rng, d.timeline(), attributes);
            let reference = reference_candidates(&d, &c);
            let bits = |cands: &[(Interval, f64)]| -> Vec<(Interval, u64)> {
                cands.iter().map(|&(i, p)| (i, p.to_bits())).collect()
            };
            assert_eq!(bits(&weighted_candidates(&d, &c)), bits(&reference));
            let seed = rng.next_u64();
            let got = select_slices(&d, &c, &mut Rng::seed_from_u64(seed));
            let want = draw_weighted(reference, d.timeline(), &c, &mut Rng::seed_from_u64(seed));
            assert_eq!(got, want);
        });
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
