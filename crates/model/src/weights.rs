//! Timestamp weight functions `w` (Definition 3.6).
//!
//! The w-weighted ε,δ-relaxed tIND sums `w(t)` over all violated timestamps
//! and compares against an absolute budget ε. Index construction and
//! validation need *interval* sums `Σ_{t ∈ [i,j]} w(t)`; every variant here
//! provides them in `O(1)` (exponential decay via the closed geometric-sum
//! formula of Equation 5, piecewise via prefix sums).

use crate::time::{Interval, Timeline, Timestamp};

/// A weight function over timestamps.
///
/// # Examples
///
/// ```
/// use tind_model::{Interval, Timeline, WeightFn};
///
/// let tl = Timeline::new(100);
/// let w = WeightFn::exponential(0.9, tl);
/// // The most recent timestamp weighs 1; older ones decay.
/// assert!((w.weight(99) - 1.0).abs() < 1e-12);
/// assert!(w.weight(0) < 1e-4);
/// // Interval sums come from the closed geometric formula, in O(1).
/// let closed = w.interval_weight(Interval::new(90, 99));
/// let naive: f64 = (90..=99).map(|t| w.weight(t)).sum();
/// assert!((closed - naive).abs() < 1e-9);
/// ```
///
/// The paper's special cases map as follows:
/// * strict tIND — any weights with ε = 0,
/// * ε-relaxed tIND (relative ε) — [`WeightFn::uniform_normalized`],
/// * ε,δ-relaxed tIND measured in days — [`WeightFn::constant_one`],
/// * wεδ-tIND with decay — [`WeightFn::exponential`] / [`WeightFn::linear`],
/// * arbitrary user functions — [`WeightFn::piecewise`].
#[derive(Debug, Clone, PartialEq)]
pub enum WeightFn {
    /// `w(t) = c` for every timestamp.
    Constant {
        /// Weight per timestamp.
        per_timestamp: f64,
    },
    /// Exponential decay `w(t) = a^(n-1-t)` (0-indexed form of Equation 4):
    /// the most recent timestamp has weight 1, older ones decay by `a`.
    ExponentialDecay {
        /// Decay base, `0 < a < 1`.
        a: f64,
        /// Timeline length `n`.
        n: u32,
    },
    /// Linear decay `w(t) = (t + 1) / n`: the most recent timestamp has
    /// weight 1, the oldest `1/n`.
    LinearDecay {
        /// Timeline length `n`.
        n: u32,
    },
    /// Arbitrary per-timestamp weights with O(1) interval sums via prefix
    /// sums. Supports e.g. zero-weighting known bad time periods (§3.3).
    Piecewise {
        /// `prefix[i] = Σ_{t < i} w(t)`; length `n + 1`.
        prefix: std::sync::Arc<Vec<f64>>,
    },
}

impl WeightFn {
    /// Every timestamp weighs 1; ε is then a violation budget in timestamps
    /// (days). The paper's default setting (`w(t) = 1`, ε = 3 days).
    pub fn constant_one() -> Self {
        WeightFn::Constant { per_timestamp: 1.0 }
    }

    /// Every timestamp weighs `1/n`, making ε the *fraction* of violated
    /// time, as in Definition 3.3/3.5.
    pub fn uniform_normalized(timeline: Timeline) -> Self {
        WeightFn::Constant { per_timestamp: 1.0 / f64::from(timeline.len()) }
    }

    /// Exponential decay with base `a ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics unless `0 < a < 1`.
    pub fn exponential(a: f64, timeline: Timeline) -> Self {
        assert!(a > 0.0 && a < 1.0, "decay base must be in (0, 1), got {a}");
        WeightFn::ExponentialDecay { a, n: timeline.len() }
    }

    /// Linear decay from `1/n` (oldest) to 1 (most recent).
    pub fn linear(timeline: Timeline) -> Self {
        WeightFn::LinearDecay { n: timeline.len() }
    }

    /// Arbitrary non-negative per-timestamp weights.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite.
    pub fn piecewise(weights: &[f64]) -> Self {
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight at {i} must be finite and >= 0, got {w}");
            acc += w;
            prefix.push(acc);
        }
        WeightFn::Piecewise { prefix: std::sync::Arc::new(prefix) }
    }

    /// `w(t)`.
    pub fn weight(&self, t: Timestamp) -> f64 {
        match self {
            WeightFn::Constant { per_timestamp } => *per_timestamp,
            WeightFn::ExponentialDecay { a, n } => {
                debug_assert!(t < *n);
                a.powi((*n - 1 - t) as i32)
            }
            WeightFn::LinearDecay { n } => {
                debug_assert!(t < *n);
                f64::from(t + 1) / f64::from(*n)
            }
            WeightFn::Piecewise { prefix } => {
                let i = t as usize;
                prefix[i + 1] - prefix[i]
            }
        }
    }

    /// `Σ_{t ∈ I} w(t)` in O(1).
    pub fn interval_weight(&self, interval: Interval) -> f64 {
        let (i, j) = (interval.start, interval.end);
        match self {
            WeightFn::Constant { per_timestamp } => per_timestamp * f64::from(interval.len()),
            WeightFn::ExponentialDecay { a, n } => {
                debug_assert!(j < *n);
                // Σ_{t=i}^{j} a^(n-1-t) = a^(n-1-j) · (1 - a^(j-i+1)) / (1 - a)
                let lead = a.powi((*n - 1 - j) as i32);
                lead * (1.0 - a.powi((j - i + 1) as i32)) / (1.0 - a)
            }
            WeightFn::LinearDecay { n } => {
                // Σ_{t=i}^{j} (t+1)/n = (Σ_{u=i+1}^{j+1} u) / n
                let lo = f64::from(i) + 1.0;
                let hi = f64::from(j) + 1.0;
                (hi * (hi + 1.0) / 2.0 - lo * (lo - 1.0) / 2.0) / f64::from(*n)
            }
            WeightFn::Piecewise { prefix } => prefix[j as usize + 1] - prefix[i as usize],
        }
    }

    /// Total weight of the whole timeline.
    pub fn total(&self, timeline: Timeline) -> f64 {
        self.interval_weight(timeline.full_interval())
    }

    /// Materializes this weight function over a concrete timeline as a
    /// prefix-sum table — the validation kernel's O(1) source of interval
    /// and suffix weights for *any* variant (see [`WeightTable`]).
    pub fn table(&self, timeline: Timeline) -> WeightTable {
        WeightTable::build(self, timeline)
    }

    /// The smallest interval starting at `start` whose summed weight
    /// strictly exceeds `eps`, or `None` if even the remaining timeline does
    /// not reach it. Used for slice-length sizing (`w(I) > ε`, §4.4.1).
    pub fn interval_exceeding(&self, start: Timestamp, eps: f64, timeline: Timeline) -> Option<Interval> {
        let last = timeline.last();
        if start > last {
            return None;
        }
        if self.interval_weight(Interval::new(start, last)) <= eps {
            return None;
        }
        // Binary search over the end timestamp; interval_weight is monotone
        // non-decreasing in the end point (weights are non-negative).
        let (mut lo, mut hi) = (start, last);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.interval_weight(Interval::new(start, mid)) > eps {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(Interval::new(start, lo))
    }
}

/// A weight function materialized over one concrete timeline as prefix
/// sums: `prefix[i] = Σ_{t < i} w(t)`, length `n + 1`.
///
/// [`WeightFn::interval_weight`] is already O(1) per variant, but the
/// exponential closed form costs two `powi` evaluations per call — far more
/// than the two loads and one subtract a prefix table needs. Validation
/// builds the table once per (weights, timeline) and reuses it across every
/// pair, which also supplies the O(1) *suffix* weights behind the
/// prove-valid early exit (violation + max-remaining-suffix ≤ ε).
///
/// Cloning is cheap (the table is shared behind an `Arc`), so one table can
/// serve many query plans concurrently.
///
/// Accumulated sums can differ from the closed forms in the final ulps;
/// the `EPS_TOLERANCE` slack that validation applies to ε comparisons
/// absorbs this (for `constant_one`, integer sums are exact either way).
///
/// # Examples
///
/// ```
/// use tind_model::{Interval, Timeline, WeightFn};
///
/// let tl = Timeline::new(100);
/// let w = WeightFn::exponential(0.9, tl);
/// let table = w.table(tl);
/// let i = Interval::new(90, 99);
/// assert!((table.interval_weight(i) - w.interval_weight(i)).abs() < 1e-9);
/// assert!((table.suffix_weight(0) - w.total(tl)).abs() < 1e-9);
/// assert_eq!(table.suffix_weight(100), 0.0, "past the end nothing remains");
/// ```
#[derive(Debug, Clone)]
pub struct WeightTable {
    /// `prefix[i] = Σ_{t < i} w(t)`; length `n + 1`.
    prefix: std::sync::Arc<Vec<f64>>,
}

/// `[0, w(0), w(0) + w(1), …]` over `timeline`, summed left to right.
fn prefix_sums(timeline: Timeline, mut weight: impl FnMut(Timestamp) -> f64) -> Vec<f64> {
    let mut prefix = vec![0.0; timeline.len() as usize + 1];
    let mut acc = 0.0;
    for (t, sum) in (0..timeline.len()).zip(&mut prefix[1..]) {
        acc += weight(t);
        *sum = acc;
    }
    prefix
}

impl WeightTable {
    /// Builds the table for `w` over `timeline` in O(n).
    pub fn build(w: &WeightFn, timeline: Timeline) -> Self {
        // Piecewise already *is* a prefix table — share it instead of
        // re-accumulating (also keeps its sums bit-identical).
        if let WeightFn::Piecewise { prefix } = w {
            assert_eq!(
                prefix.len(),
                timeline.len() as usize + 1,
                "piecewise weights cover a different timeline"
            );
            return WeightTable { prefix: prefix.clone() };
        }
        let prefix = match *w {
            // The one variant with no call per timestamp (the default
            // weights) gets a loop of its own, so its running sum stays
            // in a register. With the match inside one shared loop, that
            // depended on how the rest of the crate was compiled, and the
            // same source ran 2.5x slower in some builds.
            WeightFn::Constant { per_timestamp } => prefix_sums(timeline, |_| per_timestamp),
            _ => prefix_sums(timeline, |t| w.weight(t)),
        };
        WeightTable { prefix: std::sync::Arc::new(prefix) }
    }

    /// Number of timestamps covered (`n`).
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Always false — tables are built from non-empty timelines.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `Σ_{t ∈ I} w(t)`: two loads and a subtract.
    #[inline]
    pub fn interval_weight(&self, interval: Interval) -> f64 {
        debug_assert!((interval.end as usize) < self.prefix.len() - 1);
        self.prefix[interval.end as usize + 1] - self.prefix[interval.start as usize]
    }

    /// `Σ_{t ≥ from} w(t)`, zero once `from` runs past the timeline. This is
    /// the largest weight any set of not-yet-examined timestamps can still
    /// contribute — the prove-valid early-exit bound.
    #[inline]
    pub fn suffix_weight(&self, from: Timestamp) -> f64 {
        let i = (from as usize).min(self.prefix.len() - 1);
        self.prefix[self.prefix.len() - 1] - self.prefix[i]
    }

    /// Total weight of the whole timeline.
    #[inline]
    pub fn total(&self) -> f64 {
        self.prefix[self.prefix.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_interval_weight(w: &WeightFn, interval: Interval) -> f64 {
        interval.iter().map(|t| w.weight(t)).sum()
    }

    #[test]
    fn constant_one_counts_days() {
        let w = WeightFn::constant_one();
        assert_eq!(w.weight(5), 1.0);
        assert_eq!(w.interval_weight(Interval::new(3, 7)), 5.0);
    }

    #[test]
    fn uniform_normalized_sums_to_one() {
        let tl = Timeline::new(40);
        let w = WeightFn::uniform_normalized(tl);
        assert!((w.total(tl) - 1.0).abs() < 1e-12);
        assert!((w.weight(0) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn exponential_closed_form_matches_naive() {
        let tl = Timeline::new(50);
        let w = WeightFn::exponential(0.9, tl);
        for (s, e) in [(0, 49), (0, 0), (49, 49), (10, 30), (45, 49)] {
            let i = Interval::new(s, e);
            let closed = w.interval_weight(i);
            let naive = naive_interval_weight(&w, i);
            assert!((closed - naive).abs() < 1e-9, "interval {i}: {closed} vs {naive}");
        }
    }

    #[test]
    fn exponential_most_recent_weighs_one() {
        let tl = Timeline::new(100);
        let w = WeightFn::exponential(0.5, tl);
        assert!((w.weight(99) - 1.0).abs() < 1e-12);
        assert!((w.weight(98) - 0.5).abs() < 1e-12);
        assert!(w.weight(0) < 1e-20);
    }

    #[test]
    #[should_panic(expected = "decay base")]
    fn exponential_rejects_bad_base() {
        WeightFn::exponential(1.0, Timeline::new(10));
    }

    #[test]
    fn linear_closed_form_matches_naive() {
        let tl = Timeline::new(30);
        let w = WeightFn::linear(tl);
        assert!((w.weight(29) - 1.0).abs() < 1e-12);
        for (s, e) in [(0, 29), (5, 5), (0, 0), (12, 20)] {
            let i = Interval::new(s, e);
            assert!((w.interval_weight(i) - naive_interval_weight(&w, i)).abs() < 1e-9);
        }
    }

    #[test]
    fn piecewise_prefix_sums() {
        let w = WeightFn::piecewise(&[1.0, 0.0, 2.5, 0.5, 1.0]);
        assert_eq!(w.weight(0), 1.0);
        assert_eq!(w.weight(1), 0.0);
        assert!((w.weight(2) - 2.5).abs() < 1e-12);
        assert!((w.interval_weight(Interval::new(1, 3)) - 3.0).abs() < 1e-12);
        assert!((w.total(Timeline::new(5)) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn piecewise_rejects_negative() {
        WeightFn::piecewise(&[1.0, -0.5]);
    }

    #[test]
    fn interval_exceeding_constant() {
        let tl = Timeline::new(100);
        let w = WeightFn::constant_one();
        // ε = 3 → need weight > 3 → 4 timestamps.
        assert_eq!(w.interval_exceeding(10, 3.0, tl), Some(Interval::new(10, 13)));
        assert_eq!(w.interval_exceeding(0, 0.0, tl), Some(Interval::new(0, 0)));
        // Not enough timeline left.
        assert_eq!(w.interval_exceeding(98, 3.0, tl), None);
        assert_eq!(w.interval_exceeding(200, 0.0, tl), None);
    }

    #[test]
    fn table_matches_closed_forms_for_every_variant() {
        let tl = Timeline::new(60);
        for w in [
            WeightFn::constant_one(),
            WeightFn::uniform_normalized(tl),
            WeightFn::exponential(0.9, tl),
            WeightFn::linear(tl),
            WeightFn::piecewise(&(0..60).map(|t| (t % 7) as f64 * 0.25).collect::<Vec<_>>()),
        ] {
            let table = w.table(tl);
            assert_eq!(table.len(), 60);
            for (s, e) in [(0, 59), (0, 0), (59, 59), (13, 41), (55, 59)] {
                let i = Interval::new(s, e);
                assert!(
                    (table.interval_weight(i) - w.interval_weight(i)).abs() < 1e-9,
                    "{w:?} interval {i}"
                );
            }
            for from in [0u32, 1, 30, 59, 60, 1000] {
                let naive: f64 = (from..60).map(|t| w.weight(t)).sum();
                assert!(
                    (table.suffix_weight(from) - naive).abs() < 1e-9,
                    "{w:?} suffix from {from}"
                );
            }
            assert!((table.total() - w.total(tl)).abs() < 1e-9);
        }
    }

    #[test]
    fn table_constant_one_is_exact() {
        let tl = Timeline::new(4000);
        let table = WeightFn::constant_one().table(tl);
        // Integer sums are exact in f64: bit-identical to the multiply form.
        assert_eq!(table.interval_weight(Interval::new(17, 3016)), 3000.0);
        assert_eq!(table.suffix_weight(3999), 1.0);
        assert_eq!(table.total(), 4000.0);
    }

    #[test]
    fn table_shares_piecewise_prefix() {
        let weights: Vec<f64> = vec![1.0, 0.0, 2.5, 0.5, 1.0];
        let w = WeightFn::piecewise(&weights);
        let table = w.table(Timeline::new(5));
        for (s, e) in [(0, 4), (1, 3), (2, 2)] {
            let i = Interval::new(s, e);
            assert_eq!(table.interval_weight(i), w.interval_weight(i), "shared prefix is exact");
        }
    }

    #[test]
    #[should_panic(expected = "different timeline")]
    fn table_rejects_mismatched_piecewise() {
        WeightFn::piecewise(&[1.0, 2.0]).table(Timeline::new(5));
    }

    #[test]
    fn interval_exceeding_exponential_grows_in_past() {
        let tl = Timeline::new(365);
        let w = WeightFn::exponential(0.99, tl);
        let recent = w.interval_exceeding(350, 2.0, tl).expect("recent interval fits");
        let old = w.interval_exceeding(0, 2.0, tl).expect("old interval fits");
        assert!(
            old.len() > recent.len(),
            "older slices need more timestamps under decay: {} vs {}",
            old.len(),
            recent.len()
        );
        assert!(w.interval_weight(old) > 2.0);
        // Minimality: one timestamp shorter must not exceed ε.
        if old.len() > 1 {
            assert!(w.interval_weight(Interval::new(old.start, old.end - 1)) <= 2.0);
        }
    }
}
