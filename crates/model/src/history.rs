//! Attribute version histories.
//!
//! An attribute history records every distinct state (`version`) of a table
//! column over time. Versions are stored as runs: version `i` is valid from
//! `versions[i].start` until `versions[i+1].start - 1` (or until the
//! attribute's last observed timestamp for the final version). `A[t]` for a
//! `t` outside the observation period is the empty set (see crate docs).

use crate::time::{Interval, Timestamp};
use crate::value::{self, ValueId, ValueSet};

/// One version of an attribute: the value set valid from `start` until the
/// next change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// First timestamp at which this version is valid.
    pub start: Timestamp,
    /// Canonical (sorted, deduplicated) value set.
    ///
    /// This canonical form is a load-bearing invariant, not a convention:
    /// `value::is_subset`, the Bloom matrix builders, and the validation
    /// kernel's window union all binary-probe or merge these slices
    /// without re-sorting. [`HistoryBuilder::push`] canonicalizes every
    /// set it accepts; code constructing `Version`s directly must uphold
    /// the invariant itself (the validation kernel re-checks it with a
    /// `debug_assert` at query-plan build time).
    pub values: ValueSet,
}

/// The full observable history of one attribute.
///
/// # Examples
///
/// ```
/// use tind_model::HistoryBuilder;
///
/// let mut b = HistoryBuilder::new("games");
/// b.push(2, vec![0, 1]);      // {red, blue} from day 2
/// b.push(7, vec![0, 1, 2]);   // gains a value on day 7
/// let history = b.finish(10); // observed through day 10
///
/// assert_eq!(history.change_count(), 1);
/// assert_eq!(history.values_at(5), &[0, 1]);
/// assert_eq!(history.values_at(9), &[0, 1, 2]);
/// assert!(history.values_at(0).is_empty(), "not yet observable");
/// assert_eq!(history.value_universe(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeHistory {
    name: String,
    /// Versions, strictly increasing in `start`; `versions[0].start` is the
    /// first observed timestamp.
    versions: Vec<Version>,
    /// Last timestamp at which the attribute was observed (inclusive).
    last_observed: Timestamp,
}

impl AttributeHistory {
    /// The one place a history comes into being: from versions that
    /// already satisfy every invariant. [`HistoryBuilder::finish`] checks
    /// them with `assert!`s; the dataset decoder proves them as it reads
    /// and pays for no second pass, so here they are only re-checked in
    /// debug builds.
    pub(crate) fn from_canonical(
        name: String,
        versions: Vec<Version>,
        last_observed: Timestamp,
    ) -> Self {
        debug_assert!(!versions.is_empty(), "history needs at least one version");
        debug_assert!(
            versions.windows(2).all(|w| w[0].start < w[1].start && w[0].values != w[1].values),
            "starts strictly increase and no version repeats its predecessor"
        );
        debug_assert!(
            versions.iter().all(|v| v.values.windows(2).all(|w| w[0] < w[1])),
            "every value set is canonical"
        );
        debug_assert!(versions.last().is_some_and(|v| last_observed >= v.start));
        AttributeHistory { name, versions, last_observed }
    }

    /// Human-readable attribute name, e.g. `"Pokémon games ▸ Game"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First timestamp at which the attribute exists.
    pub fn first_observed(&self) -> Timestamp {
        self.versions[0].start
    }

    /// Last timestamp at which the attribute exists (inclusive).
    pub fn last_observed(&self) -> Timestamp {
        self.last_observed
    }

    /// The observation interval `[first, last]`.
    pub fn observation(&self) -> Interval {
        Interval::new(self.first_observed(), self.last_observed)
    }

    /// Lifespan in timestamps.
    pub fn lifespan(&self) -> u32 {
        self.observation().len()
    }

    /// All versions in chronological order.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// Number of *changes*, i.e. `versions - 1` (the paper's bucketing
    /// dimension in Table 2).
    pub fn change_count(&self) -> usize {
        self.versions.len() - 1
    }

    /// Index of the version valid at `t`, or `None` outside the observation
    /// period.
    pub fn version_index_at(&self, t: Timestamp) -> Option<usize> {
        if t < self.first_observed() || t > self.last_observed {
            return None;
        }
        // partition_point returns the first index whose start exceeds t; the
        // version valid at t is the one before it.
        let idx = self.versions.partition_point(|v| v.start <= t);
        debug_assert!(idx > 0);
        Some(idx - 1)
    }

    /// `A[t]`: the value set valid at `t`, empty outside observation.
    ///
    /// The returned slice is canonical — sorted ascending and free of
    /// duplicates (see [`Version::values`]). Consumers such as
    /// `WindowUnion::contains_all` and the plan-based validation scratch
    /// rely on this to probe and size-compare sets without normalizing.
    pub fn values_at(&self, t: Timestamp) -> &[ValueId] {
        match self.version_index_at(t) {
            Some(i) => &self.versions[i].values,
            None => &[],
        }
    }

    /// The validity interval of version `i` (clipped to the observation
    /// period).
    pub fn version_validity(&self, i: usize) -> Interval {
        let start = self.versions[i].start;
        let end = match self.versions.get(i + 1) {
            Some(next) => next.start - 1,
            None => self.last_observed,
        };
        Interval::new(start, end)
    }

    /// Indices of versions whose validity overlaps `interval`.
    pub fn version_range_in(&self, interval: Interval) -> std::ops::Range<usize> {
        if interval.end < self.first_observed() || interval.start > self.last_observed {
            return 0..0;
        }
        // First version whose validity reaches into the interval: the last
        // version starting at or before interval.start, or the first version
        // overall if the interval starts before observation.
        let lo = self.versions.partition_point(|v| v.start <= interval.start).saturating_sub(1);
        // One past the last version starting within the interval. Since the
        // early return above guarantees interval.end >= versions[0].start,
        // hi >= 1 and hi > lo always hold.
        let hi = self.versions.partition_point(|v| v.start <= interval.end);
        lo..hi
    }

    /// `A[I]`: the union of all value sets valid at some `t ∈ I`, as a
    /// canonical set. Empty if the attribute is unobservable throughout `I`.
    pub fn values_in(&self, interval: Interval) -> ValueSet {
        let range = self.version_range_in(interval);
        let mut acc: ValueSet = Vec::new();
        for v in &self.versions[range] {
            if acc.is_empty() {
                acc.extend_from_slice(&v.values);
            } else {
                acc = value::union(&acc, &v.values);
            }
        }
        acc
    }

    /// Number of distinct values appearing anywhere in `interval`
    /// (`|A[I]|`; used by the weighted-random slice selection, Section 4.4.2).
    pub fn distinct_count_in(&self, interval: Interval) -> usize {
        self.values_in(interval).len()
    }

    /// The union of all value sets across the whole history (`A[T]`; the
    /// contents of the `M_T` index column, Section 4.2.1).
    pub fn value_universe(&self) -> ValueSet {
        self.values_in(Interval::new(self.first_observed(), self.last_observed))
    }

    /// Timestamps at which the attribute changes (the `V_A` of Algorithm 2):
    /// the start of every version, plus the first timestamp *after* the
    /// observation period (where the attribute reverts to the empty set), if
    /// any, given the timeline length `n`.
    pub fn change_points(&self, n: u32) -> Vec<Timestamp> {
        let mut out: Vec<Timestamp> = self.versions.iter().map(|v| v.start).collect();
        if self.last_observed + 1 < n {
            out.push(self.last_observed + 1);
        }
        out
    }

    /// Median cardinality over all versions (the paper's ≥5 filter in §5.1).
    pub fn median_cardinality(&self) -> usize {
        let mut sizes: Vec<usize> = self.versions.iter().map(|v| v.values.len()).collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }

    /// Mean cardinality over all versions.
    pub fn mean_cardinality(&self) -> f64 {
        let total: usize = self.versions.iter().map(|v| v.values.len()).sum();
        total as f64 / self.versions.len() as f64
    }
}

/// Incremental builder enforcing history invariants.
#[derive(Debug, Clone)]
pub struct HistoryBuilder {
    name: String,
    versions: Vec<Version>,
}

impl HistoryBuilder {
    /// Starts a history for the named attribute.
    pub fn new(name: impl Into<String>) -> Self {
        HistoryBuilder { name: name.into(), versions: Vec::new() }
    }

    /// Records that the attribute changed to `values` at `start`.
    ///
    /// Values are canonicalized. A version identical to the previous one is
    /// silently merged (no change happened). Out-of-order or duplicate start
    /// timestamps panic: callers own chronological ordering.
    pub fn push(&mut self, start: Timestamp, values: Vec<ValueId>) -> &mut Self {
        let values = value::canonicalize(values);
        if let Some(prev) = self.versions.last() {
            assert!(
                start > prev.start,
                "versions must be pushed in strictly increasing start order ({} after {})",
                start,
                prev.start
            );
            if prev.values == values {
                return self; // no actual change
            }
        }
        self.versions.push(Version { start, values });
        self
    }

    /// Number of versions recorded so far.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether no version has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Finalizes the history, observed up to and including `last_observed`.
    ///
    /// # Panics
    /// Panics if no version was pushed or `last_observed` precedes the final
    /// version's start.
    pub fn finish(self, last_observed: Timestamp) -> AttributeHistory {
        assert!(!self.versions.is_empty(), "history needs at least one version");
        let final_start = self.versions.last().expect("non-empty").start;
        assert!(
            last_observed >= final_start,
            "last_observed {last_observed} precedes final version start {final_start}"
        );
        AttributeHistory::from_canonical(self.name, self.versions, last_observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributeHistory {
        // versions: [2,5): {1,2}; [5,9): {1,2,3}; [9,..=12]: {2,3}
        let mut b = HistoryBuilder::new("sample");
        b.push(2, vec![2, 1]);
        b.push(5, vec![1, 2, 3]);
        b.push(9, vec![3, 2]);
        b.finish(12)
    }

    #[test]
    fn values_at_respects_runs_and_observation() {
        let h = sample();
        assert_eq!(h.values_at(0), &[] as &[ValueId]);
        assert_eq!(h.values_at(1), &[] as &[ValueId]);
        assert_eq!(h.values_at(2), &[1, 2]);
        assert_eq!(h.values_at(4), &[1, 2]);
        assert_eq!(h.values_at(5), &[1, 2, 3]);
        assert_eq!(h.values_at(8), &[1, 2, 3]);
        assert_eq!(h.values_at(9), &[2, 3]);
        assert_eq!(h.values_at(12), &[2, 3]);
        assert_eq!(h.values_at(13), &[] as &[ValueId]);
    }

    #[test]
    fn metadata_accessors() {
        let h = sample();
        assert_eq!(h.name(), "sample");
        assert_eq!(h.first_observed(), 2);
        assert_eq!(h.last_observed(), 12);
        assert_eq!(h.lifespan(), 11);
        assert_eq!(h.change_count(), 2);
        assert_eq!(h.versions().len(), 3);
    }

    #[test]
    fn version_validity_intervals() {
        let h = sample();
        assert_eq!(h.version_validity(0), Interval::new(2, 4));
        assert_eq!(h.version_validity(1), Interval::new(5, 8));
        assert_eq!(h.version_validity(2), Interval::new(9, 12));
    }

    #[test]
    fn values_in_unions_overlapping_versions() {
        let h = sample();
        assert_eq!(h.values_in(Interval::new(0, 1)), Vec::<ValueId>::new());
        assert_eq!(h.values_in(Interval::new(0, 3)), vec![1, 2]);
        assert_eq!(h.values_in(Interval::new(4, 5)), vec![1, 2, 3]);
        assert_eq!(h.values_in(Interval::new(0, 20)), vec![1, 2, 3]);
        assert_eq!(h.values_in(Interval::new(9, 20)), vec![2, 3]);
        assert_eq!(h.values_in(Interval::new(13, 20)), Vec::<ValueId>::new());
        assert_eq!(h.value_universe(), vec![1, 2, 3]);
    }

    #[test]
    fn change_points_include_disappearance() {
        let h = sample();
        assert_eq!(h.change_points(20), vec![2, 5, 9, 13]);
        // If the timeline ends exactly at last_observed, there is no
        // disappearance point.
        assert_eq!(h.change_points(13), vec![2, 5, 9]);
    }

    #[test]
    fn builder_merges_identical_versions() {
        let mut b = HistoryBuilder::new("x");
        b.push(0, vec![1, 2]);
        b.push(3, vec![2, 1]); // same set, different order
        b.push(5, vec![1]);
        let h = b.finish(6);
        assert_eq!(h.versions().len(), 2);
        assert_eq!(h.change_count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn builder_rejects_out_of_order() {
        let mut b = HistoryBuilder::new("x");
        b.push(5, vec![1]);
        b.push(5, vec![2]);
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn builder_rejects_empty() {
        HistoryBuilder::new("x").finish(3);
    }

    #[test]
    fn cardinality_stats() {
        let h = sample();
        assert_eq!(h.median_cardinality(), 2); // sizes [2,3,2] sorted -> [2,2,3]
        assert!((h.mean_cardinality() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_version_history() {
        let mut b = HistoryBuilder::new("solo");
        b.push(4, vec![9]);
        let h = b.finish(4);
        assert_eq!(h.lifespan(), 1);
        assert_eq!(h.change_count(), 0);
        assert_eq!(h.values_at(4), &[9]);
        assert_eq!(h.values_at(5), &[] as &[ValueId]);
        assert_eq!(h.version_validity(0), Interval::new(4, 4));
    }

    #[test]
    fn version_range_in_edges() {
        let h = sample();
        assert_eq!(h.version_range_in(Interval::new(0, 1)), 0..0);
        assert_eq!(h.version_range_in(Interval::new(13, 15)), 0..0);
        assert_eq!(h.version_range_in(Interval::new(2, 2)), 0..1);
        assert_eq!(h.version_range_in(Interval::new(6, 10)), 1..3);
        assert_eq!(h.version_range_in(Interval::new(0, 100)), 0..3);
    }
}
