//! tIND validation (Section 4.3, Algorithm 2).
//!
//! The naive validator checks δ-containment at every timestamp — `O(n)`
//! containment checks. Algorithm 2 instead partitions the timeline into
//! intervals within which (a) `Q` has a single version and (b) the
//! δ-window union `A[[t-δ, t+δ]]` is provably constant, so one containment
//! check per interval suffices. Interval boundaries are the change points of
//! `Q` plus each change point of `A` shifted by ±δ (the `V_A^δ` of the
//! paper). A sliding window over `A`'s versions makes the sequence of
//! checks amortized linear in the number of versions.
//!
//! Two implementation tiers live here:
//!
//! 1. [`naive_violation_weight`] / [`naive_validate`] — the per-timestamp
//!    oracle every test pins the kernel against; tests and brute-force
//!    references only;
//! 2. [`QueryPlan`] + [`ValidationScratch`] — the one implementation of
//!    Algorithm 2. The plan is built once per query and reused across
//!    every candidate; the scratch is reused across pairs *and* queries on
//!    the same thread ([`with_thread_scratch`]), so the per-pair cost is
//!    allocation-free: a three-way merge of presorted critical-start
//!    streams, a dense generation-stamped counting window, and O(1)
//!    prefix-sum weights ([`WeightTable`]) with a two-sided early exit
//!    (prove-invalid when the violation exceeds ε, prove-valid when
//!    violation plus the remaining suffix weight cannot reach ε).
//!
//! [`validate`] and [`violation_weight`] are the one-off entry points: a
//! plan over the thread's scratch. Explanations (`crate::explain`) and
//! σ-partial validation (`crate::partial`) walk the same plan with their
//! own per-interval test ([`IntervalTest`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tind_model::{
    AttrId, AttributeHistory, Interval, Timeline, Timestamp, ValueId, WeightFn, WeightTable,
};

use crate::params::TindParams;

/// Process-wide count of quarantined window-union underflows. Always zero
/// unless an [`AttributeHistory`] invariant is broken (debug builds assert
/// instead of counting past the first).
static INVARIANT_BREACHES: AtomicU64 = AtomicU64::new(0);

/// Number of window-union underflows quarantined so far in this process
/// (see [`ValidationCounters::invariant_breaches`] for per-scratch counts).
pub fn invariant_breaches() -> u64 {
    INVARIANT_BREACHES.load(Ordering::Relaxed)
}

/// Records a window-union underflow — a retirement of a value that was
/// never admitted, which only a broken history ordering invariant (or a
/// non-monotone window advance) can produce. Debug builds fail fast with a
/// typed assertion; release builds count the breach and let the caller skip
/// the retirement, degrading that one pair instead of killing a worker.
#[cold]
fn window_underflow(v: ValueId) {
    INVARIANT_BREACHES.fetch_add(1, Ordering::Relaxed);
    debug_assert!(
        false,
        "window-union underflow: value {v} retired but never admitted \
         (broken AttributeHistory ordering invariant or non-monotone window)"
    );
}

/// Whether `Q[t] ⊆ A[[t-δ, t+δ]]` (Definition 3.4). Direct evaluation;
/// meant for spot checks and documentation, not hot loops.
pub fn delta_contained_at(
    q: &AttributeHistory,
    a: &AttributeHistory,
    t: Timestamp,
    delta: u32,
    timeline: Timeline,
) -> bool {
    let qv = q.values_at(t);
    if qv.is_empty() {
        return true;
    }
    let window = timeline.delta_window(t, delta);
    let av = a.values_in(window);
    tind_model::value::is_subset(qv, &av)
}

/// Reference validator: sums violation weights timestamp by timestamp.
/// Quadratic-ish and allocation-heavy — used to cross-check Algorithm 2 in
/// tests and nowhere else.
pub fn naive_violation_weight(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> f64 {
    timeline
        .iter()
        .filter(|&t| !delta_contained_at(q, a, t, params.delta, timeline))
        .map(|t| params.weights.weight(t))
        .sum()
}

/// Reference validity check via [`naive_violation_weight`].
pub fn naive_validate(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> bool {
    params.within_budget(naive_violation_weight(q, a, params, timeline))
}

/// The exact violation weight of the candidate `Q ⊆_{w,ε,δ} A` via
/// Algorithm 2: a one-off plan over this thread's scratch.
pub fn violation_weight(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> f64 {
    with_thread_scratch(|scratch| scratch.plan(q, params, timeline).violation_weight(a, scratch))
}

/// Whether `Q ⊆_{w,ε,δ} A` holds (Definition 3.6), via Algorithm 2 with
/// both early exits: a one-off plan over this thread's scratch.
///
/// # Examples
///
/// ```
/// use tind_core::validate::validate;
/// use tind_core::TindParams;
/// use tind_model::{DatasetBuilder, Timeline, WeightFn};
///
/// let tl = Timeline::new(20);
/// let mut b = DatasetBuilder::new(tl);
/// b.add_attribute("q", &[(0, vec!["x"]), (5, vec!["x", "new"])], 19);
/// b.add_attribute("a", &[(0, vec!["x"]), (8, vec!["x", "new"])], 19); // 3 days late
/// let d = b.build();
///
/// // Strictly, the 3-day lag violates containment ...
/// assert!(!validate(d.attribute(0), d.attribute(1), &TindParams::strict(), tl));
/// // ... but δ = 3 heals it (Definition 3.4/3.5).
/// let relaxed = TindParams::weighted(0.0, 3, WeightFn::constant_one());
/// assert!(validate(d.attribute(0), d.attribute(1), &relaxed, tl));
/// ```
pub fn validate(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> bool {
    with_thread_scratch(|scratch| scratch.plan(q, params, timeline).validate(a, scratch))
}

thread_local! {
    static THREAD_SCRATCH: Cell<ValidationScratch> = Cell::new(ValidationScratch::new());
}

/// Runs `f` on this thread's [`ValidationScratch`], so every validation a
/// thread runs — a one-off pair or a whole query's stage 4 — reuses one
/// dense window union and one memoised weight table. The scratch is taken
/// out for the call and put back afterwards: a panic inside `f` drops it,
/// and a nested call gets a fresh default scratch. A thread's scratch holds
/// 8 bytes × the largest value id it has seen until the thread exits.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ValidationScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}

/// Deterministic counters accumulated by a [`ValidationScratch`] across
/// every pair it validates. Callers snapshot before a batch of pairs and
/// diff afterwards ([`ValidationCounters::since`]) to attribute counts to
/// one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationCounters {
    /// Pairs validated through the kernel.
    pub validations: u64,
    /// Pairs that ended via the prove-valid early exit: the accumulated
    /// violation plus the remaining suffix weight could no longer exceed ε.
    pub proved_valid_early: u64,
    /// Pairs that ended via the prove-invalid early exit: the accumulated
    /// violation alone already exceeded ε.
    pub proved_invalid_early: u64,
    /// Window-union underflows quarantined in release builds (see
    /// [`invariant_breaches`] for the process-wide count).
    pub invariant_breaches: u64,
}

impl ValidationCounters {
    /// Counter deltas since an earlier snapshot of the same scratch.
    pub fn since(&self, earlier: &ValidationCounters) -> ValidationCounters {
        ValidationCounters {
            validations: self.validations - earlier.validations,
            proved_valid_early: self.proved_valid_early - earlier.proved_valid_early,
            proved_invalid_early: self.proved_invalid_early - earlier.proved_invalid_early,
            invariant_breaches: self.invariant_breaches - earlier.invariant_breaches,
        }
    }
}

/// Reusable per-worker-thread state for the plan-based kernel: the dense
/// counting window union, a cached weight table, and running counters.
///
/// The window union is a pair of arrays indexed by dataset-dense
/// [`ValueId`]s: `counts[v]` is the number of window-overlapping versions
/// containing `v`, valid only while `stamp[v]` equals the current pair's
/// generation. Starting the next pair is a single generation bump — O(1),
/// not O(capacity) — and the `touched` list keeps the per-pair working set
/// explicit (only values actually admitted are ever re-zeroed, so a pair's
/// cost is bounded by what it touches, independent of the dictionary size).
///
/// A scratch left mid-pair by a panicking validation (the all-pairs worker
/// quarantine) is safe to reuse: the next pair's generation bump makes any
/// stale counts invisible.
#[derive(Debug, Default)]
pub struct ValidationScratch {
    counts: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    touched: Vec<ValueId>,
    union_len: usize,
    counters: ValidationCounters,
    cached_weights: Option<(WeightFn, Timeline, WeightTable)>,
}

impl ValidationScratch {
    /// An empty scratch; arrays grow on demand to the largest value id seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes one worker validating queries of `dataset` grows to: `counts`
    /// and `stamp` over the whole dictionary, and up to 48 B per attribute
    /// of per-query staging (candidate bit sets, violation map, results).
    pub(crate) fn worker_bytes(dataset: &tind_model::Dataset) -> usize {
        dataset.dictionary().len().saturating_mul(8).saturating_add(dataset.len() * 48)
    }

    /// Snapshot of the running counters.
    pub fn counters(&self) -> ValidationCounters {
        self.counters
    }

    /// The prefix-sum table for `(weights, timeline)`, cached across calls:
    /// consecutive queries under the same parameters (the all-pairs and
    /// batch-search pattern) reuse one table instead of re-accumulating n
    /// sums per query.
    pub fn weight_table(&mut self, weights: &WeightFn, timeline: Timeline) -> WeightTable {
        match &self.cached_weights {
            Some((w, tl, table)) if w == weights && *tl == timeline => table.clone(),
            _ => {
                let table = weights.table(timeline);
                self.cached_weights = Some((weights.clone(), timeline, table.clone()));
                table
            }
        }
    }

    /// A plan for `q` around this scratch's memoised weight table — the
    /// plan every one-off validation builds.
    pub fn plan<'q>(
        &mut self,
        q: &'q AttributeHistory,
        params: &TindParams,
        timeline: Timeline,
    ) -> QueryPlan<'q> {
        let table = self.weight_table(&params.weights, timeline);
        QueryPlan::with_table(q, params, timeline, table)
    }

    /// Grows the dense arrays to cover ids `< cap`.
    fn ensure_capacity(&mut self, cap: usize) {
        if self.counts.len() < cap {
            self.counts.resize(cap, 0);
            self.stamp.resize(cap, 0);
        }
    }

    /// Starts a fresh pair: O(1) via a generation bump (with an O(capacity)
    /// stamp reset once every `u32::MAX` pairs, amortized to nothing).
    fn begin_pair(&mut self) {
        self.touched.clear();
        self.union_len = 0;
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    #[inline]
    fn admit(&mut self, v: ValueId) {
        let i = v as usize;
        if self.stamp[i] != self.generation {
            self.stamp[i] = self.generation;
            self.counts[i] = 0;
            self.touched.push(v);
        }
        if self.counts[i] == 0 {
            self.union_len += 1;
        }
        self.counts[i] += 1;
    }

    #[inline]
    fn retire(&mut self, v: ValueId) {
        let i = v as usize;
        if self.stamp[i] != self.generation || self.counts[i] == 0 {
            self.counters.invariant_breaches += 1;
            window_underflow(v);
            return;
        }
        self.counts[i] -= 1;
        if self.counts[i] == 0 {
            self.union_len -= 1;
        }
    }

    /// Whether `v` is in the current window union.
    #[inline]
    pub(crate) fn in_union(&self, v: ValueId) -> bool {
        let i = v as usize;
        self.stamp[i] == self.generation && self.counts[i] > 0
    }

    /// Whether every value of the canonical `set` is in the current union.
    #[inline]
    fn contains_all(&self, set: &[ValueId]) -> bool {
        set.len() <= self.union_len && set.iter().all(|&v| self.in_union(v))
    }
}

/// The per-interval test of Algorithm 2's walk ([`QueryPlan::run`]):
/// whether `Q`'s values on one interval of the partition count as violated
/// against the window union `A[[s − δ, s + δ]]` the scratch holds. The walk
/// is generic over it, so each test compiles into its own copy of the loop.
pub(crate) trait IntervalTest {
    /// Whether the interval on which `Q` holds the non-empty canonical set
    /// `qv` is violated.
    fn violated(&mut self, qv: &[ValueId], window: &ValidationScratch) -> bool;

    /// Sees each violated interval with its weight, in timeline order.
    #[inline]
    fn record(&mut self, _interval: Interval, _weight: f64) {}
}

/// Exact δ-containment (Definition 3.4): all of `Q[t]` is in the window.
struct Containment;

impl IntervalTest for Containment {
    #[inline]
    fn violated(&mut self, qv: &[ValueId], window: &ValidationScratch) -> bool {
        !window.contains_all(qv)
    }
}

/// Everything about a validation query `Q` that does not depend on the
/// candidate `A`, precomputed once and reused across candidates:
///
/// * `Q`'s contribution to the critical starts (its change points plus 0),
///   sorted and deduplicated up front;
/// * the value slice valid on each q-interval (no `values_at` binary
///   search per interval per pair);
/// * the prefix-sum [`WeightTable`] for O(1) interval and suffix weights.
///
/// Per candidate, [`QueryPlan::validate`] merges the plan's start stream
/// with `A`'s ±δ-shifted change points on the fly (three presorted streams,
/// no sort, no allocation) and slides the scratch's counting window over
/// `A`'s versions — amortized linear in the two version counts.
///
/// # Examples
///
/// ```
/// use tind_core::validate::{QueryPlan, ValidationScratch};
/// use tind_core::TindParams;
/// use tind_model::{DatasetBuilder, Timeline};
///
/// let tl = Timeline::new(20);
/// let mut b = DatasetBuilder::new(tl);
/// b.add_attribute("q", &[(0, vec!["x"])], 19);
/// b.add_attribute("yes", &[(0, vec!["x", "y"])], 19);
/// b.add_attribute("no", &[(0, vec!["z"])], 19);
/// let d = b.build();
///
/// let params = TindParams::strict();
/// let plan = QueryPlan::new(d.attribute(0), &params, tl);
/// let mut scratch = ValidationScratch::new();
/// assert!(plan.validate(d.attribute(1), &mut scratch));
/// assert!(!plan.validate(d.attribute(2), &mut scratch));
/// assert_eq!(scratch.counters().validations, 2);
/// ```
pub struct QueryPlan<'q> {
    q: &'q AttributeHistory,
    params: TindParams,
    timeline: Timeline,
    table: WeightTable,
    /// `Q`'s critical starts: 0 plus its change points, ascending, `< n`.
    /// Shared so [`QueryPlan::artifacts`] detaches them without a copy.
    q_starts: Arc<Vec<Timestamp>>,
    /// `q_values[i]` is `Q`'s value slice on `[q_starts[i], q_starts[i+1])`.
    q_values: Vec<&'q [ValueId]>,
    /// Dense-array capacity needed for `Q`'s side (max value id + 1).
    q_capacity: usize,
}

/// The query-only precomputation of a [`QueryPlan`], detached from the
/// plan's borrow of the query history so a cache can hold it across
/// requests: the prefix-sum weight table and the critical-start stream.
/// Rebuilding a plan from artifacts skips the O(timeline) table
/// accumulation and the change-point scan; only the per-start value-slice
/// lookups are redone against the live history, so plans built either way
/// are observationally identical.
///
/// Artifacts bind to the exact `(query history, weights, timeline)` they
/// were built from. [`QueryPlan::from_artifacts`] re-verifies the weights
/// and timeline; the *history* binding is the cache owner's contract —
/// evict every entry whose query attribute a dataset delta touched.
#[derive(Debug, Clone)]
pub struct PlanArtifacts {
    weights: WeightFn,
    timeline: Timeline,
    table: WeightTable,
    q_starts: Arc<Vec<Timestamp>>,
    q_capacity: usize,
}

impl PlanArtifacts {
    /// Whether these artifacts were built for `params.weights` over
    /// `timeline` — the two bindings a plan rebuild can verify itself.
    pub fn matches(&self, params: &TindParams, timeline: Timeline) -> bool {
        self.timeline == timeline && self.weights == params.weights
    }

    /// The timeline these artifacts were built over.
    pub fn timeline(&self) -> Timeline {
        self.timeline
    }
}

/// A plan cache consulted by the batched search path at the stage-4
/// plan-build seam (see [`crate::BatchOptions::plans`]): `get` before
/// building, `put` after a miss. Implementations own keying, eviction,
/// and delta-invalidation; verdicts and statistics are identical with or
/// without a source attached — only the plan-build work differs.
pub trait PlanSource: Send + Sync {
    /// Cached artifacts for `(query, params)` over `timeline`, if any.
    fn get(&self, query: AttrId, params: &TindParams, timeline: Timeline)
        -> Option<PlanArtifacts>;
    /// Offers freshly built artifacts for `(query, params)` over `timeline`.
    fn put(&self, query: AttrId, params: &TindParams, timeline: Timeline, artifacts: PlanArtifacts);
}

impl<'q> QueryPlan<'q> {
    /// Builds the plan for `q`, materializing a fresh weight table.
    pub fn new(q: &'q AttributeHistory, params: &TindParams, timeline: Timeline) -> Self {
        Self::with_table(q, params, timeline, params.weights.table(timeline))
    }

    /// Builds the plan for `q` around an existing `table` (built for
    /// `params.weights` over `timeline` — typically from
    /// [`ValidationScratch::weight_table`] so consecutive queries share it).
    pub fn with_table(
        q: &'q AttributeHistory,
        params: &TindParams,
        timeline: Timeline,
        table: WeightTable,
    ) -> Self {
        debug_assert_eq!(table.len(), timeline.len() as usize, "table built for another timeline");
        // The canonical-values invariant documented on
        // `AttributeHistory::values_at` is what lets `contains_all` probe
        // and size-compare without normalizing — enforce it per plan, not
        // per pair.
        debug_assert!(
            q.versions().iter().all(|v| v.values.windows(2).all(|w| w[0] < w[1])),
            "query versions must be canonical (sorted, deduplicated)"
        );
        let n = timeline.len();
        let mut q_starts = Vec::with_capacity(q.versions().len() + 2);
        q_starts.push(0);
        for c in q.change_points(n) {
            // Change points arrive strictly ascending; only the first can
            // collide with the leading 0.
            if c < n && c != *q_starts.last().expect("starts are never empty") {
                q_starts.push(c);
            }
        }
        let q_values: Vec<&[ValueId]> = q_starts.iter().map(|&s| q.values_at(s)).collect();
        let q_capacity = max_value_capacity(q);
        let q_starts = Arc::new(q_starts);
        QueryPlan { q, params: params.clone(), timeline, table, q_starts, q_values, q_capacity }
    }

    /// Rebuilds a plan for `q` from cached [`PlanArtifacts`]. Returns
    /// `None` when the artifacts were built for different weights or a
    /// different timeline (the caller then builds fresh). The caller must
    /// guarantee `q` is the same history the artifacts were built from.
    pub fn from_artifacts(
        q: &'q AttributeHistory,
        params: &TindParams,
        timeline: Timeline,
        artifacts: &PlanArtifacts,
    ) -> Option<QueryPlan<'q>> {
        if !artifacts.matches(params, timeline) {
            return None;
        }
        let q_values: Vec<&[ValueId]> =
            artifacts.q_starts.iter().map(|&s| q.values_at(s)).collect();
        Some(QueryPlan {
            q,
            params: params.clone(),
            timeline,
            table: artifacts.table.clone(),
            q_starts: Arc::clone(&artifacts.q_starts),
            q_values,
            q_capacity: artifacts.q_capacity,
        })
    }

    /// Detaches this plan's query-only precomputation for caching — see
    /// [`PlanArtifacts`]. Cheap: the table and starts are shared, not
    /// copied.
    pub fn artifacts(&self) -> PlanArtifacts {
        PlanArtifacts {
            weights: self.params.weights.clone(),
            timeline: self.timeline,
            table: self.table.clone(),
            q_starts: Arc::clone(&self.q_starts),
            q_capacity: self.q_capacity,
        }
    }

    /// The query this plan was built for.
    pub fn query(&self) -> &AttributeHistory {
        self.q
    }

    /// The parameters this plan was built for.
    pub fn params(&self) -> &TindParams {
        &self.params
    }

    /// Whether `Q ⊆_{w,ε,δ} A` holds, with the two-sided early exit.
    pub fn validate(&self, a: &AttributeHistory, scratch: &mut ValidationScratch) -> bool {
        self.run(a, scratch, true, &mut Containment).0
    }

    /// The exact violation weight of `Q ⊆_{w,ε,δ} A` (no early exits).
    pub fn violation_weight(&self, a: &AttributeHistory, scratch: &mut ValidationScratch) -> f64 {
        self.run(a, scratch, false, &mut Containment).1
    }

    /// Algorithm 2 over the merged critical-start streams, deciding each
    /// interval with `test`. Returns the verdict and the accumulated
    /// violation weight (exact only when `early_exit` is false or no exit
    /// fired).
    pub(crate) fn run<T: IntervalTest>(
        &self,
        a: &AttributeHistory,
        scratch: &mut ValidationScratch,
        early_exit: bool,
        test: &mut T,
    ) -> (bool, f64) {
        let n = self.timeline.len();
        let delta = self.params.delta;
        scratch.counters.validations += 1;
        scratch.ensure_capacity(self.q_capacity.max(max_value_capacity(a)));
        scratch.begin_pair();

        // A's change stream: version starts plus its disappearance point,
        // strictly ascending. Consumed at two offsets (−δ and +δ) by the
        // merge below: the window union changes when a change point c
        // enters the window (s = c − δ) or a run fully leaves it
        // (s = c + δ).
        let versions = a.versions();
        let a_changes = versions.len() + usize::from(a.last_observed() + 1 < n);
        let a_change =
            |i: usize| if i < versions.len() { versions[i].start } else { a.last_observed() + 1 };

        let mut qi = 0usize; // current q-interval: q_starts[qi] <= s
        let mut mi = 0usize; // head of the −δ-shifted stream
        let mut pi = 0usize; // head of the +δ-shifted stream
        let (mut lo, mut hi) = (0usize, 0usize); // window over A's versions
        let mut violation = 0.0f64;
        let mut s: Timestamp = 0;
        loop {
            // Pop every stream head at or before the current start, then
            // take the minimum surviving head as the next start. Heads at
            // or beyond n are never starts; streams ascend, so the first
            // such head exhausts its stream.
            while qi + 1 < self.q_starts.len() && self.q_starts[qi + 1] <= s {
                qi += 1;
            }
            while mi < a_changes && a_change(mi).saturating_sub(delta) <= s {
                mi += 1;
            }
            while pi < a_changes && a_change(pi).saturating_add(delta) <= s {
                pi += 1;
            }
            let mut next: Option<Timestamp> = None;
            if qi + 1 < self.q_starts.len() {
                next = Some(self.q_starts[qi + 1]);
            }
            if mi < a_changes {
                let h = a_change(mi).saturating_sub(delta);
                if h < n {
                    next = Some(next.map_or(h, |x| x.min(h)));
                }
            }
            if pi < a_changes {
                let h = a_change(pi).saturating_add(delta);
                if h < n {
                    next = Some(next.map_or(h, |x| x.min(h)));
                }
            }

            let qv = self.q_values[qi];
            if !qv.is_empty() {
                // Slide the window union to [s − δ, s + δ].
                let ws = s.saturating_sub(delta);
                let we = s.saturating_add(delta).min(n - 1);
                while hi < versions.len() && versions[hi].start <= we {
                    for &v in &versions[hi].values {
                        scratch.admit(v);
                    }
                    hi += 1;
                }
                while lo < hi && a.version_validity(lo).end < ws {
                    for &v in &versions[lo].values {
                        scratch.retire(v);
                    }
                    lo += 1;
                }
                if test.violated(qv, scratch) {
                    let interval = Interval::new(s, next.map_or(n - 1, |ns| ns - 1));
                    let weight = self.table.interval_weight(interval);
                    test.record(interval, weight);
                    violation += weight;
                    if early_exit && self.params.exceeds_budget(violation) {
                        scratch.counters.proved_invalid_early += 1;
                        return (false, violation);
                    }
                }
            }
            match next {
                Some(ns) => {
                    if early_exit && self.params.provably_within(violation, self.table.suffix_weight(ns))
                    {
                        scratch.counters.proved_valid_early += 1;
                        return (true, violation);
                    }
                    s = ns;
                }
                None => break,
            }
        }
        (self.params.within_budget(violation), violation)
    }
}

/// Dense-array capacity an attribute needs: its largest value id + 1.
/// Version value sets are canonical, so the largest id of each set is its
/// last element — O(versions), no allocation.
fn max_value_capacity(a: &AttributeHistory) -> usize {
    a.versions()
        .iter()
        .filter_map(|v| v.values.last())
        .map(|&m| m as usize + 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tind_model::{DatasetBuilder, WeightFn};

    /// One attribute spec: (name, versions, last_observed).
    type AttrSpec<'a> = (&'a str, &'a [(Timestamp, &'a [&'a str])], Timestamp);

    /// Figure 2's running example, re-created: Q with versions over a short
    /// timeline, candidates with and without violations.
    fn build(timeline_len: u32, specs: &[AttrSpec<'_>]) -> (tind_model::Dataset, Timeline) {
        let tl = Timeline::new(timeline_len);
        let mut b = DatasetBuilder::new(tl);
        for (name, versions, last) in specs {
            let versions: Vec<(Timestamp, Vec<&str>)> =
                versions.iter().map(|(t, vs)| (*t, vs.to_vec())).collect();
            b.add_attribute(name, &versions, *last);
        }
        (b.build(), tl)
    }

    #[test]
    fn strict_tind_requires_containment_everywhere() {
        let (d, tl) = build(
            10,
            &[
                ("q", &[(0, &["a", "b"])], 9),
                ("good", &[(0, &["a", "b", "c"])], 9),
                ("bad", &[(0, &["a", "b"]), (5, &["a"])], 9),
            ],
        );
        let p = TindParams::strict();
        assert!(validate(d.attribute(0), d.attribute(1), &p, tl));
        assert!(!validate(d.attribute(0), d.attribute(2), &p, tl));
        assert!(naive_validate(d.attribute(0), d.attribute(1), &p, tl));
        assert!(!naive_validate(d.attribute(0), d.attribute(2), &p, tl));
    }

    #[test]
    fn eps_budget_tolerates_brief_errors() {
        // "bad" is missing "b" for timestamps 5..=9 (5 violations).
        let (d, tl) = build(
            10,
            &[("q", &[(0, &["a", "b"])], 9), ("bad", &[(0, &["a", "b"]), (5, &["a"])], 9)],
        );
        let q = d.attribute(0);
        let a = d.attribute(1);
        assert!((naive_violation_weight(q, a, &TindParams::strict(), tl) - 5.0).abs() < 1e-9);
        let lenient = TindParams::weighted(5.0, 0, WeightFn::constant_one());
        assert!(validate(q, a, &lenient, tl));
        let tight = TindParams::weighted(4.0, 0, WeightFn::constant_one());
        assert!(!validate(q, a, &tight, tl));
    }

    #[test]
    fn exact_budget_boundary_is_valid() {
        let (d, tl) = build(
            10,
            &[("q", &[(0, &["a"])], 9), ("a", &[(0, &[] as &[&str]), (3, &["a"])], 9)],
        );
        // Violated at t = 0, 1, 2 → weight 3.
        let p = TindParams::weighted(3.0, 0, WeightFn::constant_one());
        assert!(validate(d.attribute(0), d.attribute(1), &p, tl));
    }

    #[test]
    fn delta_heals_temporal_shifts() {
        // Q gains value "new" at t=5; A follows at t=7 (delay of 2).
        let (d, tl) = build(
            20,
            &[
                ("q", &[(0, &["x"]), (5, &["x", "new"])], 19),
                ("a", &[(0, &["x"]), (7, &["x", "new"])], 19),
            ],
        );
        let q = d.attribute(0);
        let a = d.attribute(1);
        // Without δ: violated at t = 5, 6.
        let strict = TindParams::strict();
        assert!(!validate(q, a, &strict, tl));
        assert!((naive_violation_weight(q, a, &strict, tl) - 2.0).abs() < 1e-9);
        // δ = 2 heals it: at t = 5, window [3,7] includes A[7] ∋ "new".
        let healed = TindParams::weighted(0.0, 2, WeightFn::constant_one());
        assert!(validate(q, a, &healed, tl));
        assert!(naive_validate(q, a, &healed, tl));
        // δ = 1 is not enough: at t = 5, window [4,6] misses it.
        let partial = TindParams::weighted(0.0, 1, WeightFn::constant_one());
        assert!(!validate(q, a, &partial, tl));
        assert!((naive_violation_weight(q, a, &partial, tl) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delta_looks_backward_too() {
        // A had the value early and lost it; Q requires it later.
        let (d, tl) = build(
            20,
            &[
                ("q", &[(10, &["v"])], 10),
                ("a", &[(0, &["v"]), (8, &["w"])], 19),
            ],
        );
        let q = d.attribute(0);
        let a = d.attribute(1);
        // At t=10, window [10-3, 10+3] = [7,13] includes A[7] ∋ v.
        let p3 = TindParams::weighted(0.0, 3, WeightFn::constant_one());
        assert!(validate(q, a, &p3, tl));
        let p2 = TindParams::weighted(0.0, 2, WeightFn::constant_one());
        assert!(!validate(q, a, &p2, tl), "window [8,12] misses v (A changed at 8)");
    }

    #[test]
    fn unobservable_query_periods_never_violate() {
        let (d, tl) = build(
            30,
            &[("q", &[(10, &["z"])], 15), ("a", &[(10, &["z"])], 15)],
        );
        let p = TindParams::strict();
        assert!(validate(d.attribute(0), d.attribute(1), &p, tl));
        assert_eq!(naive_violation_weight(d.attribute(0), d.attribute(1), &p, tl), 0.0);
    }

    #[test]
    fn rhs_disappearance_causes_violations() {
        // A vanishes at t=5; Q continues to exist until 9.
        let (d, tl) = build(
            10,
            &[("q", &[(0, &["k"])], 9), ("a", &[(0, &["k"])], 4)],
        );
        let q = d.attribute(0);
        let a = d.attribute(1);
        let strict = TindParams::strict();
        // Violated at t = 5..=9.
        assert!((naive_violation_weight(q, a, &strict, tl) - 5.0).abs() < 1e-9);
        assert!(!validate(q, a, &strict, tl));
        // δ = 5 reaches back to A[4] from t = 9.
        let healed = TindParams::weighted(0.0, 5, WeightFn::constant_one());
        assert!(validate(q, a, &healed, tl));
    }

    #[test]
    fn exponential_weights_discount_old_violations() {
        let tl_len = 50;
        // Violation only at t = 0..=4 (A starts empty, gains value at 5).
        let (d, tl) = build(
            tl_len,
            &[("q", &[(0, &["v"])], 49), ("a", &[(0, &[] as &[&str]), (5, &["v"])], 49)],
        );
        let q = d.attribute(0);
        let a = d.attribute(1);
        let w = WeightFn::exponential(0.5, tl);
        // Old violations weigh ~nothing under decay.
        let decayed = TindParams::weighted(1e-9, 0, w);
        assert!(validate(q, a, &decayed, tl));
        // Same ε with constant weights fails (5 full violations).
        let flat = TindParams::weighted(1e-9, 0, WeightFn::constant_one());
        assert!(!validate(q, a, &flat, tl));
    }

    #[test]
    fn algorithm2_matches_naive_on_figure2_style_histories() {
        let (d, tl) = build(
            30,
            &[
                ("q", &[(0, &["ita", "pol"]), (8, &["ita", "pol", "usa"]), (15, &["ita"])], 25),
                ("a", &[(2, &["ita", "pol", "ger"]), (10, &["ita", "usa", "pol"]), (20, &["ita", "fra"])], 29),
            ],
        );
        let q = d.attribute(0);
        let a = d.attribute(1);
        for delta in [0u32, 1, 2, 5, 10, 40] {
            for eps in [0.0, 1.0, 3.0, 10.0] {
                let p = TindParams::weighted(eps, delta, WeightFn::constant_one());
                let fast = violation_weight(q, a, &p, tl);
                let naive = naive_violation_weight(q, a, &p, tl);
                assert!(
                    (fast - naive).abs() < 1e-9,
                    "δ={delta}: algorithm2 {fast} vs naive {naive}"
                );
                assert_eq!(validate(q, a, &p, tl), naive_validate(q, a, &p, tl));
            }
        }
    }

    #[test]
    fn reflexivity_holds_for_all_params() {
        let (d, tl) = build(
            20,
            &[("q", &[(2, &["a", "b"]), (9, &["c"])], 17)],
        );
        let q = d.attribute(0);
        for p in [
            TindParams::strict(),
            TindParams::paper_default(),
            TindParams::eps_relaxed(0.0, tl),
            TindParams::weighted(0.0, 3, WeightFn::exponential(0.9, tl)),
        ] {
            assert!(validate(q, q, &p, tl), "reflexivity failed for {p:?}");
        }
    }

    /// Figure-2-style histories exercising every structural edge the kernel
    /// merges over: late first observation, disappearance before the
    /// timeline end, value loss, and an unobservable query stretch.
    pub(crate) fn kernel_fixture() -> (tind_model::Dataset, Timeline) {
        build(
            30,
            &[
                ("q1", &[(0, &["ita", "pol"]), (8, &["ita", "pol", "usa"]), (15, &["ita"])], 25),
                ("q2", &[(10, &["z"])], 15),
                ("a1", &[(2, &["ita", "pol", "ger"]), (10, &["ita", "usa", "pol"]), (20, &["ita", "fra"])], 29),
                ("a2", &[(0, &["ita", "pol", "usa", "z"])], 22),
                ("a3", &[(0, &["ita"]), (12, &["ita", "pol", "usa"])], 29),
                ("a4", &[(5, &["z", "other"])], 29),
            ],
        )
    }

    #[test]
    fn plan_matches_naive_on_param_grid() {
        let (d, tl) = kernel_fixture();
        let mut scratch = ValidationScratch::new();
        for q in 0..2u32 {
            let q = d.attribute(q);
            for a in 2..6u32 {
                let a = d.attribute(a);
                for delta in [0u32, 1, 2, 5, 10, 40] {
                    for eps in [0.0, 1.0, 3.0, 10.0, 100.0] {
                        for w in weight_families(tl) {
                            let p = TindParams::weighted(eps, delta, w);
                            let plan = QueryPlan::new(q, &p, tl);
                            let exact = plan.violation_weight(a, &mut scratch);
                            let naive = naive_violation_weight(q, a, &p, tl);
                            let ctx = format!("{}⊆{} δ={delta} ε={eps} {:?}", q.name(), a.name(), p.weights);
                            assert!((exact - naive).abs() < 1e-9, "{ctx}: plan {exact} vs naive {naive}");
                            let verdict = plan.validate(a, &mut scratch);
                            assert_eq!(verdict, naive_validate(q, a, &p, tl), "{ctx}");
                            assert_eq!(verdict, validate(q, a, &p, tl), "{ctx}: one-off entry point");
                            assert_eq!(exact.to_bits(), violation_weight(q, a, &p, tl).to_bits(), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// The four weight families every grid sweeps.
    pub(crate) fn weight_families(tl: Timeline) -> [WeightFn; 4] {
        [
            WeightFn::constant_one(),
            WeightFn::uniform_normalized(tl),
            WeightFn::exponential(0.9, tl),
            WeightFn::linear(tl),
        ]
    }

    #[test]
    fn plan_partition_is_bit_identical_under_constant_weights() {
        // Under w(t) = 1 both sides sum exact small integers, so any
        // difference between the merged-stream partition and the
        // per-timestamp oracle shows up as an exact mismatch.
        let (d, tl) = kernel_fixture();
        let mut scratch = ValidationScratch::new();
        for q in 0..2u32 {
            let q = d.attribute(q);
            for a in 2..6u32 {
                let a = d.attribute(a);
                for delta in [0u32, 1, 3, 7, 14, 29, 100] {
                    let p = TindParams::weighted(f64::MAX, delta, WeightFn::constant_one());
                    let plan = QueryPlan::new(q, &p, tl);
                    assert_eq!(
                        plan.violation_weight(a, &mut scratch),
                        naive_violation_weight(q, a, &p, tl),
                        "{}⊆{} δ={delta}",
                        q.name(),
                        a.name()
                    );
                }
            }
        }
    }

    #[test]
    fn thread_scratch_is_reused_and_reset_by_panics_and_nesting() {
        // A fresh thread, so no other test's validations are counted.
        std::thread::spawn(|| {
            let (d, tl) = kernel_fixture();
            let p = TindParams::paper_default();
            assert!(validate(d.attribute(0), d.attribute(0), &p, tl));
            violation_weight(d.attribute(0), d.attribute(2), &p, tl);
            let count = || with_thread_scratch(|s| s.counters().validations);
            assert_eq!(count(), 2, "one scratch serves every call on the thread");
            with_thread_scratch(|outer| {
                assert_eq!(outer.counters().validations, 2);
                assert_eq!(count(), 0, "a nested call gets a fresh scratch");
            });
            assert_eq!(count(), 2, "the outer call puts its scratch back");
            let unwound = std::panic::catch_unwind(|| with_thread_scratch(|_| panic!("mid-walk")));
            assert!(unwound.is_err());
            assert_eq!(count(), 0, "a panic drops the scratch");
        })
        .join()
        .expect("thread scratch checks pass");
    }

    #[test]
    fn prove_valid_early_exit_agrees_with_exhaustive_verdict() {
        let (d, tl) = kernel_fixture();
        let mut scratch = ValidationScratch::new();
        // Budget covers the whole timeline: provable validity after the
        // first interval transition.
        let p = TindParams::weighted(1000.0, 2, WeightFn::constant_one());
        let plan = QueryPlan::new(d.attribute(0), &p, tl);
        let before = scratch.counters();
        for a in 2..6u32 {
            let a = d.attribute(a);
            assert!(plan.validate(a, &mut scratch));
            assert!(naive_validate(d.attribute(0), a, &p, tl));
        }
        let delta = scratch.counters().since(&before);
        assert_eq!(delta.validations, 4);
        assert!(delta.proved_valid_early > 0, "generous budget should be provable early");
        assert_eq!(delta.invariant_breaches, 0);
    }

    #[test]
    fn prove_invalid_early_exit_fires_on_hopeless_pairs() {
        let (d, tl) = build(
            100,
            &[("q", &[(0, &["v"])], 99), ("a", &[(0, &["other"])], 99)],
        );
        let p = TindParams::strict();
        let plan = QueryPlan::new(d.attribute(0), &p, tl);
        let mut scratch = ValidationScratch::new();
        assert!(!plan.validate(d.attribute(1), &mut scratch));
        assert_eq!(scratch.counters().proved_invalid_early, 1);
        assert_eq!(scratch.counters().proved_valid_early, 0);
    }

    #[test]
    fn scratch_reuse_across_plans_matches_fresh_scratch() {
        let (d, tl) = kernel_fixture();
        let p = TindParams::paper_default();
        let mut reused = ValidationScratch::new();
        for q in 0..2u32 {
            let plan = QueryPlan::new(d.attribute(q), &p, tl);
            for a in 2..6u32 {
                let mut fresh = ValidationScratch::new();
                let a = d.attribute(a);
                assert_eq!(plan.validate(a, &mut reused), plan.validate(a, &mut fresh));
                assert_eq!(plan.violation_weight(a, &mut reused), plan.violation_weight(a, &mut fresh));
            }
        }
        // 2 queries × 4 candidates × 2 calls each.
        assert_eq!(reused.counters().validations, 16);
    }

    #[test]
    fn scratch_weight_table_is_cached_per_parameters() {
        let tl = Timeline::new(50);
        let mut scratch = ValidationScratch::new();
        let w1 = WeightFn::exponential(0.9, tl);
        let t1 = scratch.weight_table(&w1, tl);
        let t1_again = scratch.weight_table(&w1, tl);
        assert_eq!(t1.total().to_bits(), t1_again.total().to_bits());
        let w2 = WeightFn::constant_one();
        let t2 = scratch.weight_table(&w2, tl);
        assert_eq!(t2.total(), 50.0);
        assert!((t1.total() - w1.total(tl)).abs() < 1e-9);
    }

    #[test]
    fn window_underflow_is_counted_and_quarantined() {
        let before = invariant_breaches();
        let mut scratch = ValidationScratch::new();
        scratch.ensure_capacity(8);
        scratch.begin_pair();
        // Retire a value that was never admitted — the breach every broken
        // history ordering invariant eventually reduces to.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scratch.retire(3)));
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "debug builds fail fast on underflow");
        } else {
            assert!(outcome.is_ok(), "release builds quarantine the pair");
        }
        // The breach is recorded either way, before the assertion fires.
        assert_eq!(scratch.counters().invariant_breaches, 1);
        assert!(invariant_breaches() > before);
    }

    #[test]
    fn plan_from_artifacts_matches_fresh_plan() {
        let (d, tl) = kernel_fixture();
        let mut scratch = ValidationScratch::new();
        for q in 0..2u32 {
            let q = d.attribute(q);
            for p in [
                TindParams::strict(),
                TindParams::paper_default(),
                TindParams::weighted(3.0, 2, WeightFn::exponential(0.9, tl)),
            ] {
                let fresh = QueryPlan::new(q, &p, tl);
                let artifacts = fresh.artifacts();
                assert!(artifacts.matches(&p, tl));
                assert_eq!(artifacts.timeline(), tl);
                let rebuilt = QueryPlan::from_artifacts(q, &p, tl, &artifacts)
                    .expect("matching artifacts rebuild");
                for a in 2..6u32 {
                    let a = d.attribute(a);
                    assert_eq!(
                        fresh.violation_weight(a, &mut scratch).to_bits(),
                        rebuilt.violation_weight(a, &mut scratch).to_bits(),
                        "rebuilt plan must be bit-identical"
                    );
                    assert_eq!(fresh.validate(a, &mut scratch), rebuilt.validate(a, &mut scratch));
                }
            }
        }
    }

    #[test]
    fn mismatched_artifacts_are_refused() {
        let (d, tl) = kernel_fixture();
        let q = d.attribute(0);
        let p1 = TindParams::weighted(1.0, 2, WeightFn::constant_one());
        let artifacts = QueryPlan::new(q, &p1, tl).artifacts();
        // Different weights under the same (ε, δ) → refuse.
        let p2 = TindParams::weighted(1.0, 2, WeightFn::exponential(0.5, tl));
        assert!(QueryPlan::from_artifacts(q, &p2, tl, &artifacts).is_none());
        // Different timeline → refuse.
        let other = Timeline::new(tl.len() + 5);
        assert!(!artifacts.matches(&p1, other));
        assert!(QueryPlan::from_artifacts(q, &p1, other, &artifacts).is_none());
    }

    #[test]
    fn plan_exposes_query_and_params() {
        let (d, tl) = kernel_fixture();
        let p = TindParams::paper_default();
        let plan = QueryPlan::new(d.attribute(0), &p, tl);
        assert_eq!(plan.query().name(), "q1");
        assert_eq!(plan.params(), &p);
    }
}
