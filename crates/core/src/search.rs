//! tIND search with candidate pruning (Section 4.2, Algorithm 1).
//!
//! Pipeline for a query attribute `Q`:
//!
//! 1. **Required values vs `M_T`** — any candidate missing a value that `Q`
//!    carries for more than ε total weight is pruned.
//! 2. **Time slices** — for every slice `I_j` and every distinct version of
//!    `Q` within it, candidates whose slice filter cannot contain the
//!    version accumulate the version's (query-weighted) violation; once a
//!    candidate's tracked violation strictly exceeds ε it is pruned.
//!    Skipped entirely when the query's δ exceeds the index's maximum δ
//!    (slice evidence would no longer be sound, §4.4).
//! 3. **Exact Bloom-false-positive filtering** — surviving candidates are
//!    re-checked against the exact cached universes (Algorithm 1, line 16).
//! 4. **Validation** — Algorithm 2 on each remaining candidate.
//!
//! Note one deliberate deviation from the paper's pseudocode: Algorithm 1
//! prunes at `VIO[c] ≥ ε`, but a candidate whose true violation weight is
//! *exactly* ε is still valid under Definition 3.6 ("at most ε"). We prune
//! only at `VIO[c] > ε` to guarantee zero false negatives.

use std::panic::resume_unwind;
use std::sync::{Arc, Mutex};

use tind_bloom::{BitVec, BloomFilter};
use tind_model::hash::FastMap;
use tind_model::{AttrId, AttributeHistory, MemoryBudget, ValueId, ValueSet};

use crate::cancel::CancelToken;
use crate::index::{TindIndex, ValueBufs};
use crate::par::Drain;
use crate::params::TindParams;
use crate::required::{required_values, required_values_into};
use crate::sync::{into_inner, lock};
use crate::validate::{naive_validate, with_thread_scratch, PlanSource, QueryPlan, ValidationScratch};

/// Cached handles into the metrics registry — resolved once, then each
/// query pays only relaxed atomic adds (see DESIGN.md §7 for the names).
struct SearchMetrics {
    queries: &'static tind_obs::Counter,
    validations: &'static tind_obs::Counter,
    early_valid: &'static tind_obs::Counter,
    early_invalid: &'static tind_obs::Counter,
    pruned_required: &'static tind_obs::Counter,
    pruned_slices: &'static tind_obs::Counter,
    pruned_exact: &'static tind_obs::Counter,
    pairs_valid: &'static tind_obs::Counter,
    candidates_validated: &'static tind_obs::Histogram,
}

fn search_metrics() -> &'static SearchMetrics {
    static METRICS: std::sync::OnceLock<SearchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SearchMetrics {
        queries: tind_obs::counter("search.queries"),
        validations: tind_obs::counter("search.validations"),
        early_valid: tind_obs::counter("search.early_valid_exits"),
        early_invalid: tind_obs::counter("search.early_invalid_exits"),
        pruned_required: tind_obs::counter("search.pruned.required"),
        pruned_slices: tind_obs::counter("search.pruned.slices"),
        pruned_exact: tind_obs::counter("search.pruned.exact"),
        pairs_valid: tind_obs::counter("search.pairs_valid"),
        candidates_validated: tind_obs::histogram("search.candidates_validated"),
    })
}

/// Mirror one query's pruning funnel into the global registry.
pub(crate) fn record_search_metrics(stats: &SearchStats) {
    let m = search_metrics();
    m.queries.incr();
    m.validations.add(stats.validations_run as u64);
    m.early_valid.add(stats.early_valid_exits as u64);
    m.early_invalid.add(stats.early_invalid_exits as u64);
    m.pruned_required.add((stats.initial - stats.after_required) as u64);
    m.pruned_slices.add((stats.after_required - stats.after_slices) as u64);
    m.pruned_exact.add((stats.after_slices - stats.after_exact) as u64);
    m.pairs_valid.add(stats.validated as u64);
    m.candidates_validated.record(stats.after_exact as u64);
}

/// Counters describing how the candidate set narrowed per stage; the basis
/// of the pruning-power experiments.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// `|D|` (minus the excluded self, if any).
    pub initial: usize,
    /// Candidates surviving the required-values pass over `M_T`.
    pub after_required: usize,
    /// Candidates surviving time-slice violation tracking.
    pub after_slices: usize,
    /// Candidates surviving exact (non-Bloom) subset re-checks.
    pub after_exact: usize,
    /// Candidates that passed full validation — `|results|`.
    pub validated: usize,
    /// Whether the time slices were usable (query δ ≤ index δ).
    pub slices_used: bool,
    /// Number of full (Algorithm 2) validations executed.
    pub validations_run: usize,
    /// Validations that ended via the prove-valid early exit (violation
    /// plus remaining suffix weight could no longer exceed ε).
    pub early_valid_exits: usize,
    /// Validations that ended via the prove-invalid early exit (violation
    /// alone already exceeded ε).
    pub early_invalid_exits: usize,
    /// Wall-clock nanoseconds spent in stage 4 (plan build + validations).
    /// Excluded from equality: timing is never deterministic.
    pub validate_nanos: u64,
}

/// Equality over the deterministic counters only — `validate_nanos` is
/// wall-clock noise and deliberately ignored, so batch-vs-sequential
/// equivalence tests can compare whole stats structs.
impl PartialEq for SearchStats {
    fn eq(&self, other: &Self) -> bool {
        self.initial == other.initial
            && self.after_required == other.after_required
            && self.after_slices == other.after_slices
            && self.after_exact == other.after_exact
            && self.validated == other.validated
            && self.slices_used == other.slices_used
            && self.validations_run == other.validations_run
            && self.early_valid_exits == other.early_valid_exits
            && self.early_invalid_exits == other.early_invalid_exits
    }
}

impl Eq for SearchStats {}

/// Result of a (reverse) tIND search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Ids of attributes satisfying the dependency, ascending.
    pub results: Vec<AttrId>,
    /// Per-stage pruning statistics.
    pub stats: SearchStats,
}

/// Toggles for the individual pruning stages — used by the ablation
/// benches to measure each stage's contribution. Disabling stages never
/// changes results (validation is authoritative), only runtime.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Stage 1: required values vs `M_T`.
    pub use_required_values: bool,
    /// Stage 2: time-slice violation tracking.
    pub use_time_slices: bool,
    /// Stage 3: exact re-check against cached universes.
    pub use_exact_filter: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { use_required_values: true, use_time_slices: true, use_exact_filter: true }
    }
}

/// Options for [`TindIndex::search_batch_with`].
#[derive(Clone, Default)]
pub struct BatchOptions {
    /// Worker threads for the per-query stages; `0` picks the machine's
    /// available parallelism.
    pub threads: usize,
    /// Optional cooperative cancellation, polled at query boundaries.
    pub cancel: Option<CancelToken>,
    /// Optional memory budget for worker scratch; extra workers beyond the
    /// first are shed when the budget cannot cover them (same degradation
    /// rule as all-pairs discovery).
    pub memory_budget: Option<MemoryBudget>,
    /// Optional plan cache consulted at the stage-4 plan-build seam:
    /// hits skip the weight-table accumulation and change-point scan for
    /// repeat `(query, parameters)` pairs. Results and statistics are
    /// identical with or without one attached.
    pub plans: Option<Arc<dyn PlanSource>>,
    /// Optional trace context: when set, the batched stage-1 pass and
    /// each query's stage 2–4 kernels record trace spans parented to it
    /// (the serve daemon passes its coalesced-wave span here). Purely
    /// observational — results and statistics are identical either way.
    pub trace: Option<tind_obs::TraceContext>,
    /// Per-query stage toggles, applied to every query of the batch.
    pub search: SearchOptions,
}

impl std::fmt::Debug for BatchOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchOptions")
            .field("threads", &self.threads)
            .field("cancel", &self.cancel)
            .field("memory_budget", &self.memory_budget)
            .field("plans", &self.plans.is_some())
            .field("trace", &self.trace)
            .field("search", &self.search)
            .finish()
    }
}

/// Result of a batched tIND search.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One outcome per query, in input order; `None` only for queries
    /// skipped by cancellation.
    pub outcomes: Vec<Option<SearchOutcome>>,
    /// Whether cancellation stopped the batch before every query finished.
    pub cancelled: bool,
    /// Worker threads actually used after memory-budget shedding.
    pub threads_used: usize,
}

/// Executes tIND search for `q` against the index. `exclude` removes the
/// reflexive result when `q` is itself an indexed attribute.
pub(crate) fn run_search(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
) -> SearchOutcome {
    run_search_with(index, q, exclude, params, &SearchOptions::default())
}

/// [`run_search`] with stage toggles, on this thread's scratch.
pub(crate) fn run_search_with(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
    options: &SearchOptions,
) -> SearchOutcome {
    let mut bufs = ValueBufs::default();
    with_thread_scratch(|scratch| {
        run_search_scratch(index, q, exclude, params, options, scratch, &mut bufs, None)
    })
}

/// [`run_search_with`] against a caller-owned [`ValidationScratch`] and
/// required-value buffers — the entry point for loops that issue many
/// queries from one worker (the pair driver) and want no per-query
/// allocation in stages 1 and 4.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_search_scratch(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
    options: &SearchOptions,
    scratch: &mut ValidationScratch,
    bufs: &mut ValueBufs,
    trace: Option<tind_obs::TraceContext>,
) -> SearchOutcome {
    let query_span = tind_obs::traced_span("core.search.query", trace);
    let trace = query_span.child_ctx();
    let mut candidates = initial_candidates(index, exclude);

    // Stage 1: required values against M_T.
    let (required, _, weights) = bufs;
    required_values_into(q, params, required, weights);
    if options.use_required_values && !required.is_empty() {
        let _s1 = tind_obs::traced_span("core.search.stage1", trace);
        let qf = index.m_t().query_filter(required);
        index.m_t().narrow_to_supersets(&qf, &mut candidates);
    }

    finish_search(index, q, exclude, params, options, required, candidates, scratch, None, trace)
}

/// The full candidate set before any pruning (minus the reflexive self,
/// minus any attributes masked by a quarantined store shard).
///
/// Masked attributes must be excluded *here*, not discovered later: their
/// matrix columns are all-zero, which stage 1 would misread as "contains
/// nothing" and silently prune — a false negative dressed up as an answer.
/// Dropping them from the candidate set up front keeps every stage honest,
/// and the caller reports the excluded range via the shard mask.
pub(crate) fn initial_candidates(index: &TindIndex, exclude: Option<AttrId>) -> BitVec {
    let mut candidates = BitVec::ones(index.dataset().len());
    if let Some(x) = exclude {
        candidates.clear(x as usize);
    }
    if let Some(mask) = index.shard_mask() {
        candidates.andnot_assign_words(mask.bits().words());
    }
    candidates
}

/// Stages 2–4 of Algorithm 1, shared by the per-query and batched paths.
/// `candidates` arrives already narrowed by the stage-1 required-values
/// pass (or untouched when that stage is disabled).
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_search(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
    options: &SearchOptions,
    required: &[ValueId],
    mut candidates: BitVec,
    scratch: &mut ValidationScratch,
    plans: Option<&dyn PlanSource>,
    trace: Option<tind_obs::TraceContext>,
) -> SearchOutcome {
    let dataset = index.dataset();
    let timeline = dataset.timeline();
    let num_attrs = dataset.len();
    let mut stats = SearchStats {
        initial: num_attrs - usize::from(exclude.is_some()),
        after_required: candidates.count_ones(),
        ..SearchStats::default()
    };

    // Stage 2: time-slice violation tracking.
    //
    // Two equivalent evaluation modes (both apply the same per-column
    // Bloom test, so results are identical):
    // * row mode — AND whole matrix rows into a scratch set; cost
    //   O(query-bits · |D|/64) regardless of how many candidates remain.
    // * probe mode — test each remaining candidate's column bits
    //   individually; cost O(candidates · |values| · k). Once `M_T` has
    //   narrowed the field to a handful, probing is far cheaper than
    //   touching full rows — this keeps large k affordable on large |D|.
    stats.slices_used = options.use_time_slices && params.slices_usable(index.max_delta());
    if stats.slices_used && !candidates.is_zero() {
        let _s2 = tind_obs::traced_span("core.search.stage2", trace);
        let probe_threshold = (num_attrs / 64).max(8);
        let mut violations: FastMap<u32, f64> = FastMap::default();
        let mut scratch = BitVec::zeros(num_attrs);
        let mut alive = candidates.count_ones();
        'slices: for slice in index.time_slices() {
            let range = q.version_range_in(slice.interval);
            for vi in range {
                let Some(validity) = q.version_validity(vi).intersect(&slice.interval) else {
                    continue;
                };
                let values = &q.versions()[vi].values;
                if values.is_empty() {
                    continue;
                }
                let w = params.weights.interval_weight(validity);
                let mut pruned_any = false;
                if alive <= probe_threshold {
                    // Probe mode.
                    for c in candidates.iter_ones() {
                        if slice.matrix.column_may_contain_all(c, values) {
                            continue;
                        }
                        let v = violations.entry(c as u32).or_insert(0.0);
                        *v += w;
                        if params.exceeds_budget(*v) {
                            pruned_any = true;
                        }
                    }
                } else {
                    // Row mode: scratch = candidates ∧ slice-contained;
                    // anything cleared relative to `candidates` is a
                    // detected partial violation.
                    scratch.copy_from(&candidates);
                    let qf = slice.matrix.query_filter(values);
                    slice.matrix.narrow_to_supersets(&qf, &mut scratch);
                    for c in candidates.iter_ones() {
                        if scratch.get(c) {
                            continue;
                        }
                        let v = violations.entry(c as u32).or_insert(0.0);
                        *v += w;
                        if params.exceeds_budget(*v) {
                            pruned_any = true;
                        }
                    }
                }
                if pruned_any {
                    for (&c, &v) in &violations {
                        if params.exceeds_budget(v) && candidates.get(c as usize) {
                            candidates.clear(c as usize);
                            alive -= 1;
                        }
                    }
                    if candidates.is_zero() {
                        break 'slices;
                    }
                }
            }
        }
    }
    stats.after_slices = candidates.count_ones();

    // Stage 3: exact subset re-check of the required values against the
    // cached universes — discards Bloom false positives cheaply before the
    // expensive full validation (Algorithm 1, line 16).
    if options.use_exact_filter && !required.is_empty() {
        let _s3 = tind_obs::traced_span("core.search.stage3", trace);
        let survivors: Vec<usize> = candidates.iter_ones().collect();
        for c in survivors {
            if !tind_model::value::is_subset(required, index.universe(c as u32)) {
                candidates.clear(c);
            }
        }
    }
    stats.after_exact = candidates.count_ones();

    // Stage 4: full validation through the plan-based kernel — the plan is
    // built once for `q` and reused across every surviving candidate; the
    // scratch (and its cached weight table) persists across queries on the
    // same worker thread.
    let s4 = tind_obs::traced_span("core.search.stage4", trace);
    let started = std::time::Instant::now();
    let plan = {
        let _plan_span = tind_obs::traced_span("core.validate.plan_build", s4.child_ctx());
        // Indexed queries (`exclude` carries the query's own id) can reuse
        // cached plan artifacts; external-history queries always build
        // fresh — there is no stable identity to key them by.
        let cached = plans
            .zip(exclude)
            .and_then(|(src, qid)| src.get(qid, params, timeline))
            .and_then(|a| QueryPlan::from_artifacts(q, params, timeline, &a));
        match cached {
            Some(plan) => plan,
            None => {
                let plan = scratch.plan(q, params, timeline);
                if let (Some(src), Some(qid)) = (plans, exclude) {
                    src.put(qid, params, timeline, plan.artifacts());
                }
                plan
            }
        }
    };
    let before = scratch.counters();
    let mut results = Vec::new();
    for c in candidates.iter_ones() {
        stats.validations_run += 1;
        let a = dataset.attribute(c as u32);
        if plan.validate(a, scratch) {
            results.push(c as u32);
        }
    }
    let exits = scratch.counters().since(&before);
    stats.early_valid_exits = exits.proved_valid_early as usize;
    stats.early_invalid_exits = exits.proved_invalid_early as usize;
    stats.validate_nanos = started.elapsed().as_nanos() as u64;
    stats.validated = results.len();
    record_search_metrics(&stats);
    SearchOutcome { results, stats }
}

/// One query's staged state while a batch drains: the stage-1 output waits
/// in `input` until a worker claims it and replaces it with `outcome`.
struct BatchSlot {
    input: Option<(ValueSet, BitVec)>,
    outcome: Option<SearchOutcome>,
}

/// Batched tIND search (the kernel behind [`TindIndex::search_batch_with`]).
///
/// Stage 1 runs for the whole batch at once: every query's required values
/// are hashed exactly once, and `M_T` is walked row-by-row in word-blocked
/// strips, narrowing all candidate sets per row touch instead of re-reading
/// each row per query. Stages 2–4 stay per-query, one unit each of the
/// crate's parallel driver (`core::par`). Outcomes are
/// identical to running [`TindIndex::search`] per query, in input order.
pub(crate) fn run_search_batch(
    index: &TindIndex,
    queries: &[AttrId],
    params: &TindParams,
    options: &BatchOptions,
) -> BatchOutcome {
    let dataset = index.dataset();
    let timeline = dataset.timeline();

    // Batched stage 1.
    let batch_stage1 = tind_obs::traced_span("core.search.batch_stage1", options.trace);
    let required: Vec<ValueSet> = queries
        .iter()
        .map(|&qid| required_values(dataset.attribute(qid), params, timeline))
        .collect();
    let mut candidates: Vec<BitVec> =
        queries.iter().map(|&qid| initial_candidates(index, Some(qid))).collect();
    if options.search.use_required_values {
        // An empty required set hashes to a filter with no set rows, which
        // narrows nothing — matching the per-query `!required.is_empty()`
        // guard.
        let filters: Vec<BloomFilter> =
            required.iter().map(|r| index.m_t().query_filter(r)).collect();
        index.m_t().narrow_batch_to_supersets(&filters, &mut candidates);
    }
    drop(batch_stage1);

    let slots: Vec<Mutex<BatchSlot>> = required
        .into_iter()
        .zip(candidates)
        .map(|staged| Mutex::new(BatchSlot { input: Some(staged), outcome: None }))
        .collect();
    // Stage 4 of every query a worker claims reuses that worker's scratch:
    // the same dense window union and cached weight table.
    let finish_query = |_: &mut (), scratch: &mut ValidationScratch, i: usize| {
        let (required, candidates) =
            lock(&slots[i]).input.take().expect("each slot is claimed exactly once");
        let query_trace = tind_obs::trace_only_span("core.search.query", options.trace);
        let outcome = finish_search(
            index,
            dataset.attribute(queries[i]),
            Some(queries[i]),
            params,
            &options.search,
            &required,
            candidates,
            scratch,
            options.plans.as_deref(),
            query_trace.child_ctx(),
        );
        drop(query_trace);
        lock(&slots[i]).outcome = Some(outcome);
    };
    let drained = Drain {
        units: queries.len(),
        threads: options.threads,
        budget: options.memory_budget.as_ref(),
        worker_bytes: ValidationScratch::worker_bytes(dataset),
        cancel: options.cancel.as_ref(),
    }
    .run(|| (), finish_query)
    .unwrap_or_else(|panic| resume_unwind(panic));

    let outcomes: Vec<Option<SearchOutcome>> =
        slots.into_iter().map(|s| into_inner(s).outcome).collect();
    // Only a cancel leaves queries unclaimed.
    let cancelled = outcomes.iter().any(Option::is_none);
    BatchOutcome { outcomes, cancelled, threads_used: drained.threads }
}

/// Brute-force reference: validates `q` against every attribute with the
/// per-timestamp oracle. Used to verify the index never loses a result.
pub fn brute_force_search(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
) -> Vec<AttrId> {
    let dataset = index.dataset();
    let timeline = dataset.timeline();
    dataset
        .iter()
        .filter(|(id, _)| Some(*id) != exclude)
        .filter(|(_, a)| naive_validate(q, a, params, timeline))
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use crate::index::IndexConfig;
    use tind_model::{Dataset, DatasetBuilder, Timeline, WeightFn};

    fn pokemonish() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(100));
        // Q: list of games, grows over time.
        b.add_attribute(
            "games",
            &[
                (0, vec!["red", "blue"]),
                (30, vec!["red", "blue", "gold"]),
                (60, vec!["red", "blue", "gold", "ruby"]),
            ],
            99,
        );
        // Superset that follows with delay 5.
        b.add_attribute(
            "all-titles",
            &[
                (0, vec!["red", "blue", "pinball"]),
                (35, vec!["red", "blue", "gold", "pinball"]),
                (65, vec!["red", "blue", "gold", "ruby", "pinball"]),
            ],
            99,
        );
        // Perfect superset, always in sync.
        b.add_attribute(
            "catalog",
            &[
                (0, vec!["red", "blue", "gold", "ruby", "crystal"]),
            ],
            99,
        );
        // Disjoint attribute.
        b.add_attribute("cities", &[(0, vec!["pallet", "viridian"])], 99);
        // Subset of Q (should appear only in reverse search).
        b.add_attribute("early-games", &[(0, vec!["red"])], 99);
        Arc::new(b.build())
    }

    fn index(d: &Arc<Dataset>) -> TindIndex {
        let cfg = IndexConfig { m: 1024, ..IndexConfig::default() };
        crate::index::TindIndex::build(d.clone(), cfg)
    }

    #[test]
    fn strict_search_finds_only_synced_superset() {
        let d = pokemonish();
        let idx = index(&d);
        let out = idx.search(0, &TindParams::strict());
        assert_eq!(out.results, vec![2], "only 'catalog' holds strictly");
        assert_eq!(out.stats.validated, 1);
        assert!(out.stats.after_required <= out.stats.initial);
    }

    #[test]
    fn delta_search_also_finds_delayed_superset() {
        let d = pokemonish();
        let idx = index(&d);
        // Delay is 5 timestamps; δ = 5, ε = 0.
        let p = TindParams::weighted(0.0, 5, WeightFn::constant_one());
        let out = idx.search(0, &p);
        assert_eq!(out.results, vec![1, 2]);
    }

    #[test]
    fn eps_search_absorbs_delay_weight() {
        let d = pokemonish();
        let idx = index(&d);
        // Two delays of 5 timestamps each = 10 violated days; ε = 10, δ = 0.
        let p = TindParams::weighted(10.0, 0, WeightFn::constant_one());
        let out = idx.search(0, &p);
        assert_eq!(out.results, vec![1, 2]);
        let tight = TindParams::weighted(9.0, 0, WeightFn::constant_one());
        assert_eq!(idx.search(0, &tight).results, vec![2]);
    }

    #[test]
    fn search_matches_brute_force_on_all_attributes() {
        let d = pokemonish();
        let idx = index(&d);
        for qid in 0..d.len() as u32 {
            for p in [
                TindParams::strict(),
                TindParams::paper_default(),
                TindParams::weighted(20.0, 3, WeightFn::constant_one()),
                TindParams::weighted(0.05, 2, WeightFn::uniform_normalized(d.timeline())),
            ] {
                let fast = idx.search(qid, &p).results;
                let brute =
                    brute_force_search(&idx, d.attribute(qid), Some(qid), &p);
                assert_eq!(fast, brute, "query {qid} params {p:?}");
            }
        }
    }

    #[test]
    fn query_delta_above_index_max_skips_slices_but_stays_correct() {
        let d = pokemonish();
        let idx = index(&d);
        let p = TindParams::weighted(0.0, 40, WeightFn::constant_one());
        assert!(p.delta > idx.max_delta());
        let out = idx.search(0, &p);
        assert!(!out.stats.slices_used);
        let brute = brute_force_search(&idx, d.attribute(0), Some(0), &p);
        assert_eq!(out.results, brute);
    }

    #[test]
    fn external_history_query() {
        let d = pokemonish();
        let idx = index(&d);
        // Build an external query using the same dictionary ids.
        let red = d.dictionary().get("red").unwrap();
        let blue = d.dictionary().get("blue").unwrap();
        let mut hb = tind_model::HistoryBuilder::new("external");
        hb.push(0, vec![red, blue]);
        let h = hb.finish(99);
        let out = idx.search_history(&h, &TindParams::strict());
        // {red, blue} held throughout: contained in games(0), all-titles(1),
        // catalog(2).
        assert_eq!(out.results, vec![0, 1, 2]);
    }

    #[test]
    fn stats_stages_are_monotone() {
        let d = pokemonish();
        let idx = index(&d);
        let out = idx.search(0, &TindParams::paper_default());
        let s = &out.stats;
        assert!(s.after_required <= s.initial);
        assert!(s.after_slices <= s.after_required);
        assert!(s.after_exact <= s.after_slices);
        assert!(s.validated <= s.after_exact);
        assert_eq!(s.validations_run, s.after_exact);
        assert!(s.early_valid_exits + s.early_invalid_exits <= s.validations_run);
    }

    #[test]
    fn stats_equality_ignores_wall_clock() {
        let mut a = SearchStats { validations_run: 3, validate_nanos: 10, ..Default::default() };
        let b = SearchStats { validations_run: 3, validate_nanos: 99, ..Default::default() };
        assert_eq!(a, b, "timing must not participate in equality");
        a.early_valid_exits = 1;
        assert_ne!(a, b, "early-exit counters do participate");
    }

    #[test]
    fn stage_toggles_never_change_results() {
        let d = pokemonish();
        let idx = index(&d);
        let p = TindParams::paper_default();
        let baseline = idx.search(0, &p).results;
        for (req, slices, exact) in [
            (false, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, false),
        ] {
            let options = SearchOptions {
                use_required_values: req,
                use_time_slices: slices,
                use_exact_filter: exact,
            };
            let out = idx.search_with_options(0, &p, &options);
            assert_eq!(out.results, baseline, "options {options:?} changed results");
            if !req && !slices && !exact {
                assert_eq!(
                    out.stats.validations_run,
                    out.stats.initial,
                    "with all stages off, everything reaches validation"
                );
            }
        }
    }

    #[test]
    fn batch_search_matches_per_query_search() {
        let d = pokemonish();
        let idx = index(&d);
        // Duplicate query ids are allowed: each gets its own slot.
        let queries: Vec<AttrId> = (0..d.len() as u32).chain([0]).collect();
        for p in [TindParams::strict(), TindParams::paper_default()] {
            let batch = idx.search_batch(&queries, &p);
            assert_eq!(batch.len(), queries.len());
            for (&qid, out) in queries.iter().zip(&batch) {
                let single = idx.search(qid, &p);
                assert_eq!(out.results, single.results, "query {qid} params {p:?}");
                assert_eq!(out.stats, single.stats, "query {qid} params {p:?}");
            }
        }
    }

    #[test]
    fn batch_thread_counts_agree() {
        let d = pokemonish();
        let idx = index(&d);
        let queries: Vec<AttrId> = (0..d.len() as u32).collect();
        let p = TindParams::paper_default();
        let base = idx.search_batch(&queries, &p);
        for threads in [1, 2, 7] {
            let opts = BatchOptions { threads, ..BatchOptions::default() };
            let got = idx.search_batch_with(&queries, &p, &opts);
            assert!(!got.cancelled);
            for (a, b) in base.iter().zip(&got.outcomes) {
                let b = b.as_ref().expect("uncancelled batch completes every query");
                assert_eq!(a.results, b.results);
                assert_eq!(a.stats, b.stats);
            }
        }
    }

    #[test]
    fn batch_stage_toggles_never_change_results() {
        let d = pokemonish();
        let idx = index(&d);
        let queries: Vec<AttrId> = (0..d.len() as u32).collect();
        let p = TindParams::paper_default();
        let baseline: Vec<Vec<AttrId>> =
            idx.search_batch(&queries, &p).into_iter().map(|o| o.results).collect();
        let opts = BatchOptions {
            search: SearchOptions {
                use_required_values: false,
                use_time_slices: false,
                use_exact_filter: false,
            },
            ..BatchOptions::default()
        };
        let unpruned = idx.search_batch_with(&queries, &p, &opts);
        for (base, out) in baseline.iter().zip(&unpruned.outcomes) {
            assert_eq!(base, &out.as_ref().unwrap().results);
        }
    }

    /// Minimal [`PlanSource`] for the equivalence test: keyed like the
    /// serve cache — (query, ε bits, δ) — with `w` verified on hit.
    #[derive(Default)]
    struct TestPlans {
        map: std::sync::Mutex<FastMap<(AttrId, u64, u32), crate::validate::PlanArtifacts>>,
        hits: AtomicUsize,
        misses: AtomicUsize,
    }

    impl PlanSource for TestPlans {
        fn get(
            &self,
            query: AttrId,
            params: &TindParams,
            timeline: tind_model::Timeline,
        ) -> Option<crate::validate::PlanArtifacts> {
            let key = (query, params.eps.to_bits(), params.delta);
            match self.map.lock().unwrap().get(&key) {
                Some(a) if a.matches(params, timeline) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(a.clone())
                }
                _ => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        }

        fn put(
            &self,
            query: AttrId,
            params: &TindParams,
            _timeline: tind_model::Timeline,
            artifacts: crate::validate::PlanArtifacts,
        ) {
            let key = (query, params.eps.to_bits(), params.delta);
            self.map.lock().unwrap().insert(key, artifacts);
        }
    }

    #[test]
    fn plan_source_never_changes_results_or_stats() {
        let d = pokemonish();
        let idx = index(&d);
        let queries: Vec<AttrId> = (0..d.len() as u32).collect();
        let plans = Arc::new(TestPlans::default());
        for p in [TindParams::strict(), TindParams::paper_default()] {
            let baseline = idx.search_batch(&queries, &p);
            let opts = BatchOptions {
                plans: Some(plans.clone() as Arc<dyn PlanSource>),
                ..BatchOptions::default()
            };
            // First pass fills the cache, second pass hits it; both must
            // be indistinguishable from the uncached baseline.
            for pass in 0..2 {
                let got = idx.search_batch_with(&queries, &p, &opts);
                assert!(!got.cancelled);
                for (a, b) in baseline.iter().zip(&got.outcomes) {
                    let b = b.as_ref().unwrap();
                    assert_eq!(a.results, b.results, "pass {pass} params {p:?}");
                    assert_eq!(a.stats, b.stats, "pass {pass} params {p:?}");
                }
            }
        }
        assert!(plans.hits.load(Ordering::Relaxed) > 0, "second pass must hit");
        assert!(plans.misses.load(Ordering::Relaxed) > 0, "first pass must miss");
    }

    #[test]
    fn pre_cancelled_batch_returns_no_outcomes() {
        let d = pokemonish();
        let idx = index(&d);
        let token = CancelToken::new();
        token.cancel();
        let opts = BatchOptions { cancel: Some(token), ..BatchOptions::default() };
        let out = idx.search_batch_with(&[0, 1, 2], &TindParams::strict(), &opts);
        assert!(out.cancelled);
        assert!(out.outcomes.iter().all(Option::is_none));
    }

    #[test]
    fn zero_memory_budget_degrades_batch_to_one_worker() {
        let d = pokemonish();
        let idx = index(&d);
        let opts = BatchOptions {
            threads: 8,
            memory_budget: Some(MemoryBudget::new(0)),
            ..BatchOptions::default()
        };
        let out = idx.search_batch_with(&[0, 1], &TindParams::strict(), &opts);
        assert_eq!(out.threads_used, 1, "zero budget sheds every extra worker");
        assert!(!out.cancelled);
        assert!(out.outcomes.iter().all(Option::is_some));
    }

    #[test]
    fn empty_batch_is_fine() {
        let d = pokemonish();
        let idx = index(&d);
        assert!(idx.search_batch(&[], &TindParams::strict()).is_empty());
    }

    #[test]
    fn self_is_excluded() {
        let d = pokemonish();
        let idx = index(&d);
        for qid in 0..d.len() as u32 {
            let out = idx.search(qid, &TindParams::paper_default());
            assert!(!out.results.contains(&qid));
        }
    }
}
