//! Reverse tIND search: find all `A` with `A ⊆_{w,ε,δ} Q` (Section 4.5).
//!
//! The forward machinery is reused with two adjustments:
//!
//! * `M_T` is useless in this direction — `A ⊆ Q` says nothing about
//!   `A[T] ⊆ Q[T]`. Instead the dedicated matrix `M_R` indexes each
//!   attribute's *required values* under the index-time (ε, w); the query's
//!   full universe is then matched in the **subset** direction. Sound only
//!   for query ε' ≤ index ε with the same weight function; otherwise the
//!   stage is skipped (every attribute stays a candidate).
//! * Time slices are queried in the subset direction against the query
//!   window expanded by a *further* δ (`A[I^δ] ⊆ Q[I^{2δ}]`). A detected
//!   violation cannot be attributed to a specific version of `A`, so only
//!   the **minimum** single-version weight within `I^δ` is added — weaker
//!   pruning than forward search, which is why the paper recommends only
//!   `k = 2` slices for reverse queries (Figure 14). Slices are only used
//!   if their δ-expansions were kept disjoint at build time.

use tind_bloom::BitVec;
use tind_model::hash::FastMap;
use tind_model::{AttrId, AttributeHistory};

use crate::index::TindIndex;
use crate::params::{TindParams, EPS_TOLERANCE};
use crate::required::required_values;
use crate::search::{SearchOutcome, SearchStats};
use crate::validate::{naive_validate, with_thread_scratch, QueryPlan, ValidationScratch};

/// Executes reverse tIND search for `q` against the index.
pub(crate) fn run_reverse(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
) -> SearchOutcome {
    with_thread_scratch(|val_scratch| reverse_on(index, q, exclude, params, val_scratch))
}

/// [`run_reverse`] against a caller-owned scratch.
fn reverse_on(
    index: &TindIndex,
    q: &AttributeHistory,
    exclude: Option<AttrId>,
    params: &TindParams,
    val_scratch: &mut ValidationScratch,
) -> SearchOutcome {
    let _query_span = tind_obs::span("core.reverse.query");
    let dataset = index.dataset();
    let timeline = dataset.timeline();
    let num_attrs = dataset.len();
    let mut stats = SearchStats {
        initial: num_attrs - usize::from(exclude.is_some()),
        ..SearchStats::default()
    };

    let mut candidates = BitVec::ones(num_attrs);
    if let Some(x) = exclude {
        candidates.clear(x as usize);
    }
    // Attributes masked by a quarantined store shard have all-zero M_R
    // columns and empty universes; like forward search, they must leave
    // the candidate set before stage 1 can misread zero as "empty set".
    if let Some(mask) = index.shard_mask() {
        candidates.andnot_assign_words(mask.bits().words());
    }

    let q_universe = q.value_universe();

    // One prefix-sum table serves both the stage-2 minimum-weight bounds
    // and every stage-4 plan — O(1) interval weights regardless of the
    // weight function.
    let table = val_scratch.weight_table(&params.weights, timeline);

    // Stage 1: required values of the candidates vs the query universe, in
    // the subset direction via M_R.
    let m_r_usable = index.m_r().is_some()
        && params.eps <= index.sizing_eps() + EPS_TOLERANCE
        && params.weights == index.config().slices.sizing_weights;
    if m_r_usable {
        let _stage1 = tind_obs::span("core.reverse.stage1");
        let m_r = index.m_r().expect("checked above");
        let qf = m_r.query_filter(&q_universe);
        m_r.narrow_to_subsets(&qf, &mut candidates);
    }
    stats.after_required = candidates.count_ones();

    // Stage 2: subset-direction time-slice checks with minimum-weight
    // violation lower bounds.
    stats.slices_used =
        params.slices_usable(index.max_delta()) && index.config().slices.expanded_disjoint;
    if stats.slices_used && !candidates.is_zero() {
        let _stage2 = tind_obs::span("core.reverse.stage2");
        // Probe mode mirrors forward search: once few candidates remain,
        // test their columns individually (O(m) each) instead of AND-NOTing
        // every zero row of the query filter across all of |D|.
        let probe_threshold = (num_attrs / 8).max(8);
        let mut violations: FastMap<u32, f64> = FastMap::default();
        let mut scratch = BitVec::zeros(num_attrs);
        for slice in index.time_slices() {
            // The query side is expanded by the query δ beyond the indexed
            // window: A[I^δ] ⊆ Q[I^{δ+δ'}] must hold for a valid tIND.
            let qwin = slice.expanded.expand(params.delta, timeline);
            let qvals = q.values_in(qwin);
            let qf = slice.matrix.query_filter(&qvals);
            let alive = candidates.count_ones();
            if alive <= probe_threshold {
                scratch.clear_all();
                for c in candidates.iter_ones() {
                    if slice.matrix.column_within_filter(c, &qf) {
                        scratch.set(c);
                    }
                }
            } else {
                scratch.copy_from(&candidates);
                slice.matrix.narrow_to_subsets(&qf, &mut scratch);
            }
            let mut pruned_any = false;
            for c in candidates.iter_ones() {
                if scratch.get(c) {
                    continue;
                }
                let a = dataset.attribute(c as u32);
                // Minimum weight over the single-version subintervals of
                // the indexed window: the only violation weight we can
                // guarantee without knowing which version violated.
                let mut min_w = f64::INFINITY;
                for vi in a.version_range_in(slice.expanded) {
                    if let Some(validity) = a.version_validity(vi).intersect(&slice.expanded) {
                        min_w = min_w.min(table.interval_weight(validity));
                    }
                }
                if !min_w.is_finite() {
                    // A is unobservable in the window; its empty set cannot
                    // have violated — Bloom artifact, ignore.
                    continue;
                }
                let v = violations.entry(c as u32).or_insert(0.0);
                *v += min_w;
                if params.exceeds_budget(*v) {
                    pruned_any = true;
                }
            }
            if pruned_any {
                for (&c, &v) in &violations {
                    if params.exceeds_budget(v) {
                        candidates.clear(c as usize);
                    }
                }
                if candidates.is_zero() {
                    break;
                }
            }
        }
    }
    stats.after_slices = candidates.count_ones();

    // Stage 3: exact check — the candidate's required values (under the
    // query parameters) must appear somewhere in Q's history.
    {
        let _stage3 = tind_obs::span("core.reverse.stage3");
        let survivors: Vec<usize> = candidates.iter_ones().collect();
        for c in survivors {
            let req = required_values(dataset.attribute(c as u32), params, timeline);
            if !tind_model::value::is_subset(&req, &q_universe) {
                candidates.clear(c);
            }
        }
    }
    stats.after_exact = candidates.count_ones();

    // Stage 4: full validation, with the candidate on the left-hand side.
    // The plan side changes per pair (the candidate is the LHS), so a plan
    // is built per candidate — but the scratch and the weight table are
    // shared across all of them.
    let stage4 = tind_obs::span("core.reverse.stage4");
    let started = std::time::Instant::now();
    let before = val_scratch.counters();
    let mut results = Vec::new();
    for c in candidates.iter_ones() {
        stats.validations_run += 1;
        let a = dataset.attribute(c as u32);
        let plan = QueryPlan::with_table(a, params, timeline, table.clone());
        if plan.validate(q, val_scratch) {
            results.push(c as u32);
        }
    }
    let exits = val_scratch.counters().since(&before);
    stats.early_valid_exits = exits.proved_valid_early as usize;
    stats.early_invalid_exits = exits.proved_invalid_early as usize;
    stats.validate_nanos = started.elapsed().as_nanos() as u64;
    stats.validated = results.len();
    drop(stage4);
    crate::search::record_search_metrics(&stats);
    SearchOutcome { results, stats }
}

/// Brute-force reference for reverse search, over the per-timestamp oracle.
pub fn brute_force_reverse(
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
        .filter(|(_, a)| naive_validate(a, q, params, timeline))
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexConfig, TindIndex};
    use std::sync::Arc;
    use tind_model::{Dataset, DatasetBuilder, Timeline, WeightFn};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(80));
        b.add_attribute(
            "catalog",
            &[(0, vec!["red", "blue", "gold", "ruby", "crystal"])],
            79,
        );
        b.add_attribute("games", &[(0, vec!["red", "blue"]), (40, vec!["red", "blue", "gold"])], 79);
        b.add_attribute("one", &[(0, vec!["ruby"])], 79);
        b.add_attribute("alien", &[(0, vec!["mario"])], 79);
        // Briefly dirty subset: contains a foreign value for 2 timestamps.
        b.add_attribute(
            "dirty",
            &[(0, vec!["red"]), (10, vec!["red", "mario"]), (12, vec!["red"])],
            79,
        );
        Arc::new(b.build())
    }

    fn index(d: &Arc<Dataset>) -> TindIndex {
        TindIndex::build(d.clone(), IndexConfig::reverse_default())
    }

    #[test]
    fn strict_reverse_finds_clean_subsets() {
        let d = dataset();
        let idx = index(&d);
        let out = idx.reverse_search(0, &TindParams::strict());
        assert_eq!(out.results, vec![1, 2], "games and one are strict subsets of catalog");
    }

    #[test]
    fn eps_reverse_admits_briefly_dirty_subsets() {
        let d = dataset();
        let idx = index(&d);
        // "dirty" carries 'mario' for 2 timestamps; ε = 2 absorbs it.
        let p = TindParams::weighted(2.0, 0, WeightFn::constant_one());
        let out = idx.reverse_search(0, &p);
        assert_eq!(out.results, vec![1, 2, 4]);
    }

    #[test]
    fn reverse_matches_brute_force() {
        let d = dataset();
        let idx = index(&d);
        for qid in 0..d.len() as u32 {
            for p in [
                TindParams::strict(),
                TindParams::paper_default(),
                TindParams::weighted(2.0, 1, WeightFn::constant_one()),
            ] {
                let fast = idx.reverse_search(qid, &p).results;
                let brute = brute_force_reverse(&idx, d.attribute(qid), Some(qid), &p);
                assert_eq!(fast, brute, "reverse query {qid} params {p:?}");
            }
        }
    }

    #[test]
    fn unusable_m_r_falls_back_without_losing_results() {
        let d = dataset();
        let idx = index(&d);
        // ε above the index's sizing ε: M_R stage must be skipped.
        let p = TindParams::weighted(50.0, 0, WeightFn::constant_one());
        assert!(p.eps > idx.sizing_eps());
        let out = idx.reverse_search(0, &p);
        assert_eq!(out.stats.after_required, out.stats.initial, "no M_R pruning");
        let brute = brute_force_reverse(&idx, d.attribute(0), Some(0), &p);
        assert_eq!(out.results, brute);
    }

    #[test]
    fn forward_index_without_m_r_still_answers_reverse() {
        let d = dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        assert!(idx.m_r().is_none());
        let p = TindParams::paper_default();
        let out = idx.reverse_search(0, &p);
        let brute = brute_force_reverse(&idx, d.attribute(0), Some(0), &p);
        assert_eq!(out.results, brute);
    }

    #[test]
    fn reverse_stats_monotone() {
        let d = dataset();
        let idx = index(&d);
        let s = idx.reverse_search(0, &TindParams::paper_default()).stats;
        assert!(s.after_required <= s.initial);
        assert!(s.after_slices <= s.after_required);
        assert!(s.after_exact <= s.after_slices);
        assert!(s.validated <= s.after_exact);
    }
}
