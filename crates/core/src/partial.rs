//! Partial temporal INDs — the paper's first-listed future-work extension
//! (Section 6: "combine the existing wεδ-tINDs with already known
//! IND-relaxations, such as partial \[25\] ... INDs").
//!
//! A σ-partial wεδ-tIND relaxes δ-containment itself: at each timestamp it
//! suffices that a *fraction* σ of the left-hand side's values is found in
//! the δ-window (Zhu et al.'s set-containment degree, applied per
//! timestamp):
//!
//! ```text
//! Q[t] ⊆^δ_σ A  ⟺  |Q[t] ∩ A[[t-δ, t+δ]]| ≥ σ · |Q[t]|
//! ```
//!
//! σ = 1 recovers exact wεδ-tINDs. This addresses the differing-entity-name
//! problem of §3.3 (e.g. `USA` vs `United States` in one of many rows)
//! that neither ε nor δ can absorb.
//!
//! Index integration: the Bloom stages of Algorithm 1 are only sound for
//! σ = 1 (a single missing required value no longer disqualifies a
//! candidate). [`partial_search`] therefore uses a *weakened* required-
//! values test — a candidate is pruned only if **all** required values are
//! absent from its full history — and otherwise validates directly.

use tind_bloom::BitVec;
use tind_model::{AttrId, AttributeHistory, Timeline, ValueId};

use crate::index::TindIndex;
use crate::params::{TindParams, EPS_TOLERANCE};
use crate::search::{SearchOutcome, SearchStats};
use crate::validate::{with_thread_scratch, IntervalTest, ValidationScratch};

/// Parameters of a σ-partial wεδ-tIND.
///
/// # Examples
///
/// ```
/// use tind_core::partial::{partial_validate, PartialParams};
/// use tind_core::TindParams;
/// use tind_model::{DatasetBuilder, Timeline};
///
/// let tl = Timeline::new(10);
/// let mut b = DatasetBuilder::new(tl);
/// // One divergent entity name ("USA" vs "United States").
/// b.add_attribute("q", &[(0, vec!["United States", "France", "Japan", "Peru"])], 9);
/// b.add_attribute("a", &[(0, vec!["USA", "France", "Japan", "Peru"])], 9);
/// let d = b.build();
///
/// let strict = PartialParams::new(TindParams::strict(), 1.0);
/// assert!(!partial_validate(d.attribute(0), d.attribute(1), &strict, tl));
/// // σ = 0.75: three of four values suffice.
/// let fuzzy = PartialParams::new(TindParams::strict(), 0.75);
/// assert!(partial_validate(d.attribute(0), d.attribute(1), &fuzzy, tl));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PartialParams {
    /// The underlying (ε, δ, w) triple.
    pub base: TindParams,
    /// Minimum contained fraction of the left-hand side per timestamp,
    /// `0 < σ ≤ 1`.
    pub sigma: f64,
}

impl PartialParams {
    /// Creates σ-partial parameters.
    ///
    /// # Panics
    /// Panics unless `0 < σ ≤ 1`.
    pub fn new(base: TindParams, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma <= 1.0, "σ must be in (0, 1], got {sigma}");
        PartialParams { base, sigma }
    }

    /// Number of values of a `len`-sized set that must be found: ⌈σ·len⌉,
    /// where a product that is an integer up to rounding (0.56 · 25 comes
    /// out as 14.000000000000002) is not rounded up past it.
    #[inline]
    pub fn required_hits(&self, len: usize) -> usize {
        (self.sigma * len as f64 - EPS_TOLERANCE).ceil() as usize
    }
}

/// Whether `Q[t]` is σ-partially δ-contained in `A` at `t`.
pub fn partial_contained_at(
    q: &AttributeHistory,
    a: &AttributeHistory,
    t: u32,
    params: &PartialParams,
    timeline: Timeline,
) -> bool {
    let qv = q.values_at(t);
    if qv.is_empty() {
        return true;
    }
    let window = timeline.delta_window(t, params.base.delta);
    let av = a.values_in(window);
    let hits = qv.iter().filter(|v| av.binary_search(v).is_ok()).count();
    hits >= params.required_hits(qv.len())
}

/// The interval test of σ-partial containment: at least
/// [`PartialParams::required_hits`] of `Q`'s values are in the window.
struct SigmaHits<'p>(&'p PartialParams);

impl IntervalTest for SigmaHits<'_> {
    #[inline]
    fn violated(&mut self, qv: &[ValueId], window: &ValidationScratch) -> bool {
        let hits = qv.iter().filter(|&&v| window.in_union(v)).count();
        hits < self.0.required_hits(qv.len())
    }
}

/// Exact violation weight of the σ-partial candidate, via Algorithm 2's
/// walk with the σ-partial test (σ-containment is constant on the same
/// intervals as exact containment, since both `Q`'s version and `A`'s
/// window union are). If `early_exit` is true, returns as soon as the
/// verdict is decided (the returned value is then only a lower bound).
pub fn partial_violation_weight(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &PartialParams,
    timeline: Timeline,
    early_exit: bool,
) -> f64 {
    with_thread_scratch(|scratch| {
        let plan = scratch.plan(q, &params.base, timeline);
        plan.run(a, scratch, early_exit, &mut SigmaHits(params)).1
    })
}

/// Whether the σ-partial wεδ-tIND `Q ⊆ A` holds.
pub fn partial_validate(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &PartialParams,
    timeline: Timeline,
) -> bool {
    params.base.within_budget(partial_violation_weight(q, a, params, timeline, true))
}

/// σ-partial tIND search over an index.
///
/// For σ = 1 this delegates to the exact Algorithm-1 pipeline. For σ < 1
/// the Bloom stages are unsound (a single missing required value no longer
/// disqualifies a candidate), so every non-reflexive candidate is
/// validated directly with [`partial_validate`] — which the paper's §6
/// anticipates: partial relaxations "will likely require different
/// methods". Early-exit validation keeps this a full scan of cheap checks
/// rather than a full scan of expensive ones.
pub fn partial_search(index: &TindIndex, query: AttrId, params: &PartialParams) -> SearchOutcome {
    if (params.sigma - 1.0).abs() < f64::EPSILON {
        return index.search(query, &params.base);
    }
    let dataset = index.dataset();
    let timeline = dataset.timeline();
    let q = dataset.attribute(query);
    let num_attrs = dataset.len();
    let mut stats = SearchStats { initial: num_attrs - 1, ..SearchStats::default() };
    stats.after_required = stats.initial;
    stats.after_slices = stats.initial;
    stats.after_exact = stats.initial;

    let mut candidates = BitVec::ones(num_attrs);
    candidates.clear(query as usize);

    let mut results = Vec::new();
    with_thread_scratch(|scratch| {
        let plan = scratch.plan(q, &params.base, timeline);
        for c in candidates.iter_ones() {
            stats.validations_run += 1;
            if plan.run(dataset.attribute(c as u32), scratch, true, &mut SigmaHits(params)).0 {
                results.push(c as u32);
            }
        }
    });
    stats.validated = results.len();
    SearchOutcome { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use std::sync::Arc;
    use tind_model::{DatasetBuilder, WeightFn};

    fn dataset() -> Arc<tind_model::Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(40));
        // Q uses "United States"; A uses "USA" — one divergent entity name
        // out of five (the §3.3 issue partial containment addresses).
        b.add_attribute(
            "q",
            &[(0, vec!["United States", "France", "Japan", "Brazil", "Kenya"])],
            39,
        );
        b.add_attribute(
            "a",
            &[(0, vec!["USA", "France", "Japan", "Brazil", "Kenya", "Chile"])],
            39,
        );
        b.add_attribute("unrelated", &[(0, vec!["red", "blue", "green"])], 39);
        Arc::new(b.build())
    }

    #[test]
    fn sigma_one_matches_exact_semantics() {
        let d = dataset();
        let tl = d.timeline();
        let exact = PartialParams::new(TindParams::strict(), 1.0);
        assert!(!partial_validate(d.attribute(0), d.attribute(1), &exact, tl));
        assert!(partial_validate(d.attribute(0), d.attribute(0), &exact, tl));
    }

    #[test]
    fn sigma_absorbs_entity_name_divergence() {
        let d = dataset();
        let tl = d.timeline();
        // 4 of 5 values match → σ = 0.8 suffices, σ = 0.9 does not.
        let loose = PartialParams::new(TindParams::strict(), 0.8);
        assert!(partial_validate(d.attribute(0), d.attribute(1), &loose, tl));
        let tight = PartialParams::new(TindParams::strict(), 0.9);
        assert!(!partial_validate(d.attribute(0), d.attribute(1), &tight, tl));
    }

    #[test]
    fn partial_weight_matches_naive_scan() {
        let d = dataset();
        let tl = d.timeline();
        let p = PartialParams::new(TindParams::weighted(0.0, 2, WeightFn::constant_one()), 0.7);
        let fast = partial_violation_weight(d.attribute(0), d.attribute(1), &p, tl, false);
        let naive: f64 = tl
            .iter()
            .filter(|&t| !partial_contained_at(d.attribute(0), d.attribute(1), t, &p, tl))
            .map(|t| p.base.weights.weight(t))
            .sum();
        assert!((fast - naive).abs() < 1e-9, "{fast} vs {naive}");
    }

    #[test]
    fn partial_search_finds_fuzzy_superset() {
        let d = dataset();
        let index = TindIndex::build(d.clone(), IndexConfig { m: 256, ..IndexConfig::default() });
        let p = PartialParams::new(TindParams::strict(), 0.8);
        let out = partial_search(&index, 0, &p);
        assert_eq!(out.results, vec![1]);
        // σ = 1 path delegates to exact search: no results here.
        let exact = PartialParams::new(TindParams::strict(), 1.0);
        assert!(partial_search(&index, 0, &exact).results.is_empty());
    }

    #[test]
    fn partial_search_is_a_superset_of_exact_search() {
        let d = dataset();
        let index = TindIndex::build(d.clone(), IndexConfig { m: 256, ..IndexConfig::default() });
        let base = TindParams::paper_default();
        let exact = index.search(0, &base).results;
        for sigma in [0.9, 0.7, 0.5] {
            let partial = partial_search(&index, 0, &PartialParams::new(base.clone(), sigma));
            for id in &exact {
                assert!(partial.results.contains(id), "σ={sigma} lost exact result {id}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "σ must be in (0, 1]")]
    fn rejects_invalid_sigma() {
        PartialParams::new(TindParams::strict(), 0.0);
    }

    #[test]
    fn required_hits_rounding() {
        let p = PartialParams::new(TindParams::strict(), 0.75);
        assert_eq!(p.required_hits(4), 3);
        assert_eq!(p.required_hits(5), 4); // ceil(3.75)
        assert_eq!(p.required_hits(0), 0);
        let exact = PartialParams::new(TindParams::strict(), 1.0);
        assert_eq!(exact.required_hits(7), 7);
        // σ·len that is an integer but rounds up in floating point.
        for (sigma, len, hits) in [(0.56, 25, 14), (0.55, 100, 55), (0.28, 25, 7), (0.14, 50, 7)] {
            let p = PartialParams::new(TindParams::strict(), sigma);
            assert_eq!(p.required_hits(len), hits, "σ = {sigma}, |Q[t]| = {len}");
        }
    }

    #[test]
    fn integral_sigma_share_is_contained() {
        // 14 of 25 values in A, σ = 0.56: exactly the required share.
        let names: Vec<String> = (0..25).map(|i| format!("v{i}")).collect();
        let q: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = DatasetBuilder::new(Timeline::new(10));
        b.add_attribute("q", &[(0, q.clone())], 9);
        b.add_attribute("a", &[(0, q[..14].to_vec())], 9);
        let d = b.build();
        let tl = d.timeline();
        let p = PartialParams::new(TindParams::strict(), 0.56);
        assert!(partial_contained_at(d.attribute(0), d.attribute(1), 0, &p, tl));
        assert!(partial_validate(d.attribute(0), d.attribute(1), &p, tl));
    }
}
