//! Top-k tIND search.
//!
//! Related work on set containment frames discovery as a *top-k* problem
//! (Zhu et al.'s domain search and its successors [23, 24]): instead of a
//! hard ε threshold, return the k right-hand sides with the **smallest
//! violation weight** for a query. This composes naturally with the tIND
//! index through iterative deepening:
//!
//! 1. run an ordinary ε-bounded search at a small ε;
//! 2. if at least k results validate, the global top-k is among them
//!    (anything not returned violates by *more* than ε, hence more than
//!    every returned result) — rank by exact violation weight and done;
//! 3. otherwise double ε and repeat, up to the total timeline weight
//!    (at which point every attribute qualifies and ranking is global).

use tind_model::{AttrId, WeightFn};

use crate::index::TindIndex;
use crate::params::TindParams;
use crate::validate::{naive_violation_weight, with_thread_scratch};

/// One ranked result: the right-hand side and its exact violation weight.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedInd {
    /// The right-hand side attribute.
    pub rhs: AttrId,
    /// Exact violation weight of `query ⊆_{w,·,δ} rhs`.
    pub violation: f64,
}

/// Finds the `k` attributes with the smallest violation weight for the
/// query under (δ, w). Results are sorted by ascending violation, ties by
/// id. Fewer than `k` results are returned only when the dataset holds
/// fewer than `k` other attributes.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tind_core::topk::top_k_search;
/// use tind_core::{IndexConfig, TindIndex};
/// use tind_model::{DatasetBuilder, Timeline, WeightFn};
///
/// let mut b = DatasetBuilder::new(Timeline::new(10));
/// b.add_attribute("q", &[(0, vec!["a"])], 9);
/// b.add_attribute("perfect", &[(0, vec!["a", "b"])], 9);
/// b.add_attribute("late", &[(0, vec!["z"]), (4, vec!["a"])], 9);
/// let index = TindIndex::build(Arc::new(b.build()), IndexConfig::default());
///
/// let top = top_k_search(&index, 0, 2, 0, &WeightFn::constant_one());
/// assert_eq!(top[0].rhs, 1); // zero violation
/// assert_eq!(top[1].rhs, 2); // 4 violated days
/// assert!((top[1].violation - 4.0).abs() < 1e-9);
/// ```
pub fn top_k_search(
    index: &TindIndex,
    query: AttrId,
    k: usize,
    delta: u32,
    weights: &WeightFn,
) -> Vec<RankedInd> {
    let dataset = index.dataset();
    let timeline = dataset.timeline();
    if k == 0 || dataset.len() <= 1 {
        return Vec::new();
    }
    let total_weight = weights.total(timeline);

    let mut eps = 1.0f64.min(total_weight);
    loop {
        let params = TindParams::weighted(eps, delta, weights.clone());
        let outcome = index.search(query, &params);
        if outcome.results.len() >= k || eps >= total_weight {
            let mut ranked: Vec<RankedInd> = with_thread_scratch(|scratch| {
                let plan = scratch.plan(dataset.attribute(query), &params, timeline);
                outcome
                    .results
                    .into_iter()
                    .map(|rhs| RankedInd {
                        rhs,
                        violation: plan.violation_weight(dataset.attribute(rhs), scratch),
                    })
                    .collect()
            });
            ranked.sort_by(|a, b| {
                a.violation
                    .partial_cmp(&b.violation)
                    .expect("violations are finite")
                    .then(a.rhs.cmp(&b.rhs))
            });
            ranked.truncate(k);
            return ranked;
        }
        eps = (eps * 4.0).min(total_weight);
    }
}

/// Brute-force reference for [`top_k_search`], over the per-timestamp
/// oracle.
pub fn brute_force_top_k(
    index: &TindIndex,
    query: AttrId,
    k: usize,
    delta: u32,
    weights: &WeightFn,
) -> Vec<RankedInd> {
    let dataset = index.dataset();
    let timeline = dataset.timeline();
    let params = TindParams::weighted(f64::MAX / 4.0, delta, weights.clone());
    let mut all: Vec<RankedInd> = dataset
        .iter()
        .filter(|(id, _)| *id != query)
        .map(|(rhs, a)| RankedInd {
            rhs,
            violation: naive_violation_weight(dataset.attribute(query), a, &params, timeline),
        })
        .collect();
    all.sort_by(|a, b| {
        a.violation
            .partial_cmp(&b.violation)
            .expect("violations are finite")
            .then(a.rhs.cmp(&b.rhs))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use std::sync::Arc;
    use tind_model::{Dataset, DatasetBuilder, Timeline};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(50));
        b.add_attribute("q", &[(0, vec!["a", "b"])], 49);
        // perfect: violation 0.
        b.add_attribute("perfect", &[(0, vec!["a", "b", "c"])], 49);
        // late: misses "b" for the first 10 days → violation 10.
        b.add_attribute("late", &[(0, vec!["a"]), (10, vec!["a", "b"])], 49);
        // later: misses "b" for 25 days → violation 25.
        b.add_attribute("later", &[(0, vec!["a"]), (25, vec!["a", "b"])], 49);
        // never: violation 50.
        b.add_attribute("never", &[(0, vec!["x"])], 49);
        Arc::new(b.build())
    }

    fn index() -> TindIndex {
        TindIndex::build(dataset(), IndexConfig { m: 256, ..IndexConfig::default() })
    }

    #[test]
    fn ranks_by_violation() {
        let idx = index();
        let w = WeightFn::constant_one();
        let top = top_k_search(&idx, 0, 3, 0, &w);
        let names: Vec<&str> =
            top.iter().map(|r| idx.dataset().attribute(r.rhs).name()).collect();
        assert_eq!(names, vec!["perfect", "late", "later"]);
        assert!((top[0].violation - 0.0).abs() < 1e-9);
        assert!((top[1].violation - 10.0).abs() < 1e-9);
        assert!((top[2].violation - 25.0).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_for_all_k() {
        let idx = index();
        let w = WeightFn::constant_one();
        for k in 0..=5 {
            for delta in [0u32, 3, 8] {
                let fast = top_k_search(&idx, 0, k, delta, &w);
                let brute = brute_force_top_k(&idx, 0, k, delta, &w);
                assert_eq!(fast, brute, "k={k} δ={delta}");
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let idx = index();
        let top = top_k_search(&idx, 0, 100, 0, &WeightFn::constant_one());
        assert_eq!(top.len(), 4, "all non-reflexive attributes ranked");
        assert!(top.windows(2).all(|w| w[0].violation <= w[1].violation));
    }

    #[test]
    fn delta_reshuffles_the_ranking() {
        let idx = index();
        let w = WeightFn::constant_one();
        // δ = 10 heals "late" completely (window reaches the day-10 fix),
        // making it tie with "perfect" at violation 0.
        let top = top_k_search(&idx, 0, 2, 10, &w);
        assert!((top[0].violation - 0.0).abs() < 1e-9);
        assert!((top[1].violation - 0.0).abs() < 1e-9);
    }

    #[test]
    fn decay_weights_are_supported() {
        let idx = index();
        let tl = idx.dataset().timeline();
        let w = WeightFn::exponential(0.9, tl);
        let fast = top_k_search(&idx, 0, 3, 0, &w);
        let brute = brute_force_top_k(&idx, 0, 3, 0, &w);
        assert_eq!(fast, brute);
        // Under decay, the early-day violations shrink dramatically:
        // "later" weighs 25 under constant weights but < 1 under a=0.9.
        assert!(fast[2].violation < 1.0, "old violations should decay: {fast:?}");
    }
}
