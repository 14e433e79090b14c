//! Differential suite for the plan-based validation kernel: on random and
//! generated histories, `QueryPlan` + `ValidationScratch` — and the one-off
//! `validate` / `violation_weight` entry points built on them — must
//! produce the same weights and verdicts as the per-timestamp oracle
//! (`naive_violation_weight`) across {δ, ε, weight-fn} grids, including
//! when the two-sided early exit fires.
//!
//! The two property loops at the bottom additionally fuzz raw version
//! structures (96 seeded cases each).

mod common;

use std::sync::Arc;

use common::strategies::{dataset_of, history, weight_grid};
use tind::core::validate::{
    naive_validate, naive_violation_weight, validate, violation_weight, QueryPlan,
    ValidationScratch,
};
use tind::core::TindParams;
use tind::datagen::{generate, GeneratorConfig};
use tind::model::rng::cases;
use tind::model::{Timeline, WeightFn};

/// Asserts the kernel agrees with the oracle on one pair under one
/// parameter setting: exact violation weight (no early exit) and verdict
/// (early exits enabled), through an explicit plan and the one-off entry
/// points alike.
fn assert_kernel_matches(
    q: &tind::model::AttributeHistory,
    a: &tind::model::AttributeHistory,
    params: &TindParams,
    tl: Timeline,
    scratch: &mut ValidationScratch,
) {
    let plan = QueryPlan::new(q, params, tl);
    let exact = plan.violation_weight(a, scratch);
    let naive = naive_violation_weight(q, a, params, tl);
    assert_eq!(
        exact.to_bits(),
        violation_weight(q, a, params, tl).to_bits(),
        "{}⊆{} {params:?}: one-off entry point",
        q.name(),
        a.name()
    );
    assert!(
        (exact - naive).abs() < 1e-9,
        "{}⊆{} {params:?}: plan {exact} vs naive {naive}",
        q.name(),
        a.name()
    );
    let verdict = plan.validate(a, scratch);
    assert_eq!(verdict, validate(q, a, params, tl), "{}⊆{} {params:?}", q.name(), a.name());
    assert_eq!(verdict, naive_validate(q, a, params, tl), "{}⊆{} {params:?}", q.name(), a.name());
}

#[test]
fn kernel_matches_references_on_generated_data() {
    let dataset = Arc::new(generate(&GeneratorConfig::small(40, 11)).dataset);
    let tl = dataset.timeline();
    let mut scratch = ValidationScratch::new();
    for qid in (0..dataset.len() as u32).step_by(5) {
        let q = dataset.attribute(qid);
        for aid in (1..dataset.len() as u32).step_by(7) {
            let a = dataset.attribute(aid);
            for delta in [0u32, 3, 14] {
                for eps in [0.0, 3.0, 30.0] {
                    for w in weight_grid(tl) {
                        // Scale ε for normalized weight families so both
                        // verdict outcomes stay reachable.
                        let eps = if matches!(w, WeightFn::Constant { .. }) {
                            eps
                        } else {
                            eps / tl.len() as f64
                        };
                        let params = TindParams::weighted(eps, delta, w);
                        assert_kernel_matches(q, a, &params, tl, &mut scratch);
                    }
                }
            }
        }
    }
    assert!(scratch.counters().validations > 0);
    assert_eq!(scratch.counters().invariant_breaches, 0);
}

#[test]
fn prove_valid_early_exit_verdicts_equal_exhaustive_evaluation() {
    let dataset = Arc::new(generate(&GeneratorConfig::small(30, 23)).dataset);
    let tl = dataset.timeline();
    let mut scratch = ValidationScratch::new();
    // Budgets near the full timeline weight make the prove-valid exit hot;
    // the verdict must still match the exhaustive reference exactly.
    let before = scratch.counters();
    for qid in (0..dataset.len() as u32).step_by(3) {
        let q = dataset.attribute(qid);
        for eps in [50.0, 200.0, 2000.0] {
            let params = TindParams::weighted(eps, 7, WeightFn::constant_one());
            let plan = QueryPlan::new(q, &params, tl);
            for aid in (0..dataset.len() as u32).step_by(4) {
                let a = dataset.attribute(aid);
                assert_eq!(
                    plan.validate(a, &mut scratch),
                    naive_validate(q, a, &params, tl),
                    "query {qid} candidate {aid} ε={eps}"
                );
            }
        }
    }
    let exits = scratch.counters().since(&before);
    assert!(
        exits.proved_valid_early > 0,
        "generous budgets never triggered the prove-valid exit ({exits:?})"
    );
}

#[test]
fn scratch_reuse_over_many_pairs_is_deterministic() {
    let dataset = Arc::new(generate(&GeneratorConfig::small(25, 7)).dataset);
    let tl = dataset.timeline();
    let params = TindParams::paper_default();
    let run = || {
        let mut scratch = ValidationScratch::new();
        let mut verdicts = Vec::new();
        for qid in 0..dataset.len() as u32 {
            let plan = QueryPlan::new(dataset.attribute(qid), &params, tl);
            for aid in 0..dataset.len() as u32 {
                verdicts.push(plan.validate(dataset.attribute(aid), &mut scratch));
            }
        }
        (verdicts, scratch.counters())
    };
    let (v1, c1) = run();
    let (v2, c2) = run();
    assert_eq!(v1, v2);
    assert_eq!(c1, c2, "counters are deterministic for a fixed workload");
}

#[test]
fn handcrafted_edge_histories_agree_across_all_tiers() {
    // Late appearance, early disappearance, empty versions, value churn —
    // the structural edges the three-stream merge must get right.
    let d = dataset_of(vec![
        vec![(0, vec![0, 1])],
        vec![(5, vec![0]), (20, vec![]), (40, vec![0, 1, 2])],
        vec![(0, vec![3]), (30, vec![0, 1, 3])],
        vec![(59, vec![0, 1])],
        vec![(10, vec![2]), (11, vec![0, 2]), (12, vec![1, 2])],
    ]);
    let tl = d.timeline();
    let mut scratch = ValidationScratch::new();
    for qid in 0..d.len() as u32 {
        for aid in 0..d.len() as u32 {
            for delta in [0u32, 1, 5, 30, 200] {
                for eps in [0.0, 2.0, 25.0] {
                    for w in weight_grid(tl) {
                        let params = TindParams::weighted(eps, delta, w);
                        assert_kernel_matches(
                            d.attribute(qid),
                            d.attribute(aid),
                            &params,
                            tl,
                            &mut scratch,
                        );
                    }
                }
            }
        }
    }
}

/// The kernel must agree with both references on arbitrary version
/// structures × {δ, ε, weight-fn}, exact weights and verdicts alike.
#[test]
fn kernel_equals_references_on_random_histories() {
    cases("kernel_equals_references_on_random_histories", 96, |rng| {
        let d = dataset_of(vec![history(rng), history(rng)]);
        let delta = rng.range(0..20u32);
        let eps = 10.0 * rng.f64();
        let tl = d.timeline();
        let weights = weight_grid(tl).swap_remove(rng.range(0..5usize));
        let params = TindParams::weighted(eps, delta, weights);
        let mut scratch = ValidationScratch::new();
        let plan = QueryPlan::new(d.attribute(0), &params, tl);

        let exact = plan.violation_weight(d.attribute(1), &mut scratch);
        let naive = naive_violation_weight(d.attribute(0), d.attribute(1), &params, tl);
        assert!((exact - naive).abs() < 1e-9, "plan {exact} vs naive {naive}");

        // Verdict with early exits enabled equals the exhaustive verdict.
        assert_eq!(plan.validate(d.attribute(1), &mut scratch), params.within_budget(naive));
        assert_eq!(scratch.counters().invariant_breaches, 0);
    });
}

/// Reflexivity survives the kernel under every weight family.
#[test]
fn kernel_reflexivity() {
    cases("kernel_reflexivity", 96, |rng| {
        let d = dataset_of(vec![history(rng)]);
        let delta = rng.range(0..10u32);
        let eps = 5.0 * rng.f64();
        let tl = d.timeline();
        let weights = weight_grid(tl).swap_remove(rng.range(0..5usize));
        let params = TindParams::weighted(eps, delta, weights);
        let plan = QueryPlan::new(d.attribute(0), &params, tl);
        let mut scratch = ValidationScratch::new();
        assert!(plan.validate(d.attribute(0), &mut scratch));
    });
}
