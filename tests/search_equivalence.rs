//! Cross-crate integration tests: the index-based search must be exactly
//! equivalent to brute-force validation over realistic generated datasets,
//! for both directions and across parameter settings.

use std::sync::Arc;

use tind::core::index::DEFAULT_M;
use tind::core::search::brute_force_search;
use tind::core::{discover_all_pairs, AllPairsOptions};
use tind::core::{reverse::brute_force_reverse, IndexConfig, SliceConfig, TindIndex, TindParams};
use tind::datagen::{generate, GeneratorConfig};
use tind::model::WeightFn;

fn generated(seed: u64, n: usize) -> Arc<tind::model::Dataset> {
    Arc::new(generate(&GeneratorConfig::small(n, seed)).dataset)
}

#[test]
fn forward_search_equals_brute_force_on_generated_data() {
    let dataset = generated(1, 120);
    let index = TindIndex::build(dataset.clone(), IndexConfig { m: 1024, ..IndexConfig::default() });
    let timeline = dataset.timeline();
    let params_list = [
        TindParams::strict(),
        TindParams::paper_default(),
        TindParams::weighted(15.0, 31, WeightFn::constant_one()),
        TindParams::weighted(2.0, 3, WeightFn::exponential(0.999, timeline)),
        TindParams::eps_relaxed(0.02, timeline),
    ];
    for qid in (0..dataset.len() as u32).step_by(7) {
        for params in &params_list {
            let fast = index.search(qid, params).results;
            let brute = brute_force_search(&index, dataset.attribute(qid), Some(qid), params);
            assert_eq!(fast, brute, "query {qid} with {params:?}");
        }
    }
}

#[test]
fn reverse_search_equals_brute_force_on_generated_data() {
    let dataset = generated(2, 100);
    let index = TindIndex::build(dataset.clone(), IndexConfig::reverse_default());
    let params_list = [
        TindParams::strict(),
        TindParams::paper_default(),
        TindParams::weighted(3.0, 2, WeightFn::constant_one()),
    ];
    for qid in (0..dataset.len() as u32).step_by(9) {
        for params in &params_list {
            let fast = index.reverse_search(qid, params).results;
            let brute = brute_force_reverse(&index, dataset.attribute(qid), Some(qid), params);
            assert_eq!(fast, brute, "reverse query {qid} with {params:?}");
        }
    }
}

#[test]
fn growing_relaxation_never_removes_results() {
    let dataset = generated(3, 100);
    let index = TindIndex::build(
        dataset.clone(),
        IndexConfig {
            slices: SliceConfig::search_default(3.0, WeightFn::constant_one(), 31),
            ..IndexConfig::default()
        },
    );
    for qid in (0..dataset.len() as u32).step_by(11) {
        let mut prev: Option<Vec<u32>> = None;
        for eps in [0.0, 1.0, 3.0, 9.0, 27.0] {
            let results =
                index.search(qid, &TindParams::weighted(eps, 7, WeightFn::constant_one())).results;
            if let Some(prev) = &prev {
                for id in prev {
                    assert!(results.contains(id), "ε growth lost result {id} for query {qid}");
                }
            }
            prev = Some(results);
        }
        let mut prev: Option<Vec<u32>> = None;
        for delta in [0u32, 3, 7, 15, 31] {
            let results =
                index.search(qid, &TindParams::weighted(3.0, delta, WeightFn::constant_one())).results;
            if let Some(prev) = &prev {
                for id in prev {
                    assert!(results.contains(id), "δ growth lost result {id} for query {qid}");
                }
            }
            prev = Some(results);
        }
    }
}

#[test]
fn index_configuration_does_not_change_results() {
    // Whatever m, k, or strategy: the result set is identical — the index
    // only prunes, the validator decides.
    let dataset = generated(4, 90);
    let params = TindParams::paper_default();
    let baseline = {
        let index = TindIndex::build(dataset.clone(), IndexConfig::default());
        (0..dataset.len() as u32).map(|q| index.search(q, &params).results).collect::<Vec<_>>()
    };
    for config in [
        IndexConfig { m: 64, ..IndexConfig::default() },
        IndexConfig { m: 8192, k_hashes: 3, ..IndexConfig::default() },
        IndexConfig {
            slices: SliceConfig {
                k: 2,
                strategy: tind::core::SliceStrategy::WeightedRandom,
                sizing_eps: 3.0,
                sizing_weights: WeightFn::constant_one(),
                max_delta: 7,
                expanded_disjoint: true,
                start_stride: 8,
                attr_sample: 16,
            },
            ..IndexConfig::default()
        },
        IndexConfig { seed: 0xDEAD_BEEF, ..IndexConfig::default() },
    ] {
        let index = TindIndex::build(dataset.clone(), config);
        for (q, expected) in baseline.iter().enumerate() {
            let got = index.search(q as u32, &params).results;
            assert_eq!(&got, expected, "query {q} differs under alternate index config");
        }
    }
}

#[test]
fn planted_pairs_are_found_by_generous_search() {
    let g = generate(&GeneratorConfig::small(120, 5));
    let dataset = Arc::new(g.dataset);
    let index = TindIndex::build(
        dataset.clone(),
        IndexConfig {
            slices: SliceConfig::search_default(200.0, WeightFn::constant_one(), 45),
            ..IndexConfig::default()
        },
    );
    let generous = TindParams::weighted(200.0, 45, WeightFn::constant_one());
    for &(lhs, rhs) in g.truth.genuine_pairs() {
        // Renamed pairs are deliberately undiscoverable without σ-partial
        // containment; see tests/partial_recovery.rs.
        if matches!(g.truth.kind(lhs), tind::datagen::AttrKind::Derived { renamed: true, .. }) {
            continue;
        }
        let results = index.search(lhs, &generous).results;
        assert!(
            results.contains(&rhs),
            "planted pair ({lhs}, {rhs}) not found by generous search"
        );
    }
}

/// The sizing rule behind [`DEFAULT_M`], on data shaped like §5.1: it is
/// the smallest power of two whose `M_T` keeps the estimated single-value
/// FPR `load^k` at or below 2 %, and against the paper's forward `m =
/// 4096` it finds the same pairs with at most 1 % of validations more
/// spent on false candidates. The false candidates are pooled over the
/// four datasets: one dataset's rise is a handful of validations, and per
/// dataset it ranged from 0.1 % to 1.4 % (EXPERIMENTS.md, "One Bloom
/// size").
#[test]
fn default_m_is_the_smallest_size_under_the_load_bound() {
    let params = TindParams::paper_default();
    let est_fpr = |index: &TindIndex| {
        index.diagnostics().m_t_load.powi(index.config().k_hashes as i32)
    };
    let (mut extra, mut validations) = (0, 0);
    for (n, seed) in [(1000, 1), (1000, 2), (2000, 1), (2000, 2)] {
        let dataset = Arc::new(generate(&GeneratorConfig::paper_shaped(n, seed)).dataset);
        let sized =
            |m| TindIndex::build(dataset.clone(), IndexConfig { m, ..IndexConfig::default() });
        let half = est_fpr(&sized(DEFAULT_M / 2));
        assert!(half > 0.02, "n={n} seed={seed}: m = {} is under the bound", DEFAULT_M / 2);
        let [default, paper] = [DEFAULT_M, 4096].map(|m| {
            let index = sized(m);
            let outcome = discover_all_pairs(&index, &params, &AllPairsOptions::default())
                .expect("runs");
            (est_fpr(&index), outcome.pairs, outcome.validations_run)
        });
        assert!(default.0 <= 0.02, "n={n} seed={seed}: M_T load^k = {}", default.0);
        assert_eq!(default.1, paper.1, "n={n} seed={seed}: pair sets differ");
        // The same pairs, so every extra validation is a false candidate.
        extra += default.2 as i64 - paper.2 as i64;
        validations += paper.2;
    }
    assert!(
        extra as f64 <= 0.01 * validations as f64,
        "{extra} more false candidates over {validations} validations"
    );
}
