//! Cross-crate test of the σ-partial extension: planted pairs whose
//! entity was renamed (§3.3) are invisible to exact tIND search at any
//! grid setting, but σ-partial search recovers them.

use std::sync::Arc;

use tind::core::partial::{partial_search, PartialParams};
use tind::core::{IndexConfig, SliceConfig, TindIndex, TindParams};
use tind::datagen::{generate, AttrKind, GeneratorConfig};
use tind::model::WeightFn;

#[test]
fn sigma_partial_search_recovers_renamed_pairs() {
    // Crank the rename fraction so the test has material to work with.
    // Seed 78 is pinned to `tind::model::rng`'s stream: 33 renamed
    // attributes, 10 of them eligible below (seeds 70..100 give 2–10, and
    // on every one exact search finds none and σ-partial all but at most
    // one).
    let mut cfg = GeneratorConfig::small(150, 78);
    cfg.rename_fraction = 0.5;
    let g = generate(&cfg);
    let dataset = Arc::new(g.dataset.clone());
    let index = TindIndex::build(
        dataset.clone(),
        IndexConfig {
            slices: SliceConfig::search_default(200.0, WeightFn::constant_one(), 45),
            ..IndexConfig::default()
        },
    );
    let generous = TindParams::weighted(60.0, 45, WeightFn::constant_one());

    let renamed: Vec<u32> =
        g.truth.ids_where(|k| matches!(k, AttrKind::Derived { renamed: true, .. }));
    assert!(renamed.len() >= 10, "only {} renamed attributes generated", renamed.len());

    let mut exact_hits = 0usize;
    let mut partial_hits = 0usize;
    let mut eligible = 0usize;
    for &lhs in &renamed {
        let AttrKind::Derived { source, .. } = g.truth.kind(lhs) else { unreachable!() };
        // The rename only bites if the attribute lives long enough for the
        // event to fire; the generator skips very short lives.
        let has_rename = g
            .dataset
            .attribute(lhs)
            .value_universe()
            .iter()
            .any(|&v| g.dataset.dictionary().resolve(v).starts_with("renamed-entity:"));
        // Long-lived attributes only: the rename lands in the first
        // quarter of life, so lifespan ≥ 300 guarantees a violation tail
        // far beyond the ε = 60 budget.
        if !has_rename || g.dataset.attribute(lhs).lifespan() < 300 {
            continue;
        }
        eligible += 1;
        if index.search(lhs, &generous).results.contains(&source) {
            exact_hits += 1;
        }
        let sigma = PartialParams::new(generous.clone(), 0.85);
        if partial_search(&index, lhs, &sigma).results.contains(&source) {
            partial_hits += 1;
        }
    }
    assert!(eligible >= 5, "only {eligible} renames materialized");
    assert_eq!(exact_hits, 0, "exact search must miss renamed pairs (permanent violation)");
    assert!(
        partial_hits * 10 >= eligible * 8,
        "σ-partial recovered only {partial_hits}/{eligible} renamed pairs"
    );
}

#[test]
fn renamed_pairs_do_not_break_the_rest_of_the_truth() {
    let mut cfg = GeneratorConfig::small(100, 13);
    cfg.rename_fraction = 0.3;
    let g = generate(&cfg);
    let tl = g.dataset.timeline();
    let generous = TindParams::weighted(200.0, 45, WeightFn::constant_one());
    for &(lhs, rhs) in g.truth.genuine_pairs() {
        if matches!(g.truth.kind(lhs), AttrKind::Derived { renamed: true, .. }) {
            continue;
        }
        assert!(
            tind::core::validate::validate(
                g.dataset.attribute(lhs),
                g.dataset.attribute(rhs),
                &generous,
                tl
            ),
            "non-renamed planted pair ({lhs}, {rhs}) must still validate"
        );
    }
}
