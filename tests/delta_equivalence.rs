//! Differential delta-oracle for semi-naive incremental maintenance
//! (`core::delta`).
//!
//! The contract under test: an index maintained through a randomized
//! schedule of page-granular deltas is indistinguishable from a cold
//! rebuild over the merged dataset — for `search`, `search_batch` at
//! worker counts {1, N}, `reverse_search`, and all-pairs discovery
//! (`refresh_pairs`, also at {1, N}) — and where data-dependent slice
//! selection may drift (the weighted-random reverse strategy),
//! `compact()` restores byte-identity. A property loop then drives longer
//! schedules that touch the same columns again and again (exact column
//! retargeting leans on each column still holding what the previous step
//! left), shrink and truncate histories, and grow the matrices across a
//! 64-column boundary. The serve layer's
//! `Engine::apply_delta` then inherits the same oracle: a store-backed
//! engine flips to a new committed generation, and a degraded engine
//! refuses deltas until repaired.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::strategies::{
    build_history, dataset_of, histories, history, shard_files, store_dir, world, Versions,
    TIMELINE,
};
use tind_core::persist::encode_index;
use tind_core::{
    discover_all_pairs, open_store, pack_store, refresh_pairs, repair_store, AllPairsOptions,
    BatchOptions, DatasetDelta, IndexConfig, PackOptions, RepairOptions, TindIndex, TindParams,
};
use tind_model::rng::{cases, Rng};
use tind_model::{Dataset, HistoryBuilder, ValueId, WeightFn};
use tind_serve::Engine;

/// One page-granular update batch: rewrites `rewrites` randomly chosen
/// existing attributes with fresh version runs and appends `appends` new
/// attributes. Returns a valid successor (same timeline, stable ids,
/// append-only dictionary), exactly what `tind update` produces from a
/// delta dump.
fn evolve(base: &Dataset, rng: &mut Rng, rewrites: usize, appends: usize, step: usize) -> Arc<Dataset> {
    let tl = base.timeline();
    let mut b = base.clone().into_builder();
    let mut chosen: BTreeSet<u32> = BTreeSet::new();
    while chosen.len() < rewrites {
        chosen.insert(rng.range(0..base.len() as u32));
    }
    let names: Vec<String> =
        chosen.iter().map(|&id| base.attribute(id).name().to_owned()).collect();
    for (i, name) in names.iter().enumerate() {
        let mut h = HistoryBuilder::new(name.as_str());
        let mut day = rng.range(0..tl.len() / 2);
        for _ in 0..=rng.range(0..3u32) {
            let width = rng.range(0..5usize);
            let values: Vec<ValueId> = (0..width)
                .map(|_| {
                    if rng.bool() {
                        // An id the base dictionary already interned.
                        rng.range(0..10)
                    } else {
                        b.dictionary_mut().intern(&format!("delta-{step}-{i}-{}", rng.range(0..24u32)))
                    }
                })
                .collect();
            h.push(day, values);
            day += rng.range(1..=8u32);
            if day > tl.last() {
                break;
            }
        }
        b.upsert_history(h.finish(tl.last()));
    }
    for n in 0..appends {
        let mut h = HistoryBuilder::new(format!("delta-attr-{step}-{n}"));
        let v = b.dictionary_mut().intern(&format!("delta-{step}-new-{n}"));
        h.push(rng.range(0..tl.len()), vec![v, rng.range(0..10)]);
        b.upsert_history(h.finish(tl.last()));
    }
    Arc::new(b.build())
}

fn pair_set(index: &TindIndex, params: &TindParams) -> BTreeSet<(u32, u32)> {
    discover_all_pairs(index, params, &AllPairsOptions { threads: 2, ..Default::default() })
        .expect("all-pairs")
        .pairs
        .into_iter()
        .collect()
}

/// The tentpole oracle: three-step randomized schedules, two seeds, every
/// query surface compared against cold rebuilds of the merged dataset.
#[test]
fn randomized_delta_schedules_match_cold_rebuilds() {
    for seed in [21u64, 77] {
        let (base, mut forward, params) = world(seed);
        let forward_config = IndexConfig { m: 256, ..IndexConfig::default() };
        let mut reverse = TindIndex::build(base.clone(), IndexConfig::reverse_default());
        let mut pairs = pair_set(&forward, &params);
        let mut current = base;
        let mut rng = Rng::seed_from_u64(seed ^ 0xde17a);

        for step in 0..3usize {
            let rewrites = rng.range(1..=4usize);
            let appends = rng.range(0..3usize);
            let next = evolve(&current, &mut rng, rewrites, appends, step);
            let delta = DatasetDelta::diff(&current, next.clone()).expect("valid successor");
            assert_eq!(delta.touched().len(), rewrites + appends, "seed {seed} step {step}");

            forward.apply_delta(&delta).expect("forward apply");
            reverse.apply_delta(&delta).expect("reverse apply");
            let cold_forward = TindIndex::build(next.clone(), forward_config.clone());
            let cold_reverse = TindIndex::build(next.clone(), IndexConfig::reverse_default());

            // Forward-default slicing is data-independent, so incremental
            // maintenance must keep the *encoding* byte-identical, not
            // just the answers.
            assert_eq!(
                encode_index(&forward),
                encode_index(&cold_forward),
                "seed {seed} step {step}: forward index diverged from cold build"
            );

            // Every query surface answers exactly like the cold build —
            // including against the reverse index, whose drifted slices
            // may differ byte-wise but must never change results.
            let queries: Vec<u32> = (0..next.len() as u32).step_by(9).collect();
            for &q in &queries {
                assert_eq!(
                    forward.search(q, &params).results,
                    cold_forward.search(q, &params).results,
                    "seed {seed} step {step} query {q}"
                );
                assert_eq!(
                    reverse.reverse_search(q, &params).results,
                    cold_reverse.reverse_search(q, &params).results,
                    "seed {seed} step {step} reverse query {q}"
                );
            }
            for threads in [1usize, 4] {
                let options = BatchOptions { threads, ..Default::default() };
                let live = forward.search_batch_with(&queries, &params, &options);
                let cold = cold_forward.search_batch_with(&queries, &params, &options);
                for (got, want) in live.outcomes.iter().zip(&cold.outcomes) {
                    assert_eq!(
                        got.as_ref().map(|o| &o.results),
                        want.as_ref().map(|o| &o.results),
                        "seed {seed} step {step} threads {threads}"
                    );
                }
            }

            // Semi-naive all-pairs maintenance equals cold discovery, and
            // is worker-count independent.
            let mut pairs_parallel = pairs.clone();
            refresh_pairs(&forward, &mut pairs, delta.touched(), &params, 1);
            refresh_pairs(&forward, &mut pairs_parallel, delta.touched(), &params, 4);
            assert_eq!(pairs, pairs_parallel, "seed {seed} step {step}: thread-count dependence");
            assert_eq!(
                pairs,
                pair_set(&cold_forward, &params),
                "seed {seed} step {step}: maintained pair set diverged"
            );

            current = next;
        }

        // Compaction realigns the reverse index's data-dependent slices
        // with a from-scratch build, byte for byte.
        let cold_reverse = TindIndex::build(current.clone(), IndexConfig::reverse_default());
        assert_eq!(encode_index(&reverse.compact()), encode_index(&cold_reverse));
        let cold_forward = TindIndex::build(current, forward_config);
        assert_eq!(encode_index(&forward.compact()), encode_index(&cold_forward));
    }
}

/// The test's own record of one attribute in the repeated-touch schedules.
struct Attr {
    versions: Versions,
    last_observed: u32,
}

/// One step of a repeated-touch schedule: revises the `hot` attributes and
/// up to three random ones — a new revision (which truncates its
/// predecessor's validity), a shrunk latest value set, a dropped latest
/// version, a shortened observation period, or a rewrite from scratch —
/// and appends `appends` attributes. Revisions may intern new values, so
/// the dictionary grows along the way.
fn revise(
    model: &mut Vec<Attr>,
    current: &Dataset,
    rng: &mut Rng,
    step: usize,
    hot: &[usize],
    appends: usize,
) -> Arc<Dataset> {
    let mut b = current.clone().into_builder();
    let mut ids: BTreeSet<usize> = hot.iter().copied().collect();
    for _ in 0..rng.range(0..4usize) {
        ids.insert(rng.range(0..model.len()));
    }
    for id in ids {
        let attr = &mut model[id];
        let last_start = attr.versions.last().expect("non-empty").0;
        match rng.range(0..5u32) {
            0 if last_start + 1 < TIMELINE => {
                let start = rng.range(last_start + 1..TIMELINE);
                let mut values: Vec<ValueId> =
                    (0..rng.range(0..4usize)).map(|_| rng.range(0..12u32)).collect();
                if rng.bool() {
                    values.push(b.dictionary_mut().intern(&format!("fresh-{step}-{id}")));
                }
                // `build_history` extends the observation period to `start`.
                attr.versions.push((start, values));
            }
            1 => {
                let latest = &mut attr.versions.last_mut().expect("non-empty").1;
                latest.truncate(latest.len() / 2);
            }
            2 if attr.versions.len() > 1 => {
                attr.versions.pop();
            }
            3 => attr.last_observed = rng.range(last_start..TIMELINE),
            _ => *attr = Attr { versions: history(rng), last_observed: TIMELINE - 1 },
        }
        b.upsert_history(build_history(&format!("attr-{id}"), &attr.versions, attr.last_observed));
    }
    for _ in 0..appends {
        let versions = history(rng);
        b.upsert_history(build_history(&format!("attr-{}", model.len()), &versions, TIMELINE - 1));
        model.push(Attr { versions, last_observed: TIMELINE - 1 });
    }
    Arc::new(b.build())
}

/// Exact column retargeting flips only the bits in which a column's old
/// and new filter differ, so a column left wrong at step k would corrupt
/// step k + 1 (and trips the primitive's debug assertion on the way).
/// Schedules of eight deltas keep hitting the same three columns, shrink
/// and truncate histories, and append across the 64-column boundary (the
/// matrices re-stride); after every step each maintained index — forward,
/// with `M_R`, and with `M_R` over an mmap-opened store — is byte-identical
/// to a cold build, and the refreshed pair sets equal cold all-pairs at 1
/// and 4 threads for ε = 3, ε = 0 and an ε so large that many histories
/// have no version heavy enough to probe with.
#[test]
fn repeated_touch_schedules_stay_byte_identical_to_cold_builds() {
    let forward = IndexConfig { m: 128, ..IndexConfig::default() };
    let with_m_r = IndexConfig { build_reverse: true, ..forward.clone() };
    let long_eps = 25.0;
    let grid = [
        TindParams::paper_default(),
        TindParams::strict(),
        TindParams::weighted(long_eps, 2, WeightFn::constant_one()),
    ];
    // Histories with / without a version longer than `long_eps` days: both
    // sides of the refresh probe's precondition must have been exercised.
    let (mut heavy, mut light) = (0usize, 0usize);

    cases("repeated_touch_schedules_stay_byte_identical_to_cold_builds", 6, |rng| {
        let mut model: Vec<Attr> = histories(rng, 58, 64)
            .into_iter()
            .map(|versions| Attr { versions, last_observed: TIMELINE - 1 })
            .collect();
        let base = dataset_of(model.iter().map(|a| a.versions.clone()).collect());
        let hot = [0, 1, model.len() - 1];

        let dir = store_dir("delta-equivalence", "repeated-touch");
        let packed = TindIndex::build(base.clone(), with_m_r.clone());
        pack_store(&packed, &dir, &PackOptions::default()).expect("pack");
        let (mapped, load) = open_store(&dir, base.clone()).expect("open");
        assert!(load.is_clean() && !mapped.m_t().is_owned(), "expected a borrowed mmap index");
        let mut maintained = [
            (TindIndex::build(base.clone(), forward.clone()), &forward, "forward"),
            (packed, &with_m_r, "with M_R"),
            (mapped, &with_m_r, "with M_R, mmap-opened"),
        ];
        let mut pairs: Vec<_> = grid.iter().map(|p| pair_set(&maintained[0].0, p)).collect();

        let mut current = base.clone();
        for step in 0..8usize {
            let appends = match step {
                3 => 65usize.saturating_sub(model.len()) + rng.range(0..3usize),
                _ => rng.range(0..2usize),
            };
            let next = revise(&mut model, &current, rng, step, &hot, appends);
            let delta = DatasetDelta::diff(&current, next.clone()).expect("valid successor");

            for (index, config, label) in &mut maintained {
                index.apply_delta(&delta).expect("applies");
                let cold = TindIndex::build(next.clone(), (*config).clone());
                assert!(
                    encode_index(index) == encode_index(&cold),
                    "step {step}: {label} index diverged from a cold build"
                );
            }
            for (params, pairs) in grid.iter().zip(&mut pairs) {
                let mut parallel = pairs.clone();
                refresh_pairs(&maintained[0].0, pairs, delta.touched(), params, 1);
                refresh_pairs(&maintained[0].0, &mut parallel, delta.touched(), params, 4);
                let eps = params.eps;
                assert_eq!(*pairs, parallel, "step {step} ε={eps}: thread-count dependence");
                // The maintained forward index is byte-equal to the cold
                // one, so its all-pairs run *is* the cold discovery.
                assert_eq!(
                    *pairs,
                    pair_set(&maintained[0].0, params),
                    "step {step} ε={eps}: maintained pair set diverged"
                );
            }
            current = next;
        }
        assert!(base.len() < 64 && current.len() > 64, "appends must cross a block boundary");
        for (_, hist) in current.iter() {
            let longest = (0..hist.versions().len()).map(|i| hist.version_validity(i).len()).max();
            if f64::from(longest.expect("non-empty")) > long_eps {
                heavy += 1;
            } else {
                light += 1;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    });
    assert!(heavy > 0 && light > 0, "ε = {long_eps} must split the histories ({heavy}/{light})");
}

/// A store-backed engine flips its store to a freshly committed
/// generation before swapping the hot index: the directory afterwards
/// opens clean against the merged dataset and holds exactly the bytes
/// the engine serves.
#[test]
fn engine_apply_delta_flips_the_store_generation_atomically() {
    let (base, index, _) = world(33);
    let dir = store_dir("delta-equivalence", "engine-flip");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    let (engine, report) =
        Engine::from_store(&dir, base.clone(), 3.0, 7, None, 0).expect("from_store");
    assert!(report.is_clean());

    let merged = evolve(&base, &mut Rng::seed_from_u64(0xfeed), 3, 2, 0);
    let outcome = engine.apply_delta(merged.clone()).expect("delta applies");
    assert_eq!(outcome.index.touched_attrs, 5);
    assert_eq!(outcome.index.new_attrs, 2);
    assert_eq!(outcome.store_generation, Some(2), "store must advance one generation");

    let (reloaded, load) = open_store(&dir, merged).expect("flipped store opens");
    assert!(load.is_clean(), "flip left faults: {load:?}");
    assert_eq!(load.generation, 2);
    assert_eq!(
        encode_index(&reloaded),
        encode_index(&engine.forward()),
        "store bytes must match the hot index"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A degraded engine (quarantined store shard) refuses every delta with a
/// repair hint — updating around the hole would silently diverge the hot
/// index from the manifest digests — and accepts the same delta after
/// repair + promotion.
#[test]
fn degraded_engine_refuses_deltas_until_repaired() {
    let (base, index, _) = world(35);
    let dir = store_dir("delta-equivalence", "degraded-refusal");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    // A header byte, so the open itself (header CRC) quarantines it.
    tind_core::fault::flip_file_byte(&shard_files(&dir)[2], 12).expect("flip");

    let (engine, report) =
        Engine::from_store(&dir, base.clone(), 3.0, 7, None, 0).expect("degraded open");
    assert_eq!(report.quarantined.len(), 1);
    assert!(engine.is_degraded());

    let merged = evolve(&base, &mut Rng::seed_from_u64(0xbeef), 2, 1, 0);
    let err = engine.apply_delta(merged.clone()).expect_err("degraded engine must refuse");
    assert!(err.contains("quarantined"), "{err}");
    assert!(err.contains("repair"), "refusal must carry the repair hint: {err}");

    repair_store(&dir, &base, &RepairOptions::default()).expect("repair");
    assert!(engine.try_promote(), "repaired store must promote");
    let outcome = engine.apply_delta(merged).expect("post-repair delta applies");
    assert_eq!(outcome.store_generation, Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine's reverse index borrows the forward index's `M_T` whenever
/// both are sized alike and the forward index is whole, and still answers
/// and encodes exactly as a standalone reverse index maintained through
/// the same deltas: after the build, after each delta, and after a
/// degraded store is repaired and promoted. A store packed at another
/// Bloom size (here `--m 4096`) lends nothing, degraded or promoted.
#[test]
fn engine_reverse_index_borrows_m_t_and_answers_as_a_standalone_one() {
    let (base, _, params) = world(41);
    let check = |engine: &Engine, standalone: &TindIndex, shared: bool, what: &str| {
        let (forward, reverse) = (engine.forward(), engine.reverse());
        assert_eq!(reverse.shares_full_history(&forward), shared, "{what}: one M_T or two");
        assert!(encode_index(&reverse) == encode_index(standalone), "{what}: reverse bytes");
        for q in 0..standalone.dataset().len() as u32 {
            assert_eq!(
                reverse.reverse_search(q, &params).results,
                standalone.reverse_search(q, &params).results,
                "{what}: reverse query {q}"
            );
        }
    };
    // Applies one delta to the engine and to the standalone index.
    let step = |engine: &Engine, standalone: &mut TindIndex, seed: u64| {
        let current = engine.dataset();
        let merged = evolve(&current, &mut Rng::seed_from_u64(seed), 3, 2, seed as usize);
        engine.apply_delta(merged.clone()).expect("engine delta");
        let delta = DatasetDelta::diff(&current, merged).expect("valid successor");
        standalone.apply_delta(&delta).expect("standalone delta");
    };

    let engine = Engine::build(base.clone(), 3.0, 7, None, 0);
    let mut standalone = TindIndex::build(base.clone(), IndexConfig::reverse_default());
    check(&engine, &standalone, true, "in memory, built");
    for seed in [1, 2] {
        step(&engine, &mut standalone, seed);
        check(&engine, &standalone, true, "in memory, after a delta");
    }

    // A store at the default size, opened degraded: the reverse index
    // renders its own M_T until the repaired store is promoted.
    let dir = store_dir("delta-equivalence", "reverse-borrows-m-t");
    let packed = TindIndex::build(base.clone(), IndexConfig::default());
    pack_store(&packed, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    tind_core::fault::flip_file_byte(&shard_files(&dir)[1], 12).expect("flip");
    let (engine, report) =
        Engine::from_store(&dir, base.clone(), 3.0, 7, None, 0).expect("degraded open");
    assert_eq!(report.quarantined.len(), 1);
    let mut standalone = TindIndex::build(base.clone(), IndexConfig::reverse_default());
    check(&engine, &standalone, false, "degraded store");
    repair_store(&dir, &base, &RepairOptions::default()).expect("repair");
    assert!(engine.try_promote(), "repaired store must promote");
    check(&engine, &standalone, true, "promoted store");
    step(&engine, &mut standalone, 3);
    check(&engine, &standalone, true, "store, after a delta");
    std::fs::remove_dir_all(&dir).ok();

    // A store at m = 4096: nothing to share, degraded or promoted, before
    // or after a delta.
    let dir = store_dir("delta-equivalence", "reverse-own-m-t");
    let wide = TindIndex::build(base.clone(), IndexConfig { m: 4096, ..IndexConfig::default() });
    pack_store(&wide, &dir, &PackOptions { shards: 2, ..Default::default() }).expect("pack");
    tind_core::fault::flip_file_byte(&shard_files(&dir)[1], 12).expect("flip");
    let (engine, report) =
        Engine::from_store(&dir, base.clone(), 3.0, 7, None, 0).expect("degraded open");
    assert_eq!(report.quarantined.len(), 1);
    let mut standalone = TindIndex::build(base.clone(), IndexConfig::reverse_default());
    check(&engine, &standalone, false, "degraded m = 4096 store");
    repair_store(&dir, &base, &RepairOptions::default()).expect("repair");
    assert!(engine.try_promote(), "repaired store must promote");
    check(&engine, &standalone, false, "promoted m = 4096 store");
    step(&engine, &mut standalone, 4);
    check(&engine, &standalone, false, "m = 4096 store, after a delta");
    std::fs::remove_dir_all(&dir).ok();
}
