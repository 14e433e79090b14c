//! Differential oracles for the parallel kernels.
//!
//! Two contracts are pinned here, across crate boundaries and realistic
//! generated data:
//!
//! * **Parallel build determinism** — `TindIndex::build_with` must produce
//!   a *byte-identical* serialized index to the sequential
//!   `TindIndex::build` for every thread count (the serialized form covers
//!   every matrix bit, the cached universes, and the slice intervals, so
//!   byte equality is the strongest equivalence we can state).
//! * **Batch/search equivalence** — `search_batch` must return exactly the
//!   per-query `search` outcomes (results *and* stage statistics), which in
//!   turn must agree with the `naive_validate` ground truth.
//! * **Drain equivalence** — all-pairs discovery and semi-naive pair
//!   refresh return the same pairs (and all-pairs the same validation
//!   count) at every thread count.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::strategies::{bench_dataset, bench_query_batches};
use tind::core::persist::encode_index;
use tind::core::validate::naive_validate;
use tind::core::{
    discover_all_pairs, refresh_pairs, AllPairsOptions, BatchOptions, BuildOptions, CancelToken,
    DatasetDelta, IndexConfig, TindIndex, TindParams,
};
use tind::model::{Dataset, HistoryBuilder, MemoryBudget, WeightFn};

fn thread_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 7, cpus];
    counts.dedup();
    counts
}

#[test]
fn parallel_build_is_byte_identical_for_every_thread_count() {
    let dataset = bench_dataset(130, 9);
    for config in [
        IndexConfig { m: 512, ..IndexConfig::default() },
        IndexConfig { m: 256, ..IndexConfig::reverse_default() },
    ] {
        let baseline = encode_index(&TindIndex::build(dataset.clone(), config.clone()));
        for threads in thread_counts() {
            let options = BuildOptions { threads, ..BuildOptions::default() };
            let parallel = encode_index(&TindIndex::build_with(
                dataset.clone(),
                config.clone(),
                &options,
            ));
            assert!(
                baseline == parallel,
                "build with {threads} thread(s) diverged from the sequential oracle \
                 (m={}, reverse={})",
                config.m,
                config.build_reverse,
            );
        }
    }
}

#[test]
fn memory_starved_parallel_build_is_still_byte_identical() {
    let dataset = bench_dataset(90, 13);
    let config = IndexConfig { m: 512, ..IndexConfig::default() };
    let baseline = encode_index(&TindIndex::build(dataset.clone(), config.clone()));
    // A zero budget sheds every extra worker; the degraded build must not
    // change a single byte, only its parallelism.
    let options = BuildOptions {
        threads: 8,
        memory_budget: Some(MemoryBudget::new(0)),
        ..BuildOptions::default()
    };
    let starved = encode_index(&TindIndex::build_with(dataset.clone(), config, &options));
    assert!(baseline == starved, "memory-starved build diverged from the sequential oracle");
}

#[test]
fn search_batch_equals_per_query_search_and_ground_truth() {
    let dataset = bench_dataset(120, 11);
    let index =
        TindIndex::build(dataset.clone(), IndexConfig { m: 1024, ..IndexConfig::default() });
    let timeline = dataset.timeline();
    let batches = bench_query_batches(dataset.len(), 16, 3);
    let params_list = [
        TindParams::strict(),
        TindParams::paper_default(),
        TindParams::weighted(15.0, 31, WeightFn::constant_one()),
    ];
    for params in &params_list {
        for (bi, batch) in batches.iter().enumerate() {
            let outcomes = index.search_batch(batch, params);
            assert_eq!(outcomes.len(), batch.len());
            for (&qid, batched) in batch.iter().zip(&outcomes) {
                let single = index.search(qid, params);
                assert_eq!(
                    batched.results, single.results,
                    "batch {bi} query {qid} results diverged ({params:?})"
                );
                assert_eq!(
                    batched.stats, single.stats,
                    "batch {bi} query {qid} stats diverged ({params:?})"
                );
            }
        }
        // Ground truth on the first batch only (naive validation walks the
        // whole timeline per pair — quadratic, so keep it bounded).
        let batch = &batches[0];
        for (&qid, batched) in batch.iter().zip(index.search_batch(batch, params)) {
            let q = dataset.attribute(qid);
            let truth: Vec<u32> = (0..dataset.len() as u32)
                .filter(|&a| a != qid)
                .filter(|&a| naive_validate(q, dataset.attribute(a), params, timeline))
                .collect();
            assert_eq!(batched.results, truth, "query {qid} disagrees with naive_validate");
        }
    }
}

#[test]
fn batch_thread_counts_agree() {
    let dataset = bench_dataset(100, 17);
    let index =
        TindIndex::build(dataset.clone(), IndexConfig { m: 1024, ..IndexConfig::default() });
    let params = TindParams::paper_default();
    let batch = &bench_query_batches(dataset.len(), 24, 1)[0];
    let baseline = index.search_batch(batch, &params);
    for threads in thread_counts() {
        let options = BatchOptions { threads, ..BatchOptions::default() };
        let outcome = index.search_batch_with(batch, &params, &options);
        assert!(!outcome.cancelled);
        for (base, got) in baseline.iter().zip(&outcome.outcomes) {
            let got = got.as_ref().expect("uncancelled batch completes every query");
            assert_eq!(base.results, got.results, "{threads} thread(s)");
            assert_eq!(base.stats, got.stats, "{threads} thread(s)");
        }
    }
}

#[test]
fn cancelled_and_memory_starved_batches_degrade_gracefully() {
    let dataset = bench_dataset(60, 19);
    let index = TindIndex::build(dataset.clone(), IndexConfig::default());
    let params = TindParams::paper_default();
    let batch = &bench_query_batches(dataset.len(), 8, 1)[0];

    let token = CancelToken::new();
    token.cancel();
    let cancelled = index.search_batch_with(
        batch,
        &params,
        &BatchOptions { cancel: Some(token), ..BatchOptions::default() },
    );
    assert!(cancelled.cancelled);
    assert!(cancelled.outcomes.iter().all(Option::is_none));

    let starved = index.search_batch_with(
        batch,
        &params,
        &BatchOptions {
            threads: 8,
            memory_budget: Some(MemoryBudget::new(0)),
            ..BatchOptions::default()
        },
    );
    assert_eq!(starved.threads_used, 1, "zero budget must shed every extra worker");
    assert!(!starved.cancelled);
    for (base, got) in index.search_batch(batch, &params).iter().zip(&starved.outcomes) {
        assert_eq!(&base.results, &got.as_ref().expect("completes").results);
    }
}

#[test]
fn all_pairs_thread_counts_agree() {
    let dataset = bench_dataset(110, 23);
    let index = TindIndex::build(dataset, IndexConfig { m: 1024, ..IndexConfig::default() });
    let params = TindParams::paper_default();
    let run = |threads| {
        discover_all_pairs(&index, &params, &AllPairsOptions { threads, ..Default::default() })
            .expect("all-pairs")
    };
    let baseline = run(1);
    assert!(!baseline.pairs.is_empty(), "oracle should not be vacuous");
    for threads in thread_counts() {
        let out = run(threads);
        assert_eq!(out.threads_used, threads);
        assert_eq!(out.pairs, baseline.pairs, "{threads} thread(s)");
        assert_eq!(out.validations_run, baseline.validations_run, "{threads} thread(s)");
    }
}

/// `base` with the attributes `ids` revised in place: each keeps its name
/// and observation period, and its last version loses its first value.
fn revised(base: &Dataset, ids: &[u32]) -> Arc<Dataset> {
    let mut b = base.clone().into_builder();
    for &id in ids {
        let old = base.attribute(id);
        let mut h = HistoryBuilder::new(old.name());
        let last = old.versions().len() - 1;
        for (i, v) in old.versions().iter().enumerate() {
            let skip = usize::from(i == last && !v.values.is_empty());
            h.push(v.start, v.values[skip..].to_vec());
        }
        assert_eq!(b.upsert_history(h.finish(old.last_observed())), (id, true));
    }
    Arc::new(b.build())
}

#[test]
fn refresh_pairs_thread_counts_agree() {
    let base = bench_dataset(110, 29);
    let config = IndexConfig { m: 1024, ..IndexConfig::default() };
    let params = TindParams::paper_default();
    let pairs: BTreeSet<_> = discover_all_pairs(
        &TindIndex::build(Arc::clone(&base), config.clone()),
        &params,
        &AllPairsOptions::default(),
    )
    .expect("all-pairs")
    .pairs
    .into_iter()
    .collect();
    let new = revised(&base, &[3, 40, 77, 100]);
    let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("diff");
    let mut index = TindIndex::build(base, config);
    index.apply_delta(&delta).expect("applies");
    let mut baseline = pairs.clone();
    refresh_pairs(&index, &mut baseline, delta.touched(), &params, 1);
    assert!(!baseline.is_empty(), "oracle should not be vacuous");
    for threads in thread_counts() {
        let mut refreshed = pairs.clone();
        let report = refresh_pairs(&index, &mut refreshed, delta.touched(), &params, threads);
        assert_eq!(report.threads_used, threads);
        assert_eq!(refreshed, baseline, "{threads} thread(s)");
    }
}

/// A worker's validation scratch grows to 8 B per dictionary value, which
/// on paper-shaped data is far more than the 48 B per attribute once
/// charged per worker: a budget of that old charge affords no second
/// worker.
#[test]
fn worker_charge_covers_the_validation_scratch() {
    let dataset = bench_dataset(120, 31);
    let old_charge = 48 * dataset.len();
    assert!(8 * dataset.dictionary().len() > old_charge, "paper-shaped vocabulary");
    let index = TindIndex::build(dataset.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
    let params = TindParams::paper_default();
    let budget = MemoryBudget::new(old_charge);
    let options =
        AllPairsOptions { threads: 2, memory_budget: Some(budget.clone()), ..Default::default() };
    let all_pairs = discover_all_pairs(&index, &params, &options).expect("all-pairs");
    assert_eq!(all_pairs.threads_used, 1);
    let batch = &bench_query_batches(dataset.len(), 8, 1)[0];
    let options = BatchOptions { threads: 2, memory_budget: Some(budget), ..Default::default() };
    assert_eq!(index.search_batch_with(batch, &params, &options).threads_used, 1);
}
