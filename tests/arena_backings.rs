//! Differential oracle for the store's two backings
//! (`tind_core::store`, arena shards).
//!
//! The store's byte-identity guarantee holds across *backings*: a packed
//! index borrowed from an mmap or served through `pread` windows must
//! encode to exactly the bytes of the in-memory build (the oracle) and
//! answer `search`, `search_batch`, `reverse_search`, and all-pairs
//! discovery identically at every worker count. The windowed backing is
//! additionally pinned under a memory budget *below* the index size:
//! eviction pressure must never change an answer.

mod common;

use std::sync::Arc;

use tind_core::{
    discover_all_pairs, open_store_with, pack_store, AllPairsOptions, BatchOptions, IndexConfig,
    OpenOptions, PackOptions, StoreBacking, TindIndex, TindParams,
};
use tind_datagen::{generate, GeneratorConfig};
use tind_model::{Dataset, MemoryBudget};

fn store_dir(name: &str) -> std::path::PathBuf {
    common::strategies::store_dir("arena-backings", name)
}

/// A generated world with both search directions indexed, so the
/// reverse leg of the oracle is real (M_R is packed into the shards).
fn reverse_world(seed: u64) -> (Arc<Dataset>, TindIndex, TindParams) {
    let dataset = Arc::new(generate(&GeneratorConfig::small(200, seed)).dataset);
    let config = IndexConfig { m: 256, build_reverse: true, ..IndexConfig::default() };
    let index = TindIndex::build(dataset.clone(), config);
    (dataset, index, TindParams::paper_default())
}

const BACKINGS: [StoreBacking; 2] = [StoreBacking::Mmap, StoreBacking::Windowed];

fn open_options(backing: StoreBacking) -> OpenOptions {
    OpenOptions {
        backing,
        // The windowed backing needs *a* budget to charge against; a
        // generous one keeps this roundtrip free of eviction effects
        // (the under-budget test below applies the pressure).
        memory_budget: (backing == StoreBacking::Windowed)
            .then(|| MemoryBudget::new(1 << 30)),
    }
}

#[test]
fn arena_roundtrip_is_byte_identical_across_backings_and_shard_counts() {
    let (dataset, index, _params) = reverse_world(21);
    let baseline = tind_core::persist::encode_index(&index);

    // 0 = the store's own default split.
    for shards in [1usize, 2, 4, 0] {
        let dir = store_dir(&format!("roundtrip-{shards}"));
        let report =
            pack_store(&index, &dir, &PackOptions { shards, ..Default::default() }).expect("pack");
        for backing in BACKINGS {
            let (loaded, load) =
                open_store_with(&dir, dataset.clone(), &open_options(backing)).expect("open");
            assert!(load.is_clean(), "{backing:?}: clean arena store loads clean: {load:?}");
            assert_eq!(load.backing, backing);
            assert_eq!(load.shards_total, report.shards);
            assert_eq!(
                tind_core::persist::encode_index(&loaded),
                baseline,
                "{shards}-shard arena store via {backing:?} must round-trip byte-identically"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn searches_are_identical_across_backings_at_multiple_worker_counts() {
    let (dataset, index, params) = reverse_world(23);
    let dir = store_dir("differential");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");

    let queries: Vec<u32> = (0..dataset.len() as u32).step_by(11).collect();
    let expected_single: Vec<Vec<u32>> =
        queries.iter().map(|&q| index.search(q, &params).results).collect();
    let expected_reverse: Vec<Vec<u32>> =
        queries.iter().map(|&q| index.reverse_search(q, &params).results).collect();
    let expected_pairs =
        discover_all_pairs(&index, &params, &AllPairsOptions::default()).expect("all-pairs").pairs;

    for backing in BACKINGS {
        let (loaded, _) =
            open_store_with(&dir, dataset.clone(), &open_options(backing)).expect("open");
        for (&q, expected) in queries.iter().zip(&expected_single) {
            assert_eq!(&loaded.search(q, &params).results, expected, "{backing:?} query {q}");
        }
        for (&q, expected) in queries.iter().zip(&expected_reverse) {
            assert_eq!(
                &loaded.reverse_search(q, &params).results,
                expected,
                "{backing:?} reverse query {q}"
            );
        }
        for threads in [1usize, 4] {
            let batch = loaded.search_batch_with(
                &queries,
                &params,
                &BatchOptions { threads, ..Default::default() },
            );
            for ((got, want), &q) in batch.outcomes.iter().zip(&expected_single).zip(&queries) {
                assert_eq!(
                    got.as_ref().map(|o| &o.results),
                    Some(want),
                    "{backing:?} batch query {q} at {threads} workers"
                );
            }
            let pairs = discover_all_pairs(
                &loaded,
                &params,
                &AllPairsOptions { threads, ..Default::default() },
            )
            .expect("all-pairs on loaded")
            .pairs;
            assert_eq!(pairs, expected_pairs, "{backing:?} all-pairs at {threads} workers");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The load diagnostics are a popcount over whatever backs the matrices:
/// an mmap'd or windowed store must report bit-for-bit what the build
/// reports, and both must equal the per-column gather they replaced.
#[test]
fn popcount_diagnostics_are_identical_across_backings() {
    let (dataset, index, _params) = reverse_world(27);
    let dir = store_dir("diagnostics");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    let by_columns = |m: &tind_bloom::BloomMatrix| {
        (0..m.num_cols()).map(|c| m.column_filter(c).count_ones()).sum::<usize>()
    };
    let built = index.diagnostics();
    assert!(built.m_t_load > 0.0 && built.mean_slice_load > 0.0);
    assert_eq!(index.m_t().count_ones(), by_columns(index.m_t()));

    for backing in BACKINGS {
        let (loaded, _) =
            open_store_with(&dir, dataset.clone(), &open_options(backing)).expect("open");
        let matrices = std::iter::once(loaded.m_t())
            .chain(loaded.time_slices().iter().map(|s| &s.matrix))
            .chain(loaded.m_r());
        for (i, matrix) in matrices.enumerate() {
            assert!(!matrix.is_owned(), "{backing:?}: matrix {i} is borrowed from the store");
            assert_eq!(matrix.count_ones(), by_columns(matrix), "{backing:?} matrix {i}");
        }
        // `bloom_bytes` is residency, which a borrowed backing does not
        // share with a build; every structural field must match exactly.
        let opened = loaded.diagnostics();
        assert_eq!(
            tind_core::index::IndexDiagnostics { bloom_bytes: built.bloom_bytes, ..opened },
            built,
            "{backing:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The beyond-RAM acceptance pin: a memory budget well below the index's
/// resident size must still answer every query exactly — windows evict
/// and reload (or overcommit) under pressure, never degrade results.
#[test]
fn windowed_backing_below_index_size_still_answers_exactly() {
    let (dataset, index, params) = reverse_world(25);
    let dir = store_dir("tiny-budget");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");

    let full_bytes = index.bloom_bytes();
    assert!(full_bytes > 0);
    let budget = MemoryBudget::new(full_bytes / 8);
    let options = OpenOptions {
        backing: StoreBacking::Windowed,
        memory_budget: Some(budget.clone()),
    };
    let (loaded, report) = open_store_with(&dir, dataset.clone(), &options).expect("open");
    assert!(report.is_clean());
    assert_eq!(report.backing, StoreBacking::Windowed);
    let pool = report.window_pool.clone().expect("windowed open exposes its pool");

    let queries: Vec<u32> = (0..dataset.len() as u32).step_by(7).collect();
    for &q in &queries {
        assert_eq!(
            loaded.search(q, &params).results,
            index.search(q, &params).results,
            "query {q} under budget pressure"
        );
        assert_eq!(
            loaded.reverse_search(q, &params).results,
            index.reverse_search(q, &params).results,
            "reverse query {q} under budget pressure"
        );
    }
    let batch =
        loaded.search_batch_with(&queries, &params, &BatchOptions { threads: 4, ..Default::default() });
    for (got, &q) in batch.outcomes.iter().zip(&queries) {
        assert_eq!(
            got.as_ref().map(|o| o.results.clone()),
            Some(index.search(q, &params).results),
            "batched query {q} under budget pressure"
        );
    }

    let stats = pool.stats();
    assert!(stats.loads > 0, "windows must actually have been read: {stats:?}");
    assert!(
        stats.evictions > 0 || stats.overcommits > 0,
        "a budget below the index size must have exercised eviction pressure: {stats:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
