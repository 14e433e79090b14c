//! Differential oracle for the crash-safe sharded index store
//! (`tind_core::store`).
//!
//! The store's contract is *byte-identity*: an index packed into any
//! number of shards and loaded back must encode to exactly the bytes of
//! the in-memory build (and of the legacy monolithic index file), and
//! must answer `search`, `search_batch`, and all-pairs discovery
//! identically. The kill sweep then proves the atomic-commit protocol:
//! a pack or repair killed before *every* write/fsync/rename boundary
//! leaves either the previous generation intact or the new one
//! complete — never a readable mix.

mod common;

use std::sync::Arc;

use tind_core::{
    discover_all_pairs, open_store, pack_store, repair_store, verify_store, AllPairsOptions,
    BatchOptions, DatasetDelta, DeltaError, IndexConfig, PackOptions, RepairOptions, StoreError,
    TindIndex,
};
use tind_datagen::{generate, GeneratorConfig};
use tind_model::rng::cases;
use tind_model::Dataset;

use common::strategies::{shard_files, world};

fn store_dir(name: &str) -> std::path::PathBuf {
    common::strategies::store_dir("store-roundtrip", name)
}

/// Every `m` an artifact may have been written at — the fixture's 256,
/// the paper's forward 4096 and today's default — opens at its own `m`,
/// round-trips byte-identically and answers exactly as a default build.
#[test]
fn roundtrip_is_byte_identical_at_every_shard_count() {
    let (dataset, small, params) = world(3);
    let default = TindIndex::build(dataset.clone(), IndexConfig::default());
    let queries: Vec<u32> = (0..dataset.len() as u32).step_by(17).collect();
    let expected_single: Vec<Vec<u32>> =
        queries.iter().map(|&q| default.search(q, &params).results).collect();
    let expected_batch = default.search_batch_with(&queries, &params, &BatchOptions::default());
    let expected_pairs = discover_all_pairs(&default, &params, &AllPairsOptions::default())
        .expect("all-pairs")
        .pairs;
    let paper_m = IndexConfig { m: 4096, ..IndexConfig::default() };
    let paper = TindIndex::build(dataset.clone(), paper_m);
    for index in [small, paper, default] {
        let m = index.config().m;
        let baseline = tind_core::persist::encode_index(&index);
        let answers_as_default = |loaded: &TindIndex, what: &str| {
            assert_eq!(loaded.config().m, m, "{what} opens at the m it was written with");
            for (&q, expected) in queries.iter().zip(&expected_single) {
                assert_eq!(&loaded.search(q, &params).results, expected, "{what}: query {q}");
            }
            let batch = loaded.search_batch_with(&queries, &params, &BatchOptions::default());
            for (got, want) in batch.outcomes.iter().zip(&expected_batch.outcomes) {
                assert_eq!(
                    got.as_ref().map(|o| &o.results),
                    want.as_ref().map(|o| &o.results),
                    "{what}: batch"
                );
            }
            let pairs = discover_all_pairs(loaded, &params, &AllPairsOptions::default())
                .expect("all-pairs on loaded")
                .pairs;
            assert_eq!(pairs, expected_pairs, "{what}: all-pairs");
        };

        // The legacy monolithic file is the third leg of the oracle.
        let legacy =
            std::env::temp_dir().join(format!("tind-store-roundtrip-tests-legacy-{m}.idx"));
        tind_core::persist::write_index_file(&index, &legacy).expect("write legacy");
        let from_file =
            tind_core::persist::read_index_file(&legacy, dataset.clone()).expect("read legacy");
        assert_eq!(tind_core::persist::encode_index(&from_file), baseline);
        answers_as_default(&from_file, &format!("m = {m} index file"));
        std::fs::remove_file(&legacy).ok();

        // 0 = the store's own default split.
        for shards in [1usize, 2, 4, 0] {
            let dir = store_dir(&format!("roundtrip-{m}-{shards}"));
            let report = pack_store(&index, &dir, &PackOptions { shards, ..Default::default() })
                .expect("pack");
            if shards != 0 {
                assert_eq!(report.shards, shards, "requested shard count honored");
            }
            let (loaded, load) = open_store(&dir, dataset.clone()).expect("open");
            assert!(load.is_clean(), "clean store loads without quarantine: {load:?}");
            assert_eq!(load.shards_total, report.shards);
            assert_eq!(
                tind_core::persist::encode_index(&loaded),
                baseline,
                "{shards}-shard store at m = {m} must round-trip byte-identically"
            );
            answers_as_default(&loaded, &format!("m = {m}, {shards}-shard store"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn pack_killed_at_every_boundary_recovers_to_a_whole_generation() {
    let (dataset, index, _params) = world(5);
    let dir = store_dir("kill-pack");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("gen 1");
    let baseline = tind_core::persist::encode_index(&index);

    let mut ops = 0u64;
    let completed = loop {
        let options =
            PackOptions { shards: 4, kill_after_ops: Some(ops), ..Default::default() };
        match pack_store(&index, &dir, &options) {
            Err(StoreError::Killed { .. }) => {
                // The torn commit must be invisible: the store still
                // opens clean and byte-identical (the sweep disposes of
                // orphan temps and uncommitted generations).
                let (recovered, report) = open_store(&dir, dataset.clone())
                    .unwrap_or_else(|e| panic!("kill after {ops} ops broke the store: {e}"));
                assert!(report.is_clean(), "kill after {ops} ops left faults: {report:?}");
                assert_eq!(
                    tind_core::persist::encode_index(&recovered),
                    baseline,
                    "kill after {ops} ops changed the readable index"
                );
                ops += 1;
            }
            Ok(report) => break report,
            Err(other) => panic!("kill after {ops} ops: unexpected error {other}"),
        }
        assert!(ops < 10_000, "kill sweep did not terminate");
    };
    assert!(ops > 4, "the sweep must actually have exercised kill points");
    let (final_index, final_report) = open_store(&dir, dataset).expect("final open");
    assert!(final_report.is_clean());
    assert_eq!(final_report.generation, completed.generation);
    assert_eq!(tind_core::persist::encode_index(&final_index), baseline);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_shard_corruption_is_quarantined_and_repair_restores_byte_identity() {
    let (dataset, index, _params) = world(7);
    let baseline = tind_core::persist::encode_index(&index);
    let dir = store_dir("corrupt-each");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    let shards = shard_files(&dir);
    assert_eq!(shards.len(), 4);

    for (id, shard) in shards.iter().enumerate() {
        let pristine = std::fs::read(shard).expect("read shard");
        // A header byte: an open checks the header CRC (never the matrix
        // words), deep verification hashes the whole payload.
        tind_core::fault::flip_file_byte(shard, 12).expect("flip");

        // Load side: the bad shard is quarantined, not fatal, and the
        // mask names it.
        let (degraded, report) = open_store(&dir, dataset.clone()).expect("degraded open");
        assert_eq!(report.quarantined.len(), 1, "shard {id}");
        assert_eq!(report.quarantined[0].shard, id);
        let mask = degraded.shard_mask().expect("mask present");
        assert_eq!(mask.quarantined().len(), 1);
        assert!(mask.live_fraction() < 1.0);

        // Verify side: the fault carries expected vs actual CRC.
        let verify = verify_store(&dir).expect("verify runs");
        assert_eq!(verify.faults.len(), 1);
        match &verify.faults[0].error {
            StoreError::ShardCorrupt { shard, expected, actual } => {
                assert_eq!(*shard, id);
                assert_ne!(expected, actual);
            }
            other => panic!("shard {id}: expected ShardCorrupt, got {other}"),
        }

        // Repair rebuilds exactly the lost shard, bound to the manifest
        // digest, and the store is byte-identical again.
        let repaired =
            repair_store(&dir, &dataset, &RepairOptions::default()).expect("repair");
        assert_eq!(repaired.rebuilt, vec![id]);
        assert_eq!(std::fs::read(shard).expect("reread"), pristine, "shard bytes restored");
        let (restored, report) = open_store(&dir, dataset.clone()).expect("restored open");
        assert!(report.is_clean());
        assert_eq!(tind_core::persist::encode_index(&restored), baseline);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_renders_shards_that_cross_tile_boundaries_byte_identically() {
    // 5 000 attributes in two shards of 40 and 39 word columns: each is
    // wider than one 32-word build tile, and shard 1 starts mid-tile.
    let dataset = Arc::new(generate(&GeneratorConfig::small(5_000, 43)).dataset);
    let config = IndexConfig { m: 64, ..IndexConfig::reverse_default() };
    let index = TindIndex::build(dataset.clone(), config);
    let dir = store_dir("repair-tiles");
    pack_store(&index, &dir, &PackOptions { shards: 2, ..Default::default() }).expect("pack");
    let shards = shard_files(&dir);
    assert_eq!(shards.len(), 2);
    for (id, shard) in shards.iter().enumerate() {
        let pristine = std::fs::read(shard).expect("read shard");
        // A byte of M_T's words (its section spans bytes ≈ 256..20 736):
        // the header still checks out, so only the deep check behind
        // repair finds it.
        tind_core::fault::flip_file_byte(shard, 4_096).expect("flip");
        let repaired = repair_store(&dir, &dataset, &RepairOptions::default()).expect("repair");
        assert_eq!(repaired.rebuilt, vec![id]);
        assert_eq!(std::fs::read(shard).expect("reread"), pristine, "shard {id} bytes restored");
    }
    let (restored, report) = open_store(&dir, dataset).expect("open");
    assert!(report.is_clean());
    let encode = tind_core::persist::encode_index;
    assert!(encode(&restored) == encode(&index), "restored index differs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_killed_at_every_boundary_never_damages_intact_shards() {
    let (dataset, index, _params) = world(9);
    let baseline = tind_core::persist::encode_index(&index);
    let dir = store_dir("kill-repair");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    let victim = &shard_files(&dir)[1];
    let victim_len = std::fs::metadata(victim).expect("len").len() as usize;

    let mut ops = 0u64;
    loop {
        // (Re-)corrupt the victim, then attempt a repair that dies after
        // `ops` primitives.
        tind_core::fault::flip_file_byte(victim, victim_len / 2).expect("flip");
        match repair_store(&dir, &dataset, &RepairOptions { kill_after_ops: Some(ops) }) {
            Err(StoreError::Killed { .. }) => {
                // Crashed mid-repair: the store must still open (possibly
                // degraded), intact shards must be untouched, and a full
                // repair must still converge.
                let (_, report) = open_store(&dir, dataset.clone()).expect("open after kill");
                for fault in &report.quarantined {
                    assert_eq!(fault.shard, 1, "kill after {ops} ops spread damage");
                }
                repair_store(&dir, &dataset, &RepairOptions::default()).expect("full repair");
                ops += 1;
            }
            Ok(report) => {
                assert_eq!(report.rebuilt, vec![1]);
                break;
            }
            Err(other) => panic!("kill after {ops} ops: unexpected error {other}"),
        }
        assert!(ops < 1_000, "repair kill sweep did not terminate");
    }
    assert!(ops > 0, "the sweep must have exercised at least one kill point");
    let (final_index, report) = open_store(&dir, dataset).expect("final open");
    assert!(report.is_clean());
    assert_eq!(tind_core::persist::encode_index(&final_index), baseline);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_shard_masks_its_attributes_and_keeps_live_results_exact() {
    let (dataset, index, params) = world(11);
    let dir = store_dir("masked-results");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    // Lose the second shard (attributes 64..128).
    std::fs::remove_file(&shard_files(&dir)[1]).expect("remove shard");

    let (degraded, report) = open_store(&dir, dataset.clone()).expect("degraded open");
    assert_eq!(report.quarantined.len(), 1);
    let mask = degraded.shard_mask().expect("masked");
    let fault = &report.quarantined[0];
    assert_eq!((fault.attr_start, fault.attr_end), (64, 128));

    let mut compared = 0;
    for q in (0..dataset.len() as u32).step_by(13) {
        if mask.is_masked(q) {
            continue;
        }
        let expected: Vec<u32> = index
            .search(q, &params)
            .results
            .into_iter()
            .filter(|&rhs| !mask.is_masked(rhs))
            .collect();
        let got = degraded.search(q, &params).results;
        assert_eq!(got, expected, "query {q}: live results must stay exact");
        assert!(
            got.iter().all(|&rhs| !mask.is_masked(rhs)),
            "query {q}: masked attributes must never appear in results"
        );
        compared += 1;
    }
    assert!(compared > 5, "the sweep must have compared real queries");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_generations_and_orphan_temps_are_swept() {
    let (dataset, index, _params) = world(13);
    let dir = store_dir("sweep");
    pack_store(&index, &dir, &PackOptions { shards: 2, ..Default::default() }).expect("gen 1");
    let gen1_shards = shard_files(&dir);
    // Plant an orphan temp, as an interrupted writer would leave behind.
    std::fs::write(dir.join("g9-s0.shard.tmp"), b"torn").expect("plant temp");

    let report =
        pack_store(&index, &dir, &PackOptions { shards: 2, ..Default::default() }).expect("gen 2");
    assert_eq!(report.generation, 2);
    assert!(report.swept_temps >= 1, "orphan temp swept: {report:?}");
    assert!(report.swept_stale >= 1, "stale generation swept: {report:?}");
    for old in &gen1_shards {
        assert!(!old.exists(), "stale shard {} must be gone", old.display());
    }
    assert!(!dir.join("g9-s0.shard.tmp").exists());

    let (loaded, load) = open_store(&dir, dataset).expect("open gen 2");
    assert!(load.is_clean());
    assert_eq!(load.generation, 2);
    assert_eq!(
        tind_core::persist::encode_index(&loaded),
        tind_core::persist::encode_index(&index)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_refuses_the_wrong_dataset() {
    let (_, index, _) = world(15);
    let other = Arc::new(generate(&GeneratorConfig::small(200, 16)).dataset);
    let dir = store_dir("wrong-dataset");
    pack_store(&index, &dir, &PackOptions::default()).expect("pack");
    let err = open_store(&dir, other).expect_err("foreign dataset must be refused");
    assert!(
        matches!(err, StoreError::Mismatch(_)),
        "expected a fingerprint mismatch, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Successor of `base` with attribute `id`'s history rewritten (valid
/// delta input: same timeline, stable ids, append-only dictionary).
fn rewrite(base: &Arc<Dataset>, id: u32) -> Arc<Dataset> {
    let mut b = (**base).clone().into_builder();
    let name = base.attribute(id).name().to_owned();
    let mut h = tind_model::HistoryBuilder::new(name.as_str());
    let v = b.dictionary_mut().intern(&format!("masked-regression-{id}"));
    h.push(0, vec![v]);
    b.upsert_history(h.finish(base.timeline().last()));
    Arc::new(b.build())
}

/// Regression: `ShardMask` × delta. A degraded index (quarantined store
/// shard) must refuse deltas touching masked attributes with a typed
/// error naming the shard and carrying the `tind store repair` hint, and
/// must refuse to grow at all — while a delta confined to live shards
/// still applies, with live results staying exact.
#[test]
fn degraded_index_refuses_masked_deltas_but_applies_live_ones() {
    let (dataset, index, params) = world(17);
    let dir = store_dir("masked-delta");
    pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() }).expect("pack");
    // Lose the second shard (attributes 64..128).
    std::fs::remove_file(&shard_files(&dir)[1]).expect("lose shard");
    let (mut degraded, report) = open_store(&dir, dataset.clone()).expect("degraded open");
    assert_eq!(report.quarantined.len(), 1);

    // Touching an attribute inside the lost range: typed refusal.
    let delta = DatasetDelta::diff(&dataset, rewrite(&dataset, 70)).expect("diff");
    let err = degraded.apply_delta(&delta).expect_err("masked delta must be refused");
    match &err {
        DeltaError::Masked { attr, shard, .. } => {
            assert_eq!(*attr, 70);
            assert_eq!(*shard, 1);
        }
        other => panic!("expected DeltaError::Masked, got {other}"),
    }
    assert!(err.to_string().contains("tind store repair"), "missing repair hint: {err}");

    // Growing a degraded index is refused outright (new columns would
    // have no home in the quarantined layout).
    let mut grower = (*dataset).clone().into_builder();
    let mut h = tind_model::HistoryBuilder::new("masked-regression-appended");
    let v = grower.dictionary_mut().intern("masked-regression-new");
    h.push(3, vec![v]);
    grower.upsert_history(h.finish(dataset.timeline().last()));
    let grow_delta =
        DatasetDelta::diff(&dataset, Arc::new(grower.build())).expect("grow diff");
    let err = degraded.apply_delta(&grow_delta).expect_err("growth must be refused");
    assert!(err.to_string().contains("refusing to grow"), "{err}");

    // A delta confined to live shards applies; the refusals above must
    // not have mutated anything, so it diffs cleanly against the
    // original snapshot.
    let merged = rewrite(&dataset, 5);
    let applied = degraded
        .apply_delta(&DatasetDelta::diff(&dataset, merged.clone()).expect("diff"))
        .expect("live-shard delta applies");
    assert_eq!(applied.touched_attrs, 1);

    // Live results over the merged dataset stay exact: equal to a cold
    // build with masked attributes filtered out.
    let mask = degraded.shard_mask().expect("still degraded");
    let cold = TindIndex::build(merged.clone(), IndexConfig { m: 256, ..IndexConfig::default() });
    let mut compared = 0;
    for q in (0..merged.len() as u32).step_by(13) {
        if mask.is_masked(q) {
            continue;
        }
        let expected: Vec<u32> = cold
            .search(q, &params)
            .results
            .into_iter()
            .filter(|&rhs| !mask.is_masked(rhs))
            .collect();
        assert_eq!(degraded.search(q, &params).results, expected, "query {q}");
        compared += 1;
    }
    assert!(compared > 5, "the sweep must have compared real queries");
    std::fs::remove_dir_all(&dir).ok();
}

/// Randomized restatement of the kill sweep: any seed, any shard
/// count, any kill point — a killed pack leaves a store that opens
/// clean and byte-identical to the committed generation.
#[test]
fn prop_killed_pack_never_tears_the_store() {
    cases("prop_killed_pack_never_tears_the_store", 12, |rng| {
        let seed = rng.range(0..500u64);
        let shards = rng.range(1..5usize);
        let kill_after = rng.range(0..40u64);
        let dataset = Arc::new(generate(&GeneratorConfig::small(120, seed)).dataset);
        let config = IndexConfig { m: 128, ..IndexConfig::default() };
        let index = TindIndex::build(dataset.clone(), config);
        let dir = store_dir(&format!("prop-{seed}-{shards}-{kill_after}"));
        pack_store(&index, &dir, &PackOptions { shards, ..Default::default() }).expect("gen 1");
        let baseline = tind_core::persist::encode_index(&index);

        let options =
            PackOptions { shards, kill_after_ops: Some(kill_after), ..Default::default() };
        match pack_store(&index, &dir, &options) {
            Err(StoreError::Killed { .. }) | Ok(_) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
        let (recovered, report) = open_store(&dir, dataset).expect("recoverable");
        assert!(report.is_clean());
        assert_eq!(tind_core::persist::encode_index(&recovered), baseline);
        std::fs::remove_dir_all(&dir).ok();
    });
}
