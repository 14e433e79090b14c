//! Crash-safe sharded store, end to end: pack an index into shards,
//! lose one shard to corruption, open the store **degraded** (the lost
//! attribute range is masked, everything else still answers), repair it
//! from the dataset, and prove the repaired store is byte-identical to
//! the original build.
//!
//! ```sh
//! cargo run --example store_degraded
//! ```

use std::sync::Arc;

use tind::core::fault::flip_file_byte;
use tind::core::{
    open_store, pack_store, repair_store, verify_store, IndexConfig, PackOptions, RepairOptions,
    TindIndex, TindParams,
};
use tind::datagen::{generate, GeneratorConfig};

fn main() {
    // 200 attributes → four 64-column blocks, so the store can hold up
    // to four shards; shard 1 will cover attribute ids 64..128.
    let dataset = Arc::new(generate(&GeneratorConfig::small(200, 7)).dataset);
    let config = IndexConfig { m: 1024, ..IndexConfig::default() };
    let index = TindIndex::build(dataset.clone(), config);
    let baseline = tind::core::persist::encode_index(&index);
    let params = TindParams::paper_default();

    let dir = std::env::temp_dir().join("tind-example-store");
    let _ = std::fs::remove_dir_all(&dir);

    // --- Pack. Each shard is written to a temp file, fsynced, and
    // renamed into place; the manifest rename is the commit point.
    let packed = pack_store(&index, &dir, &PackOptions { shards: 4, ..Default::default() })
        .expect("pack");
    println!(
        "packed generation {} into {} — {} shards, {} bytes",
        packed.generation,
        dir.display(),
        packed.shards,
        packed.bytes_written
    );

    // --- Corrupt shard 1 with a single flipped byte, the way bit rot or
    // a torn write would. The byte sits in the shard header, which an open
    // checks; rot inside the matrix words is `verify_store`'s to find.
    let victim = dir.join(format!("g{}-s1.shard", packed.generation));
    flip_file_byte(&victim, 12).expect("flip");

    let report = verify_store(&dir).expect("manifest still readable");
    for fault in &report.faults {
        println!("verify: {fault}");
    }

    // --- Open degraded. The corrupt shard is quarantined: its attribute
    // range is masked on the returned index, every other shard loads.
    let (degraded, load) = open_store(&dir, dataset.clone()).expect("open degraded");
    let mask = degraded.shard_mask().expect("mask present");
    println!(
        "opened degraded: {}/{} shards live ({:.0}% of columns answer)",
        load.shards_total - load.quarantined.len(),
        load.shards_total,
        mask.live_fraction() * 100.0
    );

    // A query outside the lost range still answers — minus any masked
    // candidates, which the caller can see and report.
    let live_query = 5; // attribute id 5 lives in shard 0
    let outcome = degraded.search(live_query, &params);
    println!(
        "search('{}') under quarantine: {} results (masked candidates excluded)",
        dataset.attribute(live_query).name(),
        outcome.results.len()
    );
    // A query inside the lost range is detectably unanswerable, not
    // silently wrong.
    let lost_query = 70; // attribute id 70 lives in shard 1
    assert!(degraded.is_masked(lost_query));
    println!(
        "search('{}') would be refused: its columns are in quarantined shard {}",
        dataset.attribute(lost_query).name(),
        mask.quarantined()[0].shard
    );

    // --- Repair: rebuild only the lost shard from the dataset. The
    // rebuilt bytes must hash to the digest the manifest committed, so a
    // successful repair is provably the original shard.
    let repaired =
        repair_store(&dir, &dataset, &RepairOptions::default()).expect("repair");
    println!(
        "repaired: rebuilt shard(s) {:?}, {} already intact, generation still {}",
        repaired.rebuilt, repaired.intact, repaired.generation
    );

    let (restored, load) = open_store(&dir, dataset).expect("open repaired");
    assert!(load.is_clean());
    assert_eq!(tind::core::persist::encode_index(&restored), baseline);
    println!("restored store is byte-identical to the original build");
}
