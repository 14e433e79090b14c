//! Keeping tIND results current as the data evolves — semi-naive delta
//! maintenance (see `tind_core::delta`).
//!
//! Wikipedia never stops changing: new tables appear and existing columns
//! gain versions. Instead of rebuilding the whole Bloom-matrix index per
//! edit, the successor dataset is diffed against the one the index was
//! built on and only the columns of the touched attributes are updated,
//! in place — byte-identical to a cold rebuild.
//!
//! ```sh
//! cargo run --release --example evolving_dataset
//! ```

use std::sync::Arc;
use std::time::Instant;

use tind::core::persist::encode_index;
use tind::core::{DatasetDelta, IndexConfig, TindIndex, TindParams};
use tind::datagen::{generate, GeneratorConfig};
use tind::model::{HistoryBuilder, WeightFn};

fn main() {
    // Start from a generated corpus...
    let base = Arc::new(generate(&GeneratorConfig::small(400, 11)).dataset);
    let timeline_end = base.timeline().last();
    let start = Instant::now();
    let mut index = TindIndex::build(base.clone(), IndexConfig::default());
    println!("base index over {} attributes built in {:.2?}", base.len(), start.elapsed());

    let params = TindParams::weighted(10.0, 14, WeightFn::constant_one());
    let (query, _) = base.attribute_by_name("derived-0-of-0").expect("exists");
    let before = index.search(query, &params).results;
    println!("\n'derived-0-of-0' is included in {} attributes", before.len());

    // ... a new page with a table appears (a fan wiki mirroring source-0),
    // and an existing attribute gains a version (someone edits the table).
    let mut successor = (*base).clone().into_builder();
    let mut mirror = HistoryBuilder::new("fan-wiki mirror");
    mirror.push(0, base.attribute(0).value_universe());
    successor.upsert_history(mirror.finish(timeline_end));

    let source = base.attribute(0);
    let mut edited = HistoryBuilder::new(source.name());
    for v in source.versions().iter().filter(|v| v.start < timeline_end) {
        edited.push(v.start, v.values.clone());
    }
    let mut extended = source.values_at(timeline_end).to_vec();
    extended.push(successor.dictionary_mut().intern("Brand-New-Entity"));
    edited.push(timeline_end, extended);
    successor.upsert_history(edited.finish(timeline_end));
    let merged = Arc::new(successor.build());

    // Fold the difference into the live index.
    let start = Instant::now();
    let delta = DatasetDelta::diff(&base, merged.clone()).expect("valid successor");
    let report = index.apply_delta(&delta).expect("delta applies");
    println!(
        "\napplied the delta in {:.2?}: {} column(s) updated ({} new), {} block(s) dirtied",
        start.elapsed(),
        report.touched_attrs,
        report.new_attrs,
        report.blocks_rewritten
    );

    let after = index.search(query, &params).results;
    println!(
        "'derived-0-of-0' is now included in {} attributes: {:?}",
        after.len(),
        after
            .iter()
            .map(|&id| merged.attribute(id).name())
            .filter(|n| n.contains("fan-wiki"))
            .collect::<Vec<_>>()
    );

    // The maintained index is the index a cold rebuild would produce.
    let start = Instant::now();
    let cold = TindIndex::build(merged, IndexConfig::default());
    println!("\ncold rebuild over {} attributes took {:.2?}", cold.dataset().len(), start.elapsed());
    assert_eq!(encode_index(&index), encode_index(&cold), "delta must equal a cold rebuild");
    assert_eq!(after, cold.search(query, &params).results);
    println!("maintained index byte-identical to the cold rebuild ✓");
}
