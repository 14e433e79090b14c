//! Corpus and parameter generators shared by the workspace test suites
//! (`proptests`, `validation_kernel`, `store_roundtrip`,
//! `delta_equivalence`, `parallel_equivalence`).
//!
//! Two tiers: plain constructors (`dataset_of`, `world`, `weight_grid`,
//! ...) and the seeded generators the property loops
//! (`tind::model::rng::cases`) draw raw version structures from
//! ([`history`], [`histories`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tind::core::{IndexConfig, TindIndex, TindParams};
use tind::datagen::{generate, GeneratorConfig};
use tind::model::rng::Rng;
use tind::model::{
    AttrId, AttributeHistory, Dataset, DatasetBuilder, HistoryBuilder, Timeline, ValueId, WeightFn,
};

/// The fixed small timeline every random-history suite runs on.
pub const TIMELINE: u32 = 60;

/// One attribute history as `(start, value-set)` runs.
pub type Versions = Vec<(u32, Vec<ValueId>)>;

/// Canonicalizes raw generated runs: chronological order, one version
/// per timestamp.
pub fn canon(mut versions: Versions) -> Versions {
    versions.sort_by_key(|(t, _)| *t);
    versions.dedup_by_key(|(t, _)| *t);
    versions
}

/// One arbitrary history behind every random-history suite: between 1
/// and 5 versions, starts in `0..TIMELINE-5`, up to 5 values each from
/// the 12-id universe `dataset_of` interns. Canonicalized.
pub fn history(rng: &mut Rng) -> Versions {
    let versions = (0..rng.range(1..6usize))
        .map(|_| {
            let start = rng.range(0..TIMELINE - 5);
            (start, (0..rng.range(0..6usize)).map(|_| rng.range(0..12u32)).collect())
        })
        .collect();
    canon(versions)
}

/// Between `min` and `max - 1` arbitrary histories.
pub fn histories(rng: &mut Rng, min: usize, max: usize) -> Vec<Versions> {
    (0..rng.range(min..max)).map(|_| history(rng)).collect()
}

/// Builds one history; the attribute stays observed through `last` (or
/// its final version's start, whichever is later).
pub fn build_history(name: &str, versions: &[(u32, Vec<ValueId>)], last: u32) -> AttributeHistory {
    let mut b = HistoryBuilder::new(name);
    for (t, values) in versions {
        b.push(*t, values.clone());
    }
    b.finish(last.max(versions.last().expect("non-empty").0))
}

/// Assembles generated histories into a dataset over [`TIMELINE`],
/// pre-interning ids 0..12 so the strategy's raw `ValueId`s are
/// dictionary-valid.
pub fn dataset_of(histories: Vec<Versions>) -> Arc<Dataset> {
    let mut builder = DatasetBuilder::new(Timeline::new(TIMELINE));
    for v in 0..12 {
        builder.dictionary_mut().intern(&format!("value-{v}"));
    }
    for (i, versions) in histories.into_iter().enumerate() {
        builder.add_history(build_history(&format!("attr-{i}"), &versions, TIMELINE - 1));
    }
    Arc::new(builder.build())
}

/// The weight-function grid differential checks sweep: the closed-form
/// families plus an arbitrary per-timestamp table.
pub fn weight_grid(tl: Timeline) -> Vec<WeightFn> {
    let custom: Vec<f64> = (0..tl.len()).map(|t| 0.25 + 1.5 * f64::from(t % 7) / 7.0).collect();
    vec![
        WeightFn::constant_one(),
        WeightFn::uniform_normalized(tl),
        WeightFn::exponential(0.9, tl),
        WeightFn::linear(tl),
        WeightFn::piecewise(&custom),
    ]
}

/// A paper-shaped dataset on a shortened timeline (the former bench
/// fixture; `parallel_equivalence` pins byte-identity on it).
pub fn bench_dataset(num_attributes: usize, seed: u64) -> Arc<Dataset> {
    let mut cfg = GeneratorConfig::paper_shaped(num_attributes, seed);
    cfg.timeline_days = 1000;
    cfg.mean_lifespan_days = 400.0;
    Arc::new(generate(&cfg).dataset)
}

/// Deterministic query batches for the batch/per-query differential
/// tests. Strided so batches overlap but are not identical; duplicate ids
/// within a batch are allowed (the batch API must handle them).
pub fn bench_query_batches(
    num_attributes: usize,
    batch_size: usize,
    batches: usize,
) -> Vec<Vec<AttrId>> {
    assert!(num_attributes > 0, "need a non-empty dataset");
    (0..batches)
        .map(|b| {
            (0..batch_size).map(|i| ((b * 131 + i * 17) % num_attributes) as AttrId).collect()
        })
        .collect()
}

/// A generated 200-attribute world with a built index: four 64-column
/// blocks, so shard counts 1, 2, 4 are all distinct partitions (and 4
/// is the maximum the layout allows).
pub fn world(seed: u64) -> (Arc<Dataset>, TindIndex, TindParams) {
    let dataset = Arc::new(generate(&GeneratorConfig::small(200, seed)).dataset);
    let config = IndexConfig { m: 256, ..IndexConfig::default() };
    let index = TindIndex::build(dataset.clone(), config);
    (dataset, index, TindParams::paper_default())
}

/// A fresh (pre-wiped) store directory under the system temp dir,
/// namespaced per suite so concurrent test binaries never collide.
pub fn store_dir(suite: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tind-{suite}-tests")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `.shard` files of a store directory, sorted by name.
pub fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readdir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "shard"))
        .collect();
    files.sort();
    files
}
