//! Forward searches on a windowed store under a budget of an eighth of
//! the store's bytes, single-threaded, uniform keys: µs per search and
//! window loads, evictions and bytes loaded per search.
//!
//! Build it as an example of a checkout (copy it to `examples/`), with
//! `TILE_BYTES` in `crates/core/src/store.rs` set to the width to probe:
//!
//!     cargo build --release --example tile_probe
//!     target/release/examples/tile_probe D10K.tind STORE_DIR 2000 5
//!
//! It packs `STORE_DIR` from `D10K.tind` first (default config), warms
//! the pool with 500 searches, then times ROUNDS rounds of QUERIES
//! searches and prints the median and fastest round.
use std::sync::Arc;
use std::time::Instant;

use tind_core::{
    open_store_with, pack_store, IndexConfig, OpenOptions, PackOptions, StoreBacking, TindIndex,
    TindParams,
};
use tind_model::{MemoryBudget, WeightFn};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = std::path::Path::new(&args[1]);
    let dataset = Arc::new(tind_model::binio::read_dataset_file(path).expect("dataset"));
    let dir = std::path::PathBuf::from(&args[2]);
    let queries: usize = args[3].parse().expect("QUERIES");
    let rounds: usize = args[4].parse().expect("ROUNDS");
    let _ = std::fs::remove_dir_all(&dir);
    let index = TindIndex::build(dataset.clone(), IndexConfig::default());
    pack_store(&index, &dir, &PackOptions::default()).expect("pack");
    drop(index);
    let disk: u64 = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum();
    let params = TindParams::weighted(3.0, 7, WeightFn::constant_one());
    let budget = MemoryBudget::new(disk.div_ceil(8) as usize);
    let open = OpenOptions { backing: StoreBacking::Windowed, memory_budget: Some(budget) };
    let (index, report) = open_store_with(&dir, dataset.clone(), &open).expect("open");
    let pool = report.window_pool.expect("windowed pool");
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % dataset.len() as u64) as u32
    };
    for _ in 0..500 {
        index.search(next(), &params);
    }
    let before = pool.stats();
    let mut times = Vec::new();
    for _ in 0..rounds {
        let started = Instant::now();
        for _ in 0..queries {
            std::hint::black_box(index.search(next(), &params));
        }
        times.push(started.elapsed().as_secs_f64() * 1e6 / queries as f64);
    }
    let after = pool.stats();
    times.sort_by(f64::total_cmp);
    let n = (queries * rounds) as f64;
    println!(
        "disk={disk} us_per_search median={:.1} min={:.1} loads/q={:.2} evictions/q={:.2} bytes/q={:.0}",
        times[rounds / 2],
        times[0],
        (after.loads - before.loads) as f64 / n,
        (after.evictions - before.evictions) as f64 / n,
        (after.bytes_loaded - before.bytes_loaded) as f64 / n,
    );
}
