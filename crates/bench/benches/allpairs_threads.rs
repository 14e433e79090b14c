//! All-pairs discovery thread scaling (§4.2.2: parallelize across
//! queries).

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tind_bench::bench_dataset;
use tind_core::{discover_all_pairs, AllPairsOptions, IndexConfig, TindIndex, TindParams};

fn bench_allpairs_threads(c: &mut Criterion) {
    let dataset = bench_dataset(1500, 31);
    let index = TindIndex::build(dataset.clone(), IndexConfig::default());
    let params = TindParams::paper_default();

    let mut group = c.benchmark_group("allpairs_threads");
    group.measurement_time(Duration::from_secs(5)).sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |bench, &t| {
            bench.iter(|| {
                let out = discover_all_pairs(
                    &index,
                    &params,
                    &AllPairsOptions { threads: t, ..AllPairsOptions::default() },
                )
                .expect("no checkpointing configured, discovery cannot fail");
                black_box(out.pairs.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_allpairs_threads);
criterion_main!(benches);
