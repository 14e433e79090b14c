//! Times the single-query sweeps in-process on a generated dataset of
//! ATTRS attributes: the values probe `refresh_pairs` runs against a
//! 100-column touched matrix (`narrow_to_supersets_of_values`), `M_T`
//! superset sweeps and `M_R` subset sweeps; ns per call, median of
//! ROUNDS rounds.
//!
//! Build it as an example of a checkout (copy it to `examples/`):
//!
//!     cargo build --release --example sweep_probe
//!     taskset -c 1 target/release/examples/sweep_probe 10000 5
use std::sync::Arc;
use std::time::Instant;

use tind_bloom::{BitVec, BloomMatrixBuilder};
use tind_core::{BuildOptions, IndexConfig, TindIndex, TindParams};
use tind_datagen::{generate, GeneratorConfig};
use tind_model::WeightFn;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let attrs: usize = args[1].parse().unwrap();
    let rounds: usize = args[2].parse().unwrap();
    let dataset = Arc::new(generate(&GeneratorConfig::small(attrs, 11)).dataset);
    let index = TindIndex::build(dataset.clone(), IndexConfig::default());
    let params = TindParams::weighted(3.0, 7, WeightFn::constant_one());
    let timeline = dataset.timeline();
    let req: Vec<Vec<u32>> = (0..attrs as u32)
        .map(|q| tind_core::required::required_values(dataset.attribute(q), &params, timeline))
        .collect();
    let m_t = index.m_t();
    // The touched matrix: 100 columns, evenly spaced over the dataset.
    let ids: Vec<u32> = (0..attrs as u32).step_by(attrs / 100).take(100).collect();
    let mut b = BloomMatrixBuilder::new(m_t.m(), ids.len(), m_t.k_hashes());
    for (c, &id) in ids.iter().enumerate() {
        b.insert_column(c, index.universe(id));
    }
    let touched = b.build();
    let filters: Vec<_> = req.iter().map(|r| m_t.query_filter(r)).collect();
    let reverse =
        TindIndex::build_with(dataset.clone(), IndexConfig::reverse_default(), &BuildOptions::default());
    let m_r = reverse.m_r().unwrap();
    let rfilters: Vec<_> = (0..attrs as u32)
        .map(|q| m_r.query_filter(&dataset.attribute(q).value_universe()))
        .collect();
    let (mut a, mut s, mut r) = (vec![], vec![], vec![]);
    let mut probe = BitVec::zeros(ids.len());
    let mut cands = BitVec::ones(attrs);
    let mut sink = 0usize;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..50 {
            for v in &req {
                probe.set_all();
                touched.narrow_to_supersets_of_values(v, &mut probe);
                sink += probe.count_ones();
            }
        }
        a.push(t.elapsed().as_secs_f64() * 1e9 / (50 * attrs) as f64);
        let t = Instant::now();
        for f in &filters {
            cands.set_all();
            m_t.narrow_to_supersets(f, &mut cands);
            sink += cands.count_ones();
        }
        s.push(t.elapsed().as_secs_f64() * 1e9 / attrs as f64);
        let t = Instant::now();
        for f in &rfilters {
            cands.set_all();
            m_r.narrow_to_subsets(f, &mut cands);
            sink += cands.count_ones();
        }
        r.push(t.elapsed().as_secs_f64() * 1e9 / attrs as f64);
    }
    println!(
        "values_probe_ns {:.0}  mt_superset_ns {:.0}  mr_subset_ns {:.0}  (sink {sink})",
        median(a),
        median(s),
        median(r)
    );
}
