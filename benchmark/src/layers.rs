//! In-process per-layer probes for the traced run: the harness's own
//! clocks and spans around calls into each module's public functions,
//! plus counters the library already returns (`SearchStats`,
//! `WindowStats`). README.md lists every function linked here — a rename
//! of one of them needs a benchmark change first.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tind_bloom::BitVec;
use tind_core::persist::write_index_file;
use tind_core::required::required_values;
use tind_core::{
    discover_all_pairs, open_store_with, pack_store, AllPairsOptions, BatchOptions, BuildOptions,
    IndexConfig, OpenOptions, PackOptions, QueryPlan, ShardFormat, StoreBacking, TindIndex,
    TindParams, ValidationScratch,
};
use tind_model::{Dataset, MemoryBudget, WeightFn};
use tind_serve::Engine;

use crate::trace::{self, span};
use crate::util::{disk_bytes, mean, median, nproc, quantile, timed, Rng};
use crate::{Ctx, RunResult};

/// Queries per probe loop at full scale (fewer when the dataset is small).
const PROBE_QUERIES: usize = 2000;

pub fn paper_params() -> TindParams {
    TindParams::weighted(3.0, 7, WeightFn::constant_one())
}

fn probe_queries(n_attrs: usize, rng: &mut Rng) -> Vec<u32> {
    (0..PROBE_QUERIES.min(n_attrs))
        .map(|_| rng.below(n_attrs as u64) as u32)
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` per query, in µs, each call inside a span.
fn per_query_us<T>(name: &'static str, queries: &[u32], mut f: impl FnMut(u32) -> T) -> Vec<f64> {
    queries
        .iter()
        .map(|&q| {
            let start = Instant::now();
            std::hint::black_box(span(name, || f(q)));
            us(start.elapsed())
        })
        .collect()
}

/// `core::reverse` and the serve crate's request parsing, on the serving
/// workloads' dataset.
pub fn serve_probes(
    res: &mut RunResult,
    engine: &Engine,
    dataset: &Arc<Dataset>,
    rng: &mut Rng,
) -> Result<(), String> {
    let params = paper_params();
    let queries = probe_queries(dataset.len(), rng);
    let reverse = engine.reverse();
    let times = per_query_us(
        "core.reverse_search",
        &queries[..queries.len().min(500)],
        |q| reverse.reverse_search(q, &params),
    );
    res.record("reverse.query_us_p50", median(&times), times.len());

    // `http::read_request` + `router::route` over a loopback pair: the
    // cost of turning bytes on a socket into a routable call.
    let parse = || -> std::io::Result<Vec<f64>> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let limits = tind_serve::http::HttpLimits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_budget: Duration::from_secs(2),
        };
        let mut times = Vec::new();
        for i in 0..200 {
            let mut client = std::net::TcpStream::connect(addr)?;
            let body = format!("{{\"query\":\"{i}\"}}");
            write!(
                client,
                "POST /search HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )?;
            let (mut stream, _) = listener.accept()?;
            let start = Instant::now();
            let routed = span("serve.http_parse", || {
                tind_serve::http::read_request(&mut stream, &limits)
                    .ok()
                    .map(|req| tind_serve::router::route(&req).is_ok())
            });
            if routed == Some(true) {
                times.push(us(start.elapsed()));
            }
        }
        Ok(times)
    };
    let times = parse().map_err(|e| format!("serve.http_parse_us: loopback pair: {e}"))?;
    res.record("serve.http_parse_us", median(&times), times.len());
    Ok(())
}

/// `core::store` on the cold workload's dataset: pack, open under each
/// backing, first query, and window traffic under the ⅛ budget.
pub fn store_probes(
    res: &mut RunResult,
    ctx: &Ctx,
    dataset: &Arc<Dataset>,
    rng: &mut Rng,
) -> Result<(), String> {
    let params = paper_params();
    let dir = ctx.scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let index = TindIndex::build_with(
        dataset.clone(),
        IndexConfig::default(),
        &BuildOptions::default(),
    );
    let options = PackOptions {
        format: ShardFormat::Arena,
        ..PackOptions::default()
    };
    let (packed, pack_s) = span("core.store.pack_store", || {
        timed(|| pack_store(&index, &dir, &options))
    });
    packed.map_err(|e| format!("pack_store: {e}"))?;
    res.record("store.pack_ms", pack_s * 1e3, 1);
    drop(index);

    let budget = disk_bytes(&dir).div_ceil(8) as usize;
    let queries = probe_queries(dataset.len(), rng);
    for (backing, open_name, first_name) in [
        (
            StoreBacking::Mmap,
            "store.open_mmap_ms",
            "store.first_query_mmap_us",
        ),
        (
            StoreBacking::Windowed,
            "store.open_windowed_ms",
            "store.first_query_windowed_us",
        ),
    ] {
        let open = OpenOptions {
            backing,
            memory_budget: Some(MemoryBudget::new(budget)),
        };
        let (opened, open_s) = span("core.store.open_store_with", || {
            timed(|| open_store_with(&dir, dataset.clone(), &open))
        });
        let (index, report) = opened.map_err(|e| format!("open_store_with: {e}"))?;
        res.record(open_name, open_s * 1e3, 1);
        let first = per_query_us("core.search", &queries[..1], |q| index.search(q, &params));
        res.record(first_name, first[0], 1);
        if let Some(pool) = &report.window_pool {
            let before = pool.stats();
            per_query_us("core.search", &queries, |q| index.search(q, &params));
            let after = pool.stats();
            let n = queries.len();
            res.record(
                "store.window_loads_per_query",
                (after.loads - before.loads) as f64 / n as f64,
                n,
            );
            res.record(
                "store.window_evictions_per_query",
                (after.evictions - before.evictions) as f64 / n as f64,
                n,
            );
            res.record(
                "store.window_overcommits",
                (after.overcommits - before.overcommits) as f64,
                n,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// What [`core_probes`] measured that the offline workload's `cli.*`
/// attribution needs.
pub struct CoreTimes {
    pub dataset_load_s: f64,
    pub index_build_s: f64,
    pub persist_write_s: f64,
    pub discover_s: f64,
}

/// `model`, `bloom`, `core::{index, search, validate, allpairs}` and
/// `persist` on the offline workload's dataset.
pub fn core_probes(
    res: &mut RunResult,
    ctx: &Ctx,
    data_file: &std::path::Path,
    genuine: &[(u32, u32)],
    rng: &mut Rng,
) -> Result<CoreTimes, String> {
    let params = paper_params();
    let (dataset, dataset_load_s) = span("model.read_dataset_file", || {
        timed(|| tind_model::binio::read_dataset_file(data_file))
    });
    let dataset = Arc::new(dataset.map_err(|e| format!("read dataset: {e}"))?);
    res.record("model.dataset_load_ms", dataset_load_s * 1e3, 1);
    let n = dataset.len();
    let timeline = dataset.timeline();

    // core::index — the forward index exactly as the CLI verbs size it.
    let config = IndexConfig::default();
    let build = |threads: usize| {
        let options = BuildOptions {
            threads,
            ..BuildOptions::default()
        };
        span("core.index.build_with", || {
            timed(|| TindIndex::build_with(dataset.clone(), config.clone(), &options))
        })
    };
    let (_, build_1t_s) = build(1);
    let (index, index_build_s) = build(nproc());
    res.record("index.build_ms", index_build_s * 1e3, 1);
    res.record("index.build_1t_ms", build_1t_s * 1e3, 1);
    let (_, diag_s) = span("core.index.diagnostics", || timed(|| index.diagnostics()));
    res.record("index.diagnostics_ms", diag_s * 1e3, 1);
    res.record("index.bloom_bytes", index.bloom_bytes() as f64, 1);
    let index_file = ctx.scratch.join("probe.tidx");
    let (written, persist_write_s) = span("core.persist.write_index_file", || {
        timed(|| write_index_file(&index, &index_file))
    });
    written.map_err(|e| format!("write_index_file: {e}"))?;
    res.record("persist.write_ms", persist_write_s * 1e3, 1);
    let _ = std::fs::remove_file(&index_file);

    // bloom — stage-1 sweeps in isolation, on the queries' real
    // required-value filters.
    let queries = probe_queries(n, rng);
    let m_t = index.m_t();
    let filters: Vec<_> = queries
        .iter()
        .map(|&q| m_t.query_filter(&required_values(dataset.attribute(q), &params, timeline)))
        .collect();
    let mut candidates = BitVec::ones(n);
    let (_, sweep_s) = span("bloom.narrow_to_supersets", || {
        timed(|| {
            for f in &filters {
                candidates.set_all();
                m_t.narrow_to_supersets(f, &mut candidates);
                std::hint::black_box(&candidates);
            }
        })
    });
    res.record(
        "bloom.sweep_ns_per_query",
        sweep_s * 1e9 / filters.len() as f64,
        filters.len(),
    );
    let mut batch: Vec<BitVec> = (0..64).map(|_| BitVec::ones(n)).collect();
    let (_, batch_s) = span("bloom.narrow_batch_to_supersets", || {
        timed(|| {
            for chunk in filters.chunks(64) {
                for c in &mut batch[..chunk.len()] {
                    c.set_all();
                }
                m_t.narrow_batch_to_supersets(chunk, &mut batch[..chunk.len()]);
                std::hint::black_box(&batch);
            }
        })
    });
    res.record(
        "bloom.sweep_batch_ns_per_query",
        batch_s * 1e9 / filters.len() as f64,
        filters.len(),
    );
    // The subset direction runs on M_R of the reverse-sized index, as
    // `reverse_search` does.
    let reverse = TindIndex::build_with(
        dataset.clone(),
        IndexConfig::reverse_default(),
        &BuildOptions::default(),
    );
    if let Some(m_r) = reverse.m_r() {
        let reverse_filters: Vec<_> = queries
            .iter()
            .map(|&q| m_r.query_filter(&dataset.attribute(q).value_universe()))
            .collect();
        let (_, subset_s) = span("bloom.narrow_to_subsets", || {
            timed(|| {
                for f in &reverse_filters {
                    candidates.set_all();
                    m_r.narrow_to_subsets(f, &mut candidates);
                    std::hint::black_box(&candidates);
                }
            })
        });
        res.record(
            "bloom.subset_sweep_ns_per_query",
            subset_s * 1e9 / reverse_filters.len() as f64,
            reverse_filters.len(),
        );
    }
    // Computed, not measured: one row of n bits per set bit of the filter.
    let row_bytes = (n.div_ceil(64) * 8) as f64;
    let rows = mean(
        &filters
            .iter()
            .map(|f| f.count_ones() as f64)
            .collect::<Vec<_>>(),
    );
    res.record(
        "bloom.sweep_bytes_per_query",
        rows * row_bytes,
        filters.len(),
    );

    // core::search — the four-stage pipeline per query, with the stage
    // counters it returns. Run twice, recorder on and off, for the
    // tracing overhead.
    let mut stats = Vec::with_capacity(queries.len());
    let (times, traced_s) = timed(|| {
        per_query_us("core.search", &queries, |q| {
            let outcome = index.search(q, &params);
            stats.push(outcome.stats.clone());
        })
    });
    trace::set_enabled(false);
    let (_, untraced_s) =
        timed(|| per_query_us("core.search", &queries, |q| index.search(q, &params)));
    trace::set_enabled(true);
    res.record(
        "obs.trace_overhead_share",
        (traced_s - untraced_s) / untraced_s,
        queries.len(),
    );
    let nq = queries.len();
    res.record("search.query_us_p50", median(&times), nq);
    res.record("search.query_us_p99", quantile(&times, 0.99), nq);
    let total =
        |f: &dyn Fn(&tind_core::SearchStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let validate_ns = stats.iter().map(|s| s.validate_nanos).sum::<u64>() as f64;
    res.record(
        "search.stage4_share",
        validate_ns / (times.iter().sum::<f64>() * 1e3),
        nq,
    );
    res.record(
        "search.cands_after_required",
        total(&|s| s.after_required) / nq as f64,
        nq,
    );
    res.record(
        "search.cands_after_slices",
        total(&|s| s.after_slices) / nq as f64,
        nq,
    );
    res.record(
        "search.cands_after_exact",
        total(&|s| s.after_exact) / nq as f64,
        nq,
    );
    let validations = total(&|s| s.validations_run);
    res.record("search.validations_run", validations / nq as f64, nq);
    res.record(
        "search.early_exit_share",
        total(&|s| s.early_valid_exits + s.early_invalid_exits) / validations.max(1.0),
        nq,
    );
    let batch_ids = &queries[..queries.len().min(256)];
    let (_, batch256_s) = span("core.search_batch_with", || {
        timed(|| {
            index.search_batch_with(
                batch_ids,
                &params,
                &BatchOptions {
                    threads: nproc(),
                    ..BatchOptions::default()
                },
            )
        })
    });
    res.record("search.batch256_ms", batch256_s * 1e3, batch_ids.len());

    // core::validate — plan build, then plan validation over the planted
    // genuine pairs and as many near misses (same query, next column).
    let plan_times = per_query_us(
        "core.validate.plan_build",
        &queries[..queries.len().min(500)],
        |q| QueryPlan::new(dataset.attribute(q), &params, timeline),
    );
    res.record(
        "validate.plan_build_us",
        median(&plan_times),
        plan_times.len(),
    );
    let mut scratch = ValidationScratch::new();
    let pairs = &genuine[..genuine.len().min(PROBE_QUERIES)];
    let (_, pair_s) = span("core.validate.plan_validate", || {
        timed(|| {
            for &(lhs, rhs) in pairs {
                let plan = QueryPlan::new(dataset.attribute(lhs), &params, timeline);
                let miss = (rhs as usize + 1) % n;
                std::hint::black_box(plan.validate(dataset.attribute(rhs), &mut scratch));
                std::hint::black_box(plan.validate(dataset.attribute(miss as u32), &mut scratch));
            }
        })
    });
    // Plan builds are inside the loop; subtract their measured median.
    let plan_ns = median(&plan_times) * 1e3;
    res.record(
        "validate.pair_ns",
        ((pair_s * 1e9 / pairs.len().max(1) as f64) - plan_ns).max(0.0) / 2.0,
        pairs.len() * 2,
    );

    // core::allpairs.
    let options = AllPairsOptions {
        threads: nproc(),
        ..AllPairsOptions::default()
    };
    let (found, discover_s) = span("core.discover_all_pairs", || {
        timed(|| discover_all_pairs(&index, &params, &options))
    });
    found.map_err(|e| format!("discover_all_pairs: {e}"))?;
    res.record("allpairs.discover_ms", discover_s * 1e3, 1);
    res.record("allpairs.queries_per_s", n as f64 / discover_s, n);

    Ok(CoreTimes {
        dataset_load_s,
        index_build_s,
        persist_write_s,
        discover_s,
    })
}
