//! Observability overhead gate: spans, metrics and live request tracing
//! must each cost under 2 % of the validate kernel.
//!
//! The validate kernel is the hottest loop the obs layer touches, and
//! `core::search` instruments it *per query* (one stage-4 span plus a
//! handful of counter/histogram updates), never per candidate. This
//! binary times one query's worth of the kernel (the plan-reuse sweep
//! over every attribute) and one query's worth of exactly that
//! instrumentation — bare, and with a live trace context on top — and
//! asserts the instrumentation is under 2 % of the kernel. The two sides
//! are timed apart on purpose: on a shared host the sweep's own timing
//! moves by several percent between runs, which a sweep-with minus
//! sweep-without difference cannot tell from a 2 % overhead, while the
//! instrumentation alone reads the same few hundred nanoseconds every
//! time. It asserts and records nothing: the recorded overhead number is
//! `obs.trace_overhead_share` in `BENCHMARK.json`.
//!
//! ```sh
//! cargo run --release --example obs_overhead
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use tind::core::{QueryPlan, TindParams, ValidationScratch};
use tind::datagen::{generate, GeneratorConfig};
use tind::model::Dataset;
use tind::obs::trace;

const ATTRIBUTES: usize = 1500;

/// Every 100th attribute queries the whole dataset.
const QUERY_STRIDE: usize = 100;

/// Instrumented queries timed per trial.
const INSTRUMENT_ITERS: u32 = 20_000;

/// The bare plan-reuse sweep — all the `obs-off` feature leaves of a
/// query's stage 4.
fn sweep(dataset: &Dataset, queries: &[u32], params: &TindParams) -> usize {
    let timeline = dataset.timeline();
    let mut scratch = ValidationScratch::new();
    let mut valid = 0usize;
    for &qid in queries {
        let table = scratch.weight_table(&params.weights, timeline);
        let plan = QueryPlan::with_table(dataset.attribute(qid), params, timeline, table);
        for aid in 0..dataset.len() as u32 {
            valid += usize::from(plan.validate(dataset.attribute(aid), &mut scratch));
        }
    }
    valid
}

/// What `core::search` adds around one query's stage 4: one span and a
/// few metric updates. Without `root` the span is what an unsampled
/// request gets, an aggregate only; with it, it is what a forced-sample
/// `/search` pays — the same interval also written to the ring, no
/// allocation.
fn instrument_one_query(root: Option<trace::TraceContext>, candidates: u64) {
    let _span = tind::obs::traced_span("bench.validate.query", root);
    tind::obs::counter("bench.validations").add(candidates);
    tind::obs::histogram("bench.candidates_validated").record(candidates);
}

/// The fastest of five timings of `f`, per `per` units of work.
fn best_of_five(per: u32, mut f: impl FnMut()) -> Duration {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed() / per
        })
        .min()
        .expect("five trials")
}

fn main() {
    let mut cfg = GeneratorConfig::paper_shaped(ATTRIBUTES, 31);
    cfg.timeline_days = 1000;
    cfg.mean_lifespan_days = 400.0;
    let dataset = generate(&cfg).dataset;
    let params = TindParams::paper_default();
    let queries: Vec<u32> = (0..dataset.len() as u32).step_by(QUERY_STRIDE).collect();
    let candidates = dataset.len() as u64;

    let kernel = best_of_five(queries.len() as u32, || {
        black_box(sweep(&dataset, &queries, &params));
    });
    let instrumented = |root| {
        best_of_five(INSTRUMENT_ITERS, || {
            for _ in 0..INSTRUMENT_ITERS {
                instrument_one_query(black_box(root), black_box(candidates));
            }
        })
    };
    let (obs, traced) = (instrumented(None), instrumented(Some(trace::alloc_context())));

    let pct = |d: Duration| 100.0 * d.as_secs_f64() / kernel.as_secs_f64();
    let (overhead_pct, traced_pct) = (pct(obs), pct(traced));
    println!(
        "obs_overhead: {ATTRIBUTES} attrs — kernel {} per query; span + metrics {} \
         ({overhead_pct:.3}%), with a live trace {} ({traced_pct:.3}%)",
        tind::obs::fmt_duration_ns(kernel.as_nanos() as u64),
        tind::obs::fmt_duration_ns(obs.as_nanos() as u64),
        tind::obs::fmt_duration_ns(traced.as_nanos() as u64),
    );
    assert!(
        overhead_pct < 2.0,
        "per-query span+metric instrumentation must stay under 2% of the validate kernel \
         (measured {overhead_pct:.3}%)"
    );
    assert!(
        traced_pct < 2.0,
        "live request tracing must stay under 2% of the validate kernel \
         (measured {traced_pct:.3}%)"
    );
}
