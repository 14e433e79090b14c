//! `offline_discover`: the batch path as a user runs it — the `tind
//! index`, `tind all-pairs` and `tind search --store` verbs as
//! subprocesses, no serving code at all. Verb wall time includes what the
//! CLI does around the kernels (load, diagnostics gauges, persist), which
//! no in-process bench sees.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use tind_core::validate::naive_validate;
use tind_core::{discover_all_pairs, AllPairsOptions, BuildOptions, IndexConfig, TindIndex};

use crate::layers::{core_probes, paper_params};
use crate::proc::{run_verb, Fixture, VerbRun};
use crate::trace::span;
use crate::util::{disk_bytes, lower_quartile, median, nproc, timed, Rng};
use crate::{Ctx, RunResult};

const SETUP_ROUNDS: usize = 3;
/// One-shot searches per cycle and kind, each a different seeded query.
const SEARCHES_PER_CYCLE: usize = 3;
/// Pairs of each kind handed to the naive validator (≈ 1 ms per pair).
const NAIVE_SAMPLE: usize = 300;

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let attrs = ctx.scale.offline_attrs;
    let fx = Fixture::new(&ctx.scratch);
    let index_path = ctx.scratch.join("index.tidx");
    let path = |p: &std::path::Path| p.display().to_string();
    let (data, store, index_file) = (path(&fx.data), path(&fx.store), path(&index_path));
    let threads = nproc().to_string();
    let mut res = RunResult::default();

    // Set-up, repeated: generate the dataset and pack the store the
    // one-shot searches open.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let (done, secs) = timed(|| -> Result<(), String> {
            let gen = fx.generate(&ctx.tind, attrs, ctx.seed)?;
            res.record("datagen.generate_ms", gen.wall_s * 1e3, 1);
            let pack = fx.pack_store(&ctx.tind)?;
            res.record("store.pack_ms", pack.wall_s * 1e3, 1);
            Ok(())
        });
        done?;
        setup_s.push(secs);
    }

    let mut rng = Rng::new(ctx.seed ^ 0x0ff1_1e00);
    let queries: Vec<String> = (0..SEARCHES_PER_CYCLE)
        .map(|_| rng.below(attrs as u64).to_string())
        .collect();

    // Measured cycles: index, all-pairs, then the one-shot searches
    // against the packed store. A traced run makes one cycle, for the verb
    // walls the layers explain.
    let (mut index_runs, mut allpairs_runs, mut search_runs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while index_runs.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        index_runs.push(span("verb.index", || {
            run_verb(
                &ctx.tind,
                &[
                    "index",
                    "--data",
                    &data,
                    "--out",
                    &index_file,
                    "--build-threads",
                    &threads,
                ],
            )
        })?);
        allpairs_runs.push(span("verb.all_pairs", || {
            run_verb(
                &ctx.tind,
                &[
                    "all-pairs",
                    "--data",
                    &data,
                    "--threads",
                    &threads,
                    "--quiet",
                ],
            )
        })?);
        for q in &queries {
            let run = span("verb.search", || {
                run_verb(
                    &ctx.tind,
                    &["search", "--store", &store, "--data", &data, "--query", q],
                )
            })?;
            search_runs.push((q.clone(), run));
        }
        if ctx.trace {
            break;
        }
    }
    res.attempted = (index_runs.len() + allpairs_runs.len() + search_runs.len()) as u64;

    // Each verb's wall: see `util::lower_quartile`.
    let walls = |runs: &[VerbRun]| runs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    let search_walls: Vec<f64> = search_runs.iter().map(|(_, r)| r.wall_s).collect();
    let index_wall = lower_quartile(&walls(&index_runs));
    let allpairs_wall = lower_quartile(&walls(&allpairs_runs));

    // Oracle, off the clock: the verbs' answers against the library on
    // the same file, and the library against the naive validator.
    let dataset = Arc::new(
        tind_model::binio::read_dataset_file(&fx.data).map_err(|e| format!("read dataset: {e}"))?,
    );
    let params = paper_params();
    let index = TindIndex::build_with(
        dataset.clone(),
        IndexConfig::default(),
        &BuildOptions::default(),
    );
    let found = discover_all_pairs(&index, &params, &AllPairsOptions::default())
        .map_err(|e| format!("discover_all_pairs: {e}"))?;
    let mut mismatches = 0u64;
    let mut mismatch = |why: String| {
        if mismatches == 0 {
            eprintln!("oracle mismatch: {why}");
        }
        mismatches += 1;
    };
    for run in &allpairs_runs {
        let reported = run
            .stdout
            .split_whitespace()
            .next()
            .and_then(|n| n.parse::<usize>().ok());
        if reported != Some(found.pairs.len()) {
            mismatch(format!(
                "all-pairs verb reported {reported:?} tINDs, library {}",
                found.pairs.len()
            ));
        }
    }
    for (q, run) in &search_runs {
        let expect = index
            .search(q.parse().expect("generated numeric query"), &params)
            .results;
        let mut lines = run.stdout.lines();
        let reported = lines
            .next()
            .and_then(|l| l.split_whitespace().next()?.parse::<usize>().ok());
        let names: Vec<&str> = lines.map(str::trim).take(expect.len().min(20)).collect();
        let expect_names: Vec<&str> = expect
            .iter()
            .take(20)
            .map(|&id| dataset.attribute(id).name())
            .collect();
        if reported != Some(expect.len()) || names != expect_names {
            mismatch(format!(
                "search verb for {q}: {reported:?} results {names:?}, library {} {expect_names:?}",
                expect.len()
            ));
        }
    }
    let pair_set: BTreeSet<(u32, u32)> = found.pairs.iter().copied().collect();
    let genuine = fx.genuine_pairs();
    let timeline = dataset.timeline();
    let naive = |lhs: u32, rhs: u32| {
        naive_validate(
            dataset.attribute(lhs),
            dataset.attribute(rhs),
            &params,
            timeline,
        )
    };
    // Soundness on discovered pairs; completeness on the planted pairs,
    // which sit near the ε/δ decision boundary by construction.
    let step = (found.pairs.len() / NAIVE_SAMPLE).max(1);
    for &(lhs, rhs) in found.pairs.iter().step_by(step).take(NAIVE_SAMPLE) {
        if !naive(lhs, rhs) {
            mismatch(format!(
                "discovered pair ({lhs}, {rhs}) fails the naive validator"
            ));
        }
    }
    let step = (genuine.len() / NAIVE_SAMPLE).max(1);
    for &(lhs, rhs) in genuine.iter().step_by(step).take(NAIVE_SAMPLE) {
        if naive(lhs, rhs) != pair_set.contains(&(lhs, rhs)) {
            mismatch(format!(
                "planted pair ({lhs}, {rhs}): naive validator and all-pairs disagree"
            ));
        }
    }
    res.failed = mismatches;
    res.correct = mismatches == 0;
    res.note(format!(
        "oracle: {} verb outputs and {} naive validations checked, {mismatches} mismatches; {} tINDs",
        allpairs_runs.len() + search_runs.len(),
        found.pairs.len().min(NAIVE_SAMPLE) + genuine.len().min(NAIVE_SAMPLE),
        found.pairs.len()
    ));
    drop(index);

    if ctx.trace {
        let core = core_probes(&mut res, ctx, &fx.data, &genuine, &mut rng)?;
        // By construction: verb wall = the layers the verb runs + the rest.
        res.record(
            "cli.index_unattributed_s",
            index_wall - (core.dataset_load_s + core.index_build_s + core.persist_write_s),
            index_runs.len(),
        );
        res.record(
            "cli.allpairs_unattributed_s",
            allpairs_wall - (core.dataset_load_s + core.index_build_s + core.discover_s),
            allpairs_runs.len(),
        );
        res.record("cli.index_wall_s", index_wall, index_runs.len());
        res.record("cli.allpairs_wall_s", allpairs_wall, allpairs_runs.len());
        res.record(
            "cli.search_oneshot_s",
            lower_quartile(&search_walls),
            search_walls.len(),
        );
    } else {
        let peak_rss = index_runs
            .iter()
            .chain(&allpairs_runs)
            .chain(search_runs.iter().map(|(_, r)| r))
            .map(|r| r.rss_mib)
            .fold(0.0, f64::max);
        res.record("setup_s", median(&setup_s), setup_s.len());
        res.record("ready_s", index_wall, index_runs.len());
        res.record(
            "op_ms",
            lower_quartile(&search_walls) * 1e3,
            search_walls.len(),
        );
        res.record(
            "throughput_ops",
            attrs as f64 / allpairs_wall,
            allpairs_runs.len(),
        );
        res.record("rss_mb", peak_rss, res.attempted as usize);
        let persisted = disk_bytes(&index_path) + disk_bytes(&fx.store);
        res.record("disk_bytes_per_attr", persisted as f64 / attrs as f64, 1);
    }
    Ok(res)
}
