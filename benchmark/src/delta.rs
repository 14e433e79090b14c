//! `delta_update`: writes beside reads, in-process through the public
//! API an embedder uses — `DatasetDelta::diff` → `TindIndex::apply_delta`
//! (forward and reverse index) → `refresh_pairs`, for seeded deltas
//! touching 0.1 % / 1 % / 10 % of the attributes, against a cold
//! `build_with` + `discover_all_pairs` on the same data.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use tind_core::persist::encode_index;
use tind_core::{
    discover_all_pairs, refresh_pairs, AllPairsOptions, BuildOptions, DatasetDelta, IndexConfig,
    TindIndex,
};
use tind_datagen::{generate, GeneratorConfig};
use tind_model::{Dataset, HistoryBuilder};

use crate::layers::paper_params;
use crate::trace::span;
use crate::util::{lower_quartile, median, nproc, timed, vm_hwm_mib, Rng};
use crate::{Ctx, RunResult};

const SETUP_ROUNDS: usize = 3;
/// Touched share of each delta, with the metric-name suffix it reports under.
const DELTAS: [(f64, &str); 3] = [(0.001, "0p1pct"), (0.01, "1pct"), (0.10, "10pct")];
/// Index of the 1 % delta, the one the end-to-end latency is taken from.
const MAIN_DELTA: usize = 1;

type Pairs = BTreeSet<(u32, u32)>;

/// The state an embedder maintains: both index directions and the
/// all-pairs result.
#[derive(Clone)]
struct World {
    forward: TindIndex,
    reverse: TindIndex,
    pairs: Pairs,
}

fn build_world(dataset: &Arc<Dataset>) -> Result<World, String> {
    let options = BuildOptions {
        threads: nproc(),
        ..BuildOptions::default()
    };
    let forward = span("core.index.build_with", || {
        TindIndex::build_with(dataset.clone(), IndexConfig::default(), &options)
    });
    let reverse = span("core.index.build_with", || {
        TindIndex::build_with(dataset.clone(), IndexConfig::reverse_default(), &options)
    });
    let pairs = all_pairs(&forward)?;
    Ok(World {
        forward,
        reverse,
        pairs,
    })
}

fn all_pairs(index: &TindIndex) -> Result<Pairs, String> {
    let options = AllPairsOptions {
        threads: nproc(),
        ..AllPairsOptions::default()
    };
    let found = span("core.discover_all_pairs", || {
        discover_all_pairs(index, &paper_params(), &options)
    })
    .map_err(|e| format!("discover_all_pairs: {e}"))?;
    Ok(found.pairs.into_iter().collect())
}

/// A successor of `base`: `share` of the attributes get one appended
/// revision (a third shrink their latest value set, a third grow it, a
/// third do both) and 0.1 % new attributes are appended.
fn evolve(base: &Dataset, share: f64, tag: &str, rng: &mut Rng) -> Arc<Dataset> {
    let tl = base.timeline();
    let n = base.len();
    let mut b = base.clone().into_builder();
    let rewrites = ((n as f64 * share).round() as usize).max(1);
    for id in rng.distinct(rewrites, n as u64) {
        let h = base.attribute(id as u32);
        let last = h.versions().last().expect("histories are non-empty");
        if last.start >= tl.last() {
            continue; // no room for a later revision
        }
        let mut values = last.values.clone();
        let mode = rng.below(3);
        if mode != 1 && values.len() > 1 {
            values.truncate(values.len() / 2);
        }
        if mode != 0 || values == last.values {
            for k in 0..1 + rng.below(3) {
                values.push(b.dictionary_mut().intern(&format!("bench-{tag}-{id}-{k}")));
            }
        }
        let mut hb = HistoryBuilder::new(h.name());
        for v in h.versions() {
            hb.push(v.start, v.values.clone());
        }
        hb.push(
            last.start + 1 + rng.below(u64::from(tl.last() - last.start)) as u32,
            values,
        );
        b.upsert_history(hb.finish(tl.last()));
    }
    for i in 0..(n / 1000).max(1) {
        let mut hb = HistoryBuilder::new(format!("bench-new-{tag}-{i}"));
        let values = (0..3)
            .map(|_| rng.below(base.dictionary().len() as u64) as u32)
            .collect();
        hb.push(rng.below(u64::from(tl.len())) as u32, values);
        b.upsert_history(hb.finish(tl.last()));
    }
    Arc::new(b.build())
}

struct UpdateTimes {
    diff_s: f64,
    apply_s: f64,
    refresh_s: f64,
    touched: usize,
    blocks: usize,
}

/// One maintained update of `world` to `next`: diff, apply to both
/// directions, refresh the pair set.
fn update(world: &mut World, old: &Dataset, next: &Arc<Dataset>) -> Result<UpdateTimes, String> {
    let (delta, diff_s) = span("core.delta.diff", || {
        timed(|| DatasetDelta::diff(old, next.clone()))
    });
    let delta = delta.map_err(|e| format!("DatasetDelta::diff: {e}"))?;
    let (applied, apply_s) = span("core.delta.apply_delta", || {
        timed(|| -> Result<usize, tind_core::DeltaError> {
            let report = world.forward.apply_delta(&delta)?;
            world.reverse.apply_delta(&delta)?;
            Ok(report.blocks_rewritten)
        })
    });
    let blocks = applied.map_err(|e| format!("apply_delta: {e}"))?;
    let (_, refresh_s) = span("core.delta.refresh_pairs", || {
        timed(|| {
            refresh_pairs(
                &world.forward,
                &mut world.pairs,
                delta.touched(),
                &paper_params(),
                nproc(),
            )
        })
    });
    Ok(UpdateTimes {
        diff_s,
        apply_s,
        refresh_s,
        touched: delta.touched().len(),
        blocks,
    })
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let attrs = ctx.scale.delta_attrs;
    let mut res = RunResult::default();

    // Set-up, repeated: generate, build both directions, discover.
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_ROUNDS {
        drop(state.take());
        let (built, secs) = timed(|| -> Result<(Arc<Dataset>, World), String> {
            let (generated, gen_s) = span("datagen.generate", || {
                timed(|| generate(&GeneratorConfig::paper_shaped(attrs, ctx.seed)))
            });
            res.record("datagen.generate_ms", gen_s * 1e3, 1);
            let base = Arc::new(generated.dataset);
            let world = build_world(&base)?;
            Ok((base, world))
        });
        state = Some(built?);
        setup_s.push(secs);
    }
    let (base, world) = state.expect("SETUP_ROUNDS > 0");

    let mut rng = Rng::new(ctx.seed ^ 0xde17_a000);
    let successors: Vec<Arc<Dataset>> = DELTAS
        .iter()
        .map(|(share, tag)| evolve(&base, *share, tag, &mut rng))
        .collect();

    // Measured repetitions: each delta applied to a fresh copy of the
    // maintained state (copied off the clock), then the cold rebuild.
    let mut updates: Vec<Vec<UpdateTimes>> = DELTAS.iter().map(|_| Vec::new()).collect();
    let mut rebuild_s = Vec::new();
    let mut maintained = Vec::new();
    let start = Instant::now();
    while rebuild_s.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        maintained.clear();
        for (i, next) in successors.iter().enumerate() {
            let mut copy = world.clone();
            updates[i].push(update(&mut copy, &base, next)?);
            maintained.push(copy);
        }
        let (cold, secs) = timed(|| build_world(&successors[MAIN_DELTA]));
        cold?;
        rebuild_s.push(secs);
        if ctx.trace {
            break;
        }
    }
    // The embedder's footprint: read before the oracle builds its own
    // cold copies.
    let rss_mib = vm_hwm_mib("self")?;
    res.attempted = (updates.iter().map(Vec::len).sum::<usize>() + rebuild_s.len()) as u64;

    // Oracle, off the clock: each maintained state equals a cold rebuild —
    // forward index byte-identical, pair set equal.
    let mut mismatches = 0u64;
    for ((next, kept), (_, tag)) in successors.iter().zip(&maintained).zip(DELTAS) {
        let cold = TindIndex::build_with(
            next.clone(),
            IndexConfig::default(),
            &BuildOptions::default(),
        );
        if encode_index(&kept.forward) != encode_index(&cold) {
            eprintln!(
                "oracle mismatch: {tag} delta: maintained forward index differs from a cold build"
            );
            mismatches += 1;
        }
        if kept.pairs != all_pairs(&cold)? {
            eprintln!("oracle mismatch: {tag} delta: refreshed pairs differ from cold all-pairs");
            mismatches += 1;
        }
    }
    res.failed = mismatches;
    res.correct = mismatches == 0;
    res.note(format!(
        "oracle: {} maintained states checked against cold rebuilds, {mismatches} mismatches; {} tINDs",
        maintained.len(),
        world.pairs.len()
    ));

    let total = |u: &UpdateTimes| u.diff_s + u.apply_s + u.refresh_s;
    // Each delta's and the rebuild's time: see `util::lower_quartile`.
    let per_delta = |i: usize, f: &dyn Fn(&UpdateTimes) -> f64| {
        lower_quartile(&updates[i].iter().map(f).collect::<Vec<_>>())
    };
    if ctx.trace {
        res.record(
            "delta.diff_ms",
            per_delta(MAIN_DELTA, &|u| u.diff_s) * 1e3,
            1,
        );
        for (i, (_, tag)) in DELTAS.iter().enumerate() {
            res.record(
                format!("delta.apply_ms_{tag}"),
                per_delta(i, &|u| u.apply_s) * 1e3,
                1,
            );
            res.record(
                format!("delta.refresh_ms_{tag}"),
                per_delta(i, &|u| u.refresh_s) * 1e3,
                1,
            );
        }
        res.record(
            "delta.touched_blocks_1pct",
            updates[MAIN_DELTA][0].blocks as f64,
            1,
        );
        // An empty delta must be (almost) free.
        let mut copy = world.clone();
        let (empty, empty_s) = timed(|| update(&mut copy, &base, &base));
        empty?;
        res.record("delta.empty_ms", empty_s * 1e3, 1);
        res.record(
            "delta.rebuild_ms",
            lower_quartile(&rebuild_s) * 1e3,
            rebuild_s.len(),
        );
    } else {
        let n = rebuild_s.len();
        let touched: usize = updates.iter().map(|u| u[0].touched).sum();
        let all_s: f64 = (0..DELTAS.len()).map(|i| per_delta(i, &total)).sum();
        res.record("setup_s", median(&setup_s), setup_s.len());
        res.record("ready_s", lower_quartile(&rebuild_s), n);
        res.record("op_ms", per_delta(MAIN_DELTA, &total) * 1e3, n);
        res.record("throughput_ops", touched as f64 / all_s, n);
        res.record("rss_mb", rss_mib, 1);
        res.record(
            "disk_bytes_per_attr",
            encode_index(&world.forward).len() as f64 / attrs as f64,
            1,
        );
    }
    Ok(res)
}
