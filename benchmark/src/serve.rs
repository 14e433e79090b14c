//! The two serving workloads: `tind serve` as a subprocess under an
//! open-loop and a closed-loop client, in alternating segments.
//!
//! * `serve_hot_zipf` — heap engine, result + plan caches on, Zipf(1.1)
//!   keys, 70/20/10 search / reverse-search / explain.
//! * `serve_cold_windowed` — arena store served through pread windows
//!   under a budget of ⅛ of the store, caches off, uniform keys, 50/50
//!   search / reverse-search.
//!
//! The traffic is synthetic: no trace of real tIND queries exists, so the
//! mix, skew, rate and cache size are chosen to put the named layers on
//! the blocking path and to give each cache both hits and misses — not
//! measured from users.

use std::collections::BTreeMap;
use std::sync::Arc;

use tind_core::TindParams;
use tind_model::{Dataset, WeightFn};
use tind_obs::json::Value;
use tind_serve::Engine;

use crate::loadgen::{self, Kind, Outcome, PhaseResult, Req};
use crate::proc::{Fixture, Server};
use crate::trace::span;
use crate::util::{
    disk_bytes, lower_quartile, mean, median, nproc, quantile, timed, upper_quartile, Rng, Zipf,
};
use crate::{Ctx, RunResult};

/// Independent set-ups per run: `setup_s` is their median. `ready_s` is the
/// first quartile of their cold starts and of one more after each round.
const SETUP_ROUNDS: usize = 3;
/// Every n-th response is kept and checked against the in-process oracle.
const ORACLE_EVERY: usize = 10;
/// Latency limit a fixed rate must meet at p99 to count as sustained.
const P99_LIMIT_MS: f64 = 25.0;
/// Sender threads of the open loop. Blocked senders cost no CPU, and with
/// only `nproc` of them the generator, not the server, would saturate
/// first at the top of the rate ladder.
const SENDERS_PER_CORE: usize = 4;
/// Callers of the closed loop. The server polls `accept` every 5 ms, so a
/// closed loop completes about `callers / 5 ms` until its workers
/// saturate. With only `nproc` callers the reading flips between two
/// modes (≈ 385 and ≈ 510 requests/s on two cores) depending on whether a
/// caller's reconnect lands inside the same accept wake-up; sixteen
/// callers share each wake-up and repeat within a few percent, and stay
/// well under the admission queue's 64.
const CLOSED_CLIENTS: usize = 16;
/// Generated requests for one closed-loop segment; more than it gets
/// through, so it never replays its own (by then cached) requests.
const CLOSED_REQS: usize = 1 << 16;
/// Rounds of an untraced run: open-loop segment, closed-loop segment, cold
/// start.
const ROUNDS: usize = 3;

/// Open-loop rate of the measured phase, requests per second: about a
/// tenth of what the closed loop completes, so the latencies are those of
/// an unsaturated server.
const RATE: f64 = 200.0;
/// Result- and plan-cache entries of the hot workload (both are off by
/// default): about a fifth of its 20 000 keys, so the head of the Zipf
/// distribution fits, the tail does not, and hits and misses both occur.
const CACHE_ENTRIES: &str = "4096";

/// `tind serve` arguments. The cold workload's measured server has one
/// executor (`one_worker`): the memory budget is shared between the
/// window cache and per-request scratch, and resident windows are not
/// evicted to admit a request — so once windows fill the budget, a second
/// concurrent request is shed with a 503. One worker queues it instead,
/// and no operation of the measured workload fails. The traced run also
/// boots the default worker count and reports what it sheds
/// (`serve.shed_share_default_workers`).
fn server_args(cold: bool, one_worker: bool, fx: &Fixture) -> Vec<String> {
    let data = fx.data.display().to_string();
    let mut args = if cold {
        let budget = disk_bytes(&fx.store).div_ceil(8);
        vec![
            "--data".into(),
            data,
            "--store".into(),
            fx.store.display().to_string(),
            "--store-backing".into(),
            "windowed".into(),
            "--memory-limit".into(),
            budget.to_string(),
        ]
    } else {
        [
            "--data",
            &data,
            "--cache",
            CACHE_ENTRIES,
            "--plan-cache",
            CACHE_ENTRIES,
        ]
        .map(String::from)
        .to_vec()
    };
    if one_worker {
        args.extend(["--workers".into(), "1".into()]);
    }
    args
}

/// Seeded request stream for the variant's traffic mix.
fn requests(
    cold: bool,
    n_attrs: usize,
    pairs: &[(u32, u32)],
    count: usize,
    rng: &mut Rng,
) -> Vec<Req> {
    let zipf = (!cold).then(|| Zipf::new(n_attrs, 1.1, rng));
    (0..count)
        .map(|_| {
            let key = match &zipf {
                Some(z) => z.sample(rng),
                None => rng.below(n_attrs as u64) as u32,
            };
            let roll = rng.unit();
            let (reverse_from, explain_from) = if cold { (0.5, 2.0) } else { (0.7, 0.9) };
            if roll >= explain_from && !pairs.is_empty() {
                let (lhs, rhs) = pairs[rng.below(pairs.len() as u64) as usize];
                Req {
                    kind: Kind::Explain,
                    key: lhs,
                    rhs,
                }
            } else if roll >= reverse_from {
                Req {
                    kind: Kind::Reverse,
                    key,
                    rhs: 0,
                }
            } else {
                Req {
                    kind: Kind::Search,
                    key,
                    rhs: 0,
                }
            }
        })
        .collect()
}

type Phase = (&'static str, Vec<Req>, PhaseResult);

fn phase<'a>(phases: &'a [Phase], name: &str) -> &'a PhaseResult {
    &phases
        .iter()
        .find(|(n, _, _)| *n == name)
        .expect("phase ran")
        .2
}

pub fn run(ctx: &Ctx, cold: bool) -> Result<RunResult, String> {
    let attrs = if cold {
        ctx.scale.cold_attrs
    } else {
        ctx.scale.serve_attrs
    };
    let fx = Fixture::new(&ctx.scratch);
    let mut res = RunResult::default();

    // Set-up, repeated: generate, (pack,) boot to "serving". The last
    // round's server is the one measured.
    let mut setup_s = Vec::new();
    let mut ready_s = Vec::new();
    let mut server = None;
    let boot = |one_worker: bool| {
        span("setup.serve_boot", || {
            Server::spawn(&ctx.tind, &server_args(cold, one_worker, &fx), &ctx.scratch)
        })
    };
    for _ in 0..SETUP_ROUNDS {
        drop(server.take());
        let (booted, secs) = timed(|| -> Result<Server, String> {
            let gen = fx.generate(&ctx.tind, attrs, ctx.seed)?;
            res.record("datagen.generate_ms", gen.wall_s * 1e3, 1);
            if cold {
                fx.pack_store(&ctx.tind)?;
            }
            boot(cold) // one worker on the cold workload: see `server_args`
        });
        let booted = booted?;
        // Set-up ends at "serving"; the first-200 probe after it is the
        // cold-start metric's, not set-up's.
        setup_s.push(secs - (booted.first_200_s - booted.boot_s));
        ready_s.push(booted.first_200_s);
        server = Some(booted);
    }
    let server = server.expect("SETUP_ROUNDS > 0");

    let pairs = fx.genuine_pairs();
    let mut rng = Rng::new(ctx.seed ^ 0x5e12_7e00);
    let senders = nproc() * SENDERS_PER_CORE;

    // Warm-up, untimed: lets the listener, the allocator and (hot
    // variant) the caches reach steady state before the clocks start.
    let warm_up = |server: &Server, rng: &mut Rng| {
        let warm = requests(
            cold,
            attrs,
            &pairs,
            (RATE * 0.1 * ctx.seconds) as usize + 1,
            rng,
        );
        loadgen::closed_loop(
            server.addr,
            &warm,
            CLOSED_CLIENTS,
            0.1 * ctx.seconds,
            usize::MAX,
        );
    };
    warm_up(&server, &mut rng);

    let mut phases: Vec<Phase> = Vec::new();
    let open = |server: &Server, name: &'static str, rate: f64, seconds: f64, rng: &mut Rng| {
        let due = loadgen::schedule(rate, seconds, rng);
        let reqs = requests(cold, attrs, &pairs, due.len().max(1), rng);
        let phase = span(name, || {
            loadgen::open_loop(server.addr, &reqs, &due, seconds, senders, ORACLE_EVERY)
        });
        (name, reqs, phase)
    };

    // One round. Untraced: an open-loop and a closed-loop segment, whole
    // seconds each because the estimators work on one-second windows.
    // Traced: the three-step rate ladder, then the closed loop, with the
    // server's own registry read around each rung.
    let (rounds, plan): (usize, Vec<(&'static str, Option<f64>, f64)>) = if ctx.trace {
        let rung = (ctx.seconds / 4.0).floor().max(1.0);
        let ladder = vec![
            ("phase.open_half", Some(0.5), rung),
            ("phase.open", Some(1.0), rung),
            ("phase.open_double", Some(2.0), rung),
            ("phase.closed", None, rung),
        ];
        (1, ladder)
    } else {
        // Fewer rounds when a run is too short for two-second ones.
        let rounds = ROUNDS.min((ctx.seconds / 2.0) as usize).max(1);
        let round = (ctx.seconds / rounds as f64).floor().max(2.0);
        let open_s = (round / 2.0).ceil();
        (
            rounds,
            vec![
                ("phase.open", Some(1.0), open_s),
                ("phase.closed", None, round - open_s),
            ],
        )
    };
    let mut snaps = Vec::new();
    if ctx.trace {
        snaps.push(server.metrics());
    }
    // Untraced runs alternate the two loops `ROUNDS` times and make one
    // more cold start after each round, so that every metric samples the
    // whole run: this host changes speed for seconds to minutes at a time,
    // and a metric taken from one stretch of the run would read whichever
    // speed that stretch happened to have.
    for _ in 0..rounds {
        for &(name, rate_factor, seconds) in &plan {
            if let Some(factor) = rate_factor {
                phases.push(open(&server, name, RATE * factor, seconds, &mut rng));
                if ctx.trace {
                    snaps.push(server.metrics());
                }
            } else {
                let reqs = requests(cold, attrs, &pairs, CLOSED_REQS, &mut rng);
                let closed = span(name, || {
                    loadgen::closed_loop(server.addr, &reqs, CLOSED_CLIENTS, seconds, ORACLE_EVERY)
                });
                phases.push((name, reqs, closed));
            }
        }
        if !ctx.trace {
            // A second server on the same fixture, stopped once it has
            // answered; the measured one idles meanwhile.
            ready_s.push(boot(cold)?.first_200_s);
        }
    }
    let rss_mib = server.rss_mib()?;
    drop(server);

    // Traced, cold: the same open-loop phase against the default worker
    // count, where requests are shed once the windows fill the budget.
    // Shedding is the quantity measured there, so these requests are not
    // among the workload's attempted and failed operations.
    let shed_default_workers = if ctx.trace && cold {
        let server = boot(false)?;
        warm_up(&server, &mut rng);
        // Half a rung: a share needs fewer samples than a p99, and a
        // thrashing server answers slowly.
        let half_rung = (ctx.seconds / 8.0).floor().max(1.0);
        let (_, _, p) = open(
            &server,
            "phase.open_default_workers",
            RATE,
            half_rung,
            &mut rng,
        );
        let shed = p.count(|o| matches!(o, Outcome::Status(429 | 503)));
        res.note(format!(
            "default workers: {shed} of {} requests shed, {} failed otherwise",
            p.samples.len(),
            p.failed() - shed
        ));
        Some(shed as f64 / p.samples.len() as f64)
    } else {
        None
    };

    // One-second windows of every open-loop and closed-loop segment.
    let all = |name: &'static str| {
        phases
            .iter()
            .filter(move |(n, _, _)| *n == name)
            .map(|(_, _, p)| p)
    };
    let window_p50s: Vec<f64> = all("phase.open")
        .flat_map(PhaseResult::window_p50s_ms)
        .collect();
    let window_rates: Vec<f64> = all("phase.closed")
        .flat_map(PhaseResult::window_rates)
        .collect();

    for (name, _, p) in &phases {
        res.attempted += p.samples.len() as u64;
        res.failed += p.failed() as u64;
        if p.failed() > 0 {
            let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
            for s in p.samples.iter().filter(|s| s.outcome != Outcome::Ok) {
                *kinds.entry(format!("{:?}", s.outcome)).or_default() += 1;
            }
            res.note(format!(
                "{name}: {} of {} requests failed: {kinds:?}",
                p.failed(),
                p.samples.len()
            ));
        }
    }

    // Oracle: kept responses against an in-process engine on the same
    // data (built exactly as `tind serve` builds its own), off the clock.
    let dataset = Arc::new(
        tind_model::binio::read_dataset_file(&fx.data).map_err(|e| format!("read dataset: {e}"))?,
    );
    let (engine, engine_s) = span("serve.engine_build", || {
        timed(|| Engine::build(dataset.clone(), 3.0, 7, None, 0))
    });
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for (_, reqs, p) in &phases {
        for (i, body) in &p.kept {
            checked += 1;
            if let Err(why) = check_response(&engine, &dataset, &reqs[i % reqs.len()], body) {
                if mismatches == 0 {
                    eprintln!("oracle mismatch: {why}");
                }
                mismatches += 1;
            }
        }
    }
    res.failed += mismatches as u64;
    res.correct = mismatches == 0 && checked > 0;
    res.note(format!(
        "oracle: {checked} responses checked, {mismatches} mismatches"
    ));

    if ctx.trace {
        res.record("serve.engine_build_ms", engine_s * 1e3, 1);
        layer_metrics(&mut res, cold, &phases, &snaps, shed_default_workers)?;
        crate::layers::serve_probes(&mut res, &engine, &dataset, &mut rng)?;
        if cold {
            crate::layers::store_probes(&mut res, ctx, &dataset, &mut rng)?;
        }
    } else {
        res.record("setup_s", median(&setup_s), setup_s.len());
        res.record("ready_s", lower_quartile(&ready_s), ready_s.len());
        res.record(
            "op_ms",
            lower_quartile(&window_p50s),
            all("phase.open").map(|p| p.samples.len()).sum(),
        );
        res.record(
            "throughput_ops",
            upper_quartile(&window_rates),
            all("phase.closed").map(|p| p.samples.len()).sum(),
        );
        res.record("rss_mb", rss_mib, 1);
        let persisted = if cold { &fx.store } else { &fx.data };
        res.record(
            "disk_bytes_per_attr",
            disk_bytes(persisted) as f64 / attrs as f64,
            1,
        );
    }
    Ok(res)
}

/// Compares one kept response with what the library computes in-process:
/// result count, the rendered ids, and the deterministic stage counters
/// (everything but `elapsed_ms`).
fn check_response(engine: &Engine, dataset: &Dataset, req: &Req, body: &str) -> Result<(), String> {
    let v = tind_obs::json::parse(body).map_err(|e| format!("unparsable response: {e:?}"))?;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let params = TindParams::weighted(3.0, 7, WeightFn::constant_one());
    if req.kind == Kind::Explain {
        let expect = tind_core::explain::explain(
            dataset.attribute(req.key),
            dataset.attribute(req.rhs),
            &params,
            dataset.timeline(),
        );
        let valid = matches!(v.get("valid"), Some(Value::Bool(true)));
        let violation = num(&v, "violation").ok_or("explain without violation")?;
        if valid != expect.valid || (violation - expect.violation).abs() > 1e-9 {
            return Err(format!(
                "explain {}→{}: served valid={valid} violation={violation}, \
                 library valid={} violation={}",
                req.key, req.rhs, expect.valid, expect.violation
            ));
        }
        return Ok(());
    }
    let expect = match req.kind {
        Kind::Search => engine.forward().search(req.key, &params),
        _ => engine.reverse().reverse_search(req.key, &params),
    };
    let count = num(&v, "result_count").ok_or("response without result_count")?;
    let ids: Vec<u32> = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("response without results")?
        .iter()
        .filter_map(|r| num(r, "id").map(|id| id as u32))
        .collect();
    let expect_ids: Vec<u32> = expect.results.iter().copied().take(20).collect();
    let stats = v.get("stats").ok_or("response without stats")?;
    let s = &expect.stats;
    let stats_equal = [
        ("initial", s.initial),
        ("after_required", s.after_required),
        ("after_slices", s.after_slices),
        ("after_exact", s.after_exact),
        ("validated", s.validated),
        ("validations_run", s.validations_run),
    ]
    .iter()
    .all(|(key, want)| num(stats, key) == Some(*want as f64));
    if count != expect.results.len() as f64 || ids != expect_ids || !stats_equal {
        return Err(format!(
            "{:?} {}: served {count} results {ids:?}, library {} results {expect_ids:?} (stats equal: {stats_equal})",
            req.kind,
            req.key,
            expect.results.len()
        ));
    }
    Ok(())
}

/// A server histogram between two `/metrics` reads: count, sum and the
/// power-of-two bucket counts (upper bound → count).
#[derive(Default, Clone)]
struct Hist {
    count: f64,
    sum: f64,
    buckets: BTreeMap<u64, f64>,
}

impl Hist {
    fn absorb(&mut self, other: &Hist, sign: f64) {
        self.count += sign * other.count;
        self.sum += sign * other.sum;
        for (le, c) in &other.buckets {
            *self.buckets.entry(*le).or_default() += sign * c;
        }
    }

    /// NaN — refused as a reading — when the server observed nothing.
    fn mean_us(&self) -> f64 {
        self.sum / self.count / 1e3
    }

    /// Upper bound of the bucket holding the 99th percentile, in µs. The
    /// server's buckets are powers of two, so this moves in factors of 2:
    /// use the mean to compare, this to see a tail appear.
    fn p99_us(&self) -> f64 {
        let mut seen = 0.0;
        for (le, c) in &self.buckets {
            seen += c;
            if seen >= 0.99 * self.count {
                return *le as f64 / 1e3;
            }
        }
        f64::NAN
    }
}

struct Snap {
    counters: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

fn snap(v: &Value) -> Snap {
    let name = |e: &Value| {
        e.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let list = |k: &str| v.get(k).and_then(Value::as_arr).unwrap_or(&[]).to_vec();
    let counters = list("counters")
        .iter()
        .map(|c| (name(c), num(c, "total")))
        .collect();
    let hists = list("histograms")
        .iter()
        .map(|h| {
            let buckets = h
                .get("buckets")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|b| {
                    let le = b.get("le")?.as_str()?.trim_start_matches("0x");
                    Some((u64::from_str_radix(le, 16).ok()?, num(b, "count")))
                })
                .collect();
            (
                name(h),
                Hist {
                    count: num(h, "count"),
                    sum: num(h, "sum"),
                    buckets,
                },
            )
        })
        .collect();
    Snap { counters, hists }
}

/// Per-layer serve metrics of a traced run, from the server's registry
/// across the measured open-loop phase plus the client's own clocks.
fn layer_metrics(
    res: &mut RunResult,
    cold: bool,
    phases: &[Phase],
    snaps: &[Option<Value>],
    shed_default_workers: Option<f64>,
) -> Result<(), String> {
    let (half, main, double) = (
        phase(phases, "phase.open_half"),
        phase(phases, "phase.open"),
        phase(phases, "phase.open_double"),
    );

    // snaps = [start, after half, after main, after double].
    let [_, Some(before), Some(after), _] = snaps else {
        return Err("GET /metrics failed between phases".into());
    };
    let (before, after) = (snap(before), snap(after));
    // A counter the server has not touched yet is absent: 0.
    let counter = |n: &str| {
        after.counters.get(n).copied().unwrap_or(0.0)
            - before.counters.get(n).copied().unwrap_or(0.0)
    };
    let hist = |suffix: &str| {
        let mut h = Hist::default();
        for (name, a) in after.hists.iter().filter(|(n, _)| n.ends_with(suffix)) {
            h.absorb(a, 1.0);
            if let Some(b) = before.hists.get(name) {
                h.absorb(b, -1.0);
            }
        }
        h
    };
    let n = main.samples.len();
    for (stage, suffix) in [
        ("queued", ".queued_ns"),
        ("coalesced", ".coalesced_ns"),
        ("exec", ".exec_ns"),
    ] {
        let h = hist(suffix);
        res.record(format!("serve.{stage}_us_mean"), h.mean_us(), n);
        res.record(format!("serve.{stage}_us_p99"), h.p99_us(), n);
    }
    let server_side = hist("serve.request_latency_ns");
    res.record("serve.server_side_us_mean", server_side.mean_us(), n);
    // What no server clock sees — connect, accept, request read,
    // response write: the client's mean minus the server's.
    res.record(
        "serve.outside_ms_mean",
        mean(&main.latencies_ok()) - server_side.mean_us() / 1e3,
        n,
    );
    let waves = hist("serve.wave_size");
    res.record("serve.wave_size_mean", waves.sum / waves.count, n);
    // The cold workload runs with both caches off: no lookups, share 0.
    let share = |hit: f64, miss: f64| if cold { 0.0 } else { hit / (hit + miss) };
    res.record(
        "serve.result_cache_hit_share",
        share(counter("serve.cache_hits"), counter("serve.cache_misses")),
        n,
    );
    res.record(
        "serve.plan_cache_hit_share",
        share(counter("serve.plans.hits"), counter("serve.plans.misses")),
        n,
    );
    let shed =
        (counter("serve.shed_queue") + counter("serve.shed_memory")) / counter("serve.requests");
    res.record("serve.shed_share", shed, n);
    // The hot workload's server already runs the default worker count.
    res.record(
        "serve.shed_share_default_workers",
        shed_default_workers.unwrap_or(shed),
        n,
    );

    let p99 = |p: &PhaseResult| quantile(&p.latencies_ok(), 0.99);
    res.record(
        "serve.p50_ms",
        median(&main.latencies_ok()),
        main.samples.len(),
    );
    res.record(
        "serve.p95_ms",
        quantile(&main.latencies_ok(), 0.95),
        main.samples.len(),
    );
    res.record("serve.p99_ms", p99(main), main.samples.len());
    res.record("serve.p99_ms_at_half_rate", p99(half), half.samples.len());
    res.record(
        "serve.p99_ms_at_double_rate",
        p99(double),
        double.samples.len(),
    );
    // Highest rung of the ladder that meets the latency limit with no
    // failures and a generator that keeps up; 0 when none does.
    let sustained = [(half, 0.5), (main, 1.0), (double, 2.0)]
        .iter()
        .filter(|(p, _)| p99(p) <= P99_LIMIT_MS && p.failed() == 0 && !p.lateness_growing())
        .map(|(_, f)| RATE * f)
        .fold(0.0, f64::max);
    res.record("serve.max_rate_ok_rps", sustained, 3);
    let all: Vec<&PhaseResult> = vec![half, main, double];
    res.record(
        "loadgen.late_ms_p99",
        all.iter().map(|p| p.late_ms_p99()).fold(0.0, f64::max),
        all.iter().map(|p| p.samples.len()).sum(),
    );
    let unreachable = |o: Outcome| matches!(o, Outcome::ConnectError | Outcome::PortExhausted);
    res.record(
        "loadgen.connect_errors",
        phases
            .iter()
            .map(|(_, _, p)| p.count(unreachable))
            .sum::<usize>() as f64,
        phases.iter().map(|(_, _, p)| p.samples.len()).sum(),
    );
    Ok(())
}
