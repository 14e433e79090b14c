//! `tind-benchmark` — the one-command end-to-end + per-layer benchmark.
//!
//! End-to-end numbers come from what a user runs (the `tind` binary as a
//! subprocess; public `core::delta` calls for the embedder path) with
//! harness tracing off. A separate traced run gives the per-layer numbers
//! from the harness's own clocks and spans plus counters the program
//! already exposes. See README.md for the glossary and `run.sh` for the
//! entry point.

mod delta;
mod layers;
mod loadgen;
mod offline;
mod proc;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;

use tind_obs::json::Value;

/// One workload: its BENCHMARK.json name, its entry point, and the
/// per-layer metric name prefixes its traced run measures. A declared
/// metric under one of these prefixes that a run did not record is an
/// error; every other layer is off this workload's path and reads 0.
struct Workload {
    name: &'static str,
    run: fn(&Ctx) -> Result<RunResult, String>,
    layers: &'static [&'static str],
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_hot_zipf",
        run: |ctx| serve::run(ctx, false),
        layers: &["datagen.", "reverse.", "serve.", "loadgen.", "harness."],
    },
    Workload {
        name: "serve_cold_windowed",
        run: |ctx| serve::run(ctx, true),
        layers: &[
            "datagen.", "reverse.", "serve.", "loadgen.", "harness.", "store.",
        ],
    },
    Workload {
        name: "offline_discover",
        run: offline::run,
        layers: &[
            "datagen.",
            "model.",
            "bloom.",
            "index.",
            "persist.",
            "search.",
            "validate.",
            "allpairs.",
            "store.pack_ms",
            "cli.",
            "obs.",
            "harness.",
        ],
    },
    Workload {
        name: "delta_update",
        run: delta::run,
        layers: &["datagen.", "delta.", "harness."],
    },
];

/// Attribute counts per workload. Sized so that one run — three set-ups,
/// the measured window and the oracle — stays near 30 s on two cores.
pub struct Scale {
    pub serve_attrs: usize,
    pub cold_attrs: usize,
    pub offline_attrs: usize,
    pub delta_attrs: usize,
}

const FULL: Scale = Scale {
    serve_attrs: 20_000,
    cold_attrs: 10_000,
    offline_attrs: 5_000,
    delta_attrs: 10_000,
};
const SMOKE: Scale = Scale {
    serve_attrs: 1_000,
    cold_attrs: 1_000,
    offline_attrs: 1_000,
    delta_attrs: 1_000,
};

pub struct Ctx {
    pub tind: PathBuf,
    /// Per-workload working directory under `benchmark/out/`.
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    /// `(name, value, sample count)`.
    pub metrics: Vec<(String, f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a metric under its BENCHMARK.json name. Last write wins:
    /// repeated set-ups overwrite their own layer times.
    pub fn record(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, samples));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, s)| (*v, *s))
    }
}

struct Args {
    bin_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bin_dir: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 21.0,
        trace: None,
        repeat: 0,
        smoke: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--bin-dir" => args.bin_dir = value()?.into(),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = Some(value()? == "1"),
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    if args.seconds < 1.0 || args.seconds > 60.0 {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(args)
}

fn run_workload(
    args: &Args,
    workload: &Workload,
    seed: u64,
    traced: bool,
    table: &[MetricSpec],
) -> Result<RunResult, String> {
    let name = workload.name;
    let scratch = PathBuf::from("benchmark/out").join(format!("work-{name}"));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        tind: args.bin_dir.join("tind"),
        scratch: scratch.clone(),
        seed,
        seconds: if args.smoke { 3.0 } else { args.seconds },
        trace: traced,
        scale: if args.smoke { SMOKE } else { FULL },
    };
    trace::begin(traced);
    let (result, wall_s) = util::timed(|| (workload.run)(&ctx));
    trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut result = result?;
    if result.attempted == 0 {
        return Err(format!("{name}: no operation was attempted"));
    }
    if traced {
        result.record(
            "harness.failed_share",
            result.failed as f64 / result.attempted as f64,
            1,
        );
        result.record("harness.traced_wall_s", wall_s, 1);
        let path = PathBuf::from("benchmark/out").join(format!("trace-{name}.json"));
        trace::write_chrome(&path, name).map_err(|e| format!("write {}: {e}", path.display()))?;
        result.note(format!("trace written to {}", path.display()));
    }
    check_readings(workload, &result, table)?;
    Ok(result)
}

/// A broken reading is an error, never a number: an empty sample set or a
/// failed `/proc` read must not print as 0, which for a lower-is-better
/// metric is a perfect score. End-to-end metrics are all positive by
/// design; a per-layer metric may be 0 or negative (a share, a
/// difference) but must be finite, and must be there if the workload
/// measures that layer.
fn check_readings(
    workload: &Workload,
    result: &RunResult,
    table: &[MetricSpec],
) -> Result<(), String> {
    for MetricSpec { name, bound, .. } in table {
        let end_to_end = bound.is_some();
        match result.get(name) {
            Some((v, _)) if v.is_finite() && (v > 0.0 || !end_to_end) => {}
            Some((v, _)) => {
                return Err(format!(
                    "{}: {name} read {v}: broken reading",
                    workload.name
                ))
            }
            None if end_to_end || workload.layers.iter().any(|l| name.starts_with(l)) => {
                return Err(format!("{}: {name} was not measured", workload.name));
            }
            None => {}
        }
    }
    Ok(())
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, every value with all its digits. After [`check_readings`] a
/// metric the run did not record is a layer off the workload's path: 0.
fn result_json(result: &RunResult, table: &[MetricSpec]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|MetricSpec { name, unit, .. }| {
            let value = result.get(name).map_or(0.0, |(v, _)| v);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn print_report(workload: &str, traced: bool, result: &RunResult, table: &[MetricSpec]) {
    println!(
        "== {workload} ({}) — attempted {}, failed {}, correct {}",
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        result.attempted,
        result.failed,
        result.correct
    );
    for MetricSpec { name, unit, .. } in table {
        if let Some((value, samples)) = result.get(name) {
            println!("  {name:<34} {value:>16.4} {unit:<6} (n={samples})");
        }
    }
    if traced {
        println!("  -- harness span self times --");
        for (name, count, total_us, self_us) in trace::self_times() {
            if count <= 64 {
                println!(
                    "  {name:<34} {:>12.3} ms self, {:>12.3} ms total (n={count})",
                    self_us / 1e3,
                    total_us / 1e3
                );
            }
        }
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
}

/// One metric as BENCHMARK.json declares it. The manifest is the single
/// list of names and units: what a run prints is read from it, so the two
/// cannot drift apart.
struct MetricSpec {
    name: String,
    unit: String,
    better: String,
    /// End-to-end metrics only.
    bound: Option<f64>,
}

/// The `end_to_end` or `per_layer` section of BENCHMARK.json.
fn manifest(section: &str) -> Result<Vec<MetricSpec>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = tind_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = json
        .get(section)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {section} list"))?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Some(MetricSpec {
                name: s("name")?,
                unit: s("unit")?,
                better: s("better")?,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("BENCHMARK.json: malformed {section} entry"))
}

/// The metrics a run in the given mode reports.
fn table(traced: bool) -> Result<Vec<MetricSpec>, String> {
    manifest(if traced { "per_layer" } else { "end_to_end" })
}

/// One untraced run in a fresh process, as the driver makes it (peak RSS
/// of an in-process workload would otherwise carry over between runs);
/// returns the result line's `metrics` and whether the run was clean.
fn run_in_child(args: &Args, workload: &str, seed: u64) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--bin-dir")
        .arg(&args.bin_dir)
        .args(["--workload", workload, "--trace", "0"]);
    cmd.args([
        "--seed",
        &seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn self: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("run printed no result line")?;
    let json = tind_obs::json::parse(line).map_err(|e| format!("result line: {e:?}"))?;
    let clean = matches!(json.get("correct"), Some(Value::Bool(true)))
        && json.get("failed").and_then(Value::as_f64) == Some(0.0);
    let metrics = json
        .get("metrics")
        .cloned()
        .ok_or("result line without metrics")?;
    Ok((metrics, clean))
}

/// `--repeat N`: two alternating sets of N untraced runs per workload;
/// prints median and quartiles per metric and checks the driver's
/// acceptance rule: spread (IQR / median, `setup_s` excepted) within the
/// bound, and the second set's median no worse than the first's by more
/// than the bound.
fn repeat(args: &Args, workloads: &[&Workload]) -> Result<bool, String> {
    let specs = table(false)?;
    let mut ok = true;
    for workload in workloads.iter().map(|w| w.name) {
        let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * args.repeat {
            let (metrics, clean) = run_in_child(args, workload, args.seed + (i / 2) as u64)?;
            if !clean {
                eprintln!("{workload}: run {i} had failed operations or an oracle mismatch");
                ok = false;
            }
            sets[i % 2].push(metrics);
        }
        println!(
            "== {workload}: 2 sets of {} runs, seeds {}..",
            args.repeat, args.seed
        );
        for MetricSpec {
            name,
            better,
            bound,
            ..
        } in &specs
        {
            let bound = bound.ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            let values = |set: &[Value]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|m| m.get(name)?.get("value")?.as_f64())
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| format!("{workload}: a run reported no {name}"))
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let (med_a, med_b) = (util::median(&a), util::median(&b));
            let (q1, q3) = util::quartiles(&a);
            let spread = (q3 - q1) / med_a;
            let drift = if better == "lower" {
                med_b / med_a - 1.0
            } else {
                1.0 - med_b / med_a
            };
            // The driver's acceptance rule exempts `setup_s` from the
            // spread test (three fsync-bound set-ups per run) and gates
            // only its drift; gating its spread here too was tried and
            // failed at 30.57 % on the cold workload (results/attempt2).
            let spread_ok = name == "setup_s" || spread <= bound;
            let within = spread_ok && drift <= bound;
            let verdict = if within { "ok" } else { "OUT OF BOUND" };
            ok &= within;
            println!(
                "  {name:<22} median {med_a:>12.4} q1 {q1:>12.4} q3 {q3:>12.4} spread {:>6.2}% \
                 second-set drift {:>+6.2}% bound {:>4.1}% {verdict}",
                spread * 100.0,
                drift * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args()?;
    if args.self_test {
        loadgen::self_test()?;
        println!("self-test passed");
        return Ok(true);
    }
    if !args.bin_dir.join("tind").is_file() {
        return Err(format!(
            "no tind binary in {} (run through benchmark/run.sh)",
            args.bin_dir.display()
        ));
    }
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("create benchmark/out: {e}"))?;
    let info = std::fs::read_to_string(args.bin_dir.join("build-info.txt")).unwrap_or_default();
    eprintln!(
        "tind-benchmark: {} seed={} seconds={} threads={}",
        info.replace('\n', " "),
        args.seed,
        if args.smoke { 3.0 } else { args.seconds },
        util::nproc()
    );

    let workloads: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().map_or(true, |name| name == w.name))
        .collect();
    if args.repeat > 0 {
        return repeat(&args, &workloads);
    }

    let mut ok = true;
    if let (Some(_), Some(traced)) = (&args.workload, args.trace) {
        // The driver's form: one workload, one mode, JSON on the last line.
        let workload = workloads[0];
        let table = table(traced)?;
        let result = run_workload(&args, workload, args.seed, traced, &table)?;
        print_report(workload.name, traced, &result, &table);
        println!("{}", result_json(&result, &table));
        ok = result.correct;
    } else {
        // The human's form: every workload untraced, then traced.
        for traced in [false, true] {
            let table = table(traced)?;
            for workload in &workloads {
                let result = run_workload(&args, workload, args.seed, traced, &table)?;
                print_report(workload.name, traced, &result, &table);
                ok &= result.correct;
            }
        }
    }
    Ok(ok)
}

fn main() {
    match main_inner() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("tind-benchmark: oracle mismatch or out-of-bound metric (see above)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("tind-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
