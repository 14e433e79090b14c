//! Command implementations. Every command returns its full textual output
//! so the layer is unit-testable; `main` only prints.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use tind_core::{
    discover_all_pairs, open_store, pack_store, repair_store, verify_store,
    AllPairsError, AllPairsOptions, BatchOptions, BuildOptions, CancelToken, Checkpoint,
    CheckpointPolicy, IndexConfig, OpenOptions, PackOptions, RepairOptions,
    SliceConfig, StoreBacking, StoreError, TindIndex, TindParams,
};
use tind_datagen::{generate, GeneratorConfig};
use tind_eval::{ExpContext, Scale};
use tind_model::binio::{read_dataset_file, write_dataset_file, BinIoError};
use tind_model::stats::DatasetStats;
use tind_model::{AttrId, Dataset, DatasetBuilder, MemoryBudget, Timeline, WeightFn};
use tind_serve::{Engine, ServeConfig, Server};

use crate::args::{ArgError, Args};

/// Errors surfaced to the user. Each maps to a stable process exit code
/// (see [`CliError::exit_code`]) so orchestration scripts can distinguish
/// "bad invocation" from "corrupt data" from "interrupted run".
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Unknown command or experiment.
    Unknown(String),
    /// Dataset file I/O or decoding failure (including checksum
    /// mismatches on any persisted artifact).
    Data(BinIoError),
    /// Other I/O failure (CSV output, ...).
    Io(std::io::Error),
    /// Fault-tolerant discovery failed (checkpoint unwritable, resume
    /// mismatch, or an unquarantined worker panic).
    Discovery(AllPairsError),
    /// A long-running command was interrupted (Ctrl-C or deadline) and
    /// stopped gracefully; `summary` describes the preserved progress.
    Interrupted {
        /// Human-readable progress report, including the checkpoint path
        /// when one was written.
        summary: String,
    },
    /// Anything else worth telling the user.
    Message(String),
}

/// Stable exit codes; documented in DESIGN.md ("Failure model & recovery").
impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Message(_) => 1,
            CliError::Args(_) | CliError::Unknown(_) => 2,
            CliError::Data(_) => 3,
            CliError::Io(_) => 4,
            CliError::Discovery(_) => 5,
            // Convention: 128 + SIGINT, like a shell reports an
            // interrupted child.
            CliError::Interrupted { .. } => 130,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "argument error: {e}"),
            CliError::Unknown(what) => write!(f, "unknown {what} (try `tind help`)"),
            CliError::Data(e) => write!(f, "dataset error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Discovery(e) => write!(f, "discovery error: {e}"),
            CliError::Interrupted { summary } => write!(f, "interrupted: {summary}"),
            CliError::Message(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<BinIoError> for CliError {
    fn from(e: BinIoError) -> Self {
        CliError::Data(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<AllPairsError> for CliError {
    fn from(e: AllPairsError) -> Self {
        CliError::Discovery(e)
    }
}

/// Options each command understands; anything else is rejected before the
/// command runs, so a typo'd `--chekpoint` cannot silently strip fault
/// tolerance from a long job.
const PARAMS: &[&str] = &["eps", "delta", "decay"];
fn allowed_options(command: &str) -> Option<Vec<&'static str>> {
    let mut allowed: Vec<&str> = match command {
        "generate" => vec!["attributes", "seed", "preset", "out", "truth-out"],
        "stats" => vec!["data"],
        "search" => {
            vec![
                "data", "query", "limit", "index", "store", "batch", "threads", "build-threads",
                "report", "trace",
            ]
        }
        "reverse-search" => {
            vec!["data", "query", "limit", "index", "store", "build-threads", "report"]
        }
        "partial-search" => vec!["data", "query", "sigma", "limit"],
        "top-k" => vec!["data", "query", "k", "index", "build-threads"],
        "explain" => vec!["data", "lhs", "rhs"],
        "index" => vec!["data", "out", "m", "reverse", "build-threads", "report"],
        "explore" => vec!["data", "index", "build-threads"],
        "serve" => vec![
            "data", "store", "host", "port", "port-file", "workers", "readers", "queue",
            "coalesce", "deadline-ms", "max-deadline-ms", "read-timeout-ms", "write-timeout-ms",
            "max-body-bytes", "memory-limit", "drain-grace-ms", "reverify-ms", "cache",
            "plan-cache", "store-backing", "trace-last", "metrics-tick-ms", "build-threads",
            "report", "quiet",
        ],
        "store" => vec![
            "data", "index", "out", "store", "shards", "m", "reverse", "format", "build-threads",
            "report",
        ],
        "all-pairs" => vec![
            "data", "threads", "checkpoint", "checkpoint-every", "deadline", "memory-limit",
            "resume", "quiet", "progress", "build-threads", "report", "trace",
        ],
        "trace" => vec!["file", "diff", "chrome"],
        "verify" => vec!["file", "data", "schema", "quarantine", "report"],
        "pipeline" => vec!["demo", "attributes", "seed"],
        "ingest" => vec![
            "dump", "out", "timeline", "epoch", "max-page-bytes", "max-error-rate",
            "memory-limit", "checkpoint", "checkpoint-every", "deadline", "quarantine-report",
            "resume", "quiet", "progress", "report",
        ],
        "update" => vec![
            "dump", "data", "out", "index", "index-out", "compact", "epoch", "max-page-bytes",
            "max-error-rate", "memory-limit", "checkpoint", "checkpoint-every", "deadline",
            "quarantine-report", "resume", "quiet", "progress", "report",
        ],
        "experiment" => vec!["scale", "seed", "threads", "attributes", "queries", "csv-dir"],
        "list-experiments" | "help" | "--help" | "-h" => vec![],
        _ => return None,
    };
    if matches!(
        command,
        "search"
            | "reverse-search"
            | "partial-search"
            | "top-k"
            | "explain"
            | "index"
            | "all-pairs"
            | "serve"
            | "store"
    ) {
        allowed.extend_from_slice(PARAMS);
    }
    allowed.push("help");
    Some(allowed)
}

/// Dispatches a full command line (without the program name).
///
/// One invocation is one observability run: the span/metric registry is
/// reset here, and `--report PATH` (on the commands that accept it)
/// snapshots everything into a `TINDRR` report *after* the command
/// returns, so every `phase.*` guard has been dropped and the report's
/// own serialization/IO never counts against phase coverage.
pub fn dispatch(raw: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = raw.split_first() else {
        return Ok(crate::USAGE.to_string());
    };
    tind_obs::reset();
    let run_started = std::time::Instant::now();
    let args = Args::parse(rest.iter().cloned())?;
    if let Some(allowed) = allowed_options(command.as_str()) {
        args.expect_known(&allowed)?;
    }
    let report_path: Option<PathBuf> = args.opt::<String>("report")?.map(Into::into);
    let result = run_command(command, &args);
    // Interrupted runs stopped *gracefully* — their partial-progress
    // report is exactly what an operator wants to inspect afterwards, so
    // `--report` is honored for them too (a drained `tind serve` flushes
    // its final report this way).
    let reportable = matches!(&result, Ok(_) | Err(CliError::Interrupted { .. }));
    if let (Some(path), true) = (&report_path, reportable) {
        let wall_ns = run_started.elapsed().as_nanos() as u64;
        let report = tind_obs::RunReport::collect(command, rest, wall_ns);
        publish_text(path, &report.to_json())?;
    }
    result
}

fn run_command(command: &str, args: &Args) -> Result<String, CliError> {
    match command {
        "generate" => cmd_generate(args),
        "stats" => cmd_stats(args),
        "search" => cmd_search(args, false),
        "reverse-search" => cmd_search(args, true),
        "partial-search" => cmd_partial_search(args),
        "top-k" => cmd_top_k(args),
        "explain" => cmd_explain(args),
        "index" => cmd_index(args),
        "explore" => cmd_explore(args),
        "serve" => cmd_serve(args),
        "store" => cmd_store(args),
        "all-pairs" => cmd_all_pairs(args),
        "verify" => cmd_verify(args),
        "trace" => cmd_trace(args),
        "pipeline" => cmd_pipeline(args),
        "ingest" => cmd_ingest(args),
        "update" => cmd_update(args),
        "experiment" => cmd_experiment(args),
        "list-experiments" => Ok(list_experiments()),
        "help" | "--help" | "-h" => Ok(crate::USAGE.to_string()),
        other => Err(CliError::Unknown(format!("command '{other}'"))),
    }
}

fn load_dataset(args: &Args) -> Result<Arc<Dataset>, CliError> {
    let _phase = tind_obs::span("phase.load");
    let path: PathBuf = args.required::<String>("data")?.into();
    Ok(Arc::new(read_dataset(&path)?))
}

/// Reads and decodes the dataset file at `path`, each step in its own
/// span under the caller's `phase.load`, so a report says which of the
/// two a slow load spent its time on.
fn read_dataset(path: &std::path::Path) -> Result<Dataset, BinIoError> {
    let bytes = {
        let _read = tind_obs::span("cli.load.read");
        std::fs::read(path)?
    };
    let _decode = tind_obs::span("cli.load.decode");
    tind_model::binio::decode_dataset(&bytes)
}

fn parse_params(args: &Args, dataset: &Dataset) -> Result<TindParams, CliError> {
    let eps = args.opt_or("eps", 3.0)?;
    let delta = args.opt_or("delta", 7u32)?;
    let weights = match args.opt::<f64>("decay")? {
        Some(a) => WeightFn::exponential(a, dataset.timeline()),
        None => WeightFn::constant_one(),
    };
    Ok(TindParams::weighted(eps, delta, weights))
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let attributes = args.opt_or("attributes", 1000usize)?;
    let seed = args.opt_or("seed", 42u64)?;
    let preset = args.opt_or("preset", "paper".to_string())?;
    let out: PathBuf = args.required::<String>("out")?.into();
    let cfg = match preset.as_str() {
        "small" => GeneratorConfig::small(attributes, seed),
        "paper" => GeneratorConfig::paper_shaped(attributes, seed),
        other => return Err(CliError::Unknown(format!("preset '{other}'"))),
    };
    let generated = generate(&cfg);
    write_dataset_file(&generated.dataset, &out)?;
    let mut extra = String::new();
    if let Some(truth_path) = args.opt::<String>("truth-out")? {
        let mut csv = String::from("lhs,rhs,lhs_name,rhs_name\n");
        for &(lhs, rhs) in generated.truth.genuine_pairs() {
            csv.push_str(&format!(
                "{lhs},{rhs},{},{}\n",
                generated.dataset.attribute(lhs).name(),
                generated.dataset.attribute(rhs).name()
            ));
        }
        std::fs::write(&truth_path, csv)?;
        extra = format!("ground truth written to {truth_path}\n");
    }
    let stats = DatasetStats::compute(&generated.dataset);
    Ok(format!(
        "wrote {} attributes ({} genuine pairs planted) to {}\n{extra}{stats}\n",
        generated.dataset.len(),
        generated.truth.genuine_pairs().len(),
        out.display()
    ))
}

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    Ok(format!("{}\n", DatasetStats::compute(&dataset)))
}

fn resolve_query(args: &Args, dataset: &Dataset) -> Result<AttrId, CliError> {
    let raw = args.required::<String>("query")?;
    if let Some((id, _)) = dataset.attribute_by_name(&raw) {
        return Ok(id);
    }
    if let Ok(id) = raw.parse::<AttrId>() {
        if (id as usize) < dataset.len() {
            return Ok(id);
        }
    }
    Err(CliError::Message(format!("query attribute '{raw}' not found (name or id)")))
}

/// Build options for ad-hoc index construction: `--build-threads 0`
/// (the default) uses every core — safe because parallel builds are
/// bit-identical to sequential ones.
fn build_options(args: &Args) -> Result<BuildOptions, CliError> {
    Ok(BuildOptions { threads: args.opt_or("build-threads", 0usize)?, ..BuildOptions::default() })
}

/// Maps a store failure onto the CLI's exit-code taxonomy: container
/// corruption is data (3), filesystem trouble is I/O (4), everything
/// else (quarantined shards, fingerprint drift) is a plain message (1).
fn store_error(e: StoreError) -> CliError {
    match e {
        StoreError::Bin(b) => CliError::Data(b),
        StoreError::Io(io) => CliError::Io(io),
        other => CliError::Message(format!("store error: {other}")),
    }
}

/// Builds the index for ad-hoc queries, or loads a persisted one when
/// `--index FILE` or `--store DIR` is given (the fingerprint must match
/// the data either way). A degraded store open succeeds with a warning:
/// searches over live attributes stay exact, masked ones are excluded.
///
/// A fresh build always mirrors its structure into the `index.*` gauges.
/// A loaded index does so only under `--report`, the one reader of those
/// gauges here: the load sweep reads every matrix word, which for a
/// one-shot query over an mmap'd store would fault the whole store in to
/// answer from a few rows of it.
fn obtain_index(
    args: &Args,
    dataset: &Arc<Dataset>,
    config: IndexConfig,
) -> Result<(TindIndex, std::time::Duration), CliError> {
    let _phase = tind_obs::span("phase.index_build");
    let (index_path, store_dir) = (args.opt::<String>("index")?, args.opt::<String>("store")?);
    if index_path.is_some() && store_dir.is_some() {
        return Err(CliError::Args(ArgError::Conflict { a: "index", b: "store" }));
    }
    let loaded = index_path.is_some() || store_dir.is_some();
    let obtained = match (index_path, store_dir) {
        (Some(path), _) => {
            let path: PathBuf = path.into();
            Ok(tind_eval::stats::time_it(|| {
                tind_core::persist::read_index_file(&path, dataset.clone())
            }))
            .and_then(|(res, d)| res.map(|i| (i, d)).map_err(CliError::Data))
        }
        (None, Some(dir)) => {
            let dir: PathBuf = dir.into();
            let (res, d) = tind_eval::stats::time_it(|| open_store(&dir, dataset.clone()));
            let (index, report) = res.map_err(store_error)?;
            if !report.is_clean() {
                eprintln!(
                    "warning: store at {} is degraded ({} of {} shards quarantined); \
                     masked attributes are excluded from results",
                    dir.display(),
                    report.quarantined.len(),
                    report.shards_total
                );
                for fault in &report.quarantined {
                    eprintln!("  {fault}");
                }
            }
            Ok((index, d))
        }
        (None, None) => {
            let options = build_options(args)?;
            Ok(tind_eval::stats::time_it(|| {
                TindIndex::build_with(dataset.clone(), config, &options)
            }))
        }
    }?;
    if !loaded || args.opt::<String>("report")?.is_some() {
        record_index_gauges(&obtained.0);
    }
    Ok(obtained)
}

/// Sampled attributes per time slice when estimating pruning power.
const SLICE_SAMPLE_CAP: usize = 256;

/// Mirror the structural health of an index into the metrics registry:
/// Bloom saturation and the classic `load^k` false-positive estimate for
/// `M_T` and the slice matrices, total filter bytes, and the slices'
/// pruning power `p(I)` — the fraction of (sampled) attributes that are
/// live inside each slice's δ-expanded window, averaged over slices. A
/// slice only prunes pairs whose LHS is live in it, so a low live
/// fraction means stage 2 has little to work with. Returns the
/// diagnostics it published so a caller that prints them does not sweep
/// the matrices a second time.
fn record_index_gauges(index: &TindIndex) -> tind_core::index::IndexDiagnostics {
    let d = index.diagnostics();
    let k = index.config().k_hashes as i32;
    tind_obs::gauge("index.m").set(f64::from(d.m));
    tind_obs::gauge("index.bloom_bytes").set(d.bloom_bytes as f64);
    tind_obs::gauge("index.m_t.load").set(d.m_t_load);
    tind_obs::gauge("index.m_t.est_fpr").set(d.m_t_load.powi(k));
    tind_obs::gauge("index.slices.count").set(d.num_slices as f64);
    tind_obs::gauge("index.slices.mean_load").set(d.mean_slice_load);
    tind_obs::gauge("index.slices.est_fpr").set(d.mean_slice_load.powi(k));
    tind_obs::gauge("index.slices.coverage").set(d.slice_coverage);

    let dataset = index.dataset();
    let n = dataset.len();
    let slices = index.time_slices();
    if n == 0 || slices.is_empty() {
        return d;
    }
    let step = (n / SLICE_SAMPLE_CAP.min(n)).max(1);
    let mut live_fraction_sum = 0.0;
    for slice in slices {
        let mut sampled = 0u32;
        let mut live = 0u32;
        for id in (0..n).step_by(step) {
            sampled += 1;
            let a = dataset.attribute(id as AttrId);
            let versions = &a.versions()[a.version_range_in(slice.expanded)];
            if versions.iter().any(|v| !v.values.is_empty()) {
                live += 1;
            }
        }
        live_fraction_sum += f64::from(live) / f64::from(sampled.max(1));
    }
    tind_obs::gauge("index.slices.mean_live_fraction")
        .set(live_fraction_sum / slices.len() as f64);
    d
}

/// A query over an attribute whose index columns live in a quarantined
/// store shard would silently come back empty; refuse it with a pointer
/// at `tind store repair` instead.
fn reject_masked_query(index: &TindIndex, dataset: &Dataset, id: AttrId) -> Result<(), CliError> {
    if index.is_masked(id) {
        return Err(CliError::Message(format!(
            "query attribute '{}' is covered by a quarantined store shard; \
             run `tind store repair` to restore it",
            dataset.attribute(id).name()
        )));
    }
    Ok(())
}

/// Parses the `--batch` value: comma-separated attribute names or ids.
fn parse_batch(spec: &str, dataset: &Dataset) -> Result<Vec<AttrId>, CliError> {
    let queries: Vec<AttrId> = spec
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| resolve_named(t, dataset))
        .collect::<Result<_, _>>()?;
    if queries.is_empty() {
        return Err(CliError::Args(ArgError::BadValue {
            option: "batch".into(),
            value: spec.into(),
            expected: "at least one comma-separated attribute name or id",
        }));
    }
    Ok(queries)
}

fn cmd_search(args: &Args, reverse: bool) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let params = parse_params(args, &dataset)?;
    let limit = args.opt_or("limit", 20usize)?;
    // `--trace FILE` writes a TINDTF timeline of the run. Reverse search
    // has no batch kernel seam to trace, so the option is forward-only.
    let trace_out: Option<PathBuf> =
        if reverse { None } else { args.opt::<String>("trace")?.map(Into::into) };
    let batch = if reverse { None } else { args.opt::<String>("batch")? };
    if batch.is_some() && args.opt::<String>("query")?.is_some() {
        return Err(CliError::Args(ArgError::Conflict { a: "batch", b: "query" }));
    }
    let query = if batch.is_some() { None } else { Some(resolve_query(args, &dataset)?) };

    let config = if reverse {
        IndexConfig {
            slices: SliceConfig::reverse_default(params.eps, params.weights.clone(), params.delta),
            ..IndexConfig::reverse_default()
        }
    } else {
        IndexConfig {
            slices: SliceConfig::search_default(params.eps, params.weights.clone(), params.delta),
            ..IndexConfig::default()
        }
    };
    let (index, build) = obtain_index(args, &dataset, config)?;
    if let Some(id) = query {
        reject_masked_query(&index, &dataset, id)?;
    }

    if let Some(spec) = batch {
        let queries = parse_batch(&spec, &dataset)?;
        for &qid in &queries {
            reject_masked_query(&index, &dataset, qid)?;
        }
        let root = trace_out.as_ref().map(|_| tind_obs::trace::alloc_context());
        let options = BatchOptions {
            threads: args.opt_or("threads", 0usize)?,
            trace: root,
            ..BatchOptions::default()
        };
        let phase = tind_obs::span("phase.search");
        let start = std::time::Instant::now();
        let trace_start = tind_obs::trace::now_ns();
        let outcome = index.search_batch_with(&queries, &params, &options);
        let elapsed = start.elapsed();
        drop(phase);
        if let (Some(path), Some(root)) = (&trace_out, root) {
            tind_obs::trace::record_span(
                root,
                0,
                "cli.search",
                trace_start,
                elapsed.as_nanos() as u64,
            );
            write_trace_file(path, root)?;
        }

        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch of {} queries (ε={}, δ={}) took {} — {} on {} thread(s), index build {}",
            queries.len(),
            params.eps,
            params.delta,
            tind_obs::fmt_duration_ns(elapsed.as_nanos() as u64),
            tind_obs::fmt_rate(queries.len() as u64, elapsed.as_secs_f64(), "queries"),
            outcome.threads_used,
            tind_obs::fmt_duration_ns(build.as_nanos() as u64),
        );
        let (mut runs, mut ev, mut ei, mut nanos) = (0u64, 0u64, 0u64, 0u64);
        for per_query in outcome.outcomes.iter().flatten() {
            runs += per_query.stats.validations_run as u64;
            ev += per_query.stats.early_valid_exits as u64;
            ei += per_query.stats.early_invalid_exits as u64;
            nanos += per_query.stats.validate_nanos;
        }
        let _ = writeln!(out, "{}", tind_obs::fmt_validation_summary(runs, ev, ei, nanos));
        for (&qid, per_query) in queries.iter().zip(&outcome.outcomes) {
            let Some(per_query) = per_query.as_ref() else {
                return Err(CliError::Message(
                    "internal: batch search skipped a query although no \
                     cancellation was configured"
                        .into(),
                ));
            };
            let _ = writeln!(
                out,
                "  {}: {} results",
                dataset.attribute(qid).name(),
                per_query.results.len()
            );
            for &id in per_query.results.iter().take(limit) {
                let _ = writeln!(out, "    {}", dataset.attribute(id).name());
            }
            if per_query.results.len() > limit {
                let _ = writeln!(
                    out,
                    "    … and {} more (raise --limit)",
                    per_query.results.len() - limit
                );
            }
        }
        return Ok(out);
    }

    let Some(query) = query else {
        return Err(CliError::Message(
            "internal: single search did not resolve a query attribute".into(),
        ));
    };
    let phase = tind_obs::span("phase.search");
    let start = std::time::Instant::now();
    let trace_start = tind_obs::trace::now_ns();
    let root = trace_out.as_ref().map(|_| tind_obs::trace::alloc_context());
    let outcome = if reverse {
        index.reverse_search(query, &params)
    } else if let Some(root) = root {
        // Traced: route the single query through a size-1 batch — the
        // batch path carries the trace seam, and its results are pinned
        // byte-identical to per-query search by the core equivalence
        // tests.
        let mut batch = index.search_batch_with(
            &[query],
            &params,
            &BatchOptions { threads: 1, trace: Some(root), ..BatchOptions::default() },
        );
        batch.outcomes.pop().flatten().ok_or_else(|| {
            CliError::Message(
                "internal: traced search skipped its query although no \
                 cancellation was configured"
                    .into(),
            )
        })?
    } else {
        index.search(query, &params)
    };
    let elapsed = start.elapsed();
    drop(phase);
    if let (Some(path), Some(root)) = (&trace_out, root) {
        tind_obs::trace::record_span(root, 0, "cli.search", trace_start, elapsed.as_nanos() as u64);
        write_trace_file(path, root)?;
    }

    let mut out = String::new();
    let direction = if reverse { "⊇" } else { "⊆" };
    let _ = writeln!(
        out,
        "{} results for '{}' {direction} · (ε={}, δ={}), query took {} (index build {})",
        outcome.results.len(),
        dataset.attribute(query).name(),
        params.eps,
        params.delta,
        tind_obs::fmt_duration_ns(elapsed.as_nanos() as u64),
        tind_obs::fmt_duration_ns(build.as_nanos() as u64),
    );
    for &id in outcome.results.iter().take(limit) {
        let _ = writeln!(out, "  {}", dataset.attribute(id).name());
    }
    if outcome.results.len() > limit {
        let _ = writeln!(out, "  … and {} more (raise --limit)", outcome.results.len() - limit);
    }
    let s = &outcome.stats;
    let _ = writeln!(
        out,
        "pruning: {}",
        tind_obs::fmt_pipeline(&[
            ("initial", s.initial as u64),
            ("required", s.after_required as u64),
            ("slices", s.after_slices as u64),
            ("exact", s.after_exact as u64),
            ("valid", s.validated as u64),
        ])
    );
    let _ = writeln!(
        out,
        "{}",
        tind_obs::fmt_validation_summary(
            s.validations_run as u64,
            s.early_valid_exits as u64,
            s.early_invalid_exits as u64,
            s.validate_nanos,
        )
    );
    Ok(out)
}

fn cmd_partial_search(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let base = parse_params(args, &dataset)?;
    let sigma = args.opt_or("sigma", 0.8f64)?;
    if !(sigma > 0.0 && sigma <= 1.0) {
        return Err(CliError::Message(format!("--sigma must be in (0, 1], got {sigma}")));
    }
    let limit = args.opt_or("limit", 20usize)?;
    let query = resolve_query(args, &dataset)?;
    let params = tind_core::partial::PartialParams::new(base, sigma);
    let index = TindIndex::build(dataset.clone(), IndexConfig::default());
    let start = std::time::Instant::now();
    let outcome = tind_core::partial::partial_search(&index, query, &params);
    let elapsed = start.elapsed();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} σ-partial results for '{}' (σ={}, ε={}, δ={}), query took {}",
        outcome.results.len(),
        dataset.attribute(query).name(),
        sigma,
        params.base.eps,
        params.base.delta,
        tind_eval::report::fmt_duration(elapsed),
    );
    for &id in outcome.results.iter().take(limit) {
        let _ = writeln!(out, "  {}", dataset.attribute(id).name());
    }
    if outcome.results.len() > limit {
        let _ = writeln!(out, "  … and {} more (raise --limit)", outcome.results.len() - limit);
    }
    Ok(out)
}

fn cmd_all_pairs(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let params = parse_params(args, &dataset)?;
    let threads = args.opt_or("threads", 0usize)?;
    let checkpoint_path: Option<PathBuf> = args.opt::<String>("checkpoint")?.map(Into::into);
    let checkpoint_every = args.opt_or("checkpoint-every", 256usize)?;
    let deadline_secs = args.opt::<f64>("deadline")?;
    let memory_limit = args.opt::<usize>("memory-limit")?;

    // --resume picks up where an interrupted run's checkpoint left off; a
    // missing checkpoint file just means "first attempt", so restart
    // loops can pass --resume unconditionally.
    let resume_from = if args.switch("resume") {
        let path = checkpoint_path
            .as_ref()
            .ok_or_else(|| CliError::Message("--resume requires --checkpoint FILE".into()))?;
        if path.exists() {
            let cp = Checkpoint::decode(&std::fs::read(path)?)?;
            cp.verify_matches(&dataset, &params)?;
            Some(cp)
        } else {
            None
        }
    } else {
        None
    };
    let resumed = resume_from.as_ref().map_or(0, |cp| cp.completed.len());

    let config = IndexConfig {
        slices: SliceConfig::search_default(params.eps, params.weights.clone(), params.delta),
        ..IndexConfig::default()
    };
    let build_opts = build_options(args)?;
    let build_phase = tind_obs::span("phase.index_build");
    let (index, build) =
        tind_eval::stats::time_it(|| TindIndex::build_with(dataset.clone(), config, &build_opts));
    record_index_gauges(&index);
    drop(build_phase);

    let reporter = tind_obs::Reporter::new(
        args.switch("quiet"),
        args.opt_or("progress", (dataset.len() / 10).max(1))?,
    );
    let trace_out: Option<PathBuf> = args.opt::<String>("trace")?.map(Into::into);
    let root = trace_out.as_ref().map(|_| tind_obs::trace::alloc_context());
    let options = AllPairsOptions {
        threads,
        checkpoint: checkpoint_path
            .clone()
            .map(|p| CheckpointPolicy::new(p).every(checkpoint_every)),
        resume_from,
        cancel: Some(CancelToken::install_ctrl_c()),
        deadline: deadline_secs.map(Duration::from_secs_f64),
        memory_budget: memory_limit.map(MemoryBudget::new),
        progress_every: reporter.every(),
        trace: root,
        fault_hook: None,
    };
    let discover_phase = tind_obs::span("phase.discover");
    let trace_start = tind_obs::trace::now_ns();
    let outcome = discover_all_pairs(&index, &params, &options)?;
    drop(discover_phase);
    if let (Some(path), Some(root)) = (&trace_out, root) {
        tind_obs::trace::record_span(
            root,
            0,
            "cli.all_pairs",
            trace_start,
            tind_obs::trace::now_ns().saturating_sub(trace_start),
        );
        write_trace_file(path, root)?;
    }

    if outcome.cancelled {
        let checkpoint_note = match (&checkpoint_path, outcome.checkpoint_written) {
            (Some(p), true) => format!("; progress checkpointed to {}", p.display()),
            _ => "; no checkpoint configured — progress lost (pass --checkpoint FILE)".into(),
        };
        return Err(CliError::Interrupted {
            summary: format!(
                "all-pairs stopped after {}/{} queries ({} pairs so far){checkpoint_note}",
                outcome.completed_queries,
                outcome.total_queries,
                outcome.pairs.len(),
            ),
        });
    }

    let mut out = format!(
        "{} tINDs among {} attributes (ε={}, δ={})\nindex build {}, discovery {} ({}), {} worker thread(s)\n",
        outcome.pairs.len(),
        dataset.len(),
        params.eps,
        params.delta,
        tind_obs::fmt_duration_ns(build.as_nanos() as u64),
        tind_obs::fmt_duration_ns(outcome.elapsed.as_nanos() as u64),
        tind_obs::fmt_rate(
            outcome.completed_queries as u64,
            outcome.elapsed.as_secs_f64(),
            "queries"
        ),
        outcome.threads_used,
    );
    let _ = writeln!(
        out,
        "{}",
        tind_obs::fmt_validation_summary(
            outcome.validations_run as u64,
            outcome.early_valid_exits as u64,
            outcome.early_invalid_exits as u64,
            outcome.validate_nanos,
        )
    );
    if resumed > 0 {
        let _ = writeln!(out, "resumed past {resumed} previously completed queries");
    }
    if !outcome.poisoned_queries.is_empty() {
        let _ = writeln!(
            out,
            "WARNING: {} query attribute(s) panicked and were quarantined: {:?}",
            outcome.poisoned_queries.len(),
            outcome.poisoned_queries,
        );
    }
    Ok(out)
}

/// Verifies the integrity (magic, format version, CRC-32 trailer, and
/// where possible full structure) of any file in [`VERIFY_FORMATS`], or
/// of a store directory.
fn cmd_verify(args: &Args) -> Result<String, CliError> {
    let _phase = tind_obs::span("phase.verify");
    let path: PathBuf = match args.positional().first() {
        Some(p) => p.clone().into(),
        None => args.required::<String>("file")?.into(),
    };
    if path.is_dir() {
        return verify_store_dir(&path);
    }
    let bytes = std::fs::read(&path)?;
    if bytes.len() < 8 {
        return Err(CliError::Data(BinIoError::Corrupt(
            "file too short to hold a magic header".into(),
        )));
    }
    let Some(format) = VERIFY_FORMATS.iter().find(|f| bytes.starts_with(f.prefix)) else {
        let names: Vec<_> = VERIFY_FORMATS.iter().map(|f| f.name).collect();
        return Err(CliError::Data(BinIoError::Corrupt(format!(
            "unrecognized file type (not a tind {})",
            names.join(", ")
        ))));
    };
    let detail = (format.describe)(args, &bytes)?;
    Ok(format!("OK {} ({} bytes)\n{detail}\n", path.display(), bytes.len()))
}

/// One file format `tind verify FILE` recognizes.
pub struct VerifyFormat {
    /// The leading bytes that identify the format: a binary magic without
    /// its version byte (a wrong version reaches the decoder, which names
    /// it), or the opening of a JSON envelope.
    pub prefix: &'static [u8],
    /// The format's name in `tind verify`'s messages.
    pub name: &'static str,
    /// Checks the whole file and describes it in one line.
    describe: Describe,
}

type Describe = fn(&Args, &[u8]) -> Result<String, CliError>;

const fn binary(name: &'static str, magic: &'static [u8; 8], describe: Describe) -> VerifyFormat {
    VerifyFormat { prefix: magic.split_at(7).0, name, describe }
}

const fn json(name: &'static str, prefix: &'static str, describe: Describe) -> VerifyFormat {
    VerifyFormat { prefix: prefix.as_bytes(), name, describe }
}

/// Every file format `tind verify FILE` recognizes.
pub const VERIFY_FORMATS: &[VerifyFormat] = &[
    binary("dataset", tind_model::binio::MAGIC, describe_dataset),
    binary("index", tind_core::persist::INDEX_MAGIC, describe_index),
    binary("checkpoint", tind_core::checkpoint::CHECKPOINT_MAGIC, describe_checkpoint),
    binary("quarantine report", tind_model::quarantine::QUARANTINE_MAGIC, describe_quarantine),
    binary("store manifest", tind_core::store::MANIFEST_MAGIC, describe_manifest),
    binary("store shard", tind_core::store::SHARD_MAGIC, describe_shard),
    binary("ingest checkpoint", tind_wiki::ingest::INGEST_CHECKPOINT_MAGIC, describe_ingest),
    binary("update checkpoint", tind_wiki::ingest::UPDATE_CHECKPOINT_MAGIC, describe_ingest),
    json("run report", tind_obs::REPORT_PREFIX, describe_run_report),
    json("trace", tind_obs::TRACE_PREFIX, describe_trace),
];

fn describe_dataset(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let dataset = tind_model::binio::decode_dataset(bytes)?;
    Ok(format!(
        "dataset: {} attributes over a {}-day timeline, {} dictionary entries",
        dataset.len(),
        dataset.timeline().len(),
        dataset.dictionary().len(),
    ))
}

fn describe_index(args: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let fingerprint = tind_core::persist::verify_index_container(bytes)?;
    Ok(match args.opt::<String>("data")? {
        Some(data_path) => {
            let dataset = Arc::new(read_dataset_file(std::path::Path::new(&data_path))?);
            let index = tind_core::persist::decode_index(bytes, dataset)?;
            format!(
                "index: bound to dataset {data_path} (fingerprint {fingerprint:#018x}), {} time slices",
                index.time_slices().len(),
            )
        }
        None => format!(
            "index: container intact, dataset fingerprint {fingerprint:#018x} \
             (pass --data FILE to verify the full structure)"
        ),
    })
}

fn describe_checkpoint(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let cp = Checkpoint::decode(bytes)?;
    Ok(format!(
        "checkpoint: {}/{} queries completed, {} pairs, {} poisoned, dataset fingerprint {:#018x}{}",
        cp.completed.len(),
        cp.total_queries,
        cp.pairs.len(),
        cp.poisoned.len(),
        cp.dataset_fingerprint,
        if cp.is_complete() { " (run complete)" } else { "" },
    ))
}

fn describe_quarantine(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let q = tind_model::QuarantineReport::decode(bytes)?;
    Ok(format!(
        "quarantine report: {}/{} pages quarantined ({} sampled), {} of {} revisions dropped, source fingerprint {:#018x}",
        q.pages_quarantined,
        q.pages_seen,
        q.entries.len(),
        q.revisions_dropped,
        q.revisions_dropped + q.revisions_kept,
        q.source_fingerprint,
    ))
}

/// A bare manifest: the CRC check names the failing byte offset; shard
/// digests need the whole directory.
fn describe_manifest(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let payload = tind_model::checksum::verify_and_strip(bytes)?.len();
    Ok(format!(
        "store manifest: container intact ({payload} payload bytes); \
         run `tind store verify` on its directory to check shard digests"
    ))
}

/// The version byte must be the arena's (a v1 shard is refused by name);
/// then the CRC check names the failing byte offset on a mismatch.
fn describe_shard(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    tind_core::store::check_shard_magic(bytes).map_err(store_error)?;
    let payload = tind_model::checksum::verify_and_strip(bytes)?.len();
    Ok(format!(
        "store shard: arena layout, container intact ({payload} payload bytes); \
         run `tind store verify` on its directory to check it against the manifest"
    ))
}

fn describe_ingest(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let cp = tind_wiki::IngestCheckpoint::decode(bytes)?;
    // The embedded dataset blob is opaque to checkpoint decoding; verify
    // digs all the way in.
    let partial = tind_model::binio::decode_dataset(&cp.dataset_bytes)?;
    let q = &cp.quarantine;
    Ok(match &cp.delta {
        None => format!(
            "ingest checkpoint: resume offset {}, {} pages seen ({} quarantined), \
             partial dataset {} attributes, source fingerprint {:#018x}",
            cp.resume_offset,
            q.pages_seen,
            q.pages_quarantined,
            partial.len(),
            cp.source_fingerprint,
        ),
        Some(delta) => format!(
            "update checkpoint: resume offset {}, {} delta pages seen ({} quarantined), \
             {} attribute(s) touched, partial dataset {} attributes, \
             base fingerprint {:#018x}, source fingerprint {:#018x}",
            cp.resume_offset,
            q.pages_seen,
            q.pages_quarantined,
            delta.touched.len(),
            partial.len(),
            delta.base_fingerprint,
            cp.source_fingerprint,
        ),
    })
}

/// `tind verify DIR` / `tind store verify` on a sharded store: checks
/// the manifest CRC, every shard's size, digest and header bindings,
/// and reports each fault with the shard id and expected/actual CRC.
fn verify_store_dir(dir: &std::path::Path) -> Result<String, CliError> {
    let report = verify_store(dir).map_err(store_error)?;
    if report.faults.is_empty() {
        return Ok(format!(
            "OK {} (store)\nstore: generation {}, {} shard(s) verified, \
             dataset fingerprint {:#018x}\n",
            dir.display(),
            report.generation,
            report.shards_total,
            report.fingerprint,
        ));
    }
    let mut msg = format!(
        "store at {}: {} of {} shard(s) faulty (generation {})\n",
        dir.display(),
        report.faults.len(),
        report.shards_total,
        report.generation,
    );
    for fault in &report.faults {
        let _ = writeln!(msg, "  {fault}");
    }
    msg.push_str("run `tind store repair --store DIR --data FILE` to rebuild the lost shards");
    Err(CliError::Message(msg))
}

/// Looks up a gauge value in a report payload's `metrics.gauges` section.
fn report_gauge(payload: &tind_obs::Value, name: &str) -> Option<f64> {
    payload
        .get("metrics")?
        .get("gauges")?
        .as_arr()?
        .iter()
        .find(|g| g.get("name").and_then(tind_obs::Value::as_str) == Some(name))?
        .get("value")?
        .as_f64()
}

/// `tind verify` on a `TINDRR` run report: checks the CRC envelope, then
/// optionally validates the payload against a JSON schema (`--schema`)
/// and cross-checks the report's running `ingest.quarantined_total`
/// gauge against a quarantine artifact (`--quarantine`).
fn describe_run_report(args: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CliError::Data(BinIoError::Corrupt(format!("run report is not UTF-8: {e}"))))?;
    let payload = tind_obs::verify_report(text)
        .map_err(|e| CliError::Data(BinIoError::Corrupt(format!("run report: {e}"))))?;
    let command = payload.get("command").and_then(tind_obs::Value::as_str).unwrap_or("?");
    let wall_ns = payload.get("wall_ns").and_then(tind_obs::Value::as_f64).unwrap_or(0.0) as u64;
    let coverage =
        payload.get("phase_coverage").and_then(tind_obs::Value::as_f64).unwrap_or(0.0);
    let phases = payload.get("phases").and_then(tind_obs::Value::as_arr).map_or(0, <[_]>::len);

    let mut detail = format!(
        "run report: `{command}` in {}, {phases} phase(s) covering {:.0}% of wall time",
        tind_obs::fmt_duration_ns(wall_ns),
        coverage * 100.0,
    );

    if let Some(schema_path) = args.opt::<String>("schema")? {
        let schema_text = std::fs::read_to_string(&schema_path)?;
        let schema = tind_obs::json::parse(&schema_text).map_err(|e| {
            CliError::Data(BinIoError::Corrupt(format!("schema {schema_path}: {e}")))
        })?;
        let errors = tind_obs::validate_schema(&payload, &schema);
        if !errors.is_empty() {
            return Err(CliError::Message(format!(
                "report does not match {schema_path} ({} error(s)):\n  {}",
                errors.len(),
                errors.join("\n  "),
            )));
        }
        let _ = write!(detail, "\nschema: conforms to {schema_path}");
    }

    if let Some(q_path) = args.opt::<String>("quarantine")? {
        let q = tind_model::QuarantineReport::decode(&std::fs::read(&q_path)?)?;
        let gauge = report_gauge(&payload, "ingest.quarantined_total").ok_or_else(|| {
            CliError::Message(
                "report carries no ingest.quarantined_total gauge — was it produced by \
                 `tind ingest --report`?"
                    .into(),
            )
        })?;
        if gauge != q.pages_quarantined as f64 {
            return Err(CliError::Message(format!(
                "quarantine mismatch: report gauge ingest.quarantined_total = {gauge}, \
                 artifact {q_path} records {} quarantined page(s)",
                q.pages_quarantined,
            )));
        }
        if q.entries.len() as u64 > q.pages_quarantined {
            return Err(CliError::Message(format!(
                "quarantine artifact {q_path} is inconsistent: {} sampled entries exceed \
                 its own total of {} quarantined page(s)",
                q.entries.len(),
                q.pages_quarantined,
            )));
        }
        let _ = write!(
            detail,
            "\nquarantine: gauge matches {q_path} ({} quarantined, {} sampled)",
            q.pages_quarantined,
            q.entries.len(),
        );
    }
    Ok(detail)
}

/// `tind verify` on a `TINDTF` trace file (or one line of a multi-trace
/// export): checks the CRC envelope of every line and summarizes the
/// first trace. Corruption is refused with the failing byte offset.
fn describe_trace(_: &Args, bytes: &[u8]) -> Result<String, CliError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CliError::Data(BinIoError::Corrupt(format!("trace file is not UTF-8: {e}"))))?;
    let mut first: Option<tind_obs::ParsedTrace> = None;
    let mut lines = 0usize;
    let mut offset = 0usize;
    for line in text.lines() {
        if !line.trim().is_empty() {
            let payload = tind_obs::verify_trace(line).map_err(|e| {
                CliError::Data(BinIoError::Corrupt(format!(
                    "trace (line starting at byte offset {offset}): {e}"
                )))
            })?;
            let parsed = tind_obs::ParsedTrace::from_payload(&payload)
                .map_err(|e| CliError::Data(BinIoError::Corrupt(format!("trace: {e}"))))?;
            lines += 1;
            first.get_or_insert(parsed);
        }
        offset += line.len() + 1;
    }
    let Some(trace) = first else {
        return Err(CliError::Data(BinIoError::Corrupt("trace file holds no traces".into())));
    };
    let spans = trace.events.iter().filter(|e| e.kind == "span").count();
    let links = trace.events.len() - spans;
    let mut detail = format!(
        "trace: {} — {spans} span(s), {links} link(s), {} dropped",
        trace.trace_id, trace.dropped,
    );
    if let Some(cov) = trace.coverage() {
        let _ = write!(detail, ", coverage {:.0}%", cov * 100.0);
    }
    if lines > 1 {
        let _ = write!(detail, " (+{} more trace(s) verified)", lines - 1);
    }
    Ok(detail)
}

/// Collect `root`'s trace from the rings and write it as a one-line
/// checksummed `TINDTF` file.
fn write_trace_file(path: &std::path::Path, root: tind_obs::TraceContext) -> Result<(), CliError> {
    let snapshot = tind_obs::collect_trace(root, &[]);
    Ok(publish_text(path, &snapshot.to_json())?)
}

/// Writes `text` to `path` through [`tind_model::binio::publish`].
fn publish_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    let mut budget = tind_model::binio::OpBudget::default();
    tind_model::binio::publish(path, &mut budget, |file| file.write_all(text.as_bytes()))
}

/// Reads a `TINDTF` file (first trace of a multi-trace export).
fn read_trace_file(path: &std::path::Path) -> Result<tind_obs::ParsedTrace, CliError> {
    let text = std::fs::read_to_string(path)?;
    let line = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| CliError::Data(BinIoError::Corrupt("trace file holds no traces".into())))?;
    let payload = tind_obs::verify_trace(line)
        .map_err(|e| CliError::Data(BinIoError::Corrupt(format!("trace: {e}"))))?;
    tind_obs::ParsedTrace::from_payload(&payload)
        .map_err(|e| CliError::Data(BinIoError::Corrupt(format!("trace: {e}"))))
}

/// `tind trace FILE`: renders a `TINDTF` trace as a per-stage waterfall;
/// `--chrome OUT` additionally exports Chrome `trace_event` JSON, and
/// `--diff FILE2` compares per-stage totals between two traces.
fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let _phase = tind_obs::span("phase.trace");
    let path: PathBuf = match args.positional().first() {
        Some(p) => p.clone().into(),
        None => args.required::<String>("file")?.into(),
    };
    let trace = read_trace_file(&path)?;
    let mut out = render_waterfall(&trace);

    if let Some(chrome_path) = args.opt::<String>("chrome")? {
        std::fs::write(&chrome_path, trace.to_chrome_json())?;
        let _ = writeln!(out, "chrome trace_event JSON written to {chrome_path}");
    }
    if let Some(other_path) = args.opt::<String>("diff")? {
        let other = read_trace_file(std::path::Path::new(&other_path))?;
        out.push('\n');
        out.push_str(&render_diff(&trace, &other, &path, std::path::Path::new(&other_path)));
    }
    Ok(out)
}

/// Per-stage waterfall of one trace: each span on its own line, indented
/// by parent depth, with a bar positioned against the root interval.
fn render_waterfall(trace: &tind_obs::ParsedTrace) -> String {
    use std::collections::HashMap;
    const BAR: usize = 40;

    let spans: Vec<&tind_obs::ParsedEvent> =
        trace.events.iter().filter(|e| e.kind == "span").collect();
    let links = trace.events.len() - spans.len();
    let mut out = format!(
        "trace {} — {} span(s), {links} link(s)",
        trace.trace_id,
        spans.len(),
    );
    if let Some(cov) = trace.coverage() {
        let _ = write!(out, ", coverage {:.0}% of root", cov * 100.0);
    }
    out.push('\n');
    if trace.dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: {} event(s) dropped to ring overflow — this trace may be incomplete",
            trace.dropped,
        );
    }
    let missing = trace.missing_parents();
    if missing > 0 {
        let _ = writeln!(
            out,
            "WARNING: {missing} event(s) reference spans recorded nowhere — \
             parent edges or link targets are missing",
        );
    }
    if spans.is_empty() {
        out.push_str("(no spans recorded — was the producer built with obs-off?)\n");
        return out;
    }

    // Scale bars to the full recorded interval (root included).
    let lo = spans.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let hi = spans.iter().map(|e| e.start_ns + e.dur_ns).max().unwrap_or(lo + 1);
    let total = (hi - lo).max(1);

    // Depth via parent edges, memoized; unknown parents sit at depth 0.
    let by_id: HashMap<&str, &tind_obs::ParsedEvent> =
        spans.iter().map(|e| (e.span.as_str(), *e)).collect();
    fn depth_of(
        id: &str,
        by_id: &HashMap<&str, &tind_obs::ParsedEvent>,
        memo: &mut HashMap<String, usize>,
        hops: usize,
    ) -> usize {
        if hops > 64 {
            return 0; // cycle guard — corrupt parent edges must not hang
        }
        if let Some(d) = memo.get(id) {
            return *d;
        }
        let d = match by_id.get(id) {
            Some(e) if e.parent != "0x0" && by_id.contains_key(e.parent.as_str()) => {
                1 + depth_of(&e.parent, by_id, memo, hops + 1)
            }
            _ => 0,
        };
        memo.insert(id.to_string(), d);
        d
    }
    let mut memo = HashMap::new();

    let mut rows: Vec<(&tind_obs::ParsedEvent, usize)> = spans
        .iter()
        .map(|e| {
            let d = depth_of(&e.span, &by_id, &mut memo, 0);
            (*e, d)
        })
        .collect();
    rows.sort_by_key(|(e, _)| (e.start_ns, e.span.clone()));

    for (e, depth) in rows {
        let from = ((e.start_ns - lo) as u128 * BAR as u128 / total as u128) as usize;
        let width =
            ((e.dur_ns as u128 * BAR as u128).div_ceil(total as u128) as usize).clamp(1, BAR);
        let from = from.min(BAR - 1);
        let width = width.min(BAR - from);
        let mut bar = String::with_capacity(BAR);
        bar.extend(std::iter::repeat_n(' ', from));
        bar.extend(std::iter::repeat_n('#', width));
        bar.extend(std::iter::repeat_n(' ', BAR - from - width));
        let _ = writeln!(
            out,
            "  [{bar}] {:indent$}{} {} (tid {})",
            "",
            e.name,
            tind_obs::fmt_duration_ns(e.dur_ns),
            e.tid,
            indent = depth * 2,
        );
    }
    out
}

/// Aggregate per-stage comparison of two traces: for every span name in
/// either, total duration and count side by side with the delta.
fn render_diff(
    a: &tind_obs::ParsedTrace,
    b: &tind_obs::ParsedTrace,
    a_path: &std::path::Path,
    b_path: &std::path::Path,
) -> String {
    use std::collections::BTreeMap;
    fn totals(t: &tind_obs::ParsedTrace) -> BTreeMap<String, (u64, u64)> {
        let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for e in t.events.iter().filter(|e| e.kind == "span") {
            let entry = m.entry(e.name.clone()).or_insert((0, 0));
            entry.0 += e.dur_ns;
            entry.1 += 1;
        }
        m
    }
    let (ta, tb) = (totals(a), totals(b));
    let mut out = format!("diff {} → {}\n", a_path.display(), b_path.display());
    let names: std::collections::BTreeSet<&String> = ta.keys().chain(tb.keys()).collect();
    for name in names {
        let (da, ca) = ta.get(name).copied().unwrap_or((0, 0));
        let (db, cb) = tb.get(name).copied().unwrap_or((0, 0));
        let delta = db as i128 - da as i128;
        let sign = if delta >= 0 { "+" } else { "-" };
        let _ = writeln!(
            out,
            "  {name}: {} ({ca}×) → {} ({cb}×)  {sign}{}",
            tind_obs::fmt_duration_ns(da),
            tind_obs::fmt_duration_ns(db),
            tind_obs::fmt_duration_ns(delta.unsigned_abs() as u64),
        );
    }
    out
}

fn cmd_top_k(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let k = args.opt_or("k", 5usize)?;
    let delta = args.opt_or("delta", 7u32)?;
    let weights = match args.opt::<f64>("decay")? {
        Some(a) => tind_model::WeightFn::exponential(a, dataset.timeline()),
        None => tind_model::WeightFn::constant_one(),
    };
    let query = resolve_query(args, &dataset)?;
    let config = IndexConfig {
        slices: SliceConfig::search_default(3.0, weights.clone(), delta),
        ..IndexConfig::default()
    };
    let (index, _) = obtain_index(args, &dataset, config)?;
    let start = std::time::Instant::now();
    let ranked = tind_core::topk::top_k_search(&index, query, k, delta, &weights);
    let elapsed = start.elapsed();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "top-{k} right-hand sides for '{}' by violation weight (δ={delta}), {} elapsed:",
        dataset.attribute(query).name(),
        tind_eval::report::fmt_duration(elapsed),
    );
    for r in &ranked {
        let _ = writeln!(
            out,
            "  {:<40} violation {:.3}",
            dataset.attribute(r.rhs).name(),
            r.violation
        );
    }
    Ok(out)
}

fn cmd_explain(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let params = parse_params(args, &dataset)?;
    let lhs = {
        let raw = args.required::<String>("lhs")?;
        resolve_named(&raw, &dataset)?
    };
    let rhs = {
        let raw = args.required::<String>("rhs")?;
        resolve_named(&raw, &dataset)?
    };
    let explanation = tind_core::explain::explain(
        dataset.attribute(lhs),
        dataset.attribute(rhs),
        &params,
        dataset.timeline(),
    );
    Ok(format!(
        "{} ⊆ {} (ε={}, δ={}):\n{}",
        dataset.attribute(lhs).name(),
        dataset.attribute(rhs).name(),
        params.eps,
        params.delta,
        explanation.render(&dataset)
    ))
}

fn resolve_named(raw: &str, dataset: &Dataset) -> Result<AttrId, CliError> {
    if let Some((id, _)) = dataset.attribute_by_name(raw) {
        return Ok(id);
    }
    if let Ok(id) = raw.parse::<AttrId>() {
        if (id as usize) < dataset.len() {
            return Ok(id);
        }
    }
    Err(CliError::Message(format!("attribute '{raw}' not found (name or id)")))
}

fn cmd_index(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let out: PathBuf = args.required::<String>("out")?.into();
    let m = args.opt_or("m", 4096u32)?;
    let eps = args.opt_or("eps", 3.0f64)?;
    let delta = args.opt_or("delta", 7u32)?;
    let reverse = args.opt_or("reverse", false)?;
    let config = if reverse {
        IndexConfig {
            m,
            slices: SliceConfig::reverse_default(eps, tind_model::WeightFn::constant_one(), delta),
            build_reverse: true,
            ..IndexConfig::reverse_default()
        }
    } else {
        IndexConfig {
            m,
            slices: SliceConfig::search_default(eps, tind_model::WeightFn::constant_one(), delta),
            ..IndexConfig::default()
        }
    };
    let options =
        BuildOptions { progress_every: 32, ..build_options(args)? };
    let build_phase = tind_obs::span("phase.index_build");
    let (index, build) =
        tind_eval::stats::time_it(|| TindIndex::build_with(dataset.clone(), config, &options));
    let diagnostics = record_index_gauges(&index);
    drop(build_phase);
    {
        let _phase = tind_obs::span("phase.write_output");
        tind_core::persist::write_index_file(&index, &out)?;
    }
    Ok(format!(
        "indexed {} attributes in {} -> {}\n{}\n",
        dataset.len(),
        tind_eval::report::fmt_duration(build),
        out.display(),
        diagnostics,
    ))
}

/// `tind store <pack|verify|repair>` — manage a crash-safe sharded
/// index store directory ([`tind_core::store`]).
fn cmd_store(args: &Args) -> Result<String, CliError> {
    let verb = args.positional().first().map(String::as_str).unwrap_or("");
    match verb {
        "pack" => cmd_store_pack(args),
        "verify" => verify_store_dir(&store_dir(args)?),
        "repair" => cmd_store_repair(args),
        "" => Err(CliError::Message(
            "store requires a verb: tind store <pack|verify|repair>".into(),
        )),
        other => Err(CliError::Message(format!(
            "unknown store verb '{other}' (expected pack, verify, or repair)"
        ))),
    }
}

/// Parses `--store-backing mmap|windowed` (default mmap).
fn store_backing(args: &Args) -> Result<StoreBacking, CliError> {
    match args.get("store-backing") {
        None | Some("mmap") => Ok(StoreBacking::Mmap),
        Some("windowed") => Ok(StoreBacking::Windowed),
        Some(other) => Err(ArgError::BadValue {
            option: "store-backing".into(),
            value: other.into(),
            expected: "mmap|windowed",
        }
        .into()),
    }
}

/// The store directory: `--store DIR`, or the positional after the verb.
fn store_dir(args: &Args) -> Result<PathBuf, CliError> {
    if let Some(dir) = args.opt::<String>("store")? {
        return Ok(dir.into());
    }
    match args.positional().get(1) {
        Some(dir) => Ok(dir.clone().into()),
        None => Err(CliError::Message(
            "store directory required (--store DIR or a positional argument)".into(),
        )),
    }
}

/// `tind store pack`: build (or load via `--index`) an index and commit
/// it into `--out DIR` as an atomically-written sharded store.
fn cmd_store_pack(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let out: PathBuf = match args.opt::<String>("out")? {
        Some(dir) => dir.into(),
        None => store_dir(args)?,
    };
    let m = args.opt_or("m", 4096u32)?;
    let eps = args.opt_or("eps", 3.0f64)?;
    let delta = args.opt_or("delta", 7u32)?;
    let reverse = args.opt_or("reverse", false)?;
    let config = if reverse {
        IndexConfig {
            m,
            slices: SliceConfig::reverse_default(eps, tind_model::WeightFn::constant_one(), delta),
            build_reverse: true,
            ..IndexConfig::reverse_default()
        }
    } else {
        IndexConfig {
            m,
            slices: SliceConfig::search_default(eps, tind_model::WeightFn::constant_one(), delta),
            ..IndexConfig::default()
        }
    };
    // `--store` names the pack *target* here, so bypass `obtain_index`
    // (which treats it as a load source): `--index FILE` loads a
    // monolithic index to re-shard, otherwise build fresh.
    let (index, build) = {
        let _phase = tind_obs::span("phase.index_build");
        match args.opt::<String>("index")? {
            Some(path) => {
                let path: PathBuf = path.into();
                let (res, d) = tind_eval::stats::time_it(|| {
                    tind_core::persist::read_index_file(&path, dataset.clone())
                });
                (res.map_err(CliError::Data)?, d)
            }
            None => {
                let options = build_options(args)?;
                tind_eval::stats::time_it(|| TindIndex::build_with(dataset.clone(), config, &options))
            }
        }
    };
    record_index_gauges(&index);
    let _phase = tind_obs::span("phase.store_pack");
    let shards = args.opt_or("shards", 0usize)?;
    // `--format arena` names the one layout there is; it parses only
    // because the benchmark harness passes it — remove with the next
    // benchmark PR.
    if let Some(other) = args.get("format").filter(|&f| f != "arena") {
        return Err(ArgError::BadValue {
            option: "format".into(),
            value: other.into(),
            expected: "arena",
        }
        .into());
    }
    let options = PackOptions { shards, ..PackOptions::default() };
    let (res, took) = tind_eval::stats::time_it(|| pack_store(&index, &out, &options));
    let report = res.map_err(store_error)?;
    Ok(format!(
        "packed generation {} into {} — {} shard(s), {} bytes, in {} (index build {}){}\n",
        report.generation,
        out.display(),
        report.shards,
        report.bytes_written,
        tind_eval::report::fmt_duration(took),
        tind_eval::report::fmt_duration(build),
        if report.swept_temps + report.swept_stale > 0 {
            format!(
                "; swept {} orphan temp(s) and {} stale file(s)",
                report.swept_temps, report.swept_stale
            )
        } else {
            String::new()
        },
    ))
}

/// `tind store repair`: rebuild quarantined shards from the dataset,
/// byte-identical to the manifest's digests; the generation is kept.
fn cmd_store_repair(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let dir = store_dir(args)?;
    let _phase = tind_obs::span("phase.store_repair");
    let (res, took) =
        tind_eval::stats::time_it(|| repair_store(&dir, &dataset, &RepairOptions::default()));
    let report = res.map_err(store_error)?;
    if report.rebuilt.is_empty() {
        return Ok(format!(
            "store at {} already intact — generation {}, {} shard(s), nothing to repair\n",
            dir.display(),
            report.generation,
            report.intact,
        ));
    }
    Ok(format!(
        "repaired store at {} — generation {}, rebuilt shard(s) {:?}, {} intact, in {}\n",
        dir.display(),
        report.generation,
        report.rebuilt,
        report.intact,
        tind_eval::report::fmt_duration(took),
    ))
}

/// Interactive exploration loop; reads commands from `input`, writes
/// responses to the returned transcript. Used by `tind explore` with
/// stdin and by the tests with canned input.
pub fn explore_session(
    dataset: Arc<Dataset>,
    index: &TindIndex,
    input: impl std::io::BufRead,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exploring {} attributes — commands: q <attr> [eps] [delta] | rq <attr> [eps] [delta] | top <attr> [k] | stats | quit",
        dataset.len()
    );
    for line in input.lines() {
        let Ok(line) = line else { break };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            [] => continue,
            ["quit" | "exit" | "q!"] => break,
            ["stats"] => {
                let _ = writeln!(out, "{}", tind_model::stats::DatasetStats::compute(&dataset));
            }
            ["q" | "rq", rest @ ..] if !rest.is_empty() => {
                let name = rest[0];
                let eps: f64 = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(3.0);
                let delta: u32 = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(7);
                let Some((id, _)) = dataset.attribute_by_name(name) else {
                    let _ = writeln!(out, "unknown attribute '{name}'");
                    continue;
                };
                let params =
                    TindParams::weighted(eps, delta, tind_model::WeightFn::constant_one());
                let reverse = tokens[0] == "rq";
                let start = std::time::Instant::now();
                let outcome = if reverse {
                    index.reverse_search(id, &params)
                } else {
                    index.search(id, &params)
                };
                let _ = writeln!(
                    out,
                    "{} result(s) in {} (ε={eps}, δ={delta}):",
                    outcome.results.len(),
                    tind_eval::report::fmt_duration(start.elapsed())
                );
                for rid in outcome.results.iter().take(15) {
                    let _ = writeln!(out, "  {}", dataset.attribute(*rid).name());
                }
            }
            ["top", rest @ ..] if !rest.is_empty() => {
                let name = rest[0];
                let k: usize = rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
                let Some((id, _)) = dataset.attribute_by_name(name) else {
                    let _ = writeln!(out, "unknown attribute '{name}'");
                    continue;
                };
                let ranked = tind_core::topk::top_k_search(
                    index,
                    id,
                    k,
                    7,
                    &tind_model::WeightFn::constant_one(),
                );
                for r in ranked {
                    let _ = writeln!(
                        out,
                        "  {:<40} violation {:.2}",
                        dataset.attribute(r.rhs).name(),
                        r.violation
                    );
                }
            }
            _ => {
                let _ = writeln!(out, "unrecognized command: {line}");
            }
        }
    }
    out
}

fn cmd_explore(args: &Args) -> Result<String, CliError> {
    let dataset = load_dataset(args)?;
    let (index, build) = obtain_index(&args.clone(), &dataset, IndexConfig::default())?;
    eprintln!("index ready in {}", tind_eval::report::fmt_duration(build));
    let stdin = std::io::stdin();
    Ok(explore_session(dataset, &index, stdin.lock()))
}

fn cmd_pipeline(args: &Args) -> Result<String, CliError> {
    if !args.switch("demo") {
        return Err(CliError::Message(
            "pass --demo for a synthetic revision stream (real Wikipedia dumps are not \
             shipped); `tind ingest --dump FILE` ingests a MediaWiki XML export"
                .to_string(),
        ));
    }
    let attributes = args.opt_or("attributes", 200usize)?;
    let seed = args.opt_or("seed", 42u64)?;
    let cfg = GeneratorConfig::small(attributes, seed);
    let generated = generate(&cfg);
    let revisions = tind_datagen::revisions::render_revisions(&generated.dataset);
    let n_revs = revisions.len();
    let (extracted, report) = tind_wiki::extract_dataset(
        revisions,
        &tind_wiki::PipelineConfig::new(cfg.timeline_days),
    );
    let stats = DatasetStats::compute(&extracted);
    Ok(format!(
        "rendered {n_revs} page revisions from {} attributes\n\
         pipeline: {} pages, {} tables, {} columns tracked; {} attributes kept of {}\n{stats}\n",
        generated.dataset.len(),
        report.pages,
        report.tables_tracked,
        report.columns_tracked,
        report.attributes_kept,
        report.attributes_before_filters,
    ))
}

/// The run path `tind ingest` and `tind update` share: streams `--dump`
/// over `base` (the empty dataset for a cold ingest) through
/// `wiki::ingest_stream` with the full failure model — bounded-memory
/// parsing, per-page quarantine with an error budget, page-granular
/// checkpoint/resume, Ctrl-C/`--deadline` (exit 130, like all-pairs) —
/// and maps every status but completion to its error. Returns the
/// completed run's dataset and outcome.
fn run_ingest(
    args: &Args,
    verb: &str,
    base: Dataset,
) -> Result<(Dataset, tind_wiki::IngestOutcome), CliError> {
    use tind_wiki::ingest::{IngestCheckpointPolicy, IngestProgress, ProgressFn, StopSignal};
    use tind_wiki::{ingest_stream, IngestConfig, IngestError, IngestOptions, IngestStatus};

    let dump_path: PathBuf = args.required::<String>("dump")?.into();
    let mut config = IngestConfig::new(base.timeline().len());
    config.pipeline.drop_vandalism = true;
    if let Some(epoch) = args.opt::<String>("epoch")? {
        let mut parts = epoch.splitn(3, '-');
        let parsed = (
            parts.next().and_then(|v| v.parse::<i64>().ok()),
            parts.next().and_then(|v| v.parse::<u32>().ok()),
            parts.next().and_then(|v| v.parse::<u32>().ok()),
        );
        match parsed {
            (Some(y), Some(m), Some(d)) if (1..=12).contains(&m) && (1..=31).contains(&d) => {
                config.dump.epoch = (y, m, d);
            }
            _ => {
                return Err(CliError::Message(format!(
                    "--epoch must be YYYY-MM-DD, got '{epoch}'"
                )))
            }
        }
    }
    config.max_page_bytes = args.opt_or("max-page-bytes", config.max_page_bytes)?;
    config.max_error_rate = args.opt_or("max-error-rate", config.max_error_rate)?;

    let checkpoint_path: Option<PathBuf> = args.opt::<String>("checkpoint")?.map(Into::into);
    let checkpoint_every = args.opt_or("checkpoint-every", 512u64)?;
    let resume = args.switch("resume");
    if resume && checkpoint_path.is_none() {
        return Err(CliError::Message("--resume requires --checkpoint FILE".into()));
    }
    // A missing checkpoint file just means "first attempt", so restart
    // loops can pass --resume unconditionally (same contract as all-pairs).
    let resume = resume && checkpoint_path.as_ref().is_some_and(|p| p.exists());

    let fingerprint = tind_wiki::fingerprint_source(&dump_path)?;
    let total_bytes = std::fs::metadata(&dump_path)?.len();
    let src = std::io::BufReader::new(std::fs::File::open(&dump_path)?);

    let deadline = args.opt::<f64>("deadline")?.map(Duration::from_secs_f64);
    let started = std::time::Instant::now();
    // One token carries both stop causes; its latched reason later tells
    // the user *why* the run stopped (Ctrl-C vs deadline), deterministically.
    let cancel = {
        let token = CancelToken::install_ctrl_c();
        match deadline {
            Some(d) => token.with_deadline(started + d),
            None => token,
        }
    };
    let stop: StopSignal = {
        let cancel = cancel.clone();
        Arc::new(move || cancel.is_cancelled())
    };
    let reporter =
        tind_obs::Reporter::new(args.switch("quiet"), args.opt_or("progress", 1000usize)?);
    let progress: Option<ProgressFn> = if reporter.every() == 0 {
        None
    } else {
        let verb = verb.to_owned();
        Some(Box::new(move |p: &IngestProgress| {
            if !reporter.tick(p.pages_seen as usize) {
                return;
            }
            let secs = started.elapsed().as_secs_f64().max(1e-6);
            let bytes_per_sec = p.offset as f64 / secs;
            let eta = if bytes_per_sec > 0.0 {
                total_bytes.saturating_sub(p.offset) as f64 / bytes_per_sec
            } else {
                f64::NAN
            };
            reporter.progress(format!(
                "{verb}: {} pages, {} quarantined, {}, {}",
                p.pages_seen,
                p.pages_quarantined,
                tind_obs::fmt_rate(p.pages_seen, secs, "pages"),
                tind_obs::fmt_eta_secs(eta),
            ));
        }))
    };

    let options = IngestOptions {
        checkpoint: checkpoint_path
            .clone()
            .map(|path| IngestCheckpointPolicy { path, every_pages: checkpoint_every }),
        resume,
        memory_budget: match args.opt::<usize>("memory-limit")? {
            Some(limit) => MemoryBudget::new(limit),
            None => MemoryBudget::unlimited(),
        },
        should_stop: Some(stop),
        progress,
        fault_hook: None,
    };

    let ingest_phase = tind_obs::span("phase.ingest");
    let mut outcome =
        ingest_stream(src, fingerprint, base, &config, options).map_err(|e| match e {
            IngestError::Io(e) => CliError::Io(e),
            IngestError::Checkpoint(e) => CliError::Data(e),
            IngestError::Base(m) => CliError::Data(BinIoError::Corrupt(m)),
            IngestError::ResumeMismatch(m) => CliError::Message(format!("cannot resume: {m}")),
        })?;
    drop(ingest_phase);

    let q = &outcome.quarantine;
    if let Some(report_path) = args.opt::<String>("quarantine-report")? {
        tind_model::binio::write_file(q, std::path::Path::new(&report_path))?;
    }
    let checkpoint_note = match &checkpoint_path {
        Some(p) => format!("; progress checkpointed to {}", p.display()),
        None => "; no checkpoint configured — progress lost (pass --checkpoint FILE)".into(),
    };
    match outcome.status {
        IngestStatus::Cancelled => {
            let why = cancel.reason().map_or("stopped", |r| r.label());
            Err(CliError::Interrupted {
                summary: format!(
                    "{verb} stopped ({why}) after {} pages ({} quarantined){checkpoint_note}",
                    q.pages_seen, q.pages_quarantined,
                ),
            })
        }
        IngestStatus::ErrorBudgetExceeded => {
            let mut msg = format!(
                "error budget exceeded: {} of {} pages quarantined ({:.1}% > {:.1}% allowed){checkpoint_note}",
                q.pages_quarantined,
                q.pages_seen,
                q.error_rate() * 100.0,
                config.max_error_rate * 100.0,
            );
            for entry in q.entries.iter().take(5) {
                let _ = write!(msg, "\n  @{} {}: {}", entry.byte_offset, entry.page, entry.error);
            }
            Err(CliError::Message(msg))
        }
        IngestStatus::Completed => match outcome.dataset.take() {
            Some(dataset) => Ok((dataset, outcome)),
            None => Err(CliError::Message(format!(
                "internal: {verb} reported completion without a dataset"
            ))),
        },
    }
}

/// Writes a completed run's dataset to `out` and closes its summary.
fn publish_dataset(
    dataset: &Dataset,
    out: &std::path::Path,
    resumed_from: Option<u64>,
    text: &mut String,
) -> Result<(), CliError> {
    {
        let _phase = tind_obs::span("phase.write_output");
        write_dataset_file(dataset, out)?;
    }
    let _ = writeln!(text, "dataset written to {}", out.display());
    if let Some(offset) = resumed_from {
        let _ = writeln!(text, "resumed from byte offset {offset}");
    }
    Ok(())
}

/// `tind ingest`: a dump → a dataset, as the run over the empty dataset
/// on `--timeline` days.
fn cmd_ingest(args: &Args) -> Result<String, CliError> {
    let out: PathBuf = args.required::<String>("out")?.into();
    let timeline = Timeline::new(args.opt_or("timeline", 6148u32)?);
    let (dataset, outcome) = run_ingest(args, "ingest", DatasetBuilder::new(timeline).build())?;
    let (q, report) = (&outcome.quarantine, &outcome.pipeline);
    let mut text = format!(
        "ingested {} pages ({} quarantined, {} of {} revisions dropped) from {}\n\
         pipeline: {} tables, {} columns tracked; {} vandalized revisions dropped; \
         {} attributes kept of {}\n",
        q.pages_kept,
        q.pages_quarantined,
        q.revisions_dropped,
        q.revisions_dropped + q.revisions_kept,
        args.required::<String>("dump")?,
        report.tables_tracked,
        report.columns_tracked,
        report.vandalism_dropped,
        report.attributes_kept,
        report.attributes_before_filters,
    );
    publish_dataset(&dataset, &out, outcome.resumed_from, &mut text)?;
    Ok(text)
}

/// `tind update`: the run over an existing dataset (`--data`), whose
/// timeline it keeps — and, with `--index`, semi-naive maintenance of its
/// index via `core::delta` instead of a cold rebuild. A base that holds
/// an attribute name twice is refused (exit 3) and must be re-ingested.
fn cmd_update(args: &Args) -> Result<String, CliError> {
    let data_path: PathBuf = args.required::<String>("data")?.into();
    let out: PathBuf = args.required::<String>("out")?.into();
    let index_path: Option<PathBuf> = args.opt::<String>("index")?.map(Into::into);
    let index_out: Option<PathBuf> = args.opt::<String>("index-out")?.map(Into::into);
    if index_out.is_some() && index_path.is_none() {
        return Err(CliError::Message("--index-out requires --index FILE".into()));
    }
    let index_out = match (&index_path, index_out) {
        (Some(p), None) => Some(p.clone()),
        (_, explicit) => explicit,
    };
    let compact = args.switch("compact");

    let base = {
        let _phase = tind_obs::span("phase.load");
        read_dataset(&data_path)?
    };
    let (merged, outcome) = run_ingest(args, "update", base.clone())?;
    let merged = Arc::new(merged);
    let q = &outcome.quarantine;
    let mut text = format!(
        "updated: {} delta pages ({} quarantined), {} attribute(s) touched \
         ({} filter downgrade(s)); dataset {} -> {} attributes\n",
        q.pages_kept,
        q.pages_quarantined,
        outcome.touched.len(),
        outcome.filter_downgrades,
        base.len(),
        merged.len(),
    );
    // Maintain the index incrementally before publishing anything, so a
    // refused delta leaves both artifacts untouched.
    if let Some(idx_path) = &index_path {
        let _phase = tind_obs::span("phase.apply_delta");
        let mut index = tind_core::persist::read_index_file(idx_path, Arc::new(base.clone()))?;
        let delta = tind_core::DatasetDelta::diff(&base, Arc::clone(&merged))
            .map_err(|e| CliError::Message(format!("delta rejected: {e}")))?;
        let report = index
            .apply_delta(&delta)
            .map_err(|e| CliError::Message(format!("delta rejected: {e}")))?;
        if compact {
            index = index.compact();
        }
        let index_out = index_out.as_ref().expect("derived from --index");
        tind_core::persist::write_index_file(&index, index_out)?;
        let _ = writeln!(
            text,
            "index: {} column(s) updated ({} new), {} block(s) dirtied across \
             {} matrice(s){}{}; written to {}",
            report.touched_attrs,
            report.new_attrs,
            report.blocks_rewritten,
            report.matrices_updated,
            if report.grew { ", index grown" } else { "" },
            if compact { ", compacted (cold rebuild)" } else { "" },
            index_out.display(),
        );
    }
    publish_dataset(&merged, &out, outcome.resumed_from, &mut text)?;
    Ok(text)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let data: PathBuf = args.required::<String>("data")?.into();
    let host = args.opt_or("host", "127.0.0.1".to_string())?;
    let port = args.opt_or("port", 7171u16)?;
    let port_file: Option<PathBuf> = args.opt::<String>("port-file")?.map(Into::into);
    let quiet = args.switch("quiet");

    let mut config = ServeConfig::default();
    config.workers = args.opt_or("workers", 0usize)?;
    config.readers = args.opt_or("readers", 0usize)?;
    config.queue_capacity = args.opt_or("queue", config.queue_capacity)?;
    config.coalesce = args.opt_or("coalesce", config.coalesce)?;
    config.default_deadline =
        Duration::from_millis(args.opt_or("deadline-ms", config.default_deadline.as_millis() as u64)?);
    config.max_deadline =
        Duration::from_millis(args.opt_or("max-deadline-ms", config.max_deadline.as_millis() as u64)?);
    config.read_timeout =
        Duration::from_millis(args.opt_or("read-timeout-ms", config.read_timeout.as_millis() as u64)?);
    config.write_timeout = Duration::from_millis(
        args.opt_or("write-timeout-ms", config.write_timeout.as_millis() as u64)?,
    );
    config.max_body_bytes = args.opt_or("max-body-bytes", config.max_body_bytes)?;
    config.memory_budget = args.opt::<usize>("memory-limit")?.map(MemoryBudget::new);
    config.drain_grace =
        Duration::from_millis(args.opt_or("drain-grace-ms", config.drain_grace.as_millis() as u64)?);
    config.reverify_interval = Duration::from_millis(
        args.opt_or("reverify-ms", config.reverify_interval.as_millis() as u64)?,
    );
    config.cache = args.opt_or("cache", config.cache)?;
    config.plan_cache = args.opt_or("plan-cache", config.plan_cache)?;
    config.store_backing = store_backing(args)?;
    config.trace_last = args.opt_or("trace-last", config.trace_last)?;
    config.metrics_tick = Duration::from_millis(
        args.opt_or("metrics-tick-ms", config.metrics_tick.as_millis() as u64)?,
    );
    let store: Option<PathBuf> = args.opt::<String>("store")?.map(Into::into);
    // Windowed shard sections are charged to (and evicted under) the
    // same budget the admission controller uses, so `--memory-limit`
    // below the index size serves from disk instead of failing to load.
    let open = OpenOptions {
        backing: config.store_backing,
        memory_budget: config.memory_budget.clone(),
    };

    let eps = args.opt_or("eps", 3.0)?;
    let delta = args.opt_or("delta", 7u32)?;
    let decay = args.opt::<f64>("decay")?;
    let build_threads = args.opt_or("build-threads", 0usize)?;

    let server = Server::bind(&format!("{host}:{port}"), config)?;
    let addr = server.local_addr();
    // The port file exists before the index finishes loading; clients
    // poll /healthz for readiness (`"status":"serving"`).
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}\n", addr.port()))?;
    }
    if !quiet {
        eprintln!("tind serve listening on {addr} (loading index; poll /healthz for readiness)");
    }

    // SIGINT *and* SIGTERM both drain: a supervisor's stop and an
    // operator's Ctrl-C behave identically.
    let shutdown = CancelToken::install_terminate();
    let started = std::time::Instant::now();
    let outcome = server
        .run(
            || {
                let load = tind_obs::span("phase.load");
                let dataset =
                    Arc::new(read_dataset(&data).map_err(|e| format!("dataset error: {e}"))?);
                drop(load);
                let _build = tind_obs::span("phase.build");
                match &store {
                    // From a sharded store: a degraded open still serves
                    // (status `degraded`; re-verify promotes later).
                    Some(dir) => {
                        let (engine, report) = Engine::from_store_with(
                            dir,
                            dataset,
                            eps,
                            delta,
                            decay,
                            build_threads,
                            &open,
                        )?;
                        if !quiet && !report.is_clean() {
                            eprintln!(
                                "warning: store at {} is degraded ({} of {} shards \
                                 quarantined); serving partial results",
                                dir.display(),
                                report.quarantined.len(),
                                report.shards_total,
                            );
                        }
                        Ok(engine)
                    }
                    None => Ok(Engine::build(dataset, eps, delta, decay, build_threads)),
                }
            },
            shutdown.clone(),
        )
        .map_err(CliError::Message)?;

    let mut summary = format!(
        "served {} requests ({} ok, {} errors, {} shed, {} panics quarantined, \
         {} deadline timeouts; {} waves, {} coalesced) in {}; drain {}",
        outcome.requests,
        outcome.ok,
        outcome.errors,
        outcome.shed,
        outcome.panics,
        outcome.deadline_timeouts,
        outcome.waves,
        outcome.coalesced_requests,
        tind_obs::fmt_duration_ns(started.elapsed().as_nanos() as u64),
        if outcome.drained_clean { "clean" } else { "forced after grace period" },
    );
    // Per-endpoint latency attribution: where answered requests spent
    // their time (queue wait / wave formation / execution), as quantiles
    // over the whole run.
    for endpoint in ["search", "reverse_search", "explain"] {
        let stage = |which: &str| format!("serve.latency.{endpoint}.{which}_ns");
        let exec = tind_obs::histogram(&stage("exec"));
        if exec.count() == 0 {
            continue;
        }
        let _ = write!(summary, "\n  {endpoint}:");
        for which in ["queued", "coalesced", "exec"] {
            let h = tind_obs::histogram(&stage(which));
            let _ = write!(
                summary,
                " {which} p50/p90/p99 {}/{}/{}",
                tind_obs::fmt_duration_ns(h.quantile(0.50)),
                tind_obs::fmt_duration_ns(h.quantile(0.90)),
                tind_obs::fmt_duration_ns(h.quantile(0.99)),
            );
        }
    }
    // `run` only returns after the shutdown token tripped, so a serve
    // run always "ends interrupted" — exit 130, like every other
    // gracefully-stopped long-running command. `--report` still flushes
    // (dispatch honors it for Interrupted).
    Err(CliError::Interrupted { summary })
}

fn list_experiments() -> String {
    let mut out = String::from("available experiments:\n");
    for (id, description, _) in tind_eval::experiments::all() {
        let _ = writeln!(out, "  {id:<10} {description}");
    }
    out
}

fn cmd_experiment(args: &Args) -> Result<String, CliError> {
    let Some(id) = args.positional().first() else {
        return Err(CliError::Message("experiment id required (see `tind list-experiments`)".into()));
    };
    let scale_name = args.opt_or("scale", "quick".to_string())?;
    let scale = Scale::parse(&scale_name)
        .ok_or_else(|| CliError::Unknown(format!("scale '{scale_name}'")))?;
    let mut ctx = ExpContext::at_scale(scale);
    ctx.seed = args.opt_or("seed", ctx.seed)?;
    ctx.threads = args.opt_or("threads", 0usize)?;
    ctx.attributes_override = args.opt("attributes")?;
    ctx.queries_override = args.opt("queries")?;
    let csv_dir: Option<PathBuf> = args.opt::<String>("csv-dir")?.map(Into::into);

    let ids: Vec<&str> = if id == "all" {
        tind_eval::experiments::all().iter().map(|(i, _, _)| *i).collect()
    } else {
        vec![id.as_str()]
    };

    let mut out = String::new();
    for id in ids {
        let report = tind_eval::experiments::run_by_id(id, &ctx)
            .ok_or_else(|| CliError::Unknown(format!("experiment '{id}'")))?;
        let _ = writeln!(out, "{report}");
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{id}.csv"));
            std::fs::write(&path, report.table.to_csv())?;
            let _ = writeln!(out, "  (csv written to {})", path.display());
            if let Some(figure) = &report.figure {
                let svg_path = dir.join(format!("{id}.svg"));
                std::fs::write(&svg_path, figure.render_svg())?;
                let _ = writeln!(out, "  (figure written to {})", svg_path.display());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        dispatch(&raw)
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tind-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&["help"]).expect("help").contains("USAGE"));
        assert!(run(&[]).expect("no args → usage").contains("USAGE"));
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Unknown(_))));
    }

    #[test]
    fn batch_search_matches_single_queries() {
        let path = temp_file("cli-batch.tind");
        let path_str = path.to_str().expect("utf8 path");
        run(&[
            "generate", "--attributes", "80", "--seed", "7", "--preset", "small", "--out",
            path_str,
        ])
        .expect("generates");
        let single = run(&[
            "search", "--data", path_str, "--query", "source-0", "--eps", "10", "--delta", "14",
        ])
        .expect("single");
        let n_single: usize = single
            .split_whitespace()
            .next()
            .and_then(|t| t.parse().ok())
            .expect("single output starts with the result count");
        let batch = run(&[
            "search", "--data", path_str, "--batch", "source-0, source-1", "--threads", "2",
            "--eps", "10", "--delta", "14",
        ])
        .expect("batch");
        assert!(batch.contains("batch of 2 queries"), "{batch}");
        assert!(batch.contains("queries/s"), "{batch}");
        assert!(
            batch.contains(&format!("source-0: {n_single} results")),
            "batch must report the same count as the single query\n{batch}\n{single}"
        );
    }

    #[test]
    fn batch_flag_misuse_is_rejected() {
        let path = temp_file("cli-batch-misuse.tind");
        let path_str = path.to_str().expect("utf8 path");
        run(&[
            "generate", "--attributes", "40", "--seed", "3", "--preset", "small", "--out",
            path_str,
        ])
        .expect("generates");
        let conflict =
            run(&["search", "--data", path_str, "--batch", "source-0", "--query", "source-1"]);
        assert!(
            matches!(&conflict, Err(CliError::Args(ArgError::Conflict { .. }))),
            "--batch with --query must be rejected as bad usage"
        );
        assert_eq!(conflict.expect_err("conflict").exit_code(), 2);
        let empty = run(&["search", "--data", path_str, "--batch", " , "]);
        assert!(
            matches!(&empty, Err(CliError::Args(ArgError::BadValue { .. }))),
            "an empty --batch list must be rejected as bad usage"
        );
        assert_eq!(empty.expect_err("empty").exit_code(), 2);
        assert!(
            matches!(
                run(&[
                    "reverse-search", "--data", path_str, "--query", "source-0", "--batch",
                    "source-1"
                ]),
                Err(CliError::Args(_))
            ),
            "reverse-search must not accept --batch"
        );
    }

    #[test]
    fn index_build_threads_are_byte_identical() {
        let data = temp_file("cli-bt.tind");
        let data_str = data.to_str().expect("utf8 path");
        run(&[
            "generate", "--attributes", "70", "--seed", "11", "--preset", "small", "--out",
            data_str,
        ])
        .expect("generates");
        let out1 = temp_file("cli-bt-1.idx");
        let out3 = temp_file("cli-bt-3.idx");
        run(&[
            "index", "--data", data_str, "--out", out1.to_str().expect("utf8"), "--m", "256",
            "--build-threads", "1",
        ])
        .expect("sequential build");
        run(&[
            "index", "--data", data_str, "--out", out3.to_str().expect("utf8"), "--m", "256",
            "--build-threads", "3",
        ])
        .expect("parallel build");
        let b1 = std::fs::read(&out1).expect("read idx 1");
        let b3 = std::fs::read(&out3).expect("read idx 3");
        assert!(b1 == b3, "index files differ between --build-threads 1 and 3");
        std::fs::remove_file(&out1).ok();
        std::fs::remove_file(&out3).ok();
    }

    #[test]
    fn verify_names_the_failing_byte_offset() {
        let data = temp_file("cli-verify-offset.tind");
        let data_str = data.to_str().expect("utf8 path");
        run(&[
            "generate", "--attributes", "40", "--seed", "5", "--preset", "small", "--out",
            data_str,
        ])
        .expect("generates");
        let idx = temp_file("cli-verify-offset.idx");
        let idx_str = idx.to_str().expect("utf8");
        run(&["index", "--data", data_str, "--out", idx_str, "--m", "256"]).expect("indexes");
        run(&["verify", idx_str]).expect("pristine index verifies");

        let len = std::fs::metadata(&idx).expect("metadata").len() as usize;
        tind_core::fault::flip_file_byte(&idx, len / 2).expect("flip");
        let err = run(&["verify", idx_str]).expect_err("corrupt index must fail");
        assert_eq!(err.exit_code(), 3, "corruption is a data error");
        let msg = err.to_string();
        let trailer_offset = len - tind_model::checksum::TRAILER_LEN;
        assert!(
            msg.contains(&format!("byte offset {trailer_offset}")),
            "verify must name the failing byte offset; got: {msg}"
        );
        std::fs::remove_file(&idx).ok();
    }

    #[test]
    fn store_pack_verify_search_repair_roundtrip() {
        // ≥3 shards needs ≥3 column blocks of 64 attributes each.
        let data = temp_file("cli-store.tind");
        let data_str = data.to_str().expect("utf8 path");
        run(&[
            "generate", "--attributes", "200", "--seed", "9", "--preset", "small", "--out",
            data_str,
        ])
        .expect("generates");
        let dir = temp_file("cli-store.store");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().expect("utf8");

        let packed = run(&[
            "store", "pack", "--data", data_str, "--out", dir_str, "--shards", "3", "--eps",
            "10", "--delta", "14",
        ])
        .expect("packs");
        assert!(packed.contains("packed generation 1"), "{packed}");
        assert!(packed.contains("3 shard(s)"), "{packed}");
        assert!(run(&["store", "verify", dir_str]).expect("verifies").contains("3 shard(s)"));
        assert!(run(&["verify", dir_str]).expect("verify accepts a store dir").contains("store"));

        // A store-backed search answers exactly like a fresh build.
        let built = run(&[
            "search", "--data", data_str, "--query", "source-0", "--eps", "10", "--delta", "14",
        ])
        .expect("built search");
        let stored = run(&[
            "search", "--data", data_str, "--store", dir_str, "--query", "source-0", "--eps",
            "10", "--delta", "14",
        ])
        .expect("stored search");
        assert_eq!(
            built.split_whitespace().next(),
            stored.split_whitespace().next(),
            "result counts must match\n{built}\n{stored}"
        );

        // Corrupt one shard: verify fails naming it, repair restores it.
        let shard = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "shard"))
            .expect("a shard file");
        let shard_len = std::fs::metadata(&shard).expect("metadata").len() as usize;
        tind_core::fault::flip_file_byte(&shard, shard_len / 2).expect("flip");
        let err = run(&["store", "verify", dir_str]).expect_err("corrupt shard must fail");
        assert!(err.to_string().contains("shard"), "{err}");
        let repaired =
            run(&["store", "repair", "--store", dir_str, "--data", data_str]).expect("repairs");
        assert!(repaired.contains("rebuilt shard(s)"), "{repaired}");
        run(&["store", "verify", dir_str]).expect("verifies after repair");

        // A shard carrying the retired v1 magic is refused by name, and
        // the knobs that chose a layout are gone.
        let v1 = temp_file("cli-store-v1.shard");
        let mut raw = std::fs::read(&shard).expect("read shard");
        raw[7] = 0x01;
        std::fs::write(&v1, &raw).expect("write v1 shard");
        let err = run(&["verify", v1.to_str().expect("utf8")]).expect_err("v1 refused");
        assert!(
            err.to_string()
                .contains("TINDSH v1 is no longer supported; re-pack with `tind store pack`"),
            "{err}"
        );
        std::fs::remove_file(&v1).ok();
        assert!(matches!(
            run(&["store", "pack", "--data", data_str, "--out", dir_str, "--format", "legacy"]),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        let err = run(&["store", "migrate", "--store", dir_str, "--data", data_str])
            .expect_err("migrate is gone");
        assert!(err.to_string().contains("unknown store verb"), "{err}");

        // --index with --store is ambiguous and must be rejected.
        assert!(matches!(
            run(&[
                "search", "--data", data_str, "--index", "x.idx", "--store", dir_str, "--query",
                "source-0",
            ]),
            Err(CliError::Args(ArgError::Conflict { .. }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_experiments_names_all() {
        let out = run(&["list-experiments"]).expect("lists");
        for id in ["fig7", "fig15", "table2", "allpairs", "latency"] {
            assert!(out.contains(id), "missing {id}");
        }
    }

    #[test]
    fn generate_stats_search_roundtrip() {
        let path = temp_file("cli-roundtrip.tind");
        let path_str = path.to_str().expect("utf8 path");
        let truth = temp_file("cli-roundtrip-truth.csv");
        let truth_str = truth.to_str().expect("utf8 path");
        let out = run(&[
            "generate", "--attributes", "120", "--seed", "5", "--preset", "small", "--out",
            path_str, "--truth-out", truth_str,
        ])
        .expect("generates");
        assert!(out.contains("wrote"));
        let truth_csv = std::fs::read_to_string(&truth).expect("truth file");
        assert!(truth_csv.starts_with("lhs,rhs,"));
        assert!(truth_csv.lines().count() > 10, "truth rows: {}", truth_csv.lines().count());
        std::fs::remove_file(&truth).ok();

        let stats = run(&["stats", "--data", path_str]).expect("stats");
        assert!(stats.contains("attributes:"));

        // Generous parameters: they must recover the planted source even
        // for a dirty derived attribute (delays up to 45 days).
        let search = run(&[
            "search", "--data", path_str, "--query", "derived-0-of-0", "--eps", "150", "--delta",
            "45",
        ])
        .expect("searches");
        assert!(search.contains("results for"), "{search}");
        assert!(search.contains("pruning:"));
        assert!(search.contains("validation:"), "stage-4 stats line missing: {search}");
        assert!(search.contains("early-valid"), "{search}");
        assert!(search.contains("source-0"), "planted source should be found: {search}");

        let reverse = run(&["reverse-search", "--data", path_str, "--query", "source-0", "--eps", "10", "--delta", "14"])
            .expect("reverse searches");
        assert!(reverse.contains("results for"));

        let pairs = run(&["all-pairs", "--data", path_str, "--threads", "2"]).expect("all pairs");
        assert!(pairs.contains("tINDs among"));
        assert!(pairs.contains("validation:"), "all-pairs stats line missing: {pairs}");

        let partial = run(&[
            "partial-search", "--data", path_str, "--query", "derived-0-of-0", "--sigma", "0.7",
            "--eps", "150", "--delta", "45",
        ])
        .expect("partial search");
        assert!(partial.contains("σ-partial results"), "{partial}");
        assert!(partial.contains("source-0"), "σ < 1 must still find the planted source");

        let bad_sigma = run(&[
            "partial-search", "--data", path_str, "--query", "derived-0-of-0", "--sigma", "1.5",
        ])
        .expect_err("rejects sigma > 1");
        assert!(bad_sigma.to_string().contains("sigma"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn explain_command_reports_violations() {
        let path = temp_file("cli-explain.tind");
        let path_str = path.to_str().expect("utf8 path");
        run(&["generate", "--attributes", "60", "--preset", "small", "--seed", "21", "--out", path_str])
            .expect("generates");
        let out = run(&[
            "explain", "--data", path_str, "--lhs", "derived-0-of-0", "--rhs", "source-0",
            "--eps", "200", "--delta", "45",
        ])
        .expect("explains");
        assert!(out.contains("VALID") || out.contains("INVALID"), "{out}");
        assert!(out.contains("ε=200"), "{out}");
        // Unrelated pair is invalid with concrete evidence.
        let out = run(&["explain", "--data", path_str, "--lhs", "source-0", "--rhs", "noise-0-c0"])
            .expect("explains");
        assert!(out.contains("INVALID"), "{out}");
        assert!(out.contains("missing"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_rejects_unknown_query() {
        let path = temp_file("cli-unknown-query.tind");
        let path_str = path.to_str().expect("utf8 path");
        run(&["generate", "--attributes", "40", "--preset", "small", "--out", path_str])
            .expect("generates");
        let err = run(&["search", "--data", path_str, "--query", "no-such-attribute"])
            .expect_err("unknown query");
        assert!(err.to_string().contains("not found"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_persistence_and_top_k() {
        let data = temp_file("cli-index.tind");
        let data_str = data.to_str().expect("utf8 path");
        run(&["generate", "--attributes", "80", "--preset", "small", "--seed", "9", "--out", data_str])
            .expect("generates");

        let idx = temp_file("cli-index.tidx");
        let idx_str = idx.to_str().expect("utf8 path");
        let out = run(&["index", "--data", data_str, "--out", idx_str]).expect("indexes");
        assert!(out.contains("indexed 80 attributes"), "{out}");
        assert!(out.contains("M_T load"), "diagnostics missing: {out}");

        // Search through the persisted index.
        let search = run(&[
            "search", "--data", data_str, "--index", idx_str, "--query", "derived-0-of-0",
            "--eps", "150", "--delta", "7",
        ])
        .expect("searches via index file");
        assert!(search.contains("results for"), "{search}");

        // Top-k ranking.
        let topk = run(&[
            "top-k", "--data", data_str, "--index", idx_str, "--query", "derived-0-of-0", "--k",
            "3",
        ])
        .expect("ranks");
        assert!(topk.contains("top-3"), "{topk}");
        assert!(topk.contains("violation"), "{topk}");

        // A stale index (different dataset) is rejected.
        let other = temp_file("cli-index-other.tind");
        let other_str = other.to_str().expect("utf8 path");
        run(&["generate", "--attributes", "60", "--preset", "small", "--seed", "10", "--out", other_str])
            .expect("generates other");
        let err = run(&["search", "--data", other_str, "--index", idx_str, "--query", "0"])
            .expect_err("fingerprint mismatch");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&idx).ok();
        std::fs::remove_file(&other).ok();
    }

    #[test]
    fn explore_session_executes_commands() {
        use std::sync::Arc;
        let generated = tind_datagen::generate(&tind_datagen::GeneratorConfig::small(60, 4));
        let dataset = Arc::new(generated.dataset);
        let index = TindIndex::build(dataset.clone(), IndexConfig::default());
        let input = "q derived-0-of-0 150 45\nstats\ntop derived-0-of-0 2\nbogus cmd\nquit\nq never-reached\n";
        let transcript =
            super::explore_session(dataset, &index, std::io::Cursor::new(input.as_bytes()));
        assert!(transcript.contains("result(s) in"), "{transcript}");
        assert!(transcript.contains("attributes:"), "stats output missing: {transcript}");
        assert!(transcript.contains("violation"), "top output missing: {transcript}");
        assert!(transcript.contains("unrecognized command"), "{transcript}");
        assert!(!transcript.contains("never-reached"), "quit must stop the loop");
    }

    #[test]
    fn pipeline_demo_runs() {
        let out = run(&["pipeline", "--demo", "--attributes", "40", "--seed", "3"])
            .expect("pipeline demo");
        assert!(out.contains("pipeline:"), "{out}");
        assert!(out.contains("attributes kept"));
    }

    #[test]
    fn pipeline_without_demo_explains() {
        let err = run(&["pipeline"]).expect_err("needs --demo");
        assert!(err.to_string().contains("--demo"));
        assert!(err.to_string().contains("--dump"));
        // Dumps are `tind ingest`'s: `pipeline --dump` is an unknown option.
        let err = run(&["pipeline", "--dump", "unused.xml"]).expect_err("not a pipeline option");
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn ingest_reads_an_xml_dump() {
        let dump = temp_file("cli-dump.xml");
        let mut xml = String::from("<mediawiki><page><title>T</title><id>1</id>");
        let games = ["Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl", "Diamond"];
        for i in 0..6 {
            let mut table = String::from("{|\n! Game\n");
            for g in &games[..5 + i] {
                table.push_str(&format!("|-\n| {g}\n"));
            }
            table.push_str("|}");
            xml.push_str(&format!(
                "<revision><timestamp>2001-0{}-01T00:00:00Z</timestamp><text>{}</text></revision>",
                i + 2,
                table
            ));
        }
        xml.push_str("</page></mediawiki>");
        std::fs::write(&dump, xml).expect("write dump");
        let out_path = temp_file("cli-dump.tind");
        let out = run(&["ingest", "--dump", dump.to_str().expect("utf8"), "--out",
            out_path.to_str().expect("utf8"), "--quiet"])
        .expect("ingests");
        assert!(out.contains("ingested 1 pages (0 quarantined, 0 of 6 revisions dropped)"), "{out}");
        assert!(out.contains("1 attributes kept"), "{out}");
        std::fs::remove_file(&dump).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn experiment_with_tiny_overrides() {
        let out = run(&[
            "experiment",
            "latency",
            "--scale",
            "quick",
            "--attributes",
            "150",
            "--queries",
            "25",
            "--threads",
            "2",
        ])
        .expect("runs latency experiment");
        assert!(out.contains("== latency"), "{out}");
        assert!(out.contains("mean"));
    }

    #[test]
    fn experiment_rejects_unknown() {
        assert!(matches!(
            run(&["experiment", "fig99"]),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(
            run(&["experiment", "fig7", "--scale", "mega"]),
            Err(CliError::Unknown(_))
        ));
    }

    /// Writes a small dataset and returns its path as a string.
    fn small_dataset(name: &str) -> String {
        let path = temp_file(name);
        let path_str = path.to_str().expect("utf8 path").to_string();
        run(&["generate", "--attributes", "60", "--seed", "11", "--preset", "small", "--out",
            &path_str])
        .expect("generates");
        path_str
    }

    #[test]
    fn verify_accepts_dataset_and_checkpoint_rejects_corruption() {
        let data = small_dataset("cli-verify.tind");
        let out = run(&["verify", &data]).expect("clean dataset verifies");
        assert!(out.starts_with("OK "), "{out}");
        assert!(out.contains("dataset: 60 attributes"), "{out}");

        // Bit rot anywhere in the file must surface as a checksum error
        // (exit code 3), not a garbage decode.
        let mut rotten = std::fs::read(&data).expect("read");
        let middle_bit = rotten.len() * 4;
        tind_core::fault::flip_bit(&mut rotten, middle_bit);
        let rotten_path = temp_file("cli-verify-rotten.tind");
        std::fs::write(&rotten_path, &rotten).expect("write");
        let err = run(&["verify", rotten_path.to_str().expect("utf8")])
            .expect_err("corruption must be rejected");
        assert!(matches!(&err, CliError::Data(BinIoError::Checksum { .. })), "{err}");
        assert_eq!(err.exit_code(), 3);

        assert!(matches!(run(&["verify"]), Err(CliError::Args(_))));
    }

    #[test]
    fn all_pairs_deadline_interrupts_and_resume_completes() {
        let data = small_dataset("cli-resume.tind");
        let ckpt = temp_file("cli-resume.ckpt");
        let ckpt_str = ckpt.to_str().expect("utf8 path");
        let _ = std::fs::remove_file(&ckpt);

        // Deadline of zero: stops at the first query boundary.
        let err = run(&["all-pairs", "--data", &data, "--checkpoint", ckpt_str, "--deadline",
            "0", "--quiet"])
        .expect_err("zero deadline must interrupt");
        let CliError::Interrupted { summary } = &err else {
            panic!("expected Interrupted, got {err}");
        };
        assert!(summary.contains("progress checkpointed"), "{summary}");
        assert_eq!(err.exit_code(), 130);

        let out = run(&["verify", ckpt_str]).expect("checkpoint file verifies");
        assert!(out.contains("checkpoint:"), "{out}");

        // Resuming (twice, to also cover resume-of-complete) finishes the
        // run and reports the same pairs as an uninterrupted one.
        let resumed = run(&["all-pairs", "--data", &data, "--checkpoint", ckpt_str, "--resume",
            "--quiet"])
        .expect("resume completes");
        let fresh =
            run(&["all-pairs", "--data", &data, "--quiet"]).expect("fresh run completes");
        assert_eq!(
            resumed.lines().next().expect("first line"),
            fresh.lines().next().expect("first line"),
            "resumed pair count must match the uninterrupted run"
        );

        // --resume without --checkpoint is a usage error.
        assert!(matches!(
            run(&["all-pairs", "--data", &data, "--resume"]),
            Err(CliError::Message(_))
        ));
    }

    #[test]
    fn typoed_options_fail_before_the_command_runs() {
        // The canonical hazard: --chekpoint would otherwise run a long
        // discovery with no checkpointing at all.
        let err = run(&["all-pairs", "--data", "unused.tind", "--chekpoint", "x.tcp"])
            .expect_err("typo rejected");
        assert_eq!(err.exit_code(), 2, "unknown option is a usage error");
        assert!(
            err.to_string().contains("did you mean --checkpoint?"),
            "suggestion missing from: {err}"
        );
        // Rejection happens before any file i/o: the dataset path above
        // does not exist, yet the error is about the option, not the file.
        assert!(err.to_string().contains("--chekpoint"));

        // Options from *other* commands are not accepted cross-command.
        let err = run(&["stats", "--data", "unused.tind", "--checkpoint", "x.tcp"])
            .expect_err("foreign option rejected");
        assert_eq!(err.exit_code(), 2);
    }

    /// One well-formed page whose table grows monotonically — six
    /// revisions, plenty of versions and cardinality for the §5.1 filters.
    fn ingest_page_xml(title: &str, id: u32) -> String {
        let games = [
            "Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl",
            "Diamond",
        ];
        let mut page = format!("<page><title>{title}</title><id>{id}</id>");
        for i in 0..6 {
            let mut table = String::from("{|\n! Game\n");
            for g in &games[..5 + i] {
                table.push_str(&format!("|-\n| {g}\n"));
            }
            table.push_str("|}");
            page.push_str(&format!(
                "<revision><timestamp>2001-0{}-01T00:00:00Z</timestamp><text>{table}</text></revision>",
                i + 2,
            ));
        }
        page.push_str("</page>");
        page
    }

    /// A page with no `<title>`: quarantined by ingestion.
    fn broken_page_xml(id: u32) -> String {
        format!(
            "<page><id>{id}</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp>\
             <text>x</text></revision></page>"
        )
    }

    #[test]
    fn ingest_deadline_interrupts_and_resume_is_byte_identical() {
        let dump = temp_file("cli-ingest.xml");
        let mut xml = String::from("<mediawiki>\n");
        for (i, title) in ["Alpha", "Beta", "Gamma"].iter().enumerate() {
            xml.push_str(&ingest_page_xml(title, i as u32 + 1));
            xml.push('\n');
        }
        xml.push_str("</mediawiki>");
        std::fs::write(&dump, xml).expect("write dump");
        let dump_str = dump.to_str().expect("utf8");

        let fresh = temp_file("cli-ingest-fresh.tind");
        let fresh_str = fresh.to_str().expect("utf8");
        let out =
            run(&["ingest", "--dump", dump_str, "--out", fresh_str, "--quiet"]).expect("ingests");
        assert!(out.contains("ingested 3 pages (0 quarantined"), "{out}");
        assert!(out.contains("dataset written to"), "{out}");

        // Deadline of zero: stops before the first page, checkpointing.
        let ckpt = temp_file("cli-ingest.tic");
        let ckpt_str = ckpt.to_str().expect("utf8");
        let _ = std::fs::remove_file(&ckpt);
        let sink = temp_file("cli-ingest-sink.tind");
        let err = run(&["ingest", "--dump", dump_str, "--out", sink.to_str().expect("utf8"),
            "--checkpoint", ckpt_str, "--deadline", "0", "--quiet"])
        .expect_err("zero deadline must interrupt");
        let CliError::Interrupted { summary } = &err else {
            panic!("expected Interrupted, got {err}");
        };
        assert!(summary.contains("checkpointed"), "{summary}");
        assert_eq!(err.exit_code(), 130);
        let verified = run(&["verify", ckpt_str]).expect("ingest checkpoint verifies");
        assert!(verified.contains("ingest checkpoint:"), "{verified}");

        // Resume completes and produces a byte-identical dataset file.
        let resumed = temp_file("cli-ingest-resumed.tind");
        let resumed_str = resumed.to_str().expect("utf8");
        let out = run(&["ingest", "--dump", dump_str, "--out", resumed_str, "--checkpoint",
            ckpt_str, "--resume", "--quiet"])
        .expect("resume completes");
        assert!(out.contains("resumed from byte offset"), "{out}");
        assert_eq!(
            std::fs::read(&fresh).expect("fresh"),
            std::fs::read(&resumed).expect("resumed"),
            "resumed dataset must be byte-identical to the uninterrupted one"
        );

        // --resume without --checkpoint is a usage error.
        assert!(matches!(
            run(&["ingest", "--dump", dump_str, "--out", resumed_str, "--resume"]),
            Err(CliError::Message(_))
        ));
        for f in [&dump, &fresh, &ckpt, &resumed] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn ingest_error_budget_aborts_and_quarantine_report_verifies() {
        // A dump that is pure garbage trips the error budget (exit 1).
        let dump = temp_file("cli-ingest-broken.xml");
        let mut xml = String::from("<mediawiki>");
        for i in 0..25 {
            xml.push_str(&broken_page_xml(i));
        }
        xml.push_str("</mediawiki>");
        std::fs::write(&dump, &xml).expect("write dump");
        let out_path = temp_file("cli-ingest-broken.tind");
        let err = run(&["ingest", "--dump", dump.to_str().expect("utf8"), "--out",
            out_path.to_str().expect("utf8"), "--quiet"])
        .expect_err("error budget must abort");
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(err.to_string().contains("error budget exceeded"), "{err}");
        std::fs::remove_file(&dump).ok();

        // A few bad pages among good ones: the run completes and the
        // quarantine report round-trips through `verify`.
        let dump = temp_file("cli-ingest-mixed.xml");
        let mut xml = String::from("<mediawiki>");
        xml.push_str(&ingest_page_xml("Alpha", 1));
        xml.push_str(&broken_page_xml(99));
        xml.push_str(&ingest_page_xml("Beta", 2));
        xml.push_str("</mediawiki>");
        std::fs::write(&dump, &xml).expect("write dump");
        let report = temp_file("cli-ingest-mixed.tqr");
        let report_str = report.to_str().expect("utf8");
        let out2 = temp_file("cli-ingest-mixed.tind");
        let out = run(&["ingest", "--dump", dump.to_str().expect("utf8"), "--out",
            out2.to_str().expect("utf8"), "--quarantine-report", report_str, "--quiet"])
        .expect("mixed dump completes");
        assert!(out.contains("ingested 2 pages (1 quarantined"), "{out}");
        let verified = run(&["verify", report_str]).expect("quarantine report verifies");
        assert!(verified.contains("quarantine report: 1/3 pages quarantined"), "{verified}");
        for f in [&dump, &report, &out2, &out_path] {
            std::fs::remove_file(f).ok();
        }
    }

    /// A delta variant of [`ingest_page_xml`]: the page's full revision
    /// history, extended to `versions` revisions (months 2..9).
    fn update_page_xml(title: &str, id: u32, versions: usize) -> String {
        let games = [
            "Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl",
            "Diamond", "Platinum", "Black",
        ];
        let mut page = format!("<page><title>{title}</title><id>{id}</id>");
        for i in 0..versions.min(8) {
            let mut table = String::from("{|\n! Game\n");
            for g in &games[..5 + i] {
                table.push_str(&format!("|-\n| {g}\n"));
            }
            table.push_str("|}");
            page.push_str(&format!(
                "<revision><timestamp>2001-0{}-01T00:00:00Z</timestamp><text>{table}</text></revision>",
                i + 2,
            ));
        }
        page.push_str("</page>");
        page
    }

    #[test]
    fn update_applies_delta_and_maintained_index_matches_cold_rebuild() {
        // Base: two pages, ingested and indexed.
        let dump = temp_file("cli-update-base.xml");
        let xml = format!(
            "<mediawiki>\n{}\n{}\n</mediawiki>",
            ingest_page_xml("Alpha", 1),
            ingest_page_xml("Beta", 2),
        );
        std::fs::write(&dump, xml).expect("write base dump");
        let base = temp_file("cli-update-base.tind");
        let base_str = base.to_str().expect("utf8");
        run(&["ingest", "--dump", dump.to_str().expect("utf8"), "--out", base_str, "--quiet"])
            .expect("base ingests");
        let idx = temp_file("cli-update-base.tix");
        let idx_str = idx.to_str().expect("utf8");
        run(&["index", "--data", base_str, "--out", idx_str, "--m", "256"]).expect("indexes");

        // Delta: Alpha revised (full history, now 8 revisions) + new Gamma.
        let delta = temp_file("cli-update-delta.xml");
        let delta_xml = format!(
            "<mediawiki>\n{}\n{}\n</mediawiki>",
            update_page_xml("Alpha", 1, 8),
            update_page_xml("Gamma", 3, 6),
        );
        std::fs::write(&delta, delta_xml).expect("write delta dump");
        let delta_str = delta.to_str().expect("utf8");

        let merged = temp_file("cli-update-merged.tind");
        let merged_str = merged.to_str().expect("utf8");
        let idx2 = temp_file("cli-update-incr.tix");
        let idx2_str = idx2.to_str().expect("utf8");
        let out = run(&["update", "--dump", delta_str, "--data", base_str, "--out", merged_str,
            "--index", idx_str, "--index-out", idx2_str, "--quiet"])
        .expect("update completes");
        assert!(out.contains("2 attribute(s) touched"), "{out}");
        assert!(out.contains("index:"), "{out}");
        assert!(out.contains("dataset written to"), "{out}");

        // The incrementally maintained index is byte-identical to a cold
        // rebuild over the merged dataset (the delta-oracle pin).
        let idx_cold = temp_file("cli-update-cold.tix");
        let idx_cold_str = idx_cold.to_str().expect("utf8");
        run(&["index", "--data", merged_str, "--out", idx_cold_str, "--m", "256"])
            .expect("cold index");
        assert_eq!(
            std::fs::read(&idx2).expect("incremental"),
            std::fs::read(&idx_cold).expect("cold"),
            "incrementally maintained index must be byte-identical to a cold rebuild"
        );

        // Kill/resume: a zero deadline checkpoints before the first page
        // (exit 130, TINDUC artifact), and the resumed run produces a
        // byte-identical merged dataset.
        let ckpt = temp_file("cli-update.tuc");
        let ckpt_str = ckpt.to_str().expect("utf8");
        let _ = std::fs::remove_file(&ckpt);
        let sink = temp_file("cli-update-sink.tind");
        let err = run(&["update", "--dump", delta_str, "--data", base_str, "--out",
            sink.to_str().expect("utf8"), "--checkpoint", ckpt_str, "--deadline", "0", "--quiet"])
        .expect_err("zero deadline must interrupt");
        let CliError::Interrupted { summary } = &err else {
            panic!("expected Interrupted, got {err}");
        };
        assert!(summary.contains("checkpointed"), "{summary}");
        assert_eq!(err.exit_code(), 130);
        let verified = run(&["verify", ckpt_str]).expect("update checkpoint verifies");
        assert!(verified.contains("update checkpoint:"), "{verified}");

        let resumed = temp_file("cli-update-resumed.tind");
        let resumed_str = resumed.to_str().expect("utf8");
        let out = run(&["update", "--dump", delta_str, "--data", base_str, "--out", resumed_str,
            "--checkpoint", ckpt_str, "--resume", "--quiet"])
        .expect("resume completes");
        assert!(out.contains("resumed from byte offset"), "{out}");
        assert_eq!(
            std::fs::read(&merged).expect("merged"),
            std::fs::read(&resumed).expect("resumed"),
            "resumed update must be byte-identical to the uninterrupted one"
        );

        // A corrupted update checkpoint is refused with a checksum error
        // (exit 3) that names the failing byte offset.
        let mut rotten = std::fs::read(&ckpt).expect("read checkpoint");
        let mid = rotten.len() / 2;
        rotten[mid] ^= 0xFF;
        std::fs::write(&ckpt, rotten).expect("write corrupted");
        let err = run(&["verify", ckpt_str]).expect_err("corrupt checkpoint refused");
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("offset"), "offset missing from: {err}");

        // --index-out without --index is a usage error.
        assert!(matches!(
            run(&["update", "--dump", delta_str, "--data", base_str, "--out", resumed_str,
                "--index-out", idx2_str]),
            Err(CliError::Message(_))
        ));

        for f in [&dump, &base, &idx, &delta, &merged, &idx2, &idx_cold, &ckpt, &resumed, &sink] {
            std::fs::remove_file(f).ok();
        }
    }

    /// `update --index I` without `--index-out` republishes `I` through a
    /// temp file: nothing is left behind, and `I` verifies against the
    /// merged dataset and equals a cold rebuild over it.
    #[test]
    fn update_in_place_publishes_the_index() {
        let dump = temp_file("cli-inplace-base.xml");
        let xml = format!("<mediawiki>\n{}\n</mediawiki>", ingest_page_xml("Alpha", 1));
        std::fs::write(&dump, xml).expect("write base dump");
        let base = temp_file("cli-inplace-base.tind");
        let base_str = base.to_str().expect("utf8");
        run(&["ingest", "--dump", dump.to_str().expect("utf8"), "--out", base_str, "--quiet"])
            .expect("base ingests");
        let idx = temp_file("cli-inplace.tix");
        let idx_str = idx.to_str().expect("utf8");
        run(&["index", "--data", base_str, "--out", idx_str, "--m", "256"]).expect("indexes");
        let delta = temp_file("cli-inplace-delta.xml");
        let delta_xml = format!("<mediawiki>{}</mediawiki>", update_page_xml("Beta", 2, 6));
        std::fs::write(&delta, delta_xml).expect("write delta dump");
        let merged = temp_file("cli-inplace-merged.tind");
        let merged_str = merged.to_str().expect("utf8");

        let out = run(&["update", "--dump", delta.to_str().expect("utf8"), "--data", base_str,
            "--out", merged_str, "--index", idx_str, "--quiet"])
        .expect("update completes");
        assert!(out.contains("index:"), "{out}");
        assert!(!temp_file("cli-inplace.tix.tmp").exists(), "temp index renamed away");
        run(&["verify", idx_str, "--data", merged_str]).expect("index verifies against the merge");
        let cold = temp_file("cli-inplace-cold.tix");
        run(&["index", "--data", merged_str, "--out", cold.to_str().expect("utf8"), "--m", "256"])
            .expect("cold index");
        assert_eq!(std::fs::read(&idx).expect("updated"), std::fs::read(&cold).expect("cold"));
        for f in [&dump, &base, &idx, &delta, &merged, &cold] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn update_refuses_a_base_with_a_repeated_name() {
        // A dataset written before column names were unique within a page.
        let mut builder = tind_model::DatasetBuilder::new(tind_model::Timeline::new(6148));
        builder.add_attribute("P ▸ Games ▸ Game", &[(0, vec!["Red"])], 9);
        builder.add_attribute("P ▸ Games ▸ Game", &[(0, vec!["Mario"])], 9);
        let base = temp_file("cli-update-dup-base.tind");
        write_dataset_file(&builder.build(), &base).expect("write base");
        let delta = temp_file("cli-update-dup-delta.xml");
        std::fs::write(&delta, format!("<mediawiki>{}</mediawiki>", update_page_xml("P", 1, 6)))
            .expect("write delta");
        let merged = temp_file("cli-update-dup-merged.tind");
        let _ = std::fs::remove_file(&merged);
        let err = run(&["update", "--dump", delta.to_str().expect("utf8"), "--data",
            base.to_str().expect("utf8"), "--out", merged.to_str().expect("utf8"), "--quiet"])
        .expect_err("a base with a repeated name is refused");
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("re-ingest"), "{err}");
        assert!(!merged.exists(), "nothing is written");
        for f in [&base, &delta] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(CliError::Message("m".into()).exit_code(), 1);
        assert_eq!(CliError::Unknown("u".into()).exit_code(), 2);
        assert_eq!(CliError::Data(BinIoError::Corrupt("c".into())).exit_code(), 3);
        assert_eq!(CliError::Io(std::io::Error::other("io")).exit_code(), 4);
        assert_eq!(
            CliError::Discovery(AllPairsError::Internal("boom")).exit_code(),
            5
        );
        assert_eq!(CliError::Interrupted { summary: String::new() }.exit_code(), 130);
    }
}
