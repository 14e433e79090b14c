//! All-pairs tIND discovery (Section 3.5, evaluated in §5.2) with a
//! fault-tolerance layer for multi-hour runs.
//!
//! The all-pairs problem is solved by querying every attribute against the
//! index. As the paper notes at the end of §4.2.2, the profitable axis of
//! parallelism is *across queries* (not within one query's validation):
//! each query is one unit of the crate's parallel driver (`core::par`).
//! This module holds the one pair driver: a cold run is the refresh of the
//! delta ∅ → D, and [`crate::refresh_pairs`] is the same driver on a plan
//! that probes the untouched queries. Each worker keeps what its queries
//! found and hands them in once per checkpoint interval.
//!
//! Because a paper-scale run takes hours, the discovery loop is built to
//! survive the failures such runs actually meet:
//!
//! * **Checkpoint/resume** — completed query ids and their pairs are
//!   periodically persisted ([`crate::checkpoint`]); a run restarted with
//!   [`AllPairsOptions::resume_from`] skips finished queries and produces
//!   byte-identical `pairs` to an uninterrupted run.
//! * **Panic quarantine** — each per-query search runs under
//!   `catch_unwind`; a panicking query is recorded in
//!   [`AllPairsOutcome::poisoned_queries`] while the other workers keep
//!   draining the cursor.
//! * **Cooperative cancellation and deadlines** — a [`CancelToken`] and an
//!   optional wall-clock budget are polled at query boundaries, so a
//!   cancelled run stops in a checkpointable state.
//! * **Memory-budget degradation** — extra workers charge their
//!   validation-scratch estimate against an optional [`MemoryBudget`];
//!   when the budget is exhausted the run degrades toward sequential
//!   execution instead of aborting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tind_bloom::BitVec;
use tind_model::binio::BinIoError;
use tind_model::{AttrId, MemoryBudget};

use crate::cancel::{CancelReason, CancelToken};
use crate::checkpoint::Checkpoint;
use crate::delta::TouchedColumns;
use crate::fault::FaultHook;
use crate::index::{TindIndex, ValueBufs};
use crate::par::Drain;
use crate::params::TindParams;
use crate::search::{finish_search, run_search_scratch, SearchOptions, SearchStats};
use crate::sync::{into_inner, lock};
use crate::validate::ValidationScratch;

/// When and where to persist progress checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written by `tind_model::binio::write_file`:
    /// temp file, fsync, rename).
    pub path: PathBuf,
    /// Queries a worker completes between checkpoint writes: after each
    /// `every` of its queries it hands its finds in and writes the
    /// checkpoint (DESIGN.md §5g).
    pub every: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every 256 completed queries.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { path: path.into(), every: 256 }
    }

    /// Overrides the checkpoint interval (clamped to at least 1).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }
}

/// Options for all-pairs discovery.
#[derive(Clone, Default)]
pub struct AllPairsOptions {
    /// Worker threads. `0` means one per available CPU.
    pub threads: usize,
    /// Periodic checkpointing of completed queries and accumulated pairs.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume state from an earlier, interrupted run; its dataset
    /// fingerprint and parameter digest must match or discovery refuses
    /// to start.
    pub resume_from: Option<Checkpoint>,
    /// Cooperative cancellation flag, polled at query boundaries.
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget for this run (measured from the call, not
    /// including any resumed work). The run stops in a checkpointable
    /// state when the deadline passes.
    pub deadline: Option<Duration>,
    /// Memory accountant; extra workers beyond the first charge their
    /// scratch estimate and are shed when the budget is exhausted.
    pub memory_budget: Option<MemoryBudget>,
    /// Emit a one-line progress report to stderr every this many
    /// completed queries; `0` (the default) is quiet.
    pub progress_every: usize,
    /// Test-only fault injection: invoked with each query id right before
    /// its search (see [`crate::fault`]).
    pub fault_hook: Option<FaultHook>,
    /// Optional trace context: each query's search records per-stage
    /// trace spans parented to it. Purely observational.
    pub trace: Option<tind_obs::TraceContext>,
}

impl std::fmt::Debug for AllPairsOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllPairsOptions")
            .field("threads", &self.threads)
            .field("checkpoint", &self.checkpoint)
            .field("resume_from", &self.resume_from.as_ref().map(|c| c.completed.len()))
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("memory_budget", &self.memory_budget)
            .field("progress_every", &self.progress_every)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("trace", &self.trace)
            .finish()
    }
}

/// Result of all-pairs discovery.
#[derive(Debug, Clone)]
pub struct AllPairsOutcome {
    /// All `(lhs, rhs)` pairs with `lhs ⊆_{w,ε,δ} rhs`, sorted; reflexive
    /// pairs excluded.
    pub pairs: Vec<(AttrId, AttrId)>,
    /// Wall-clock time of the discovery (excluding index construction).
    pub elapsed: std::time::Duration,
    /// Total number of Algorithm-2 validations across all queries.
    pub validations_run: usize,
    /// Number of query attributes in the problem.
    pub total_queries: usize,
    /// Queries completed by the end of this call (including resumed ones).
    pub completed_queries: usize,
    /// Queries skipped because the resume checkpoint already covered them.
    pub resumed_queries: usize,
    /// Queries whose search panicked and was quarantined, sorted.
    pub poisoned_queries: Vec<AttrId>,
    /// Whether the run stopped early due to cancellation or deadline.
    pub cancelled: bool,
    /// Why the run stopped early, when `cancelled` is set: the single
    /// latched [`CancelReason`] (deadline expiry and explicit cancel can
    /// race; the first cause to latch wins deterministically).
    pub stop_reason: Option<CancelReason>,
    /// Worker threads actually used after memory-budget degradation.
    pub threads_used: usize,
    /// Whether a checkpoint file reflecting the final state was written.
    pub checkpoint_written: bool,
    /// Validations ended by the prove-valid early exit during *this* call
    /// (not part of the checkpoint format, so resumed work contributes 0).
    pub early_valid_exits: usize,
    /// Validations ended by the prove-invalid early exit during this call.
    pub early_invalid_exits: usize,
    /// Wall-clock nanoseconds spent in stage-4 validation during this
    /// call, summed across workers (can exceed `elapsed` on multi-core).
    pub validate_nanos: u64,
}

/// Errors from fault-tolerant all-pairs discovery.
#[derive(Debug)]
pub enum AllPairsError {
    /// The resume checkpoint belongs to a different dataset or different
    /// search parameters.
    ResumeMismatch(BinIoError),
    /// A checkpoint could not be written (disk full, permissions, ...).
    CheckpointWrite(BinIoError),
    /// A worker panicked outside the per-query quarantine; the run's
    /// bookkeeping can no longer be trusted.
    Internal(&'static str),
}

impl std::fmt::Display for AllPairsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllPairsError::ResumeMismatch(e) => write!(f, "cannot resume: {e}"),
            AllPairsError::CheckpointWrite(e) => write!(f, "checkpoint write failed: {e}"),
            AllPairsError::Internal(msg) => write!(f, "internal all-pairs failure: {msg}"),
        }
    }
}

impl std::error::Error for AllPairsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllPairsError::ResumeMismatch(e) | AllPairsError::CheckpointWrite(e) => Some(e),
            AllPairsError::Internal(_) => None,
        }
    }
}

/// What the pair driver does with each query. A query not in `queries` is
/// skipped: completed in the resume checkpoint, or masked in a refresh. A
/// query in it is searched in full, unless `touched` is set and does not
/// hold it: such an untouched query of a refresh is probed against the
/// touched columns and searched on only if a candidate survives.
pub(crate) struct PairPlan<'a> {
    /// The queries to run, ascending.
    pub queries: Vec<AttrId>,
    /// A refresh's touched attributes and their `M_T` columns; `None` in a
    /// cold or resumed all-pairs run.
    pub touched: Option<(&'a BitVec, &'a TouchedColumns)>,
}

/// The queries a drive ran and what they found: one worker's since it last
/// handed them in, or the whole drive's on top of its base.
#[derive(Default)]
pub(crate) struct PairRun {
    /// Completed and poisoned queries, pairs and validations.
    pub state: Checkpoint,
    /// Early exits and validation time; its other fields stay 0.
    pub stats: SearchStats,
    pub probe_survivors: usize,
    /// Workers that ran.
    pub threads: usize,
    /// When the last checkpoint was written, if one was.
    pub checkpointed: Option<Instant>,
}

impl PairRun {
    /// Adds a worker's finds.
    fn absorb(&mut self, found: PairRun) {
        tind_obs::counter("allpairs.pairs").add(found.state.pairs.len() as u64);
        tind_obs::counter("allpairs.poisoned").add(found.state.poisoned.len() as u64);
        tind_obs::counter("allpairs.queries_completed").add(found.state.completed.len() as u64);
        self.state.completed.extend(found.state.completed);
        self.state.poisoned.extend(found.state.poisoned);
        self.state.pairs.extend(found.state.pairs);
        self.state.validations_run += found.state.validations_run;
        self.stats.early_valid_exits += found.stats.early_valid_exits;
        self.stats.early_invalid_exits += found.stats.early_invalid_exits;
        self.stats.validate_nanos += found.stats.validate_nanos;
        self.probe_survivors += found.probe_survivors;
    }
}

/// One worker's finds and buffers across the drain.
struct Worker {
    found: PairRun,
    bufs: ValueBufs,
    /// One bit per touched column; empty without a `touched` plan.
    probe: BitVec,
}

/// The one pair driver: runs `plan` over `index` on top of `state` (the
/// kept base: a resume checkpoint or an empty one) and returns the merged
/// state, sorted. One drain runs the whole plan; each worker keeps its
/// finds and hands them in to the checkpointed state, under one lock, once
/// per checkpoint interval of its own queries, which writes a checkpoint.
/// A cancel stops the drain at a query boundary; the final state is always
/// checkpointed.
pub(crate) fn drive(
    index: &TindIndex,
    params: &TindParams,
    plan: &PairPlan<'_>,
    state: Checkpoint,
    options: &AllPairsOptions,
    cancel: Option<&CancelToken>,
) -> Result<PairRun, AllPairsError> {
    let start = Instant::now();
    let num_attrs = index.dataset().len();
    let search = SearchOptions::default();
    let every = options.checkpoint.as_ref().map_or(usize::MAX, |p| p.every.max(1));
    // Progress counts shared by the workers (queries of this call, pairs
    // and poisoned queries in all), so progress takes no lock but to read
    // the checkpoint age: the worker completing each `progress_every`-th
    // query prints the line.
    let (resumed, total) = (state.completed.len(), state.total_queries);
    let counts = [0, state.pairs.len(), state.poisoned.len()].map(AtomicUsize::new);
    // The handed-in state and the first checkpoint write error, if any.
    let ledger = Mutex::new((PairRun { state, ..PairRun::default() }, Ok(())));
    let progress = |(pairs, poisoned): (usize, bool)| {
        let [fresh, found, bad] = &counts;
        if options.progress_every == 0 {
            return;
        }
        found.fetch_add(pairs, Relaxed);
        bad.fetch_add(usize::from(poisoned), Relaxed);
        let fresh = fresh.fetch_add(1, Relaxed) + 1;
        if fresh % options.progress_every != 0 {
            return;
        }
        let (done, elapsed) = (resumed + fresh, start.elapsed().as_secs_f64());
        // Rate and ETA use the shared obs formatting so this line matches
        // the ingest/search progress shapes exactly.
        let rate = tind_obs::fmt_rate(fresh as u64, elapsed, "queries");
        let eta = match total.saturating_sub(done) {
            0 => "~? left".to_string(),
            left => tind_obs::fmt_eta_secs(elapsed / fresh as f64 * left as f64),
        };
        let age = match lock(&ledger).0.checkpointed {
            Some(at) => format!("{:.0}s", at.elapsed().as_secs_f64()),
            None => "none".to_string(),
        };
        let (found, bad) = (found.load(Relaxed), bad.load(Relaxed));
        eprintln!(
            "all-pairs: {done}/{total} queries, {found} pairs, {bad} poisoned, {rate}, {eta}, checkpoint age {age}"
        );
    };
    // Runs query `q` and returns the pairs it found and whether it panicked.
    let run_query = |w: &mut Worker, scratch: &mut ValidationScratch, q: AttrId| {
        let hist = index.dataset().attribute(q);
        // Quarantine: a panicking query must not take down the drain. A
        // scratch abandoned mid-pair is safe to reuse: the next pair's
        // generation bump hides any stale counts.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &options.fault_hook {
                hook(q);
            }
            match plan.touched {
                Some((touched, columns)) if !touched.get(q as usize) => {
                    if !columns.probe(hist, params, &mut w.probe, &mut w.bufs) {
                        return None;
                    }
                    w.found.probe_survivors += 1;
                    let candidates = columns.expand(&w.probe, num_attrs);
                    let required = &w.bufs.0;
                    Some(finish_search(
                        index, hist, Some(q), params, &search, required, candidates, scratch,
                        None, options.trace,
                    ))
                }
                _ => Some(run_search_scratch(
                    index, hist, Some(q), params, &search, scratch, &mut w.bufs, options.trace,
                )),
            }
        }));
        let PairRun { state, stats, .. } = &mut w.found;
        state.completed.push(q);
        match outcome {
            Ok(Some(outcome)) => {
                state.validations_run += outcome.stats.validations_run;
                stats.early_valid_exits += outcome.stats.early_valid_exits;
                stats.early_invalid_exits += outcome.stats.early_invalid_exits;
                stats.validate_nanos += outcome.stats.validate_nanos;
                state.pairs.extend(outcome.results.iter().map(|&rhs| (q, rhs)));
                (outcome.results.len(), false)
            }
            Ok(None) => (0, false),
            Err(_) => {
                state.poisoned.push(q);
                (0, true)
            }
        }
    };
    let new_worker = || Worker {
        found: PairRun::default(),
        bufs: ValueBufs::default(),
        probe: plan.touched.map_or_else(|| BitVec::zeros(0), |(_, c)| c.probe_bits()),
    };

    let drained = Drain {
        units: plan.queries.len(),
        threads: options.threads,
        budget: options.memory_budget.as_ref(),
        worker_bytes: ValidationScratch::worker_bytes(index.dataset()),
        cancel,
    }
    .run(new_worker, |w, scratch, i| {
        let found = run_query(w, scratch, plan.queries[i]);
        if w.found.state.completed.len() >= every {
            let (run, written) = &mut *lock(&ledger);
            run.absorb(std::mem::take(&mut w.found));
            if written.is_ok() {
                *written = write_checkpoint(run, options);
            }
        }
        progress(found);
    })
    .map_err(|_| AllPairsError::Internal("all-pairs worker panicked outside quarantine"))?;
    let (mut run, written) = into_inner(ledger);
    written?;
    for w in drained.states {
        run.absorb(w.found);
    }
    run.threads = drained.threads;
    tind_obs::gauge("allpairs.workers_requested").set(drained.requested as f64);
    tind_obs::gauge("allpairs.workers_granted").set(drained.threads as f64);
    // Final checkpoint so a cancelled (or just-finished) run can always be
    // resumed/inspected, even when the interval had not elapsed.
    write_checkpoint(&mut run, options)?;
    Ok(run)
}

/// Sorts the merged state into a valid [`Checkpoint`] and, when `options`
/// asks for checkpoints, writes it.
fn write_checkpoint(run: &mut PairRun, options: &AllPairsOptions) -> Result<(), AllPairsError> {
    run.state.completed.sort_unstable();
    run.state.poisoned.sort_unstable();
    run.state.pairs.sort_unstable();
    if let Some(policy) = &options.checkpoint {
        tind_model::binio::write_file(&run.state, &policy.path)
            .map_err(|e| AllPairsError::CheckpointWrite(e.into()))?;
        run.checkpointed = Some(Instant::now());
    }
    Ok(())
}

/// Discovers every valid tIND among the indexed attributes: the pair
/// driver with every query not completed in the resume checkpoint searched
/// in full — the refresh of the delta ∅ → D.
///
/// With default options this behaves like the original exhaustive pass.
/// See [`AllPairsOptions`] for checkpointing, resume, cancellation,
/// deadline, and memory-budget behaviour. The discovered `pairs` are a
/// pure function of (dataset, params): any interrupted run resumed from
/// its checkpoint yields exactly the pairs of an uninterrupted run.
pub fn discover_all_pairs(
    index: &TindIndex,
    params: &TindParams,
    options: &AllPairsOptions,
) -> Result<AllPairsOutcome, AllPairsError> {
    let _run_span = tind_obs::span("core.allpairs.run");
    let start = Instant::now();
    let num_attrs = index.dataset().len();

    // The kept base: the resume checkpoint's completed queries and pairs.
    let base = match &options.resume_from {
        Some(cp) => {
            cp.verify_matches(index.dataset(), params)
                .map_err(AllPairsError::ResumeMismatch)?;
            cp.clone()
        }
        None => Checkpoint::fresh(index.dataset(), params),
    };
    let resumed_queries = base.completed.len();
    let mut done = vec![false; num_attrs];
    for &q in &base.completed {
        done[q as usize] = true;
    }
    let plan = PairPlan {
        queries: (0..num_attrs as AttrId).filter(|&q| !done[q as usize]).collect(),
        touched: None,
    };

    // One token is the single source of truth for "why we stopped": the
    // caller's cancel flag (if any) with the wall-clock deadline folded
    // in. Deadline expiry and explicit cancellation latch the same
    // reason cell, so 504-vs-interrupt accounting is exact even when the
    // two race at a query boundary.
    let effective_cancel = {
        let base = options.cancel.clone().unwrap_or_default();
        match options.deadline {
            Some(d) => base.with_deadline(start + d),
            None => base,
        }
    };
    let run = drive(index, params, &plan, base, options, Some(&effective_cancel))?;
    let completed_queries = run.state.completed.len();
    let cancelled = completed_queries < num_attrs;
    let stop_reason = if cancelled { effective_cancel.reason() } else { None };
    if let Some(budget) = options.memory_budget.as_ref() {
        tind_obs::gauge("memory.peak_bytes").set_max(budget.peak_bytes() as f64);
        tind_obs::gauge("memory.limit_bytes").set(budget.limit_bytes() as f64);
    }
    Ok(AllPairsOutcome {
        pairs: run.state.pairs,
        elapsed: start.elapsed(),
        validations_run: run.state.validations_run,
        total_queries: num_attrs,
        completed_queries,
        resumed_queries,
        poisoned_queries: run.state.poisoned,
        cancelled,
        stop_reason,
        threads_used: run.threads,
        checkpoint_written: run.checkpointed.is_some(),
        early_valid_exits: run.stats.early_valid_exits,
        early_invalid_exits: run.stats.early_invalid_exits,
        validate_nanos: run.stats.validate_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexConfig, TindIndex};
    use crate::search::brute_force_search;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tind_model::{Dataset, DatasetBuilder, Timeline};

    fn chain_dataset() -> Arc<Dataset> {
        // a ⊆ b ⊆ c, d disjoint.
        let mut b = DatasetBuilder::new(Timeline::new(50));
        b.add_attribute("a", &[(0, vec!["1"])], 49);
        b.add_attribute("b", &[(0, vec!["1", "2"])], 49);
        b.add_attribute("c", &[(0, vec!["1", "2", "3"])], 49);
        b.add_attribute("d", &[(0, vec!["9"])], 49);
        Arc::new(b.build())
    }

    fn discover(
        idx: &TindIndex,
        params: &TindParams,
        options: &AllPairsOptions,
    ) -> AllPairsOutcome {
        discover_all_pairs(idx, params, options).expect("discovery succeeds")
    }

    #[test]
    fn discovers_the_containment_chain() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let out = discover(&idx, &TindParams::strict(), &AllPairsOptions::default());
        assert_eq!(out.pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert!(out.validations_run >= out.pairs.len());
        assert!(out.early_valid_exits + out.early_invalid_exits <= out.validations_run);
        assert_eq!(out.completed_queries, 4);
        assert_eq!(out.total_queries, 4);
        assert!(!out.cancelled);
        assert!(out.poisoned_queries.is_empty());
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let p = TindParams::paper_default();
        let one = discover(&idx, &p, &AllPairsOptions { threads: 1, ..Default::default() });
        let many = discover(&idx, &p, &AllPairsOptions { threads: 4, ..Default::default() });
        assert_eq!(one.pairs, many.pairs);
    }

    #[test]
    fn matches_per_query_brute_force() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let p = TindParams::paper_default();
        let out = discover(&idx, &p, &AllPairsOptions::default());
        let mut expected = Vec::new();
        for (qid, hist) in d.iter() {
            for rhs in brute_force_search(&idx, hist, Some(qid), &p) {
                expected.push((qid, rhs));
            }
        }
        expected.sort_unstable();
        assert_eq!(out.pairs, expected);
    }

    #[test]
    fn poisoned_query_is_quarantined() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let p = TindParams::strict();
        let out = discover(
            &idx,
            &p,
            &AllPairsOptions {
                threads: 2,
                fault_hook: Some(crate::fault::poison_hook(&[1])),
                ..Default::default()
            },
        );
        assert_eq!(out.poisoned_queries, vec![1]);
        assert_eq!(out.completed_queries, 4, "poisoned query still counts as handled");
        // Query 1's pairs are lost; everything else is intact.
        assert_eq!(out.pairs, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let token = CancelToken::new();
        token.cancel();
        let out = discover(
            &idx,
            &TindParams::strict(),
            &AllPairsOptions { threads: 2, cancel: Some(token), ..Default::default() },
        );
        assert!(out.cancelled);
        assert_eq!(out.stop_reason, Some(CancelReason::Interrupt));
        assert_eq!(out.completed_queries, 0);
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn expired_deadline_stops_immediately() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let out = discover(
            &idx,
            &TindParams::strict(),
            &AllPairsOptions {
                threads: 1,
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        assert!(out.cancelled);
        assert_eq!(out.stop_reason, Some(CancelReason::Deadline));
        assert_eq!(out.completed_queries, 0);
    }

    #[test]
    fn memory_budget_degrades_to_sequential() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        // A zero budget cannot afford any extra worker.
        let out = discover(
            &idx,
            &TindParams::strict(),
            &AllPairsOptions {
                threads: 4,
                memory_budget: Some(MemoryBudget::new(0)),
                ..Default::default()
            },
        );
        assert_eq!(out.threads_used, 1, "degraded to sequential");
        assert_eq!(out.pairs, vec![(0, 1), (0, 2), (1, 2)], "results unaffected");
        // A budget affording exactly one extra worker grants two.
        let budget = MemoryBudget::new(ValidationScratch::worker_bytes(&d));
        let out = discover(
            &idx,
            &TindParams::strict(),
            &AllPairsOptions {
                threads: 4,
                memory_budget: Some(budget.clone()),
                ..Default::default()
            },
        );
        assert_eq!(out.threads_used, 2);
        assert_eq!(budget.used_bytes(), 0, "charges released after the run");
    }

    #[test]
    fn checkpoint_resume_produces_identical_pairs() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let p = TindParams::paper_default();
        let full = discover(&idx, &p, &AllPairsOptions::default());

        let dir = std::env::temp_dir().join("tind-allpairs-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.tcp");

        // Cancel after two completed queries (single-threaded so the
        // boundary is exact), checkpointing every completed query.
        let token = CancelToken::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let hook: crate::fault::FaultHook = {
            let token = token.clone();
            let counter = counter.clone();
            Arc::new(move |_q| {
                if counter.fetch_add(1, Ordering::Relaxed) >= 2 {
                    token.cancel();
                }
            })
        };
        // The hook fires *before* the search, so cancel lands before the
        // third query runs; but the cancel check happens at the loop head,
        // so the third search still executes. Either way the checkpoint
        // only ever contains fully completed queries.
        let interrupted = discover(
            &idx,
            &p,
            &AllPairsOptions {
                threads: 1,
                cancel: Some(token),
                checkpoint: Some(CheckpointPolicy::new(&path).every(1)),
                fault_hook: Some(hook),
                ..Default::default()
            },
        );
        assert!(interrupted.cancelled);
        assert!(interrupted.completed_queries < full.total_queries);
        assert!(interrupted.checkpoint_written);

        let cp = Checkpoint::decode(&std::fs::read(&path).expect("checkpoint readable"))
            .expect("checkpoint decodes");
        let resumed = discover(
            &idx,
            &p,
            &AllPairsOptions { threads: 2, resume_from: Some(cp), ..Default::default() },
        );
        assert!(!resumed.cancelled);
        assert_eq!(resumed.pairs, full.pairs, "resume must reproduce the full result");
        assert_eq!(resumed.resumed_queries, interrupted.completed_queries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_wrong_dataset_is_refused() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let p = TindParams::paper_default();
        let mut other = DatasetBuilder::new(Timeline::new(50));
        other.add_attribute("x", &[(0, vec!["7"])], 49);
        let other = Arc::new(other.build());
        let cp = Checkpoint::fresh(&other, &p);
        let err = discover_all_pairs(
            &idx,
            &p,
            &AllPairsOptions { resume_from: Some(cp), ..Default::default() },
        )
        .expect_err("must refuse");
        assert!(matches!(err, AllPairsError::ResumeMismatch(_)), "{err}");
    }

    #[test]
    fn resume_from_complete_checkpoint_is_a_no_op() {
        let d = chain_dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 512, ..IndexConfig::default() });
        let p = TindParams::paper_default();
        let full = discover(&idx, &p, &AllPairsOptions::default());
        let mut cp = Checkpoint::fresh(&d, &p);
        cp.completed = (0..d.len() as AttrId).collect();
        cp.pairs = full.pairs.clone();
        cp.validations_run = full.validations_run;
        let resumed = discover(
            &idx,
            &p,
            &AllPairsOptions { resume_from: Some(cp), ..Default::default() },
        );
        assert_eq!(resumed.pairs, full.pairs);
        assert_eq!(resumed.resumed_queries, d.len());
        assert!(!resumed.cancelled);
    }
}
