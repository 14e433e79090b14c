//! All-pairs tIND discovery (Section 3.5, evaluated in §5.2) with a
//! fault-tolerance layer for multi-hour runs.
//!
//! The all-pairs problem is solved by querying every attribute against the
//! index. As the paper notes at the end of §4.2.2, the profitable axis of
//! parallelism is *across queries* (not within one query's validation):
//! each query is one unit of the crate's parallel driver (`core::par`),
//! and its pairs are merged into the run state as it completes.
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tind_model::binio::BinIoError;
use tind_model::{AttrId, MemoryBudget};

use crate::cancel::{CancelReason, CancelToken};
use crate::checkpoint::Checkpoint;
use crate::fault::FaultHook;
use crate::index::TindIndex;
use crate::par::Drain;
use crate::params::TindParams;
use crate::search::SearchOptions;
use crate::sync::{into_inner, lock};
use crate::validate::ValidationScratch;

/// When and where to persist progress checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written atomically via temp file + rename).
    pub path: PathBuf,
    /// Completed queries between checkpoint writes.
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

/// Mutable run state shared by the workers (behind one mutex; workers
/// touch it once per completed query, which is far coarser than the
/// per-candidate hot path inside a search).
struct Shared {
    state: Checkpoint,
    since_checkpoint: usize,
    since_progress: usize,
    last_checkpoint_at: Instant,
    checkpoint_written: bool,
    checkpoint_error: Option<BinIoError>,
    fresh_completed: usize,
    /// Early-exit / timing aggregates for this call only — deliberately
    /// *not* part of `state`: the checkpoint format stays unchanged and
    /// these counters restart at zero on resume.
    early_valid_exits: usize,
    early_invalid_exits: usize,
    validate_nanos: u64,
}

impl Shared {
    /// Sorts the accumulated sets so the state is a valid [`Checkpoint`].
    fn normalize(&mut self) {
        self.state.completed.sort_unstable();
        self.state.poisoned.sort_unstable();
        self.state.pairs.sort_unstable();
    }

    fn write_checkpoint(&mut self, policy: &CheckpointPolicy) {
        self.normalize();
        match self.state.write_file(&policy.path) {
            Ok(()) => {
                self.checkpoint_written = true;
                self.since_checkpoint = 0;
                self.last_checkpoint_at = Instant::now();
            }
            Err(e) => self.checkpoint_error = Some(e),
        }
    }

    fn progress_line(&self, started: Instant) -> String {
        let done = self.state.completed.len();
        let total = self.state.total_queries;
        let elapsed = started.elapsed();
        // Rate and ETA use the shared obs formatting so this line matches
        // the ingest/search progress shapes exactly.
        let rate = tind_obs::fmt_rate(self.fresh_completed as u64, elapsed.as_secs_f64(), "queries");
        let eta = if self.fresh_completed > 0 && done < total {
            let per_query = elapsed.as_secs_f64() / self.fresh_completed as f64;
            tind_obs::fmt_eta_secs(per_query * (total - done) as f64)
        } else {
            "~? left".to_string()
        };
        let ckpt_age = if self.checkpoint_written {
            format!("{:.0}s", self.last_checkpoint_at.elapsed().as_secs_f64())
        } else {
            "none".to_string()
        };
        format!(
            "all-pairs: {done}/{total} queries, {} pairs, {} poisoned, {rate}, {eta}, checkpoint age {ckpt_age}",
            self.state.pairs.len(),
            self.state.poisoned.len(),
        )
    }
}

/// Discovers every valid tIND among the indexed attributes.
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

    // Resume state: mark already-completed queries so workers skip them.
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
    let shared = Mutex::new(Shared {
        state: base,
        since_checkpoint: 0,
        since_progress: 0,
        last_checkpoint_at: start,
        checkpoint_written: false,
        checkpoint_error: None,
        fresh_completed: 0,
        early_valid_exits: 0,
        early_invalid_exits: 0,
        validate_nanos: 0,
    });

    let pairs_found = tind_obs::counter("allpairs.pairs");
    let poisoned = tind_obs::counter("allpairs.poisoned");
    let queries_completed = tind_obs::counter("allpairs.queries_completed");
    // One unit is one query; the worker's scratch (dense window union and
    // cached weight table) is reused across every query it claims.
    let run_query = |_: &mut (), scratch: &mut ValidationScratch, q: usize| {
        if done[q] {
            return;
        }
        // Quarantine: a panicking query must not take down the drain —
        // record it and keep draining. A scratch abandoned mid-pair is
        // safe to reuse: the next pair's generation bump hides any stale
        // counts.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &options.fault_hook {
                hook(q as AttrId);
            }
            crate::search::run_search_scratch(
                index,
                index.dataset().attribute(q as AttrId),
                Some(q as AttrId),
                params,
                &SearchOptions::default(),
                scratch,
                options.trace,
            )
        }));

        let mut s = lock(&shared);
        match result {
            Ok(outcome) => {
                s.state.validations_run += outcome.stats.validations_run;
                s.early_valid_exits += outcome.stats.early_valid_exits;
                s.early_invalid_exits += outcome.stats.early_invalid_exits;
                s.validate_nanos += outcome.stats.validate_nanos;
                pairs_found.add(outcome.results.len() as u64);
                s.state.pairs.extend(outcome.results.into_iter().map(|rhs| (q as AttrId, rhs)));
            }
            Err(_) => {
                poisoned.incr();
                s.state.poisoned.push(q as AttrId);
            }
        }
        queries_completed.incr();
        s.state.completed.push(q as AttrId);
        s.fresh_completed += 1;
        s.since_checkpoint += 1;
        s.since_progress += 1;
        if let Some(policy) = &options.checkpoint {
            if s.since_checkpoint >= policy.every && s.checkpoint_error.is_none() {
                s.write_checkpoint(policy);
            }
        }
        if options.progress_every > 0 && s.since_progress >= options.progress_every {
            s.since_progress = 0;
            eprintln!("{}", s.progress_line(start));
        }
    };
    let drained = Drain {
        units: num_attrs,
        threads: options.threads,
        budget: options.memory_budget.as_ref(),
        worker_bytes: ValidationScratch::worker_bytes(index.dataset()),
        cancel: Some(&effective_cancel),
    }
    .run(|| (), run_query)
    .map_err(|_| AllPairsError::Internal("all-pairs worker panicked outside quarantine"))?;
    tind_obs::gauge("allpairs.workers_requested").set(drained.requested as f64);
    tind_obs::gauge("allpairs.workers_granted").set(drained.threads as f64);

    let mut s = into_inner(shared);
    if let Some(e) = s.checkpoint_error.take() {
        return Err(AllPairsError::CheckpointWrite(e));
    }
    s.normalize();
    // Final checkpoint so a cancelled (or just-finished) run can always be
    // resumed/inspected, even when the interval had not elapsed.
    if let Some(policy) = &options.checkpoint {
        s.write_checkpoint(policy);
        if let Some(e) = s.checkpoint_error.take() {
            return Err(AllPairsError::CheckpointWrite(e));
        }
    }
    let completed_queries = s.state.completed.len();
    // Only a cancel leaves queries unclaimed.
    let cancelled = completed_queries < num_attrs;
    let stop_reason = if cancelled { effective_cancel.reason() } else { None };
    if let Some(budget) = options.memory_budget.as_ref() {
        tind_obs::gauge("memory.peak_bytes").set_max(budget.peak_bytes() as f64);
        tind_obs::gauge("memory.limit_bytes").set(budget.limit_bytes() as f64);
    }
    Ok(AllPairsOutcome {
        pairs: s.state.pairs,
        elapsed: start.elapsed(),
        validations_run: s.state.validations_run,
        total_queries: num_attrs,
        completed_queries,
        resumed_queries,
        poisoned_queries: s.state.poisoned,
        cancelled,
        stop_reason,
        threads_used: drained.threads,
        checkpoint_written: s.checkpoint_written,
        early_valid_exits: s.early_valid_exits,
        early_invalid_exits: s.early_invalid_exits,
        validate_nanos: s.validate_nanos,
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

        let cp = Checkpoint::read_file(&path).expect("checkpoint readable");
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
