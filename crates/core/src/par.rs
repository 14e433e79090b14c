//! The one parallel driver of `tind-core`. The paper parallelises across
//! independent units only — the queries of an all-pairs run (end of §4.2.2),
//! the column strips of an index build — so index build, batch search, pair
//! refresh and all-pairs discovery each hand [`Drain::run`] a unit count and
//! a unit function, and it alone starts threads. It claims each unit once
//! from one atomic cursor, polls the optional [`CancelToken`] before every
//! claim, sheds workers the [`MemoryBudget`] cannot afford, runs a single
//! worker inline on the caller (no spawn; with a zero-sized worker state, as
//! in batch search, no allocation), and reports a panic that escapes a unit
//! only after every worker has returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use tind_model::{Charge, MemoryBudget};

use crate::cancel::CancelToken;
use crate::validate::{with_thread_scratch, ValidationScratch};

/// One drain of units `0..units` over a worker pool.
pub(crate) struct Drain<'a> {
    pub units: usize,
    /// Requested workers; `0` means one per available CPU.
    pub threads: usize,
    /// Accountant that each worker beyond the first charges `worker_bytes`.
    pub budget: Option<&'a MemoryBudget>,
    pub worker_bytes: usize,
    /// Polled before each claim.
    pub cancel: Option<&'a CancelToken>,
}

/// A drain that ran to its end or to a cancel. A cancelled drain leaves
/// units unrun, which is how the callers tell.
pub(crate) struct Drained<S> {
    /// Workers asked for, after resolving `0` and clamping to the units.
    pub requested: usize,
    /// Workers that ran, after memory-budget shedding.
    pub threads: usize,
    /// Each worker's state after its last unit.
    pub states: Vec<S>,
}

impl Drain<'_> {
    /// Runs `unit(state, scratch, i)` once for every `i` in `0..units`
    /// (fewer when cancelled), `state` made by one `init()` per worker. A
    /// worker keeps its state and its thread's scratch
    /// ([`with_thread_scratch`]) across its units. A panicking unit stops
    /// the others at their next claim; `Err` holds its payload.
    pub(crate) fn run<S: Send>(
        &self,
        init: impl Fn() -> S + Sync,
        unit: impl Fn(&mut S, &mut ValidationScratch, usize) + Sync,
    ) -> std::thread::Result<Drained<S>> {
        let requested = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .clamp(1, self.units.max(1));
        let (threads, _charges) = grant_workers(requested, self.worker_bytes, self.budget);
        let cursor = AtomicUsize::new(0);
        let worker = || {
            catch_unwind(AssertUnwindSafe(|| {
                let mut state = init();
                with_thread_scratch(|scratch| loop {
                    if self.cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= self.units {
                        break;
                    }
                    unit(&mut state, scratch, i);
                });
                state
            }))
            // Past the last unit: every other worker stops at its next claim.
            .inspect_err(|_| cursor.store(self.units, Ordering::Relaxed))
        };
        let states = if threads == 1 {
            vec![worker()?]
        } else {
            let joined: Vec<std::thread::Result<S>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
                workers.into_iter().map(|w| w.join().unwrap_or_else(Err)).collect()
            });
            joined.into_iter().collect::<Result<_, _>>()?
        };
        Ok(Drained { requested, threads, states })
    }
}

/// Grants up to `requested` workers: the first always runs, each further
/// one must afford `worker_bytes`. The charges release when dropped.
fn grant_workers(
    requested: usize,
    worker_bytes: usize,
    budget: Option<&MemoryBudget>,
) -> (usize, Vec<Charge>) {
    let Some(budget) = budget else { return (requested, Vec::new()) };
    let charges: Vec<Charge> =
        (1..requested).map_while(|_| budget.try_charge(worker_bytes)).collect();
    (1 + charges.len(), charges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(units: usize, threads: usize) -> Drain<'static> {
        Drain { units, threads, budget: None, worker_bytes: 0, cancel: None }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        for threads in [1, 2, 7] {
            let runs: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
            let out = drain(runs.len(), threads)
                .run(
                    || 0usize,
                    |n, _, i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        *n += 1;
                    },
                )
                .expect("no unit panics");
            assert_eq!(out.threads, threads);
            assert_eq!(out.states.len(), threads);
            assert_eq!(out.states.iter().sum::<usize>(), runs.len());
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{threads} threads");
        }
    }

    #[test]
    fn threads_resolve_to_the_units() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = |units, threads| {
            let out = drain(units, threads).run(|| (), |_, _, _| {}).expect("no unit panics");
            (out.requested, out.threads)
        };
        assert_eq!(threads(1000, 0), (cpus, cpus));
        assert_eq!(threads(4, 9), (4, 4));
        assert_eq!(threads(0, 3), (1, 1), "an empty drain still reports one worker");
    }

    #[test]
    fn a_pre_cancelled_token_claims_no_unit() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 7] {
            let claimed = AtomicUsize::new(0);
            let out = Drain { cancel: Some(&token), ..drain(100, threads) }
                .run(
                    || (),
                    |_, _, _| {
                        claimed.fetch_add(1, Ordering::Relaxed);
                    },
                )
                .expect("no unit panics");
            assert_eq!(out.threads, threads);
            assert_eq!(claimed.into_inner(), 0, "{threads} threads");
        }
    }

    #[test]
    fn a_mid_drain_cancel_stops_at_a_unit_boundary() {
        for threads in [1, 7] {
            let token = CancelToken::new();
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            Drain { cancel: Some(&token), ..drain(1000, threads) }
                .run(
                    || (),
                    |_, _, i| {
                        started.fetch_add(1, Ordering::Relaxed);
                        if i == 3 {
                            token.cancel();
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    },
                )
                .expect("no unit panics");
            let done = finished.into_inner();
            assert_eq!(started.into_inner(), done, "every claimed unit ran to its end");
            if threads == 1 {
                assert_eq!(done, 4, "units 0..=3, then the poll before the next claim");
            } else {
                assert!((4..1000).contains(&done), "{done} units at {threads} threads");
            }
        }
    }

    #[test]
    fn a_zero_budget_yields_one_thread_and_charges_are_released() {
        let zero = MemoryBudget::new(0);
        let out = Drain { budget: Some(&zero), worker_bytes: 1, ..drain(100, 7) }
            .run(|| (), |_, _, _| {})
            .expect("no unit panics");
        assert_eq!((out.requested, out.threads), (7, 1));

        // Room for exactly two extra workers, and nothing held afterwards.
        let budget = MemoryBudget::new(2 * 4096);
        let held = AtomicUsize::new(0);
        let out = Drain { budget: Some(&budget), worker_bytes: 4096, ..drain(100, 7) }
            .run(|| (), |_, _, _| held.store(budget.used_bytes(), Ordering::Relaxed))
            .expect("no unit panics");
        assert_eq!(out.threads, 3);
        assert_eq!(held.into_inner(), 2 * 4096, "charged while the workers run");
        assert_eq!(budget.used_bytes(), 0, "every charge released");
    }

    /// Counts the worker states dropped, i.e. the workers that ended.
    struct Ended<'a>(&'a AtomicUsize);

    impl Drop for Ended<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_panicking_unit_is_reported_after_every_worker_is_joined() {
        for threads in [1, 7] {
            let (started, ended) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let out = drain(100, threads).run(
                || {
                    started.fetch_add(1, Ordering::Relaxed);
                    Ended(&ended)
                },
                |_, _, i| assert_ne!(i, 5, "unit 5 fails"),
            );
            let payload = out.err().expect("the panic is reported");
            let message = payload.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("unit 5 fails"), "{message}");
            assert_eq!(started.into_inner(), threads);
            assert_eq!(ended.into_inner(), threads, "{threads} threads: every worker ended");
        }
    }
}
