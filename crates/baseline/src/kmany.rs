//! k-MANY: the straightforward temporal adaptation of MANY (§5.1).
//!
//! k Bloom matrices are built on randomly chosen snapshot timestamps (each
//! matrix indexes `A[[t-δ, t+δ]]` so that a detected non-containment is
//! genuine evidence under the query's δ). The structural weakness the paper
//! exploits as a baseline: a snapshot can only witness **one timestamp's
//! worth** of violation weight, so under any realistic ε the index almost
//! never prunes outright and must keep per-candidate violation state of
//! size |D| alive for every in-flight query — the memory blow-up of
//! Figure 7. Violation state is charged against a [`MemoryBudget`]; see
//! [`crate::memory`].

use std::sync::Arc;

use tind_model::rng::Rng;
use tind_bloom::{BitVec, BloomMatrix, BloomMatrixBuilder};
use tind_core::search::{SearchOutcome, SearchStats};
use tind_core::validate::with_thread_scratch;
use tind_core::TindParams;
use tind_model::{AttrId, Dataset, Timestamp};

use crate::memory::MemoryBudget;

/// Failure modes of a k-MANY query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KManyError {
    /// The per-query violation state exceeded the memory budget — the
    /// paper-observed OOM from 1.2 M attributes onwards.
    OutOfMemory {
        /// Bytes the query attempted to allocate.
        requested: usize,
        /// The budget's configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for KManyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KManyError::OutOfMemory { requested, limit } => write!(
                f,
                "k-MANY out of memory: violation tracking needs {requested} bytes, budget {limit}"
            ),
        }
    }
}

impl std::error::Error for KManyError {}

/// Bytes of per-candidate violation state a k-MANY query must keep alive.
/// One f64 violation accumulator per attribute (the candidate bitmap is
/// negligible next to it and charged together).
pub const TRACKING_BYTES_PER_CANDIDATE: usize = std::mem::size_of::<f64>();

/// The k-MANY index: k snapshot Bloom matrices.
#[derive(Debug)]
pub struct KManyIndex {
    dataset: Arc<Dataset>,
    max_delta: u32,
    snapshots: Vec<(Timestamp, BloomMatrix)>,
}

impl KManyIndex {
    /// Builds k snapshot matrices at distinct random timestamps.
    pub fn build(
        dataset: Arc<Dataset>,
        k: usize,
        m: u32,
        k_hashes: u32,
        max_delta: u32,
        seed: u64,
    ) -> Self {
        let _span = tind_obs::span("baseline.kmany.build");
        let timeline = dataset.timeline();
        let mut rng = Rng::seed_from_u64(seed);
        let mut all: Vec<Timestamp> = timeline.iter().collect();
        rng.shuffle(&mut all);
        let mut chosen: Vec<Timestamp> = all.into_iter().take(k).collect();
        chosen.sort_unstable();

        let snapshots = chosen
            .into_iter()
            .map(|t| {
                let window = timeline.delta_window(t, max_delta);
                let mut b = BloomMatrixBuilder::new(m, dataset.len(), k_hashes);
                for (id, hist) in dataset.iter() {
                    let values = hist.values_in(window);
                    if !values.is_empty() {
                        b.insert_column(id as usize, &values);
                    }
                }
                (t, b.build())
            })
            .collect();
        KManyIndex { dataset, max_delta, snapshots }
    }

    /// The indexed snapshot timestamps.
    pub fn snapshot_timestamps(&self) -> Vec<Timestamp> {
        self.snapshots.iter().map(|&(t, _)| t).collect()
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// tIND search via snapshot pruning. Semantically equivalent to
    /// [`tind_core::TindIndex::search`] (no false negatives, exact
    /// validation at the end) but with the baseline's weak pruning and
    /// |D|-sized violation tracking.
    pub fn search(
        &self,
        query: AttrId,
        params: &TindParams,
        budget: &MemoryBudget,
    ) -> Result<SearchOutcome, KManyError> {
        let _span = tind_obs::span("baseline.kmany.query");
        let num_attrs = self.dataset.len();
        let tracking_bytes = num_attrs * TRACKING_BYTES_PER_CANDIDATE;
        let _charge = budget.try_charge(tracking_bytes).ok_or(KManyError::OutOfMemory {
            requested: tracking_bytes,
            limit: budget.limit_bytes(),
        })?;

        let q = self.dataset.attribute(query);
        let timeline = self.dataset.timeline();
        let mut stats = SearchStats { initial: num_attrs - 1, ..SearchStats::default() };

        let mut candidates = BitVec::ones(num_attrs);
        candidates.clear(query as usize);
        stats.after_required = stats.initial; // k-MANY has no required-values stage

        // The |D|-sized violation state — k-MANY's defining cost.
        let mut violations = vec![0.0f64; num_attrs];
        let slices_usable = params.delta <= self.max_delta;
        stats.slices_used = slices_usable;
        if slices_usable {
            let mut scratch = BitVec::zeros(num_attrs);
            for (t, matrix) in &self.snapshots {
                let qv = q.values_at(*t);
                if qv.is_empty() {
                    continue;
                }
                scratch.copy_from(&candidates);
                let qf = matrix.query_filter(qv);
                matrix.narrow_to_supersets(&qf, &mut scratch);
                let w = params.weights.weight(*t);
                let mut to_clear = Vec::new();
                for c in candidates.iter_ones() {
                    if scratch.get(c) {
                        continue;
                    }
                    violations[c] += w;
                    if params.exceeds_budget(violations[c]) {
                        to_clear.push(c);
                    }
                }
                for c in to_clear {
                    candidates.clear(c);
                }
            }
        }
        stats.after_slices = candidates.count_ones();
        stats.after_exact = stats.after_slices;

        let mut results = Vec::new();
        with_thread_scratch(|scratch| {
            let plan = scratch.plan(q, params, timeline);
            for c in candidates.iter_ones() {
                stats.validations_run += 1;
                if plan.validate(self.dataset.attribute(c as u32), scratch) {
                    results.push(c as AttrId);
                }
            }
        });
        stats.validated = results.len();
        Ok(SearchOutcome { results, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_core::search::brute_force_search;
    use tind_core::{IndexConfig, TindIndex};
    use tind_model::{DatasetBuilder, Timeline, WeightFn};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(60));
        b.add_attribute("q", &[(0, vec!["a", "b"]), (30, vec!["a", "b", "c"])], 59);
        b.add_attribute("sup", &[(0, vec!["a", "b", "c", "d"])], 59);
        b.add_attribute("late", &[(0, vec!["a", "b"]), (35, vec!["a", "b", "c"])], 59);
        b.add_attribute("no", &[(0, vec!["x"])], 59);
        Arc::new(b.build())
    }

    #[test]
    fn kmany_matches_brute_force() {
        let d = dataset();
        let idx = KManyIndex::build(d.clone(), 8, 512, 2, 7, 42);
        let budget = MemoryBudget::unlimited();
        let core_idx = TindIndex::build(d.clone(), IndexConfig::default());
        for qid in 0..d.len() as AttrId {
            for p in [
                TindParams::strict(),
                TindParams::paper_default(),
                TindParams::weighted(6.0, 2, WeightFn::constant_one()),
            ] {
                let got = idx.search(qid, &p, &budget).expect("within budget").results;
                let expected = brute_force_search(&core_idx, d.attribute(qid), Some(qid), &p);
                assert_eq!(got, expected, "query {qid} {p:?}");
            }
        }
    }

    #[test]
    fn oom_when_budget_too_small() {
        let d = dataset();
        let idx = KManyIndex::build(d.clone(), 4, 256, 2, 7, 1);
        let budget = MemoryBudget::new(TRACKING_BYTES_PER_CANDIDATE * d.len() - 1);
        let err = idx.search(0, &TindParams::paper_default(), &budget).unwrap_err();
        assert!(matches!(err, KManyError::OutOfMemory { .. }));
        assert!(err.to_string().contains("out of memory"));
        // Budget fully released after the failed query.
        assert_eq!(budget.used_bytes(), 0);
    }

    #[test]
    fn snapshots_are_distinct_and_sorted() {
        let d = dataset();
        let idx = KManyIndex::build(d.clone(), 16, 128, 2, 3, 9);
        let ts = idx.snapshot_timestamps();
        assert_eq!(ts.len(), 16);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prunes_little_under_realistic_eps() {
        // The defining weakness: with ε = 3 and k = 8 single-timestamp
        // witnesses, nothing gets pruned outright; almost everything
        // reaches validation.
        let d = dataset();
        let idx = KManyIndex::build(d.clone(), 8, 512, 2, 7, 42);
        let out = idx
            .search(0, &TindParams::paper_default(), &MemoryBudget::unlimited())
            .expect("fits");
        assert!(
            out.stats.validations_run >= d.len() - 2,
            "k-MANY should barely prune: {} validations",
            out.stats.validations_run
        );
    }

    #[test]
    fn query_delta_above_max_skips_snapshots() {
        let d = dataset();
        let idx = KManyIndex::build(d.clone(), 8, 512, 2, 1, 7);
        let p = TindParams::weighted(0.0, 10, WeightFn::constant_one());
        let out = idx.search(0, &p, &MemoryBudget::unlimited()).expect("fits");
        assert!(!out.stats.slices_used);
        let core_idx = TindIndex::build(d.clone(), IndexConfig::default());
        assert_eq!(out.results, brute_force_search(&core_idx, d.attribute(0), Some(0), &p));
    }
}
