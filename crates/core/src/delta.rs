//! Semi-naive incremental maintenance of a [`TindIndex`] (live updates).
//!
//! The matrices of [`crate::index`] are built batch-style: every new batch
//! of revisions used to mean a cold rebuild. This module updates an
//! existing index **in place** from a page-granular delta and re-derives
//! only the dependency pairs the delta can have changed — the semi-naive
//! pattern of Datalog evaluation applied to tIND discovery.
//!
//! The delta is folded *into* the matrices — there is no side buffer to
//! consult or compact — so post-update searches run the full four-stage
//! pipeline at full speed and the updated index can be re-persisted.
//!
//! # Why an exact column retarget, not an OR
//!
//! Bloom inserts are monotone, which suggests OR-ing new values into the
//! touched columns. That is sound only while value sets grow, and they do
//! not: a revision may drop values, appending a version truncates the
//! validity of its predecessor, so `A[I^δ]` can *shrink* for a touched
//! attribute, and `R_{ε,w}(A)` can change arbitrarily. A stale extra bit
//! in a slice column hides a genuine violation only until stage 3/4
//! re-checks it (slow, not wrong) — but a stale bit in `M_R` wrongly
//! *keeps* reverse candidates, and a missing recompute wrongly *prunes*
//! forward ones.
//!
//! A column of `M_T`, of a slice matrix or of `M_R` is a pure function of
//! `(config, one attribute's history)`, so one changed history changes one
//! column per matrix. [`TindIndex::apply_delta`] therefore loops over the
//! touched attributes, and for each matrix derives the value set the
//! column was built from — the cached universe, or `values_in_into` /
//! `required_values` of the old history the index still holds, or nothing
//! for an appended attribute — and the set a cold build would use now;
//! [`tind_bloom::BloomMatrix::retarget_column`] flips exactly the rows in
//! which the two filters differ. The cost follows the number of touched
//! attributes, not `|D|`; untouched columns are never read or written.
//!
//! The invariant this leans on: **every column equals the Bloom filter of
//! the set derived from that attribute's history in `index.dataset`**. A
//! build and a store open establish it, `apply_delta` preserves it (the
//! dataset is swapped last, after every column moved), and a debug build
//! asserts it for each flipped bit. Were a column ever off, XOR-ing the
//! filter difference would carry the error forward instead of healing it —
//! which is why the delta oracles re-check byte-identity after *every*
//! step of a schedule, not only at its end.
//!
//! Because column contents are a pure function of `(config, history)` and
//! the forward-default slice selection consumes only the timeline and the
//! seeded RNG (never the data), the incrementally maintained index is
//! **byte-identical** (`persist::encode_index`) to a cold build over the
//! merged dataset. The weighted-random reverse strategy sizes slices from
//! the data, so its intervals may drift from what a cold build would pick;
//! results stay correct for the intervals actually held (every pruning
//! stage reads interval and matrix together), and [`TindIndex::compact`]
//! realigns byte-identity when wanted.
//!
//! # Semi-naive pair maintenance
//!
//! Validation of a pair `(Q, A)` depends only on the two histories, the
//! timeline, and `(ε, δ, w)`. A delta therefore partitions the all-pairs
//! result: pairs with **neither** side touched are still valid verbatim;
//! pairs with a touched side are recomputed — touched queries by a full
//! search, untouched queries by a search whose candidate set is restricted
//! to the touched attributes ([`refresh_pairs`]). Both reuse the standard
//! pipeline, so the refreshed set equals a cold all-pairs run (the
//! CALM-style argument is spelled out in DESIGN.md).
//!
//! The restricted half is `|D|` queries against `T` touched columns, so it
//! is costed in `T`, not `|D|`. Once per refresh the live touched columns
//! of `M_T` are gathered into a `T`-column matrix, rendered from the
//! cached universes — by the invariant above, bit-identical to the columns
//! they stand for. Each untouched query probes that matrix with the values
//! of its heaviest version (all required whenever that version alone
//! outweighs ε), hashing each only while candidates remain, then with its
//! required values; only a query with a touched candidate left widens it
//! to a `|D|`-wide set for stages 2–4. The survivors are exactly the
//! candidates a `|D|`-wide pass over `M_T` would leave, so pairs and
//! [`crate::SearchStats`] are the same; a query the probe empties returns
//! before stage 2 and records no search metrics. Almost none survive
//! ([`RefreshReport::probe_survivors`]), and the rest allocate nothing.

use std::collections::BTreeSet;
use std::panic::resume_unwind;
use std::sync::Arc;

use tind_bloom::{BitVec, BloomFilter, BloomMatrix, BloomMatrixBuilder};
use tind_model::{AttrId, AttributeHistory, Dataset, Timeline, Timestamp, ValueId, ValueSet};

use crate::index::{ColumnContents, TindIndex, ValueBufs};
use crate::par::Drain;
use crate::params::{TindParams, EPS_TOLERANCE};
use crate::required::required_values;
use crate::search::{finish_search, initial_candidates, record_search_metrics, SearchOptions};
use crate::validate::ValidationScratch;

/// Errors from computing or applying a dataset delta.
#[derive(Debug)]
pub enum DeltaError {
    /// The new dataset is not a valid successor of the old one (timeline
    /// change, renamed or dropped attribute id, re-interned dictionary).
    Incompatible(String),
    /// The delta touches an attribute whose index columns were lost with a
    /// quarantined store shard. Applying it would silently diverge the
    /// in-memory index from the store manifest digest; repair first.
    Masked {
        /// The touched attribute.
        attr: AttrId,
        /// Its name (for the operator-facing message).
        name: String,
        /// The quarantined shard holding its columns.
        shard: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Incompatible(msg) => write!(f, "incompatible delta: {msg}"),
            DeltaError::Masked { attr, name, shard } => write!(
                f,
                "delta touches attribute '{name}' (id {attr}) whose index columns live in \
                 quarantined store shard {shard}; run `tind store repair` before applying updates"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

fn incompatible(msg: impl Into<String>) -> DeltaError {
    DeltaError::Incompatible(msg.into())
}

/// A validated transition `old → new` between two dataset snapshots: the
/// merged dataset plus the set of attribute ids whose histories changed
/// (including every appended attribute).
///
/// Construction via [`DatasetDelta::diff`] enforces the successor
/// contract that makes in-place maintenance sound: same timeline, old ids
/// keep their names, and the dictionary only ever extends (Bloom hashes
/// are id-stable, so re-interning would scramble every column).
#[derive(Debug, Clone)]
pub struct DatasetDelta {
    new_dataset: Arc<Dataset>,
    touched: Vec<AttrId>,
    old_len: usize,
}

impl DatasetDelta {
    /// Diffs `new` against `old`, returning the touched-attribute set.
    ///
    /// # Errors
    /// [`DeltaError::Incompatible`] if `new` is not a successor of `old`.
    ///
    /// A successor built from `old` with [`Dataset::into_builder`] shares
    /// every history it did not replace, so an untouched attribute costs
    /// one pointer compare; histories that are not shared (a successor
    /// decoded separately) are compared by name and value, so the result
    /// is exact either way. `new` being the very snapshot `old` refers to
    /// is an empty delta at once.
    pub fn diff(old: &Dataset, new: Arc<Dataset>) -> Result<Self, DeltaError> {
        if std::ptr::eq(old, &*new) {
            return Ok(DatasetDelta { old_len: old.len(), new_dataset: new, touched: Vec::new() });
        }
        if old.timeline() != new.timeline() {
            return Err(incompatible(format!(
                "timeline changed from {} to {} timestamps; deltas may only add revisions \
                 within the indexed timeline",
                old.timeline().len(),
                new.timeline().len()
            )));
        }
        if new.len() < old.len() {
            return Err(incompatible(format!(
                "dataset shrank from {} to {} attributes; attribute ids must stay stable",
                old.len(),
                new.len()
            )));
        }
        let (od, nd) = (old.dictionary(), new.dictionary());
        if nd.len() < od.len() {
            return Err(incompatible(format!(
                "dictionary shrank from {} to {} values; value ids must stay stable",
                od.len(),
                nd.len()
            )));
        }
        if let Some(id) = od.first_divergence(nd) {
            return Err(incompatible(format!(
                "value id {id} changed from '{}' to '{}'; the dictionary may only be \
                 extended, never re-interned",
                od.resolve(id),
                nd.resolve(id)
            )));
        }
        let mut touched = Vec::new();
        for (id, (hist, new_hist)) in (0..).zip(old.attributes().iter().zip(new.attributes())) {
            if Arc::ptr_eq(hist, new_hist) {
                continue; // shared, hence unchanged
            }
            if new_hist.name() != hist.name() {
                return Err(incompatible(format!(
                    "attribute id {id} renamed from '{}' to '{}'; ids must keep their names",
                    hist.name(),
                    new_hist.name()
                )));
            }
            if new_hist != hist {
                touched.push(id);
            }
        }
        touched.extend(old.len() as AttrId..new.len() as AttrId);
        Ok(DatasetDelta { old_len: old.len(), new_dataset: new, touched })
    }

    /// The merged dataset the delta transitions to.
    pub fn new_dataset(&self) -> &Arc<Dataset> {
        &self.new_dataset
    }

    /// Ids of attributes whose histories changed, ascending; appended
    /// attributes are always included.
    pub fn touched(&self) -> &[AttrId] {
        &self.touched
    }

    /// `|D|` of the old snapshot the delta was diffed against.
    pub fn old_len(&self) -> usize {
        self.old_len
    }

    /// Number of appended attributes.
    pub fn new_attrs(&self) -> usize {
        self.new_dataset.len() - self.old_len
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// A lower bound on the first timestamp at which two histories of one
/// attribute disagree: at every earlier `t` both hold the same value set,
/// so an interval ending before it reads the same from either.
fn first_difference(old: &AttributeHistory, new: &AttributeHistory) -> Timestamp {
    let shared = old.versions().iter().zip(new.versions()).take_while(|(o, n)| o == n).count();
    // Past the shared prefix a history either starts its next version or,
    // having none, falls empty after its last observed timestamp.
    let diverges = |h: &AttributeHistory| {
        h.versions().get(shared).map_or(h.last_observed() + 1, |v| v.start)
    };
    diverges(old).min(diverges(new))
}

/// What [`TindIndex::apply_delta`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Attributes whose histories changed (including appended ones).
    pub touched_attrs: usize,
    /// Attributes appended by the delta.
    pub new_attrs: usize,
    /// Distinct 64-column blocks holding a touched column.
    pub blocks_rewritten: usize,
    /// Matrices maintained (`M_T` + slices + `M_R`).
    pub matrices_updated: usize,
    /// Whether the matrices grew new columns.
    pub grew: bool,
}

impl TindIndex {
    /// Folds `delta` into the index in place: the column of every touched
    /// attribute in `M_T`, each slice matrix, and `M_R` (when present) is
    /// retargeted from its old value set to the one a cold build would
    /// use; value universes are replaced; matrices grow columns for
    /// appended attributes. Untouched columns are not read or written.
    ///
    /// Slice intervals are **kept** — see the module docs for when that
    /// preserves byte-identity with a cold rebuild and when
    /// [`TindIndex::compact`] is needed.
    ///
    /// # Errors
    /// * [`DeltaError::Masked`] if a touched attribute's columns belong to
    ///   a quarantined store shard (repair first; updating around the hole
    ///   would diverge from the manifest digest).
    /// * [`DeltaError::Incompatible`] if the delta was diffed against a
    ///   different snapshot than this index holds, or if it would grow a
    ///   degraded index.
    pub fn apply_delta(&mut self, delta: &DatasetDelta) -> Result<DeltaReport, DeltaError> {
        let _span = tind_obs::span("core.delta.apply");
        let old_len = delta.old_len();
        if self.dataset.len() != old_len {
            return Err(incompatible(format!(
                "delta was diffed against a {old_len}-attribute snapshot but the index holds \
                 {} attributes",
                self.dataset.len()
            )));
        }
        if self.dataset.timeline() != delta.new_dataset.timeline() {
            return Err(incompatible("delta timeline differs from the indexed timeline"));
        }
        for &id in delta.touched() {
            if (id as usize) < old_len
                && self.dataset.attribute(id).name() != delta.new_dataset.attribute(id).name()
            {
                return Err(incompatible(format!(
                    "attribute id {id} is '{}' in the index but '{}' in the delta; the delta \
                     was diffed against a different snapshot",
                    self.dataset.attribute(id).name(),
                    delta.new_dataset.attribute(id).name()
                )));
            }
        }
        if let Some(mask) = self.masked.clone() {
            for &id in delta.touched() {
                if (id as usize) < old_len && mask.is_masked(id) {
                    let shard = mask
                        .quarantined()
                        .iter()
                        .find(|s| (s.attr_start..s.attr_end).contains(&id))
                        .map_or(usize::MAX, |s| s.shard);
                    return Err(DeltaError::Masked {
                        attr: id,
                        name: self.dataset.attribute(id).name().to_owned(),
                        shard,
                    });
                }
            }
            if delta.new_attrs() > 0 {
                return Err(incompatible(format!(
                    "refusing to grow a degraded index ({} quarantined shards) by {} \
                     attributes; run `tind store repair` first",
                    mask.quarantined().len(),
                    delta.new_attrs()
                )));
            }
        }

        let new = Arc::clone(delta.new_dataset());
        let new_len = new.len();
        let timeline = new.timeline();
        let grew = new_len > old_len;
        if grew {
            self.m_t.grow_cols(new_len);
            for slice in &mut self.time_slices {
                slice.matrix.grow_cols(new_len);
            }
            if let Some(mr) = self.m_r.as_mut() {
                mr.grow_cols(new_len);
            }
            self.universes.resize(new_len, ValueSet::new());
        }

        let columns = ColumnContents::new(
            &self.config,
            timeline,
            self.time_slices.iter().map(|s| s.expanded).collect(),
            self.m_r.is_some(),
        );
        let (m, k) = (self.config.m, self.config.k_hashes);
        // Moves one column from the value set it was built from to the one
        // a cold build would give it now; an unchanged set costs a compare.
        let retarget = |matrix: &mut BloomMatrix, col: usize, old: &[ValueId], new: &[ValueId]| {
            if old != new {
                matrix.retarget_column(
                    col,
                    &BloomFilter::from_values(old, m, k),
                    &BloomFilter::from_values(new, m, k),
                );
            }
        };

        // One buffer pair renders the old history's columns, one the new's.
        let (mut before, mut after) = (ValueBufs::default(), ValueBufs::default());
        for &id in delta.touched() {
            let col = id as usize;
            // `None` for an appended attribute: its columns are all-zero.
            let old_hist = (col < old_len).then(|| self.dataset.attribute(id));
            let new_hist = new.attribute(id);
            let old_values = |target: usize, bufs: &mut ValueBufs| match old_hist {
                Some(h) => columns.values_into(target, h, bufs),
                None => bufs.0.clear(),
            };

            // M_T's old column is the cached universe (empty when appended).
            columns.values_into(0, new_hist, &mut after);
            retarget(&mut self.m_t, col, &self.universes[col], &after.0);
            self.universes[col].clone_from(&after.0);

            let changed_from = old_hist.map_or(0, |old| first_difference(old, new_hist));
            for (i, slice) in self.time_slices.iter_mut().enumerate() {
                if slice.expanded.end < changed_from {
                    continue; // both histories agree on the whole slice
                }
                old_values(i + 1, &mut before);
                columns.values_into(i + 1, new_hist, &mut after);
                retarget(&mut slice.matrix, col, &before.0, &after.0);
            }

            if let Some(mr) = self.m_r.as_mut() {
                let target = columns.num_targets() - 1;
                old_values(target, &mut before);
                columns.values_into(target, new_hist, &mut after);
                retarget(mr, col, &before.0, &after.0);
            }
        }
        self.dataset = new;

        // `touched` is ascending, so equal blocks are adjacent.
        let mut blocks: Vec<usize> = delta.touched().iter().map(|&id| id as usize / 64).collect();
        blocks.dedup();
        let matrices_updated = 1 + self.time_slices.len() + usize::from(self.m_r.is_some());
        tind_obs::counter("delta.applied").incr();
        tind_obs::counter("delta.touched_attrs").add(delta.touched().len() as u64);
        tind_obs::counter("delta.blocks_rewritten").add(blocks.len() as u64);
        Ok(DeltaReport {
            touched_attrs: delta.touched().len(),
            new_attrs: delta.new_attrs(),
            blocks_rewritten: blocks.len(),
            matrices_updated,
            grew,
        })
    }

    /// Cold-rebuilds the index from its current dataset and configuration
    /// — the compaction step after a run of [`TindIndex::apply_delta`]
    /// calls. Realigns slice intervals with what a from-scratch build
    /// would select (relevant for data-dependent slice strategies) and
    /// drops any shard mask; the result is byte-identical
    /// (`persist::encode_index`) to an independent cold build.
    pub fn compact(&self) -> TindIndex {
        let _span = tind_obs::span("core.delta.compact");
        tind_obs::counter("delta.compactions").incr();
        TindIndex::build(Arc::clone(&self.dataset), self.config.clone())
    }
}

/// What [`refresh_pairs`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Pairs removed because a side was touched (they are re-derived).
    pub pairs_dropped: usize,
    /// Pairs inserted by the re-derivation.
    pub pairs_added: usize,
    /// Touched queries re-searched against the full candidate set.
    pub full_queries: usize,
    /// Untouched queries searched with candidates restricted to the
    /// touched attributes.
    pub restricted_queries: usize,
    /// Restricted queries with a candidate left after the touched-column
    /// probe — the only ones that go on to stages 2–4.
    pub probe_survivors: usize,
    /// Worker threads used.
    pub threads_used: usize,
}

/// The value set of `q`'s heaviest version, when that version's validity
/// alone outweighs ε. Every such value is required (`w_v(Q)` sums
/// non-negative version weights, so it is at least this one), which makes
/// the set a sound stage-1 probe that needs no per-value weight map. `None`
/// when no single version is heavy enough — the caller must then fall back
/// to [`required_values`], never guess.
fn heaviest_version_values<'a>(
    q: &'a AttributeHistory,
    params: &TindParams,
) -> Option<&'a [ValueId]> {
    let weight = |i: usize| params.weights.interval_weight(q.version_validity(i));
    let (heaviest, w) = (0..q.versions().len())
        .map(|i| (i, weight(i)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("histories are non-empty");
    (w > params.eps + EPS_TOLERANCE).then(|| q.versions()[heaviest].values.as_slice())
}

/// The live touched columns of `M_T`, gathered into a `T`-column matrix
/// that the untouched queries of a refresh probe instead of `M_T`: column
/// `j` is attribute `ids[j]`'s.
struct TouchedColumns {
    /// Live touched attributes, ascending.
    ids: Vec<AttrId>,
    matrix: BloomMatrix,
}

impl TouchedColumns {
    /// Renders each column from the cached universe with `M_T`'s `m` and
    /// `k` — by the module invariant, bit-identical to the column of `M_T`
    /// it stands for.
    fn new(index: &TindIndex, ids: Vec<AttrId>) -> Self {
        let m_t = index.m_t();
        let mut builder = BloomMatrixBuilder::new(m_t.m(), ids.len(), m_t.k_hashes());
        for (col, &id) in ids.iter().enumerate() {
            builder.insert_column(col, index.universe(id));
        }
        TouchedColumns { ids, matrix: builder.build() }
    }

    /// Stage 1 of an untouched query against the touched columns only:
    /// `probe` (one bit per column, reset here) ends up holding exactly the
    /// touched candidates a `|D|`-wide pass over `M_T` would leave. Returns
    /// the required values when a candidate survives, `None` when none do.
    fn probe(
        &self,
        q: &AttributeHistory,
        params: &TindParams,
        timeline: Timeline,
        probe: &mut BitVec,
    ) -> Option<ValueSet> {
        probe.set_all();
        // The heaviest version first: it needs no weight map, and almost
        // every untouched query shares nothing with the touched columns.
        if let Some(values) = heaviest_version_values(q, params) {
            self.matrix.narrow_to_supersets_of_values(values, probe);
        }
        if probe.is_zero() {
            return None;
        }
        let required = required_values(q, params, timeline);
        self.matrix.narrow_to_supersets_of_values(&required, probe);
        (!probe.is_zero()).then_some(required)
    }

    /// `probe`'s surviving columns as a `|D|`-wide candidate set.
    fn expand(&self, probe: &BitVec, num_attrs: usize) -> BitVec {
        let mut candidates = BitVec::zeros(num_attrs);
        for col in probe.iter_ones() {
            candidates.set(self.ids[col] as usize);
        }
        candidates
    }
}

/// Stages 2–4 of the standard pipeline for query `q`, from candidates
/// already narrowed by `required`.
fn finish(
    index: &TindIndex,
    q: AttrId,
    params: &TindParams,
    required: &[ValueId],
    candidates: BitVec,
    scratch: &mut ValidationScratch,
) -> Vec<AttrId> {
    let hist = index.dataset().attribute(q);
    let outcome = finish_search(
        index,
        hist,
        Some(q),
        params,
        &SearchOptions::default(),
        required,
        candidates,
        scratch,
        None,
        None,
    );
    record_search_metrics(&outcome.stats);
    outcome.results
}

/// Semi-naive maintenance of an all-pairs result set across a delta.
///
/// `pairs` must hold the valid `(query, candidate)` pairs of the
/// **pre-delta** dataset under the same `params`; `index` must already
/// have the delta applied; `touched` is [`DatasetDelta::touched`]. On
/// return, `pairs` equals what a cold all-pairs discovery over the merged
/// dataset would produce:
///
/// * pairs with neither side touched are kept verbatim (validation is a
///   pure function of the two unchanged histories);
/// * pairs with a touched side are dropped and re-derived — touched
///   queries by a full search, untouched queries by a search restricted to
///   touched candidates (pruning stages only ever *remove* candidates, so
///   restricting the seed set cannot create false positives, and
///   validation is authoritative for everything that survives).
///
/// The queries are drained over `threads` workers, `0` meaning one per
/// available CPU (at most one per query). The result is independent of
/// `threads` (pair-set union is order-insensitive).
pub fn refresh_pairs(
    index: &TindIndex,
    pairs: &mut BTreeSet<(AttrId, AttrId)>,
    touched: &[AttrId],
    params: &TindParams,
    threads: usize,
) -> RefreshReport {
    let _span = tind_obs::span("core.delta.refresh");
    if touched.is_empty() {
        return RefreshReport::default(); // nothing can have changed
    }
    let num_attrs = index.dataset().len();
    let timeline = index.dataset().timeline();
    let mut touched_bits = BitVec::zeros(num_attrs);
    for &id in touched {
        touched_bits.set(id as usize);
    }
    // The candidate seed of every untouched query: touched and not masked.
    let live: Vec<AttrId> = touched_bits
        .iter_ones()
        .map(|id| id as AttrId)
        .filter(|&id| !index.is_masked(id))
        .collect();
    let touched_columns = TouchedColumns::new(index, live);

    let before = pairs.len();
    pairs.retain(|&(q, a)| !touched_bits.get(q as usize) && !touched_bits.get(a as usize));
    let pairs_dropped = before - pairs.len();

    let queries: Vec<AttrId> = (0..num_attrs as AttrId).filter(|&q| !index.is_masked(q)).collect();
    let full_queries = queries.iter().filter(|&&q| touched_bits.get(q as usize)).count();
    let restricted_queries = queries.len() - full_queries;
    // Each worker keeps its own probe bits, survivor count and found pairs.
    struct Worker {
        probe: BitVec,
        survivors: usize,
        found: Vec<(AttrId, AttrId)>,
    }
    let refresh_query = |w: &mut Worker, scratch: &mut ValidationScratch, i: usize| {
        let q = queries[i];
        let hist = index.dataset().attribute(q);
        let found = if touched_bits.get(q as usize) {
            let required = required_values(hist, params, timeline);
            let mut candidates = initial_candidates(index, Some(q));
            if !required.is_empty() {
                let qf = index.m_t().query_filter(&required);
                index.m_t().narrow_to_supersets(&qf, &mut candidates);
            }
            finish(index, q, params, &required, candidates, scratch)
        } else {
            let Some(required) = touched_columns.probe(hist, params, timeline, &mut w.probe) else {
                return;
            };
            w.survivors += 1;
            let candidates = touched_columns.expand(&w.probe, num_attrs);
            finish(index, q, params, &required, candidates, scratch)
        };
        w.found.extend(found.into_iter().map(|a| (q, a)));
    };
    let new_worker = || Worker {
        probe: BitVec::zeros(touched_columns.ids.len()),
        survivors: 0,
        found: Vec::new(),
    };
    let drained =
        Drain { units: queries.len(), threads, budget: None, worker_bytes: 0, cancel: None }
            .run(new_worker, refresh_query)
            .unwrap_or_else(|panic| resume_unwind(panic));

    let mut pairs_added = 0usize;
    let mut probe_survivors = 0usize;
    for worker in drained.states {
        probe_survivors += worker.survivors;
        for pair in worker.found {
            pairs_added += usize::from(pairs.insert(pair));
        }
    }
    tind_obs::counter("delta.pairs_dropped").add(pairs_dropped as u64);
    tind_obs::counter("delta.pairs_added").add(pairs_added as u64);
    tind_obs::counter("delta.refresh_probe_survivors").add(probe_survivors as u64);
    RefreshReport {
        pairs_dropped,
        pairs_added,
        full_queries,
        restricted_queries,
        probe_survivors,
        threads_used: drained.threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allpairs::{discover_all_pairs, AllPairsOptions};
    use crate::index::{IndexConfig, MaskedShard, ShardMask};
    use crate::persist::encode_index;
    use tind_model::binio::{decode_dataset, encode_dataset};
    use tind_model::DatasetBuilder;

    /// Base dataset: 70 attributes (crosses a 64-column block boundary)
    /// over interned ids with overlapping value sets.
    fn base_dataset() -> Dataset {
        base_dataset_of(70)
    }

    /// `n` attributes over values `v0`..`v8`: a first version of up to
    /// five values, then from `10 + i % 7` on a prefix of it.
    fn base_dataset_of(n: u32) -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(40));
        for i in 0..n {
            let vals: Vec<String> = (0..=(i % 5)).map(|v| format!("v{}", (i + v) % 9)).collect();
            let later: Vec<String> = vals.iter().take(1 + (i as usize) % 3).cloned().collect();
            b.add_attribute(
                &format!("attr-{i}"),
                &[(0, vals.clone()), (10 + (i % 7), later)],
                39,
            );
        }
        b.build()
    }

    /// Applies an update to `base`: rewrite some existing histories and
    /// append `appended` new attributes.
    fn updated_dataset(base: &Dataset, rewrite: &[u32], appended: usize) -> Dataset {
        let mut b = base.clone().into_builder();
        let names: Vec<String> =
            rewrite.iter().map(|&id| base.attribute(id).name().to_owned()).collect();
        for name in &names {
            let mut h = tind_model::HistoryBuilder::new(name);
            let v0 = b.dictionary_mut().intern("v1");
            let fresh = b.dictionary_mut().intern("fresh-value");
            h.push(0, vec![v0]);
            h.push(20, vec![v0, fresh]);
            b.upsert_history(h.finish(39));
        }
        for n in 0..appended {
            let mut h = tind_model::HistoryBuilder::new(format!("appended-{n}"));
            let v = b.dictionary_mut().intern("v2");
            h.push(5, vec![v]);
            b.upsert_history(h.finish(39));
        }
        b.build()
    }

    /// `base` with each of `ids` rewritten to one version, valid
    /// throughout, of the three values after `v{id % 9}`: a superset of
    /// some untouched attributes, so untouched queries keep touched
    /// candidates in every column word of the probe, but not of all.
    fn widened_dataset(base: &Dataset, ids: &[u32], appended: usize) -> Dataset {
        let mut b = updated_dataset(base, &[], appended).into_builder();
        for &id in ids {
            let values: Vec<ValueId> = (0..3)
                .map(|k| b.dictionary_mut().intern(&format!("v{}", (id + 1 + k) % 9)))
                .collect();
            let mut h = tind_model::HistoryBuilder::new(base.attribute(id).name());
            h.push(0, values);
            b.upsert_history(h.finish(39));
        }
        b.build()
    }

    fn config() -> IndexConfig {
        IndexConfig { m: 256, ..IndexConfig::default() }
    }

    #[test]
    fn diff_finds_touched_and_appended_attributes() {
        let base = Arc::new(base_dataset());
        let new = Arc::new(updated_dataset(&base, &[3, 65], 2));
        let unshared = (0..base.len())
            .filter(|&i| !Arc::ptr_eq(&base.attributes()[i], &new.attributes()[i]))
            .collect::<Vec<_>>();
        assert_eq!(unshared, [3, 65], "a successor owns only its upserted slots");
        let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("valid successor");
        assert_eq!(delta.touched(), &[3, 65, 70, 71]);
        assert_eq!(delta.new_attrs(), 2);
        assert!(!delta.is_empty());

        let noop = DatasetDelta::diff(&base, Arc::new((*base).clone())).expect("identity");
        assert!(noop.is_empty());
        let idle = DatasetDelta::diff(&base, Arc::clone(&base)).expect("the very snapshot");
        assert!(idle.is_empty());
        assert_eq!(idle.old_len(), base.len());

        // Decoded separately, nothing is shared: equal content still diffs
        // empty, and a change is still found, by comparing values.
        let decode = |d: &Dataset| Arc::new(decode_dataset(&encode_dataset(d)).expect("decodes"));
        let (copy, changed) = (decode(&base), decode(&new));
        assert!(!Arc::ptr_eq(&base.attributes()[0], &copy.attributes()[0]));
        assert!(DatasetDelta::diff(&base, copy).expect("equal content").is_empty());
        let delta = DatasetDelta::diff(&base, changed).expect("valid successor");
        assert_eq!(delta.touched(), &[3, 65, 70, 71]);
    }

    #[test]
    fn diff_rejects_non_successors() {
        let base = base_dataset();
        let other_timeline = DatasetBuilder::new(Timeline::new(10)).build();
        let err = DatasetDelta::diff(&base, Arc::new(other_timeline)).unwrap_err();
        assert!(err.to_string().contains("timeline"), "{err}");

        let mut shrunk = base.clone();
        shrunk.retain(|h| h.name() != "attr-0");
        let err = DatasetDelta::diff(&base, Arc::new(shrunk)).unwrap_err();
        assert!(err.to_string().contains("ids must stay stable"), "{err}");

        // Same histories over a dictionary interned in another order.
        let mut b = DatasetBuilder::new(base.timeline());
        b.dictionary_mut().intern("zzz-first");
        for id in 0..base.dictionary().len() {
            b.dictionary_mut().intern(base.dictionary().resolve(id as ValueId));
        }
        for (_, hist) in base.iter() {
            b.add_history(hist.clone());
        }
        let err = DatasetDelta::diff(&base, Arc::new(b.build())).unwrap_err();
        assert!(err.to_string().contains("value id 0 changed from"), "{err}");

        // A renamed attribute, the rest equal but not shared.
        let mut b = DatasetBuilder::new(base.timeline());
        for id in 0..base.dictionary().len() {
            b.dictionary_mut().intern(base.dictionary().resolve(id as ValueId));
        }
        for (id, hist) in base.iter() {
            let name = if id == 5 { "renamed" } else { hist.name() };
            let mut h = tind_model::HistoryBuilder::new(name);
            for v in hist.versions() {
                h.push(v.start, v.values.clone());
            }
            b.add_history(h.finish(hist.last_observed()));
        }
        let err = DatasetDelta::diff(&base, Arc::new(b.build())).unwrap_err();
        assert!(err.to_string().contains("renamed from 'attr-5' to 'renamed'"), "{err}");
    }

    #[test]
    fn apply_delta_is_byte_identical_to_cold_rebuild() {
        let base = Arc::new(base_dataset());
        // Touch both blocks, grow into the ragged block, and cross it.
        for (rewrite, appended) in
            [(vec![0u32, 5], 0usize), (vec![69], 3), (vec![7, 64], 60), (vec![], 1)]
        {
            let new = Arc::new(updated_dataset(&base, &rewrite, appended));
            let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("valid successor");
            for cfg in [config(), IndexConfig { build_reverse: true, ..config() }] {
                let mut index = TindIndex::build(Arc::clone(&base), cfg.clone());
                let report = index.apply_delta(&delta).expect("delta applies");
                assert_eq!(report.touched_attrs, delta.touched().len());
                assert_eq!(report.grew, appended > 0);
                let cold = TindIndex::build(Arc::clone(&new), cfg);
                assert_eq!(
                    encode_index(&index),
                    encode_index(&cold),
                    "incremental index must equal cold rebuild (rewrite={rewrite:?}, \
                     appended={appended})"
                );
                // compact() of the incrementally maintained index equals
                // the cold build too.
                assert_eq!(encode_index(&index.compact()), encode_index(&cold));
            }
        }
    }

    #[test]
    fn apply_delta_rejects_wrong_snapshot() {
        let base = Arc::new(base_dataset());
        let step1 = Arc::new(updated_dataset(&base, &[1], 1));
        let delta1 = DatasetDelta::diff(&base, Arc::clone(&step1)).expect("diff");
        let mut index = TindIndex::build(Arc::clone(&base), config());
        index.apply_delta(&delta1).expect("first delta applies");
        // Re-applying the same delta: the index now holds 71 attributes.
        let err = index.apply_delta(&delta1).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
    }

    #[test]
    fn apply_delta_refuses_quarantined_attributes() {
        let base = Arc::new(base_dataset());
        let new = Arc::new(updated_dataset(&base, &[65], 0));
        let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("diff");
        let mut index = TindIndex::build(Arc::clone(&base), config());
        index.masked = Some(Arc::new(ShardMask::new(
            base.len(),
            2,
            vec![MaskedShard { shard: 1, attr_start: 64, attr_end: 70 }],
        )));
        let err = index.apply_delta(&delta).unwrap_err();
        match &err {
            DeltaError::Masked { attr, shard, .. } => {
                assert_eq!((*attr, *shard), (65, 1));
            }
            other => panic!("expected Masked, got {other:?}"),
        }
        assert!(err.to_string().contains("tind store repair"), "{err}");

        // Growth while degraded is refused even when no masked attribute
        // is touched.
        let grown = Arc::new(updated_dataset(&base, &[], 2));
        let delta = DatasetDelta::diff(&base, grown).expect("diff");
        let err = index.apply_delta(&delta).unwrap_err();
        assert!(err.to_string().contains("degraded"), "{err}");

        // Deltas touching only live attributes still apply.
        let live = Arc::new(updated_dataset(&base, &[2], 0));
        let delta = DatasetDelta::diff(&base, live).expect("diff");
        index.apply_delta(&delta).expect("live-shard delta applies");
    }

    #[test]
    fn refresh_pairs_matches_cold_all_pairs_at_any_thread_count() {
        let params = TindParams::paper_default();
        let base = Arc::new(base_dataset());
        let base_index = TindIndex::build(Arc::clone(&base), config());
        let cold_pairs = |index: &TindIndex| -> BTreeSet<(AttrId, AttrId)> {
            discover_all_pairs(index, &params, &AllPairsOptions::default())
                .expect("all-pairs discovery")
                .pairs
                .into_iter()
                .collect()
        };
        let mut pairs = cold_pairs(&base_index);

        let new = Arc::new(updated_dataset(&base, &[3, 65, 69], 2));
        let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("diff");
        let mut index = base_index.clone();
        index.apply_delta(&delta).expect("applies");
        let expected = cold_pairs(&index);

        for threads in [1usize, 4] {
            let mut incremental = pairs.clone();
            let report =
                refresh_pairs(&index, &mut incremental, delta.touched(), &params, threads);
            assert_eq!(incremental, expected, "threads={threads}");
            assert_eq!(report.full_queries, delta.touched().len());
        }
        pairs = expected;
        assert!(!pairs.is_empty(), "oracle should not be vacuous");

        // An empty delta changes no pair and does no work.
        let before = pairs.clone();
        assert_eq!(refresh_pairs(&index, &mut pairs, &[], &params, 4), RefreshReport::default());
        assert_eq!(pairs, before);
    }

    #[test]
    fn refresh_pairs_with_zero_threads_uses_every_cpu() {
        let params = TindParams::paper_default();
        let base = Arc::new(base_dataset());
        let new = Arc::new(updated_dataset(&base, &[3, 65], 0));
        let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("diff");
        let mut index = TindIndex::build(base, config());
        index.apply_delta(&delta).expect("applies");
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut pairs = BTreeSet::new();
        let report = refresh_pairs(&index, &mut pairs, delta.touched(), &params, 0);
        assert_eq!(report.threads_used, cpus.min(new.len()));
    }

    /// Cold all-pairs over the live queries of `index` (a masked query is
    /// answered `shard_unavailable`, never refreshed).
    fn live_pairs(index: &TindIndex, params: &TindParams) -> BTreeSet<(AttrId, AttrId)> {
        discover_all_pairs(index, params, &AllPairsOptions::default())
            .expect("all-pairs discovery")
            .pairs
            .into_iter()
            .filter(|&(q, _)| !index.is_masked(q))
            .collect()
    }

    /// 67 touched attributes (the probe spans two words) over 200, none in
    /// `128..192` so that range can be masked as a quarantined shard.
    fn wide_touched() -> Vec<u32> {
        (0..128).step_by(2).chain([193, 195, 197]).collect()
    }

    #[test]
    fn refresh_pairs_matches_cold_all_pairs_across_probe_words_eps_and_masks() {
        let base = Arc::new(base_dataset_of(200));
        let ids = wide_touched();
        // ε = 25 is large enough that no single version outweighs it for
        // some untouched queries, which then probe with their required
        // values alone.
        let wide_eps = TindParams { eps: 25.0, ..TindParams::paper_default() };
        for (params, wide) in [(TindParams::paper_default(), false), (wide_eps, true)] {
            if wide {
                let untouched = (0..200).filter(|q| ids.binary_search(q).is_err());
                let probed: BTreeSet<bool> = untouched
                    .map(|q| heaviest_version_values(base.attribute(q), &params).is_some())
                    .collect();
                assert_eq!(probed.len(), 2, "ε = 25 must split probed and unprobed queries");
            }
            for masked in [false, true] {
                let mut base_index = TindIndex::build(Arc::clone(&base), config());
                if masked {
                    let shard = MaskedShard { shard: 2, attr_start: 128, attr_end: 192 };
                    let mask = ShardMask::new(base.len(), 4, vec![shard]);
                    base_index.masked = Some(Arc::new(mask));
                }
                // A degraded index may not grow.
                let new = Arc::new(widened_dataset(&base, &ids, if masked { 0 } else { 2 }));
                let delta = DatasetDelta::diff(&base, Arc::clone(&new)).expect("diff");
                assert!(delta.touched().len() > 64);
                let pairs = live_pairs(&base_index, &params);
                let mut index = base_index.clone();
                index.apply_delta(&delta).expect("applies");
                let expected = live_pairs(&index, &params);
                let label = format!("eps={} masked={masked}", params.eps);
                for threads in [1usize, 4] {
                    let mut refreshed = pairs.clone();
                    let report =
                        refresh_pairs(&index, &mut refreshed, delta.touched(), &params, threads);
                    assert_eq!(refreshed, expected, "{label} threads={threads}");
                    assert!(report.probe_survivors > 0, "{label}: the probe must keep some");
                    if !wide {
                        assert!(report.probe_survivors < report.restricted_queries, "{label}");
                    }
                }
                let untouched_to_touched = expected.iter().filter(|&&(q, a)| {
                    ids.binary_search(&q).is_err() && a == *ids.last().expect("touched")
                });
                assert!(untouched_to_touched.count() > 0, "{label}: last column unused");
            }
        }
    }

    #[test]
    fn touched_columns_equal_the_columns_of_m_t() {
        let base = Arc::new(base_dataset_of(200));
        // Histories valid unchanged throughout, and ones that change
        // mid-timeline (a column is not any one slice's values).
        for new in [
            widened_dataset(&base, &wide_touched(), 2),
            updated_dataset(&base, &wide_touched(), 2),
        ] {
            let delta = DatasetDelta::diff(&base, Arc::new(new)).expect("diff");
            for cfg in [config(), IndexConfig { build_reverse: true, ..config() }] {
                let mut index = TindIndex::build(Arc::clone(&base), cfg);
                index.apply_delta(&delta).expect("applies");
                let touched = TouchedColumns::new(&index, delta.touched().to_vec());
                assert_eq!(touched.matrix.num_cols(), delta.touched().len());
                for (col, &id) in delta.touched().iter().enumerate() {
                    assert_eq!(
                        touched.matrix.column_filter(col),
                        index.m_t().column_filter(id as usize),
                        "column {col} (attribute {id})"
                    );
                }
            }
        }
    }
}
