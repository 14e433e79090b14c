//! The chained Bloom-matrix index for tIND search (Section 4.2).
//!
//! A [`TindIndex`] bundles:
//!
//! * `M_T` — one Bloom filter per attribute over its **full-history** value
//!   set `A[T]`; queried with the required values `R_{ε,w}(Q)` for the
//!   initial pruning step (§4.2.1). Parameter-free.
//! * `M_{I_1..I_k}` — one Bloom matrix per selected time slice `I_j`, each
//!   column holding `A[I_j^δ]` for the *maximum* δ the index supports
//!   (§4.2.2). Violations detected here are genuine for any query
//!   `δ' ≤ δ`; queries with larger δ' skip the slices (§4.4).
//! * `M_R` (optional) — one Bloom filter per attribute over its required
//!   values under the index-time (ε, w); enables reverse search (§4.5) for
//!   queries with `ε' ≤ ε`.
//!
//! The exact value universes `A[T]` are cached alongside to discard Bloom
//! false positives before full validation (Algorithm 1, line 16).
//!
//! `M_T` and the universes depend only on the dataset, `m` and the hash
//! count — not on the slices or the sizing (ε, w) — so two indexes over one
//! dataset at one Bloom size hold byte-identical copies. They sit behind
//! one [`Arc`]: [`TindIndex::build_beside`] builds an index (the serving
//! engine's reverse one) that borrows them from a sibling instead of
//! rendering its own.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tind_model::rng::Rng;
use tind_bloom::{BitVec, BloomMatrix, BloomMatrixBuilder, BloomTile, TILE_WORDS};
use tind_model::{
    AttrId, AttributeHistory, Dataset, Interval, MemoryBudget, ValueId, ValueSet,
    WeightFn,
};

use crate::par::Drain;
use crate::params::TindParams;
use crate::required::{required_values_into, WeightBufs};
use crate::search::{self, SearchOutcome};
use crate::slices::{select_slices, SliceConfig};
use crate::sync::lock;

/// The Bloom filter size every default index is built at, forward and
/// reverse: the smallest power of two at which `M_T`'s estimated
/// single-value false-positive rate `load^k` stays ≤ 2 % on data shaped
/// like §5.1 (DESIGN.md, "One Bloom size"). A column's load depends on
/// its attribute's value count, not on |D|, so the size is a constant and
/// never computed from the data a build sees: a maintained index and a
/// cold build of the same dataset must stay byte-identical.
pub const DEFAULT_M: u32 = 512;

/// Construction-time configuration of a [`TindIndex`].
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Bloom filter size `m` in bits (matrix rows); [`DEFAULT_M`] unless
    /// set. The paper searches at 4096 and reverse-searches at 512
    /// (§5.4); a file or store opens at the `m` it was written with.
    pub m: u32,
    /// Hash probes per value.
    pub k_hashes: u32,
    /// Time-slice selection; also carries the index-time (ε, w) used for
    /// slice sizing and the maximum supported δ.
    pub slices: SliceConfig,
    /// RNG seed for slice selection (reproducible builds).
    pub seed: u64,
    /// Whether to build `M_R` for reverse tIND search.
    pub build_reverse: bool,
}

impl Default for IndexConfig {
    /// The forward search index: `m =` [`DEFAULT_M`], `k = 16` random
    /// slices, sized for ε = 3 days / constant weights, maximum δ = 7 days
    /// (§5.1, §5.4).
    fn default() -> Self {
        IndexConfig {
            m: DEFAULT_M,
            k_hashes: 2,
            slices: SliceConfig::search_default(3.0, WeightFn::constant_one(), 7),
            seed: 0x7e1d_0001,
            build_reverse: false,
        }
    }
}

impl IndexConfig {
    /// The paper's best settings when the index must serve reverse queries:
    /// `m =` [`DEFAULT_M`], `k = 2` weighted-random slices with disjoint
    /// expansions (§5.1, §5.4), `M_R` enabled.
    pub fn reverse_default() -> Self {
        IndexConfig {
            m: DEFAULT_M,
            k_hashes: 2,
            slices: SliceConfig::reverse_default(3.0, WeightFn::constant_one(), 7),
            seed: 0x7e1d_0002,
            build_reverse: true,
        }
    }

    /// The index searches under `params` run on, forward or `reverse`:
    /// that direction's default, its slices sized for the query's ε and w
    /// and supporting its δ.
    pub fn for_params(params: &TindParams, reverse: bool) -> Self {
        let (eps, weights, delta) = (params.eps, params.weights.clone(), params.delta);
        if reverse {
            IndexConfig {
                slices: SliceConfig::reverse_default(eps, weights, delta),
                ..IndexConfig::reverse_default()
            }
        } else {
            IndexConfig {
                slices: SliceConfig::search_default(eps, weights, delta),
                ..IndexConfig::default()
            }
        }
    }
}

/// Options controlling how [`TindIndex::build_with`] parallelizes
/// construction.
///
/// The determinism contract: the produced index is **bit-identical** to the
/// one-worker [`TindIndex::build`] at any thread count and under any memory
/// budget. Slice selection (the only seeded randomness) runs on the calling
/// thread before workers start, and column hashing is a pure function of
/// `(config, attribute)`, so the tiles can be rendered in any order.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Worker threads; `0` picks the machine's available parallelism.
    pub threads: usize,
    /// Optional memory budget. The first worker always runs (sequential
    /// construction is the floor); each extra worker must afford what it
    /// allocates — its tile's row handles (two words per matrix row) and
    /// the value sets of the column in hand — so a tight budget degrades
    /// the build toward sequential instead of failing.
    pub memory_budget: Option<MemoryBudget>,
    /// Emit a progress line to stderr every this many rendered tiles; `0`
    /// is silent.
    pub progress_every: usize,
}

/// One indexed time slice: the interval, its δ-expansion, and the Bloom
/// matrix over every attribute's values within the expansion.
#[derive(Debug, Clone)]
pub struct TimeSlice {
    /// The slice interval `I_j`.
    pub interval: Interval,
    /// `I_j^δ`, the value window indexed per attribute.
    pub expanded: Interval,
    /// `m × |D|` matrix; column `j` holds `h(A_j[I^δ])`.
    pub matrix: BloomMatrix,
}

/// Structural index diagnostics; see [`TindIndex::diagnostics`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDiagnostics {
    /// Number of indexed attributes.
    pub num_attributes: usize,
    /// Number of time slices.
    pub num_slices: usize,
    /// Bloom filter size in bits.
    pub m: u32,
    /// Fraction of set bits in `M_T` (filter load factor).
    pub m_t_load: f64,
    /// Mean load factor across time-slice matrices.
    pub mean_slice_load: f64,
    /// Fraction of the timeline covered by slice intervals.
    pub slice_coverage: f64,
    /// Total Bloom-matrix bytes.
    pub bloom_bytes: usize,
}

impl std::fmt::Display for IndexDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "attributes:      {}", self.num_attributes)?;
        writeln!(f, "bloom size m:    {} bits", self.m)?;
        writeln!(f, "M_T load:        {:.1}%", self.m_t_load * 100.0)?;
        writeln!(f, "slices:          {}", self.num_slices)?;
        writeln!(f, "mean slice load: {:.1}%", self.mean_slice_load * 100.0)?;
        writeln!(f, "slice coverage:  {:.1}% of timeline", self.slice_coverage * 100.0)?;
        write!(f, "bloom memory:    {:.1} MiB", self.bloom_bytes as f64 / (1024.0 * 1024.0))
    }
}

/// One quarantined shard's footprint in a [`ShardMask`]: the shard id and
/// the attribute range whose index columns it carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedShard {
    /// Shard id within the store generation.
    pub shard: usize,
    /// First attribute covered by the shard.
    pub attr_start: u32,
    /// One past the last attribute covered by the shard.
    pub attr_end: u32,
}

/// Attribute-availability mask carried by an index loaded **degraded** from
/// a sharded store (`core::store`) in which some shards were quarantined.
///
/// A quarantined shard leaves its word columns zeroed in every Bloom matrix
/// and its value universes empty. Zero columns are *not* a safe fallback —
/// an all-zero column looks like "contains nothing" and would be silently
/// pruned from superset candidates — so the mask is consulted by the search
/// layers instead: masked attributes are excluded from candidate sets up
/// front, and a masked *query* attribute is the caller's signal to answer
/// `shard_unavailable` rather than fabricate an empty result.
#[derive(Debug, Clone)]
pub struct ShardMask {
    shards_total: usize,
    quarantined: Vec<MaskedShard>,
    bits: BitVec,
}

impl ShardMask {
    /// Builds a mask over `num_attrs` attributes from the quarantined
    /// shards of a `shards_total`-shard store.
    pub fn new(num_attrs: usize, shards_total: usize, quarantined: Vec<MaskedShard>) -> Self {
        let mut bits = BitVec::zeros(num_attrs);
        for q in &quarantined {
            for attr in q.attr_start..q.attr_end.min(num_attrs as u32) {
                bits.set(attr as usize);
            }
        }
        ShardMask { shards_total, quarantined, bits }
    }

    /// Whether attribute `id`'s index columns are unavailable.
    pub fn is_masked(&self, id: AttrId) -> bool {
        self.bits.get(id as usize)
    }

    /// The quarantined shards, ascending by shard id.
    pub fn quarantined(&self) -> &[MaskedShard] {
        &self.quarantined
    }

    /// Total shards in the store generation the index was loaded from.
    pub fn shards_total(&self) -> usize {
        self.shards_total
    }

    /// Fraction of shards that loaded cleanly, in `[0, 1]`.
    pub fn live_fraction(&self) -> f64 {
        if self.shards_total == 0 {
            return 1.0;
        }
        1.0 - self.quarantined.len() as f64 / self.shards_total as f64
    }

    /// Number of masked attributes.
    pub fn masked_attrs(&self) -> usize {
        self.bits.count_ones()
    }

    /// The raw mask bits (bit `a` set ⇔ attribute `a` unavailable).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

/// `M_T` and the value universes its columns are rendered from: column `j`
/// of `m_t` is the Bloom filter of `universes[j]`.
#[derive(Debug, Clone)]
pub(crate) struct FullHistory {
    pub(crate) m_t: BloomMatrix,
    pub(crate) universes: Vec<ValueSet>,
}

/// The tIND search index over a dataset.
#[derive(Debug)]
pub struct TindIndex {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) config: IndexConfig,
    /// Owned, or borrowed from a sibling index ([`TindIndex::build_beside`]).
    pub(crate) full: Arc<FullHistory>,
    pub(crate) time_slices: Vec<TimeSlice>,
    pub(crate) m_r: Option<BloomMatrix>,
    /// Present iff the index was loaded degraded from a sharded store;
    /// `None` means every attribute is live (the only state non-store
    /// construction paths ever produce).
    pub(crate) masked: Option<Arc<ShardMask>>,
}

impl Clone for TindIndex {
    /// A deep copy: the clone owns its `M_T` and universes even where this
    /// index borrows them, so maintaining the clone never copies them on
    /// write — the copy is paid here, by the caller that asked for it.
    fn clone(&self) -> Self {
        self.with_full(Arc::new((*self.full).clone()))
    }
}

/// The buffers a column's value set is rendered into: the set lands in
/// `.0`, `.1` is the merge's second buffer
/// ([`AttributeHistory::values_in_into`]), and `.2` holds the occurrence
/// weights an `M_R` column is filtered from.
pub(crate) type ValueBufs = (ValueSet, ValueSet, WeightBufs);

/// What column `j` of each index matrix holds — the one definition that
/// build, delta maintenance and store repair all render from. Targets are
/// numbered `M_T` (0), the slices `M_{I_1..I_k}` (`1..=k`), then `M_R`:
///
/// * `M_T`: attribute `j`'s full-history value universe `A_j[T]`;
/// * slice `i`: `A_j[I_i^δ]`, its values within the expanded window;
/// * `M_R`: its required values under the index-time sizing (ε, w).
#[derive(Debug)]
pub(crate) struct ColumnContents {
    /// `I_i^δ` of each slice target.
    expanded: Vec<Interval>,
    /// The sizing parameters `M_R` is rendered with; `None` without `M_R`.
    sizing: Option<TindParams>,
}

impl ColumnContents {
    pub(crate) fn new(config: &IndexConfig, expanded: Vec<Interval>, with_m_r: bool) -> Self {
        let sizing = with_m_r.then(|| {
            TindParams::weighted(config.slices.sizing_eps, 0, config.slices.sizing_weights.clone())
        });
        ColumnContents { expanded, sizing }
    }

    /// `M_T`, the slices, and `M_R` if present.
    pub(crate) fn num_targets(&self) -> usize {
        1 + self.expanded.len() + usize::from(self.sizing.is_some())
    }

    /// Renders the value set `hist`'s column holds in `target` into
    /// `bufs.0`.
    pub(crate) fn values_into(
        &self,
        target: usize,
        hist: &AttributeHistory,
        bufs: &mut ValueBufs,
    ) {
        let (out, spare, weights) = bufs;
        match (target, &self.sizing) {
            (0, _) => hist.values_in_into(hist.observation(), out, spare),
            (t, _) if t <= self.expanded.len() => {
                hist.values_in_into(self.expanded[t - 1], out, spare)
            }
            (_, Some(sizing)) => required_values_into(hist, sizing, out, weights),
            (t, None) => panic!("target {t} is past the slices of an index without M_R"),
        }
    }

    /// Renders `target`'s columns into `tile`: tile column `c` holds
    /// attribute `first_attr + c`. Each column's value set goes to
    /// `keep(c, values)` once inserted.
    pub(crate) fn render_tile(
        &self,
        dataset: &Dataset,
        target: usize,
        first_attr: usize,
        tile: &mut BloomTile<'_>,
        bufs: &mut ValueBufs,
        mut keep: impl FnMut(usize, &[ValueId]),
    ) {
        for col in tile.columns() {
            self.values_into(target, dataset.attribute((first_attr + col) as AttrId), bufs);
            tile.insert_column(col, &bufs.0);
            keep(col, &bufs.0);
        }
    }
}

impl TindIndex {
    /// Builds the index on the calling thread; deterministic given
    /// `config.seed`. The same tile renderer as [`TindIndex::build_with`]
    /// at one worker.
    pub fn build(dataset: Arc<Dataset>, config: IndexConfig) -> Self {
        Self::build_with(dataset, config, &BuildOptions { threads: 1, ..BuildOptions::default() })
    }

    /// Builds the index over a worker pool; output is bit-identical at
    /// every thread count (see [`BuildOptions`] for the contract).
    ///
    /// A work unit is one tile of one target matrix (`M_T`, every
    /// `M_{I_j}`, `M_R`): [`TILE_WORDS`] word columns of every row of the
    /// final matrix, which the worker renders in place. Tiles own disjoint
    /// words, so nothing is merged and no lock is held around the words;
    /// only handing out the next tile takes the target's lock.
    pub fn build_with(dataset: Arc<Dataset>, config: IndexConfig, options: &BuildOptions) -> Self {
        Self::render(dataset, config, options, None)
    }

    /// [`TindIndex::build_with`] for an index that serves beside `sibling`:
    /// when `sibling` indexes the same dataset (the same [`Arc`]) at the
    /// same `m` and hash count and is not degraded, `M_T` and the value
    /// universes are borrowed from it and only the slices and `M_R` are
    /// rendered. Otherwise this is [`TindIndex::build_with`]. Either way
    /// the index answers, and encodes, exactly as its own build would.
    pub fn build_beside(
        dataset: Arc<Dataset>,
        config: IndexConfig,
        options: &BuildOptions,
        sibling: &TindIndex,
    ) -> Self {
        let shared = sibling.lends_full_history(&dataset, &config).then(|| sibling.full.clone());
        Self::render(dataset, config, options, shared)
    }

    /// The one build: renders every target matrix, or every one but `M_T`
    /// when `shared` brings it (with the universes).
    fn render(
        dataset: Arc<Dataset>,
        config: IndexConfig,
        options: &BuildOptions,
        shared: Option<Arc<FullHistory>>,
    ) -> Self {
        let _build_span = tind_obs::span("core.index.build");
        let num_attrs = dataset.len();
        let (intervals, columns) = Self::plan(&dataset, &config);
        let tiles = num_attrs.div_ceil(64).div_ceil(TILE_WORDS);
        // Targets `first..` are rendered here; `M_T` (target 0) is not
        // when it is shared.
        let first = usize::from(shared.is_some());
        let rendered = columns.num_targets() - first;
        let total_units = rendered * tiles;
        let mut builders: Vec<BloomMatrixBuilder> = (0..rendered)
            .map(|_| BloomMatrixBuilder::new(config.m, num_attrs, config.k_hashes))
            .collect();
        let mut universes = vec![ValueSet::new(); if shared.is_some() { 0 } else { num_attrs }];

        // Unit `u` renders the next tile of target `first + u mod
        // rendered`, so units running at once fill different matrices.
        // With the merge-based required values, target-major order (two
        // M_R tiles at once) still summed about a quarter more tile time
        // than this order in a D20k reverse build at two threads; at D10k
        // the two orders were within noise.
        // M_T's columns are the value universes: its tiles also take the
        // same column range of `universes`, under the same lock, so the
        // two always agree.
        let mut universe_ranges = (first == 0).then(|| universes.chunks_mut(64 * TILE_WORDS));
        let sources: Vec<Mutex<_>> =
            builders.iter_mut().map(|b| Mutex::new((b.tiles(), universe_ranges.take()))).collect();
        let finished = AtomicUsize::new(0);
        let tiles_rendered = tind_obs::counter("index.tiles_rendered");
        let render_unit = |bufs: &mut ValueBufs, _: &mut _, unit: usize| {
            let _tile_span = tind_obs::span("core.index.tile");
            let source = unit % rendered;
            let (mut tile, mut kept) = {
                let mut source = lock(&sources[source]);
                let tile = source.0.next().expect("one unit per tile");
                (tile, source.1.as_mut().map(|r| r.next().expect("one range per M_T tile")))
            };
            let lo = tile.columns().start;
            columns.render_tile(&dataset, first + source, 0, &mut tile, bufs, |col, values| {
                if let Some(kept) = kept.as_mut() {
                    kept[col - lo] = values.to_vec();
                }
            });
            tiles_rendered.incr();
            let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
            if options.progress_every > 0 && done.is_multiple_of(options.progress_every) {
                eprintln!("index build: {done}/{total_units} tiles");
            }
        };
        let drained = Drain {
            units: total_units,
            threads: options.threads,
            budget: options.memory_budget.as_ref(),
            // A tile's row handles plus value-set slack.
            worker_bytes: config.m as usize * std::mem::size_of::<&mut [u64]>() + 64 * 1024,
            cancel: None,
        }
        .run(ValueBufs::default, render_unit)
        .unwrap_or_else(|panic| resume_unwind(panic));
        tind_obs::gauge("index.build.workers_requested").set(drained.requested as f64);
        tind_obs::gauge("index.build.workers_granted").set(drained.threads as f64);

        drop(sources);
        let mut matrices = builders.into_iter().map(BloomMatrixBuilder::build);
        let full = shared.unwrap_or_else(|| {
            let m_t = matrices.next().expect("M_T is target 0");
            Arc::new(FullHistory { m_t, universes })
        });
        let time_slices = intervals
            .into_iter()
            .zip(columns.expanded)
            .zip(matrices.by_ref())
            .map(|((interval, expanded), matrix)| TimeSlice { interval, expanded, matrix })
            .collect();
        let m_r = matrices.next();
        TindIndex { dataset, config, full, time_slices, m_r, masked: None }
    }

    /// Whether an index over `dataset` built with `config` may borrow this
    /// index's `M_T` and universes: the same dataset, the same Bloom size
    /// and hash count, and every column live (a degraded index's masked
    /// columns are zeros, not the dataset's values).
    pub(crate) fn lends_full_history(&self, dataset: &Arc<Dataset>, config: &IndexConfig) -> bool {
        Arc::ptr_eq(&self.dataset, dataset)
            && (self.config.m, self.config.k_hashes) == (config.m, config.k_hashes)
            && self.masked.is_none()
    }

    /// Borrows `M_T` and the universes from `sibling` when it may lend
    /// them (see [`TindIndex::build_beside`]), dropping this index's own.
    /// What the index answers and encodes does not change: the borrowed
    /// matrix equals its own.
    pub fn share_full_history(&mut self, sibling: &TindIndex) {
        if sibling.lends_full_history(&self.dataset, &self.config) {
            self.full = sibling.full.clone();
        }
    }

    /// A copy of this index that borrows `sibling`'s `M_T` and universes,
    /// when `sibling` may lend them (see [`TindIndex::build_beside`]);
    /// `None` otherwise. Only the slices and `M_R` are copied, never
    /// `M_T`. The copy answers and encodes as this index does.
    pub fn beside(&self, sibling: &TindIndex) -> Option<TindIndex> {
        sibling
            .lends_full_history(&self.dataset, &self.config)
            .then(|| self.with_full(sibling.full.clone()))
    }

    /// Whether this index and `other` hold one `M_T` (and one set of
    /// universes) between them, which a memory account counts once.
    pub fn shares_full_history(&self, other: &TindIndex) -> bool {
        Arc::ptr_eq(&self.full, &other.full)
    }

    /// A copy of this index that holds `full` as its `M_T` and universes.
    pub(crate) fn with_full(&self, full: Arc<FullHistory>) -> TindIndex {
        TindIndex {
            dataset: self.dataset.clone(),
            config: self.config.clone(),
            full,
            time_slices: self.time_slices.clone(),
            m_r: self.m_r.clone(),
            masked: self.masked.clone(),
        }
    }

    /// Selects the time slices and the column definition over them. Slice
    /// selection consumes the seeded RNG on the calling thread before any
    /// worker exists — the interval sequence, the only randomized part of
    /// construction, cannot depend on thread count.
    fn plan(dataset: &Dataset, config: &IndexConfig) -> (Vec<Interval>, ColumnContents) {
        let _plan_span = tind_obs::span("core.index.plan");
        let mut rng = Rng::seed_from_u64(config.seed);
        let intervals = select_slices(dataset, &config.slices, &mut rng);
        let timeline = dataset.timeline();
        let expanded =
            intervals.iter().map(|i| i.expand(config.slices.max_delta, timeline)).collect();
        let columns = ColumnContents::new(config, expanded, config.build_reverse);
        (intervals, columns)
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The construction configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The full-history matrix `M_T`.
    pub fn m_t(&self) -> &BloomMatrix {
        &self.full.m_t
    }

    /// The required-values matrix `M_R`, if built.
    pub fn m_r(&self) -> Option<&BloomMatrix> {
        self.m_r.as_ref()
    }

    /// The indexed time slices.
    pub fn time_slices(&self) -> &[TimeSlice] {
        &self.time_slices
    }

    /// Cached exact value universe `A[T]` of an attribute.
    pub fn universe(&self, id: AttrId) -> &ValueSet {
        &self.full.universes[id as usize]
    }

    /// The shard-availability mask, present only when the index was loaded
    /// degraded from a sharded store with quarantined shards.
    pub fn shard_mask(&self) -> Option<&ShardMask> {
        self.masked.as_deref()
    }

    /// Whether attribute `id`'s index columns are unavailable (its store
    /// shard was quarantined). Always `false` for indexes not loaded from
    /// a degraded store.
    pub fn is_masked(&self, id: AttrId) -> bool {
        self.masked.as_ref().is_some_and(|m| m.is_masked(id))
    }

    /// The maximum query δ the time slices support.
    pub fn max_delta(&self) -> u32 {
        self.config.slices.max_delta
    }

    /// The ε the index was sized for (also the maximum reverse-query ε).
    pub fn sizing_eps(&self) -> f64 {
        self.config.slices.sizing_eps
    }

    /// Total heap footprint of the Bloom matrices in bytes — the
    /// `(k+1)·|D|·m/8` trade-off of §4.2.2 (plus `M_R` when present).
    pub fn bloom_bytes(&self) -> usize {
        self.matrices().map(BloomMatrix::heap_bytes).sum()
    }

    /// Bloom-matrix bytes borrowed from a store — mmap'd or `pread`
    /// windows, resident or not. [`TindIndex::bloom_bytes`] counts none of
    /// them: it is what this process's heap holds, and `serve` charges it
    /// to its memory budget.
    pub fn bloom_mapped_bytes(&self) -> usize {
        self.matrices().map(BloomMatrix::mapped_bytes).sum()
    }

    /// `M_T`, every slice matrix, then `M_R` when present: the order of a
    /// store shard's sections.
    pub(crate) fn matrices(&self) -> impl Iterator<Item = &BloomMatrix> {
        let slices = self.time_slices.iter().map(|s| &s.matrix);
        std::iter::once(&self.full.m_t).chain(slices).chain(self.m_r.as_ref())
    }

    /// Structural diagnostics: matrix load factors and slice coverage.
    /// Useful for sizing `m` (overloaded filters prune poorly) and judging
    /// slice placement.
    pub fn diagnostics(&self) -> IndexDiagnostics {
        let load = |m: &BloomMatrix| {
            let total_bits = m.m() as usize * m.num_cols();
            if total_bits == 0 {
                return 0.0;
            }
            m.count_ones() as f64 / total_bits as f64
        };
        let timeline = self.dataset.timeline();
        let covered: u32 = self.time_slices.iter().map(|s| s.interval.len()).sum();
        IndexDiagnostics {
            num_attributes: self.dataset.len(),
            num_slices: self.time_slices.len(),
            m: self.config.m,
            m_t_load: load(self.m_t()),
            mean_slice_load: if self.time_slices.is_empty() {
                0.0
            } else {
                self.time_slices.iter().map(|s| load(&s.matrix)).sum::<f64>()
                    / self.time_slices.len() as f64
            },
            slice_coverage: f64::from(covered) / f64::from(timeline.len()),
            bloom_bytes: self.bloom_bytes(),
        }
    }

    /// tIND search (Definition 3.7): all `A ∈ D` with `Q ⊆_{w,ε,δ} A`,
    /// where `Q` is the indexed attribute `query`. The reflexive result is
    /// excluded.
    pub fn search(&self, query: AttrId, params: &TindParams) -> SearchOutcome {
        search::run_search(self, self.dataset.attribute(query), Some(query), params)
    }

    /// tIND search for an external query history. The history must be
    /// interned against this dataset's dictionary.
    pub fn search_history(&self, query: &AttributeHistory, params: &TindParams) -> SearchOutcome {
        search::run_search(self, query, None, params)
    }

    /// tIND search with individual pruning stages toggled — results are
    /// always identical to [`TindIndex::search`]; only runtime differs
    /// (the basis of the ablation benches).
    pub fn search_with_options(
        &self,
        query: AttrId,
        params: &TindParams,
        options: &search::SearchOptions,
    ) -> SearchOutcome {
        search::run_search_with(self, self.dataset.attribute(query), Some(query), params, options)
    }

    /// Batched tIND search: one [`TindIndex::search`]-equivalent outcome
    /// per query. Stage-1 pruning walks each `M_T` row once for the whole
    /// batch in word-blocked strips, and the remaining per-query stages fan
    /// out over a worker pool. Results and stats are identical to calling
    /// [`TindIndex::search`] per query.
    pub fn search_batch(&self, queries: &[AttrId], params: &TindParams) -> Vec<SearchOutcome> {
        self.search_batch_with(queries, params, &search::BatchOptions::default())
            .outcomes
            .into_iter()
            .map(|o| o.expect("no cancellation configured"))
            .collect()
    }

    /// [`TindIndex::search_batch`] with explicit thread, cancellation, and
    /// memory-budget control.
    pub fn search_batch_with(
        &self,
        queries: &[AttrId],
        params: &TindParams,
        options: &search::BatchOptions,
    ) -> search::BatchOutcome {
        search::run_search_batch(self, queries, params, options)
    }

    /// Reverse tIND search (Definition 3.8): all `A ∈ D` with
    /// `A ⊆_{w,ε,δ} Q` (§4.5). The reflexive result is excluded.
    pub fn reverse_search(&self, query: AttrId, params: &TindParams) -> SearchOutcome {
        crate::reverse::run_reverse(self, self.dataset.attribute(query), Some(query), params)
    }

    /// Reverse tIND search for an external query history.
    pub fn reverse_search_history(
        &self,
        query: &AttributeHistory,
        params: &TindParams,
    ) -> SearchOutcome {
        crate::reverse::run_reverse(self, query, None, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::required::required_values;
    use tind_model::{DatasetBuilder, Timeline, ValueId};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(60));
        b.add_attribute("sub", &[(0, vec!["a", "b"])], 59);
        b.add_attribute("super", &[(0, vec!["a", "b", "c"])], 59);
        b.add_attribute("other", &[(0, vec!["x", "y"])], 59);
        Arc::new(b.build())
    }

    #[test]
    fn build_produces_expected_shapes() {
        let d = dataset();
        let cfg = IndexConfig { m: 256, ..IndexConfig::default() };
        let idx = TindIndex::build(d.clone(), cfg);
        assert_eq!(idx.m_t().num_cols(), 3);
        assert_eq!(idx.m_t().m(), 256);
        assert!(idx.m_r().is_none());
        assert!(!idx.time_slices().is_empty());
        assert!(idx.time_slices().len() <= 16);
        assert_eq!(idx.universe(1), &vec![
            d.dictionary().get("a").unwrap(),
            d.dictionary().get("b").unwrap(),
            d.dictionary().get("c").unwrap()
        ]);
        assert!(idx.bloom_bytes() > 0);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let d = dataset();
        let idx1 = TindIndex::build(d.clone(), IndexConfig::default());
        let idx2 = TindIndex::build(d.clone(), IndexConfig::default());
        let i1: Vec<Interval> = idx1.time_slices().iter().map(|s| s.interval).collect();
        let i2: Vec<Interval> = idx2.time_slices().iter().map(|s| s.interval).collect();
        assert_eq!(i1, i2);
    }

    #[test]
    fn slices_are_expanded_by_max_delta() {
        let d = dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig::default());
        let tl = d.timeline();
        for s in idx.time_slices() {
            assert_eq!(s.expanded, s.interval.expand(idx.max_delta(), tl));
        }
    }

    #[test]
    fn diagnostics_are_sane() {
        let d = dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig { m: 256, ..IndexConfig::default() });
        let diag = idx.diagnostics();
        assert_eq!(diag.num_attributes, 3);
        assert_eq!(diag.m, 256);
        assert!(diag.m_t_load > 0.0 && diag.m_t_load < 0.5, "load {}", diag.m_t_load);
        assert!(diag.slice_coverage > 0.0 && diag.slice_coverage <= 1.0);
        assert_eq!(diag.bloom_bytes, idx.bloom_bytes());
        let rendered = diag.to_string();
        assert!(rendered.contains("M_T load"));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        let d = dataset();
        for cfg in
            [IndexConfig { m: 256, ..IndexConfig::default() }, IndexConfig::reverse_default()]
        {
            let baseline = crate::persist::encode_index(&TindIndex::build(d.clone(), cfg.clone()));
            for threads in [1, 2, 7] {
                let opts = BuildOptions { threads, ..BuildOptions::default() };
                let par = TindIndex::build_with(d.clone(), cfg.clone(), &opts);
                assert!(
                    baseline == crate::persist::encode_index(&par),
                    "threads {threads} diverged from the sequential build"
                );
            }
        }
    }

    #[test]
    fn zero_memory_budget_build_is_still_identical() {
        let d = dataset();
        let cfg = IndexConfig { m: 256, ..IndexConfig::default() };
        let baseline = crate::persist::encode_index(&TindIndex::build(d.clone(), cfg.clone()));
        let opts = BuildOptions {
            threads: 8,
            memory_budget: Some(MemoryBudget::new(0)),
            ..BuildOptions::default()
        };
        let par = TindIndex::build_with(d.clone(), cfg, &opts);
        assert!(baseline == crate::persist::encode_index(&par));
    }

    #[test]
    fn every_column_holds_its_paper_value_set() {
        // Column j of M_T is A_j[T], of slice i is A_j[I_i^δ], and of M_R
        // is R_{ε,w}(A_j) under the index's sizing (ε, w) — computed here
        // straight from those definitions, not through `ColumnContents`.
        // "late" is valid for exactly 4 days: required at ε = 3, not at 4.
        let mut b = DatasetBuilder::new(Timeline::new(60));
        b.add_attribute("sub", &[(0, vec!["a", "b"])], 59);
        b.add_attribute("late", &[(0, vec!["a", "b"]), (56, vec!["a", "c"])], 59);
        b.add_attribute("moving", &[(0, vec!["x"]), (20, vec!["y"]), (41, vec!["z"])], 59);
        let d = Arc::new(b.build());
        let tl = d.timeline();
        let cfg = IndexConfig::reverse_default();
        let sizing =
            TindParams::weighted(cfg.slices.sizing_eps, 0, cfg.slices.sizing_weights.clone());
        let c = d.dictionary().get("c").unwrap();
        assert!(required_values(d.attribute(1), &sizing, tl).contains(&c));
        let opts = BuildOptions { threads: 2, ..BuildOptions::default() };
        let parallel = TindIndex::build_with(d.clone(), cfg.clone(), &opts);
        for idx in [TindIndex::build(d.clone(), cfg.clone()), parallel] {
            let m_r = idx.m_r().expect("reverse config builds M_R");
            for (id, hist) in d.iter() {
                let col = id as usize;
                let filter = |values: &[ValueId]| idx.m_t().query_filter(values);
                assert_eq!(idx.m_t().column_filter(col), filter(&hist.value_universe()));
                for s in idx.time_slices() {
                    let window = s.interval.expand(cfg.slices.max_delta, tl);
                    assert_eq!(s.matrix.column_filter(col), filter(&hist.values_in(window)));
                }
                let required = required_values(hist, &sizing, tl);
                assert_eq!(m_r.column_filter(col), filter(&required), "M_R column {col}");
            }
        }
    }

    #[test]
    fn reverse_config_builds_m_r() {
        let d = dataset();
        let idx = TindIndex::build(d.clone(), IndexConfig::reverse_default());
        assert!(idx.m_r().is_some());
        assert_eq!(idx.m_r().unwrap().m(), 512);
    }
}
