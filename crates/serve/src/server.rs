//! The serve pipeline: acceptor → reader pool → admission queue →
//! worker pool, with a drain watchdog alongside.
//!
//! ```text
//!   accept loop ──► conns queue ──► readers (parse + route)
//!   (blocks in        (bounded)       │  healthz/metrics answered inline
//!    `accept`)                        ▼
//!                                  jobs queue ──► workers (coalesce +
//!                                    (bounded)     execute + respond)
//! ```
//!
//! Nothing on the request path waits on a timer: the accept loop sleeps
//! in the kernel until a connection exists, and a drain wakes it with one
//! loopback connection to its own listener (see the shutdown bullet).
//!
//! Every stage is fault-contained:
//!
//! * both queues are bounded; a full queue turns into an immediate typed
//!   429 with a depth-derived `retry_after_ms` (load shedding, not
//!   buffering until collapse);
//! * each admitted request gets a [`CancelToken`] carrying its deadline;
//!   expiry inside the engine latches `Deadline` and surfaces as a typed
//!   504 — a client never waits on a socket longer than its deadline
//!   plus one write;
//! * workers run requests under `catch_unwind`: a panicking query is
//!   quarantined into a typed 500 and the worker thread survives;
//! * a [`MemoryBudget`] degrades service smoothly — coalescing shrinks
//!   first, then whole requests shed with a typed 503;
//! * compatible concurrent searches coalesce into one `search_batch`
//!   wave (identical per-query results — batch equivalence is pinned by
//!   core tests), so a burst is served at batch throughput;
//! * the acceptor **blocks** in `accept` — a connection is picked up
//!   when the kernel has it, with no poll interval on the request path;
//! * shutdown (SIGINT/SIGTERM → the shutdown token) drains: the state
//!   flips to draining and [`Server::run`] makes one loopback connection
//!   to its own listener, which is what returns the acceptor from
//!   `accept`. The acceptor hands whatever it got to the readers and
//!   stops (a client that raced the wake gets the typed `draining` 503,
//!   the wake socket reads as closed-before-request and is dropped
//!   uncounted); queued requests finish or are deadline-cancelled, and
//!   past `drain_grace` the watchdog force-cancels in-flight waves with
//!   reason `Drain` and sheds the rest.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use tind_core::{
    open_store_with, pack_store, verify_store, BatchOptions, BuildOptions, CancelReason,
    CancelToken, DatasetDelta, DeltaReport, IndexConfig, LoadReport, OpenOptions, PackOptions,
    PlanArtifacts, PlanSource, SearchOutcome, ShardMask, StoreBacking,
    TindIndex, TindParams,
};
use tind_model::hash::FastMap;
use tind_model::{AttrId, Charge, Dataset, MemoryBudget, Timeline, WeightFn};
use tind_obs::{trace, TraceContext, Value};

use crate::admission::Admission;
use crate::error::{reason_phrase, ServeError};
use crate::http::{self, HttpError, HttpLimits};
use crate::router::{self, ApiCall, ExplainSpec, QuerySpec, TraceFormat, TraceSpec};

/// Test-only fault injection: invoked with each call right before it
/// executes on a worker (inside the panic quarantine, so a panicking
/// hook exercises containment end to end).
pub type ServeFaultHook = Arc<dyn Fn(&ApiCall) + Send + Sync>;

/// Invoked once with a shared handle to the engine right after the
/// loader completes — the handle is how embedders drive live-update
/// APIs ([`Engine::apply_delta`]) against a running server.
pub type EngineHook = Arc<dyn Fn(Arc<Engine>) + Send + Sync>;

/// Results rendered per response when the request doesn't say.
const DEFAULT_LIMIT: usize = 20;

/// Tuning and robustness knobs for [`Server`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Executor threads; `0` picks `min(available_parallelism, 8)`.
    pub workers: usize,
    /// Parse/route threads; `0` picks 2.
    pub readers: usize,
    /// Accepted-connection queue bound.
    pub conn_capacity: usize,
    /// Parsed-request admission queue bound.
    pub queue_capacity: usize,
    /// Deadline for requests that don't send `timeout_ms`.
    pub default_deadline: Duration,
    /// Hard cap on client-requested deadlines.
    pub max_deadline: Duration,
    /// Budget for receiving one complete request (slow-loris bound).
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Request head cap in bytes.
    pub max_header_bytes: usize,
    /// Declared-body cap in bytes.
    pub max_body_bytes: usize,
    /// Max compatible searches coalesced into one batch wave.
    pub coalesce: usize,
    /// Optional memory accountant: coalescing shrinks, then requests
    /// shed, when charges stop fitting.
    pub memory_budget: Option<MemoryBudget>,
    /// How long a drain may run before in-flight work is force-cancelled
    /// with reason `Drain`.
    pub drain_grace: Duration,
    /// Unit for `retry_after_ms` hints: `retry_unit × (depth + 1)`.
    pub retry_unit: Duration,
    /// How often a **degraded** engine re-verifies its store, looking to
    /// promote back to `serving` once the quarantined shards are repaired.
    pub reverify_interval: Duration,
    /// Result-cache capacity in entries; `0` (the default) disables
    /// caching. Entries are keyed by direction, resolved parameters, and
    /// query attribute; [`Engine::apply_delta`] invalidates exactly the
    /// entries the delta affected.
    pub cache: usize,
    /// Plan-cache capacity in entries; `0` (the default) disables it.
    /// Entries are keyed by query attribute and resolved (ε, δ, w), hold
    /// the query's reusable [`PlanArtifacts`], and are evicted LRU. The
    /// same delta-invalidation hook that scrubs the result cache scrubs
    /// plans whose query a delta touched.
    pub plan_cache: usize,
    /// How store shards are backed when the engine loads from a store:
    /// `Mmap` (the default) borrows them zero-copy; `Windowed` serves
    /// beyond-RAM indices through budget-charged pread windows.
    pub store_backing: StoreBacking,
    /// Tail-sample capacity for `GET /debug/trace`: the K slowest and the
    /// K most recent completed request traces are retained (`0` disables
    /// retention; `X-Tind-Trace: 1` force-samples regardless and returns
    /// the trace id, but the trace is only fetchable while retained).
    pub trace_last: usize,
    /// Period between metrics-history snapshots (`GET /metrics/history`);
    /// zero disables ticking.
    pub metrics_tick: Duration,
    /// Test-only fault injection hook.
    pub fault_hook: Option<ServeFaultHook>,
    /// Handed a shared engine handle once loading completes (live
    /// updates; see [`EngineHook`]).
    pub engine_hook: Option<EngineHook>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            readers: 0,
            conn_capacity: 128,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            coalesce: 16,
            memory_budget: None,
            drain_grace: Duration::from_secs(5),
            retry_unit: Duration::from_millis(25),
            reverify_interval: Duration::from_millis(500),
            cache: 0,
            plan_cache: 0,
            store_backing: StoreBacking::default(),
            trace_last: 4,
            metrics_tick: Duration::from_secs(1),
            fault_hook: None,
            engine_hook: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers", &self.workers)
            .field("readers", &self.readers)
            .field("conn_capacity", &self.conn_capacity)
            .field("queue_capacity", &self.queue_capacity)
            .field("default_deadline", &self.default_deadline)
            .field("max_deadline", &self.max_deadline)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("max_header_bytes", &self.max_header_bytes)
            .field("max_body_bytes", &self.max_body_bytes)
            .field("coalesce", &self.coalesce)
            .field("memory_budget", &self.memory_budget)
            .field("drain_grace", &self.drain_grace)
            .field("retry_unit", &self.retry_unit)
            .field("reverify_interval", &self.reverify_interval)
            .field("cache", &self.cache)
            .field("plan_cache", &self.plan_cache)
            .field("store_backing", &self.store_backing)
            .field("trace_last", &self.trace_last)
            .field("metrics_tick", &self.metrics_tick)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("engine_hook", &self.engine_hook.is_some())
            .finish()
    }
}

/// The live query state: the dataset and both index directions always
/// swap together, so a wave pinning one snapshot never resolves names
/// against a dataset newer (or older) than the index it searches.
///
/// The reverse index borrows the forward one's `M_T` and value universes
/// ([`TindIndex::build_beside`]) whenever the two are sized alike and the
/// forward index is not degraded: reverse search reads neither, and one
/// copy is all forward search needs.
#[derive(Clone)]
struct HotState {
    dataset: Arc<Dataset>,
    forward: Arc<TindIndex>,
    reverse: Arc<TindIndex>,
}

/// Heap bytes of both index directions' matrices, with an `M_T` the two
/// share counted once.
fn index_bytes(forward: &TindIndex, reverse: &TindIndex) -> usize {
    let shared = if reverse.shares_full_history(forward) { forward.m_t().heap_bytes() } else { 0 };
    forward.bloom_bytes() + reverse.bloom_bytes() - shared
}

/// The hot query state: one dataset, both index directions, and the
/// default parameters the indices were sized for.
///
/// The configs mirror the one-shot CLI exactly (`tind search` /
/// `tind reverse-search` with the same ε/δ/decay), which is what makes
/// serve responses differentially comparable to one-shot runs.
///
/// The state lives behind one lock because it swaps as a unit: a
/// degraded engine promotes a clean forward index once its store is
/// repaired, and [`Engine::apply_delta`] folds a dataset delta into both
/// directions without a cold rebuild. Readers clone the `Arc`s, so a
/// swap never stalls an in-flight wave.
pub struct Engine {
    state: RwLock<HotState>,
    /// Present iff `forward` was loaded from a sharded store; enables
    /// [`Engine::try_promote`] and the store flip in
    /// [`Engine::apply_delta`].
    store_dir: Option<PathBuf>,
    /// Shard count the store was packed with, preserved across flips.
    store_shards: usize,
    /// Backing/budget the store was opened with, reused verbatim when
    /// [`Engine::try_promote`] or [`Engine::apply_delta`] reopens it.
    open_options: OpenOptions,
    default_eps: f64,
    default_delta: u32,
    default_decay: Option<f64>,
    cache: ResultCache,
    plans: Arc<PlanCache>,
    /// Accountant the engine charges its resident index bytes to, plus
    /// the RAII charges currently held. During a delta swap only the
    /// *increment* over the old generation is charged while the two
    /// generations briefly coexist — the overlap is counted once, never
    /// twice (pinned by `delta_swap_never_double_counts_index_bytes`).
    budget: Option<MemoryBudget>,
    index_charge: Mutex<IndexCharge>,
}

/// The engine's held index-byte charges and the byte total they aim for
/// (the two differ only after an overcommit, when the budget could not
/// cover the target and the engine proceeds partially uncharged).
#[derive(Default)]
struct IndexCharge {
    charges: Vec<Charge>,
    bytes: usize,
}

impl Engine {
    /// Builds both directions' indices for `dataset`, sized for the
    /// given default parameters; the reverse one borrows the forward one's
    /// `M_T`. `build_threads: 0` uses every core.
    pub fn build(
        dataset: Arc<Dataset>,
        eps: f64,
        delta: u32,
        decay: Option<f64>,
        build_threads: usize,
    ) -> Engine {
        let params = params_of(eps, delta, decay, dataset.timeline());
        let options = BuildOptions { threads: build_threads, ..BuildOptions::default() };
        let forward_config = IndexConfig::for_params(&params, false);
        let forward = TindIndex::build_with(dataset.clone(), forward_config, &options);
        let reverse_config = IndexConfig::for_params(&params, true);
        let reverse = TindIndex::build_beside(dataset.clone(), reverse_config, &options, &forward);
        Engine {
            state: RwLock::new(HotState {
                dataset,
                forward: Arc::new(forward),
                reverse: Arc::new(reverse),
            }),
            store_dir: None,
            store_shards: 0,
            open_options: OpenOptions::default(),
            default_eps: eps,
            default_delta: delta,
            default_decay: decay,
            cache: ResultCache::new(0),
            plans: Arc::new(PlanCache::new(0)),
            budget: None,
            index_charge: Mutex::new(IndexCharge::default()),
        }
    }

    /// Enables the result cache with room for `capacity` outcomes
    /// (`0` keeps it disabled). Entries are invalidated delta-aware by
    /// [`Engine::apply_delta`] and cleared on store promotion.
    #[must_use]
    pub fn with_cache(mut self, capacity: usize) -> Engine {
        self.cache = ResultCache::new(capacity);
        self
    }

    /// Enables the plan cache with room for `capacity` entries (`0`
    /// keeps it disabled). Entries are evicted LRU, invalidated
    /// delta-aware by [`Engine::apply_delta`], and cleared on store
    /// promotion.
    #[must_use]
    pub fn with_plan_cache(mut self, capacity: usize) -> Engine {
        self.plans = Arc::new(PlanCache::new(capacity));
        self
    }

    /// Charges the engine's resident index bytes (both directions, a
    /// shared `M_T` once) against `budget` and keeps the accountant for
    /// delta swaps, which then charge only the increment over the old
    /// generation. A budget too small for the index logs an overcommit
    /// and serves uncharged rather than refusing to start.
    #[must_use]
    pub fn with_memory_accounting(self, budget: Option<MemoryBudget>) -> Engine {
        let mut engine = self;
        engine.budget = budget;
        if let Some(b) = &engine.budget {
            let snap = engine.snapshot();
            let bytes = index_bytes(&snap.forward, &snap.reverse);
            let mut held = lock(&engine.index_charge);
            held.bytes = bytes;
            match b.try_charge(bytes) {
                Some(c) => held.charges.push(c),
                None => tind_obs::counter("serve.index_overcommits").incr(),
            }
        }
        engine
    }

    /// Loads the forward index from the sharded store at `dir` — accepting
    /// a **degraded** load with quarantined shards — and builds the
    /// reverse index in memory beside it (borrowing the store's `M_T`
    /// unless the load is degraded). The returned [`LoadReport`] says
    /// whether the engine starts degraded; the server then re-verifies the
    /// store periodically and promotes itself once repaired.
    pub fn from_store(
        dir: &Path,
        dataset: Arc<Dataset>,
        eps: f64,
        delta: u32,
        decay: Option<f64>,
        build_threads: usize,
    ) -> Result<(Engine, LoadReport), String> {
        Self::from_store_with(dir, dataset, eps, delta, decay, build_threads, &OpenOptions::default())
    }

    /// [`Engine::from_store`] with explicit [`OpenOptions`]: choose the
    /// shard backing (zero-copy mmap or budget-charged pread windows) and
    /// the budget windowed sections are charged to. The options are
    /// remembered — [`Engine::try_promote`] and [`Engine::apply_delta`]
    /// reopen the store with the same backing.
    #[allow(clippy::too_many_arguments)]
    pub fn from_store_with(
        dir: &Path,
        dataset: Arc<Dataset>,
        eps: f64,
        delta: u32,
        decay: Option<f64>,
        build_threads: usize,
        open: &OpenOptions,
    ) -> Result<(Engine, LoadReport), String> {
        let (forward, report) = open_store_with(dir, dataset.clone(), open)
            .map_err(|e| format!("store at {}: {e}", dir.display()))?;
        let params = params_of(eps, delta, decay, dataset.timeline());
        let options = BuildOptions { threads: build_threads, ..BuildOptions::default() };
        let reverse_config = IndexConfig::for_params(&params, true);
        let reverse = TindIndex::build_beside(dataset.clone(), reverse_config, &options, &forward);
        let engine = Engine {
            state: RwLock::new(HotState {
                dataset,
                forward: Arc::new(forward),
                reverse: Arc::new(reverse),
            }),
            store_dir: Some(dir.to_path_buf()),
            store_shards: report.shards_total,
            open_options: open.clone(),
            default_eps: eps,
            default_delta: delta,
            default_decay: decay,
            cache: ResultCache::new(0),
            plans: Arc::new(PlanCache::new(0)),
            budget: None,
            index_charge: Mutex::new(IndexCharge::default()),
        };
        Ok((engine, report))
    }

    /// One coherent snapshot of the live state.
    fn snapshot(&self) -> HotState {
        lock_read(&self.state).clone()
    }

    /// The dataset this engine currently serves (a cheap `Arc` clone;
    /// [`Engine::apply_delta`] may swap the underlying dataset, but a
    /// held clone stays consistent for the wave using it).
    pub fn dataset(&self) -> Arc<Dataset> {
        lock_read(&self.state).dataset.clone()
    }

    /// The forward-direction index (a cheap `Arc` clone; promotion or a
    /// delta may swap the underlying index, but a held clone stays
    /// consistent for the wave using it).
    pub fn forward(&self) -> Arc<TindIndex> {
        lock_read(&self.state).forward.clone()
    }

    /// The reverse-direction index.
    pub fn reverse(&self) -> Arc<TindIndex> {
        lock_read(&self.state).reverse.clone()
    }

    /// Whether the forward index currently has quarantined shards.
    pub fn is_degraded(&self) -> bool {
        self.forward().shard_mask().is_some()
    }

    /// `(live shard fraction, quarantined shard ids)` while degraded.
    pub fn degraded_status(&self) -> Option<(f64, Vec<usize>)> {
        let forward = self.forward();
        let mask = forward.shard_mask()?;
        Some((
            mask.live_fraction(),
            mask.quarantined().iter().map(|q| q.shard).collect(),
        ))
    }

    /// Re-opens the store and swaps in the freshly loaded forward index if
    /// — and only if — every shard now verifies. Returns `true` on
    /// promotion. A no-op for engines not loaded from a store or already
    /// clean.
    pub fn try_promote(&self) -> bool {
        let Some(dir) = &self.store_dir else { return false };
        if !self.is_degraded() {
            return false;
        }
        // Probe with the read-only verifier first: `open_store` runs the
        // recovery sweep, and sweeping every poll tick would race an
        // out-of-band `tind store repair` — deleting its in-flight temp
        // file out from under the rename. Only a store that already
        // verifies clean is worth (and safe for) a full reopen.
        match verify_store(dir) {
            Ok(report) if report.faults.is_empty() => {}
            _ => return false,
        }
        match open_store_with(dir, self.dataset(), &self.open_options) {
            Ok((index, report)) if report.is_clean() => {
                // A reverse index built beside the degraded forward one
                // rendered its own `M_T`; a copy of its slices and `M_R`
                // borrows the clean one now, and its own `M_T` is dropped
                // uncopied. If the clean index cannot lend, it stays as is.
                let reverse = self.reverse();
                let reverse = reverse.beside(&index).map_or(reverse, Arc::new);
                {
                    let mut state = lock_write(&self.state);
                    state.forward = Arc::new(index);
                    state.reverse = reverse;
                }
                // Results cached while degraded would be wrong anyway
                // (the cache is bypassed then), but entries filled before
                // the store went bad may describe a different generation.
                self.cache.clear();
                self.plans.clear();
                // Resident bytes can change shape across the swap (a
                // quarantined shard's zero-fill gives way to real words,
                // or the backing changes residency) — resettle the charge
                // at the fresh index's footprint.
                self.settle_index_charge();
                true
            }
            _ => false,
        }
    }

    /// Re-points the engine's held index charge at the *current*
    /// snapshot's resident bytes: drops the old charges, then charges the
    /// new total. Overcommits (budget too small, or a racing request
    /// claimed the freed bytes first) are logged and served uncharged.
    fn settle_index_charge(&self) {
        let Some(budget) = &self.budget else { return };
        let snap = self.snapshot();
        let bytes = index_bytes(&snap.forward, &snap.reverse);
        let mut held = lock(&self.index_charge);
        held.charges.clear();
        held.bytes = bytes;
        match budget.try_charge(bytes) {
            Some(c) => held.charges.push(c),
            None => tind_obs::counter("serve.index_overcommits").incr(),
        }
    }

    /// Folds a page-granular dataset delta into the live engine without
    /// a cold rebuild: both index directions are updated semi-naively
    /// via [`tind_core::DatasetDelta`], the sharded store (when the
    /// engine is store-backed) is flipped to a new generation through
    /// the same atomic-commit-and-sweep machinery that quarantine→repair
    /// rides and reopened with the backing the engine was opened with, and
    /// only the result-cache entries the delta could have affected are
    /// invalidated.
    ///
    /// In-flight waves keep answering from the pre-delta snapshot they
    /// pinned; waves admitted after the swap see the merged dataset.
    ///
    /// # Errors
    /// Refused (with a repair hint) while the store has quarantined
    /// shards — updating around the hole would diverge from the manifest
    /// digests — and when `new_dataset` is not a valid successor of the
    /// served dataset. A refused delta leaves engine, store, and cache
    /// untouched. A committed generation that does not reopen clean is an
    /// error too: the engine and cache keep the previous snapshot.
    pub fn apply_delta(&self, new_dataset: Arc<Dataset>) -> Result<EngineDeltaReport, String> {
        let _span = tind_obs::span("serve.apply_delta");
        let snap = self.snapshot();
        if let Some(mask) = snap.forward.shard_mask() {
            let shards: Vec<usize> = mask.quarantined().iter().map(|q| q.shard).collect();
            return Err(format!(
                "delta rejected: store shard(s) {shards:?} are quarantined; run \
                 `tind store repair` before applying updates"
            ));
        }
        let delta = DatasetDelta::diff(&snap.dataset, new_dataset.clone())
            .map_err(|e| format!("delta rejected: {e}"))?;
        let mut forward = (*snap.forward).clone();
        let index = forward.apply_delta(&delta).map_err(|e| format!("delta rejected: {e}"))?;
        // The reverse index borrows the maintained forward `M_T` rather
        // than retargeting a copy of its own.
        let mut reverse = snap
            .reverse
            .apply_delta_beside(&delta, &forward)
            .map_err(|e| format!("delta rejected: {e}"))?;

        // While old and new generations coexist, charge only the
        // *increment* over the already-charged old footprint — the
        // overlap is counted once, never twice. The held old charge plus
        // this increment sums to exactly the new generation's bytes, so
        // the post-swap settle is a push, not a release-and-recharge.
        let old_bytes = lock(&self.index_charge).bytes;
        let new_bytes = index_bytes(&forward, &reverse);
        let mut overlap = None;
        if let Some(budget) = &self.budget {
            let increment = new_bytes.saturating_sub(old_bytes);
            if increment > 0 {
                match budget.try_charge(increment) {
                    Some(c) => overlap = Some(c),
                    None => tind_obs::counter("serve.index_overcommits").incr(),
                }
            }
        }

        // Persist before swapping: pack_store commits the new generation
        // atomically (manifest rename is the commit point), so a crash
        // leaves either the old store or the new one — and a pack error
        // leaves the engine serving the old snapshot untouched.
        let mut store_generation = None;
        if let Some(dir) = &self.store_dir {
            let packed = pack_store(
                &forward,
                dir,
                &PackOptions { shards: self.store_shards, ..PackOptions::default() },
            )
            .map_err(|e| format!("store flip at {} failed: {e}", dir.display()))?;
            store_generation = Some(packed.generation);
            // The delta was applied to a clone whose touched segments
            // `retarget_column` copied onto the heap. Serve the committed
            // generation through the engine's own backing instead, so a
            // windowed engine stays bounded by its budget after a delta.
            let (reopened, report) = open_store_with(dir, new_dataset.clone(), &self.open_options)
                .map_err(|e| format!("store flip at {}: reopen failed: {e}", dir.display()))?;
            if let Some(fault) = report.quarantined.first() {
                return Err(format!(
                    "store flip at {}: generation {} reopened degraded ({fault}); still \
                     serving the previous snapshot",
                    dir.display(),
                    packed.generation
                ));
            }
            forward = reopened;
            reverse.share_full_history(&forward);
        }

        let (cache_evicted, cache_retained) = self.cache.invalidate(&new_dataset, delta.touched());
        let plans_evicted = self.plans.invalidate(&new_dataset, delta.touched());
        {
            let mut state = lock_write(&self.state);
            state.dataset = new_dataset;
            state.forward = Arc::new(forward);
            state.reverse = Arc::new(reverse);
        }
        if self.budget.is_some() {
            let mut held = lock(&self.index_charge);
            if store_generation.is_none() && new_bytes >= old_bytes {
                if let Some(c) = overlap {
                    held.charges.push(c);
                }
                held.bytes = new_bytes;
            } else {
                // The new generation shrank, or was reopened through the
                // store backing (whose footprint is not the heap copy's):
                // release everything and charge what is resident now.
                drop(held);
                drop(overlap);
                self.settle_index_charge();
            }
        }
        tind_obs::counter("serve.deltas_applied").incr();
        Ok(EngineDeltaReport { index, cache_evicted, cache_retained, plans_evicted, store_generation })
    }

    /// Resolve request parameters against the defaults. The key
    /// identifies the resolved parameter set for coalescing: only
    /// requests with bit-identical parameters share a batch wave.
    fn resolve_params(
        &self,
        eps: Option<f64>,
        delta: Option<u32>,
        decay: Option<f64>,
    ) -> (TindParams, ParamsKey) {
        let eps = eps.unwrap_or(self.default_eps);
        let delta = delta.unwrap_or(self.default_delta);
        let decay = decay.or(self.default_decay);
        let params = params_of(eps, delta, decay, self.dataset().timeline());
        (params, (eps.to_bits(), delta, decay.map(f64::to_bits)))
    }

    /// Resolve an attribute by name or numeric id, as the CLI does.
    fn resolve_attr(&self, dataset: &Dataset, raw: &str) -> Result<AttrId, ServeError> {
        dataset.resolve(raw).ok_or_else(|| {
            ServeError::bad_request(format!("attribute '{raw}' not found (name or id)"))
        })
    }

    /// Rough per-request scratch estimate charged against the memory
    /// budget: candidate tracking is O(|D|), plus a fixed overhead.
    fn request_cost(&self) -> usize {
        self.dataset().len() * 64 + 4096
    }
}

/// Outcome of [`Engine::apply_delta`].
#[derive(Debug)]
pub struct EngineDeltaReport {
    /// The core index-maintenance report (forward direction).
    pub index: DeltaReport,
    /// Result-cache entries dropped because the delta affected them.
    pub cache_evicted: usize,
    /// Result-cache entries proven unaffected and kept.
    pub cache_retained: usize,
    /// Plan-cache entries dropped because the delta touched their query.
    pub plans_evicted: usize,
    /// Store generation the flip committed, when store-backed.
    pub store_generation: Option<u64>,
}

/// Bit-exact identity of a resolved parameter set.
type ParamsKey = (u64, u32, Option<u64>);

/// `(reverse?, resolved parameters, query attribute)`.
type CacheKey = (bool, ParamsKey, AttrId);

/// The parameters a request or the defaults name: exponential decay `a`
/// over `timeline` when given, else constant weights.
fn params_of(eps: f64, delta: u32, decay: Option<f64>, timeline: Timeline) -> TindParams {
    let weights = match decay {
        Some(a) => WeightFn::exponential(a, timeline),
        None => WeightFn::constant_one(),
    };
    TindParams::weighted(eps, delta, weights)
}

/// Rebuilds the [`TindParams`] a [`ParamsKey`] encodes.
fn params_from_key(key: ParamsKey, timeline: Timeline) -> TindParams {
    let (eps_bits, delta, decay_bits) = key;
    params_of(f64::from_bits(eps_bits), delta, decay_bits.map(f64::from_bits), timeline)
}

#[derive(Default)]
struct CacheInner {
    map: FastMap<CacheKey, Arc<SearchOutcome>>,
    /// Insertion order, for FIFO eviction at capacity.
    order: VecDeque<CacheKey>,
}

/// Opt-in cache of search outcomes, keyed by direction, bit-exact
/// resolved parameters, and query attribute.
///
/// Delta-aware invalidation: a delta can change an entry's *result set*
/// only through the touched attributes — either the query itself changed
/// (full eviction), a touched attribute sits in the cached results and
/// may have dropped out, or a touched attribute newly validates against
/// the query and is missing from them. [`ResultCache::invalidate`]
/// checks exactly those memberships with the exact validator against the
/// merged dataset and keeps every entry it proves unaffected. Kept
/// entries' `stats` still describe the computation that filled them —
/// results are the contract, stats are diagnostics.
///
/// Degraded serving bypasses the cache entirely: partial results are
/// never cached and clean cached results never leak past a quarantine.
struct ResultCache {
    /// `0` disables the cache; every operation is then a no-op.
    capacity: usize,
    hot: Mutex<CacheInner>,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache { capacity, hot: Mutex::new(CacheInner::default()) }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn len(&self) -> usize {
        if !self.enabled() {
            return 0;
        }
        lock(&self.hot).map.len()
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<SearchOutcome>> {
        if !self.enabled() {
            return None;
        }
        lock(&self.hot).map.get(key).cloned()
    }

    fn insert(&self, key: CacheKey, outcome: Arc<SearchOutcome>) {
        if !self.enabled() {
            return;
        }
        let mut inner = lock(&self.hot);
        if inner.map.insert(key, outcome).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                }
            }
        }
        tind_obs::gauge("serve.cache_entries").set(inner.map.len() as f64);
    }

    fn clear(&self) {
        if !self.enabled() {
            return;
        }
        let mut inner = lock(&self.hot);
        inner.map.clear();
        inner.order.clear();
        tind_obs::gauge("serve.cache_entries").set(0.0);
    }

    /// Evicts every entry whose result set the delta to `dataset` (the
    /// merged successor) could have changed, returns
    /// `(evicted, retained)`. `touched` is ascending, as produced by
    /// [`DatasetDelta::touched`].
    fn invalidate(&self, dataset: &Dataset, touched: &[AttrId]) -> (usize, usize) {
        if !self.enabled() {
            return (0, 0);
        }
        let timeline = dataset.timeline();
        let mut inner = lock(&self.hot);
        let keys: Vec<CacheKey> = inner.map.keys().copied().collect();
        let mut evicted = 0;
        for key in keys {
            let (rev, pkey, query) = key;
            let stale = if touched.binary_search(&query).is_ok() {
                true
            } else {
                let outcome = Arc::clone(&inner.map[&key]);
                let params = params_from_key(pkey, timeline);
                // A forward entry lists {B : query ⊆ B}; a reverse entry
                // lists {B : B ⊆ query}. Only touched B can enter or
                // leave — re-validate their membership exactly.
                touched.iter().any(|&b| {
                    let was = outcome.results.binary_search(&b).is_ok();
                    let (lhs, rhs) = if rev { (b, query) } else { (query, b) };
                    let now = tind_core::validate::validate(
                        dataset.attribute(lhs),
                        dataset.attribute(rhs),
                        &params,
                        timeline,
                    );
                    was != now
                })
            };
            if stale {
                inner.map.remove(&key);
                evicted += 1;
            }
        }
        let CacheInner { map, order } = &mut *inner;
        order.retain(|k| map.contains_key(k));
        let retained = map.len();
        tind_obs::counter("serve.cache_invalidated").add(evicted as u64);
        tind_obs::gauge("serve.cache_entries").set(retained as f64);
        (evicted, retained)
    }
}

/// `(query attribute, ε bits, δ)` — the `w` component of the paper's
/// parameter triple is carried inside the stored [`PlanArtifacts`] and
/// verified on every hit (two weight functions rarely share ε and δ, and
/// a false share is just a rebuild, never a wrong answer).
type PlanKey = (AttrId, u64, u32);

#[derive(Default)]
struct PlanInner {
    map: FastMap<PlanKey, PlanArtifacts>,
    /// Recency order, least-recent first (true LRU: hits re-append).
    order: VecDeque<PlanKey>,
}

/// Opt-in LRU of reusable [`PlanArtifacts`], consulted by the batched
/// search path at the stage-4 plan-build seam. A hit skips the
/// O(timeline) weight-table accumulation and the query's change-point
/// scan; results and statistics are pinned identical either way by the
/// core equivalence tests.
///
/// Shares the result cache's delta-invalidation hook: a delta evicts
/// exactly the entries whose query attribute it touched (plan artifacts
/// depend only on the query's own history, ε, δ, and w — not on
/// candidates), and a stale timeline clears everything.
struct PlanCache {
    /// `0` disables the cache; every operation is then a no-op.
    capacity: usize,
    hot: Mutex<PlanInner>,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache { capacity, hot: Mutex::new(PlanInner::default()) }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn len(&self) -> usize {
        if !self.enabled() {
            return 0;
        }
        lock(&self.hot).map.len()
    }

    fn clear(&self) {
        if !self.enabled() {
            return;
        }
        let mut inner = lock(&self.hot);
        inner.map.clear();
        inner.order.clear();
        tind_obs::gauge("serve.plans.entries").set(0.0);
    }

    /// Evicts entries whose query a delta touched (ascending ids, as
    /// produced by [`DatasetDelta::touched`]) plus any built over a
    /// different timeline than `dataset`'s; returns the eviction count.
    fn invalidate(&self, dataset: &Dataset, touched: &[AttrId]) -> usize {
        if !self.enabled() {
            return 0;
        }
        let timeline = dataset.timeline();
        let mut inner = lock(&self.hot);
        let before = inner.map.len();
        inner.map.retain(|&(query, _, _), artifacts| {
            touched.binary_search(&query).is_err() && artifacts.timeline() == timeline
        });
        let PlanInner { map, order } = &mut *inner;
        order.retain(|k| map.contains_key(k));
        let evicted = before - map.len();
        tind_obs::counter("serve.plans.evicted").add(evicted as u64);
        tind_obs::gauge("serve.plans.entries").set(map.len() as f64);
        evicted
    }
}

impl PlanSource for PlanCache {
    fn get(
        &self,
        query: AttrId,
        params: &TindParams,
        timeline: Timeline,
    ) -> Option<PlanArtifacts> {
        if !self.enabled() {
            return None;
        }
        let key = (query, params.eps.to_bits(), params.delta);
        let mut inner = lock(&self.hot);
        match inner.map.get(&key) {
            Some(artifacts) if artifacts.matches(params, timeline) => {
                let artifacts = artifacts.clone();
                // Refresh recency: move the key to the back.
                if let Some(pos) = inner.order.iter().position(|k| *k == key) {
                    inner.order.remove(pos);
                }
                inner.order.push_back(key);
                tind_obs::counter("serve.plans.hits").incr();
                Some(artifacts)
            }
            Some(_) => {
                // Same (ε, δ) under different weights or timeline: the
                // entry can never serve this key shape again — drop it.
                inner.map.remove(&key);
                inner.order.retain(|k| *k != key);
                tind_obs::counter("serve.plans.misses").incr();
                None
            }
            None => {
                tind_obs::counter("serve.plans.misses").incr();
                None
            }
        }
    }

    fn put(&self, query: AttrId, params: &TindParams, _timeline: Timeline, artifacts: PlanArtifacts) {
        if !self.enabled() {
            return;
        }
        let key = (query, params.eps.to_bits(), params.delta);
        let mut inner = lock(&self.hot);
        if inner.map.insert(key, artifacts).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(coldest) = inner.order.pop_front() {
                    inner.map.remove(&coldest);
                    tind_obs::counter("serve.plans.evicted").incr();
                }
            }
        }
        tind_obs::gauge("serve.plans.entries").set(inner.map.len() as f64);
    }
}

/// Lifecycle states surfaced by `/healthz`.
const STATE_LOADING: u8 = 0;
const STATE_SERVING: u8 = 1;
const STATE_DRAINING: u8 = 2;
/// Serving, but from a store with quarantined shards: queries over live
/// attributes answer normally (marked partial), queries over lost ranges
/// get a typed `shard_unavailable`, and background re-verification
/// promotes back to [`STATE_SERVING`] once the store is repaired.
const STATE_DEGRADED: u8 = 3;

/// An accepted connection waiting for a reader, stamped (obs epoch) when
/// `accept` returned it.
struct Conn {
    stream: TcpStream,
    accepted_ns: u64,
}

/// One admitted request waiting for (or undergoing) execution.
struct Job {
    call: ApiCall,
    stream: TcpStream,
    token: CancelToken,
    deadline: Instant,
    received: Instant,
    /// Trace identity of this request; `trace.span_id` is the root
    /// (`serve.request`) span every stage span parents into. Zeroed
    /// under `obs-off`, which turns every recording below into a no-op.
    trace: TraceContext,
    /// `X-Tind-Trace: 1` was sent: collect the trace unconditionally and
    /// return the id in `X-Tind-Trace-Id`.
    force_trace: bool,
    /// Static endpoint label for the per-endpoint latency histograms.
    endpoint: &'static str,
    /// Obs-epoch timestamps stamped as the request crosses pipeline
    /// stages: admission, queue pop, wave formation.
    received_ns: u64,
    popped_ns: u64,
    exec_start_ns: u64,
    /// Identity of the wave span this request's `serve.exec` span parents
    /// to (the wave is its own trace; members link to it).
    wave_trace: u128,
    wave_span: u64,
}

/// One completed request trace retained for `/debug/trace`: its
/// identity, and its collected payload once something collected it.
struct StoredTrace {
    trace: PendingTrace,
    payload: Option<Value>,
}

#[derive(Default)]
struct TraceStoreInner {
    /// Newest-last ring of the K most recent completed traces.
    recent: VecDeque<StoredTrace>,
    /// The K slowest traces, kept sorted slowest-first.
    slowest: Vec<StoredTrace>,
}

/// Tail-sampling trace retention: every completed (or force-sampled)
/// request trace is offered; the store keeps the K most recent and the
/// K slowest, which is what `GET /debug/trace` serves. Collection scans
/// every thread's ring, so it runs only for traces that are kept: a
/// forced trace or one entering the slowest pool is collected when it is
/// offered, and a recent one on its first export — by then the rings may
/// have overwritten part of it, which shows as `dropped` and missing
/// parents.
struct TraceStore {
    /// `0` disables retention; offers are then dropped.
    capacity: usize,
    /// Collects a kept trace's payload from the rings (a fake in tests).
    collect: fn(&PendingTrace) -> Value,
    inner: Mutex<TraceStoreInner>,
}

impl TraceStore {
    fn new(capacity: usize) -> TraceStore {
        TraceStore::with_collector(capacity, |p| {
            trace::collect_trace(p.ctx, &[p.wave_trace]).to_value()
        })
    }

    fn with_collector(capacity: usize, collect: fn(&PendingTrace) -> Value) -> TraceStore {
        TraceStore { capacity, collect, inner: Mutex::new(TraceStoreInner::default()) }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn offer(&self, trace: PendingTrace) {
        if !self.enabled() {
            return;
        }
        let mut inner = lock(&self.inner);
        let slow_slot = inner.slowest.len() < self.capacity
            || inner.slowest.last().is_some_and(|t| t.trace.dur_ns < trace.dur_ns);
        let payload = (trace.forced || slow_slot).then(|| (self.collect)(&trace));
        if slow_slot {
            let at = inner.slowest.partition_point(|t| t.trace.dur_ns >= trace.dur_ns);
            inner.slowest.insert(at, StoredTrace { trace, payload: payload.clone() });
            inner.slowest.truncate(self.capacity);
        }
        inner.recent.push_back(StoredTrace { trace, payload });
        if inner.recent.len() > self.capacity {
            inner.recent.pop_front();
        }
    }

    /// Retained trace payloads, slowest first then most-recent-first,
    /// deduplicated by trace id and capped at `last` when given.
    fn export(&self, last: Option<usize>) -> Vec<Value> {
        let mut inner = lock(&self.inner);
        for t in inner.recent.iter_mut().filter(|t| t.payload.is_none()) {
            t.payload = Some((self.collect)(&t.trace));
        }
        let mut seen: Vec<u128> = Vec::new();
        let mut out = Vec::new();
        let cap = last.unwrap_or(usize::MAX);
        for t in inner.slowest.iter().chain(inner.recent.iter().rev()) {
            if out.len() >= cap {
                break;
            }
            let id = t.trace.ctx.trace_id;
            if !seen.contains(&id) {
                seen.push(id);
                out.extend(t.payload.clone());
            }
        }
        out
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    deadline_timeouts: AtomicU64,
    waves: AtomicU64,
    coalesced: AtomicU64,
}

/// Aggregate statistics returned when the server finishes draining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Requests parsed and routed (including `/healthz` and `/metrics`).
    pub requests: u64,
    /// 200 responses written.
    pub ok: u64,
    /// Typed error responses written (every non-200).
    pub errors: u64,
    /// Requests shed by admission control (429) or memory pressure (503).
    pub shed: u64,
    /// Requests quarantined after panicking (500); no worker died.
    pub panics: u64,
    /// Requests that hit their deadline (504).
    pub deadline_timeouts: u64,
    /// Executed batch waves.
    pub waves: u64,
    /// Requests that rode an existing wave instead of forming their own.
    pub coalesced_requests: u64,
    /// True when the drain finished without the grace-period watchdog
    /// force-cancelling anything.
    pub drained_clean: bool,
}

/// Shared state of one running server; borrowed by every pipeline thread.
struct Runtime {
    config: ServeConfig,
    engine: OnceLock<Arc<Engine>>,
    state: AtomicU8,
    conns: Admission<Conn>,
    jobs: Admission<Job>,
    shutdown: CancelToken,
    /// Per-worker slot holding the cancel token of the wave in flight,
    /// so the drain watchdog can cancel stragglers with reason `Drain`.
    active: Vec<Mutex<Option<CancelToken>>>,
    workers_live: AtomicUsize,
    forced_drain: AtomicBool,
    started: Instant,
    /// Tail-sampled completed request traces served at `/debug/trace`.
    traces: TraceStore,
    c: Counters,
    /// `serve.latency.conn_ns` (accept → request parsed: `conns` wait +
    /// read) and `serve.latency.write_ns` (response write): the server's
    /// own view of the time no request span covers. Resolved once — every
    /// request records into both.
    conn_ns: &'static tind_obs::Histogram,
    write_ns: &'static tind_obs::Histogram,
}

impl Runtime {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::Release);
    }

    fn retry_hint_ms(&self, depth: usize) -> u64 {
        self.config.retry_unit.as_millis() as u64 * (depth as u64 + 1)
    }

    /// Writes one response and records how long the write took. A failed
    /// write is the client's loss only: the peer is gone or stalled past
    /// `write_timeout`, and there is nobody left to tell.
    fn write(&self, stream: &mut TcpStream, status: u16, body: &str, extra: &[(&str, &str)]) {
        let start_ns = trace::now_ns();
        let _ = http::write_response_with(stream, status, reason_phrase(status), body, extra);
        self.write_ns.record(trace::now_ns().saturating_sub(start_ns));
    }

    /// Writes a typed error response and counts it.
    fn respond_error(&self, stream: &mut TcpStream, err: &ServeError) {
        self.c.errors.fetch_add(1, Ordering::Relaxed);
        tind_obs::counter("serve.responses_error").incr();
        self.write(stream, err.status, &err.to_value().to_json(), &[]);
    }

    /// Writes a 200 response and counts it.
    fn respond_ok(&self, stream: &mut TcpStream, body: &Value) {
        self.respond_ok_with(stream, &body.to_json(), &[]);
    }

    /// [`Runtime::respond_ok`] for pre-rendered bodies (the newline-
    /// delimited `TINDTF` export of `/debug/trace?format=tindtf`) and
    /// extra response headers (the `X-Tind-Trace-Id` echo).
    fn respond_ok_with(&self, stream: &mut TcpStream, body: &str, extra: &[(&str, &str)]) {
        self.c.ok.fetch_add(1, Ordering::Relaxed);
        tind_obs::counter("serve.responses_ok").incr();
        self.write(stream, 200, body, extra);
    }

    fn shed(&self, stream: &mut TcpStream, err: &ServeError, counter: &'static str) {
        self.c.shed.fetch_add(1, Ordering::Relaxed);
        tind_obs::counter(counter).incr();
        self.respond_error(stream, err);
    }
}

/// A bound-but-not-yet-running serve daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServeConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port). The
    /// listener is live immediately — connections queue in the kernel
    /// backlog until [`Server::run`] starts the pipeline.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, addr, config })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the pipeline until `shutdown` trips, then drains and returns
    /// the aggregate outcome. `loader` builds the [`Engine`] on the
    /// calling thread while `/healthz` already answers (readiness
    /// `loading`); API calls get typed 503s until it completes.
    pub fn run(
        self,
        loader: impl FnOnce() -> Result<Engine, String>,
        shutdown: CancelToken,
    ) -> Result<ServeOutcome, String> {
        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get()).min(8)
        } else {
            self.config.workers
        };
        let readers = if self.config.readers == 0 { 2 } else { self.config.readers };

        let rt = Runtime {
            conns: Admission::new(self.config.conn_capacity),
            jobs: Admission::new(self.config.queue_capacity),
            traces: TraceStore::new(self.config.trace_last),
            config: self.config,
            engine: OnceLock::new(),
            state: AtomicU8::new(STATE_LOADING),
            shutdown,
            active: (0..workers).map(|_| Mutex::new(None)).collect(),
            workers_live: AtomicUsize::new(0),
            forced_drain: AtomicBool::new(false),
            started: Instant::now(),
            c: Counters::default(),
            conn_ns: tind_obs::histogram("serve.latency.conn_ns"),
            write_ns: tind_obs::histogram("serve.latency.write_ns"),
        };

        let mut load_error: Option<String> = None;
        let rt = &rt;
        let listener = &self.listener;
        std::thread::scope(|s| {
            let acceptor = s.spawn(move || acceptor_loop(rt, listener));
            let reader_handles: Vec<_> =
                (0..readers).map(|_| s.spawn(move || reader_loop(rt))).collect();
            let worker_handles: Vec<_> =
                (0..workers).map(|w| s.spawn(move || worker_loop(rt, w))).collect();
            let watchdog = s.spawn(move || drain_watchdog(rt));

            match loader() {
                Ok(engine) => {
                    let mut engine = engine;
                    if rt.config.cache > 0 {
                        engine = engine.with_cache(rt.config.cache);
                    }
                    if rt.config.plan_cache > 0 {
                        engine = engine.with_plan_cache(rt.config.plan_cache);
                    }
                    if rt.config.memory_budget.is_some() && engine.budget.is_none() {
                        engine =
                            engine.with_memory_accounting(rt.config.memory_budget.clone());
                    }
                    let degraded = engine.is_degraded();
                    let engine = Arc::new(engine);
                    if let Some(hook) = &rt.config.engine_hook {
                        hook(Arc::clone(&engine));
                    }
                    let _ = rt.engine.set(engine);
                    rt.set_state(if degraded { STATE_DEGRADED } else { STATE_SERVING });
                    let mut next_reverify = Instant::now() + rt.config.reverify_interval;
                    let mut next_tick = Instant::now() + rt.config.metrics_tick;
                    while !rt.shutdown.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(10));
                        // Periodic metrics-history snapshot: feeds the
                        // fixed-size ring behind `GET /metrics/history`
                        // and the TINDRR `metrics_history` section.
                        if !rt.config.metrics_tick.is_zero() && Instant::now() >= next_tick {
                            next_tick = Instant::now() + rt.config.metrics_tick;
                            tind_obs::history_tick();
                        }
                        // Background re-verification: while degraded, poll
                        // the store; once every shard verifies again
                        // (e.g. after `tind store repair`), swap in the
                        // clean index and promote to `serving`.
                        if rt.state() == STATE_DEGRADED && Instant::now() >= next_reverify {
                            next_reverify = Instant::now() + rt.config.reverify_interval;
                            let promoted =
                                rt.engine.get().is_some_and(|e| e.try_promote());
                            if promoted {
                                tind_obs::counter("serve.promotions").incr();
                                rt.set_state(STATE_SERVING);
                            }
                        }
                    }
                }
                Err(e) => load_error = Some(e),
            }

            // Drain: stop accepting, let readers reject queued
            // connections, let workers finish queued jobs. The acceptor
            // is blocked in `accept`, so it learns of the new state from
            // a connection we make ourselves.
            rt.set_state(STATE_DRAINING);
            wake_acceptor(self.addr);
            let _ = acceptor.join();
            rt.conns.close();
            for h in reader_handles {
                let _ = h.join();
            }
            rt.jobs.close();
            for h in worker_handles {
                let _ = h.join();
            }
            let _ = watchdog.join();
        });

        if let Some(e) = load_error {
            return Err(e);
        }
        Ok(ServeOutcome {
            requests: rt.c.requests.load(Ordering::Relaxed),
            ok: rt.c.ok.load(Ordering::Relaxed),
            errors: rt.c.errors.load(Ordering::Relaxed),
            shed: rt.c.shed.load(Ordering::Relaxed),
            panics: rt.c.panics.load(Ordering::Relaxed),
            deadline_timeouts: rt.c.deadline_timeouts.load(Ordering::Relaxed),
            waves: rt.c.waves.load(Ordering::Relaxed),
            coalesced_requests: rt.c.coalesced.load(Ordering::Relaxed),
            drained_clean: !rt.forced_drain.load(Ordering::Relaxed),
        })
    }
}

/// Blocks in `accept` until the state is `draining`. The state is
/// re-read only after `accept` returns, so whatever connection ended the
/// wait — a client that raced the drain, or [`wake_acceptor`]'s — still
/// goes to the readers, which answer it by state.
fn acceptor_loop(rt: &Runtime, listener: &TcpListener) {
    while rt.state() != STATE_DRAINING {
        match listener.accept() {
            Ok((stream, _)) => {
                let accepted_ns = trace::now_ns();
                tind_obs::counter("serve.connections").incr();
                let _ = stream.set_write_timeout(Some(rt.config.write_timeout));
                let _ = stream.set_nodelay(true);
                if let Err(mut conn) = rt.conns.try_push(Conn { stream, accepted_ns }) {
                    let hint = rt.retry_hint_ms(rt.conns.depth());
                    rt.shed(&mut conn.stream, &ServeError::overloaded(hint), "serve.shed_queue");
                }
            }
            // `accept` failed for real (EMFILE, ENOBUFS, an aborted
            // handshake): back off briefly so a persistent failure
            // cannot spin the thread.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Returns a draining acceptor from its blocking `accept` by connecting
/// to the listener once — dependency-free, and the socket is dropped
/// unwritten, so a reader sees `HttpError::Closed` and counts nothing.
/// A listener bound to an unspecified address is reached over loopback
/// of the same family. The connect can only fail while the acceptor has
/// other connections to return from `accept` with (a full backlog), and
/// then it reads the new state without our help.
fn wake_acceptor(bound: SocketAddr) {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let wake = SocketAddr::new(ip, bound.port());
    let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(250));
}

fn reader_loop(rt: &Runtime) {
    let limits = HttpLimits {
        max_header_bytes: rt.config.max_header_bytes,
        max_body_bytes: rt.config.max_body_bytes,
        read_budget: rt.config.read_timeout,
    };
    while let Some(Conn { mut stream, accepted_ns }) = rt.conns.pop_wait() {
        let req = match http::read_request(&mut stream, &limits) {
            Ok(req) => req,
            Err(HttpError::Closed) => continue,
            Err(e) => {
                let err = match e {
                    HttpError::Timeout => {
                        ServeError::request_timeout(limits.read_budget.as_millis() as u64)
                    }
                    HttpError::HeaderTooLarge => {
                        ServeError::header_too_large(limits.max_header_bytes)
                    }
                    HttpError::BodyTooLarge { got } => {
                        ServeError::payload_too_large(got, limits.max_body_bytes)
                    }
                    HttpError::Malformed(why) => {
                        ServeError::bad_request(format!("malformed request: {why}"))
                    }
                    HttpError::Closed | HttpError::Io(_) => continue,
                };
                rt.respond_error(&mut stream, &err);
                // The request was never fully read; discard what the
                // peer already sent so the close is a FIN, not an RST
                // that would destroy the error response in flight.
                http::drain_before_close(&mut stream);
                continue;
            }
        };
        rt.conn_ns.record(trace::now_ns().saturating_sub(accepted_ns));
        rt.c.requests.fetch_add(1, Ordering::Relaxed);
        tind_obs::counter("serve.requests").incr();
        match router::route(&req) {
            Err(err) => rt.respond_error(&mut stream, &err),
            Ok(ApiCall::Healthz) => {
                let body = healthz_body(rt);
                rt.respond_ok(&mut stream, &body);
            }
            Ok(ApiCall::Metrics) => {
                let body = tind_obs::metrics_value();
                rt.respond_ok(&mut stream, &body);
            }
            Ok(ApiCall::MetricsHistory) => {
                let body = tind_obs::history_value();
                rt.respond_ok(&mut stream, &body);
            }
            Ok(ApiCall::DebugTrace(spec)) => respond_debug_trace(rt, &mut stream, &spec),
            Ok(call) => match rt.state() {
                STATE_LOADING => rt.respond_error(&mut stream, &ServeError::loading()),
                STATE_DRAINING => {
                    tind_obs::counter("serve.draining_rejects").incr();
                    rt.respond_error(&mut stream, &ServeError::draining());
                }
                _ => {
                    let timeout = call
                        .timeout_ms()
                        .map_or(rt.config.default_deadline, Duration::from_millis)
                        .min(rt.config.max_deadline);
                    let deadline = Instant::now() + timeout;
                    let received_ns = trace::now_ns();
                    let job = Job {
                        endpoint: endpoint_label(&call),
                        call,
                        stream,
                        token: CancelToken::new().with_deadline(deadline),
                        deadline,
                        received: Instant::now(),
                        trace: trace::alloc_context(),
                        force_trace: req.force_trace,
                        received_ns,
                        popped_ns: received_ns,
                        exec_start_ns: received_ns,
                        wave_trace: 0,
                        wave_span: 0,
                    };
                    match rt.jobs.try_push(job) {
                        Ok(depth) => {
                            tind_obs::gauge("serve.queue_depth").set(depth as f64);
                        }
                        Err(mut job) => {
                            let hint = rt.retry_hint_ms(rt.jobs.depth());
                            rt.shed(
                                &mut job.stream,
                                &ServeError::overloaded(hint),
                                "serve.shed_queue",
                            );
                        }
                    }
                }
            },
        }
    }
}

fn healthz_body(rt: &Runtime) -> Value {
    let state = rt.state();
    let status = match state {
        STATE_LOADING => "loading",
        STATE_SERVING => "serving",
        STATE_DEGRADED => "degraded",
        _ => "draining",
    };
    let mut body = Value::obj([
        ("status", Value::str(status)),
        // Degraded still accepts queries — `status` carries the nuance.
        ("ready", Value::Bool(state == STATE_SERVING || state == STATE_DEGRADED)),
        ("queue_depth", Value::num(rt.jobs.depth() as f64)),
        ("uptime_ms", Value::num(rt.started.elapsed().as_millis() as f64)),
    ]);
    if state == STATE_DEGRADED {
        if let Some((fraction, shards)) = rt.engine.get().and_then(|e| e.degraded_status()) {
            body.set("live_shard_fraction", Value::num(fraction));
            body.set(
                "quarantined_shards",
                Value::Arr(shards.into_iter().map(|s| Value::num(s as f64)).collect()),
            );
        }
    }
    if let Some(engine) = rt.engine.get() {
        if engine.cache.enabled() {
            body.set("cache_entries", Value::num(engine.cache.len() as f64));
        }
        if engine.plans.enabled() {
            body.set("plan_entries", Value::num(engine.plans.len() as f64));
        }
    }
    body
}

/// Static endpoint label used by trace payloads and the per-endpoint
/// latency-attribution histograms.
fn endpoint_label(call: &ApiCall) -> &'static str {
    match call {
        ApiCall::Search(_) => "search",
        ApiCall::ReverseSearch(_) => "reverse_search",
        ApiCall::Explain(_) => "explain",
        _ => "inline",
    }
}

/// Per-endpoint latency-attribution histogram names:
/// `serve.latency.<endpoint>.{queued,coalesced,exec}_ns`. Static so the
/// hot path never formats a metric name.
fn latency_names(endpoint: &str) -> (&'static str, &'static str, &'static str) {
    match endpoint {
        "search" => (
            "serve.latency.search.queued_ns",
            "serve.latency.search.coalesced_ns",
            "serve.latency.search.exec_ns",
        ),
        "reverse_search" => (
            "serve.latency.reverse_search.queued_ns",
            "serve.latency.reverse_search.coalesced_ns",
            "serve.latency.reverse_search.exec_ns",
        ),
        _ => (
            "serve.latency.explain.queued_ns",
            "serve.latency.explain.coalesced_ns",
            "serve.latency.explain.exec_ns",
        ),
    }
}

/// Answers `GET /debug/trace`: the retained tail-sampled traces, either
/// as one JSON document or as newline-delimited `TINDTF` envelopes (each
/// line is exactly what `tind trace` and `tind verify` accept).
fn respond_debug_trace(rt: &Runtime, stream: &mut TcpStream, spec: &TraceSpec) {
    let traces = rt.traces.export(spec.last);
    match spec.format {
        TraceFormat::Json => {
            let body = Value::obj([
                ("count", Value::num(traces.len() as f64)),
                (
                    "dropped_spans_total",
                    Value::num(trace::trace_drops_total() as f64),
                ),
                ("traces", Value::Arr(traces)),
            ]);
            rt.respond_ok(stream, &body);
        }
        TraceFormat::Tindtf => {
            let mut body = String::new();
            for payload in &traces {
                body.push_str(&tind_obs::json::seal(trace::TRACE_MAGIC, payload));
            }
            rt.respond_ok_with(stream, &body, &[]);
        }
    }
}

/// Whether two queued calls may share one batch wave: same direction,
/// bit-identical resolved parameters.
fn compatible(engine: &Engine, a: &ApiCall, b: &ApiCall) -> bool {
    let key = |spec: &QuerySpec| engine.resolve_params(spec.eps, spec.delta, spec.decay).1;
    match (a, b) {
        (ApiCall::Search(x), ApiCall::Search(y)) => key(x) == key(y),
        (ApiCall::ReverseSearch(x), ApiCall::ReverseSearch(y)) => key(x) == key(y),
        _ => false,
    }
}

fn worker_loop(rt: &Runtime, slot: usize) {
    rt.workers_live.fetch_add(1, Ordering::AcqRel);
    while let Some(mut job) = rt.jobs.pop_wait() {
        job.popped_ns = trace::now_ns();
        let job = job;
        tind_obs::gauge("serve.queue_depth").set(rt.jobs.depth() as f64);
        let Some(engine) = rt.engine.get() else {
            // Unreachable in practice: jobs are only admitted once the
            // engine is set. Kept total for robustness.
            let mut job = job;
            rt.respond_error(&mut job.stream, &ServeError::loading());
            continue;
        };

        // Memory degradation step 2: shed whole requests when even one
        // uncoalesced execution cannot charge its scratch.
        let cost = engine.request_cost();
        let mut charges = Vec::new();
        if let Some(budget) = &rt.config.memory_budget {
            match budget.try_charge(cost) {
                Some(c) => charges.push(c),
                None => {
                    let mut job = job;
                    let hint = rt.retry_hint_ms(rt.jobs.depth());
                    rt.shed(
                        &mut job.stream,
                        &ServeError::overloaded_memory(hint),
                        "serve.shed_memory",
                    );
                    continue;
                }
            }
        }

        // Coalesce compatible queued searches into this wave. Memory
        // degradation step 1: each extra member must charge; when the
        // budget runs dry the wave just stays small.
        let mut wave = vec![job];
        if matches!(wave[0].call, ApiCall::Search(_) | ApiCall::ReverseSearch(_)) {
            while wave.len() < rt.config.coalesce.max(1) {
                if let Some(budget) = &rt.config.memory_budget {
                    match budget.try_charge(cost) {
                        Some(c) => charges.push(c),
                        None => break,
                    }
                }
                let mut more =
                    rt.jobs.drain_matching(|j| compatible(engine, &j.call, &wave[0].call), 1);
                match more.pop() {
                    Some(mut j) => {
                        j.popped_ns = trace::now_ns();
                        rt.c.coalesced.fetch_add(1, Ordering::Relaxed);
                        tind_obs::counter("serve.coalesced_requests").incr();
                        wave.push(j);
                    }
                    None => {
                        if rt.config.memory_budget.is_some() {
                            charges.pop();
                        }
                        break;
                    }
                }
            }
        }

        execute_wave(rt, engine, slot, wave);
        drop(charges);
    }
    rt.workers_live.fetch_sub(1, Ordering::AcqRel);
}

/// Executes one wave (1..=coalesce members, all compatible) and writes
/// every member's response. Panics are quarantined here.
fn execute_wave(rt: &Runtime, engine: &Engine, slot: usize, mut wave: Vec<Job>) {
    rt.c.waves.fetch_add(1, Ordering::Relaxed);
    tind_obs::counter("serve.waves").incr();
    tind_obs::histogram("serve.wave_size").record(wave.len() as u64);

    // Drop members whose deadline already passed in the queue.
    let mut pending = Vec::with_capacity(wave.len());
    for mut job in wave.drain(..) {
        if job.token.is_cancelled() {
            let reason = job.token.reason();
            respond_cancelled(rt, &mut job, reason);
        } else {
            pending.push(job);
        }
    }
    if pending.is_empty() {
        return;
    }

    // One token governs the wave: its deadline is the latest member
    // deadline, and the drain watchdog can cancel it with reason
    // `Drain`. Work already finished is still answered normally.
    let max_deadline =
        pending.iter().map(|j| j.deadline).max().unwrap_or_else(Instant::now);
    let wave_token = CancelToken::new().with_deadline(max_deadline);
    *lock(&rt.active[slot]) = Some(wave_token.clone());

    // The wave is its own trace: one `serve.wave` span shared by every
    // member. Each member records its queue time (`serve.queued`) and
    // wave-formation time (`serve.coalesced`) under its own root, links
    // to the wave span, and later parents its `serve.exec` span to it —
    // the three stage spans tile [received, responded] exactly.
    let wave_ctx = trace::alloc_context();
    let exec_start_ns = trace::now_ns();
    for job in &mut pending {
        job.exec_start_ns = exec_start_ns;
        job.wave_trace = wave_ctx.trace_id;
        job.wave_span = wave_ctx.span_id;
        let t = job.trace;
        if t.trace_id != 0 {
            trace::record_span(
                t.child(trace::alloc_span_id()),
                t.span_id,
                "serve.queued",
                job.received_ns,
                job.popped_ns.saturating_sub(job.received_ns),
            );
            trace::record_span(
                t.child(trace::alloc_span_id()),
                t.span_id,
                "serve.coalesced",
                job.popped_ns,
                exec_start_ns.saturating_sub(job.popped_ns),
            );
            trace::record_link(t, wave_ctx.span_id, "serve.wave_link", exec_start_ns);
        }
    }

    let completed = match &pending[0].call {
        ApiCall::Explain(_) => {
            // Explain never coalesces: `pending` is a single member.
            let mut job = pending.pop().expect("nonempty wave");
            let ApiCall::Explain(spec) = job.call.clone() else { unreachable!() };
            run_explain(rt, engine, &mut job, &spec, &wave_token).into_iter().collect()
        }
        ApiCall::Search(_) | ApiCall::ReverseSearch(_) => {
            run_search_wave(rt, engine, pending, &wave_token, wave_ctx)
        }
        _ => unreachable!("answered by readers"),
    };

    // The wave span must close before any member trace is collected:
    // every completed member's `serve.exec` span parents to it.
    trace::record_span(
        wave_ctx,
        0,
        "serve.wave",
        exec_start_ns,
        trace::now_ns().saturating_sub(exec_start_ns),
    );
    for p in completed {
        rt.traces.offer(p);
    }
    *lock(&rt.active[slot]) = None;
}

fn run_explain(
    rt: &Runtime,
    engine: &Engine,
    job: &mut Job,
    spec: &ExplainSpec,
    wave_token: &CancelToken,
) -> Option<PendingTrace> {
    let (params, _) = engine.resolve_params(spec.eps, spec.delta, spec.decay);
    let dataset = engine.dataset();
    let (lhs, rhs) = match (
        engine.resolve_attr(&dataset, &spec.lhs),
        engine.resolve_attr(&dataset, &spec.rhs),
    ) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => {
            rt.respond_error(&mut job.stream, &e);
            return None;
        }
    };
    let hook = rt.config.fault_hook.clone();
    let call = job.call.clone();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(hook) = &hook {
            hook(&call);
        }
        let explanation = tind_core::explain::explain(
            dataset.attribute(lhs),
            dataset.attribute(rhs),
            &params,
            dataset.timeline(),
        );
        let rendered = explanation.render(&dataset);
        (explanation, rendered)
    }));
    match result {
        Err(_) => {
            quarantine(rt, std::slice::from_mut(job));
            None
        }
        Ok((explanation, rendered)) => {
            if wave_token.is_cancelled() {
                respond_cancelled(rt, job, wave_token.reason());
                return None;
            }
            let body = Value::obj([
                ("lhs", Value::str(dataset.attribute(lhs).name())),
                ("rhs", Value::str(dataset.attribute(rhs).name())),
                ("eps", Value::num(params.eps)),
                ("delta", Value::num(f64::from(params.delta))),
                ("valid", Value::Bool(explanation.valid)),
                ("violation", Value::num(explanation.violation)),
                ("violated_intervals", Value::num(explanation.violated.len() as f64)),
                ("rendered", Value::str(rendered)),
                ("elapsed_ms", Value::num(elapsed_ms(job))),
            ]);
            finish_ok(rt, job, &body)
        }
    }
}

fn run_search_wave(
    rt: &Runtime,
    engine: &Engine,
    mut wave: Vec<Job>,
    wave_token: &CancelToken,
    wave_ctx: TraceContext,
) -> Vec<PendingTrace> {
    let mut completed = Vec::new();
    let reverse = matches!(wave[0].call, ApiCall::ReverseSearch(_));
    let spec_of = |call: &ApiCall| -> QuerySpec {
        match call {
            ApiCall::Search(s) | ApiCall::ReverseSearch(s) => s.clone(),
            _ => unreachable!("search wave holds only searches"),
        }
    };
    let (params, params_key) = {
        let head = spec_of(&wave[0].call);
        engine.resolve_params(head.eps, head.delta, head.decay)
    };

    // Pin one coherent snapshot for the whole wave: a concurrent
    // promotion or delta swap cannot change results mid-wave.
    let snap = engine.snapshot();
    let (dataset, forward) = (&snap.dataset, &snap.forward);

    // Resolve every member's query attribute; unknown names answer 400
    // and leave the wave. A query whose own index columns were lost with
    // a quarantined shard answers a typed 503 — a degraded index cannot
    // say anything about that attribute, and an empty 200 would be a lie.
    let mut members: Vec<(Job, QuerySpec, AttrId)> = Vec::with_capacity(wave.len());
    for mut job in wave.drain(..) {
        let spec = spec_of(&job.call);
        match engine.resolve_attr(dataset, &spec.query) {
            Ok(id) => {
                let lost = (!reverse)
                    .then(|| forward.shard_mask())
                    .flatten()
                    .and_then(|m| {
                        m.quarantined().iter().find(|q| id >= q.attr_start && id < q.attr_end)
                    });
                if let Some(q) = lost {
                    tind_obs::counter("serve.shard_unavailable").incr();
                    rt.respond_error(
                        &mut job.stream,
                        &ServeError::shard_unavailable(&spec.query, q.shard),
                    );
                } else {
                    members.push((job, spec, id));
                }
            }
            Err(e) => rt.respond_error(&mut job.stream, &e),
        }
    }

    // Answer cache hits without touching the index. Degraded serving
    // bypasses the cache in both directions: partial results must never
    // be cached, and a cached clean result would omit the `partial`
    // marker a fresh degraded answer carries.
    let direction = if reverse { "reverse" } else { "forward" };
    let cache_live = engine.cache.enabled() && forward.shard_mask().is_none();
    if cache_live {
        let mut misses = Vec::with_capacity(members.len());
        for (mut job, spec, id) in members {
            match engine.cache.get(&(reverse, params_key, id)) {
                Some(outcome) => {
                    tind_obs::counter("serve.cache_hits").incr();
                    let body = search_body(
                        dataset, &spec, id, direction, &params, &outcome, None, &job,
                    );
                    completed.extend(finish_ok(rt, &mut job, &body));
                }
                None => {
                    tind_obs::counter("serve.cache_misses").incr();
                    misses.push((job, spec, id));
                }
            }
        }
        members = misses;
    }
    if members.is_empty() {
        return completed;
    }

    let ids: Vec<AttrId> = members.iter().map(|(_, _, id)| *id).collect();
    let hook = rt.config.fault_hook.clone();
    let calls: Vec<ApiCall> = members.iter().map(|(j, _, _)| j.call.clone()).collect();
    let result = catch_unwind(AssertUnwindSafe(|| -> Vec<Option<SearchOutcome>> {
        if let Some(hook) = &hook {
            for call in &calls {
                hook(call);
            }
        }
        if reverse {
            // No batch entry point for reverse search; the wave still
            // amortizes queue round-trips and shares the deadline token.
            ids.iter()
                .map(|&id| {
                    if wave_token.is_cancelled() {
                        None
                    } else {
                        let _t = tind_obs::trace_only_span(
                            "core.search.query",
                            Some(wave_ctx),
                        );
                        Some(snap.reverse.reverse_search(id, &params))
                    }
                })
                .collect()
        } else {
            forward
                .search_batch_with(
                    &ids,
                    &params,
                    &BatchOptions {
                        threads: 1, // the worker itself is the unit of parallelism
                        cancel: Some(wave_token.clone()),
                        memory_budget: rt.config.memory_budget.clone(),
                        plans: engine
                            .plans
                            .enabled()
                            .then(|| Arc::clone(&engine.plans) as Arc<dyn PlanSource>),
                        // Stage spans land in the wave's trace, under the
                        // shared `serve.wave` span.
                        trace: (wave_ctx.trace_id != 0).then_some(wave_ctx),
                        ..BatchOptions::default()
                    },
                )
                .outcomes
        }
    }));

    match result {
        Err(_) => {
            let mut jobs: Vec<Job> = members.into_iter().map(|(j, _, _)| j).collect();
            quarantine(rt, &mut jobs);
        }
        Ok(outcomes) => {
            // Reverse queries run on the always-in-memory reverse index,
            // so only forward results can be partial.
            let mask = if reverse { None } else { forward.shard_mask() };
            for ((mut job, spec, id), outcome) in members.into_iter().zip(outcomes) {
                match outcome {
                    Some(outcome) => {
                        let outcome = Arc::new(outcome);
                        if cache_live {
                            engine.cache.insert((reverse, params_key, id), outcome.clone());
                        }
                        let body = search_body(
                            dataset, &spec, id, direction, &params, &outcome, mask, &job,
                        );
                        completed.extend(finish_ok(rt, &mut job, &body));
                    }
                    None => respond_cancelled(rt, &mut job, wave_token.reason()),
                }
            }
        }
    }
    completed
}

/// Renders the canonical search response. Everything except
/// `elapsed_ms` is deterministic for a given index and parameter set —
/// the differential suite strips that one field and byte-compares. The
/// `partial`/`quarantined_shards` markers appear **only** when `mask` is
/// present (degraded serving), so clean responses stay byte-stable.
#[allow(clippy::too_many_arguments)]
fn search_body(
    dataset: &Dataset,
    spec: &QuerySpec,
    id: AttrId,
    direction: &str,
    params: &TindParams,
    outcome: &SearchOutcome,
    mask: Option<&ShardMask>,
    job: &Job,
) -> Value {
    let limit = spec.limit.unwrap_or(DEFAULT_LIMIT);
    let results: Vec<Value> = outcome
        .results
        .iter()
        .take(limit)
        .map(|&r| {
            Value::obj([
                ("id", Value::num(f64::from(r))),
                ("name", Value::str(dataset.attribute(r).name())),
            ])
        })
        .collect();
    let s = &outcome.stats;
    let mut body = Value::obj([
        ("query", Value::str(dataset.attribute(id).name())),
        ("direction", Value::str(direction)),
        ("eps", Value::num(params.eps)),
        ("delta", Value::num(f64::from(params.delta))),
        ("result_count", Value::num(outcome.results.len() as f64)),
        ("results", Value::Arr(results)),
        (
            "stats",
            Value::obj([
                ("initial", Value::num(s.initial as f64)),
                ("after_required", Value::num(s.after_required as f64)),
                ("after_slices", Value::num(s.after_slices as f64)),
                ("after_exact", Value::num(s.after_exact as f64)),
                ("validated", Value::num(s.validated as f64)),
                ("slices_used", Value::Bool(s.slices_used)),
                ("validations_run", Value::num(s.validations_run as f64)),
                ("early_valid_exits", Value::num(s.early_valid_exits as f64)),
                ("early_invalid_exits", Value::num(s.early_invalid_exits as f64)),
            ]),
        ),
        ("elapsed_ms", Value::num(elapsed_ms(job))),
    ]);
    if let Some(mask) = mask {
        body.set("partial", Value::Bool(true));
        body.set(
            "quarantined_shards",
            Value::Arr(
                mask.quarantined().iter().map(|q| Value::num(q.shard as f64)).collect(),
            ),
        );
    }
    body
}

fn elapsed_ms(job: &Job) -> f64 {
    job.received.elapsed().as_secs_f64() * 1e3
}

/// A completed request whose trace is collected only after the wave
/// span closes (see [`execute_wave`]): the member's `serve.exec` span
/// parents to `serve.wave`, so collecting before the wave span is
/// recorded would export a trace with a dangling parent edge.
#[derive(Clone, Copy)]
struct PendingTrace {
    ctx: TraceContext,
    wave_trace: u128,
    dur_ns: u64,
    /// Sent with `X-Tind-Trace: 1`: collected as soon as it is offered.
    forced: bool,
}

fn finish_ok(rt: &Runtime, job: &mut Job, body: &Value) -> Option<PendingTrace> {
    tind_obs::histogram("serve.request_latency_ns")
        .record(job.received.elapsed().as_nanos() as u64);
    let end_ns = trace::now_ns();
    let (queued, coalesced, exec) = latency_names(job.endpoint);
    tind_obs::histogram(queued).record(job.popped_ns.saturating_sub(job.received_ns));
    tind_obs::histogram(coalesced).record(job.exec_start_ns.saturating_sub(job.popped_ns));
    tind_obs::histogram(exec).record(end_ns.saturating_sub(job.exec_start_ns));

    let t = job.trace;
    let mut pending = None;
    if t.trace_id != 0 {
        // `serve.exec` parents to the *wave* span — the edge that ties a
        // coalesced member to the shared execution it rode.
        trace::record_span(
            t.child(trace::alloc_span_id()),
            job.wave_span,
            "serve.exec",
            job.exec_start_ns,
            end_ns.saturating_sub(job.exec_start_ns),
        );
        // The root `serve.request` span closes last, covering the whole
        // [received, responded] interval.
        trace::record_span(
            t,
            0,
            "serve.request",
            job.received_ns,
            end_ns.saturating_sub(job.received_ns),
        );
        if job.force_trace || rt.traces.enabled() {
            pending = Some(PendingTrace {
                ctx: t,
                wave_trace: job.wave_trace,
                dur_ns: end_ns.saturating_sub(job.received_ns),
                forced: job.force_trace,
            });
        }
        if job.force_trace {
            let id = format!("0x{:032x}", t.trace_id);
            rt.respond_ok_with(&mut job.stream, &body.to_json(), &[("X-Tind-Trace-Id", &id)]);
            return pending;
        }
    }
    rt.respond_ok(&mut job.stream, body);
    pending
}

/// Answers a cancelled member by the token's latched reason: drain →
/// 503, anything else (deadline, or an interrupt that raced) → 504.
fn respond_cancelled(rt: &Runtime, job: &mut Job, reason: Option<CancelReason>) {
    let err = match reason {
        Some(CancelReason::Drain) => ServeError::draining(),
        _ => {
            rt.c.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
            tind_obs::counter("serve.deadline_timeouts").incr();
            ServeError::deadline_exceeded()
        }
    };
    rt.respond_error(&mut job.stream, &err);
}

/// Answers every member of a panicked wave with a typed 500. The worker
/// thread that caught the panic keeps running.
fn quarantine(rt: &Runtime, jobs: &mut [Job]) {
    for job in jobs {
        rt.c.panics.fetch_add(1, Ordering::Relaxed);
        tind_obs::counter("serve.panics").incr();
        rt.respond_error(&mut job.stream, &ServeError::internal_panic());
    }
}

/// Bounds how long a drain may take: past `drain_grace`, in-flight wave
/// tokens are cancelled with reason `Drain` and still-queued jobs are
/// shed, so the process always exits.
fn drain_watchdog(rt: &Runtime) {
    while rt.state() != STATE_DRAINING {
        std::thread::sleep(Duration::from_millis(10));
    }
    let drain_started = Instant::now();
    while rt.workers_live.load(Ordering::Acquire) > 0 {
        if drain_started.elapsed() >= rt.config.drain_grace {
            rt.forced_drain.store(true, Ordering::Relaxed);
            for slot in &rt.active {
                if let Some(token) = lock(slot).as_ref() {
                    token.cancel_with(CancelReason::Drain);
                }
            }
            for mut job in rt.jobs.drain_all() {
                tind_obs::counter("serve.draining_rejects").incr();
                rt.respond_error(&mut job.stream, &ServeError::draining());
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_core::QueryPlan;
    use tind_model::{DatasetBuilder, HistoryBuilder, Timeline};

    fn small_dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(40));
        b.add_attribute("games", &[(0, vec!["red", "blue"]), (20, vec!["red", "blue", "gold"])], 39);
        b.add_attribute("titles", &[(0, vec!["red", "blue", "gold", "pinball"])], 39);
        b.add_attribute("cities", &[(0, vec!["pallet", "viridian"])], 39);
        Arc::new(b.build())
    }

    /// Successor rewriting attribute 0 and appending one new attribute.
    fn successor(base: &Dataset) -> Arc<Dataset> {
        let tl = base.timeline();
        let mut b = base.clone().into_builder();
        let mut h = HistoryBuilder::new("games");
        let red = base.dictionary().get("red").expect("interned");
        let v = b.dictionary_mut().intern("silver");
        h.push(0, vec![red, v]);
        b.upsert_history(h.finish(tl.last()));
        let mut extra = HistoryBuilder::new("remakes");
        let w = b.dictionary_mut().intern("firered");
        extra.push(5, vec![red, w]);
        b.upsert_history(extra.finish(tl.last()));
        Arc::new(b.build())
    }

    fn constant_params() -> TindParams {
        TindParams::weighted(0.0, 0, WeightFn::constant_one())
    }

    #[test]
    fn trace_store_collects_only_the_traces_it_keeps() {
        static COLLECTED: AtomicU64 = AtomicU64::new(0);
        let store = TraceStore::with_collector(4, |p| {
            COLLECTED.fetch_add(1, Ordering::Relaxed);
            Value::num(p.ctx.trace_id as f64)
        });
        // 400 requests with seeded durations, every 100th one forced.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut requests = Vec::new();
        for id in 1..=400u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (ctx, dur_ns) = (TraceContext { trace_id: u128::from(id), span_id: 1 }, x >> 44);
            store.offer(PendingTrace { ctx, wave_trace: 0, dur_ns, forced: id % 100 == 0 });
            requests.push((dur_ns, id));
        }
        // Collected on offer: the forced ones and each new entrant of the
        // slowest pool — a few dozen, where collecting every completed
        // request would be 400.
        let on_offer = COLLECTED.load(Ordering::Relaxed);
        assert!((4..=60).contains(&on_offer), "{on_offer} collections for 400 requests");

        // Export collects the recent traces not yet collected, once.
        let exported = store.export(None);
        let after_export = COLLECTED.load(Ordering::Relaxed);
        assert!(after_export <= on_offer + 4);
        assert_eq!(store.export(None), exported, "a recent trace is collected once");
        assert_eq!(COLLECTED.load(Ordering::Relaxed), after_export);

        // Slowest first, then most recent first, deduplicated.
        let mut slowest = requests.clone();
        slowest.sort_by_key(|r| std::cmp::Reverse(r.0));
        let mut expect: Vec<u64> = slowest[..4].iter().map(|r| r.1).collect();
        for &(_, id) in requests.iter().rev().take(4) {
            if !expect.contains(&id) {
                expect.push(id);
            }
        }
        let got: Vec<u64> = exported.iter().map(|v| v.as_f64().unwrap() as u64).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn delta_swap_never_double_counts_index_bytes() {
        let d = small_dataset();
        let budget = MemoryBudget::new(1 << 30);
        let engine = Engine::build(d.clone(), 0.0, 0, None, 1)
            .with_memory_accounting(Some(budget.clone()));
        // The reverse index borrows the forward index's M_T: one matrix,
        // charged once.
        let resident = |engine: &Engine| {
            let (forward, reverse) = (engine.forward(), engine.reverse());
            assert!(reverse.shares_full_history(&forward), "one M_T between the directions");
            let shared = forward.m_t().heap_bytes();
            assert!(shared > 0);
            forward.bloom_bytes() + reverse.bloom_bytes() - shared
        };
        let old_bytes = resident(&engine);
        assert_eq!(budget.used_bytes(), old_bytes, "initial charge covers the index");

        engine.apply_delta(successor(&d)).expect("valid successor applies");
        let new_bytes = resident(&engine);
        assert_eq!(budget.used_bytes(), new_bytes, "post-swap charge tracks the new generation");
        // The regression: while old and new generations coexist, only the
        // increment is charged on top of the old footprint — the peak is
        // the larger generation, never the sum of both.
        assert_eq!(budget.peak_bytes(), old_bytes.max(new_bytes));
        assert!(budget.peak_bytes() < old_bytes + new_bytes, "overlap must be charged once");
    }

    #[test]
    fn plan_cache_is_lru_and_verifies_weights() {
        let d = small_dataset();
        let tl = d.timeline();
        let params = constant_params();
        let cache = PlanCache::new(2);
        let artifacts =
            |id: AttrId| QueryPlan::new(d.attribute(id), &params, tl).artifacts();

        cache.put(0, &params, tl, artifacts(0));
        cache.put(1, &params, tl, artifacts(1));
        assert!(cache.get(0, &params, tl).is_some(), "recency refresh for 0");
        cache.put(2, &params, tl, artifacts(2));
        assert!(cache.get(1, &params, tl).is_none(), "1 was least recent — evicted");
        assert!(cache.get(0, &params, tl).is_some());
        assert!(cache.get(2, &params, tl).is_some());

        // Same (ε, δ) under different weights never serves stale plans.
        let other = TindParams::weighted(0.0, 0, WeightFn::exponential(0.5, tl));
        assert!(cache.get(0, &other, tl).is_none());
        assert!(cache.get(0, &params, tl).is_none(), "mismatched entry was dropped");
    }

    #[test]
    fn apply_delta_evicts_touched_plans_and_result_cache_together() {
        let d = small_dataset();
        let tl = d.timeline();
        let params = constant_params();
        let engine = Engine::build(d.clone(), 0.0, 0, None, 1).with_plan_cache(8);
        let plan = |id: AttrId| QueryPlan::new(d.attribute(id), &params, tl).artifacts();
        engine.plans.put(0, &params, tl, plan(0));
        engine.plans.put(2, &params, tl, plan(2));
        assert_eq!(engine.plans.len(), 2);

        let report = engine.apply_delta(successor(&d)).expect("valid successor applies");
        // The successor rewrites attribute 0 (touched) and appends a new
        // one; the untouched attribute 2's plan survives.
        assert_eq!(report.plans_evicted, 1);
        assert!(engine.plans.get(0, &params, tl).is_none());
        assert!(engine.plans.get(2, &params, tl).is_some());
    }
}
