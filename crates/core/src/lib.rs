//! # tind-core
//!
//! The paper's primary contribution: definitions, validation, indexing and
//! search for **temporal inclusion dependencies** (tINDs).
//!
//! A w-weighted ε,δ-relaxed tIND `Q ⊆_{w,ε,δ} A` (Definition 3.6) holds if
//! the summed weight of timestamps at which `Q[t]` is *not* δ-contained in
//! `A` stays within the violation budget ε. All simpler variants (strict,
//! ε-relaxed, ε,δ-relaxed) are special cases obtained through
//! [`TindParams`] constructors.
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`params`] | §3.3 | the (ε, δ, w) parameter triple and variant constructors |
//! | [`validate`] | §4.3 | Algorithm 2 (interval-partitioned validation) + a naive reference validator |
//! | [`required`] | §4.2.1 | required values `R_{ε,w}(Q)` |
//! | [`slices`] | §4.4 | time-slice interval selection (length sizing, random / weighted-random starts) |
//! | [`index`] | §4.2 | the chained Bloom-matrix index (`M_T`, `M_{I_1..I_k}`, `M_R`); sequential and parallel (bit-identical) builds |
//! | [`search`] | §4.2, Alg. 1 | tIND search with candidate pruning and violation tracking; batched multi-query kernel |
//! | [`reverse`] | §4.5 | reverse tIND search (`A ⊆ Q`) |
//! | [`allpairs`] | §3.5 | parallel all-pairs discovery (fault-tolerant: checkpoint/resume, panic quarantine, cancellation) |
//! | [`checkpoint`] | — | checksummed, fingerprint-guarded progress checkpoints |
//! | [`store`] | — | crash-safe sharded index store: atomic commits, quarantine, repair |
//! | [`cancel`] | — | cooperative cancellation tokens (incl. Ctrl-C wiring) |
//! | [`fault`] | — | deterministic fault injection for tests |
//!
//! ## Quick example
//!
//! ```
//! use tind_model::{DatasetBuilder, Timeline};
//! use tind_core::{IndexConfig, TindIndex, TindParams};
//!
//! let mut b = DatasetBuilder::new(Timeline::new(30));
//! b.add_attribute("games", &[(0, vec!["red", "blue"])], 29);
//! b.add_attribute("all titles", &[(0, vec!["red", "blue", "gold"])], 29);
//! let dataset = std::sync::Arc::new(b.build());
//!
//! let index = TindIndex::build(dataset.clone(), IndexConfig::default());
//! let params = TindParams::strict();
//! let hits = index.search(0, &params).results;
//! assert_eq!(hits, vec![1]); // "games" is temporally included in "all titles"
//! ```

pub mod allpairs;
pub mod cancel;
pub mod checkpoint;
pub mod delta;
pub mod explain;
pub mod fault;
pub mod index;
pub mod nary;
mod par;
pub mod params;
pub mod persist;
pub mod required;
pub mod reverse;
pub mod search;
pub mod slices;
pub mod store;
mod sync;
pub mod topk;
pub mod validate;

pub mod partial;

pub use allpairs::{
    discover_all_pairs, AllPairsError, AllPairsOptions, AllPairsOutcome, CheckpointPolicy,
};
pub use cancel::{CancelReason, CancelToken};
pub use checkpoint::Checkpoint;
pub use delta::{refresh_pairs, DatasetDelta, DeltaError, DeltaReport, RefreshReport};
pub use index::{BuildOptions, IndexConfig, MaskedShard, ShardMask, TindIndex};
pub use params::TindParams;
pub use search::{BatchOptions, BatchOutcome, SearchOptions, SearchOutcome, SearchStats};
pub use slices::{SliceConfig, SliceStrategy};
pub use store::{
    open_store, open_store_with, pack_store, repair_store, verify_store,
    LoadReport, OpenOptions, PackOptions, PackReport, RepairOptions, RepairReport, ShardFault,
    ShardFormat, StoreBacking, StoreError, VerifyReport,
};
pub use validate::{PlanArtifacts, PlanSource, QueryPlan, ValidationCounters, ValidationScratch};
