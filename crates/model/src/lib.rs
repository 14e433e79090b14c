//! # tind-model
//!
//! The temporal data model underlying temporal inclusion dependency (tIND)
//! discovery, as defined in *"Efficient Discovery of Temporal Inclusion
//! Dependencies in Wikipedia Tables"* (EDBT 2024).
//!
//! The model follows Section 3.1 of the paper:
//!
//! * Time is a sequence of equidistant timestamps `t ∈ {0, 1, .., n-1}`
//!   (daily granularity in the paper). See [`time`].
//! * An *attribute* is a column of a (Wikipedia) table together with its full
//!   version history: a sequence of value sets, each valid from its start
//!   timestamp until the next change. See [`history`].
//! * Values are strings interned into compact [`value::ValueId`]s by a
//!   [`value::Dictionary`]; all set operations work on ids.
//! * A [`dataset::Dataset`] bundles a timeline, a dictionary and a collection
//!   of attribute histories — the input `D` of the discovery problem.
//! * Timestamp weight functions `w` (Definition 3.6) live in [`weights`],
//!   including the exponential-decay family with `O(1)` closed-form interval
//!   sums (Equation 5).
//!
//! ## Conventions
//!
//! `A[t]` for a timestamp outside the attribute's observation period is the
//! empty set. The empty set is included in every set and includes nothing, so
//! an unobservable left-hand side never contributes violations. This is the
//! convention used consistently by `tind-core`'s validators and index.

pub mod binio;
pub mod checksum;
pub mod dataset;
pub mod diff;
pub mod hash;
pub mod history;
pub mod memory;
pub mod quarantine;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod time;
pub mod value;
pub mod weights;

pub use dataset::{AttrId, Dataset, DatasetBuilder};
pub use memory::{Charge, MemoryBudget};
pub use quarantine::{QuarantineEntry, QuarantineReport};
pub use history::{AttributeHistory, HistoryBuilder, Version};
pub use table::{TableVersion, TemporalTable, TupleInterner};
pub use time::{Interval, Timeline, Timestamp};
pub use value::{Dictionary, ValueId, ValueSet};
pub use weights::{WeightFn, WeightTable};
