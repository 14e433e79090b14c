//! # tind-wiki
//!
//! The Wikipedia-table extraction substrate (§5.1 of the paper).
//!
//! The paper's dataset is produced by a pipeline over raw page revision
//! history: extract tables from wikitext, match tables across revisions,
//! match columns across table versions, aggregate to daily snapshots, and
//! apply cleaning filters. This crate implements that pipeline:
//!
//! | module | §5.1 step |
//! |---|---|
//! | [`revision`] | page revision stream model |
//! | [`wikitext`] | wikitext table parsing (`{| .. |}` blocks) |
//! | [`table_match`] | matching tables across revisions of a page |
//! | [`column_match`] | matching columns across versions of a table |
//! | [`aggregate`] | daily snapshots — the version valid longest in a day wins |
//! | [`preprocess`] | link resolution, null unification, numeric-attribute and version/cardinality filters |
//! | [`pipeline`] | end-to-end: revisions → [`tind_model::Dataset`] |
//! | [`dump`] | bounded-memory streaming reader for XML-style dump exports |
//! | [`ingest`] | the one ingestion driver: quarantine, error budget, checkpoint/resume |
//! | [`delta`] | ingestion over a non-empty base: page-granular updates of a dataset |
//!
//! Real Wikipedia dumps are not available in this environment; the
//! `tind-datagen` crate renders synthetic revision streams with the same
//! structure so the pipeline runs end-to-end (see DESIGN.md §2).

pub mod aggregate;
pub mod column_match;
pub mod delta;
pub mod dump;
pub mod ingest;
pub mod pipeline;
pub mod preprocess;
pub mod revision;
pub mod table_match;
pub mod tables;
pub mod vandalism;
pub mod wikitext;

pub use delta::DeltaLog;
pub use dump::{DumpConfig, DumpItem, DumpReader};
pub use ingest::{
    fingerprint_source, ingest_stream, IngestCheckpoint, IngestCheckpointPolicy, IngestConfig,
    IngestError, IngestOptions, IngestOutcome, IngestStatus,
};
pub use pipeline::{extract_dataset, PipelineConfig, PipelineReport, PipelineSession};
pub use revision::PageRevision;
pub use tables::extract_temporal_tables;
pub use wikitext::{parse_tables, RawTable};
