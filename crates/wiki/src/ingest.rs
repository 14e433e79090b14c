//! Resilient streaming ingestion: base dataset + dump stream → dataset,
//! survivably.
//!
//! [`ingest_stream`] is the one ingestion driver. It runs over a base
//! dataset: the empty one for a cold ingest (`tind ingest`), an existing
//! one for an update (`tind update`, see [`crate::delta`]).
//!
//! Extraction over a full-history dump is the dominant cost of the whole
//! system (hours at paper scale, §5.1), so this module gives ingestion
//! the same failure model PR 1 gave discovery:
//!
//! * **Quarantine, don't abort.** Every per-page failure — a typed
//!   [`DumpError`], a wikitext-processing panic (caught by
//!   [`PipelineSession::push_page`], mirroring `core::allpairs` panic
//!   isolation), an oversized page, a memory-budget refusal — is counted
//!   and sampled into a [`QuarantineReport`], and the stream continues.
//!   A configurable error budget ([`IngestConfig::max_error_rate`])
//!   aborts the run only when the quarantine *rate* shows the input is
//!   garbage rather than merely imperfect.
//! * **Page-granular checkpoint/resume.** An [`IngestCheckpoint`]
//!   (`TINDIC` magic, or `TINDUC` over a non-empty base; CRC-32 trailer,
//!   source-fingerprint, config-digest and base guards — the
//!   `core::checkpoint` conventions) persists
//!   the byte offset after the last completed page plus the partial
//!   dataset, so a killed ingestion resumes exactly where it stopped and
//!   produces a **byte-identical** dataset: pages are processed
//!   independently in stream order and dictionary interning is
//!   deterministic.
//! * **Bounded memory.** The [`DumpReader`] holds at most one page
//!   (hard-capped) plus constant state, and charges held pages against a
//!   [`MemoryBudget`].
//!
//! Cancellation is cooperative via a plain closure
//! ([`IngestOptions::should_stop`]) rather than `tind_core`'s
//! `CancelToken` — this crate sits below `tind-core` in the dependency
//! graph, and the CLI adapts its token to the closure.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tind_model::binio::{
    self, corrupt, dataset_fingerprint, decode_dataset, encode_dataset, BinIoError, Container,
    Reader, Writer,
};
use tind_model::quarantine::DEFAULT_SAMPLE_CAP;
use tind_model::{Dataset, DatasetBuilder, MemoryBudget, QuarantineReport, Timeline};

use crate::delta::DeltaLog;
use crate::dump::{DumpConfig, DumpItem, DumpReader, DEFAULT_MAX_PAGE_BYTES};
use crate::pipeline::{panic_message, PipelineConfig, PipelineReport, PipelineSession};

/// Magic bytes of the checkpoint of a cold ingest (empty base), including
/// a format version.
pub const INGEST_CHECKPOINT_MAGIC: &[u8; 8] = b"TINDIC\x00\x01";

/// Magic bytes of the checkpoint of a run over a non-empty base (an
/// update), including a format version.
pub const UPDATE_CHECKPOINT_MAGIC: &[u8; 8] = b"TINDUC\x00\x01";

/// Everything that determines *what* an ingestion run produces.
///
/// The [`IngestConfig::digest`] of these parameters guards checkpoint
/// resume: resuming under a different epoch, timeline, filter set, or
/// page cap would silently mix incompatible partial datasets.
/// `max_error_rate` and the sampling knobs are deliberately excluded —
/// they control when a run *aborts*, not what it *produces*.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Dump parsing configuration (epoch).
    pub dump: DumpConfig,
    /// Extraction pipeline configuration (timeline, filters, vandalism).
    pub pipeline: PipelineConfig,
    /// Hard cap on one `<page>` element, in bytes.
    pub max_page_bytes: usize,
    /// Abort once more than this fraction of seen pages is quarantined
    /// (checked only after [`IngestConfig::error_rate_min_pages`]).
    pub max_error_rate: f64,
    /// Minimum pages seen before the error budget is enforced, so one
    /// bad page at the start of a stream does not abort it.
    pub error_rate_min_pages: u64,
    /// Cap on sampled quarantine entries.
    pub sample_cap: usize,
}

impl IngestConfig {
    /// Default configuration over a timeline of `timeline_days`.
    pub fn new(timeline_days: u32) -> Self {
        IngestConfig {
            dump: DumpConfig::default(),
            pipeline: PipelineConfig::new(timeline_days),
            max_page_bytes: DEFAULT_MAX_PAGE_BYTES,
            max_error_rate: 0.05,
            error_rate_min_pages: 20,
            sample_cap: DEFAULT_SAMPLE_CAP,
        }
    }

    /// Digest of the result-determining parameters (see type docs).
    pub fn digest(&self) -> u64 {
        let mut w = Writer::default();
        w.u64_le(self.dump.epoch.0 as u64);
        w.varint(u64::from(self.dump.epoch.1));
        w.varint(u64::from(self.dump.epoch.2));
        w.varint(u64::from(self.pipeline.timeline_days));
        w.u8(u8::from(self.pipeline.drop_vandalism));
        w.f64(self.pipeline.filters.max_numeric_fraction);
        w.varint(self.pipeline.filters.min_versions as u64);
        w.varint(self.pipeline.filters.min_median_cardinality as u64);
        w.varint(self.max_page_bytes as u64);
        tind_model::hash::hash_bytes(w.as_slice())
    }

    /// The empty dataset over this configuration's timeline: the base of
    /// a cold ingest.
    pub fn empty_base(&self) -> Dataset {
        DatasetBuilder::new(Timeline::new(self.pipeline.timeline_days)).build()
    }
}

/// Where and how often to persist ingestion checkpoints.
#[derive(Debug, Clone)]
pub struct IngestCheckpointPolicy {
    /// Checkpoint file path (written by [`binio::write_file`]: temp file,
    /// fsync, rename).
    pub path: PathBuf,
    /// Checkpoint after every N pages (0 = only on cancel/abort).
    pub every_pages: u64,
}

/// Cooperative stop signal, polled once per page.
pub type StopSignal = Arc<dyn Fn() -> bool + Send + Sync>;

/// Test-only fault injection: called with each page's ordinal before the
/// page is processed; a panic here is quarantined exactly like a
/// pipeline panic (mirrors `core::fault` hooks).
pub type PageFaultHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Per-page progress callback.
pub type ProgressFn = Box<dyn FnMut(&IngestProgress)>;

/// Progress snapshot handed to [`IngestOptions::progress`] per page.
#[derive(Debug, Clone, Copy)]
pub struct IngestProgress {
    /// Pages encountered so far.
    pub pages_seen: u64,
    /// Pages quarantined so far.
    pub pages_quarantined: u64,
    /// Absolute stream offset consumed so far.
    pub offset: u64,
}

/// Runtime options of one ingestion run.
pub struct IngestOptions {
    /// Checkpoint persistence (None = never persist).
    pub checkpoint: Option<IngestCheckpointPolicy>,
    /// Resume from the checkpoint at `checkpoint.path` instead of
    /// starting fresh.
    pub resume: bool,
    /// Budget charged for each held page.
    pub memory_budget: MemoryBudget,
    /// Polled once per page; `true` checkpoints and stops.
    pub should_stop: Option<StopSignal>,
    /// Per-page progress callback.
    pub progress: Option<ProgressFn>,
    /// Fault injection for tests.
    pub fault_hook: Option<PageFaultHook>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            checkpoint: None,
            resume: false,
            memory_budget: MemoryBudget::unlimited(),
            should_stop: None,
            progress: None,
            fault_hook: None,
        }
    }
}

/// Errors that abort an ingestion run (everything page-local is
/// quarantined instead).
#[derive(Debug)]
pub enum IngestError {
    /// The source stream failed mid-read.
    Io(std::io::Error),
    /// A checkpoint could not be read, written, or does not belong to
    /// this source/configuration.
    Checkpoint(BinIoError),
    /// Resume was requested but cannot proceed (no checkpoint path, or
    /// the source is shorter than the checkpointed offset).
    ResumeMismatch(String),
    /// The base dataset cannot carry the run: another timeline, or an
    /// attribute name held twice.
    Base(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingestion I/O error: {e}"),
            IngestError::Checkpoint(e) => write!(f, "ingestion checkpoint: {e}"),
            IngestError::ResumeMismatch(m) => write!(f, "cannot resume: {m}"),
            IngestError::Base(m) => write!(f, "unusable base dataset: {m}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// How an ingestion run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestStatus {
    /// The stream was fully consumed.
    Completed,
    /// [`IngestOptions::should_stop`] asked for an early exit; the
    /// checkpoint (if configured) holds the progress.
    Cancelled,
    /// The quarantine rate exceeded [`IngestConfig::max_error_rate`].
    ErrorBudgetExceeded,
}

/// Result of an ingestion run.
pub struct IngestOutcome {
    /// How the run ended.
    pub status: IngestStatus,
    /// The extracted dataset (the base plus this run's pages) — `Some`
    /// only for completed runs.
    pub dataset: Option<Dataset>,
    /// Attribute names this run updated or appended, sorted; empty for a
    /// cold ingest, which keeps no such set (see [`DeltaLog`]).
    pub touched: BTreeSet<String>,
    /// Re-staged columns kept despite failing the attribute filters
    /// (0 for a cold ingest).
    pub filter_downgrades: u64,
    /// Quarantine counters and samples.
    pub quarantine: QuarantineReport,
    /// Extraction pipeline counters.
    pub pipeline: PipelineReport,
    /// Offset this run resumed from, if it did.
    pub resumed_from: Option<u64>,
}

/// Persistent snapshot of an ingestion run after some prefix of pages.
///
/// Follows the workspace on-disk conventions: 8-byte magic+version,
/// varint fields, guard digests, CRC-32 trailer, atomic write. The
/// partial dataset and the quarantine report are embedded as
/// length-prefixed blobs in their own formats (each carrying its own
/// magic and checksum). A cold ingest writes `TINDIC`; a run over a
/// non-empty base writes `TINDUC`, which adds the [`DeltaLog`]: the base
/// fingerprint right after the config digest, the downgrade count after
/// the fallback id, and the touched names before the dataset blob.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestCheckpoint {
    /// Fingerprint of the source stream (see [`fingerprint_source`]).
    pub source_fingerprint: u64,
    /// [`IngestConfig::digest`] of the run's parameters.
    pub config_digest: u64,
    /// Absolute byte offset just past the last completed page.
    pub resume_offset: u64,
    /// Fallback-id counter state (pages without `<id>`), so resumed runs
    /// assign identical ids.
    pub next_fallback_page_id: u32,
    /// Quarantine state as of the checkpoint.
    pub quarantine: QuarantineReport,
    /// Pipeline counters as of the checkpoint (this run's pages only).
    pub pipeline: PipelineReport,
    /// The log of a run over a non-empty base; `None` for a cold ingest.
    pub delta: Option<DeltaLog>,
    /// The partial dataset, encoded with [`encode_dataset`].
    pub dataset_bytes: Vec<u8>,
}

pub(crate) fn put_report<W: Write>(w: &mut Writer<W>, r: &PipelineReport) {
    for v in [
        r.pages,
        r.revisions,
        r.vandalism_dropped,
        r.out_of_range_dropped,
        r.duplicate_dropped,
        r.tables_tracked,
        r.columns_tracked,
        r.attributes_before_filters,
        r.attributes_kept,
    ] {
        w.varint(v as u64);
    }
}

pub(crate) fn get_report(buf: &mut Reader<'_>) -> Result<PipelineReport, BinIoError> {
    let mut next = || -> Result<usize, BinIoError> { Ok(buf.varint()? as usize) };
    Ok(PipelineReport {
        pages: next()?,
        revisions: next()?,
        vandalism_dropped: next()?,
        out_of_range_dropped: next()?,
        duplicate_dropped: next()?,
        tables_tracked: next()?,
        columns_tracked: next()?,
        attributes_before_filters: next()?,
        attributes_kept: next()?,
    })
}

/// A varint-length-prefixed byte run.
pub(crate) fn get_blob<'a>(buf: &mut Reader<'a>, what: &str) -> Result<&'a [u8], BinIoError> {
    let len = buf.varint()? as usize;
    buf.bytes(len, &format!("{what} blob"))
}

impl IngestCheckpoint {
    /// Verifies this checkpoint belongs to the given source, configuration
    /// and base dataset; a mismatch means the operator pointed a resume at
    /// the wrong file, and blindly continuing would corrupt the dataset.
    pub fn verify_matches(
        &self,
        source_fingerprint: u64,
        config_digest: u64,
        base: &Dataset,
    ) -> Result<(), BinIoError> {
        let kind = if self.delta.is_some() { "update" } else { "ingest" };
        if self.source_fingerprint != source_fingerprint {
            return Err(corrupt(format!(
                "{kind} checkpoint fingerprint does not match the dump (wrong or stale checkpoint)"
            )));
        }
        if self.config_digest != config_digest {
            return Err(corrupt(format!(
                "{kind} checkpoint was created under different parameters (epoch, timeline, \
                 filters, or page cap)"
            )));
        }
        let same_base = match &self.delta {
            Some(delta) => delta.base_fingerprint == dataset_fingerprint(base),
            None => base.is_empty(),
        };
        if !same_base {
            return Err(corrupt(format!(
                "{kind} checkpoint was created against a different base dataset"
            )));
        }
        Ok(())
    }

    /// Deserializes a checkpoint written by [`binio::encode`]
    /// (either magic), verifying magic, version, and checksum trailer (the
    /// embedded quarantine report is fully validated; the dataset blob is
    /// decoded by the resume path).
    pub fn decode(bytes: &[u8]) -> Result<IngestCheckpoint, BinIoError> {
        let update = bytes.get(..7) == Some(&UPDATE_CHECKPOINT_MAGIC[..7]);
        let (magic, what) = if update {
            (UPDATE_CHECKPOINT_MAGIC, "update checkpoint")
        } else {
            (INGEST_CHECKPOINT_MAGIC, "ingest checkpoint")
        };
        let mut buf = binio::open(bytes, magic, what)?;
        let header = format!("{what} header");
        let source_fingerprint = buf.u64_le(&header)?;
        let config_digest = buf.u64_le(&header)?;
        let mut delta =
            if update { Some(DeltaLog::new(buf.u64_le(&header)?)) } else { None };
        let resume_offset = buf.varint()?;
        let next_fallback_page_id = u32::try_from(buf.varint()?)
            .map_err(|_| corrupt("fallback page id overflows u32"))?;
        if let Some(delta) = &mut delta {
            delta.filter_downgrades = buf.varint()?;
        }
        let quarantine = QuarantineReport::decode(get_blob(&mut buf, "quarantine")?)?;
        let pipeline = get_report(&mut buf)?;
        if let Some(delta) = &mut delta {
            for _ in 0..buf.varint()? {
                let name = get_blob(&mut buf, "touched name")?;
                let name = std::str::from_utf8(name)
                    .map_err(|_| corrupt("touched name is not UTF-8"))?;
                delta.touched.insert(name.to_owned());
            }
        }
        let dataset_bytes = get_blob(&mut buf, "dataset")?.to_vec();
        buf.finish(what)?;
        Ok(IngestCheckpoint {
            source_fingerprint,
            config_digest,
            resume_offset,
            next_fallback_page_id,
            quarantine,
            pipeline,
            delta,
            dataset_bytes,
        })
    }
}

impl Container for IngestCheckpoint {
    fn magic(&self) -> &'static [u8; 8] {
        match self.delta {
            Some(_) => UPDATE_CHECKPOINT_MAGIC,
            None => INGEST_CHECKPOINT_MAGIC,
        }
    }

    fn write_fields<W: Write>(&self, w: &mut Writer<W>) {
        let delta = self.delta.as_ref();
        w.u64_le(self.source_fingerprint);
        w.u64_le(self.config_digest);
        if let Some(delta) = delta {
            w.u64_le(delta.base_fingerprint);
        }
        w.varint(self.resume_offset);
        w.varint(u64::from(self.next_fallback_page_id));
        if let Some(delta) = delta {
            w.varint(delta.filter_downgrades);
        }
        let q = binio::encode(&self.quarantine);
        w.varint(q.len() as u64);
        w.bytes(&q);
        put_report(w, &self.pipeline);
        if let Some(delta) = delta {
            w.varint(delta.touched.len() as u64);
            for name in &delta.touched {
                w.str(name);
            }
        }
        w.varint(self.dataset_bytes.len() as u64);
        w.bytes(&self.dataset_bytes);
    }
}

/// Fingerprints a dump file cheaply: length plus a hash of the first
/// 64 KiB. Guards checkpoint resume against pointing at a different (or
/// regenerated) dump without re-reading hundreds of gigabytes.
pub fn fingerprint_source(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut head = vec![0u8; 64 * 1024];
    let mut filled = 0usize;
    loop {
        match file.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        if filled == head.len() {
            break;
        }
    }
    let mut buf = Vec::with_capacity(8 + filled);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&head[..filled]);
    Ok(tind_model::hash::hash_bytes(&buf))
}

/// Runs resilient streaming ingestion over `src` on top of `base`.
///
/// A cold ingest passes the empty base ([`IngestConfig::empty_base`]); an
/// update passes the dataset it extends, whose timeline must be the
/// configuration's. Each page is committed by attribute name (see
/// [`PipelineSession`]), so the result over the empty base is exactly the
/// update of the empty dataset by the whole stream.
///
/// `source_fingerprint` identifies the stream (use
/// [`fingerprint_source`] for files); it is stored in checkpoints and
/// the quarantine report and guards resume, together with the base.
pub fn ingest_stream<R: Read>(
    mut src: R,
    source_fingerprint: u64,
    base: Dataset,
    config: &IngestConfig,
    options: IngestOptions,
) -> Result<IngestOutcome, IngestError> {
    let _run_span = tind_obs::span("wiki.ingest.run");
    let pages_seen_c = tind_obs::counter("ingest.pages_seen");
    let pages_kept_c = tind_obs::counter("ingest.pages_kept");
    // Running mirror of `QuarantineReport::pages_quarantined`; `tind verify
    // --quarantine` cross-checks the reported value against the artifact.
    let quarantined_g = tind_obs::gauge("ingest.quarantined_total");
    let IngestOptions { checkpoint, resume, memory_budget, should_stop, mut progress, fault_hook } =
        options;
    let config_digest = config.digest();
    let mut resumed_from = None;
    let mut base_offset = 0u64;
    let mut fallback_page_id = 1_000_000u32;

    let (mut session, mut quarantine) = if resume {
        let policy = checkpoint.as_ref().ok_or_else(|| {
            IngestError::ResumeMismatch("resume requested without a checkpoint path".into())
        })?;
        let bytes = std::fs::read(&policy.path).map_err(|e| IngestError::Checkpoint(e.into()))?;
        let cp = IngestCheckpoint::decode(&bytes).map_err(IngestError::Checkpoint)?;
        cp.verify_matches(source_fingerprint, config_digest, &base)
            .map_err(IngestError::Checkpoint)?;
        drop(base);
        let partial = decode_dataset(&cp.dataset_bytes).map_err(IngestError::Checkpoint)?;
        base_offset = cp.resume_offset;
        fallback_page_id = cp.next_fallback_page_id;
        resumed_from = Some(base_offset);
        // Fast-forward the source to the checkpointed offset.
        let skipped = std::io::copy(&mut (&mut src).take(base_offset), &mut std::io::sink())?;
        if skipped != base_offset {
            return Err(IngestError::ResumeMismatch(format!(
                "source ends after {skipped} bytes, before the checkpoint offset {base_offset}"
            )));
        }
        let session =
            PipelineSession::resume(config.pipeline.clone(), partial, cp.pipeline, cp.delta)
                .map_err(|m| IngestError::Checkpoint(corrupt(m)))?;
        (session, cp.quarantine)
    } else {
        (
            PipelineSession::over(config.pipeline.clone(), base).map_err(IngestError::Base)?,
            QuarantineReport::new(source_fingerprint, config.sample_cap),
        )
    };

    quarantined_g.set(quarantine.pages_quarantined as f64);

    let mut reader = DumpReader::new(src, config.dump.clone())
        .with_max_page_bytes(config.max_page_bytes)
        .with_memory_budget(memory_budget)
        .with_base_offset(base_offset)
        .with_fallback_page_id(fallback_page_id);

    // Persists the progress up to the reader's position, if configured.
    let save = |reader: &DumpReader<R>, session: &PipelineSession, quarantine: &QuarantineReport| {
        let Some(policy) = &checkpoint else {
            return Ok(());
        };
        let cp = IngestCheckpoint {
            source_fingerprint,
            config_digest,
            resume_offset: reader.offset(),
            next_fallback_page_id: reader.fallback_page_id(),
            quarantine: quarantine.clone(),
            pipeline: session.report().clone(),
            delta: session.delta().cloned(),
            dataset_bytes: encode_dataset(&session.snapshot()),
        };
        binio::write_file(&cp, &policy.path).map_err(|e| IngestError::Checkpoint(e.into()))
    };

    let mut since_checkpoint = 0u64;
    let status = loop {
        if should_stop.as_ref().is_some_and(|stop| stop()) {
            save(&reader, &session, &quarantine)?;
            break IngestStatus::Cancelled;
        }
        let item = match reader.next() {
            // Completed: a resume from the final checkpoint re-reads
            // nothing and rebuilds the identical dataset.
            None => {
                save(&reader, &session, &quarantine)?;
                break IngestStatus::Completed;
            }
            Some(Ok(item)) => item,
            Some(Err(e)) => {
                // Best-effort checkpoint so the run can resume after the
                // I/O fault is fixed; the read error is the one reported.
                let _ = save(&reader, &session, &quarantine);
                return Err(IngestError::Io(e));
            }
        };
        let _page_span = tind_obs::span("wiki.ingest.page");
        let page_ordinal = quarantine.pages_seen;
        quarantine.pages_seen += 1;
        pages_seen_c.incr();
        match item {
            DumpItem::Quarantined(q) => {
                quarantine.record(q.byte_offset, q.page, q.error.to_string());
                quarantined_g.set(quarantine.pages_quarantined as f64);
            }
            DumpItem::Page(group) => {
                quarantine.revisions_dropped += group.revisions_dropped;
                let title = group
                    .revisions
                    .last()
                    .map(|r| r.title.clone())
                    .unwrap_or_else(|| "<empty page>".into());
                let revisions = group.revisions.len() as u64;
                let start_offset = group.start_offset;
                // The fault hook runs under the same isolation as the
                // pipeline: a panic quarantines this page only.
                let hook_ok = match &fault_hook {
                    Some(h) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h(page_ordinal)
                    }))
                    .map_err(panic_message),
                    None => Ok(()),
                };
                match hook_ok.and_then(|()| session.push_page(group.revisions)) {
                    Ok(()) => {
                        quarantine.pages_kept += 1;
                        quarantine.revisions_kept += revisions;
                        pages_kept_c.incr();
                    }
                    Err(msg) => {
                        quarantine.record(
                            start_offset,
                            title,
                            format!("page processing panicked: {msg}"),
                        );
                        quarantined_g.set(quarantine.pages_quarantined as f64);
                    }
                }
            }
        }
        if quarantine.pages_seen >= config.error_rate_min_pages
            && quarantine.error_rate() > config.max_error_rate
        {
            save(&reader, &session, &quarantine)?;
            break IngestStatus::ErrorBudgetExceeded;
        }
        if let Some(progress) = progress.as_mut() {
            progress(&IngestProgress {
                pages_seen: quarantine.pages_seen,
                pages_quarantined: quarantine.pages_quarantined,
                offset: reader.offset(),
            });
        }
        since_checkpoint += 1;
        let every = checkpoint.as_ref().map_or(0, |policy| policy.every_pages);
        if every > 0 && since_checkpoint >= every {
            save(&reader, &session, &quarantine)?;
            since_checkpoint = 0;
        }
    };

    let delta = session.delta().cloned().unwrap_or_default();
    let (dataset, pipeline) = session.finish();
    Ok(IngestOutcome {
        status,
        dataset: (status == IngestStatus::Completed).then_some(dataset),
        touched: delta.touched,
        filter_downgrades: delta.filter_downgrades,
        quarantine,
        pipeline,
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_xml(title: &str, id: u32, days: &[u32], games: &[&str]) -> String {
        let mut out = format!("<page><title>{title}</title><id>{id}</id>");
        for (i, day) in days.iter().enumerate() {
            let upto = (5 + i).min(games.len());
            let mut table = String::from("{|\n|+ Games\n! Game\n");
            for g in &games[..upto] {
                table.push_str(&format!("|-\n| {g}\n"));
            }
            table.push_str("|}");
            // Day N relative to the 2001-01-15 epoch, rolling into February.
            let d = 15 + day;
            let (m, d) = if d <= 31 { (1, d) } else { (2, d - 31) };
            out.push_str(&format!(
                "<revision><timestamp>2001-{m:02}-{d:02}T10:00:00Z</timestamp><text>{}</text></revision>",
                table.replace('<', "&lt;")
            ));
        }
        out.push_str("</page>");
        out
    }

    fn small_dump() -> String {
        let games = [
            "Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl",
            "Diamond", "Platinum", "Black",
        ];
        let days = [0u32, 3, 6, 9, 12, 15, 18, 21];
        let mut xml = String::from("<mediawiki>\n");
        for (i, title) in ["Alpha", "Beta", "Gamma"].iter().enumerate() {
            xml.push_str(&page_xml(title, i as u32 + 1, &days, &games));
            xml.push('\n');
        }
        xml.push_str("</mediawiki>");
        xml
    }

    #[test]
    fn clean_stream_completes_with_reconciled_counts() {
        let xml = small_dump();
        let config = IngestConfig::new(40);
        let outcome = ingest_stream(
            std::io::Cursor::new(xml.as_bytes()),
            7,
            config.empty_base(),
            &config,
            IngestOptions::default(),
        )
        .expect("ingests");
        assert_eq!(outcome.status, IngestStatus::Completed);
        assert_eq!(outcome.quarantine.pages_seen, 3);
        assert_eq!(outcome.quarantine.pages_kept, 3);
        assert_eq!(outcome.quarantine.pages_quarantined, 0);
        assert_eq!(outcome.pipeline.pages, 3);
        let dataset = outcome.dataset.expect("completed");
        assert_eq!(dataset.len(), 3, "one Game column per page");
    }

    #[test]
    fn checkpoint_roundtrip_and_guards() {
        let xml = small_dump();
        let dir = std::env::temp_dir().join("tind-wiki-ingest-cp-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.tic");
        let config = IngestConfig::new(40);
        let options = IngestOptions {
            checkpoint: Some(IngestCheckpointPolicy { path: path.clone(), every_pages: 1 }),
            ..IngestOptions::default()
        };
        ingest_stream(std::io::Cursor::new(xml.as_bytes()), 7, config.empty_base(), &config, options)
            .expect("ingests");
        let cp = IngestCheckpoint::decode(&std::fs::read(&path).expect("reads")).expect("decodes");
        assert_eq!(cp.source_fingerprint, 7);
        assert_eq!(cp.quarantine.pages_seen, 3);
        let decoded = IngestCheckpoint::decode(&binio::encode(&cp)).expect("roundtrips");
        assert_eq!(decoded, cp);
        // Guards.
        let empty = config.empty_base();
        assert!(cp.verify_matches(7, config.digest(), &empty).is_ok());
        assert!(cp.verify_matches(8, config.digest(), &empty).is_err(), "wrong source");
        assert!(
            cp.verify_matches(7, IngestConfig::new(41).digest(), &empty).is_err(),
            "wrong config"
        );
        // Corruption.
        let bytes = binio::encode(&cp);
        for cut in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(IngestCheckpoint::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for bit in (0..bytes.len() * 8).step_by(97) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(IngestCheckpoint::decode(&bad).is_err(), "bit {bit}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_digest_distinguishes_parameters() {
        let base = IngestConfig::new(40);
        let d0 = base.digest();
        assert_eq!(d0, IngestConfig::new(40).digest());
        let mut c = IngestConfig::new(40);
        c.dump.epoch = (2001, 1, 1);
        assert_ne!(d0, c.digest());
        let mut c = IngestConfig::new(40);
        c.pipeline.drop_vandalism = true;
        assert_ne!(d0, c.digest());
        let mut c = IngestConfig::new(40);
        c.max_page_bytes = 1234;
        assert_ne!(d0, c.digest());
        let mut c = IngestConfig::new(40);
        c.max_error_rate = 0.9; // abort knob: not part of the digest
        assert_eq!(d0, c.digest());
    }
}
