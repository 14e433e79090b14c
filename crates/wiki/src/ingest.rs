//! Resilient streaming ingestion: dump stream → dataset, survivably.
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
//!   (`TINDIC` magic, CRC-32 trailer, source-fingerprint and
//!   config-digest guards — the `core::checkpoint` conventions) persists
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

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tind_model::binio::{
    self, decode_dataset, encode_dataset, put_varint, BinIoError, Reader,
};
use tind_model::checksum;
use tind_model::quarantine::DEFAULT_SAMPLE_CAP;
use tind_model::{Dataset, MemoryBudget, QuarantineReport};

use crate::dump::{DumpConfig, DumpItem, DumpReader, DEFAULT_MAX_PAGE_BYTES};
use crate::pipeline::{panic_message, PipelineConfig, PipelineReport, PipelineSession};

/// Magic bytes identifying a serialized ingestion checkpoint, including a
/// format version.
pub const INGEST_CHECKPOINT_MAGIC: &[u8; 8] = b"TINDIC\x00\x01";

fn corrupt(msg: impl Into<String>) -> BinIoError {
    BinIoError::Corrupt(msg.into())
}

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
        let mut buf = (self.dump.epoch.0 as u64).to_le_bytes().to_vec();
        put_varint(&mut buf, u64::from(self.dump.epoch.1));
        put_varint(&mut buf, u64::from(self.dump.epoch.2));
        put_varint(&mut buf, u64::from(self.pipeline.timeline_days));
        buf.push(u8::from(self.pipeline.drop_vandalism));
        buf.extend_from_slice(&self.pipeline.filters.max_numeric_fraction.to_be_bytes());
        put_varint(&mut buf, self.pipeline.filters.min_versions as u64);
        put_varint(&mut buf, self.pipeline.filters.min_median_cardinality as u64);
        put_varint(&mut buf, self.max_page_bytes as u64);
        tind_model::hash::hash_bytes(&buf)
    }
}

/// Where and how often to persist ingestion checkpoints.
#[derive(Debug, Clone)]
pub struct IngestCheckpointPolicy {
    /// Checkpoint file path (written atomically: temp file + rename).
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
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingestion I/O error: {e}"),
            IngestError::Checkpoint(e) => write!(f, "ingestion checkpoint: {e}"),
            IngestError::ResumeMismatch(m) => write!(f, "cannot resume: {m}"),
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
    /// The extracted dataset — `Some` only for completed runs.
    pub dataset: Option<Dataset>,
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
/// magic and checksum).
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
    /// Pipeline counters as of the checkpoint.
    pub pipeline: PipelineReport,
    /// The partial dataset, encoded with [`encode_dataset`].
    pub dataset_bytes: Vec<u8>,
}

pub(crate) fn put_report(buf: &mut Vec<u8>, r: &PipelineReport) {
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
        put_varint(buf, v as u64);
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
    /// Verifies this checkpoint belongs to the given source and
    /// configuration; a mismatch means the operator pointed a resume at
    /// the wrong file, and blindly continuing would corrupt the dataset.
    pub fn verify_matches(
        &self,
        source_fingerprint: u64,
        config_digest: u64,
    ) -> Result<(), BinIoError> {
        if self.source_fingerprint != source_fingerprint {
            return Err(corrupt(
                "ingest checkpoint fingerprint does not match the dump (wrong or stale checkpoint)",
            ));
        }
        if self.config_digest != config_digest {
            return Err(corrupt(
                "ingest checkpoint was created under different parameters (epoch, timeline, filters, or page cap)",
            ));
        }
        Ok(())
    }

    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let q = self.quarantine.encode();
        let mut buf = Vec::with_capacity(64 + q.len() + self.dataset_bytes.len());
        buf.extend_from_slice(INGEST_CHECKPOINT_MAGIC);
        buf.extend_from_slice(&self.source_fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.config_digest.to_le_bytes());
        put_varint(&mut buf, self.resume_offset);
        put_varint(&mut buf, u64::from(self.next_fallback_page_id));
        put_varint(&mut buf, q.len() as u64);
        buf.extend_from_slice(&q);
        put_report(&mut buf, &self.pipeline);
        put_varint(&mut buf, self.dataset_bytes.len() as u64);
        buf.extend_from_slice(&self.dataset_bytes);
        checksum::append_trailer(&mut buf);
        buf
    }

    /// Deserializes a checkpoint written by [`IngestCheckpoint::encode`],
    /// verifying magic, version, and checksum trailer (the embedded
    /// quarantine report is fully validated; the dataset blob is decoded
    /// by the resume path).
    pub fn decode(bytes: &[u8]) -> Result<IngestCheckpoint, BinIoError> {
        let mut buf = binio::open(bytes, INGEST_CHECKPOINT_MAGIC, "ingest checkpoint")?;
        let source_fingerprint = buf.u64_le("ingest checkpoint header")?;
        let config_digest = buf.u64_le("ingest checkpoint header")?;
        let resume_offset = buf.varint()?;
        let next_fallback_page_id = u32::try_from(buf.varint()?)
            .map_err(|_| corrupt("fallback page id overflows u32"))?;
        let quarantine = QuarantineReport::decode(get_blob(&mut buf, "quarantine")?)?;
        let pipeline = get_report(&mut buf)?;
        let dataset_bytes = get_blob(&mut buf, "dataset")?.to_vec();
        buf.finish("ingest checkpoint")?;
        Ok(IngestCheckpoint {
            source_fingerprint,
            config_digest,
            resume_offset,
            next_fallback_page_id,
            quarantine,
            pipeline,
            dataset_bytes,
        })
    }

    /// Atomically writes the checkpoint (temp file + rename).
    pub fn write_file(&self, path: &Path) -> Result<(), BinIoError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a checkpoint from `path`.
    pub fn read_file(path: &Path) -> Result<IngestCheckpoint, BinIoError> {
        IngestCheckpoint::decode(&std::fs::read(path)?)
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

fn save_checkpoint(
    policy: &IngestCheckpointPolicy,
    source_fingerprint: u64,
    config_digest: u64,
    resume_offset: u64,
    next_fallback_page_id: u32,
    session: &PipelineSession,
    quarantine: &QuarantineReport,
) -> Result<(), IngestError> {
    let cp = IngestCheckpoint {
        source_fingerprint,
        config_digest,
        resume_offset,
        next_fallback_page_id,
        quarantine: quarantine.clone(),
        pipeline: session.report().clone(),
        dataset_bytes: encode_dataset(&session.snapshot()),
    };
    cp.write_file(&policy.path).map_err(IngestError::Checkpoint)
}

/// Runs resilient streaming ingestion over `src`.
///
/// `source_fingerprint` identifies the stream (use
/// [`fingerprint_source`] for files); it is stored in checkpoints and
/// the quarantine report and guards resume.
pub fn ingest_stream<R: Read>(
    mut src: R,
    source_fingerprint: u64,
    config: &IngestConfig,
    mut options: IngestOptions,
) -> Result<IngestOutcome, IngestError> {
    let _run_span = tind_obs::span("wiki.ingest.run");
    let pages_seen_c = tind_obs::counter("ingest.pages_seen");
    let pages_kept_c = tind_obs::counter("ingest.pages_kept");
    // Running mirror of `QuarantineReport::pages_quarantined`; `tind verify
    // --quarantine` cross-checks the reported value against the artifact.
    let quarantined_g = tind_obs::gauge("ingest.quarantined_total");
    let config_digest = config.digest();
    let mut resumed_from = None;
    let mut base_offset = 0u64;
    let mut fallback_page_id = 1_000_000u32;

    let (mut session, mut quarantine) = if options.resume {
        let policy = options.checkpoint.as_ref().ok_or_else(|| {
            IngestError::ResumeMismatch("resume requested without a checkpoint path".into())
        })?;
        let cp = IngestCheckpoint::read_file(&policy.path).map_err(IngestError::Checkpoint)?;
        cp.verify_matches(source_fingerprint, config_digest).map_err(IngestError::Checkpoint)?;
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
        (
            PipelineSession::resume(config.pipeline.clone(), partial, cp.pipeline),
            cp.quarantine,
        )
    } else {
        (
            PipelineSession::new(config.pipeline.clone()),
            QuarantineReport::new(source_fingerprint, config.sample_cap),
        )
    };

    quarantined_g.set(quarantine.pages_quarantined as f64);

    let mut reader = DumpReader::new(src, config.dump.clone())
        .with_max_page_bytes(config.max_page_bytes)
        .with_memory_budget(options.memory_budget.clone())
        .with_base_offset(base_offset)
        .with_fallback_page_id(fallback_page_id);

    let mut since_checkpoint = 0u64;
    loop {
        if options.should_stop.as_ref().is_some_and(|stop| stop()) {
            if let Some(policy) = &options.checkpoint {
                save_checkpoint(
                    policy,
                    source_fingerprint,
                    config_digest,
                    reader.offset(),
                    reader.fallback_page_id(),
                    &session,
                    &quarantine,
                )?;
            }
            let (_, pipeline) = session.finish();
            return Ok(IngestOutcome {
                status: IngestStatus::Cancelled,
                dataset: None,
                quarantine,
                pipeline,
                resumed_from,
            });
        }
        let Some(item) = reader.next() else {
            break;
        };
        let item = match item {
            Ok(item) => item,
            Err(e) => {
                // Best-effort checkpoint so the run can resume after the
                // I/O fault is fixed; the read error is the one reported.
                if let Some(policy) = &options.checkpoint {
                    let _ = save_checkpoint(
                        policy,
                        source_fingerprint,
                        config_digest,
                        reader.offset(),
                        reader.fallback_page_id(),
                        &session,
                        &quarantine,
                    );
                }
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
                let hook = options.fault_hook.clone();
                let hook_ok = match hook {
                    Some(h) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h(page_ordinal)
                    }))
                    .map_err(panic_message),
                    None => Ok(()),
                };
                let pushed = hook_ok.and_then(|()| session.push_page(group.revisions));
                match pushed {
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
            if let Some(policy) = &options.checkpoint {
                save_checkpoint(
                    policy,
                    source_fingerprint,
                    config_digest,
                    reader.offset(),
                    reader.fallback_page_id(),
                    &session,
                    &quarantine,
                )?;
            }
            let (_, pipeline) = session.finish();
            return Ok(IngestOutcome {
                status: IngestStatus::ErrorBudgetExceeded,
                dataset: None,
                quarantine,
                pipeline,
                resumed_from,
            });
        }
        if let Some(progress) = options.progress.as_mut() {
            progress(&IngestProgress {
                pages_seen: quarantine.pages_seen,
                pages_quarantined: quarantine.pages_quarantined,
                offset: reader.offset(),
            });
        }
        since_checkpoint += 1;
        if let Some(policy) = &options.checkpoint {
            if policy.every_pages > 0 && since_checkpoint >= policy.every_pages {
                save_checkpoint(
                    policy,
                    source_fingerprint,
                    config_digest,
                    reader.offset(),
                    reader.fallback_page_id(),
                    &session,
                    &quarantine,
                )?;
                since_checkpoint = 0;
            }
        }
    }

    // Completed: persist a final checkpoint (a resume from it re-reads
    // nothing and rebuilds the identical dataset), then finalize.
    if let Some(policy) = &options.checkpoint {
        save_checkpoint(
            policy,
            source_fingerprint,
            config_digest,
            reader.offset(),
            reader.fallback_page_id(),
            &session,
            &quarantine,
        )?;
    }
    let (dataset, pipeline) = session.finish();
    Ok(IngestOutcome {
        status: IngestStatus::Completed,
        dataset: Some(dataset),
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
        ingest_stream(std::io::Cursor::new(xml.as_bytes()), 7, &config, options)
            .expect("ingests");
        let cp = IngestCheckpoint::read_file(&path).expect("reads");
        assert_eq!(cp.source_fingerprint, 7);
        assert_eq!(cp.quarantine.pages_seen, 3);
        let decoded = IngestCheckpoint::decode(&cp.encode()).expect("roundtrips");
        assert_eq!(decoded, cp);
        // Guards.
        assert!(cp.verify_matches(7, config.digest()).is_ok());
        assert!(cp.verify_matches(8, config.digest()).is_err(), "wrong source");
        assert!(cp.verify_matches(7, IngestConfig::new(41).digest()).is_err(), "wrong config");
        // Corruption.
        let bytes = cp.encode();
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
