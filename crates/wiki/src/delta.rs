//! Delta extraction: a base dataset plus a stream of page revisions →
//! the merged dataset and the set of touched attribute names.
//!
//! This is the wiki-layer half of live updates (`tind update`): the
//! core-layer half (`core::delta`) diffs the merged dataset against the
//! base and folds the difference into an existing index. The split keeps
//! the dependency graph clean — this crate sits below `tind-core`, so it
//! speaks only model-level types.
//!
//! # Model
//!
//! A delta stream carries page-granular batches, exactly like a dump:
//! for each page either its **full** revision history (a page revised
//! since the base was ingested — re-staged from scratch, because
//! [`crate::pipeline::stage_page`] is a pure function of the complete
//! revision list) or a page the base never saw. Committing upserts by
//! attribute name ([`tind_model::DatasetBuilder::upsert_history`]), so
//! ids stay stable — the contract `core::delta::DatasetDelta::diff`
//! enforces.
//!
//! Two deliberate deviations from a cold re-ingest, both surfaced in the
//! [`UpdateOutcome`]:
//!
//! * **Dictionary order.** New values are interned at delta time, after
//!   every base value; a cold re-ingest of the combined stream would
//!   interleave them. Value *ids* of base values are unchanged (append-
//!   only dictionary), so search results are identical; only the raw
//!   dataset encodings differ.
//! * **Filter downgrades.** A re-staged column that no longer passes the
//!   §5.1 attribute filters cannot be deleted without renumbering ids, so
//!   its updated history is kept and counted in
//!   [`UpdateOutcome::filter_downgrades`]; a cold re-ingest
//!   (`tind ingest` over the full stream) resolves them.
//!
//! The update checkpoint (`TINDUC` magic) follows the workspace on-disk
//! conventions: 8-byte magic+version, guard digests (source fingerprint,
//! config digest, **base-dataset fingerprint**), varint fields, CRC-32
//! trailer, atomic write. Corruption anywhere is refused with the failing
//! byte offset via the checksum trailer.

use std::collections::BTreeSet;
use std::io::Read;
use std::path::Path;

use tind_model::binio::{
    self, dataset_fingerprint, decode_dataset, encode_dataset, put_str, put_varint, BinIoError,
};
use tind_model::checksum;
use tind_model::hash::FastSet;
use tind_model::{Dataset, DatasetBuilder, QuarantineReport, Timeline};

use crate::aggregate::build_history;
use crate::dump::{DumpItem, DumpReader};
use crate::ingest::{
    fingerprint_source, get_blob, get_report, put_report, IngestCheckpointPolicy, IngestConfig,
    IngestError, IngestOptions, IngestProgress, IngestStatus,
};
use crate::pipeline::{panic_message, stage_page, PipelineConfig, PipelineReport, StagedPage};
use crate::revision::PageRevision;

/// Magic bytes identifying a serialized update (delta-ingestion)
/// checkpoint, including a format version.
pub const UPDATE_CHECKPOINT_MAGIC: &[u8; 8] = b"TINDUC\x00\x01";

fn corrupt(msg: impl Into<String>) -> BinIoError {
    BinIoError::Corrupt(msg.into())
}

/// Incremental delta session: a [`crate::pipeline::PipelineSession`]
/// variant seeded from a base dataset, committing by upsert instead of
/// append, and tracking which attribute names it touched.
pub struct DeltaExtractor {
    config: PipelineConfig,
    builder: DatasetBuilder,
    report: PipelineReport,
    /// Names present in the builder (base + upserts so far); saves a
    /// linear scan per staged column.
    names: FastSet<String>,
    touched: BTreeSet<String>,
    filter_downgrades: usize,
}

impl DeltaExtractor {
    /// Starts a delta session on top of `base`.
    ///
    /// # Panics
    /// Panics if the base timeline does not match `config.timeline_days`
    /// (a delta may only add revisions within the indexed timeline).
    pub fn new(config: PipelineConfig, base: Dataset) -> Self {
        assert_eq!(
            base.timeline(),
            Timeline::new(config.timeline_days),
            "delta timeline must match the base dataset's"
        );
        let names = base.attributes().iter().map(|h| h.name().to_owned()).collect();
        DeltaExtractor {
            config,
            builder: base.into_builder(),
            report: PipelineReport::default(),
            names,
            touched: BTreeSet::new(),
            filter_downgrades: 0,
        }
    }

    /// Resumes a delta session from checkpointed state: the partial
    /// merged dataset plus the delta-run counters.
    pub fn resume(
        config: PipelineConfig,
        partial: Dataset,
        report: PipelineReport,
        touched: BTreeSet<String>,
        filter_downgrades: usize,
    ) -> Self {
        let names = partial.attributes().iter().map(|h| h.name().to_owned()).collect();
        DeltaExtractor {
            config,
            builder: partial.into_builder(),
            report,
            names,
            touched,
            filter_downgrades,
        }
    }

    /// Delta-run counters so far (pages/revisions of the delta stream
    /// only, not the base).
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// Attribute names upserted so far, sorted.
    pub fn touched(&self) -> &BTreeSet<String> {
        &self.touched
    }

    /// Re-staged columns kept despite no longer passing the attribute
    /// filters (see module docs).
    pub fn filter_downgrades(&self) -> usize {
        self.filter_downgrades
    }

    /// Processes all revisions of one delta page under the same panic
    /// isolation as [`crate::pipeline::PipelineSession::push_page`]: a
    /// panic is returned as `Err(message)` before any session state is
    /// touched, so the caller can quarantine the page and continue.
    pub fn push_page(&mut self, page_revs: Vec<PageRevision>) -> Result<(), String> {
        let _span = tind_obs::span("wiki.delta.page");
        let config = self.config.clone();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stage_page(page_revs, &config)
        })) {
            Ok(staged) => {
                self.commit(staged);
                Ok(())
            }
            Err(payload) => Err(panic_message(payload)),
        }
    }

    /// Stage B of the delta path: intern, filter, and upsert. Mirrors
    /// `pipeline::commit_staged` except that existing columns replace
    /// their history in place (keeping their id) and are exempt from the
    /// keep-filters (they cannot be deleted without renumbering).
    fn commit(&mut self, staged: StagedPage) {
        self.report.vandalism_dropped += staged.vandalism_dropped;
        self.report.duplicate_dropped += staged.duplicate_dropped;
        if staged.revisions == 0 {
            return;
        }
        self.report.pages += 1;
        self.report.revisions += staged.revisions;
        self.report.out_of_range_dropped += staged.out_of_range_dropped;
        self.report.tables_tracked += staged.tables_tracked;
        self.report.columns_tracked += staged.columns_tracked;
        for col in staged.columns {
            let dict = self.builder.dictionary_mut();
            let Some(history) = build_history(&col.name, &col.daily, |s| dict.intern(s)) else {
                continue;
            };
            self.report.attributes_before_filters += 1;
            let keep = {
                let dict = self.builder.dictionary();
                self.config.filters.keep(&history, |v| dict.resolve(v).to_string())
            };
            let exists = self.names.contains(history.name());
            if !keep && !exists {
                continue;
            }
            if !keep {
                self.filter_downgrades += 1;
            }
            let name = history.name().to_owned();
            self.builder.upsert_history(history);
            self.report.attributes_kept += usize::from(!exists);
            self.names.insert(name.clone());
            self.touched.insert(name);
        }
    }

    /// Snapshot of the merged dataset so far (the session continues).
    pub fn snapshot(&self) -> Dataset {
        self.builder.clone().build()
    }

    /// Finalizes: the merged dataset plus the touched names.
    pub fn finish(self) -> (Dataset, PipelineReport, BTreeSet<String>) {
        (self.builder.build(), self.report, self.touched)
    }
}

/// Persistent snapshot of an update run after some prefix of delta pages
/// (`TINDUC` magic). Mirrors [`crate::ingest::IngestCheckpoint`] with two
/// additions: the **base-dataset fingerprint** (resuming against a
/// different base would splice incompatible histories) and the
/// touched-name set (needed to diff only what the delta changed).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateCheckpoint {
    /// Fingerprint of the delta source stream.
    pub source_fingerprint: u64,
    /// [`IngestConfig::digest`] of the run's parameters.
    pub config_digest: u64,
    /// [`dataset_fingerprint`] of the base dataset the run started from.
    pub base_fingerprint: u64,
    /// Absolute byte offset just past the last completed delta page.
    pub resume_offset: u64,
    /// Fallback-id counter state, as in the ingest checkpoint.
    pub next_fallback_page_id: u32,
    /// Re-staged columns kept despite failing the filters, so far.
    pub filter_downgrades: u64,
    /// Quarantine state as of the checkpoint.
    pub quarantine: QuarantineReport,
    /// Delta-run pipeline counters as of the checkpoint.
    pub pipeline: PipelineReport,
    /// Attribute names touched so far, sorted.
    pub touched: BTreeSet<String>,
    /// The partial merged dataset, encoded with [`encode_dataset`].
    pub dataset_bytes: Vec<u8>,
}

impl UpdateCheckpoint {
    /// Verifies this checkpoint belongs to the given delta source, run
    /// configuration, and base dataset.
    pub fn verify_matches(
        &self,
        source_fingerprint: u64,
        config_digest: u64,
        base_fingerprint: u64,
    ) -> Result<(), BinIoError> {
        if self.source_fingerprint != source_fingerprint {
            return Err(corrupt(
                "update checkpoint fingerprint does not match the delta stream (wrong or stale \
                 checkpoint)",
            ));
        }
        if self.config_digest != config_digest {
            return Err(corrupt(
                "update checkpoint was created under different parameters (epoch, timeline, \
                 filters, or page cap)",
            ));
        }
        if self.base_fingerprint != base_fingerprint {
            return Err(corrupt(
                "update checkpoint was created against a different base dataset",
            ));
        }
        Ok(())
    }

    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let q = self.quarantine.encode();
        let mut buf = Vec::with_capacity(96 + q.len() + self.dataset_bytes.len());
        buf.extend_from_slice(UPDATE_CHECKPOINT_MAGIC);
        buf.extend_from_slice(&self.source_fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.config_digest.to_le_bytes());
        buf.extend_from_slice(&self.base_fingerprint.to_le_bytes());
        put_varint(&mut buf, self.resume_offset);
        put_varint(&mut buf, u64::from(self.next_fallback_page_id));
        put_varint(&mut buf, self.filter_downgrades);
        put_varint(&mut buf, q.len() as u64);
        buf.extend_from_slice(&q);
        put_report(&mut buf, &self.pipeline);
        put_varint(&mut buf, self.touched.len() as u64);
        for name in &self.touched {
            put_str(&mut buf, name);
        }
        put_varint(&mut buf, self.dataset_bytes.len() as u64);
        buf.extend_from_slice(&self.dataset_bytes);
        checksum::append_trailer(&mut buf);
        buf
    }

    /// Deserializes a checkpoint written by [`UpdateCheckpoint::encode`],
    /// verifying magic, version, and checksum trailer.
    pub fn decode(bytes: &[u8]) -> Result<UpdateCheckpoint, BinIoError> {
        let mut buf = binio::open(bytes, UPDATE_CHECKPOINT_MAGIC, "update checkpoint")?;
        let source_fingerprint = buf.u64_le("update checkpoint header")?;
        let config_digest = buf.u64_le("update checkpoint header")?;
        let base_fingerprint = buf.u64_le("update checkpoint header")?;
        let resume_offset = buf.varint()?;
        let next_fallback_page_id = u32::try_from(buf.varint()?)
            .map_err(|_| corrupt("fallback page id overflows u32"))?;
        let filter_downgrades = buf.varint()?;
        let quarantine = QuarantineReport::decode(get_blob(&mut buf, "quarantine")?)?;
        let pipeline = get_report(&mut buf)?;
        let touched_len = buf.varint()? as usize;
        let mut touched = BTreeSet::new();
        for _ in 0..touched_len {
            let name = get_blob(&mut buf, "touched name")?;
            let name =
                std::str::from_utf8(name).map_err(|_| corrupt("touched name is not UTF-8"))?;
            touched.insert(name.to_owned());
        }
        let dataset_bytes = get_blob(&mut buf, "dataset")?.to_vec();
        buf.finish("update checkpoint")?;
        Ok(UpdateCheckpoint {
            source_fingerprint,
            config_digest,
            base_fingerprint,
            resume_offset,
            next_fallback_page_id,
            filter_downgrades,
            quarantine,
            pipeline,
            touched,
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
    pub fn read_file(path: &Path) -> Result<UpdateCheckpoint, BinIoError> {
        UpdateCheckpoint::decode(&std::fs::read(path)?)
    }
}

/// Result of an update (delta-ingestion) run.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// How the run ended (same state machine as ingestion).
    pub status: IngestStatus,
    /// The merged dataset — `Some` only for completed runs.
    pub dataset: Option<Dataset>,
    /// Attribute names the delta touched (updated or appended), sorted.
    /// Populated only for completed runs.
    pub touched: BTreeSet<String>,
    /// Re-staged columns kept despite failing the attribute filters.
    pub filter_downgrades: u64,
    /// Quarantine counters and samples (delta stream only).
    pub quarantine: QuarantineReport,
    /// Delta-run pipeline counters.
    pub pipeline: PipelineReport,
    /// Offset this run resumed from, if it did.
    pub resumed_from: Option<u64>,
}

#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    policy: &IngestCheckpointPolicy,
    source_fingerprint: u64,
    config_digest: u64,
    base_fingerprint: u64,
    resume_offset: u64,
    next_fallback_page_id: u32,
    extractor: &DeltaExtractor,
    quarantine: &QuarantineReport,
) -> Result<(), IngestError> {
    let cp = UpdateCheckpoint {
        source_fingerprint,
        config_digest,
        base_fingerprint,
        resume_offset,
        next_fallback_page_id,
        filter_downgrades: extractor.filter_downgrades() as u64,
        quarantine: quarantine.clone(),
        pipeline: extractor.report().clone(),
        touched: extractor.touched().clone(),
        dataset_bytes: encode_dataset(&extractor.snapshot()),
    };
    cp.write_file(&policy.path).map_err(IngestError::Checkpoint)
}

/// Runs resilient delta ingestion over `src` on top of `base`: the
/// update-path sibling of [`crate::ingest::ingest_stream`], sharing its
/// configuration, options, failure model (per-page quarantine, error
/// budget, page-granular checkpoint/resume, cooperative cancellation),
/// and determinism contract — any interrupted run resumed from its
/// checkpoint produces a byte-identical merged dataset.
pub fn update_stream<R: Read>(
    mut src: R,
    source_fingerprint: u64,
    base: Dataset,
    config: &IngestConfig,
    mut options: IngestOptions,
) -> Result<UpdateOutcome, IngestError> {
    let _run_span = tind_obs::span("wiki.update.run");
    let pages_seen_c = tind_obs::counter("update.pages_seen");
    let pages_kept_c = tind_obs::counter("update.pages_kept");
    let config_digest = config.digest();
    let base_fingerprint = dataset_fingerprint(&base);
    let mut resumed_from = None;
    let mut base_offset = 0u64;
    let mut fallback_page_id = 1_000_000u32;

    let (mut extractor, mut quarantine) = if options.resume {
        let policy = options.checkpoint.as_ref().ok_or_else(|| {
            IngestError::ResumeMismatch("resume requested without a checkpoint path".into())
        })?;
        let cp = UpdateCheckpoint::read_file(&policy.path).map_err(IngestError::Checkpoint)?;
        cp.verify_matches(source_fingerprint, config_digest, base_fingerprint)
            .map_err(IngestError::Checkpoint)?;
        let partial = decode_dataset(&cp.dataset_bytes).map_err(IngestError::Checkpoint)?;
        base_offset = cp.resume_offset;
        fallback_page_id = cp.next_fallback_page_id;
        resumed_from = Some(base_offset);
        let skipped = std::io::copy(&mut (&mut src).take(base_offset), &mut std::io::sink())?;
        if skipped != base_offset {
            return Err(IngestError::ResumeMismatch(format!(
                "delta source ends after {skipped} bytes, before the checkpoint offset \
                 {base_offset}"
            )));
        }
        (
            DeltaExtractor::resume(
                config.pipeline.clone(),
                partial,
                cp.pipeline,
                cp.touched,
                cp.filter_downgrades as usize,
            ),
            cp.quarantine,
        )
    } else {
        (
            DeltaExtractor::new(config.pipeline.clone(), base),
            QuarantineReport::new(source_fingerprint, config.sample_cap),
        )
    };

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
                    base_fingerprint,
                    reader.offset(),
                    reader.fallback_page_id(),
                    &extractor,
                    &quarantine,
                )?;
            }
            return Ok(UpdateOutcome {
                status: IngestStatus::Cancelled,
                dataset: None,
                touched: BTreeSet::new(),
                filter_downgrades: extractor.filter_downgrades() as u64,
                quarantine,
                pipeline: extractor.report().clone(),
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
                        base_fingerprint,
                        reader.offset(),
                        reader.fallback_page_id(),
                        &extractor,
                        &quarantine,
                    );
                }
                return Err(IngestError::Io(e));
            }
        };
        let _page_span = tind_obs::span("wiki.update.page");
        let page_ordinal = quarantine.pages_seen;
        quarantine.pages_seen += 1;
        pages_seen_c.incr();
        match item {
            DumpItem::Quarantined(q) => {
                quarantine.record(q.byte_offset, q.page, q.error.to_string());
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
                let hook = options.fault_hook.clone();
                let hook_ok = match hook {
                    Some(h) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        h(page_ordinal)
                    }))
                    .map_err(panic_message),
                    None => Ok(()),
                };
                let pushed = hook_ok.and_then(|()| extractor.push_page(group.revisions));
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
                    base_fingerprint,
                    reader.offset(),
                    reader.fallback_page_id(),
                    &extractor,
                    &quarantine,
                )?;
            }
            return Ok(UpdateOutcome {
                status: IngestStatus::ErrorBudgetExceeded,
                dataset: None,
                touched: BTreeSet::new(),
                filter_downgrades: extractor.filter_downgrades() as u64,
                quarantine,
                pipeline: extractor.report().clone(),
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
                    base_fingerprint,
                    reader.offset(),
                    reader.fallback_page_id(),
                    &extractor,
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
            base_fingerprint,
            reader.offset(),
            reader.fallback_page_id(),
            &extractor,
            &quarantine,
        )?;
    }
    let filter_downgrades = extractor.filter_downgrades() as u64;
    let (dataset, pipeline, touched) = extractor.finish();
    Ok(UpdateOutcome {
        status: IngestStatus::Completed,
        dataset: Some(dataset),
        touched,
        filter_downgrades,
        quarantine,
        pipeline,
        resumed_from,
    })
}

/// Fingerprints a delta stream file; identical to
/// [`fingerprint_source`], re-exported here so update callers need only
/// this module.
pub fn fingerprint_delta(path: &Path) -> std::io::Result<u64> {
    fingerprint_source(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{extract_dataset, PipelineSession};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Renders a one-table page revision.
    fn games_page(pid: u32, title: &str, day: u32, games: &[&str]) -> PageRevision {
        let mut text = String::from("{| class=\"wikitable\"\n|+ Games\n! Game\n");
        for g in games {
            text.push_str(&format!("|-\n| [[{g}]]\n"));
        }
        text.push_str("|}\n");
        PageRevision { page_id: pid, title: title.to_string(), day, seq_in_day: 0, wikitext: text }
    }

    const ALL: [&str; 10] = [
        "Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire",
        "Emerald",
    ];

    fn page(pid: u32, title: &str, versions: usize) -> Vec<PageRevision> {
        (0..versions as u32).map(|i| games_page(pid, title, i * 7, &ALL[..5 + i as usize % 5])).collect()
    }

    fn page_xml(title: &str, id: u32, versions: usize) -> String {
        let mut out = format!("<page><title>{title}</title><id>{id}</id>");
        for i in 0..versions as u32 {
            let upto = 5 + i as usize % 5;
            let mut table = String::from("{|\n|+ Games\n! Game\n");
            for g in &ALL[..upto] {
                table.push_str(&format!("|-\n| {g}\n"));
            }
            table.push_str("|}");
            let d = 15 + i * 5;
            let (m, d) = if d <= 31 { (1, d) } else { (2, d - 31) };
            out.push_str(&format!(
                "<revision><timestamp>2001-{m:02}-{d:02}T10:00:00Z</timestamp><text>{}</text></revision>",
                table.replace('<', "&lt;")
            ));
        }
        out.push_str("</page>");
        out
    }

    #[test]
    fn appended_pages_match_one_session_cold_run() {
        let config = PipelineConfig::new(100);
        // Cold: all three pages through one session.
        let mut cold = PipelineSession::new(config.clone());
        cold.push_page(page(1, "A", 6)).expect("a");
        cold.push_page(page(2, "B", 6)).expect("b");
        cold.push_page(page(3, "C", 6)).expect("c");
        let (cold_dataset, _) = cold.finish();

        // Incremental: base of two pages, delta appends the third.
        let (base, _) = extract_dataset(
            page(1, "A", 6).into_iter().chain(page(2, "B", 6)).collect(),
            &config,
        );
        let mut delta = DeltaExtractor::new(config, base);
        delta.push_page(page(3, "C", 6)).expect("c");
        let (merged, report, touched) = delta.finish();
        assert_eq!(report.pages, 1, "delta counters cover the delta only");
        assert_eq!(touched.iter().collect::<Vec<_>>(), vec!["C ▸ Games ▸ Game"]);
        assert_eq!(encode_dataset(&merged), encode_dataset(&cold_dataset));
    }

    #[test]
    fn restaged_page_upserts_in_place() {
        let config = PipelineConfig::new(100);
        let (base, _) = extract_dataset(
            page(1, "A", 6).into_iter().chain(page(2, "B", 6)).collect(),
            &config,
        );
        let (a_id, a_before) = base.attribute_by_name("A ▸ Games ▸ Game").expect("exists");
        let a_before_versions = a_before.versions().len();

        let mut delta = DeltaExtractor::new(config, base.clone());
        delta.push_page(page(1, "A", 9)).expect("restaged A");
        let (merged, _, touched) = delta.finish();
        assert_eq!(merged.len(), base.len(), "no new attributes");
        let (id, after) = merged.attribute_by_name("A ▸ Games ▸ Game").expect("kept");
        assert_eq!(id, a_id, "id stays stable across the upsert");
        assert!(after.versions().len() > a_before_versions, "history extended");
        assert_eq!(touched.len(), 1);
        // Untouched attribute is bit-identical.
        let (b_id, b) = merged.attribute_by_name("B ▸ Games ▸ Game").expect("kept");
        assert_eq!(b, base.attribute(b_id));
    }

    #[test]
    fn checkpoint_roundtrip_guards_and_corruption_offsets() {
        let cp = UpdateCheckpoint {
            source_fingerprint: 11,
            config_digest: 22,
            base_fingerprint: 33,
            resume_offset: 4096,
            next_fallback_page_id: 1_000_007,
            filter_downgrades: 2,
            quarantine: QuarantineReport::new(11, 8),
            pipeline: PipelineReport { pages: 3, revisions: 17, ..PipelineReport::default() },
            touched: ["A ▸ Games ▸ Game".to_string(), "C ▸ Games ▸ Game".to_string()]
                .into_iter()
                .collect(),
            dataset_bytes: encode_dataset(
                &extract_dataset(page(1, "A", 6), &PipelineConfig::new(100)).0,
            ),
        };
        let bytes = cp.encode();
        assert_eq!(&bytes[..8], UPDATE_CHECKPOINT_MAGIC);
        let decoded = UpdateCheckpoint::decode(&bytes).expect("roundtrips");
        assert_eq!(decoded, cp);

        // Guards.
        assert!(cp.verify_matches(11, 22, 33).is_ok());
        assert!(cp.verify_matches(12, 22, 33).is_err(), "wrong source");
        assert!(cp.verify_matches(11, 23, 33).is_err(), "wrong config");
        let err = cp.verify_matches(11, 22, 34).unwrap_err();
        assert!(err.to_string().contains("different base dataset"), "{err}");

        // Truncation at every prefix is refused.
        for cut in [0usize, 4, 8, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(UpdateCheckpoint::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Any body byte flipped → refused, and checksum failures carry
        // the failing byte offset (the trailer boundary).
        for byte in (8..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[byte] ^= 0xFF;
            let err = UpdateCheckpoint::decode(&bad).expect_err("refused");
            if let BinIoError::Checksum { offset, .. } = err {
                assert_eq!(offset, (bytes.len() - 4) as u64, "byte {byte}");
            }
        }
    }

    #[test]
    fn update_stream_completes_and_checkpoints_resume_identically() {
        let config = IngestConfig::new(100);
        let base_xml = format!(
            "<mediawiki>\n{}\n{}\n</mediawiki>",
            page_xml("Alpha", 1, 6),
            page_xml("Beta", 2, 6)
        );
        let delta_xml = format!(
            "<mediawiki>\n{}\n{}\n</mediawiki>",
            page_xml("Alpha", 1, 8), // revised page: full history
            page_xml("Gamma", 3, 6)  // new page
        );
        let base = crate::ingest::ingest_stream(
            std::io::Cursor::new(base_xml.as_bytes()),
            1,
            &config,
            IngestOptions::default(),
        )
        .expect("base ingests")
        .dataset
        .expect("completed");

        // Uninterrupted run.
        let outcome = update_stream(
            std::io::Cursor::new(delta_xml.as_bytes()),
            2,
            base.clone(),
            &config,
            IngestOptions::default(),
        )
        .expect("updates");
        assert_eq!(outcome.status, IngestStatus::Completed);
        let reference = outcome.dataset.expect("completed");
        assert_eq!(outcome.touched.len(), 2, "Alpha updated, Gamma appended");
        assert!(reference.len() >= base.len());

        // Cancelled after the first page, then resumed: byte-identical.
        let dir = std::env::temp_dir().join("tind-wiki-update-cp-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.tuc");
        let pages = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&pages);
        let stop: crate::ingest::StopSignal = Arc::new(move || seen.load(Ordering::SeqCst) >= 1);
        let progress_pages = Arc::clone(&pages);
        let options = IngestOptions {
            checkpoint: Some(crate::ingest::IngestCheckpointPolicy {
                path: path.clone(),
                every_pages: 1,
            }),
            should_stop: Some(stop),
            progress: Some(Box::new(move |p| {
                progress_pages.store(p.pages_seen, Ordering::SeqCst);
            })),
            ..IngestOptions::default()
        };
        let halted = update_stream(
            std::io::Cursor::new(delta_xml.as_bytes()),
            2,
            base.clone(),
            &config,
            options,
        )
        .expect("halts cleanly");
        assert_eq!(halted.status, IngestStatus::Cancelled);

        let cp = UpdateCheckpoint::read_file(&path).expect("checkpoint exists");
        assert!(cp.resume_offset > 0);
        let resumed = update_stream(
            std::io::Cursor::new(delta_xml.as_bytes()),
            2,
            base.clone(),
            &config,
            IngestOptions {
                checkpoint: Some(crate::ingest::IngestCheckpointPolicy {
                    path: path.clone(),
                    every_pages: 0,
                }),
                resume: true,
                ..IngestOptions::default()
            },
        )
        .expect("resumes");
        assert_eq!(resumed.status, IngestStatus::Completed);
        assert_eq!(resumed.resumed_from, Some(cp.resume_offset));
        assert_eq!(
            encode_dataset(&resumed.dataset.expect("completed")),
            encode_dataset(&reference),
            "kill/resume must be byte-identical to the uninterrupted run"
        );
        assert_eq!(resumed.touched, outcome.touched);

        // Resuming against the wrong base is refused.
        let err = update_stream(
            std::io::Cursor::new(delta_xml.as_bytes()),
            2,
            reference,
            &config,
            IngestOptions {
                checkpoint: Some(crate::ingest::IngestCheckpointPolicy {
                    path: path.clone(),
                    every_pages: 0,
                }),
                resume: true,
                ..IngestOptions::default()
            },
        )
        .expect_err("wrong base refused");
        assert!(err.to_string().contains("different base dataset"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
