//! Runs over a non-empty base: what an update is, and what it records.
//!
//! There is one ingestion driver, [`crate::ingest::ingest_stream`], and it
//! always runs over a *base* dataset. A cold ingest is the run over the
//! empty base; `tind update` is the run over an existing dataset. The
//! core-layer half of live updates (`core::delta`) then diffs the merged
//! dataset against the base and folds the difference into an existing
//! index. The split keeps the dependency graph clean — this crate sits
//! below `tind-core`, so it speaks only model-level types.
//!
//! # Model
//!
//! A delta stream carries page-granular batches, exactly like a dump:
//! for each page either its **full** revision history (a page revised
//! since the base was ingested — re-staged from scratch, because
//! `pipeline::stage_page` is a pure function of the complete
//! revision list) or a page the base never saw. The session commits by
//! attribute name ([`crate::pipeline::PipelineSession`]), so ids stay
//! stable — the contract `core::delta::DatasetDelta::diff` enforces. A
//! page that repeats within one stream replaces its earlier version, in
//! a cold ingest as in an update.
//!
//! Committing by name needs names that identify a column: `stage_page`
//! makes them unique within each page, and a base that holds a name twice
//! (written before that rule) is refused, to be re-ingested.
//!
//! Two deliberate deviations from a cold re-ingest of the combined stream,
//! both visible in the [`crate::ingest::IngestOutcome`]:
//!
//! * **Dictionary order.** New values are interned at delta time, after
//!   every base value; a cold re-ingest of the combined stream would
//!   interleave them. Value *ids* of base values are unchanged (append-
//!   only dictionary), so search results are identical; only the raw
//!   dataset encodings differ.
//! * **Filter downgrades.** A re-staged column that no longer passes the
//!   §5.1 attribute filters cannot be deleted without renumbering ids, so
//!   its updated history is kept and counted in
//!   [`DeltaLog::filter_downgrades`]; a cold re-ingest (`tind ingest`
//!   over the full stream) resolves them.
//!
//! A run over a non-empty base checkpoints as `TINDUC` instead of
//! `TINDIC`: the same codec ([`crate::ingest::IngestCheckpoint`]) adds the
//! [`DeltaLog`], whose base-dataset fingerprint refuses a resume against
//! a different base.

use std::collections::BTreeSet;

/// What a run over a non-empty base records beyond a cold ingest. A cold
/// run keeps none of it: every attribute it commits is new.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaLog {
    /// `binio::dataset_fingerprint` of the base the run started from.
    pub base_fingerprint: u64,
    /// Attribute names committed so far (updated or appended), sorted.
    pub touched: BTreeSet<String>,
    /// Re-staged columns kept despite no longer passing the filters.
    pub filter_downgrades: u64,
}

impl DeltaLog {
    /// An empty log for a run over the base with this fingerprint.
    pub fn new(base_fingerprint: u64) -> Self {
        DeltaLog { base_fingerprint, ..DeltaLog::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{
        ingest_stream, IngestCheckpoint, IngestCheckpointPolicy, IngestConfig, IngestOptions,
        IngestStatus, StopSignal, UPDATE_CHECKPOINT_MAGIC,
    };
    use crate::pipeline::{extract_dataset, PipelineConfig, PipelineReport, PipelineSession};
    use crate::revision::PageRevision;
    use std::sync::Arc;
    use tind_model::binio::{self, dataset_fingerprint, encode_dataset, BinIoError};
    use tind_model::{Dataset, DatasetBuilder, QuarantineReport, Timeline};

    /// Renders one revision of a page holding one `Games` table per
    /// column of `tables`.
    fn tables_page(pid: u32, title: &str, day: u32, tables: &[&[&str]]) -> PageRevision {
        let mut text = String::new();
        for games in tables {
            text.push_str("{| class=\"wikitable\"\n|+ Games\n! Game\n");
            for g in *games {
                text.push_str(&format!("|-\n| [[{g}]]\n"));
            }
            text.push_str("|}\n");
        }
        PageRevision { page_id: pid, title: title.to_string(), day, seq_in_day: 0, wikitext: text }
    }

    const ALL: [&str; 10] = [
        "Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire",
        "Emerald",
    ];

    fn page(pid: u32, title: &str, versions: usize) -> Vec<PageRevision> {
        (0..versions as u32)
            .map(|i| tables_page(pid, title, i * 7, &[&ALL[..5 + i as usize % 5]]))
            .collect()
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

    /// A session over `base` with the pages pushed: the merged dataset,
    /// the run's report and the names it touched.
    fn update(
        config: &PipelineConfig,
        base: Dataset,
        pages: Vec<Vec<PageRevision>>,
    ) -> (Dataset, PipelineReport, BTreeSet<String>) {
        let mut session = PipelineSession::over(config.clone(), base).expect("usable base");
        for revs in pages {
            session.push_page(revs).expect("page");
        }
        let touched = session.delta().map(|d| d.touched.clone()).unwrap_or_default();
        let (merged, report) = session.finish();
        (merged, report, touched)
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
        let (merged, report, touched) = update(&config, base, vec![page(3, "C", 6)]);
        assert_eq!(report.pages, 1, "delta counters cover the delta only");
        assert_eq!(touched.iter().collect::<Vec<_>>(), vec!["C ▸ Games ▸ Game"]);
        assert_eq!(encode_dataset(&merged), encode_dataset(&cold_dataset));

        // The cold run is the run over the empty base, and keeps no log.
        let empty = DatasetBuilder::new(Timeline::new(100)).build();
        let session = PipelineSession::over(config, empty).expect("empty base");
        assert!(session.delta().is_none(), "a cold run keeps no touched set");
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

        let (merged, _, touched) = update(&config, base.clone(), vec![page(1, "A", 9)]);
        assert_eq!(merged.len(), base.len(), "no new attributes");
        let (id, after) = merged.attribute_by_name("A ▸ Games ▸ Game").expect("kept");
        assert_eq!(id, a_id, "id stays stable across the upsert");
        assert!(after.versions().len() > a_before_versions, "history extended");
        assert_eq!(touched.len(), 1);
        // Untouched attribute is bit-identical.
        let (b_id, b) = merged.attribute_by_name("B ▸ Games ▸ Game").expect("kept");
        assert_eq!(b, base.attribute(b_id));
    }

    /// Two tables of one page under the same caption used to stage the
    /// same name twice: a cold ingest appended both, an update folded both
    /// re-staged histories into the first slot and left the second stale.
    #[test]
    fn restaged_page_with_a_repeated_caption_keeps_both_columns() {
        const MARIO: [&str; 10] = [
            "Mario", "Luigi", "Peach", "Toad", "Yoshi", "Wario", "Daisy", "Bowser", "Boo",
            "Koopa",
        ];
        // Six growing revisions, then two shrinking ones: eight versions
        // per column, and no value the first six did not already intern.
        let revisions = |n: usize| -> Vec<PageRevision> {
            (0..n)
                .map(|i| {
                    let len = if i < 6 { 5 + i } else { 15 - i };
                    tables_page(1, "P", i as u32 * 7, &[&ALL[..len], &MARIO[..len]])
                })
                .collect()
        };
        let config = PipelineConfig::new(100);
        let (base, _) = extract_dataset(revisions(6), &config);
        let (cold, _) = extract_dataset(revisions(8), &config);
        let (merged, _, touched) = update(&config, base, vec![revisions(8)]);

        let names: Vec<&str> = cold.attributes().iter().map(|h| h.name()).collect();
        assert_eq!(names, ["P ▸ Games ▸ Game", "P ▸ Games ▸ Game (2)"]);
        for (_, h) in cold.iter() {
            assert_eq!(h.versions().len(), 8, "{}", h.name());
        }
        assert!(cold.dictionary().get("Red").is_some_and(|red| {
            cold.attribute(0).value_universe().contains(&red)
        }));
        assert_eq!(touched.len(), 2, "both columns are touched: {touched:?}");
        assert_eq!(
            encode_dataset(&merged),
            encode_dataset(&cold),
            "the update must equal the cold ingest of the re-staged page"
        );
    }

    #[test]
    fn staged_suffixes_skip_real_headers() {
        // Headers "Game", "Game (2)" and "Game" again: the repeat must not
        // take the real "(2)" header's name.
        let text = "{|\n|+ T\n! Game !! Game (2) !! Game\n|-\n| a || b || c\n|}\n";
        let revs: Vec<PageRevision> = (0..3)
            .map(|i| PageRevision {
                page_id: 1,
                title: "P".into(),
                day: i,
                seq_in_day: 0,
                wikitext: text.to_string(),
            })
            .collect();
        let staged = crate::pipeline::stage_page(revs, &PipelineConfig::new(10));
        let names: Vec<&str> = staged.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["P ▸ T ▸ Game", "P ▸ T ▸ Game (2)", "P ▸ T ▸ Game (3)"]);
    }

    #[test]
    fn a_base_with_a_repeated_name_is_refused() {
        let mut builder = DatasetBuilder::new(Timeline::new(10));
        builder.add_attribute("P ▸ Games ▸ Game", &[(0, vec!["a"])], 9);
        builder.add_attribute("P ▸ Games ▸ Game", &[(0, vec!["b"])], 9);
        let err = PipelineSession::over(PipelineConfig::new(10), builder.build())
            .err()
            .expect("refused");
        assert!(err.contains("twice") && err.contains("re-ingest"), "{err}");

        let other = DatasetBuilder::new(Timeline::new(11)).build();
        let err = PipelineSession::over(PipelineConfig::new(10), other).err().expect("refused");
        assert!(err.contains("11 days"), "{err}");
    }

    #[test]
    fn checkpoint_roundtrip_guards_and_corruption_offsets() {
        let base = extract_dataset(page(1, "A", 6), &PipelineConfig::new(100)).0;
        let cp = IngestCheckpoint {
            source_fingerprint: 11,
            config_digest: 22,
            resume_offset: 4096,
            next_fallback_page_id: 1_000_007,
            quarantine: QuarantineReport::new(11, 8),
            pipeline: PipelineReport { pages: 3, revisions: 17, ..PipelineReport::default() },
            delta: Some(DeltaLog {
                base_fingerprint: dataset_fingerprint(&base),
                touched: ["A ▸ Games ▸ Game".to_string(), "C ▸ Games ▸ Game".to_string()]
                    .into_iter()
                    .collect(),
                filter_downgrades: 2,
            }),
            dataset_bytes: encode_dataset(&base),
        };
        let bytes = binio::encode(&cp);
        assert_eq!(&bytes[..8], UPDATE_CHECKPOINT_MAGIC);
        let decoded = IngestCheckpoint::decode(&bytes).expect("roundtrips");
        assert_eq!(decoded, cp);

        // Guards.
        assert!(cp.verify_matches(11, 22, &base).is_ok());
        assert!(cp.verify_matches(12, 22, &base).is_err(), "wrong source");
        assert!(cp.verify_matches(11, 23, &base).is_err(), "wrong config");
        let other = extract_dataset(page(2, "B", 6), &PipelineConfig::new(100)).0;
        let err = cp.verify_matches(11, 22, &other).unwrap_err();
        assert!(err.to_string().contains("different base dataset"), "{err}");
        let err = cp.verify_matches(11, 22, &DatasetBuilder::new(Timeline::new(100)).build());
        assert!(err.is_err(), "an update checkpoint does not resume a cold run");

        // Truncation at every prefix is refused.
        for cut in [0usize, 4, 8, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(IngestCheckpoint::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Any body byte flipped → refused, and checksum failures carry
        // the failing byte offset (the trailer boundary).
        for byte in (8..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[byte] ^= 0xFF;
            let err = IngestCheckpoint::decode(&bad).expect_err("refused");
            if let BinIoError::Checksum { offset, .. } = err {
                assert_eq!(offset, (bytes.len() - 4) as u64, "byte {byte}");
            }
        }
    }

    #[test]
    fn update_over_a_base_completes_and_refuses_a_wrong_base_on_resume() {
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
        let run = |xml: &str, base: Dataset, options: IngestOptions| {
            ingest_stream(std::io::Cursor::new(xml.as_bytes()), 2, base, &config, options)
        };
        let base = run(&base_xml, config.empty_base(), IngestOptions::default())
            .expect("base ingests")
            .dataset
            .expect("completed");

        let outcome = run(&delta_xml, base.clone(), IngestOptions::default()).expect("updates");
        assert_eq!(outcome.status, IngestStatus::Completed);
        let merged = outcome.dataset.expect("completed");
        assert_eq!(outcome.touched.len(), 2, "Alpha updated, Gamma appended");
        assert_eq!(merged.len(), base.len() + 1);

        // A cancelled update leaves a TINDUC checkpoint bound to its base.
        let dir = std::env::temp_dir().join("tind-wiki-update-cp-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.tuc");
        let policy = IngestCheckpointPolicy { path: path.clone(), every_pages: 1 };
        let stop_now: StopSignal = Arc::new(|| true);
        let halted = run(
            &delta_xml,
            base.clone(),
            IngestOptions {
                checkpoint: Some(policy.clone()),
                should_stop: Some(stop_now),
                ..IngestOptions::default()
            },
        )
        .expect("halts cleanly");
        assert_eq!(halted.status, IngestStatus::Cancelled);
        let bytes = std::fs::read(&path).expect("checkpoint exists");
        assert_eq!(&bytes[..8], UPDATE_CHECKPOINT_MAGIC);

        // Resuming against the wrong base, or as a cold run, is refused.
        for wrong in [merged, config.empty_base()] {
            let err = run(
                &delta_xml,
                wrong,
                IngestOptions {
                    checkpoint: Some(policy.clone()),
                    resume: true,
                    ..IngestOptions::default()
                },
            )
            .err()
            .expect("wrong base refused");
            assert!(err.to_string().contains("different base dataset"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
