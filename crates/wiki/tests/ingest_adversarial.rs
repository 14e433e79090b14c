//! Adversarial-dump tests for the resilient ingestion subsystem: hostile
//! inputs must be quarantined (never panic the process, never hang), the
//! quarantine counters must reconcile exactly, and kill-at-every-page
//! resume must reproduce the uninterrupted dataset byte for byte, for a
//! cold ingest and for an update over a non-empty base — mirroring
//! `tests/fault_tolerance.rs` for the discovery side.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tind_model::binio::encode_dataset;
use tind_model::rng::cases;
use tind_model::MemoryBudget;
use tind_wiki::ingest::IngestCheckpointPolicy;
use tind_wiki::{
    ingest_stream, IngestCheckpoint, IngestConfig, IngestError, IngestOptions, IngestOutcome,
    IngestStatus,
};

/// A well-formed page whose single table grows monotonically over six
/// revisions — enough versions and cardinality to clear the §5.1 filters.
fn good_page(title: &str, id: u32) -> String {
    grown_page(title, id, 6)
}

/// [`good_page`] with `revisions` (at most 8) revisions: the full history
/// of a page that kept growing after a base was ingested.
fn grown_page(title: &str, id: u32, revisions: usize) -> String {
    let games = [
        "Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl",
        "Diamond", "Platinum", "Black",
    ];
    let mut page = format!("<page><title>{title}</title><id>{id}</id>");
    for i in 0..revisions {
        let mut table = String::from("{|\n! Game\n");
        for g in &games[..5 + i] {
            table.push_str(&format!("|-\n| {g}\n"));
        }
        table.push_str("|}");
        page.push_str(&format!(
            "<revision><timestamp>2001-0{}-01T00:00:00Z</timestamp><text>{table}</text></revision>",
            i + 2,
        ));
    }
    page.push_str("</page>");
    page
}

/// A page with no `<title>` element: a hard per-page parse error.
fn missing_title_page(id: u32) -> String {
    format!(
        "<page><id>{id}</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp>\
         <text>x</text></revision></page>"
    )
}

fn wrap(pages: &[String]) -> Vec<u8> {
    let mut xml = String::from("<mediawiki>\n");
    for p in pages {
        xml.push_str(p);
        xml.push('\n');
    }
    xml.push_str("</mediawiki>\n");
    xml.into_bytes()
}

fn permissive(timeline: u32) -> IngestConfig {
    let mut config = IngestConfig::new(timeline);
    config.max_error_rate = 1.0; // reconcile-only tests: never abort
    config
}

/// A cold ingest: the run over the empty base.
fn cold_ingest(
    src: impl std::io::Read,
    fingerprint: u64,
    config: &IngestConfig,
    options: IngestOptions,
) -> Result<IngestOutcome, IngestError> {
    ingest_stream(src, fingerprint, config.empty_base(), config, options)
}

fn reconciles(outcome: &IngestOutcome) {
    let q = &outcome.quarantine;
    assert_eq!(
        q.pages_seen,
        q.pages_kept + q.pages_quarantined,
        "every page is either kept or quarantined"
    );
    assert!(q.entries.len() as u64 <= q.pages_quarantined);
    assert!(q.entries.len() <= q.sample_cap);
}

/// Hand-built corpus of hostile dumps. Each case must be survived:
/// quarantine what is broken, keep what is not, and account for both.
#[test]
fn adversarial_corpus_never_panics_and_counts_reconcile() {
    let oversized_body = "x".repeat(64 * 1024);
    let cases: Vec<(&str, Vec<u8>, u64 /* kept */, u64 /* quarantined */)> = vec![
        ("empty stream", Vec::new(), 0, 0),
        ("no pages at all", b"<mediawiki>prose only</mediawiki>".to_vec(), 0, 0),
        (
            "truncated mid-page",
            {
                let mut x = wrap(&[good_page("Alpha", 1)]);
                x.extend_from_slice(b"<page><title>Cut</title><id>2</id><revision>");
                x
            },
            1,
            1,
        ),
        ("missing title", wrap(&[missing_title_page(7)]), 0, 1),
        (
            "bad page id",
            wrap(&["<page><title>T</title><id>NaN</id></page>".to_string()]),
            0,
            1,
        ),
        (
            "oversized page among good ones",
            wrap(&[
                good_page("Alpha", 1),
                format!("<page><title>Huge</title><id>2</id><revision><text>{oversized_body}</text></revision></page>"),
                good_page("Beta", 3),
            ]),
            2,
            1,
        ),
        (
            "non-utf8 page body",
            {
                let mut x = b"<mediawiki><page><title>Bin</title>".to_vec();
                x.extend_from_slice(&[0xFF, 0xFE, 0x80, 0x00]);
                x.extend_from_slice(b"</page>");
                x.extend_from_slice(wrap(&[good_page("Alpha", 1)]).as_slice());
                x
            },
            1,
            1,
        ),
        (
            "epoch-boundary and pre-epoch timestamps drop revisions, not pages",
            wrap(&["<page><title>Edge</title><id>1</id>\
                 <revision><timestamp>1970-01-01T00:00:00Z</timestamp><text>a</text></revision>\
                 <revision><timestamp>2001-01-15T00:00:00Z</timestamp><text>b</text></revision>\
                 <revision><timestamp>9999-12-31T23:59:59Z</timestamp><text>c</text></revision>\
                 <revision><timestamp>not-a-date</timestamp><text>d</text></revision>\
                 </page>".to_string()]),
            1,
            0,
        ),
        (
            "unbalanced markup inside text",
            wrap(&[
                "<page><title>Nest</title><id>1</id><revision>\
                 <timestamp>2001-02-01T00:00:00Z</timestamp>\
                 <text>{| ! a |- | b</text></revision></page>"
                    .to_string(),
            ]),
            1,
            0,
        ),
    ];

    for (name, bytes, kept, quarantined) in cases {
        let mut config = permissive(6148);
        config.max_page_bytes = 16 * 1024;
        let outcome = cold_ingest(Cursor::new(bytes), 1, &config, IngestOptions::default())
            .unwrap_or_else(|e| panic!("case '{name}' must not abort: {e}"));
        assert_eq!(outcome.status, IngestStatus::Completed, "case '{name}'");
        reconciles(&outcome);
        let q = &outcome.quarantine;
        assert_eq!(q.pages_kept, kept, "case '{name}' kept: {:?}", q.entries);
        assert_eq!(q.pages_quarantined, quarantined, "case '{name}' quarantined: {:?}", q.entries);
    }
}

/// The pre-epoch/garbage timestamps in the corpus above must show up in
/// the revision counters, not vanish silently.
#[test]
fn dropped_revisions_are_counted() {
    let xml = wrap(&["<page><title>Edge</title><id>1</id>\
         <revision><timestamp>1999-01-01T00:00:00Z</timestamp><text>a</text></revision>\
         <revision><timestamp>garbage</timestamp><text>b</text></revision>\
         <revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>c</text></revision>\
         </page>".to_string()]);
    let outcome =
        cold_ingest(Cursor::new(xml), 1, &permissive(6148), IngestOptions::default())
            .expect("ingests");
    assert_eq!(outcome.quarantine.revisions_dropped, 2, "pre-epoch + unparseable");
    assert_eq!(outcome.quarantine.revisions_kept, 1);
}

/// Discovery's central fault-tolerance property, replayed for both
/// ingestion verbs: kill the run after every possible page prefix, resume
/// it, and the final dataset must be byte-identical to the uninterrupted
/// run — for a cold ingest (empty base, `TINDIC` checkpoints) and for an
/// update over a non-empty base (`TINDUC`).
#[test]
fn kill_at_every_page_resume_matches_uninterrupted() {
    let config = permissive(6148);
    let base = cold_ingest(
        Cursor::new(wrap(&[good_page("Alpha", 1), good_page("Beta", 2)])),
        7,
        &config,
        IngestOptions::default(),
    )
    .expect("base ingests")
    .dataset
    .expect("base completes");
    let runs = [
        (
            "cold ingest",
            config.empty_base(),
            vec![
                good_page("Alpha", 1),
                missing_title_page(99), // a quarantined page mid-stream
                good_page("Beta", 2),
                good_page("Gamma", 3),
            ],
            b"TINDIC",
        ),
        (
            "update",
            base,
            vec![
                grown_page("Alpha", 1, 8), // re-staged: its full, longer history
                missing_title_page(99),
                good_page("Gamma", 3), // new
                grown_page("Beta", 2, 7),
            ],
            b"TINDUC",
        ),
    ];
    let fingerprint = 42u64;
    let dir = std::env::temp_dir().join("tind-wiki-ingest-killtest");
    std::fs::create_dir_all(&dir).expect("mkdir");

    for (verb, base, pages, magic) in runs {
        let xml = wrap(&pages);
        let run = |options: IngestOptions| {
            ingest_stream(Cursor::new(xml.clone()), fingerprint, base.clone(), &config, options)
        };
        let uninterrupted = run(IngestOptions::default()).expect("uninterrupted run");
        assert_eq!(uninterrupted.status, IngestStatus::Completed, "{verb}");
        let reference = encode_dataset(uninterrupted.dataset.as_ref().expect("dataset"));
        let touched = if base.is_empty() { 0 } else { 3 };
        assert_eq!(uninterrupted.touched.len(), touched, "{verb}: Alpha, Gamma and Beta");

        for kill_after in 0..=pages.len() as u64 {
            let path = dir.join(format!("{verb}-kill-{kill_after}.ckpt"));
            let _ = std::fs::remove_file(&path);
            let policy = IngestCheckpointPolicy { path: path.clone(), every_pages: 1 };
            let polls = Arc::new(AtomicU64::new(0));
            let stop: tind_wiki::ingest::StopSignal = {
                let polls = polls.clone();
                Arc::new(move || polls.fetch_add(1, Ordering::SeqCst) >= kill_after)
            };
            let killed = run(IngestOptions {
                checkpoint: Some(policy.clone()),
                should_stop: Some(stop),
                ..IngestOptions::default()
            })
            .expect("killed run still exits cleanly");
            assert_eq!(
                killed.status,
                IngestStatus::Cancelled,
                "{verb}: stop after {kill_after} pages must cancel"
            );
            assert_eq!(killed.quarantine.pages_seen, kill_after, "{verb}: pages before the kill");
            let written = std::fs::read(&path).expect("checkpoint written");
            assert_eq!(&written[..6], magic, "{verb}: checkpoint format");

            let resumed = run(IngestOptions {
                checkpoint: Some(policy),
                resume: true,
                ..IngestOptions::default()
            })
            .expect("resumed run completes");
            assert_eq!(resumed.status, IngestStatus::Completed);
            assert!(resumed.resumed_from.is_some(), "{verb}");
            reconciles(&resumed);
            assert_eq!(
                resumed.quarantine.pages_seen,
                pages.len() as u64,
                "{verb}, kill at {kill_after}: the resumed run sees the remaining pages exactly once"
            );
            assert_eq!(resumed.quarantine.pages_kept, pages.len() as u64 - 1);
            assert_eq!(resumed.quarantine.pages_quarantined, 1, "{verb}, kill at {kill_after}");
            assert_eq!(
                encode_dataset(resumed.dataset.as_ref().expect("dataset")),
                reference,
                "{verb}, kill at {kill_after}: resumed dataset must be byte-identical"
            );
            assert_eq!(
                &resumed.pipeline, &uninterrupted.pipeline,
                "{verb}, kill at {kill_after}: pipeline counters must match"
            );
            assert_eq!(resumed.touched, uninterrupted.touched, "{verb}, kill at {kill_after}");
            assert_eq!(resumed.filter_downgrades, uninterrupted.filter_downgrades);
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The error budget separates "imperfect dump" from "garbage input":
/// sparse errors are tolerated, systematic ones abort early.
#[test]
fn error_budget_aborts_garbage_but_tolerates_sparse_errors() {
    let config = IngestConfig::new(6148); // default 5% budget, 20-page grace

    let garbage: Vec<String> = (0..30).map(missing_title_page).collect();
    let outcome =
        cold_ingest(Cursor::new(wrap(&garbage)), 1, &config, IngestOptions::default())
            .expect("abort is a status, not an error");
    assert_eq!(outcome.status, IngestStatus::ErrorBudgetExceeded);
    assert!(outcome.dataset.is_none());
    assert_eq!(
        outcome.quarantine.pages_seen, config.error_rate_min_pages,
        "aborts at the earliest page the budget allows"
    );

    let mut sparse: Vec<String> =
        (0..39).map(|i| good_page(&format!("Page{i}"), i + 1)).collect();
    sparse.push(missing_title_page(999)); // 1/40 = 2.5% < 5%
    let outcome =
        cold_ingest(Cursor::new(wrap(&sparse)), 1, &config, IngestOptions::default())
            .expect("sparse errors tolerated");
    assert_eq!(outcome.status, IngestStatus::Completed);
    assert_eq!(outcome.quarantine.pages_quarantined, 1);
    reconciles(&outcome);
}

/// A tiny memory budget quarantines pages instead of buffering them; a
/// generous one is charged and fully released.
#[test]
fn memory_budget_quarantines_instead_of_buffering() {
    let pages = vec![good_page("Alpha", 1), good_page("Beta", 2), good_page("Gamma", 3)];
    let xml = wrap(&pages);

    let tiny = MemoryBudget::new(128);
    let outcome = cold_ingest(
        Cursor::new(xml.clone()),
        1,
        &permissive(6148),
        IngestOptions { memory_budget: tiny.clone(), ..IngestOptions::default() },
    )
    .expect("refusals are quarantined, not fatal");
    assert_eq!(outcome.status, IngestStatus::Completed);
    assert_eq!(outcome.quarantine.pages_quarantined, 3, "every page is over a 128-byte budget");
    assert!(tiny.peak_bytes() <= 128, "the budget is a hard bound");

    let generous = MemoryBudget::new(64 * 1024 * 1024);
    let outcome = cold_ingest(
        Cursor::new(xml),
        1,
        &permissive(6148),
        IngestOptions { memory_budget: generous.clone(), ..IngestOptions::default() },
    )
    .expect("ingests");
    assert_eq!(outcome.quarantine.pages_kept, 3);
    assert!(outcome.quarantine.pages_quarantined == 0);
    assert!(generous.peak_bytes() > 0, "held pages are charged");
    assert_eq!(generous.used_bytes(), 0, "all charges released");
}

/// A panic while processing one page (injected via the fault hook, the
/// same mechanism `core::allpairs` uses) quarantines that page only.
#[test]
fn processing_panic_quarantines_the_page_only() {
    let pages = vec![good_page("Alpha", 1), good_page("Beta", 2), good_page("Gamma", 3)];
    let outcome = cold_ingest(
        Cursor::new(wrap(&pages)),
        1,
        &permissive(6148),
        IngestOptions {
            fault_hook: Some(Arc::new(|ordinal| {
                if ordinal == 1 {
                    panic!("injected fault on page {ordinal}");
                }
            })),
            ..IngestOptions::default()
        },
    )
    .expect("panic is contained");
    assert_eq!(outcome.status, IngestStatus::Completed);
    assert_eq!(outcome.quarantine.pages_kept, 2);
    assert_eq!(outcome.quarantine.pages_quarantined, 1);
    let entry = &outcome.quarantine.entries[0];
    assert!(entry.error.contains("panicked"), "{}", entry.error);
    assert!(entry.error.contains("injected fault"), "{}", entry.error);
    assert_eq!(entry.page, "Beta", "the quarantined page is identified by title");
    assert_eq!(outcome.dataset.expect("dataset").len(), 2, "surviving pages yield attributes");
}

/// Corrupted or mismatched checkpoints are rejected up front — resuming
/// from them would silently corrupt the dataset.
#[test]
fn corrupt_or_mismatched_checkpoints_are_rejected() {
    let pages = vec![good_page("Alpha", 1), good_page("Beta", 2)];
    let xml = wrap(&pages);
    let config = permissive(6148);
    let dir = std::env::temp_dir().join("tind-wiki-ingest-corrupt");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("run.tic");

    let stop_now: tind_wiki::ingest::StopSignal = Arc::new(|| true);
    let outcome = cold_ingest(
        Cursor::new(xml.clone()),
        7,
        &config,
        IngestOptions {
            checkpoint: Some(IngestCheckpointPolicy { path: path.clone(), every_pages: 1 }),
            should_stop: Some(stop_now),
            ..IngestOptions::default()
        },
    )
    .expect("cancelled cleanly");
    assert_eq!(outcome.status, IngestStatus::Cancelled);

    let resume_with = |path: std::path::PathBuf, fingerprint: u64, config: &IngestConfig| {
        cold_ingest(
            Cursor::new(xml.clone()),
            fingerprint,
            config,
            IngestOptions {
                checkpoint: Some(IngestCheckpointPolicy { path, every_pages: 1 }),
                resume: true,
                ..IngestOptions::default()
            },
        )
    };

    // Clean resume works.
    assert!(resume_with(path.clone(), 7, &config).is_ok());

    // Wrong source fingerprint.
    assert!(matches!(
        resume_with(path.clone(), 8, &config),
        Err(IngestError::Checkpoint(_))
    ));

    // Different run parameters.
    let mut other = config.clone();
    other.max_page_bytes = 4096;
    assert!(matches!(
        resume_with(path.clone(), 7, &other),
        Err(IngestError::Checkpoint(_))
    ));

    // Bit rot and truncation anywhere in the file.
    let clean = std::fs::read(&path).expect("checkpoint bytes");
    for bit in (0..clean.len() * 8).step_by(101) {
        let mut bad = clean.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let bad_path = dir.join("rotten.tic");
        std::fs::write(&bad_path, &bad).expect("write");
        assert!(
            matches!(resume_with(bad_path, 7, &config), Err(IngestError::Checkpoint(_))),
            "flipped bit {bit} must be detected"
        );
    }
    let truncated_path = dir.join("truncated.tic");
    std::fs::write(&truncated_path, &clean[..clean.len() / 2]).expect("write");
    assert!(matches!(
        resume_with(truncated_path, 7, &config),
        Err(IngestError::Checkpoint(_))
    ));
    assert!(IngestCheckpoint::read_file(&dir.join("missing.tic")).is_err());

    // Resume without a checkpoint path is refused outright.
    let err = cold_ingest(
        Cursor::new(xml.clone()),
        7,
        &config,
        IngestOptions { resume: true, ..IngestOptions::default() },
    );
    assert!(matches!(err, Err(IngestError::ResumeMismatch(_))));

    std::fs::remove_file(&path).ok();
}

/// Arbitrary bytes fed to the full ingestion stack: whatever they
/// contain, ingestion neither panics nor loses count of a page.
#[test]
fn arbitrary_bytes_never_panic() {
    cases("arbitrary_bytes_never_panic", 48, |rng| {
        let data: Vec<u8> = (0..rng.range(0..4096usize)).map(|_| rng.range(0..=255u8)).collect();
        let config = permissive(6148);
        let outcome = cold_ingest(Cursor::new(data), 1, &config, IngestOptions::default())
            .expect("in-memory streams cannot abort");
        assert_eq!(
            outcome.quarantine.pages_seen,
            outcome.quarantine.pages_kept + outcome.quarantine.pages_quarantined
        );
    });
}

/// Valid pages survive arbitrary garbage interleaved between them.
#[test]
fn good_pages_survive_interleaved_garbage() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 <>/&;\n";
    cases("good_pages_survive_interleaved_garbage", 48, |rng| {
        // Keep the garbage out of page boundaries so it stays preamble.
        let garbage: Vec<String> = (0..rng.range(0..4usize))
            .map(|_| {
                let g: String = (0..rng.range(0..=64usize))
                    .map(|_| ALPHABET[rng.range(0..ALPHABET.len())] as char)
                    .collect();
                g.replace("<page", "(page").replace("</page>", "(/page)")
            })
            .collect();
        let mut xml = String::from("<mediawiki>");
        for (i, g) in garbage.iter().enumerate() {
            xml.push_str(g);
            xml.push_str(&good_page(&format!("Page{i}"), i as u32 + 1));
        }
        xml.push_str("</mediawiki>");
        let n = garbage.len() as u64;
        let outcome = cold_ingest(
            Cursor::new(xml.into_bytes()),
            1,
            &permissive(6148),
            IngestOptions::default(),
        )
        .expect("ingests");
        assert_eq!(outcome.quarantine.pages_seen, n);
        assert_eq!(outcome.quarantine.pages_kept, n);
    });
}
