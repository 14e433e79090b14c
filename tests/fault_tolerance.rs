//! Cross-crate fault-tolerance tests: checkpoint/resume determinism,
//! panic quarantine, and checksummed-persistence corruption rejection.
//!
//! The deterministic tests below enumerate *every* kill point
//! exhaustively; the property loops at the bottom re-cover the same
//! invariants under randomized datasets, thread counts, and corruption
//! offsets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tind::core::checkpoint::Checkpoint;
use tind::core::fault::{flip_bit, poison_hook, truncated, FaultHook};
use tind::core::{
    discover_all_pairs, AllPairsError, AllPairsOptions, CancelToken, CheckpointPolicy,
    IndexConfig, TindIndex, TindParams,
};
use tind::datagen::{generate, GeneratorConfig};
use tind::model::binio::{self, decode_dataset, encode_dataset, BinIoError};
use tind::model::rng::cases;
use tind::model::Dataset;

fn small_world(attributes: usize, seed: u64) -> (Arc<Dataset>, TindIndex, TindParams) {
    let dataset = Arc::new(generate(&GeneratorConfig::small(attributes, seed)).dataset);
    let index = TindIndex::build(dataset.clone(), IndexConfig::default());
    (dataset, index, TindParams::paper_default())
}

fn ckpt_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tind-fault-tolerance-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn read_checkpoint(path: &std::path::Path) -> Checkpoint {
    Checkpoint::decode(&std::fs::read(path).expect("checkpoint readable")).expect("decodes")
}

/// Runs all-pairs, killing it at the query boundary after `kill_after`
/// completed queries (threads=1 makes the boundary exact), then resumes
/// from the checkpoint and returns both outcomes' pairs.
fn kill_and_resume(
    index: &TindIndex,
    params: &TindParams,
    path: &std::path::Path,
    kill_after: usize,
) -> (Vec<(u32, u32)>, usize) {
    let _ = std::fs::remove_file(path);
    let token = CancelToken::new();
    let counter = Arc::new(AtomicUsize::new(0));
    let hook: FaultHook = {
        let token = token.clone();
        let counter = Arc::clone(&counter);
        Arc::new(move |_q| {
            if counter.fetch_add(1, Ordering::Relaxed) >= kill_after {
                token.cancel();
            }
        })
    };
    let interrupted = discover_all_pairs(
        index,
        params,
        &AllPairsOptions {
            threads: 1,
            cancel: Some(token),
            checkpoint: Some(CheckpointPolicy::new(path).every(1)),
            fault_hook: Some(hook),
            ..Default::default()
        },
    )
    .expect("interrupted run still returns an outcome");

    let cp = read_checkpoint(path);
    let resumed = discover_all_pairs(
        index,
        params,
        &AllPairsOptions {
            resume_from: Some(cp),
            ..Default::default()
        },
    )
    .expect("resumed run completes");
    assert!(!resumed.cancelled);
    (resumed.pairs, interrupted.completed_queries)
}

#[test]
fn killing_after_every_checkpoint_boundary_resumes_identically() {
    let (_dataset, index, params) = small_world(28, 5);
    let full = discover_all_pairs(&index, &params, &AllPairsOptions::default())
        .expect("uninterrupted run");
    assert!(!full.pairs.is_empty(), "test needs a dataset with some tINDs");
    let path = ckpt_path("every-boundary.tcp");

    // Every possible kill point, including "before the first query" and
    // "after the last one".
    for kill_after in 0..=full.total_queries {
        let (pairs, completed) = kill_and_resume(&index, &params, &path, kill_after);
        assert_eq!(
            pairs, full.pairs,
            "kill after {kill_after} queries ({completed} completed) changed the result"
        );
    }
}

#[test]
fn resume_skips_completed_queries() {
    let (_dataset, index, params) = small_world(24, 9);
    let path = ckpt_path("resume-skips.tcp");
    let _ = std::fs::remove_file(&path);

    let token = CancelToken::new();
    let counter = Arc::new(AtomicUsize::new(0));
    let hook: FaultHook = {
        let token = token.clone();
        let counter = Arc::clone(&counter);
        Arc::new(move |_q| {
            if counter.fetch_add(1, Ordering::Relaxed) >= 7 {
                token.cancel();
            }
        })
    };
    discover_all_pairs(
        &index,
        &params,
        &AllPairsOptions {
            threads: 1,
            cancel: Some(token),
            checkpoint: Some(CheckpointPolicy::new(&path).every(1)),
            fault_hook: Some(hook),
            ..Default::default()
        },
    )
    .expect("interrupted run");

    let cp = read_checkpoint(&path);
    let done_before = cp.completed.len();
    assert!(done_before >= 7, "checkpoint holds the completed prefix");
    let resumed = discover_all_pairs(
        &index,
        &params,
        &AllPairsOptions { resume_from: Some(cp), ..Default::default() },
    )
    .expect("resumed run");
    assert_eq!(resumed.resumed_queries, done_before);
    assert_eq!(
        resumed.completed_queries,
        resumed.total_queries,
        "resume must finish the remainder"
    );
}

#[test]
fn checkpoint_from_different_dataset_or_params_is_refused() {
    let (dataset_a, index_a, params) = small_world(20, 1);
    let (dataset_b, index_b, _) = small_world(20, 2);

    let cp = Checkpoint::fresh(&dataset_a, &params);
    assert!(cp.verify_matches(&dataset_a, &params).is_ok());
    assert!(matches!(cp.verify_matches(&dataset_b, &params), Err(BinIoError::Corrupt(_))));

    let other_params = TindParams::weighted(99.0, 3, tind::model::WeightFn::constant_one());
    assert!(matches!(cp.verify_matches(&dataset_a, &other_params), Err(BinIoError::Corrupt(_))));

    // The discovery entry point enforces the same guard.
    let err = discover_all_pairs(
        &index_b,
        &params,
        &AllPairsOptions { resume_from: Some(cp), ..Default::default() },
    )
    .expect_err("foreign checkpoint must be refused");
    assert!(matches!(err, AllPairsError::ResumeMismatch(_)), "{err}");
    // Matching everything still works, so the guard is not just "always
    // refuse".
    let own = Checkpoint::fresh(&dataset_a, &params);
    discover_all_pairs(
        &index_a,
        &params,
        &AllPairsOptions { resume_from: Some(own), ..Default::default() },
    )
    .expect("own fresh checkpoint resumes fine");
}

#[test]
fn poisoned_queries_are_quarantined_and_rest_matches_brute_force() {
    let (dataset, index, params) = small_world(26, 3);
    let poison: Vec<u32> = vec![0, 7, 13];
    let outcome = discover_all_pairs(
        &index,
        &params,
        &AllPairsOptions {
            threads: 4,
            fault_hook: Some(poison_hook(&poison)),
            ..Default::default()
        },
    )
    .expect("quarantine keeps the run alive");
    assert_eq!(outcome.poisoned_queries, poison, "all planted panics quarantined");
    assert_eq!(
        outcome.completed_queries,
        dataset.len(),
        "poisoned queries still count as completed (they will not be retried)"
    );

    // Brute force: per-query search over every healthy query.
    let mut expected: Vec<(u32, u32)> = Vec::new();
    for q in 0..dataset.len() as u32 {
        if poison.contains(&q) {
            continue;
        }
        expected.extend(index.search(q, &params).results.into_iter().map(|rhs| (q, rhs)));
    }
    expected.sort_unstable();
    assert_eq!(outcome.pairs, expected, "healthy queries must be unaffected by the poison");
}

#[test]
fn corrupted_dataset_files_are_rejected_with_typed_errors() {
    let (dataset, _index, _params) = small_world(12, 4);
    let clean = encode_dataset(&dataset);
    decode_dataset(&clean).expect("clean bytes decode");

    // Truncation at every length short of the full file.
    for keep in 0..clean.len() {
        let cut = truncated(&clean, keep);
        assert!(
            decode_dataset(&cut).is_err(),
            "truncation to {keep}/{} bytes must fail",
            clean.len()
        );
    }
    // A sweep of single-bit flips (every 97th bit keeps it fast): always a
    // typed checksum error — never a silent wrong decode.
    let total_bits = clean.len() * 8;
    for bit in (0..total_bits).step_by(97) {
        let mut rotten = clean.clone();
        flip_bit(&mut rotten, bit);
        match decode_dataset(&rotten) {
            Err(BinIoError::Checksum { .. }) => {}
            // Flips inside the magic header are reported as the more
            // specific wrong-magic/wrong-version corruption.
            Err(BinIoError::Corrupt(_)) if bit < 64 => {}
            other => panic!("bit {bit}: expected checksum rejection, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_index_and_checkpoint_files_are_rejected() {
    let (dataset, index, params) = small_world(12, 6);

    let index_bytes = tind::core::persist::encode_index(&index);
    tind::core::persist::decode_index(&index_bytes, dataset.clone())
        .expect("clean index decodes");
    // Each rejected flip still costs a full-file CRC scan, so sample a
    // fixed number of (deterministically spread) bit positions rather
    // than a fixed stride — index files are large.
    let total_bits = index_bytes.len() * 8;
    let stride = (total_bits / 24).max(1) | 1;
    for bit in (0..total_bits).step_by(stride) {
        let mut rotten = index_bytes.clone();
        flip_bit(&mut rotten, bit);
        assert!(
            tind::core::persist::decode_index(&rotten, dataset.clone()).is_err(),
            "index bit {bit}"
        );
    }
    for keep in [0, 7, 8, index_bytes.len() / 2, index_bytes.len() - 1] {
        let cut = truncated(&index_bytes, keep);
        assert!(
            tind::core::persist::decode_index(&cut, dataset.clone()).is_err(),
            "index truncated to {keep}"
        );
    }

    let mut cp = Checkpoint::fresh(&dataset, &params);
    cp.completed = vec![0, 2, 5];
    cp.pairs = vec![(0, 1), (2, 4)];
    let cp_bytes = binio::encode(&cp);
    assert_eq!(Checkpoint::decode(&cp_bytes).expect("clean checkpoint"), cp);
    for bit in 0..cp_bytes.len() * 8 {
        let mut rotten = cp_bytes.clone();
        flip_bit(&mut rotten, bit);
        assert!(Checkpoint::decode(&rotten).is_err(), "checkpoint bit {bit}");
    }
    for keep in 0..cp_bytes.len() {
        let cut = truncated(&cp_bytes, keep);
        assert!(Checkpoint::decode(&cut).is_err(), "checkpoint truncated to {keep}");
    }
}

/// `tind verify PATH` through the CLI's own dispatcher: `Ok` for a file
/// that verifies.
fn cli_verify(path: &std::path::Path) -> Result<String, tind_cli::CliError> {
    tind_cli::dispatch(&["verify".to_string(), path.display().to_string()])
}

/// Single-byte corruption matrix over **every** persisted format: each
/// format `tind verify` knows ([`tind_cli::commands::VERIFY_FORMATS`]) has
/// a fixture here — the test fails when the table gains a format without
/// one — and each fixture is flipped at a header, body, and trailer
/// position via [`flip_file_byte`]. `tind verify` must refuse every flip
/// and accept the file again once it is flipped back.
#[test]
fn every_persisted_format_detects_single_byte_corruption() {
    use tind::core::fault::flip_file_byte;
    use tind::core::store::{pack_store, PackOptions};
    use tind::model::binio::write_file;
    use tind_cli::commands::VERIFY_FORMATS;

    let dir = std::env::temp_dir().join("tind-fault-tolerance-formats");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (dataset, index, params) = small_world(80, 7);

    let mut q = tind::model::QuarantineReport::new(77, 4);
    q.pages_seen = 10;
    q.pages_kept = 9;
    q.record(123, "Broken page", "unparsable timestamp");
    let ingest_checkpoint = |delta: Option<tind::wiki::DeltaLog>| tind::wiki::IngestCheckpoint {
        source_fingerprint: 77,
        config_digest: 5,
        resume_offset: 4096,
        next_fallback_page_id: 2,
        quarantine: q.clone(),
        pipeline: Default::default(),
        delta,
        dataset_bytes: encode_dataset(&dataset),
    };
    let store_dir = dir.join("index.store");
    pack_store(&index, &store_dir, &PackOptions { shards: 2, ..Default::default() })
        .expect("pack store");

    // The files of one format, written as the program writes them.
    let fixtures = |name: &str| -> Vec<std::path::PathBuf> {
        let path = dir.join(name.replace(' ', "-"));
        match name {
            "dataset" => write_file(dataset.as_ref(), &path).expect("write dataset"),
            "index" => tind::core::persist::write_index_file(&index, &path).expect("write index"),
            "checkpoint" => {
                let mut cp = Checkpoint::fresh(&dataset, &params);
                cp.completed = vec![0, 3, 9];
                cp.pairs = vec![(0, 1), (3, 7)];
                write_file(&cp, &path).expect("write checkpoint");
            }
            "quarantine report" => write_file(&q, &path).expect("write quarantine"),
            "store manifest" => return vec![store_dir.join("index.manifest")],
            "store shard" => {
                return vec![store_dir.join("g1-s0.shard"), store_dir.join("g1-s1.shard")]
            }
            "ingest checkpoint" => {
                write_file(&ingest_checkpoint(None), &path).expect("write ingest checkpoint")
            }
            "update checkpoint" => {
                let mut delta = tind::wiki::DeltaLog::new(0x5eed);
                delta.touched.insert("Alpha ▸ table 0 ▸ column 1".into());
                delta.filter_downgrades = 1;
                write_file(&ingest_checkpoint(Some(delta)), &path)
                    .expect("write update checkpoint");
            }
            "run report" => {
                let report = tind::obs::RunReport::collect("fault-matrix", &[], 1);
                std::fs::write(&path, report.to_json()).expect("write run report");
            }
            "trace" => {
                use tind::obs::trace as tr;
                let root = tr::alloc_context();
                let start = tr::now_ns();
                let child = root.child(tr::alloc_span_id());
                tr::record_span(child, root.span_id, "fault.matrix.child", start, 10_000);
                tr::record_span(root, 0, "fault.matrix.root", start, 50_000);
                let text = tind::obs::collect_trace(root, &[]).to_json();
                std::fs::write(&path, text).expect("write trace");
            }
            other => panic!("`tind verify` knows the format `{other}` but it has no fixture here"),
        }
        vec![path]
    };

    // Every format the matrix has a fixture for is still one `tind verify`
    // recognizes.
    let known: Vec<&str> = VERIFY_FORMATS.iter().map(|f| f.name).collect();
    for name in [
        "dataset",
        "index",
        "checkpoint",
        "quarantine report",
        "store manifest",
        "store shard",
        "ingest checkpoint",
        "update checkpoint",
        "run report",
        "trace",
    ] {
        assert!(known.contains(&name), "`tind verify` no longer recognizes the format `{name}`");
    }
    for format in VERIFY_FORMATS {
        for path in fixtures(format.name) {
            let name = format!("{} ({})", format.name, path.display());
            let bytes = std::fs::read(&path).expect("read fixture");
            assert!(bytes.starts_with(format.prefix), "{name}: the fixture is of its format");
            cli_verify(&path).unwrap_or_else(|e| panic!("{name}: pristine file must verify: {e}"));
            let len = bytes.len();
            // Header (inside the magic), body, and trailer (inside the CRC).
            for offset in [3, len / 2, len - 2] {
                flip_file_byte(&path, offset).expect("flip");
                assert!(
                    cli_verify(&path).is_err(),
                    "{name}: byte flip at offset {offset}/{len} went undetected"
                );
                // Flip back; the format must verify again (the detector is
                // really reacting to the corruption, not to a stale state).
                flip_file_byte(&path, offset).expect("unflip");
                cli_verify(&path).unwrap_or_else(|e| panic!("{name}: restored file: {e}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A payload-corrupted TINDRR report is refused with the failing byte
/// offset named in the error, as every checksummed format is.
#[test]
fn corrupt_report_refusal_names_the_byte_offset() {
    let text = tind::obs::RunReport::collect("fault-offset", &[], 10).to_json();
    assert!(tind::obs::verify_report(&text).is_ok(), "pristine report verifies");
    let corrupted = text.replacen("\"wall_ns\":10", "\"wall_ns\":11", 1);
    assert_ne!(corrupted, text, "report payload carries a `wall_ns` field");
    let err = tind::obs::verify_report(&corrupted).expect_err("corruption detected");
    let offset = corrupted.find("\"payload\":").expect("payload") + "\"payload\":".len();
    assert!(err.contains(&format!("byte offset {offset}")), "refusal must name the offset: {err}");
}

/// A payload-corrupted TINDTF trace must be refused with the failing
/// byte offset named in the error, mirroring every other checksummed
/// format's refusal contract.
#[test]
fn corrupt_trace_refusal_names_the_byte_offset() {
    use tind::obs::trace as tr;
    let root = tr::alloc_context();
    tr::record_span(root, 0, "fault.offset.root", tr::now_ns(), 1_000);
    let text = tind::obs::collect_trace(root, &[]).to_json();
    assert!(tind::obs::verify_trace(&text).is_ok(), "pristine trace verifies");

    // Corrupt one payload byte without breaking JSON syntax: the stored
    // CRC no longer matches, and the refusal must name where.
    let corrupted = text.replacen("\"dropped\":", "\"dropPed\":", 1);
    assert_ne!(corrupted, text, "trace payload carries a `dropped` field");
    let err = tind::obs::verify_trace(&corrupted).expect_err("corruption detected");
    assert!(
        err.contains("byte offset"),
        "refusal must name the byte offset: {err}"
    );
}

/// Arena-specific refusal matrix. Body and trailer corruption must
/// surface as the *typed* [`BinIoError::Checksum`] carrying the failing
/// byte offset (that is what `tind verify` prints), and the zero-copy
/// open path — which never reads matrix words — must still refuse
/// truncated and misaligned mappings up front.
#[test]
fn arena_corruption_is_typed_with_offsets_and_bad_maps_are_refused() {
    use tind::core::fault::flip_file_byte;
    use tind::core::store::{
        open_store_with, pack_store, verify_store, OpenOptions, PackOptions, StoreBacking,
        StoreError,
    };
    use tind::model::checksum::{crc32, TRAILER_LEN};

    let (dataset, index, _params) = small_world(80, 11);
    let dir = std::env::temp_dir().join("tind-fault-tolerance-arena");
    let _ = std::fs::remove_dir_all(&dir);
    pack_store(&index, &dir, &PackOptions { shards: 2, ..Default::default() }).expect("pack");
    let shard = dir.join("g1-s0.shard");
    let pristine = std::fs::read(&shard).expect("read shard");
    let len = pristine.len();
    let mmap_open = |expect_fault: bool| {
        let options =
            OpenOptions { backing: StoreBacking::Mmap, ..OpenOptions::default() };
        let (_, report) =
            open_store_with(&dir, dataset.clone(), &options).expect("open never hard-fails");
        assert_eq!(
            !report.is_clean(),
            expect_fault,
            "mmap open quarantine state: {report:?}"
        );
    };

    // Body flip: deep verify pins the trailer offset (the whole payload
    // hashes wrong, reported against the trailer position).
    flip_file_byte(&shard, len / 2).expect("flip body");
    let report = verify_store(&dir).expect("verify runs");
    assert_eq!(report.faults.len(), 1);
    match &report.faults[0].error {
        StoreError::Bin(BinIoError::Checksum { offset, .. }) => {
            assert_eq!(*offset, (len - TRAILER_LEN) as u64, "offset names the failing check");
        }
        // The manifest digest check may fire first, which is equally
        // typed — but the streaming CRC must be what names an offset.
        StoreError::ShardCorrupt { shard, .. } => assert_eq!(*shard, 0),
        other => panic!("body flip: expected a typed checksum fault, got {other}"),
    }
    std::fs::write(&shard, &pristine).expect("restore");

    // Trailer flip: same typed rejection.
    flip_file_byte(&shard, len - 1).expect("flip trailer");
    let report = verify_store(&dir).expect("verify runs");
    assert_eq!(report.faults.len(), 1, "trailer flip detected");
    std::fs::write(&shard, &pristine).expect("restore");

    // Header flip (inside the section table): the *open* path itself
    // refuses via the header CRC — zero-copy never trusts an unverified
    // header — and the shard is quarantined, not fatal.
    flip_file_byte(&shard, 50).expect("flip header");
    mmap_open(true);
    std::fs::write(&shard, &pristine).expect("restore");
    mmap_open(false);

    // Truncated map: the file no longer matches the manifest's committed
    // byte length, refused before any section is handed out.
    std::fs::write(&shard, &pristine[..len / 2]).expect("truncate");
    mmap_open(true);
    std::fs::write(&shard, &pristine).expect("restore");

    // Misaligned map: re-point section 0 at an offset that is not
    // 64-byte aligned and re-seal the header CRC so *only* the alignment
    // check can object. ARENA_FIXED_HEADER is 48; the section table's
    // first entry is its offset at byte 48.
    let mut warped = pristine.clone();
    let off = u64::from_le_bytes(warped[48..56].try_into().expect("8 bytes"));
    warped[48..56].copy_from_slice(&(off + 8).to_le_bytes());
    let table_end = (1usize..1024)
        .find(|&e| {
            // Recover the header-CRC position: fixed header + (targets+1)
            // section entries; scanning is cheap and avoids hardcoding
            // the target count.
            let end = 48 + e * 16;
            end + 4 <= pristine.len()
                && crc32(&pristine[..end])
                    == u32::from_le_bytes(pristine[end..end + 4].try_into().expect("4 bytes"))
        })
        .map(|e| 48 + e * 16)
        .expect("header CRC located");
    let seal = crc32(&warped[..table_end]);
    warped[table_end..table_end + 4].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(&shard, &warped).expect("write misaligned");
    mmap_open(true);
    std::fs::write(&shard, &pristine).expect("restore");
    mmap_open(false);

    std::fs::remove_dir_all(&dir).ok();
}

/// Randomized re-statement of the exhaustive boundary test: any seed,
/// any kill point, any resume thread count — resuming yields exactly
/// the uninterrupted pairs.
#[test]
fn prop_kill_anywhere_resume_identical() {
    cases("prop_kill_anywhere_resume_identical", 16, |rng| {
        let seed = rng.range(0..1000u64);
        let kill_after = rng.range(0..30usize);
        let resume_threads = rng.range(1..5usize);
        let (dataset, index, params) = small_world(22, seed);
        let full = discover_all_pairs(&index, &params, &AllPairsOptions::default())
            .expect("uninterrupted run");
        let path = ckpt_path(&format!("prop-{seed}-{kill_after}-{resume_threads}.tcp"));
        let _ = std::fs::remove_file(&path);

        let token = CancelToken::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let hook: FaultHook = {
            let token = token.clone();
            let counter = Arc::clone(&counter);
            Arc::new(move |_q| {
                if counter.fetch_add(1, Ordering::Relaxed) >= kill_after {
                    token.cancel();
                }
            })
        };
        let interrupted = AllPairsOptions {
            threads: 1,
            cancel: Some(token),
            checkpoint: Some(CheckpointPolicy::new(&path).every(1)),
            fault_hook: Some(hook),
            ..Default::default()
        };
        discover_all_pairs(&index, &params, &interrupted).expect("interrupted run");

        let cp = read_checkpoint(&path);
        assert!(cp.verify_matches(&dataset, &params).is_ok());
        let resume = AllPairsOptions {
            threads: resume_threads,
            resume_from: Some(cp),
            ..Default::default()
        };
        let resumed = discover_all_pairs(&index, &params, &resume).expect("resumed run");
        assert_eq!(resumed.pairs, full.pairs);
        let _ = std::fs::remove_file(&path);
    });
}

/// Any single bit flip in an encoded checkpoint is rejected.
#[test]
fn prop_checkpoint_bit_flips_rejected() {
    let (dataset, _index, params) = small_world(10, 8);
    let mut cp = Checkpoint::fresh(&dataset, &params);
    cp.completed = vec![1, 3, 4];
    cp.pairs = vec![(1, 2)];
    let bytes = binio::encode(&cp);
    cases("prop_checkpoint_bit_flips_rejected", 16, |rng| {
        let mut rotten = bytes.clone();
        flip_bit(&mut rotten, rng.range(0..bytes.len() * 8));
        assert!(Checkpoint::decode(&rotten).is_err());
    });
}

/// The bytes every artifact is built from, pinned: a seeded `generate`
/// dataset, its forward index at `m = 4096` and at the default `m`, and
/// its reverse index. A change to the encoders, the CRC kernel or the
/// fingerprint shows up here as a changed constant.
#[test]
fn seeded_dataset_and_index_bytes_are_pinned() {
    use tind::core::persist::encode_index;
    use tind::model::binio::dataset_fingerprint;
    use tind::model::hash::hash_bytes;
    let trailer = |b: &[u8]| u32::from_le_bytes(b[b.len() - 4..].try_into().expect("4 bytes"));
    let bytes = encode_dataset(&generate(&GeneratorConfig::small(150, 26)).dataset);
    let dataset = Arc::new(decode_dataset(&bytes).expect("decodes"));
    let paper_m = IndexConfig { m: 4096, ..IndexConfig::default() };
    let index = encode_index(&TindIndex::build(dataset.clone(), paper_m));
    let got = (trailer(&bytes), dataset_fingerprint(&dataset), trailer(&index), hash_bytes(&index));
    assert_eq!(got, (0x0cac_0de7, 0x080d_4bf2_07ad_b271, 0xde9d_083f, 0x01ca_dba5_aa6d_bf29));
    // The default forward index: the same slices at the default `m`.
    let index = encode_index(&TindIndex::build(dataset.clone(), IndexConfig::default()));
    let got = (trailer(&index), hash_bytes(&index));
    assert_eq!(got, (0x4cf4_934e, 0xd66e_7780_3db8_0b0c));
    // The reverse index of the same dataset: weighted-random slices, the
    // `M_R` column of required values and its δ-expanded windows.
    let reverse = encode_index(&TindIndex::build(dataset, IndexConfig::reverse_default()));
    let got = (trailer(&reverse), hash_bytes(&reverse));
    assert_eq!(got, (0x2c94_77b2, 0x1a90_10fe_39c8_5b22));
}
