//! End-to-end tests for the TINDRR run-report pipeline (ISSUE 5).
//!
//! Drives the real CLI dispatch (`tind_cli::dispatch`) so the reports
//! exercised here are exactly what `tind <cmd> --report FILE` writes:
//!
//! * the report schema is stable across worker thread counts — a report
//!   from `--threads 1` and `--threads 3`, with timings normalized away,
//!   is byte-identical;
//! * every counter's `total` equals the sum of its per-worker shards;
//! * an all-pairs run's `phase.*` spans cover ≥ 90% of wall time (the
//!   acceptance bar: the report accounts for where the run went);
//! * `tind verify` validates reports against the checked-in
//!   `devtools/report-schema.json` and cross-checks the
//!   `ingest.quarantined_total` gauge against a quarantine artifact.
//!
//! The obs registry is process-global and `dispatch` resets it per run,
//! so every test serializes on [`LOCK`].

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use tind::obs::{self, Value};
use tind_cli::dispatch;

/// Serializes tests: `dispatch` resets the process-global obs registry.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run(tokens: &[&str]) -> Result<String, tind_cli::CliError> {
    let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
    dispatch(&raw)
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tind-run-report-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Generates a small dataset and returns its path (as a String for argv).
fn generate_dataset(name: &str, attributes: &str, seed: &str) -> String {
    let path = temp_file(name);
    let p = path.to_str().expect("utf8").to_string();
    run(&["generate", "--attributes", attributes, "--preset", "small", "--seed", seed, "--out", &p])
        .expect("generate");
    p
}

/// Reads a report file and returns its checksum-verified payload.
fn read_report(path: &str) -> Value {
    let text = std::fs::read_to_string(path).expect("read report");
    obs::verify_report(&text).expect("valid TINDRR report")
}

/// Normalizes a payload for snapshot comparison: zeroes every number
/// except `schema_version`, and empties the run-specific `args` and
/// per-worker `shards` arrays (shard *count* varies with --threads by
/// design; totals are checked separately).
fn normalize(value: &mut Value, key: &str) {
    match value {
        Value::Num(n)
            if key != "schema_version" => {
                *n = 0.0;
            }
        Value::Arr(items) => {
            if key == "args" || key == "shards" {
                items.clear();
            } else {
                for item in items.iter_mut() {
                    normalize(item, key);
                }
            }
        }
        Value::Obj(fields) => {
            for (k, v) in fields.iter_mut() {
                normalize(v, k);
            }
        }
        _ => {}
    }
}

fn gauge_value(payload: &Value, name: &str) -> Option<f64> {
    payload
        .get("metrics")?
        .get("gauges")?
        .as_arr()?
        .iter()
        .find(|g| g.get("name").and_then(Value::as_str) == Some(name))?
        .get("value")?
        .as_f64()
}

#[test]
fn report_schema_is_stable_across_thread_counts() {
    let _guard = lock();
    let data = generate_dataset("snap-data.tind", "120", "7");
    let r1 = temp_file("snap-t1.json");
    let r3 = temp_file("snap-t3.json");
    let (r1s, r3s) = (r1.to_str().expect("utf8"), r3.to_str().expect("utf8"));

    run(&["all-pairs", "--data", &data, "--threads", "1", "--quiet", "--report", r1s])
        .expect("all-pairs t1");
    run(&["all-pairs", "--data", &data, "--threads", "3", "--quiet", "--report", r3s])
        .expect("all-pairs t3");

    let mut p1 = read_report(r1s);
    let mut p3 = read_report(r3s);

    // Same deterministic work at any thread count: workload counters match
    // exactly even before normalization.
    for name in ["allpairs.queries_completed", "allpairs.pairs", "search.validations"] {
        let totals: Vec<f64> = [&p1, &p3]
            .iter()
            .map(|p| {
                p.get("metrics")
                    .and_then(|m| m.get("counters"))
                    .and_then(Value::as_arr)
                    .and_then(|cs| {
                        cs.iter().find(|c| c.get("name").and_then(Value::as_str) == Some(name))
                    })
                    .and_then(|c| c.get("total"))
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("counter {name} missing"))
            })
            .collect();
        assert_eq!(totals[0], totals[1], "counter {name} differs across thread counts");
    }

    normalize(&mut p1, "");
    normalize(&mut p3, "");
    assert_eq!(
        p1.to_json(),
        p3.to_json(),
        "normalized report payloads must be identical across thread counts"
    );
}

#[test]
fn counter_totals_equal_shard_sums_in_emitted_report() {
    let _guard = lock();
    let data = generate_dataset("shard-data.tind", "100", "11");
    let report = temp_file("shard-report.json");
    let rs = report.to_str().expect("utf8");
    run(&["all-pairs", "--data", &data, "--threads", "4", "--quiet", "--report", rs])
        .expect("all-pairs");

    let payload = read_report(rs);
    let counters = payload
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_arr)
        .expect("counters array");
    assert!(!counters.is_empty(), "an all-pairs run must record counters");
    for counter in counters {
        let name = counter.get("name").and_then(Value::as_str).expect("name");
        let total = counter.get("total").and_then(Value::as_f64).expect("total");
        let shards = counter.get("shards").and_then(Value::as_arr).expect("shards");
        let sum: f64 = shards.iter().filter_map(Value::as_f64).sum();
        assert_eq!(total, sum, "counter {name}: total must equal the sum of its shards");
    }
}

#[test]
fn all_pairs_report_meets_phase_coverage_bar() {
    let _guard = lock();
    let data = generate_dataset("coverage-data.tind", "300", "3");
    let report = temp_file("coverage-report.json");
    let rs = report.to_str().expect("utf8");
    run(&["all-pairs", "--data", &data, "--threads", "2", "--quiet", "--report", rs])
        .expect("all-pairs");

    let payload = read_report(rs);
    let coverage =
        payload.get("phase_coverage").and_then(Value::as_f64).expect("phase_coverage");
    assert!(
        coverage >= 0.9,
        "phase spans must cover >= 90% of wall time, got {:.1}%",
        coverage * 100.0
    );
    // The phases themselves must be the documented all-pairs trio.
    let phases: Vec<&str> = payload
        .get("phases")
        .and_then(Value::as_arr)
        .expect("phases")
        .iter()
        .filter_map(|p| p.get("name").and_then(Value::as_str))
        .collect();
    for expected in ["phase.load", "phase.index_build", "phase.discover"] {
        assert!(phases.contains(&expected), "missing {expected} in {phases:?}");
    }
}

#[test]
fn verify_validates_report_against_checked_in_schema() {
    let _guard = lock();
    assert!(
        std::path::Path::new("devtools/report-schema.json").is_file(),
        "run tests from the workspace root"
    );
    let data = generate_dataset("schema-data.tind", "80", "5");
    let report = temp_file("schema-report.json");
    let rs = report.to_str().expect("utf8");
    run(&["all-pairs", "--data", &data, "--threads", "1", "--quiet", "--report", rs])
        .expect("all-pairs");

    let out = run(&["verify", rs, "--schema", "devtools/report-schema.json"]).expect("verify");
    assert!(out.contains("run report: `all-pairs`"), "{out}");
    assert!(out.contains("schema: conforms to devtools/report-schema.json"), "{out}");

    // Search and index reports conform to the same schema.
    let sr = temp_file("schema-search-report.json");
    let srs = sr.to_str().expect("utf8");
    run(&["search", "--data", &data, "--query", "0", "--report", srs]).expect("search");
    let out = run(&["verify", srs, "--schema", "devtools/report-schema.json"]).expect("verify");
    assert!(out.contains("run report: `search`"), "{out}");
    assert!(out.contains("schema: conforms"), "{out}");

    // A tampered payload fails checksum verification with a corrupt error.
    let tampered = std::fs::read_to_string(rs).expect("read").replace("all-pairs", "all-liars");
    std::fs::write(rs, tampered).expect("write");
    let err = run(&["verify", rs]).expect_err("tampered report must fail");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
}

/// One well-formed page whose table grows monotonically across six
/// revisions — enough versions and cardinality for the §5.1 filters.
fn ingest_page_xml(title: &str, id: u32) -> String {
    let games =
        ["Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl"];
    let mut page = format!("<page><title>{title}</title><id>{id}</id>");
    for i in 0..6 {
        let mut table = String::from("{|\n! Game\n");
        for g in &games[..3 + i] {
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

/// A page with no `<title>`: quarantined by ingestion.
fn broken_page_xml(id: u32) -> String {
    format!(
        "<page><id>{id}</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp>\
         <text>x</text></revision></page>"
    )
}

/// `tind update` runs the same ingestion driver as `tind ingest`, so its
/// report carries the same `ingest.quarantined_total` gauge and verifies
/// against its quarantine artifact.
#[test]
fn update_report_cross_checks_quarantine_artifact() {
    let _guard = lock();
    let base_dump = temp_file("ux-base.xml");
    std::fs::write(&base_dump, format!("<mediawiki>\n{}</mediawiki>", ingest_page_xml("Alpha", 1)))
        .expect("write base dump");
    let base = temp_file("ux-base.tind");
    let base_s = base.to_str().expect("utf8");
    run(&["ingest", "--dump", base_dump.to_str().expect("utf8"), "--out", base_s, "--quiet"])
        .expect("base ingest");

    let delta_dump = temp_file("ux-delta.xml");
    let mut xml = String::from("<mediawiki>\n");
    xml.push_str(&broken_page_xml(2));
    xml.push_str(&ingest_page_xml("Beta", 3));
    xml.push_str("</mediawiki>");
    std::fs::write(&delta_dump, xml).expect("write delta dump");
    let merged = temp_file("ux-merged.tind");
    let q_path = temp_file("ux-quarantine.tqr");
    let report = temp_file("ux-report.json");
    let (q_s, r_s) = (q_path.to_str().expect("utf8"), report.to_str().expect("utf8"));
    run(&[
        "update", "--dump", delta_dump.to_str().expect("utf8"), "--data", base_s, "--out",
        merged.to_str().expect("utf8"), "--quiet", "--quarantine-report", q_s, "--report", r_s,
    ])
    .expect("update");

    let payload = read_report(r_s);
    assert_eq!(gauge_value(&payload, "ingest.quarantined_total"), Some(1.0));
    let out = run(&["verify", r_s, "--quarantine", q_s]).expect("cross-check");
    assert!(out.contains("run report: `update`"), "{out}");
    assert!(out.contains("quarantine: gauge matches"), "{out}");
    assert!(out.contains("(1 quarantined, 1 sampled)"), "{out}");
    let out = run(&["verify", r_s, "--schema", "devtools/report-schema.json"]).expect("schema");
    assert!(out.contains("schema: conforms"), "{out}");
}

#[test]
fn ingest_report_cross_checks_quarantine_artifact() {
    let _guard = lock();
    let dump = temp_file("qx-dump.xml");
    let mut xml = String::from("<mediawiki>\n");
    xml.push_str(&ingest_page_xml("Alpha", 1));
    xml.push_str(&broken_page_xml(2));
    xml.push_str(&ingest_page_xml("Beta", 3));
    xml.push_str("</mediawiki>");
    std::fs::write(&dump, xml).expect("write dump");
    let dump_s = dump.to_str().expect("utf8");

    let out_path = temp_file("qx-out.tind");
    let q_path = temp_file("qx-quarantine.tqr");
    let report = temp_file("qx-report.json");
    let (out_s, q_s, r_s) = (
        out_path.to_str().expect("utf8"),
        q_path.to_str().expect("utf8"),
        report.to_str().expect("utf8"),
    );
    run(&[
        "ingest", "--dump", dump_s, "--out", out_s, "--quiet", "--quarantine-report", q_s,
        "--report", r_s,
    ])
    .expect("ingest");

    // The running gauge reflects the quarantined page.
    let payload = read_report(r_s);
    assert_eq!(gauge_value(&payload, "ingest.quarantined_total"), Some(1.0));
    assert_eq!(gauge_value(&payload, "ingest.pages_seen"), None, "pages_seen is a counter");

    // verify cross-checks the gauge against the artifact's own totals.
    let out = run(&["verify", r_s, "--quarantine", q_s]).expect("cross-check");
    assert!(out.contains("run report: `ingest`"), "{out}");
    assert!(out.contains("quarantine: gauge matches"), "{out}");
    assert!(out.contains("(1 quarantined, 1 sampled)"), "{out}");

    // A quarantine artifact from a different (clean) run must be rejected.
    let clean_dump = temp_file("qx-clean-dump.xml");
    let mut xml = String::from("<mediawiki>\n");
    xml.push_str(&ingest_page_xml("Gamma", 4));
    xml.push_str("</mediawiki>");
    std::fs::write(&clean_dump, xml).expect("write dump");
    let clean_q = temp_file("qx-clean.tqr");
    let (cd_s, cq_s) = (clean_dump.to_str().expect("utf8"), clean_q.to_str().expect("utf8"));
    let clean_out = temp_file("qx-clean-out.tind");
    run(&[
        "ingest", "--dump", cd_s, "--out", clean_out.to_str().expect("utf8"), "--quiet",
        "--quarantine-report", cq_s,
    ])
    .expect("clean ingest");
    let err = run(&["verify", r_s, "--quarantine", cq_s]).expect_err("mismatch must fail");
    assert!(err.to_string().contains("quarantine mismatch"), "{err}");

    // A report with no ingest gauge (e.g. from a search run in its own
    // process) carries nothing to cross-check. Crafted by hand because the
    // obs registry keeps registered names for the life of *this* process,
    // so any report emitted after the ingest above would carry the gauge
    // (zeroed) even for non-ingest commands.
    let payload = obs::json::parse(
        r#"{"schema_version":1,"command":"search","args":[],"wall_ns":0,
            "phase_coverage":0,"phases":[],"spans":[],
            "metrics":{"counters":[],"gauges":[],"histograms":[]}}"#,
    )
    .expect("payload")
    .to_json();
    let nr = temp_file("qx-no-gauge-report.json");
    let nr_s = nr.to_str().expect("utf8");
    std::fs::write(
        &nr,
        format!("{{\"magic\":\"TINDRR1\",\"crc32\":{},\"payload\":{payload}}}\n", obs::crc32(payload.as_bytes())),
    )
    .expect("write report");
    let err = run(&["verify", nr_s, "--quarantine", q_s]).expect_err("no gauge");
    assert!(err.to_string().contains("no ingest.quarantined_total gauge"), "{err}");
}
