//! End-to-end request-tracing tests for the serve daemon.
//!
//! Tracing must be a pure observer: forced-sample traces change no
//! response bytes at any worker count, every request's `serve.exec` span
//! parents to exactly one `serve.wave` span (the coalesced execution it
//! shared), the exported `TINDTF` envelope round-trips bit-exactly
//! through parse → re-serialize, and a forced `/search` trace accounts
//! for ≥90% of the request's wall time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tind::core::CancelToken;
use tind::datagen::{generate, GeneratorConfig};
use tind::model::Dataset;
use tind::obs::trace::TRACE_MAGIC;
use tind::obs::{json, verify_trace, ParsedTrace};
use tind::serve::{Engine, ServeConfig, Server};

const EPS: f64 = 3.0;
const DELTA: u32 = 7;

fn world() -> Arc<Dataset> {
    Arc::new(generate(&GeneratorConfig::small(90, 23)).dataset)
}

/// Sends one HTTP request with extra headers; returns
/// `(status, raw_header_block, body)`.
fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut head = format!("{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write");
    stream.write_all(body.as_bytes()).expect("write body");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

/// Drops the one wall-clock field, keeping everything else byte-exact.
fn strip_elapsed(body: &str) -> String {
    match json::parse(body).expect("serve responses are valid JSON") {
        json::Value::Obj(fields) => {
            json::Value::Obj(fields.into_iter().filter(|(k, _)| k != "elapsed_ms").collect())
                .to_json()
        }
        other => other.to_json(),
    }
}

/// Starts a server over `dataset`, runs `f` against its address, then
/// drains it and returns `f`'s result.
fn with_server<T>(
    dataset: Arc<Dataset>,
    config: ServeConfig,
    f: impl FnOnce(std::net::SocketAddr) -> T,
) -> T {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let shutdown = CancelToken::new();
    let handle = {
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            server.run(move || Ok(Engine::build(dataset, EPS, DELTA, None, 0)), shutdown)
        })
    };
    let ready = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = request(addr, "GET", "/healthz", "", &[]);
        if status == 200 && body.contains("\"serving\"") {
            break;
        }
        assert!(Instant::now() < ready, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = f(addr);
    shutdown.cancel();
    handle.join().expect("server thread").expect("outcome");
    out
}

fn search_workload() -> Vec<(&'static str, String)> {
    let mut calls = Vec::new();
    for q in ["source-1", "source-2", "source-3", "source-4"] {
        calls.push(("/search", format!("{{\"query\":\"{q}\",\"limit\":50}}")));
        calls.push(("/reverse-search", format!("{{\"query\":\"{q}\",\"limit\":50}}")));
    }
    calls.push(("/explain", "{\"lhs\":\"source-1\",\"rhs\":\"source-2\"}".into()));
    calls
}

/// Runs the workload, forcing a trace on every request when `traced`,
/// and returns the elapsed-stripped bodies in order.
fn run_workload(dataset: Arc<Dataset>, workers: usize, traced: bool) -> Vec<String> {
    let config = ServeConfig { workers, ..ServeConfig::default() };
    with_server(dataset, config, |addr| {
        let headers: &[(&str, &str)] = if traced { &[("X-Tind-Trace", "1")] } else { &[] };
        search_workload()
            .into_iter()
            .map(|(path, body)| {
                let (status, head, response) = request(addr, "POST", path, &body, headers);
                assert_eq!(status, 200, "{path} {body} → {response}");
                if traced {
                    assert!(
                        head.contains("X-Tind-Trace-Id: 0x"),
                        "forced-sample responses must name their trace id\n{head}"
                    );
                }
                strip_elapsed(&response)
            })
            .collect()
    })
}

/// Tracing is observationally pure: forcing a trace on every request
/// changes no response bytes, at one worker and at four.
#[test]
fn traced_responses_are_byte_identical_to_untraced_at_both_worker_counts() {
    let dataset = world();
    let baseline = run_workload(dataset.clone(), 1, false);
    for workers in [1, 4] {
        let traced = run_workload(dataset.clone(), workers, true);
        assert_eq!(baseline.len(), traced.len());
        for (i, (a, b)) in baseline.iter().zip(&traced).enumerate() {
            assert_eq!(
                a, b,
                "workload item {i} diverged between untraced workers=1 \
                 and traced workers={workers}"
            );
        }
    }
}

/// Fetches `/debug/trace?format=tindtf`, verifies every line's checksum,
/// and returns the parsed traces in export order. A trace becomes
/// visible only once its wave closes (collection runs after the
/// response is written), so this polls until every id in `expect` is
/// exported.
fn fetch_traces(
    addr: std::net::SocketAddr,
    last: usize,
    expect: &[String],
) -> Vec<(String, ParsedTrace)> {
    let path = format!("/debug/trace?last={last}&format=tindtf");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = request(addr, "GET", &path, "", &[]);
        assert_eq!(status, 200, "{body}");
        let traces: Vec<(String, ParsedTrace)> = body
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let payload = verify_trace(line).expect("every exported line verifies");
                let parsed = ParsedTrace::from_payload(&payload).expect("payload decodes");
                (format!("{line}\n"), parsed)
            })
            .collect();
        if expect.iter().all(|id| traces.iter().any(|(_, t)| t.trace_id == *id)) {
            return traces;
        }
        assert!(
            Instant::now() < deadline,
            "forced traces {expect:?} never all appeared in the export"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The core tentpole contract, checked per forced trace:
/// * the root `serve.request` span covers ≥90% of wall time through its
///   `serve.queued` / `serve.coalesced` / `serve.exec` children;
/// * `serve.exec` parents to exactly one `serve.wave` span, reached via
///   a `serve.wave_link` event — the coalesced wave the request shared;
/// * no event references a span that was never recorded.
fn assert_trace_shape(parsed: &ParsedTrace) {
    let root = parsed.root().expect("trace carries its root span");
    assert_eq!(root.name, "serve.request");
    assert_eq!(root.parent, "0x0", "the request span is the trace root");

    let spans_named = |name: &str| {
        parsed
            .events
            .iter()
            .filter(|e| e.kind == "span" && e.name == name)
            .collect::<Vec<_>>()
    };
    for stage in ["serve.queued", "serve.coalesced"] {
        let stage_spans = spans_named(stage);
        assert_eq!(stage_spans.len(), 1, "exactly one {stage} span");
        assert_eq!(stage_spans[0].parent, root.span, "{stage} hangs off the request root");
    }

    let execs = spans_named("serve.exec");
    assert_eq!(execs.len(), 1, "exactly one serve.exec span");
    let waves = spans_named("serve.wave");
    assert_eq!(waves.len(), 1, "exactly one serve.wave span is merged into the trace");
    assert_eq!(
        execs[0].parent, waves[0].span,
        "serve.exec must parent to the shared wave span"
    );

    let links: Vec<_> = parsed
        .events
        .iter()
        .filter(|e| e.kind == "link" && e.name == "serve.wave_link")
        .collect();
    assert_eq!(links.len(), 1, "one wave link per request");
    assert_eq!(links[0].span, waves[0].span, "the link targets the wave span");
    assert_eq!(links[0].parent, root.span, "the link hangs off the request root");

    assert_eq!(parsed.missing_parents(), 0, "no dangling span references");
    let coverage = parsed.coverage().expect("root span present");
    assert!(
        coverage >= 0.90,
        "stage spans must cover ≥90% of request wall time, got {coverage:.3}"
    );
}

/// Forced `/search` traces export through `/debug/trace` with full
/// stage coverage, a single shared wave parent, bit-exact `TINDTF`
/// round-trips, and a Chrome `trace_event` rendering.
#[test]
fn forced_search_traces_cover_wall_time_and_round_trip_bit_exactly() {
    let dataset = world();
    let config = ServeConfig { workers: 2, trace_last: 8, ..ServeConfig::default() };
    with_server(dataset, config, |addr| {
        let mut forced_ids = Vec::new();
        for q in ["source-1", "source-2", "source-3"] {
            let body = format!("{{\"query\":\"{q}\",\"limit\":50}}");
            let (status, head, _) =
                request(addr, "POST", "/search", &body, &[("X-Tind-Trace", "1")]);
            assert_eq!(status, 200);
            let id = head
                .lines()
                .find_map(|l| l.strip_prefix("X-Tind-Trace-Id: "))
                .expect("forced responses carry X-Tind-Trace-Id")
                .trim()
                .to_string();
            forced_ids.push(id);
        }

        let exported = fetch_traces(addr, 8, &forced_ids);
        for id in &forced_ids {
            let (line, parsed) = exported
                .iter()
                .find(|(_, t)| t.trace_id == *id)
                .unwrap_or_else(|| panic!("forced trace {id} must be exported"));
            assert_trace_shape(parsed);

            // Bit-exact round-trip: parse → re-serialize reproduces the
            // exported envelope byte for byte.
            assert_eq!(
                &json::seal(TRACE_MAGIC, &parsed.to_value()),
                line,
                "TINDTF round-trip must be bit-exact"
            );

            // Chrome export: complete events for spans, instants for links.
            let chrome = parsed.to_chrome_json();
            assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
            assert!(chrome.contains("\"ph\":\"i\""), "{chrome}");
            assert!(chrome.contains("serve.request"), "{chrome}");
            assert!(chrome.contains("serve.wave"), "{chrome}");
        }

        // The JSON format serves the same traces with loss accounting.
        let (status, _, body) = request(addr, "GET", "/debug/trace?format=json", "", &[]);
        assert_eq!(status, 200);
        let doc = json::parse(&body).expect("json");
        assert!(doc.get("count").is_some(), "{body}");
        assert!(doc.get("dropped_spans_total").is_some(), "{body}");
        let traces = doc.get("traces").and_then(|v| v.as_arr()).expect("traces array");
        assert!(!traces.is_empty(), "forced traces are retained");
    });
}

/// With the default retention (`--trace-last 4`) the daemon collects
/// only the traces it keeps, and the most recent ones only when they are
/// exported; after a few hundred unforced requests every exported trace
/// is still complete.
#[test]
fn retained_traces_stay_complete_after_hundreds_of_requests() {
    let dataset = world();
    let config = ServeConfig { workers: 2, ..ServeConfig::default() };
    assert_eq!(config.trace_last, 4, "this test exercises the default retention");
    with_server(dataset, config, |addr| {
        for i in 0..300 {
            let (path, q) =
                if i % 3 == 2 { ("/reverse-search", i % 7) } else { ("/search", i % 11) };
            let body = format!("{{\"query\":\"source-{}\",\"limit\":50}}", q + 1);
            let (status, _, response) = request(addr, "POST", path, &body, &[]);
            assert_eq!(status, 200, "{path} {body} → {response}");
        }
        let traces = fetch_traces(addr, 8, &[]);
        assert!(
            (4..=8).contains(&traces.len()),
            "4 slowest + 4 most recent, deduplicated: got {}",
            traces.len()
        );
        for (_, parsed) in &traces {
            assert_trace_shape(parsed);
        }
    });
}

/// A coalesced wave is genuinely shared: requests batched into the same
/// wave parent their `serve.exec` spans to the *same* wave span id.
#[test]
fn coalesced_requests_share_one_wave_span() {
    let dataset = world();
    // One worker + generous coalescing, and the first executed call
    // stalls 300 ms: the burst below queues behind it and is drained
    // into a shared wave deterministically.
    let tripped = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let config = ServeConfig {
        workers: 1,
        coalesce: 16,
        trace_last: 16,
        fault_hook: Some(Arc::new({
            let tripped = Arc::clone(&tripped);
            move |_call: &tind::serve::ApiCall| {
                if tripped.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(300));
                }
            }
        })),
        ..ServeConfig::default()
    };
    with_server(dataset, config, |addr| {
        // The staller trips the hook and occupies the only worker.
        let staller = std::thread::spawn(move || {
            let (status, _, _) =
                request(addr, "POST", "/search", "{\"query\":\"source-7\"}", &[]);
            assert_eq!(status, 200);
        });
        std::thread::sleep(Duration::from_millis(80));

        let queries: Vec<String> =
            (1..=6).map(|i| format!("{{\"query\":\"source-{i}\",\"limit\":50}}")).collect();
        let handles: Vec<_> = queries
            .into_iter()
            .map(|body| {
                std::thread::spawn(move || {
                    let (status, head, _) =
                        request(addr, "POST", "/search", &body, &[("X-Tind-Trace", "1")]);
                    assert_eq!(status, 200);
                    head.lines()
                        .find_map(|l| l.strip_prefix("X-Tind-Trace-Id: "))
                        .expect("trace id header")
                        .trim()
                        .to_string()
                })
            })
            .collect();
        let ids: Vec<String> = handles.into_iter().map(|h| h.join().expect("join")).collect();
        staller.join().expect("staller");

        let exported = fetch_traces(addr, 16, &ids);
        let mut wave_of = std::collections::HashMap::new();
        for id in &ids {
            let (_, parsed) = exported
                .iter()
                .find(|(_, t)| t.trace_id == *id)
                .unwrap_or_else(|| panic!("forced trace {id} must be exported"));
            assert_trace_shape(parsed);
            let wave = parsed
                .events
                .iter()
                .find(|e| e.kind == "span" && e.name == "serve.wave")
                .expect("wave span")
                .span
                .clone();
            *wave_of.entry(wave).or_insert(0usize) += 1;
        }
        // Six requests against one worker cannot each have run alone:
        // at least one wave span must be shared by several requests.
        assert!(
            wave_of.values().any(|&n| n >= 2),
            "expected at least one shared wave, got {wave_of:?}"
        );
    });
}
