//! Fault-injection suite for the `tind-serve` daemon.
//!
//! Every test drives a real in-process server over real TCP sockets and
//! asserts the *contract* of the failure model: hostile or unlucky input
//! always produces a typed JSON error with the documented status, no
//! worker thread ever dies, and a drain always terminates.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tind_core::CancelToken;
use tind_datagen::{generate, GeneratorConfig};
use tind_model::MemoryBudget;
use tind_serve::{ApiCall, Engine, ServeConfig, ServeOutcome, Server};

fn engine() -> Engine {
    let generated = generate(&GeneratorConfig::small(60, 11));
    Engine::build(Arc::new(generated.dataset), 3.0, 7, None, 0)
}

/// A running server plus the handles needed to stop it and inspect the
/// outcome.
struct Harness {
    addr: std::net::SocketAddr,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<Result<ServeOutcome, String>>,
}

impl Harness {
    fn start(config: ServeConfig) -> Harness {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
        let addr = server.local_addr();
        let shutdown = CancelToken::new();
        let handle = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || server.run(|| Ok(engine()), shutdown))
        };
        let h = Harness { addr, shutdown, handle };
        h.wait_ready();
        h
    }

    fn wait_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (status, body) = request(self.addr, "GET", "/healthz", "");
            if status == 200 && body.contains("\"serving\"") {
                return;
            }
            assert!(Instant::now() < deadline, "server never became ready");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn stop(self) -> ServeOutcome {
        self.shutdown.cancel();
        self.handle.join().expect("server thread").expect("serve outcome")
    }
}

/// Sends one HTTP request and returns `(status, body)`.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!("{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn tight_timeouts() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(200),
        max_body_bytes: 2048,
        max_header_bytes: 1024,
        ..ServeConfig::default()
    }
}

#[test]
fn slow_loris_is_cut_off_with_408() {
    let h = Harness::start(tight_timeouts());
    let mut stream = TcpStream::connect(h.addr).expect("connect");
    // Dribble a valid prefix and stall past the read budget.
    stream.write_all(b"POST /sea").expect("write");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("\"request_timeout\""), "{body}");
    // The reader that handled the loris still serves the next client.
    let (status, _) = request(h.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    h.stop();
}

#[test]
fn oversized_declared_body_is_413_before_transfer() {
    let h = Harness::start(tight_timeouts());
    let mut stream = TcpStream::connect(h.addr).expect("connect");
    // Declared length is over the cap; no body byte is ever sent.
    stream
        .write_all(b"POST /search HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
        .expect("write");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"payload_too_large\""), "{body}");
    h.stop();
}

#[test]
fn oversized_head_is_431() {
    let h = Harness::start(tight_timeouts());
    let mut stream = TcpStream::connect(h.addr).expect("connect");
    let padded = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4096));
    stream.write_all(padded.as_bytes()).expect("write");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 431, "{body}");
    h.stop();
}

#[test]
fn malformed_inputs_are_typed_400s_404s_405s() {
    let h = Harness::start(ServeConfig::default());
    for (method, path, body, want) in [
        ("POST", "/search", "{not json", 400),
        ("POST", "/search", "[1,2,3]", 400),
        ("POST", "/search", "{\"query\":\"source-1\",\"epd\":1}", 400),
        ("POST", "/search", "{\"delta\":7}", 400),
        ("POST", "/search", "{\"query\":\"no-such-attribute\"}", 400),
        ("POST", "/explain", "{\"lhs\":\"source-1\"}", 400),
        ("GET", "/nope", "", 404),
        ("DELETE", "/search", "", 405),
    ] {
        let (status, response) = request(h.addr, method, path, body);
        assert_eq!(status, want, "{method} {path} {body} → {response}");
        assert!(response.contains("\"error\""), "{response}");
    }
    let outcome = h.stop();
    assert_eq!(outcome.panics, 0);
}

#[test]
fn queue_full_burst_sheds_with_429_and_retry_hint() {
    // One worker, minimal queue, and every executed call stalls briefly:
    // a concurrent burst must overflow admission and shed typed 429s.
    let config = ServeConfig {
        workers: 1,
        readers: 2,
        queue_capacity: 1,
        coalesce: 1,
        fault_hook: Some(Arc::new(|_call: &ApiCall| {
            std::thread::sleep(Duration::from_millis(150));
        })),
        ..ServeConfig::default()
    };
    let h = Harness::start(config);
    let addr = h.addr;
    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                request(addr, "POST", "/search", "{\"query\":\"source-1\"}")
            })
        })
        .collect();
    let mut statuses: Vec<u16> = Vec::new();
    let mut saw_retry_hint = false;
    for c in clients {
        let (status, body) = c.join().expect("client");
        if status == 429 {
            assert!(body.contains("\"overloaded\""), "{body}");
            saw_retry_hint |= body.contains("\"retry_after_ms\"");
        }
        statuses.push(status);
    }
    assert!(statuses.contains(&429), "burst never shed: {statuses:?}");
    assert!(statuses.contains(&200), "burst all shed: {statuses:?}");
    assert!(saw_retry_hint, "429 bodies must carry retry_after_ms");
    // Every shed was load, not damage: the daemon still serves.
    let (status, _) = request(addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 200);
    let outcome = h.stop();
    assert_eq!(outcome.panics, 0, "no worker died during the burst");
    assert!(outcome.shed > 0);
}

#[test]
fn expired_deadline_in_queue_is_a_typed_504() {
    // The single worker stalls on the first request; the second carries a
    // 10 ms deadline and expires while queued, so the pre-execution check
    // answers it 504 deterministically.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        coalesce: 1,
        fault_hook: Some(Arc::new(|_call: &ApiCall| {
            std::thread::sleep(Duration::from_millis(300));
        })),
        ..ServeConfig::default()
    };
    let h = Harness::start(config);
    let addr = h.addr;
    let staller = std::thread::spawn(move || {
        request(addr, "POST", "/search", "{\"query\":\"source-1\"}")
    });
    std::thread::sleep(Duration::from_millis(50));
    let (status, body) =
        request(addr, "POST", "/search", "{\"query\":\"source-2\",\"timeout_ms\":10}");
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"deadline_exceeded\""), "{body}");
    let (status, _) = staller.join().expect("staller");
    assert_eq!(status, 200, "the stalled request itself still completes");
    let outcome = h.stop();
    assert!(outcome.deadline_timeouts >= 1);
}

#[test]
fn panicking_request_is_quarantined_and_the_worker_survives() {
    let trip = Arc::new(AtomicBool::new(true));
    let config = ServeConfig {
        workers: 1,
        fault_hook: Some(Arc::new({
            let trip = Arc::clone(&trip);
            move |_call: &ApiCall| {
                if trip.swap(false, Ordering::SeqCst) {
                    panic!("injected query panic");
                }
            }
        })),
        ..ServeConfig::default()
    };
    let h = Harness::start(config);
    let (status, body) = request(h.addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"internal_panic\""), "{body}");
    // Same worker (there is only one), next request: business as usual.
    let (status, body) = request(h.addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 200, "{body}");
    let outcome = h.stop();
    assert_eq!(outcome.panics, 1);
    assert!(outcome.drained_clean);
}

#[test]
fn memory_pressure_sheds_with_typed_503() {
    // A ~60-attribute engine charges len*64+4096 ≈ 8 KiB per request; a
    // 1-byte budget can never cover it, so every query sheds.
    let config = ServeConfig {
        memory_budget: Some(MemoryBudget::new(1)),
        ..ServeConfig::default()
    };
    let h = Harness::start(config);
    let (status, body) = request(h.addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"overloaded_memory\""), "{body}");
    assert!(body.contains("\"retry_after_ms\""), "{body}");
    // Health endpoints don't charge the budget and still answer.
    let (status, _) = request(h.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let outcome = h.stop();
    assert!(outcome.shed >= 1);
}

#[test]
fn drain_cancels_stuck_work_after_the_grace_period() {
    // The worker stalls far past the drain grace; the watchdog must
    // cancel the in-flight wave with reason `Drain` (503) and the server
    // must still terminate, reporting the forced drain.
    let config = ServeConfig {
        workers: 1,
        drain_grace: Duration::from_millis(100),
        fault_hook: Some(Arc::new(|_call: &ApiCall| {
            std::thread::sleep(Duration::from_millis(600));
        })),
        ..ServeConfig::default()
    };
    let h = Harness::start(config);
    let addr = h.addr;
    let inflight = std::thread::spawn(move || {
        request(addr, "POST", "/search", "{\"query\":\"source-1\",\"timeout_ms\":30000}")
    });
    std::thread::sleep(Duration::from_millis(50));
    let outcome = h.stop();
    let (status, body) = inflight.join().expect("in-flight client");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"draining\""), "{body}");
    assert!(!outcome.drained_clean, "grace expiry must be reported");
}

#[test]
fn idle_drain_is_clean_and_new_requests_get_draining_503() {
    let h = Harness::start(ServeConfig::default());
    let (status, _) = request(h.addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 200);
    let outcome = h.stop();
    assert!(outcome.drained_clean);
    assert_eq!(outcome.requests, outcome.ok + outcome.errors);
}

#[test]
fn sequential_requests_are_not_paced_by_an_accept_poll() {
    // Back-to-back requests each arrive just after the previous accept.
    // An acceptor that polls (the 5 ms sleep this replaced) leaves every
    // one of them waiting out most of a period, so the median sits near
    // 5 ms whatever the engine does; a blocking accept leaves connect +
    // parse + a 60-attribute search. The median, not the max: one stall of
    // the shared test host must not fail this.
    let h = Harness::start(ServeConfig::default());
    let mut ms: Vec<f64> = (0..200)
        .map(|_| {
            let sent = Instant::now();
            let (status, _) = request(h.addr, "POST", "/search", "{\"query\":\"source-1\"}");
            assert_eq!(status, 200);
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(median < 2.5, "median of 200 sequential requests is {median:.2} ms");
    h.stop();
}

#[test]
fn idle_server_is_woken_out_of_accept_to_stop() {
    // No client ever connects, so the acceptor sits in a blocking `accept`
    // and only the server's own wake connection can end it. The engine
    // hook says when loading is over without sending a byte.
    let (loaded_tx, loaded_rx) = std::sync::mpsc::channel();
    let config = ServeConfig {
        engine_hook: Some(Arc::new(move |_engine| {
            let _ = loaded_tx.send(());
        })),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let shutdown = CancelToken::new();
    let handle = {
        let shutdown = shutdown.clone();
        std::thread::spawn(move || server.run(|| Ok(engine()), shutdown))
    };
    loaded_rx.recv_timeout(Duration::from_secs(30)).expect("engine never loaded");
    let cancelled = Instant::now();
    shutdown.cancel();
    let outcome = handle.join().expect("server thread").expect("serve outcome");
    let took = cancelled.elapsed();
    assert!(took < Duration::from_millis(500), "idle stop took {took:?}");
    assert!(outcome.drained_clean);
    assert_eq!(outcome.requests, 0, "the wake connection is not a request");
    assert_eq!(outcome.ok + outcome.errors + outcome.shed, 0);

    // Same wake on the other way out of `run`: a loader that fails.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let started = Instant::now();
    let err = server
        .run(|| Err("dataset error: file vanished".to_string()), CancelToken::new())
        .expect_err("load failure must surface");
    let took = started.elapsed();
    assert!(err.contains("file vanished"));
    assert!(took < Duration::from_millis(500), "failed load took {took:?} to tear down");
}

#[test]
fn connecting_during_a_drain_is_answered_or_closed_never_hung() {
    // One request is stuck in the only worker, so the drain lasts the
    // whole grace period. Clients that connect meanwhile either raced the
    // acceptor's wake-up (a reader answers by state: 200 before the flip,
    // typed `draining` 503 after) or arrive once it has stopped and are
    // closed with the listener. None may sit out its 2 s timeout.
    let config = ServeConfig {
        workers: 1,
        drain_grace: Duration::from_millis(300),
        fault_hook: Some(Arc::new(|call: &ApiCall| {
            if matches!(call, ApiCall::Search(spec) if spec.query == "source-1") {
                std::thread::sleep(Duration::from_millis(800));
            }
        })),
        ..ServeConfig::default()
    };
    let h = Harness::start(config);
    let addr = h.addr;
    let stuck = std::thread::spawn(move || {
        request(addr, "POST", "/search", "{\"query\":\"source-1\",\"timeout_ms\":30000}")
    });
    std::thread::sleep(Duration::from_millis(50));
    h.shutdown.cancel();
    let late: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5 * i));
                let sent = Instant::now();
                let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
                else {
                    return (None, sent.elapsed()); // listener already gone
                };
                stream.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
                stream.set_write_timeout(Some(Duration::from_secs(2))).expect("write timeout");
                let body = "{\"query\":\"source-2\"}";
                let len = body.len();
                let head = format!("POST /search HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}");
                let mut raw = String::new();
                let answered = stream.write_all(head.as_bytes()).is_ok()
                    && stream.read_to_string(&mut raw).is_ok()
                    && !raw.is_empty();
                (answered.then_some(raw), sent.elapsed())
            })
        })
        .collect();
    for client in late {
        let (response, took) = client.join().expect("late client");
        assert!(took < Duration::from_millis(1900), "late client hung for {took:?}");
        if let Some(raw) = response {
            let ok = raw.starts_with("HTTP/1.1 200 ");
            let draining = raw.starts_with("HTTP/1.1 503 ") && raw.contains("\"draining\"");
            assert!(ok || draining, "unexpected answer during drain: {raw}");
        }
    }
    let (status, body) = stuck.join().expect("stuck client");
    assert_eq!(status, 503, "{body}");
    h.handle.join().expect("server thread").expect("serve outcome");
}

#[test]
fn healthz_reports_loading_before_the_engine_is_up() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let shutdown = CancelToken::new();
    let handle = {
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            server.run(
                || {
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(engine())
                },
                shutdown,
            )
        })
    };
    // While the loader sleeps: liveness yes, readiness no, queries 503.
    std::thread::sleep(Duration::from_millis(50));
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"loading\""), "{body}");
    assert!(body.contains("\"ready\":false"), "{body}");
    let (status, body) = request(addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"loading\""), "{body}");
    // After loading completes the same request succeeds.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) = request(addr, "POST", "/search", "{\"query\":\"source-1\"}");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown.cancel();
    handle.join().expect("thread").expect("outcome");
}

#[test]
fn failed_load_tears_the_server_down_with_the_error() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let shutdown = CancelToken::new();
    let err = server
        .run(|| Err("dataset error: file vanished".to_string()), shutdown)
        .expect_err("load failure must surface");
    assert!(err.contains("file vanished"));
}

#[test]
fn metrics_endpoint_exposes_serve_families() {
    let h = Harness::start(ServeConfig::default());
    let (status, _) = request(h.addr, "POST", "/search", "{\"query\":\"source-1\"}");
    assert_eq!(status, 200);
    let (status, body) = request(h.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in ["serve.connections", "serve.requests", "serve.responses_ok"] {
        assert!(body.contains(family), "metrics missing {family}: {body}");
    }
    h.stop();
}

/// The opt-in result cache must be transparent: a hit returns a body
/// byte-identical (modulo the one wall-clock field) to the miss that
/// filled it, hit/miss counters are exported, and `/healthz` reports
/// the entry count.
#[test]
fn result_cache_is_transparent_and_counts_hits() {
    use tind_obs::json;

    let strip = |body: &str| match json::parse(body).expect("serve responses are valid JSON") {
        json::Value::Obj(fields) => {
            json::Value::Obj(fields.into_iter().filter(|(k, _)| k != "elapsed_ms").collect())
                .to_json()
        }
        other => other.to_json(),
    };
    let h = Harness::start(ServeConfig { cache: 32, ..ServeConfig::default() });
    for (path, body) in [
        ("/search", "{\"query\":\"source-1\"}"),
        ("/reverse-search", "{\"query\":\"source-2\"}"),
    ] {
        let (status, miss) = request(h.addr, "POST", path, body);
        assert_eq!(status, 200, "{miss}");
        let (status, hit) = request(h.addr, "POST", path, body);
        assert_eq!(status, 200, "{hit}");
        assert_eq!(strip(&miss), strip(&hit), "cache hit must be transparent ({path})");
    }
    // Different resolved parameters are a different key, not a stale hit.
    let (status, body) =
        request(h.addr, "POST", "/search", "{\"query\":\"source-1\",\"delta\":0}");
    assert_eq!(status, 200, "{body}");
    let (_, health) = request(h.addr, "GET", "/healthz", "");
    assert!(health.contains("\"cache_entries\":3"), "{health}");
    let (_, metrics) = request(h.addr, "GET", "/metrics", "");
    assert!(metrics.contains("serve.cache_hits"), "{metrics}");
    assert!(metrics.contains("serve.cache_misses"), "{metrics}");
    h.stop();
}

/// Live delta maintenance against a running daemon: `Engine::apply_delta`
/// swaps in the merged dataset without a restart, new answers reflect the
/// update, and the result cache drops exactly the affected entries.
#[test]
fn live_delta_updates_answers_and_prunes_cache_selectively() {
    use std::sync::OnceLock;
    use tind_model::{Dataset, DatasetBuilder, HistoryBuilder, Timeline};

    // Hand-built histories with unambiguous containments: q={a} ⊆
    // sup1={a,b}; p={c} ⊆ other={c}; nothing else holds.
    fn base() -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(40));
        for (name, values) in
            [("q", vec!["a"]), ("sup1", vec!["a", "b"]), ("p", vec!["c"]), ("other", vec!["c"])]
        {
            let mut h = HistoryBuilder::new(name);
            let ids: Vec<_> = values.iter().map(|v| b.dictionary_mut().intern(v)).collect();
            h.push(0, ids);
            b.upsert_history(h.finish(39));
        }
        b.build()
    }
    // The delta drops `a` from sup1 (q ⊄ sup1 afterwards) and appends
    // sup2={a,d} (a new superset of q). p and other are untouched.
    fn merged(base: &Dataset) -> Dataset {
        let mut b = base.clone().into_builder();
        let mut h = HistoryBuilder::new("sup1");
        let bv = b.dictionary_mut().intern("b");
        h.push(0, vec![bv]);
        b.upsert_history(h.finish(39));
        let mut h = HistoryBuilder::new("sup2");
        let av = b.dictionary_mut().intern("a");
        let dv = b.dictionary_mut().intern("d");
        h.push(0, vec![av, dv]);
        b.upsert_history(h.finish(39));
        b.build()
    }

    let base = Arc::new(base());
    let engine_slot: Arc<OnceLock<Arc<Engine>>> = Arc::new(OnceLock::new());
    let config = ServeConfig {
        cache: 32,
        engine_hook: Some(Arc::new({
            let slot = Arc::clone(&engine_slot);
            move |engine| {
                let _ = slot.set(engine);
            }
        })),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let shutdown = CancelToken::new();
    let handle = {
        let shutdown = shutdown.clone();
        let base = base.clone();
        std::thread::spawn(move || {
            server.run(move || Ok(Engine::build(base, 3.0, 7, None, 0)), shutdown)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", "/healthz", "");
        if status == 200 && body.contains("\"serving\"") {
            break;
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Fill two cache entries; the oracle is membership by name.
    let (status, before) = request(addr, "POST", "/search", "{\"query\":\"q\"}");
    assert_eq!(status, 200, "{before}");
    assert!(before.contains("\"sup1\""), "{before}");
    let (status, p_before) = request(addr, "POST", "/search", "{\"query\":\"p\"}");
    assert_eq!(status, 200, "{p_before}");
    assert!(p_before.contains("\"other\""), "{p_before}");

    let engine = engine_slot.get().expect("engine hook ran").clone();
    let report = engine.apply_delta(Arc::new(merged(&base))).expect("delta applies");
    assert_eq!(report.index.touched_attrs, 2, "sup1 rewritten + sup2 appended");
    assert_eq!(report.index.new_attrs, 1);
    assert!(report.store_generation.is_none(), "built engine has no store");
    assert_eq!(report.cache_evicted, 1, "only q's entry lost/gained a result");
    assert_eq!(report.cache_retained, 1, "p's entry is provably unaffected");

    // New answers reflect the merged dataset without a restart.
    let (status, after) = request(addr, "POST", "/search", "{\"query\":\"q\"}");
    assert_eq!(status, 200, "{after}");
    assert!(after.contains("\"sup2\""), "{after}");
    assert!(!after.contains("\"sup1\""), "{after}");
    let (status, sup2) = request(addr, "POST", "/search", "{\"query\":\"sup2\"}");
    assert_eq!(status, 200, "appended attribute must resolve: {sup2}");

    // A non-successor is refused and leaves the engine serving.
    let err = engine.apply_delta(base.clone()).expect_err("shrinking delta must be refused");
    assert!(err.contains("delta rejected"), "{err}");
    let (status, _) = request(addr, "POST", "/search", "{\"query\":\"p\"}");
    assert_eq!(status, 200);

    shutdown.cancel();
    handle.join().expect("thread").expect("outcome");
}

/// A delta must not drop the store backing. The delta itself is applied
/// to a heap copy (`retarget_column` materializes every borrowed segment);
/// what the engine then serves has to be the committed generation reopened
/// through the backing it was opened with — otherwise a windowed engine
/// holds the whole index on the heap after its first delta and its budget
/// bounds nothing.
#[test]
fn windowed_engine_keeps_its_backing_across_a_delta() {
    use tind_core::persist::encode_index;
    use tind_core::{pack_store, OpenOptions, PackOptions, StoreBacking, TindParams};
    use tind_model::HistoryBuilder;

    let base = Arc::new(generate(&GeneratorConfig::small(200, 23)).dataset);
    let dir = std::env::temp_dir().join("tind-serve-faults-windowed-delta.store");
    let _ = std::fs::remove_dir_all(&dir);
    let index_bytes = {
        let built = Engine::build(base.clone(), 3.0, 7, None, 0);
        pack_store(&built.forward(), &dir, &PackOptions { shards: 4, ..Default::default() })
            .expect("pack");
        built.forward().bloom_bytes()
    };
    let open = OpenOptions {
        backing: StoreBacking::Windowed,
        memory_budget: Some(MemoryBudget::new(index_bytes / 8)),
    };
    let (engine, report) =
        Engine::from_store_with(&dir, base.clone(), 3.0, 7, None, 0, &open).expect("from_store");
    assert!(report.is_clean());
    assert!(!engine.forward().m_t().is_owned());

    // Successor: one history rewritten, one attribute appended.
    let end = base.timeline().last();
    let mut b = (*base).clone().into_builder();
    let value = b.dictionary_mut().intern("windowed-delta-value");
    let mut rewritten = HistoryBuilder::new(base.attribute(5).name());
    rewritten.push(0, vec![value]);
    b.upsert_history(rewritten.finish(end));
    let mut appended = HistoryBuilder::new("windowed-delta-mirror");
    appended.push(3, base.attribute(0).value_universe());
    b.upsert_history(appended.finish(end));
    let merged = Arc::new(b.build());

    let outcome = engine.apply_delta(merged.clone()).expect("delta applies");
    assert_eq!(outcome.store_generation, Some(2));
    let forward = engine.forward();
    assert!(!forward.m_t().is_owned(), "the delta must not leave a heap clone serving");

    let cold = Engine::build(merged.clone(), 3.0, 7, None, 0);
    let params = TindParams::paper_default();
    for q in (0..merged.len() as u32).step_by(7) {
        assert_eq!(
            forward.search(q, &params).results,
            cold.forward().search(q, &params).results,
            "query {q}"
        );
    }
    assert!(
        forward.bloom_bytes() < index_bytes / 2,
        "resident windows stay bounded by the budget, not the index size"
    );
    assert_eq!(encode_index(&forward), encode_index(&cold.forward()));
    std::fs::remove_dir_all(&dir).ok();
}

/// Degraded serving: a store with one quarantined shard still comes up,
/// answers everything outside the lost attribute range, returns typed
/// `shard_unavailable` 503s inside it, and the background re-verify
/// promotes back to `serving` once `tind store repair` restores the
/// shard.
#[test]
fn quarantined_shard_serves_degraded_and_repair_promotes() {
    use tind_core::{pack_store, repair_store, PackOptions, RepairOptions};

    let dataset = Arc::new(generate(&GeneratorConfig::small(200, 21)).dataset);
    let dir = std::env::temp_dir().join("tind-serve-faults-degraded.store");
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Pack with the same config the daemon resolves from (eps=3, δ=7)
        // so store-backed answers match built ones.
        let eng = Engine::build(dataset.clone(), 3.0, 7, None, 0);
        pack_store(&eng.forward(), &dir, &PackOptions { shards: 4, ..Default::default() })
            .expect("pack");
    }
    // Corrupt shard 1's header (what an open checks) → attributes
    // 64..128 are lost.
    tind_core::fault::flip_file_byte(&dir.join("g1-s1.shard"), 12).expect("flip");

    let config = ServeConfig {
        reverify_interval: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let shutdown = CancelToken::new();
    let handle = {
        let shutdown = shutdown.clone();
        let dataset = dataset.clone();
        let dir = dir.clone();
        std::thread::spawn(move || {
            server.run(|| Engine::from_store(&dir, dataset, 3.0, 7, None, 0).map(|(e, _)| e), shutdown)
        })
    };

    // Comes up degraded — ready, but flagged, with the live fraction.
    let deadline = Instant::now() + Duration::from_secs(30);
    let health = loop {
        let (status, body) = request(addr, "GET", "/healthz", "");
        if status == 200 && body.contains("\"degraded\"") {
            break body;
        }
        assert!(Instant::now() < deadline, "server never reached degraded; last: {body}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(health.contains("\"ready\":true"), "{health}");
    assert!(health.contains("\"live_shard_fraction\":0.75"), "{health}");
    assert!(health.contains("\"quarantined_shards\":[1]"), "{health}");

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("\"name\":\"store.shards.quarantined\",\"value\":1"),
        "metrics must pin the quarantined count: {metrics}"
    );

    // Outside the lost range: normal answer, marked partial.
    let (status, body) = request(addr, "POST", "/search", "{\"query\":\"5\"}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"partial\":true"), "{body}");
    assert!(body.contains("\"quarantined_shards\":[1]"), "{body}");

    // Inside the lost range: typed shard_unavailable, not a 500.
    let (status, body) = request(addr, "POST", "/search", "{\"query\":\"70\"}");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"shard_unavailable\""), "{body}");
    assert!(body.contains("quarantined store shard 1"), "{body}");

    // Reverse search never depends on the store (its index is built in
    // memory), so even the lost range answers.
    let (status, body) = request(addr, "POST", "/reverse-search", "{\"query\":\"70\"}");
    assert_eq!(status, 200, "{body}");

    // Repair the store out-of-band; the re-verify loop promotes.
    repair_store(&dir, &dataset, &RepairOptions::default()).expect("repair");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", "/healthz", "");
        if status == 200 && body.contains("\"serving\"") {
            break;
        }
        assert!(Instant::now() < deadline, "repair never promoted; last: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The formerly-lost attribute answers cleanly, with no partial marker.
    let (status, body) = request(addr, "POST", "/search", "{\"query\":\"70\"}");
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("\"partial\""), "{body}");

    shutdown.cancel();
    handle.join().expect("thread").expect("outcome");
    std::fs::remove_dir_all(&dir).ok();
}
