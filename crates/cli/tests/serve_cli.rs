//! Subprocess tests for `tind serve`: the signal path (SIGINT/SIGTERM →
//! graceful drain → exit 130) and the `--report` flush can only be
//! observed against the real binary, so these tests spawn it.
//!
//! Cargo builds the binary for this test target and names it in
//! `CARGO_BIN_EXE_tind`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tind_bin() -> PathBuf {
    env!("CARGO_BIN_EXE_tind").into()
}

/// The report schema ships in-repo.
const SCHEMA: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../devtools/report-schema.json");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tind-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Sends one raw HTTP request to the daemon, returns `(status, body)`.
fn request(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let head = format!("{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("write");
    stream.write_all(body.as_bytes()).expect("write body");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status");
    (status, raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string())
}

/// Generates a small dataset file with the binary itself.
fn generate_dataset(bin: &Path, dir: &Path) -> PathBuf {
    let data = dir.join("world.tind");
    let status = Command::new(bin)
        .args(["generate", "--attributes", "80", "--seed", "7", "--preset", "small", "--out"])
        .arg(&data)
        .stdout(Stdio::null())
        .status()
        .expect("run generate");
    assert!(status.success(), "generate failed");
    data
}

/// Waits for the daemon to publish its ephemeral port and report
/// `"serving"` on /healthz.
fn wait_ready(port_file: &PathBuf, child: &mut Child) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(60);
    let port = loop {
        if let Some(code) = child.try_wait().expect("try_wait") {
            panic!("daemon exited early: {code:?}");
        }
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                if port != 0 {
                    break port;
                }
            }
        }
        assert!(Instant::now() < deadline, "port file never appeared");
        std::thread::sleep(Duration::from_millis(25));
    };
    loop {
        if let Ok(mut stream) = TcpStream::connect(("127.0.0.1", port)) {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut raw = String::new();
            let _ = stream.read_to_string(&mut raw);
            if raw.contains("\"serving\"") {
                break;
            }
        }
        assert!(Instant::now() < deadline, "daemon never reached serving");
        std::thread::sleep(Duration::from_millis(25));
    }
    port
}

fn signal(child: &Child, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {sig} failed");
}

#[test]
fn sigint_drains_flushes_the_report_and_exits_130() {
    let bin = tind_bin();
    let dir = scratch("sigint");
    let data = generate_dataset(&bin, &dir);
    let port_file = dir.join("port.txt");
    let report = dir.join("report.json");

    let mut child = Command::new(&bin)
        .args(["serve", "--port", "0", "--quiet", "--data"])
        .arg(&data)
        .arg("--port-file")
        .arg(&port_file)
        .arg("--report")
        .arg(&report)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let port = wait_ready(&port_file, &mut child);

    let (status, body) = request(port, "POST", "/search", "{\"query\":\"source-1\",\"limit\":5}");
    assert_eq!(status, 200, "search failed: {body}");
    assert!(body.contains("\"result_count\""), "unexpected body: {body}");

    signal(&child, "-INT");
    let exit = child.wait().expect("wait");
    assert_eq!(exit.code(), Some(130), "serve must exit 130 on SIGINT");

    let written = std::fs::metadata(&report).expect("report written").len();
    assert!(written > 0, "report is empty");
    let verify = Command::new(&bin)
        .arg("verify")
        .arg(&report)
        .args(["--schema", SCHEMA])
        .output()
        .expect("run verify");
    assert!(
        verify.status.success(),
        "report failed schema verification: {}",
        String::from_utf8_lossy(&verify.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_is_honoured_like_sigint() {
    let bin = tind_bin();
    let dir = scratch("sigterm");
    let data = generate_dataset(&bin, &dir);
    let port_file = dir.join("port.txt");

    let mut child = Command::new(&bin)
        .args(["serve", "--port", "0", "--quiet", "--data"])
        .arg(&data)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let port = wait_ready(&port_file, &mut child);

    let (status, _) = request(port, "GET", "/metrics", "");
    assert_eq!(status, 200);

    signal(&child, "-TERM");
    let exit = child.wait().expect("wait");
    assert_eq!(exit.code(), Some(130), "serve must exit 130 on SIGTERM");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace` → `verify` → `trace` round-trip against the real binary:
/// each invocation is its own process, so the trace file must carry the
/// full story across process boundaries.
#[test]
fn search_trace_roundtrips_through_verify_and_render() {
    let bin = tind_bin();
    let dir = scratch("trace");
    let data = generate_dataset(&bin, &dir);
    let trace = dir.join("query.tindtf");

    let run = |args: &[&std::ffi::OsStr]| -> (bool, String) {
        let out = Command::new(&bin).args(args).output().expect("run tind");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.success(), text)
    };
    let os = |s: &str| -> std::ffi::OsString { s.into() };

    // A traced search writes the TINDTF file and answers normally.
    let args: Vec<std::ffi::OsString> = vec![
        os("search"), os("--data"), data.clone().into(), os("--query"), os("source-1"),
        os("--trace"), trace.clone().into(),
    ];
    let (ok, out) = run(&args.iter().map(AsRef::as_ref).collect::<Vec<_>>());
    assert!(ok, "traced search failed: {out}");
    assert!(trace.is_file(), "trace file written");

    // `tind verify` sniffs the TINDTF envelope and summarizes it.
    let args: Vec<std::ffi::OsString> = vec![os("verify"), trace.clone().into()];
    let (ok, out) = run(&args.iter().map(AsRef::as_ref).collect::<Vec<_>>());
    assert!(ok, "verify failed: {out}");
    assert!(out.contains("trace:"), "{out}");
    assert!(out.contains("coverage"), "{out}");

    // `tind trace` renders a waterfall with the stage spans.
    let args: Vec<std::ffi::OsString> = vec![os("trace"), trace.clone().into()];
    let (ok, out) = run(&args.iter().map(AsRef::as_ref).collect::<Vec<_>>());
    assert!(ok, "render failed: {out}");
    assert!(out.contains("cli.search"), "root span rendered: {out}");
    assert!(out.contains("core.search"), "stage spans rendered: {out}");

    // Chrome export + self-diff exercise the remaining verbs.
    let chrome = dir.join("chrome.json");
    let args: Vec<std::ffi::OsString> = vec![
        os("trace"), trace.clone().into(), os("--chrome"), chrome.clone().into(),
        os("--diff"), trace.clone().into(),
    ];
    let (ok, out) = run(&args.iter().map(AsRef::as_ref).collect::<Vec<_>>());
    assert!(ok, "chrome/diff failed: {out}");
    let chrome_text = std::fs::read_to_string(&chrome).expect("chrome file");
    assert!(chrome_text.contains("\"ph\":\"X\""), "{chrome_text}");

    // A corrupted trace is refused with the failing byte offset named.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&trace, &bytes).expect("corrupt trace");
    let args: Vec<std::ffi::OsString> = vec![os("verify"), trace.clone().into()];
    let (ok, out) = run(&args.iter().map(AsRef::as_ref).collect::<Vec<_>>());
    assert!(!ok, "corrupt trace must be refused");
    assert!(out.contains("byte offset"), "refusal names the offset: {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
