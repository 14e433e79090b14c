//! The harness's own span recorder: name, start, end, parent, thread —
//! kept in memory, written once at exit as Chrome `trace_event` JSON.
//!
//! Spans sit in the harness, around calls into each layer's public
//! functions and around each subprocess; spans inside the program are a
//! later change. With the recorder disabled (every untraced run) `span`
//! costs one relaxed load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

pub struct SpanRecord {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Pauses or resumes recording; the spans recorded so far are kept.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Starts one workload's recording: drops the spans of any earlier
/// workload in this process, so each trace file and self-time table holds
/// its own workload only.
pub fn begin(on: bool) {
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking span")
        .clear();
    set_enabled(on);
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

fn thread_id() -> u64 {
    // ThreadId has no stable integer view; its Debug form is "ThreadId(N)".
    let s = format!("{:?}", std::thread::current().id());
    s.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or(0)
}

/// Runs `f` inside a span named `name`; spans nest per thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = {
        let mut spans = SPANS
            .lock()
            .expect("span recorder poisoned by a panicking span");
        spans.push(SpanRecord {
            name,
            start_us: now_us(),
            end_us: 0.0,
            parent,
            thread: thread_id(),
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking span")[idx]
        .end_us = now_us();
    out
}

/// Per-name totals: `(name, count, total_us, self_us)`, where a span's
/// self time is its duration minus what its child spans cover.
pub fn self_times() -> Vec<(&'static str, usize, f64, f64)> {
    let spans = SPANS
        .lock()
        .expect("span recorder poisoned by a panicking span");
    let mut child_us = vec![0.0; spans.len()];
    for s in spans.iter() {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_us - s.start_us;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - child_us[i];
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// Writes every recorded span as Chrome `trace_event` JSON ("X" complete
/// events) — open in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn write_chrome(path: &std::path::Path, workload: &str) -> std::io::Result<()> {
    let spans = SPANS
        .lock()
        .expect("span recorder poisoned by a panicking span");
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.start_us,
            (s.end_us - s.start_us).max(0.0),
            s.thread,
        ));
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}
