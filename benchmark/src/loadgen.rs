//! HTTP load generator: open loop (fixed arrival schedule, latency from
//! the *intended* send time, so a stall is charged to every request
//! scheduled during it) and closed loop (each client waits for its reply).
//!
//! One new TCP connection per request — the server closes after each
//! response. Failures to *reach* the server (connect errors, ephemeral
//! port exhaustion) are counted apart from failures *of* the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::util::{median, quantile, Rng};

/// Client-side budget for one request, matching the server's default
/// deadline: a request slower than this has failed.
const CALL_TIMEOUT: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Search,
    Reverse,
    Explain,
}

/// One generated request: `key` is the query attribute (the left-hand
/// side for explain, whose right-hand side is `rhs`).
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub kind: Kind,
    pub key: u32,
    pub rhs: u32,
}

impl Req {
    fn path(&self) -> &'static str {
        match self.kind {
            Kind::Search => "/search",
            Kind::Reverse => "/reverse-search",
            Kind::Explain => "/explain",
        }
    }

    fn body(&self) -> String {
        match self.kind {
            Kind::Explain => format!("{{\"lhs\":\"{}\",\"rhs\":\"{}\"}}", self.key, self.rhs),
            _ => format!("{{\"query\":\"{}\"}}", self.key),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Answered, but not with 200 (shed 429/503, deadline 504, ...).
    Status(u16),
    /// Could not connect: the generator's problem or the listener's.
    ConnectError,
    /// `EADDRNOTAVAIL`: ephemeral ports / TIME_WAIT exhaustion.
    PortExhausted,
    /// Connected, then timed out or broke mid-exchange.
    Io,
}

pub struct Sample {
    pub outcome: Outcome,
    /// Completion minus intended send time (open loop) or minus actual
    /// send time (closed loop).
    pub latency_ms: f64,
    /// How late the generator sent against its schedule (open loop).
    pub late_ms: f64,
    /// Seconds into the phase: the intended send time (open loop) or the
    /// completion time (closed loop). Places the sample in a one-second
    /// window of the phase.
    pub at_s: f64,
}

pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// `(request index, response body)` of every `keep_every`-th request,
    /// kept for the oracle check after the clocks stop.
    pub kept: Vec<(usize, String)>,
    /// The phase's nominal length: what its one-second windows divide.
    pub seconds: f64,
}

impl PhaseResult {
    pub fn latencies_ok(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// The answered samples of each whole second of the phase, in order; a
    /// trailing part of a second is left out.
    fn windows(&self) -> Vec<Vec<&Sample>> {
        let mut windows = vec![Vec::new(); self.seconds.floor() as usize];
        for s in self.samples.iter().filter(|s| s.outcome == Outcome::Ok) {
            if let Some(w) = windows.get_mut(s.at_s as usize) {
                w.push(s);
            }
        }
        windows
    }

    /// Median latency of each one-second window that answered anything.
    pub fn window_p50s_ms(&self) -> Vec<f64> {
        self.windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>()))
            .collect()
    }

    /// Requests answered in each one-second window.
    pub fn window_rates(&self) -> Vec<f64> {
        self.windows().iter().map(|w| w.len() as f64).collect()
    }

    pub fn count(&self, pred: impl Fn(Outcome) -> bool) -> usize {
        self.samples.iter().filter(|s| pred(s.outcome)).count()
    }

    pub fn failed(&self) -> usize {
        self.count(|o| o != Outcome::Ok)
    }

    pub fn late_ms_p99(&self) -> f64 {
        quantile(
            &self.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>(),
            0.99,
        )
    }

    /// Whether the generator fell further behind as the phase went on:
    /// mean lateness of the last quarter against the first, with a 1 ms
    /// allowance for timer slack.
    pub fn lateness_growing(&self) -> bool {
        let n = self.samples.len();
        if n < 8 {
            return false;
        }
        let mean = |s: &[Sample]| s.iter().map(|x| x.late_ms).sum::<f64>() / s.len() as f64;
        mean(&self.samples[n - n / 4..]) > mean(&self.samples[..n / 4]) + 1.0
    }
}

pub enum CallError {
    Connect(std::io::Error),
    Io,
}

/// One HTTP/1.1 exchange on a fresh connection; returns status and body.
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), CallError> {
    let mut stream = TcpStream::connect_timeout(&addr, CALL_TIMEOUT).map_err(CallError::Connect)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(CALL_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CALL_TIMEOUT));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|_| CallError::Io)?;
    let mut raw = Vec::with_capacity(2048);
    stream.read_to_end(&mut raw).map_err(|_| CallError::Io)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or(CallError::Io)?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn classify(result: &Result<(u16, String), CallError>) -> Outcome {
    match result {
        Ok((200, _)) => Outcome::Ok,
        Ok((status, _)) => Outcome::Status(*status),
        Err(CallError::Connect(e)) if e.kind() == std::io::ErrorKind::AddrNotAvailable => {
            Outcome::PortExhausted
        }
        Err(CallError::Connect(_)) => Outcome::ConnectError,
        Err(CallError::Io) => Outcome::Io,
    }
}

/// Arrival offsets over `seconds` at a mean of `rate` requests per second:
/// a seeded Poisson process (exponential gaps), the arrivals of
/// independent users. Poisson arrivals see time averages, so whatever the
/// period of a timer in the server — it polls `accept` every 5 ms — the
/// schedule cannot phase-lock with it, which an even schedule at a
/// multiple of that period can.
pub fn schedule(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<Duration> {
    let mut due = Vec::with_capacity((rate * seconds) as usize + 1);
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= seconds {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

/// One request's record: its index in the phase, what happened, and the
/// response body when it is one of those kept for the oracle.
type Record = (usize, Sample, Option<String>);

/// Sends request `i` and times it from `origin`: what happened, the
/// latency in ms, and the response body when it is one of those kept.
fn exchange(
    addr: SocketAddr,
    reqs: &[Req],
    i: usize,
    keep_every: usize,
    origin: Instant,
) -> (Outcome, f64, Option<String>) {
    let req = &reqs[i % reqs.len()];
    let result = http_call(addr, "POST", req.path(), &req.body());
    let latency_ms = origin.elapsed().as_secs_f64() * 1e3;
    let outcome = classify(&result);
    let kept = match result {
        Ok((200, body)) if i % keep_every == 0 => Some(body),
        _ => None,
    };
    (outcome, latency_ms, kept)
}

/// Runs `step` on `threads` threads until it returns `None` on each, and
/// gathers the records in request order.
fn drive(threads: usize, seconds: f64, step: impl Fn() -> Option<Record> + Sync) -> PhaseResult {
    let mut all: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(|| std::iter::from_fn(&step).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _, _)| *i);
    let mut samples = Vec::with_capacity(all.len());
    let mut kept = Vec::new();
    for (i, sample, body) in all {
        samples.push(sample);
        kept.extend(body.map(|b| (i, b)));
    }
    PhaseResult {
        samples,
        kept,
        seconds,
    }
}

/// Open loop: request `i` is due at `start + due[i]` regardless of how
/// earlier requests fare; `threads` senders share the schedule, which
/// spans `seconds`.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    due: &[Duration],
    seconds: f64,
    threads: usize,
    keep_every: usize,
) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    drive(threads, seconds, || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let intended = start + *due.get(i)?;
        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late_ms = intended.elapsed().as_secs_f64() * 1e3;
        let (outcome, latency_ms, kept) = exchange(addr, reqs, i, keep_every, intended);
        Some((
            i,
            Sample {
                outcome,
                latency_ms,
                late_ms,
                at_s: due[i].as_secs_f64(),
            },
            kept,
        ))
    })
}

/// Closed loop: `clients` callers, each sending its next request only
/// after the previous reply, for `seconds`.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    clients: usize,
    seconds: f64,
    keep_every: usize,
) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    drive(clients, seconds, || {
        if Instant::now() >= deadline {
            return None;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let (outcome, latency_ms, kept) = exchange(addr, reqs, i, keep_every, Instant::now());
        Some((
            i,
            Sample {
                outcome,
                latency_ms,
                late_ms: 0.0,
                at_s: start.elapsed().as_secs_f64(),
            },
            kept,
        ))
    })
}

/// `--self-test`: drives the open-loop generator against a stub listener
/// that stalls once for 50 ms, and checks coordinated omission is not
/// hidden: every request *scheduled* during the stall must be charged
/// the remainder of it, and with one sender thread (which the stall
/// blocks) `late_ms_p99` must report the generator's own lateness.
pub fn self_test() -> Result<(), String> {
    const STALL: Duration = Duration::from_millis(50);
    const STALL_AT_CONN: usize = 20;
    for threads in [1usize, 4] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let due = schedule(200.0, 0.5, &mut Rng::new(7));
        let total = due.len();
        let stub = std::thread::spawn(move || {
            let mut window = None;
            for conn in 0..total {
                if conn == STALL_AT_CONN {
                    let begin = Instant::now();
                    std::thread::sleep(STALL);
                    window = Some((begin, Instant::now()));
                }
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                );
            }
            window
        });
        let reqs = [Req {
            kind: Kind::Search,
            key: 0,
            rhs: 0,
        }];
        let start = Instant::now();
        let phase = open_loop(addr, &reqs, &due, 0.5, threads, usize::MAX);
        let (stall_begin, stall_end) = stub
            .join()
            .map_err(|_| "stub listener panicked".to_string())?
            .ok_or("stub listener never reached its stall")?;
        if phase.failed() > 0 {
            return Err(format!(
                "{} requests against the stub failed",
                phase.failed()
            ));
        }
        let mut charged = 0;
        for (sample, offset) in phase.samples.iter().zip(&due) {
            let intended = start + *offset;
            if intended >= stall_begin && intended < stall_end {
                let owed = stall_end.duration_since(intended).as_secs_f64() * 1e3;
                // 2 ms allowance: `start` here is taken just before the
                // generator takes its own.
                if sample.latency_ms + 2.0 < owed {
                    return Err(format!(
                        "coordinated omission: a request due {owed:.1} ms before the stall \
                         ended was charged only {:.1} ms ({threads} sender thread(s))",
                        sample.latency_ms
                    ));
                }
                charged += 1;
            }
        }
        if charged < 5 {
            return Err(format!(
                "only {charged} requests fell into the stall window"
            ));
        }
        let late = phase.late_ms_p99();
        if threads == 1 && late < 25.0 {
            return Err(format!(
                "one blocked sender must run late during the stall, but late_ms_p99 = {late:.1}"
            ));
        }
        eprintln!(
            "self-test: {threads} sender thread(s): {charged} requests charged the stall, \
             late_ms_p99 = {late:.1} ms"
        );
    }
    Ok(())
}
