//! Minimal HTTP/1.1 request reader and response writer over a
//! `TcpStream` — hand-rolled per the workspace's no-external-deps
//! policy, and deliberately hostile-input-first:
//!
//! * the whole request (head + body) must arrive within a fixed *read
//!   budget*, so a slow-loris client that dribbles one byte per poll is
//!   cut off with a typed 408 instead of pinning a reader thread;
//! * the head and the declared body size are capped, and an oversized
//!   `Content-Length` is rejected *before* any body byte is read;
//! * responses always carry `Content-Length` and `Connection: close`,
//!   so a client never waits on a socket the server has finished with,
//!   and head and body leave in **one** `write_all`: the sockets are
//!   `TCP_NODELAY`, so two writes would be two segments and a client
//!   could wake for the head before the body exists.
//!
//! Only what the serve router needs is implemented: a request line,
//! headers (of which just `Content-Length` is interpreted), an optional
//! body. No keep-alive, no chunked encoding, no continuations.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Caps and budgets applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers.
    pub max_header_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Wall-clock budget for receiving the complete request.
    pub read_budget: Duration,
}

/// A parsed request: exactly the shape the router consumes.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// The client sent `X-Tind-Trace: 1` — force-sample this request's
    /// trace and echo the allocated trace id back in the response.
    pub force_trace: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The read budget elapsed before the request completed (slow-loris).
    Timeout,
    /// Request head grew past `max_header_bytes`.
    HeaderTooLarge,
    /// Declared `Content-Length` exceeds `max_body_bytes`.
    BodyTooLarge {
        /// The declared length.
        got: usize,
    },
    /// Syntactically broken request line or headers.
    Malformed(&'static str),
    /// The peer closed before sending a complete request; if nothing was
    /// sent at all the connection is silently dropped.
    Closed,
    /// Transport failure.
    Io(std::io::Error),
}

/// Granularity of individual socket reads; small so the budget check in
/// the read loop runs often regardless of the socket's own timeout.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);

/// Reads one full request within `limits`. The stream's read timeout is
/// clamped to a short poll interval for the duration of the call.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, HttpError> {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));

    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];

    // Phase 1: accumulate until the blank line ends the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(HttpError::HeaderTooLarge);
        }
        if started.elapsed() >= limits.read_budget {
            return Err(HttpError::Timeout);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() { HttpError::Closed } else {
                    HttpError::Malformed("connection closed mid-head")
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    let mut force_trace = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("bad header line"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("x-tind-trace") {
            // Anything except an explicit opt-out forces the sample; the
            // documented spelling is `X-Tind-Trace: 1`.
            force_trace = !matches!(value.trim(), "0" | "false" | "");
        }
    }
    // The oversize check runs on the *declared* length, before the body
    // is pulled off the wire.
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge { got: content_length });
    }

    // Phase 2: the body; part of it may already sit in `buf`.
    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        if started.elapsed() >= limits.read_budget {
            return Err(HttpError::Timeout);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    body.truncate(content_length);

    Ok(Request { method: method.to_string(), path: path.to_string(), body, force_trace })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a complete response — head and body assembled into one buffer
/// and handed to the socket in a single `write_all` — and flushes. The
/// body is always JSON; the connection is always announced as closing.
/// `extra_headers` (e.g. the `X-Tind-Trace-Id` echo on force-sampled
/// requests) are caller-controlled constants, never client input.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(128 + body.len());
    // Writing into a `String` cannot fail.
    let _ = write!(out, "HTTP/1.1 {status} {reason}\r\n");
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    let _ = write!(
        out,
        "Content-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Briefly drains and discards unread request bytes so closing the
/// socket doesn't turn into a TCP RST that destroys the in-flight error
/// response (unread data at close ⇒ reset, and the peer never sees the
/// 413/431 it was owed). Bounded in both bytes and time, so a hostile
/// writer cannot pin the reader here.
pub fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn limits() -> HttpLimits {
        HttpLimits {
            max_header_bytes: 4096,
            max_body_bytes: 1024,
            read_budget: Duration::from_millis(500),
        }
    }

    /// Runs `client` against a paired connection and reads one request
    /// from the server side.
    fn roundtrip(client: impl FnOnce(&mut TcpStream) + Send + 'static) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            client(&mut c);
            // Keep the socket open until the server is done parsing.
            std::thread::sleep(Duration::from_millis(700));
        });
        let (mut server, _) = listener.accept().expect("accept");
        let result = read_request(&mut server, &limits());
        drop(server);
        handle.join().expect("client thread");
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(|c| {
            c.write_all(b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .expect("write");
        })
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/search");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_a_get_without_content_length() {
        let req = roundtrip(|c| {
            c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
        })
        .expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn trace_header_is_captured_case_insensitively() {
        let req = roundtrip(|c| {
            c.write_all(b"POST /search HTTP/1.1\r\nx-tind-TRACE: 1\r\nContent-Length: 2\r\n\r\n{}")
                .expect("write");
        })
        .expect("parse");
        assert!(req.force_trace);

        let req = roundtrip(|c| {
            c.write_all(b"POST /search HTTP/1.1\r\nX-Tind-Trace: 0\r\nContent-Length: 2\r\n\r\n{}")
                .expect("write");
        })
        .expect("parse");
        assert!(!req.force_trace, "explicit opt-out is honored");

        let req = roundtrip(|c| {
            c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
        })
        .expect("parse");
        assert!(!req.force_trace, "absent header defaults off");
    }

    #[test]
    fn slow_loris_hits_the_read_budget() {
        let err = roundtrip(|c| {
            // Dribble a valid prefix, then stall past the budget.
            c.write_all(b"GET /hea").expect("write");
        });
        assert!(matches!(err, Err(HttpError::Timeout)), "got {err:?}");
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading_it() {
        let err = roundtrip(|c| {
            c.write_all(b"POST /search HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").expect("write");
        });
        assert!(matches!(err, Err(HttpError::BodyTooLarge { got: 99999 })), "got {err:?}");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let err = roundtrip(|c| {
            let long = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(8192));
            c.write_all(long.as_bytes()).expect("write");
        });
        assert!(matches!(err, Err(HttpError::HeaderTooLarge)), "got {err:?}");
    }

    #[test]
    fn malformed_request_line_is_typed() {
        let err = roundtrip(|c| {
            c.write_all(b"NONSENSE\r\n\r\n").expect("write");
        });
        assert!(matches!(err, Err(HttpError::Malformed(_))), "got {err:?}");
    }

    #[test]
    fn response_writer_emits_content_length_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            let mut out = String::new();
            c.read_to_string(&mut out).expect("read");
            out
        });
        let (mut server, _) = listener.accept().expect("accept");
        write_response_with(&mut server, 429, "Too Many Requests", "{\"x\":1}", &[])
            .expect("write");
        drop(server);
        let out = handle.join().expect("client");
        assert!(out.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(out.contains("Content-Length: 7\r\n"));
        assert!(out.contains("Connection: close\r\n"));
        assert!(out.ends_with("{\"x\":1}"));
    }

    #[test]
    fn response_writer_carries_extra_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            let mut out = String::new();
            c.read_to_string(&mut out).expect("read");
            out
        });
        let (mut server, _) = listener.accept().expect("accept");
        write_response_with(&mut server, 200, "OK", "{}", &[("X-Tind-Trace-Id", "0xabc")])
            .expect("write");
        drop(server);
        let out = handle.join().expect("client");
        assert!(out.contains("X-Tind-Trace-Id: 0xabc\r\n"));
        assert!(out.contains("Connection: close\r\n"));
        assert!(out.ends_with("{}"));
    }
}
