//! Minimal HTTP/1.1 client with persistent-connection reuse.
//!
//! The router is the *only* client that sends `Connection: keep-alive`
//! to the shard daemons (persistence is explicit opt-in on the server
//! side), so each [`ShardClient`] keeps a small pool of idle sockets to
//! its shard and multiplexes sequential requests over them — connection
//! setup is paid once per socket, not once per query.
//!
//! Staleness is handled the way every pooled HTTP client handles it: a
//! request that fails on a *reused* socket (the daemon may have closed
//! it between requests) is retried once on a freshly connected one
//! before the error is surfaced. Errors on a fresh socket are real —
//! most importantly `ECONNREFUSED` from a SIGKILLed shard, which must
//! surface immediately so the router can fail the seed over.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Idle sockets kept per shard. The router's scatter width per shard is
/// small (one thread per shard group), so a short free-list suffices.
const MAX_IDLE: usize = 4;

/// A parsed HTTP response from a shard.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Response headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly as the shard sent it.
    pub body: String,
}

impl HttpResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `X-Graph-Version` header parsed as an integer, when present.
    pub fn graph_version(&self) -> Option<u64> {
        self.header("x-graph-version")?.trim().parse().ok()
    }

    /// The string value of a top-level `"key":"value"` pair in a JSON
    /// body, for flat bodies like `/version`'s whose values carry no
    /// escaped quotes.
    pub fn json_str(&self, key: &str) -> Option<&str> {
        let needle = format!("\"{key}\":\"");
        let start = self.body.find(&needle)? + needle.len();
        let len = self.body[start..].find('"')?;
        Some(&self.body[start..start + len])
    }
}

/// Phase timings of one shard attempt, for per-attempt trace records.
/// All in microseconds; `connect_us` is zero when a pooled socket was
/// reused (there was nothing to connect).
#[derive(Debug, Clone, Copy, Default)]
pub struct AttemptTiming {
    /// TCP connect time (0 on a reused pooled socket).
    pub connect_us: u64,
    /// Writing the request onto the socket.
    pub send_us: u64,
    /// First byte of the status line through the end of the body.
    pub wait_us: u64,
}

/// A pooled keep-alive client for one shard address.
pub struct ShardClient {
    addr: String,
    timeout: Duration,
    idle: Mutex<Vec<TcpStream>>,
}

impl ShardClient {
    /// A client for `addr` (e.g. `127.0.0.1:7462`) with a per-request
    /// I/O timeout.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> ShardClient {
        ShardClient {
            addr: addr.into(),
            timeout,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The shard address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Issues `GET {path_query}` and returns the parsed response. The
    /// socket is returned to the idle pool when the shard answered
    /// `Connection: keep-alive`.
    pub fn get(&self, path_query: &str) -> std::io::Result<HttpResponse> {
        self.get_with(path_query, &[]).map(|(resp, _)| resp)
    }

    /// Like [`ShardClient::get`] but with extra request headers (the
    /// router propagates `X-Request-Id` this way) and per-phase timings
    /// for the attempt record.
    pub fn get_with(
        &self,
        path_query: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<(HttpResponse, AttemptTiming)> {
        // First try a pooled socket; it may have been closed by the
        // shard since its last use, so one failure there is retried on
        // a fresh connection rather than reported.
        if let Some(stream) = self.checkout() {
            match self.round_trip(stream, path_query, headers, 0) {
                Ok(got) => return Ok(got),
                Err(_) => { /* stale pooled socket: fall through */ }
            }
        }
        let connect_started = Instant::now();
        let stream = TcpStream::connect(&self.addr)?;
        let connect_us = connect_started.elapsed().as_micros() as u64;
        self.round_trip(stream, path_query, headers, connect_us)
    }

    /// Drops every pooled socket (used when the shard process is
    /// replaced: the old sockets point at a dead process).
    pub fn clear(&self) {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        if idle.len() < MAX_IDLE {
            idle.push(stream);
        }
    }

    fn round_trip(
        &self,
        stream: TcpStream,
        path_query: &str,
        headers: &[(&str, &str)],
        connect_us: u64,
    ) -> std::io::Result<(HttpResponse, AttemptTiming)> {
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true).ok();
        let mut head = format!(
            "GET {path_query} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n",
            self.addr
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let send_started = Instant::now();
        let mut w = &stream;
        w.write_all(head.as_bytes())?;
        w.flush()?;
        let send_us = send_started.elapsed().as_micros() as u64;
        let wait_started = Instant::now();
        let mut reader = BufReader::new(&stream);
        let resp = read_response(&mut reader)?;
        let wait_us = wait_started.elapsed().as_micros() as u64;
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        {
            drop(reader);
            self.checkin(stream);
        }
        Ok((
            resp,
            AttemptTiming {
                connect_us,
                send_us,
                wait_us,
            },
        ))
    }
}

/// Reads one HTTP/1.1 response (status line, headers, `Content-Length`
/// body) off `reader`.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<HttpResponse> {
    let err = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(&format!("bad status line: {line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(err("connection closed inside headers"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').ok_or_else(|| err("malformed header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| err(&format!("bad content-length: {value:?}")))?;
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| err("body is not UTF-8"))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_with_headers_and_body() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                   X-Graph-Version: 7\r\nConnection: keep-alive\r\n\
                   Content-Length: 4\r\n\r\nbody";
        let resp = read_response(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "body");
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("X-Graph-Version"), Some("7"));
        assert_eq!(resp.graph_version(), Some(7));
    }

    #[test]
    fn json_str_reads_a_flat_string_field() {
        let resp = HttpResponse {
            status: 200,
            headers: Vec::new(),
            body: r#"{"version":1,"variant":"BePI-S","live":false,"last_error":null}"#.into(),
        };
        assert_eq!(resp.json_str("variant"), Some("BePI-S"));
        assert_eq!(resp.json_str("version"), None, "not a string");
        assert_eq!(resp.json_str("missing"), None);
    }

    #[test]
    fn eof_before_status_line_is_unexpected_eof() {
        let e = read_response(&mut BufReader::new(&b""[..])).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_response(&mut BufReader::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn pooled_round_trips_reuse_the_socket() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // One accepted connection serves two requests.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut served = 0u32;
            for _ in 0..2 {
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                served += 1;
                let body = format!("hello {served}");
                let mut w = &stream;
                write!(
                    w,
                    "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .unwrap();
                w.flush().unwrap();
            }
            served
        });
        let client = ShardClient::new(addr.to_string(), Duration::from_secs(5));
        assert_eq!(client.get("/a").unwrap().body, "hello 1");
        assert_eq!(client.get("/b").unwrap().body, "hello 2");
        assert_eq!(server.join().unwrap(), 2, "both requests on one accept");
    }

    #[test]
    fn get_with_sends_extra_headers_and_times_phases() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut head = String::new();
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 2 {
                head.push_str(&line);
                line.clear();
            }
            let mut w = &stream;
            write!(w, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
            w.flush().unwrap();
            head
        });
        let client = ShardClient::new(addr.to_string(), Duration::from_secs(5));
        let (resp, timing) = client
            .get_with("/query?seed=1", &[("X-Request-Id", "00ff")])
            .unwrap();
        assert_eq!(resp.status, 200);
        let head = server.join().unwrap();
        assert!(head.contains("X-Request-Id: 00ff"), "{head}");
        // A fresh (non-pooled) socket must report its connect phase.
        assert!(timing.connect_us > 0);
    }

    #[test]
    fn connect_refused_surfaces_immediately() {
        // Bind-then-drop yields a port with (almost certainly) no
        // listener; the client must fail fast, not hang.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = ShardClient::new(addr.to_string(), Duration::from_millis(500));
        assert!(client.get("/query?seed=1").is_err());
    }
}
