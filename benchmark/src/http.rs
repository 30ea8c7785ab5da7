//! The smallest HTTP/1.1 client that can drive the daemon's public
//! surface: one request per call, on a fresh connection or a kept-alive
//! one, plus the two parsers the workloads need (`/query` bodies and
//! Prometheus text).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longer than the daemon's own 10 s request deadline, so a stuck request
/// surfaces as the daemon's 504 and not as a client-side guess.
const IO_TIMEOUT: Duration = Duration::from_secs(15);

#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One persistent connection (`Connection: keep-alive`).
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.send("GET", path, "", true)
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> Result<Response, String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\nContent-Length: {}\r\n\r\n{body}",
            if keep_alive { "keep-alive" } else { "close" },
            body.len()
        );
        // One write per request: a split head/body write would meet Nagle.
        self.reader
            .get_mut()
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.reader)
    }
}

/// One request on a connection of its own (`Connection: close`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    Conn::open(addr)?.send(method, path, body, false)
}

pub fn get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    request(addr, "GET", path, "")
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let trimmed = line.trim_end();
        if n == 0 || trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    let length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or("response without Content-Length")?;
    // The daemon's largest body (`/metrics`) is a few KiB; refuse anything
    // absurd before allocating for it.
    if length > 16 << 20 {
        return Err(format!("Content-Length {length} is unreasonable"));
    }
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Response {
        status,
        headers,
        body: String::from_utf8(body).map_err(|e| e.to_string())?,
    })
}

/// The parts of a `/query` body the benchmark checks, with scores kept as
/// the exact strings the daemon wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBody {
    pub iterations: u64,
    pub results: Vec<(usize, String)>,
    /// `?trace=1` stage timings `(queue, solve, topk, serialize, total)` µs.
    pub trace_us: Option<[u64; 5]>,
}

pub fn parse_query_body(body: &str) -> Result<QueryBody, String> {
    let doc = crate::json::parse(body)?;
    let iterations = doc
        .get("iterations")
        .and_then(|v| v.as_f64())
        .ok_or("body lacks iterations")? as u64;
    // Score strings must be compared as written, and the JSON parser would
    // round-trip them through f64, so they are cut from the raw text.
    let list_start = body.find("\"results\":[").ok_or("body lacks results")? + 11;
    let list_end = list_start + body[list_start..].find(']').ok_or("unterminated results")?;
    let mut results = Vec::new();
    for item in body[list_start..list_end].split("},") {
        let item = item.trim_matches(|c| c == '{' || c == '}');
        if item.is_empty() {
            continue;
        }
        let node = field(item, "\"node\":")?
            .parse::<usize>()
            .map_err(|e| format!("bad node: {e}"))?;
        results.push((node, field(item, "\"score\":")?.to_string()));
    }
    let trace_us = doc.get("trace").map(|t| {
        [
            "queue_us",
            "solve_us",
            "topk_us",
            "serialize_us",
            "total_us",
        ]
        .map(|k| t.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64)
    });
    Ok(QueryBody {
        iterations,
        results,
        trace_us,
    })
}

fn field<'a>(item: &'a str, key: &str) -> Result<&'a str, String> {
    let start = item
        .find(key)
        .ok_or_else(|| format!("result lacks {key}"))?
        + key.len();
    let rest = &item[start..];
    Ok(rest[..rest.find(',').unwrap_or(rest.len())].trim())
}

/// Value of an unlabelled sample in Prometheus text exposition.
pub fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_body_keeps_score_strings_verbatim() {
        let body = r#"{"seed":3,"top":2,"mode":"exact","iterations":7,"residual":1.5e-10,"results":[{"node":3,"score":0.05000000000000001},{"node":11,"score":1e-7}],"trace":{"request_id":"ab","queue_us":1,"solve_us":20,"topk_us":3,"serialize_us":4,"total_us":30}}"#;
        let parsed = parse_query_body(body).unwrap();
        assert_eq!(parsed.iterations, 7);
        assert_eq!(
            parsed.results,
            vec![
                (3, "0.05000000000000001".to_string()),
                (11, "1e-7".to_string())
            ]
        );
        assert_eq!(parsed.trace_us, Some([1, 20, 3, 4, 30]));
        let empty = parse_query_body(r#"{"iterations":0,"results":[]}"#).unwrap();
        assert!(empty.results.is_empty() && empty.trace_us.is_none());
    }

    #[test]
    fn metric_matches_whole_names_only() {
        let text = "# HELP x\nbepi_cache_hits_total 12\nbepi_cache_hits_total_extra 99\n\
                    bepi_graph_version{shard=\"1\"} 4\nbepi_graph_version 3\n";
        assert_eq!(metric(text, "bepi_cache_hits_total"), Some(12.0));
        assert_eq!(metric(text, "bepi_graph_version"), Some(3.0));
        assert_eq!(metric(text, "bepi_missing"), None);
    }
}
