//! End-to-end tracing tests: request-id minting and adoption, the
//! daemon's `?trace=1` body, and its `/debug/trace` ring — all driven
//! over real TCP and parsed as full JSON documents (via
//! `bepi_tests::json`, a parser independent of the code under test), not
//! substring checks.

use bepi_core::prelude::*;
use bepi_server::{Server, ServerConfig};
use bepi_tests::json::{self, Value};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn solver() -> Arc<BePi> {
    static SOLVER: OnceLock<Arc<BePi>> = OnceLock::new();
    Arc::clone(SOLVER.get_or_init(|| {
        let g =
            bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 29)
                .unwrap();
        Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap())
    }))
}

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn request_id(&self) -> &str {
        self.header("x-request-id").expect("X-Request-Id echoed")
    }

    fn json(&self) -> Value {
        json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON ({e}): {}", self.body))
    }
}

fn get_with_headers(addr: SocketAddr, target: &str, extra: &[(&str, &str)]) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in extra {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    s.write_all(req.as_bytes()).expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("blank line");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(':').expect("header colon");
            (k.trim().to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, target: &str) -> Response {
    get_with_headers(addr, target, &[])
}

/// Navigates `value.key1.key2...`, panicking with context on a miss.
fn field<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    let mut cur = value;
    for key in path {
        let obj = cur
            .as_object()
            .unwrap_or_else(|| panic!("{path:?}: not an object at {key}"));
        cur = json::get(obj, key).unwrap_or_else(|| panic!("{path:?}: missing {key}"));
    }
    cur
}

fn str_field<'a>(value: &'a Value, path: &[&str]) -> &'a str {
    field(value, path)
        .as_str()
        .unwrap_or_else(|| panic!("{path:?}: not a string"))
}

fn num_field(value: &Value, path: &[&str]) -> f64 {
    field(value, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?}: not a number"))
}

fn is_hex_id(s: &str) -> bool {
    s.len() == 32 && s.chars().all(|c| c.is_ascii_hexdigit())
}

/// A server config whose trace ring and slowlog record everything.
fn traced_server() -> ServerConfig {
    ServerConfig {
        slow_query: Duration::ZERO,
        ..ServerConfig::default()
    }
}

#[test]
fn daemon_trace_body_and_ring_share_the_echoed_request_id() {
    let handle = Server::start(solver(), &traced_server()).expect("bind");
    let addr = handle.local_addr();

    // Cache miss, then hit on the same key.
    let miss = get(addr, "/query?seed=11&top=5&trace=1");
    assert_eq!(miss.status, 200);
    let hit = get(addr, "/query?seed=11&top=5&trace=1");
    assert_eq!(hit.status, 200);

    for (resp, label) in [(&miss, "miss"), (&hit, "hit")] {
        let rid = resp.request_id();
        assert!(is_hex_id(rid), "{label}: bad id {rid:?}");
        let doc = resp.json();
        assert_eq!(str_field(&doc, &["trace", "request_id"]), rid, "{label}");
        let total = num_field(&doc, &["trace", "total_us"]);
        let queue = num_field(&doc, &["trace", "queue_us"]);
        assert!(total >= queue, "{label}");
    }
    // The miss solved; the hit served the cached body with zero stages.
    assert!(num_field(&miss.json(), &["trace", "solve_us"]) > 0.0);
    assert_eq!(num_field(&hit.json(), &["trace", "solve_us"]), 0.0);
    assert_eq!(hit.header("x-cache"), Some("hit"));
    // Two requests, two distinct ids.
    assert_ne!(miss.request_id(), hit.request_id());

    // Both land in the trace ring, newest first, hit-flagged.
    let ring = get(addr, "/debug/trace");
    assert_eq!(ring.status, 200);
    let doc = ring.json();
    let entries = field(&doc, &["entries"]).as_array().expect("entries array");
    assert!(entries.len() >= 2, "{}", ring.body);
    assert_eq!(str_field(&entries[0], &["request_id"]), hit.request_id());
    assert_eq!(field(&entries[0], &["cache_hit"]).as_bool(), Some(true));
    assert_eq!(str_field(&entries[1], &["request_id"]), miss.request_id());
    assert_eq!(field(&entries[1], &["cache_hit"]).as_bool(), Some(false));
    for e in &entries[..2] {
        assert_eq!(num_field(e, &["seed"]), 11.0);
        let obj = e.as_object().expect("entry object");
        assert!(json::get(obj, "shard").is_none(), "no fleet identity");
    }

    // The slowlog (threshold 0) carries the same correlation ids.
    let slow = get(addr, "/debug/slow");
    assert!(slow.body.contains(miss.request_id()), "{}", slow.body);
    assert!(slow.body.contains(hit.request_id()), "{}", slow.body);
    handle.shutdown();
}

#[test]
fn valid_ingress_ids_are_adopted_and_malformed_ones_reminted() {
    let handle = Server::start(solver(), &traced_server()).expect("bind");
    let addr = handle.local_addr();

    let supplied = "00112233445566778899aabbccddeeff";
    let resp = get_with_headers(
        addr,
        "/query?seed=3&top=2&trace=1",
        &[("X-Request-Id", supplied)],
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.request_id(), supplied, "valid ids are adopted");
    assert_eq!(str_field(&resp.json(), &["trace", "request_id"]), supplied);

    // Malformed ids (wrong length, non-hex, injection attempts) are
    // replaced, never echoed back.
    for bad in ["deadbeef", "zz112233445566778899aabbccddeeff", "a\r\nX:1"] {
        let resp = get_with_headers(addr, "/query?seed=3&top=2", &[("X-Request-Id", bad)]);
        assert_eq!(resp.status, 200);
        let rid = resp.request_id();
        assert!(is_hex_id(rid), "reminted id must be canonical: {rid:?}");
        assert_ne!(rid, bad);
    }
    handle.shutdown();
}
