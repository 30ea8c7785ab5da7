//! End-to-end tests of the `bepi-server` daemon over real TCP sockets:
//! every test binds an ephemeral port, drives the server with a plain
//! `TcpStream` client, and checks responses against `BePi::query` output.

use bepi_core::prelude::*;
use bepi_server::worker::render_query_body;
use bepi_server::{parse_metric, QueryKey, ResponseMode, Server, ServerConfig, ServerHandle};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One shared preprocessed instance: preprocessing dominates test time and
/// the server never mutates it, so every test can reuse it.
fn solver() -> Arc<BePi> {
    static SOLVER: OnceLock<Arc<BePi>> = OnceLock::new();
    Arc::clone(SOLVER.get_or_init(|| {
        let g =
            bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 61)
                .unwrap();
        Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap())
    }))
}

fn start(config: &ServerConfig) -> ServerHandle {
    Server::start(solver(), config).expect("server must bind an ephemeral port")
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
}

/// Sends raw bytes and reads until the server closes the connection.
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    parse_response(&String::from_utf8(buf).expect("UTF-8 response"))
}

fn get(addr: SocketAddr, target: &str) -> Response {
    raw_request(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn parse_response(text: &str) -> Response {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response must have a blank line");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
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

/// The body the server must produce for `(seed, top_k)`, derived from a
/// direct `BePi::query` call through the same renderer.
fn expected_body(seed: usize, top_k: usize) -> String {
    let scores = solver().query(seed).unwrap();
    render_query_body(
        QueryKey {
            seed,
            top_k,
            version: 1,
            mode: ResponseMode::Exact,
        },
        &scores,
    )
}

#[test]
fn a_thousand_sequential_queries_are_byte_identical_to_direct_calls() {
    let handle = start(&ServerConfig::default());
    let addr = handle.local_addr();
    let n = solver().node_count();
    for i in 0..1000 {
        // seed repeats every n requests and top every 8, so the key
        // space cycles well inside 1000 requests and the cache gets hits.
        let seed = (i * 13) % n;
        let top = (i % 8) + 1;
        let resp = get(addr, &format!("/query?seed={seed}&top={top}"));
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.body, expected_body(seed, top), "request {i}");
    }
    // With 1000 requests over at most n * 8 distinct keys, some repeated
    // and must have come from the cache.
    let metrics = get(addr, "/metrics").body;
    assert!(parse_metric(&metrics, "bepi_cache_hits_total").unwrap() > 0.0);
    assert_eq!(
        parse_metric(&metrics, "bepi_queries_total").unwrap(),
        1000.0
    );
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_exact_results() {
    let handle = start(&ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let n = solver().node_count();
    std::thread::scope(|scope| {
        for t in 0..8usize {
            scope.spawn(move || {
                for i in 0..25usize {
                    let seed = (t * 31 + i * 7) % n;
                    let top = (i % 9) + 1;
                    let resp = get(addr, &format!("/query?seed={seed}&top={top}"));
                    assert_eq!(resp.status, 200, "client {t} request {i}");
                    assert_eq!(resp.body, expected_body(seed, top));
                }
            });
        }
    });
    handle.shutdown();
}

#[test]
fn repeated_seed_is_served_from_the_cache() {
    let handle = start(&ServerConfig::default());
    let addr = handle.local_addr();
    let first = get(addr, "/query?seed=3&top=5");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = get(addr, "/query?seed=3&top=5");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hits must be byte-identical");
    let metrics = get(addr, "/metrics").body;
    assert!(parse_metric(&metrics, "bepi_cache_hits_total").unwrap() >= 1.0);
    assert!(parse_metric(&metrics, "bepi_cache_misses_total").unwrap() >= 1.0);
    handle.shutdown();
}

#[test]
fn malformed_requests_get_4xx_and_the_worker_survives() {
    let handle = start(&ServerConfig {
        threads: 1, // one worker: if anything kills it, the follow-ups hang
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let garbage = raw_request(addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert_eq!(garbage.status, 400);
    let bad_query = get(addr, "/query?seed=not-a-number");
    assert_eq!(bad_query.status, 400);
    let missing_seed = get(addr, "/query");
    assert_eq!(missing_seed.status, 400);
    let out_of_range = get(addr, &format!("/query?seed={}", solver().node_count()));
    assert_eq!(out_of_range.status, 400);
    let not_found = get(addr, "/nope");
    assert_eq!(not_found.status, 404);
    let post = raw_request(addr, b"POST /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(post.status, 405);

    // The same single worker must still answer real queries.
    let ok = get(addr, "/query?seed=1&top=3");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, expected_body(1, 3));
    let metrics = get(addr, "/metrics").body;
    assert!(parse_metric(&metrics, "bepi_client_errors_total").unwrap() >= 5.0);
    handle.shutdown();
}

#[test]
fn saturated_queue_sheds_load_with_503() {
    let handle = start(&ServerConfig {
        threads: 1,
        queue_depth: 1,
        timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Two idle connections: the first occupies the lone worker (blocked
    // reading a request that never comes), the second fills the queue.
    let hold1 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let hold2 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Everything beyond the queue must now be shed.
    let shed = get(addr, "/query?seed=1");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));

    assert!(parse_metric(&handle.metrics().render(), "bepi_rejected_total").unwrap() >= 1.0);

    // Releasing the held connections lets the worker recover.
    drop(hold1);
    drop(hold2);
    std::thread::sleep(Duration::from_millis(200));
    let ok = get(addr, "/query?seed=1&top=3");
    assert_eq!(ok.status, 200);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let handle = start(&ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let n = solver().node_count();

    // Write requests so they are accepted and queued, but don't read yet.
    let mut in_flight = Vec::new();
    for i in 0..6usize {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let seed = (i * 11) % n;
        write!(
            s,
            "GET /query?seed={seed}&top=4 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        in_flight.push((s, seed));
    }
    // Give the acceptor time to admit all of them, then pull the plug.
    std::thread::sleep(Duration::from_millis(300));
    let trigger = handle.trigger();
    trigger.fire();

    // Every admitted request must still receive its complete answer.
    for (mut s, seed) in in_flight {
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("drained response");
        let resp = parse_response(&String::from_utf8(buf).unwrap());
        assert_eq!(resp.status, 200, "seed {seed}");
        assert_eq!(resp.body, expected_body(seed, 4));
    }

    handle.join();
    // After the drain the listener is gone: new connections fail outright
    // or are closed without a response.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = Vec::new();
            let n = s.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "a post-shutdown connection must get no response");
        }
    }
}

#[test]
fn healthz_and_metrics_endpoints_answer() {
    let handle = start(&ServerConfig::default());
    let addr = handle.local_addr();
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    for counter in [
        "bepi_connections_total",
        "bepi_requests_total",
        "bepi_queries_total",
        "bepi_cache_hits_total",
        "bepi_rejected_total",
        "bepi_query_latency_seconds_count",
    ] {
        assert!(
            parse_metric(&metrics.body, counter).is_some(),
            "missing {counter}"
        );
    }
    handle.shutdown();
}

#[test]
fn unconverged_solve_is_a_500_not_an_answer() {
    // An iteration cap of 1 stops GMRES before it reaches the tolerance:
    // the daemon must report the failure, never serve the partial answer.
    let g = bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 61)
        .unwrap();
    let capped = BePi::preprocess(
        &g,
        &BePiConfig {
            max_iters: 1,
            ..BePiConfig::default()
        },
    )
    .unwrap();
    let seed = (0..g.n())
        .find(|&s| solver().query(s).unwrap().iterations > 1)
        .expect("some seed needs more than one GMRES iteration");
    let handle = Server::start(Arc::new(capped), &ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let errors = |addr| parse_metric(&get(addr, "/metrics").body, "bepi_server_errors_total");
    let before = errors(addr).unwrap();
    let resp = get(addr, &format!("/query?seed={seed}&top=5&mode=exact"));
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("did not converge"), "{}", resp.body);
    assert_eq!(errors(addr).unwrap(), before + 1.0);
    handle.shutdown();
}
