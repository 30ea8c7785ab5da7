//! End-to-end tests of the daemon's approximate serving lane: `?mode=`
//! routing, the `X-Approx` response header, exact/approx cache
//! isolation, and the graceful-degradation path where a saturated
//! admission queue downgrades `mode=auto` queries to the approximate
//! engine instead of shedding them with 503.

use bepi_core::prelude::*;
use bepi_graph::Graph;
use bepi_server::worker::render_query_body;
use bepi_server::{parse_metric, QueryKey, ResponseMode, Server, ServerConfig, ServerHandle};
use bepi_walk::{ApproxConfig, ApproxEngine};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 61)
            .unwrap()
    })
}

fn solver() -> Arc<BePi> {
    static SOLVER: OnceLock<Arc<BePi>> = OnceLock::new();
    Arc::clone(
        SOLVER.get_or_init(|| Arc::new(BePi::preprocess(graph(), &BePiConfig::default()).unwrap())),
    )
}

/// A live engine over the index and its graph, so the approximate lane
/// is up.
fn start(config: &ServerConfig) -> ServerHandle {
    let engine =
        bepi_live::LiveEngine::start(solver(), graph().clone(), bepi_live::LiveConfig::default())
            .expect("the graph matches the index");
    Server::start_live(engine, config).expect("server must bind an ephemeral port")
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

fn get(addr: SocketAddr, target: &str) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("blank line");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
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

fn exact_body(seed: usize, top_k: usize) -> String {
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

/// What the daemon must serve for `mode=approx`: the default-config
/// engine's deterministic scores, rendered with the approx cache key.
fn approx_body(seed: usize, top_k: usize) -> String {
    let engine =
        ApproxEngine::new(graph(), BePiConfig::default().c, ApproxConfig::default()).unwrap();
    let scores = engine.query(seed, 0).unwrap();
    render_query_body(
        QueryKey {
            seed,
            top_k,
            version: 1,
            mode: ResponseMode::Approx,
        },
        &scores,
    )
}

#[test]
fn mode_routing_and_x_approx_header() {
    let handle = start(&ServerConfig::default());
    let addr = handle.local_addr();

    // Explicit exact, and the default (auto, unpressured): exact answers,
    // no X-Approx.
    for target in ["/query?seed=5&top=8&mode=exact", "/query?seed=5&top=8"] {
        let r = get(addr, target);
        assert_eq!(r.status, 200, "{target}");
        assert_eq!(r.header("x-approx"), None, "{target}");
        assert_eq!(r.body, exact_body(5, 8), "{target}");
    }

    // Explicit approx: flagged and answered by the approximate engine.
    let r = get(addr, "/query?seed=5&top=8&mode=approx");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-approx"), Some("1"));
    assert_eq!(r.body, approx_body(5, 8));
    assert_ne!(r.body, exact_body(5, 8), "approx must not equal exact");

    // There is one approximate answer per (seed, top, version): an
    // `epoch` parameter is ignored like any unknown one, so the request
    // without it hits the entry the request with it rendered.
    let with = get(addr, "/query?seed=6&top=8&mode=approx&epoch=3");
    assert_eq!(with.status, 200);
    assert_eq!(with.header("x-approx"), Some("1"));
    assert_eq!(with.header("x-cache"), Some("miss"));
    let without = get(addr, "/query?seed=6&top=8&mode=approx");
    assert_eq!(without.header("x-cache"), Some("hit"));
    assert_eq!(without.body, with.body);
    assert_eq!(without.body, approx_body(6, 8));
    assert!(!without.body.contains("\"epoch\""), "{}", without.body);

    // Unknown modes are client errors, not silent fallbacks.
    let r = get(addr, "/query?seed=5&mode=fast");
    assert_eq!(r.status, 400);

    let metrics = handle.metrics().render();
    assert!(parse_metric(&metrics, "bepi_approx_requests_total").unwrap() >= 2.0);
    handle.shutdown();
}

#[test]
fn cache_never_crosses_exact_and_approx_lanes() {
    let handle = start(&ServerConfig::default());
    let addr = handle.local_addr();

    // Warm the exact entry for this (seed, top) pair and confirm the
    // repeat is a cache hit.
    let first = get(addr, "/query?seed=9&top=6&mode=exact");
    let repeat = get(addr, "/query?seed=9&top=6&mode=exact");
    assert_eq!(first.body, repeat.body);
    let hits_after_exact =
        parse_metric(&handle.metrics().render(), "bepi_cache_hits_total").unwrap();
    assert!(hits_after_exact >= 1.0, "exact repeat must hit the cache");

    // The approx query for the same (seed, top) must NOT be answered by
    // that cached exact entry — the resolved mode is part of the key.
    let approx = get(addr, "/query?seed=9&top=6&mode=approx");
    assert_eq!(approx.header("x-approx"), Some("1"));
    assert_ne!(
        approx.body, first.body,
        "a stale exact entry must never answer an approx query"
    );
    assert_eq!(approx.body, approx_body(9, 6));

    // And vice versa: with the approx entry now cached, exact still gets
    // the exact body.
    let exact_again = get(addr, "/query?seed=9&top=6&mode=exact");
    assert_eq!(exact_again.header("x-approx"), None);
    assert_eq!(exact_again.body, first.body);

    // Approx repeats are byte-identical (deterministic engine + cache).
    let approx_repeat = get(addr, "/query?seed=9&top=6&mode=approx");
    assert_eq!(approx_repeat.body, approx.body);
    handle.shutdown();
}

#[test]
fn pressure_zero_degrades_every_auto_query() {
    // `pressure: 0.0` marks the daemon as always-pressured — the
    // deterministic hook for exercising degradation without a race.
    let handle = start(&ServerConfig {
        pressure: 0.0,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let auto = get(addr, "/query?seed=3&top=5&mode=auto");
    assert_eq!(auto.status, 200);
    assert_eq!(auto.header("x-approx"), Some("1"));
    assert_eq!(auto.body, approx_body(3, 5));

    // Explicit exact is still honored: pressure only redirects `auto`.
    let exact = get(addr, "/query?seed=3&top=5&mode=exact");
    assert_eq!(exact.status, 200);
    assert_eq!(exact.header("x-approx"), None);
    assert_eq!(exact.body, exact_body(3, 5));
    handle.shutdown();
}

#[test]
fn saturated_queue_degrades_auto_and_sheds_exact() {
    let handle = start(&ServerConfig {
        threads: 1,
        queue_depth: 1,
        timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // One idle connection occupies the lone worker, a second fills the
    // admission queue (same recipe as the exact-only shed test).
    let hold1 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let hold2 = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // `auto` overflows into the degraded lane and still gets an answer —
    // approximate, flagged, 200.
    let auto = get(addr, "/query?seed=4&top=5&mode=auto");
    assert_eq!(auto.status, 200, "auto must degrade, not shed");
    assert_eq!(auto.header("x-approx"), Some("1"));
    assert_eq!(auto.body, approx_body(4, 5));

    // Explicit exact cannot be downgraded, so under saturation it sheds.
    let exact = get(addr, "/query?seed=4&top=5&mode=exact");
    assert_eq!(exact.status, 503);

    let metrics = handle.metrics().render();
    assert!(parse_metric(&metrics, "bepi_degraded_total").unwrap() >= 2.0);
    assert!(parse_metric(&metrics, "bepi_approx_requests_total").unwrap() >= 1.0);

    // Releasing the held connections restores the exact lane.
    drop(hold1);
    drop(hold2);
    std::thread::sleep(Duration::from_millis(300));
    let recovered = get(addr, "/query?seed=4&top=5&mode=exact");
    assert_eq!(recovered.status, 200);
    assert_eq!(recovered.body, exact_body(4, 5));
    handle.shutdown();
}
