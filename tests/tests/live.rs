//! End-to-end tests of the live-update path: concurrent query load while
//! edges are posted and the index is hot-swapped, staleness semantics,
//! and WAL-backed durability — all over real TCP sockets.
//!
//! The consistency oracle relies on BePI preprocessing being
//! deterministic: rebuilding the same graph with the same config yields
//! bit-identical scores, so the body the server must produce for each
//! `(version, seed)` pair can be computed independently here and compared
//! byte-for-byte.

use bepi_core::dynamic::apply_updates;
use bepi_core::prelude::*;
use bepi_core::EdgeUpdate;
use bepi_live::{LiveConfig, LiveEngine};
use bepi_server::worker::render_query_body;
use bepi_server::{parse_metric, QueryKey, ResponseMode, Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TOP_K: usize = 10;
const SEEDS: std::ops::Range<usize> = 0..8;

fn base_graph() -> bepi_graph::Graph {
    bepi_graph::generators::rmat(7, 400, bepi_graph::generators::RmatParams::default(), 17).unwrap()
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

    fn version(&self) -> u64 {
        self.header("x-graph-version")
            .expect("response must carry X-Graph-Version")
            .parse()
            .expect("numeric version")
    }
}

fn raw_request(addr: SocketAddr, bytes: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
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

fn post(addr: SocketAddr, target: &str, body: &str) -> Response {
    raw_request(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn parse_response(text: &str) -> Response {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response must have a blank line");
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

fn edges_body(updates: &[EdgeUpdate]) -> String {
    updates
        .iter()
        .map(|u| match u {
            EdgeUpdate::Insert(a, b) => format!("{{\"op\":\"insert\",\"u\":{a},\"v\":{b}}}\n"),
            EdgeUpdate::Remove(a, b) => format!("{{\"op\":\"remove\",\"u\":{a},\"v\":{b}}}\n"),
        })
        .collect()
}

/// The exact body the server must serve for `seed` at `version`, built
/// from an independently preprocessed copy of that version's graph.
fn expected_bodies(graph: &bepi_graph::Graph, version: u64) -> HashMap<usize, String> {
    let bepi = BePi::preprocess(graph, &BePiConfig::default()).unwrap();
    SEEDS
        .map(|seed| {
            let scores = bepi.query(seed).unwrap();
            let key = QueryKey {
                seed,
                top_k: TOP_K,
                version,
                mode: ResponseMode::Exact,
            };
            (seed, render_query_body(key, &scores))
        })
        .collect()
}

fn start_live(engine: Arc<LiveEngine>) -> ServerHandle {
    Server::start_live(
        engine,
        &ServerConfig {
            timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("server must bind an ephemeral port")
}

/// The tentpole acceptance test: sustained concurrent query load while
/// edges are posted and the index hot-swaps twice. Every single response
/// must be internally consistent with exactly one snapshot version — the
/// one echoed in its `X-Graph-Version` header — and nothing may be
/// dropped or torn.
#[test]
fn concurrent_queries_during_hot_swap_are_single_version_consistent() {
    let g1 = base_graph();
    let batch1 = vec![
        EdgeUpdate::Insert(0, 100),
        EdgeUpdate::Insert(100, 3),
        EdgeUpdate::Insert(5, 77),
    ];
    let batch2 = vec![EdgeUpdate::Remove(0, 100), EdgeUpdate::Insert(2, 90)];
    let g2 = apply_updates(&g1, &batch1).unwrap();
    let g3 = apply_updates(&g2, &batch2).unwrap();

    // Independently derived oracle: version -> seed -> exact body.
    let expected: HashMap<u64, HashMap<usize, String>> = [
        (1, expected_bodies(&g1, 1)),
        (2, expected_bodies(&g2, 2)),
        (3, expected_bodies(&g3, 3)),
    ]
    .into_iter()
    .collect();
    // The updates must actually move the scores, or "reflects the
    // inserts" would be vacuous.
    assert_ne!(expected[&1][&0], expected[&2][&0]);

    let bepi = Arc::new(BePi::preprocess(&g1, &BePiConfig::default()).unwrap());
    let engine = LiveEngine::start(bepi, g1, LiveConfig::default()).unwrap();
    let handle = start_live(engine);
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut versions_seen = std::collections::HashSet::new();
                while !stop.load(Ordering::Relaxed) {
                    for seed in SEEDS.skip(c % 2) {
                        let r = get(addr, &format!("/query?seed={seed}&top={TOP_K}"));
                        // No dropped queries: every request must be
                        // answered, and answered consistently.
                        assert_eq!(r.status, 200, "client {c}: {}", r.body);
                        let v = r.version();
                        let want = &expected
                            .get(&v)
                            .unwrap_or_else(|| panic!("unknown version {v}"))[&seed];
                        assert_eq!(
                            &r.body, want,
                            "client {c}: body for seed {seed} must match version {v} exactly"
                        );
                        served += 1;
                        versions_seen.insert(v);
                    }
                }
                (served, versions_seen)
            })
        })
        .collect();

    // Let the clients hammer version 1 for a moment, then swap twice.
    std::thread::sleep(Duration::from_millis(100));
    let r = post(addr, "/edges", &edges_body(&batch1));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"accepted\":3"), "{}", r.body);
    assert!(r.body.contains("\"version\":1"), "{}", r.body);
    let r = post(addr, "/rebuild", "");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.version(), 2);
    assert!(r.body.contains("\"pending\":0"), "{}", r.body);

    std::thread::sleep(Duration::from_millis(100));
    let r = post(addr, "/edges", &edges_body(&batch2));
    assert_eq!(r.status, 200, "{}", r.body);
    let r = post(addr, "/rebuild", "");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.version(), 3);

    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    let mut all_versions = std::collections::HashSet::new();
    for client in clients {
        let (served, versions) = client.join().expect("client thread must not panic");
        total += served;
        all_versions.extend(versions);
    }
    assert!(total > 0);
    assert!(
        all_versions.contains(&3),
        "clients must observe the final version, saw {all_versions:?}"
    );

    // Post-swap: a fresh query reflects the inserts, byte-for-byte.
    let r = get(addr, &format!("/query?seed=0&top={TOP_K}"));
    assert_eq!(r.status, 200);
    assert_eq!(r.version(), 3);
    assert_eq!(r.body, expected[&3][&0]);

    // The metrics surface tracks the swaps.
    let m = get(addr, "/metrics").body;
    assert_eq!(parse_metric(&m, "bepi_graph_version"), Some(3.0));
    assert_eq!(parse_metric(&m, "bepi_pending_updates"), Some(0.0));
    assert_eq!(parse_metric(&m, "bepi_rebuilds_total"), Some(2.0));
    assert_eq!(parse_metric(&m, "bepi_updates_total"), Some(5.0));

    handle.shutdown();
}

/// Staleness contract: buffered updates are invisible until a rebuild
/// completes; `/version` reports them as pending.
#[test]
fn queries_serve_last_completed_rebuild_not_wal_tip() {
    let g = base_graph();
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    let engine = LiveEngine::start(bepi, g.clone(), LiveConfig::default()).unwrap();
    let handle = start_live(engine);
    let addr = handle.local_addr();

    let before = get(addr, "/query?seed=1&top=5");
    assert_eq!(before.status, 200);
    assert_eq!(before.version(), 1);

    let r = post(addr, "/edges", &edges_body(&[EdgeUpdate::Insert(1, 99)]));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"rebuild_triggered\":false"), "{}", r.body);

    // Still version 1, byte-identical to the pre-update response.
    let during = get(addr, "/query?seed=1&top=5");
    assert_eq!(during.version(), 1);
    assert_eq!(during.body, before.body);
    let v = get(addr, "/version");
    assert_eq!(v.status, 200);
    assert!(v.body.contains("\"version\":1"), "{}", v.body);
    assert!(v.body.contains("\"pending\":1"), "{}", v.body);
    assert!(v.body.contains("\"live\":true"), "{}", v.body);
    assert!(v.body.contains("\"variant\":\"BePI-S\""), "{}", v.body);

    let r = post(addr, "/rebuild", "");
    assert_eq!(r.status, 200, "{}", r.body);
    let after = get(addr, "/query?seed=1&top=5");
    assert_eq!(after.version(), 2);
    assert_ne!(after.body, before.body);
    handle.shutdown();
}

/// `--auto-flush`-style threshold rebuilds work end-to-end over HTTP.
#[test]
fn auto_flush_threshold_rebuilds_in_background() {
    let g = base_graph();
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    let engine = LiveEngine::start(
        bepi,
        g,
        LiveConfig {
            auto_flush_threshold: 2,
            ..LiveConfig::default()
        },
    )
    .unwrap();
    let handle = start_live(engine);
    let addr = handle.local_addr();

    let r = post(
        addr,
        "/edges",
        &edges_body(&[EdgeUpdate::Insert(0, 50), EdgeUpdate::Insert(0, 51)]),
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"rebuild_triggered\":true"), "{}", r.body);

    // The rebuild is asynchronous: poll until the served version bumps.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let r = get(addr, "/query?seed=0&top=5");
        assert_eq!(r.status, 200);
        if r.version() == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background rebuild never landed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// A frozen daemon (index without graph) keeps serving queries but
/// rejects the live-update surface with clear errors.
#[test]
fn frozen_server_rejects_updates_but_serves_queries() {
    let g = base_graph();
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    let handle = Server::start(
        bepi,
        &ServerConfig {
            timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let r = get(addr, "/query?seed=0&top=5");
    assert_eq!(r.status, 200);
    assert_eq!(r.version(), 1);

    let v = get(addr, "/version");
    assert!(v.body.contains("\"live\":false"), "{}", v.body);

    let r = post(addr, "/edges", &edges_body(&[EdgeUpdate::Insert(0, 1)]));
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(r.body.contains("live updates disabled"), "{}", r.body);
    let r = post(addr, "/rebuild", "");
    assert_eq!(r.status, 503, "{}", r.body);

    // Malformed bodies and wrong methods are client errors, not 500s.
    let r = post(addr, "/edges", "not json");
    assert_eq!(r.status, 400, "{}", r.body);
    let r = post(addr, "/edges", "");
    assert_eq!(r.status, 400, "{}", r.body);
    let r = get(addr, "/edges");
    assert_eq!(r.status, 405, "{}", r.body);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = post(addr, "/query?seed=0", "");
    assert_eq!(r.status, 405, "{}", r.body);
    assert_eq!(r.header("allow"), Some("GET"));
    handle.shutdown();
}

/// Out-of-range edges are rejected atomically with 422 — nothing from the
/// batch is buffered.
#[test]
fn out_of_range_edge_batch_is_rejected_as_a_unit() {
    let g = base_graph();
    let n = g.n();
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    let engine = LiveEngine::start(bepi, g, LiveConfig::default()).unwrap();
    let handle = start_live(engine);
    let addr = handle.local_addr();

    let r = post(
        addr,
        "/edges",
        &edges_body(&[EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(0, n)]),
    );
    assert_eq!(r.status, 422, "{}", r.body);
    let v = get(addr, "/version");
    assert!(v.body.contains("\"pending\":0"), "{}", v.body);
    handle.shutdown();
}

/// Durability through the full server stack: updates posted over HTTP
/// land in the WAL; a new engine over the same WAL (the crash-restart
/// path — the first server is dropped without flushing) serves scores
/// byte-for-byte equal to a from-scratch preprocess of the updated graph.
#[test]
fn wal_backed_server_replays_unflushed_updates_on_restart() {
    let dir = std::env::temp_dir().join("bepi_live_http_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join(format!("restart_{}.wal", std::process::id()));
    std::fs::remove_file(&wal).ok();

    let g = base_graph();
    let updates = vec![
        EdgeUpdate::Insert(0, 60),
        EdgeUpdate::Remove(0, 60),
        EdgeUpdate::Insert(4, 80),
    ];
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    let config = LiveConfig {
        wal_path: Some(wal.clone()),
        ..LiveConfig::default()
    };
    let engine = LiveEngine::start(Arc::clone(&bepi), g.clone(), config.clone()).unwrap();
    let handle = start_live(engine);
    let r = post(handle.local_addr(), "/edges", &edges_body(&updates));
    assert_eq!(r.status, 200, "{}", r.body);
    // "Crash": tear the server down with the updates unflushed.
    handle.shutdown();

    let engine = LiveEngine::start(bepi, g.clone(), config).unwrap();
    let handle = start_live(engine);
    let r = get(handle.local_addr(), &format!("/query?seed=4&top={TOP_K}"));
    assert_eq!(r.status, 200);

    let expected_graph = apply_updates(&g, &updates).unwrap();
    let expected = expected_bodies(&expected_graph, r.version());
    assert_eq!(r.body, expected[&4]);
    handle.shutdown();
    std::fs::remove_file(&wal).ok();
}
