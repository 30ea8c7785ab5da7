//! Integration tests of the `bepi-route` scatter-gather front tier over
//! real in-process `bepi-server` shard daemons.
//!
//! Every test boots N shard servers over the *same* preprocessed solver
//! (the in-process analogue of N daemons mmapping one v6 index), puts a
//! router in front in attach mode, and drives the router over TCP. The
//! core contract under test: routed responses are **bit-identical** to
//! what a single daemon would have produced, healthy or degraded.

use bepi_core::prelude::*;
use bepi_route::router::{Router, RouterConfig, RouterHandle};
use bepi_route::shard::ShardState;
use bepi_route::supervisor::Supervisor;
use bepi_server::worker::render_query_body;
use bepi_server::{parse_metric, QueryKey, ResponseMode, Server, ServerConfig, ServerHandle};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One shared preprocessed instance; preprocessing dominates test time
/// and neither the shards nor the router mutate it.
fn solver() -> Arc<BePi> {
    static SOLVER: OnceLock<Arc<BePi>> = OnceLock::new();
    Arc::clone(SOLVER.get_or_init(|| {
        let g =
            bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 61)
                .unwrap();
        Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap())
    }))
}

/// Boots `n` shard servers (ids 0..n) over the shared solver and a
/// router attached to them. The `ServerHandle`s must stay alive for the
/// duration of the test, so they are returned alongside the router.
fn boot_fleet(n: usize) -> (RouterHandle, Vec<ServerHandle>) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|id| {
            let config = ServerConfig {
                shard_id: Some(id as u64),
                ..ServerConfig::default()
            };
            Server::start(solver(), &config).expect("shard server must bind")
        })
        .collect();
    let states: Vec<Arc<ShardState>> = shards
        .iter()
        .enumerate()
        .map(|(id, h)| {
            Arc::new(ShardState::new(
                id,
                h.local_addr().to_string(),
                Duration::from_secs(10),
            ))
        })
        .collect();
    let supervisor = Supervisor::attach(states);
    let cfg = RouterConfig {
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    };
    let router = Router::start(supervisor, cfg).expect("router must bind");
    (router, shards)
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

/// The exact body a single daemon would produce for `(seed, top_k)`.
fn oracle_body(seed: usize, top_k: usize) -> String {
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

/// Extracts `(node, score_text)` pairs from a daemon query body.
fn parse_results(body: &str) -> Vec<(u64, String)> {
    let mut out = Vec::new();
    let Some(start) = body.find("\"results\":[") else {
        return out;
    };
    let mut rest = &body[start..];
    while let Some(n) = rest.find("\"node\":") {
        rest = &rest[n + 7..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let node: u64 = rest[..end].parse().unwrap();
        let s = rest.find("\"score\":").expect("score after node") + 8;
        rest = &rest[s..];
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        out.push((node, rest[..end].to_string()));
        rest = &rest[end..];
    }
    out
}

#[test]
fn routed_queries_are_bit_identical_to_a_single_daemon() {
    let (router, _shards) = boot_fleet(3);
    let addr = router.local_addr();
    let n = solver().node_count();
    for i in 0..200 {
        let seed = (i * 17) % n;
        let top = (i % 8) + 1;
        let resp = get(addr, &format!("/query?seed={seed}&top={top}"));
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.body, oracle_body(seed, top), "request {i}");
        // Lineage headers pass through from the answering shard.
        assert!(resp.header("x-shard").is_some(), "request {i}");
        assert_eq!(resp.header("x-graph-version"), Some("1"), "request {i}");
    }
}

#[test]
fn queries_spread_across_every_shard() {
    let (router, _shards) = boot_fleet(3);
    let addr = router.local_addr();
    let n = solver().node_count();
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..n.min(64) {
        let resp = get(addr, &format!("/query?seed={seed}&top=3"));
        assert_eq!(resp.status, 200);
        seen.insert(resp.header("x-shard").expect("X-Shard").to_string());
    }
    assert_eq!(
        seen.len(),
        3,
        "rendezvous ring must use all shards: {seen:?}"
    );
}

#[test]
fn batch_gathers_verbatim_bodies_in_seed_order() {
    let (router, _shards) = boot_fleet(2);
    let addr = router.local_addr();
    let n = solver().node_count();
    let seeds: Vec<usize> = (0..10).map(|i| (i * 29) % n).collect();
    let list = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let resp = get(addr, &format!("/batch?seeds={list}&top=4"));
    assert_eq!(resp.status, 200);
    let mut expected = String::from("{\"results\":[");
    for (i, seed) in seeds.iter().enumerate() {
        if i > 0 {
            expected.push(',');
        }
        expected.push_str(&oracle_body(*seed, 4));
    }
    expected.push_str("]}");
    assert_eq!(resp.body, expected);
}

#[test]
fn merged_batch_is_the_fleet_wide_topk_with_verbatim_scores() {
    let (router, _shards) = boot_fleet(2);
    let addr = router.local_addr();
    let n = solver().node_count();
    let seeds: Vec<usize> = vec![1 % n, 7 % n, 23 % n];
    let list = seeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let top = 5usize;
    let resp = get(addr, &format!("/batch?seeds={list}&top={top}&merge=1"));
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"merged\":true"), "{}", resp.body);

    // Recompute the expected merge from single-daemon oracle bodies:
    // sort by score desc (ties by seed then node), keep verbatim text.
    let mut entries: Vec<(usize, u64, String, f64)> = Vec::new();
    for seed in &seeds {
        for (node, text) in parse_results(&oracle_body(*seed, top)) {
            let score: f64 = text.parse().expect("score parses");
            entries.push((*seed, node, text, score));
        }
    }
    entries.sort_by(|a, b| {
        b.3.partial_cmp(&a.3)
            .unwrap()
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    entries.truncate(top);
    let expected: Vec<String> = entries
        .iter()
        .map(|(seed, node, text, _)| {
            format!("{{\"seed\":{seed},\"node\":{node},\"score\":{text}}}")
        })
        .collect();
    assert_eq!(
        resp.body,
        format!(
            "{{\"merged\":true,\"top\":{top},\"results\":[{}]}}",
            expected.join(",")
        )
    );
}

#[test]
fn dead_shard_fails_over_without_a_single_error() {
    // Shard 1's address has no listener (bind-then-drop), so every seed
    // whose primary is shard 1 must fail over to a sibling.
    let live: Vec<ServerHandle> = (0..2)
        .map(|id| {
            let config = ServerConfig {
                shard_id: Some(id as u64 * 2), // ids 0 and 2
                ..ServerConfig::default()
            };
            Server::start(solver(), &config).expect("shard server must bind")
        })
        .collect();
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let states = vec![
        Arc::new(ShardState::new(
            0,
            live[0].local_addr().to_string(),
            Duration::from_secs(10),
        )),
        Arc::new(ShardState::new(1, dead_addr, Duration::from_secs(10))),
        Arc::new(ShardState::new(
            2,
            live[1].local_addr().to_string(),
            Duration::from_secs(10),
        )),
    ];
    let supervisor = Supervisor::attach(states);
    let router = Router::start(supervisor, RouterConfig::default()).expect("router must bind");
    let addr = router.local_addr();
    let n = solver().node_count();
    for seed in 0..n.min(64) {
        let resp = get(addr, &format!("/query?seed={seed}&top=3"));
        assert_eq!(resp.status, 200, "seed {seed} must fail over, not fail");
        assert_eq!(resp.body, oracle_body(seed, 3), "seed {seed}");
    }
    let metrics = get(addr, "/metrics").body;
    assert_eq!(
        parse_metric(&metrics, "bepi_shard_healthy{shard=\"1\"}"),
        Some(0.0),
        "dead shard must be marked unhealthy"
    );
    assert!(
        parse_metric(&metrics, "bepi_route_failovers_total").unwrap() > 0.0,
        "some seed must have had the dead shard as primary"
    );
    assert_eq!(
        parse_metric(&metrics, "bepi_route_errors_total"),
        Some(0.0),
        "failover must be invisible to clients"
    );
}

#[test]
fn health_version_and_metrics_endpoints_describe_the_fleet() {
    let (router, _shards) = boot_fleet(3);
    let addr = router.local_addr();

    let health = get(addr, "/route/health");
    assert_eq!(health.status, 200);
    for id in 0..3 {
        assert!(
            health.body.contains(&format!("\"id\":{id}")),
            "{}",
            health.body
        );
    }
    assert!(health.body.contains("\"advertised_version\":1"));
    assert!(health.body.contains("\"quorum\":2"), "{}", health.body);

    let version = get(addr, "/version");
    assert_eq!(version.status, 200);
    assert_eq!(version.header("x-graph-version"), Some("1"));
    assert!(version.body.contains("\"shards\":3"), "{}", version.body);
    assert!(
        version.body.contains("\"variant\":\"BePI-S\""),
        "{}",
        version.body
    );

    // Drive a few queries so counters move, then check the metric set.
    for seed in 0..8 {
        assert_eq!(get(addr, &format!("/query?seed={seed}&top=2")).status, 200);
    }
    let metrics = get(addr, "/metrics").body;
    for name in [
        "bepi_route_requests_total",
        "bepi_route_retries_total",
        "bepi_hedged_requests_total",
        "bepi_route_failovers_total",
        "bepi_route_errors_total",
        "bepi_route_advertised_version",
    ] {
        assert!(
            parse_metric(&metrics, name).is_some(),
            "missing {name} in:\n{metrics}"
        );
    }
    for id in 0..3 {
        assert_eq!(
            parse_metric(&metrics, &format!("bepi_shard_healthy{{shard=\"{id}\"}}")),
            Some(1.0)
        );
    }
    assert!(parse_metric(&metrics, "bepi_route_requests_total").unwrap() >= 8.0);
    assert!(
        metrics.contains("bepi_route_shard_latency_seconds_bucket"),
        "per-shard latency histograms must render"
    );
}
