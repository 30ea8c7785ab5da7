//! Golden bodies for the daemon's observability surface: fixed inputs
//! in, exact bytes out.
//!
//! The expected bodies live beside this file in `golden/`. A change
//! to how `/metrics`, `/version`, `/debug/slow` or `/debug/trace` are
//! rendered must leave every one of them byte-identical. On a mismatch
//! the test writes the body it got next to the build's temporary files
//! and names that path, so the two can be diffed.

use bepi_core::prelude::*;
use bepi_core::EdgeUpdate;
use bepi_graph::{generators, Graph};
use bepi_live::{LiveConfig, LiveEngine, LiveStatus};
use bepi_obs::trace::RequestId;
use bepi_server::{render_live_metrics, Metrics, QueryLog, QueryRecord, Server, ServerConfig};
use bepi_sparse::Bytes;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let got = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-actual-{name}"));
        std::fs::write(&got, actual).expect("write the mismatching body");
        panic!(
            "{} differs from its golden body; got {}",
            path.display(),
            got.display()
        );
    }
}

fn get(addr: SocketAddr, target: &str) -> String {
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
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

#[test]
fn golden_daemon_metrics_with_live_block() {
    let m = Metrics::default();
    let counters = [
        &m.connections_total,
        &m.requests_total,
        &m.queries_total,
        &m.cache_hits_total,
        &m.cache_misses_total,
        &m.approx_requests_total,
        &m.degraded_total,
        &m.rejected_total,
        &m.timeouts_total,
        &m.client_errors_total,
        &m.server_errors_total,
        &m.in_flight,
        &m.queue_depth,
    ];
    for (i, c) in counters.iter().enumerate() {
        c.store(10 + i as u64, Ordering::Relaxed);
    }
    for us in [100, 250, 3_000, 40_000, 999_999, 5_000_000] {
        m.query_latency
            .observe(Duration::from_micros(us).as_secs_f64());
    }
    let mut body = m.render();
    body.push_str(&render_live_metrics(&LiveStatus {
        version: 3,
        pending: 17,
        rebuilds: 5,
        updates: 40,
        last_rebuild_us: 125_000,
        index_bytes: Bytes {
            heap: 1024,
            mapped: 4096,
        },
        numeric_rebuilds: 4,
        structural_rebuilds: 1,
        numeric_rebuild_us: 25_000,
        full_rebuild_us: 100_000,
        ..LiveStatus::default()
    }));
    assert_golden("daemon_metrics.txt", &body);
}

#[test]
fn golden_debug_slow() {
    let log = QueryLog::new(4, Duration::from_micros(250));
    let q = |seed: u64, total_us: u64| QueryRecord {
        seed,
        total_us,
        queue_us: seed,
        solve_us: seed * 2,
        topk_us: seed * 3,
        serialize_us: seed * 4,
        iterations: seed % 7,
        residual: 3.5e-10,
        cache_hit: seed % 2 == 0,
        version: 2,
        top_k: 10,
        approx: seed % 3 == 0,
        request_id: RequestId {
            hi: 0x0011_2233_4455_6677 + seed,
            lo: 0x8899_aabb_ccdd_eeff,
        },
    };
    log.record(&q(1, 249)); // below the threshold: dropped
    log.record(&q(2, 250));
    log.record(&QueryRecord {
        residual: f64::NAN,
        ..q(3, 1_000)
    });
    log.record(&QueryRecord {
        residual: 0.0,
        ..q(4, 12_345)
    });
    for seed in 5..8 {
        log.record(&q(seed, 100_000 + seed));
    }
    assert_golden("debug_slow.json", &log.render_slow_json());
}

#[test]
fn golden_debug_trace() {
    let log = QueryLog::new(3, Duration::ZERO);
    let t = |seed: u64| QueryRecord {
        request_id: RequestId {
            hi: seed,
            lo: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        },
        seed,
        top_k: 5,
        queue_us: seed,
        solve_us: if seed % 2 == 0 { 0 } else { seed * 100 },
        topk_us: seed * 3,
        serialize_us: seed * 4,
        total_us: seed * 1_000,
        cache_hit: seed % 2 == 0,
        approx: seed == 3,
        iterations: seed,
        residual: 1e-9,
        version: 7,
    };
    for seed in 1..=4 {
        log.record(&t(seed));
    }
    assert_golden("debug_trace.json", &log.render_trace_json());
}

fn base_graph() -> Graph {
    generators::rmat(7, 400, generators::RmatParams::default(), 5).unwrap()
}

#[test]
fn golden_version_frozen() {
    let g = base_graph();
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    let handle = Server::start(bepi, &ServerConfig::default()).unwrap();
    assert_golden("version_frozen.json", &get(handle.local_addr(), "/version"));
    handle.shutdown();
}

#[test]
fn golden_version_live() {
    let g = base_graph();
    let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
    // A checkpoint into a directory that does not exist fails after each
    // swap, which fills `last_error`.
    let config = LiveConfig {
        checkpoint_path: Some(PathBuf::from("/nonexistent-bepi-golden/checkpoint.bepi")),
        ..LiveConfig::default()
    };
    let engine = LiveEngine::start(bepi, g.clone(), config).unwrap();
    let handle = Server::start_live(Arc::clone(&engine), &ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut bodies = get(addr, "/version");

    // Removing one edge of a source with two out-edges is numeric; one
    // more update stays pending.
    let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
    let v = g.out_neighbors(u).next().unwrap();
    engine.submit(&[EdgeUpdate::Remove(u, v)]).unwrap();
    engine.rebuild_and_wait().unwrap();
    engine.submit(&[EdgeUpdate::Insert(u, v)]).unwrap();
    bodies.push('\n');
    bodies.push_str(&get(addr, "/version"));

    // Removing a node's only out-edge flips it to a dead end: structural,
    // with a reason.
    let w = (0..g.n()).find(|&w| g.out_degree(w) == 1).unwrap();
    let wv = g.out_neighbors(w).next().unwrap();
    engine.submit(&[EdgeUpdate::Remove(w, wv)]).unwrap();
    engine.rebuild_and_wait().unwrap();
    bodies.push('\n');
    bodies.push_str(&get(addr, "/version"));
    bodies.push('\n');
    assert_golden("version_live.json", &bodies);
    handle.shutdown();
}
