//! End-to-end observability tests: `?trace=1` stage breakdowns,
//! `GET /debug/slow`, and the solver-telemetry series on `/metrics`,
//! all driven over real TCP against a running daemon.
//!
//! The GMRES telemetry registry is process-global (that is the point:
//! CLI, batch, and serve paths share it), so every test in this file
//! takes [`guard`] — tests that assert counter deltas must not interleave
//! with tests that solve concurrently.

use bepi_core::prelude::*;
use bepi_server::{parse_metric, Server, ServerConfig, ServerHandle};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn solver() -> Arc<BePi> {
    static SOLVER: OnceLock<Arc<BePi>> = OnceLock::new();
    Arc::clone(SOLVER.get_or_init(|| {
        let g =
            bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 17)
                .unwrap();
        Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap())
    }))
}

/// Serializes the tests in this binary: the solver-telemetry registry is
/// shared process state, so counter-delta assertions need exclusivity.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A config that records every query in the slow log (threshold 0).
fn record_everything() -> ServerConfig {
    ServerConfig {
        slow_query: Duration::ZERO,
        ..ServerConfig::default()
    }
}

fn start(config: &ServerConfig) -> ServerHandle {
    Server::start(solver(), config).expect("server must bind an ephemeral port")
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
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
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, body.to_string())
}

/// Pulls an integer field like `"solve_us":123` out of a flat JSON chunk.
fn json_u64(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let start = body.find(&needle).unwrap_or_else(|| {
        panic!("field {field:?} missing from {body}");
    }) + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("numeric field")
}

/// Every `"seed":N` value in the body, in order of appearance.
fn seeds_in_order(body: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(pos) = rest.find("\"seed\":") {
        rest = &rest[pos + "\"seed\":".len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        out.push(digits.parse().expect("numeric seed"));
    }
    out
}

#[test]
fn trace_breakdown_stages_sum_to_at_most_total() {
    let _guard = guard();
    let handle = start(&record_everything());
    let addr = handle.local_addr();

    // Cache miss: the solve stage must dominate and every stage is
    // accounted for inside the total.
    let (status, body) = get(addr, "/query?seed=5&trace=1");
    assert_eq!(status, 200);
    assert!(body.contains("\"trace\":{"), "no trace block in {body}");
    let queue = json_u64(&body, "queue_us");
    let solve = json_u64(&body, "solve_us");
    let topk = json_u64(&body, "topk_us");
    let serialize = json_u64(&body, "serialize_us");
    let total = json_u64(&body, "total_us");
    assert!(solve > 0, "a real solve takes measurable time");
    assert!(
        queue + solve + topk + serialize <= total,
        "stages ({queue} + {solve} + {topk} + {serialize}) exceed total {total}"
    );
    // The unattributed remainder (parse + dispatch + cache probe) must be
    // small relative to the work: the named stages cover the latency.
    let stages = queue + solve + topk + serialize;
    assert!(
        (total - stages) < 50_000,
        "unattributed overhead {} us is implausibly large",
        total - stages
    );

    // Cache hit: same key (trace is not part of the cache key), so the
    // solve/top-k/serialize stages are all zero.
    let (status, body) = get(addr, "/query?seed=5&trace=1");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "solve_us"), 0);
    assert_eq!(json_u64(&body, "topk_us"), 0);
    assert_eq!(json_u64(&body, "serialize_us"), 0);
    assert!(json_u64(&body, "total_us") >= json_u64(&body, "queue_us"));

    // Without the flag the body carries no trace block.
    let (_, body) = get(addr, "/query?seed=5");
    assert!(!body.contains("\"trace\""));

    handle.shutdown();
}

#[test]
fn debug_slow_retains_newest_entries_in_order() {
    let _guard = guard();
    let handle = start(&record_everything());
    let addr = handle.local_addr();

    // Four more sequential queries than the ring holds: it keeps the
    // newest `capacity`, newest first.
    let (_, body) = get(addr, "/debug/slow");
    let capacity = json_u64(&body, "capacity");
    assert!(body.starts_with("{\"threshold_us\":0,\"capacity\":"));
    for seed in 0..capacity + 4 {
        let (status, _) = get(addr, &format!("/query?seed={seed}"));
        assert_eq!(status, 200);
    }
    let (status, body) = get(addr, "/debug/slow");
    assert_eq!(status, 200);
    let newest_first: Vec<u64> = (4..capacity + 4).rev().collect();
    assert_eq!(seeds_in_order(&body), newest_first);
    // Misses carry their solver stats.
    assert!(json_u64(&body, "iterations") > 0);
    assert!(body.contains("\"cache_hit\":false"));

    // A repeat of the newest seed is a cache hit and is recorded as one.
    let (status, _) = get(addr, &format!("/query?seed={}", capacity + 3));
    assert_eq!(status, 200);
    let (_, body) = get(addr, "/debug/slow");
    let seeds = seeds_in_order(&body);
    assert_eq!(
        seeds[..4],
        [capacity + 3, capacity + 3, capacity + 2, capacity + 1]
    );
    assert_eq!(seeds.len() as u64, capacity);
    assert!(body.contains("\"cache_hit\":true"));

    handle.shutdown();
}

#[test]
fn high_threshold_slow_log_stays_empty() {
    let _guard = guard();
    let handle = start(&ServerConfig {
        slow_query: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    for seed in 0..4 {
        get(addr, &format!("/query?seed={seed}"));
    }
    let (_, body) = get(addr, "/debug/slow");
    assert!(body.ends_with("\"entries\":[]}"), "{body}");
    handle.shutdown();
}

#[test]
fn gmres_iteration_count_increases_only_on_cache_misses() {
    let _guard = guard();
    let handle = start(&record_everything());
    let addr = handle.local_addr();
    let count = |addr| {
        let (_, body) = get(addr, "/metrics");
        parse_metric(&body, "bepi_gmres_iterations_count").expect("gmres histogram on /metrics")
    };

    let before = count(addr);
    let (status, _) = get(addr, "/query?seed=11");
    assert_eq!(status, 200);
    let after_miss = count(addr);
    assert_eq!(after_miss, before + 1.0, "a miss solves exactly once");

    for _ in 0..5 {
        let (status, _) = get(addr, "/query?seed=11");
        assert_eq!(status, 200);
    }
    assert_eq!(count(addr), after_miss, "hits must not touch the solver");

    let (status, _) = get(addr, "/query?seed=12");
    assert_eq!(status, 200);
    assert_eq!(count(addr), after_miss + 1.0);

    handle.shutdown();
}

#[test]
fn concurrent_hammer_while_scraping_metrics_and_slow_log() {
    let _guard = guard();
    let handle = start(&record_everything());
    let addr = handle.local_addr();
    let n = solver().node_count();

    let clients: Vec<_> = (0..4)
        .map(|worker: usize| {
            std::thread::spawn(move || {
                for i in 0..50 {
                    let seed = (worker * 50 + i * 13) % n;
                    let target = if i % 2 == 0 {
                        format!("/query?seed={seed}&trace=1")
                    } else {
                        format!("/query?seed={seed}")
                    };
                    let (status, body) = get(addr, &target);
                    assert_eq!(status, 200, "{target}");
                    assert_eq!(body.contains("\"trace\":{"), i % 2 == 0, "{target}");
                }
            })
        })
        .collect();

    // Scrape both observability endpoints continuously while the clients
    // hammer /query: the exposition must stay well-formed and the slow
    // log must never serve a torn record (the seqlock skips those).
    let mut scrapes = 0;
    while clients.iter().any(|c| !c.is_finished()) || scrapes < 5 {
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        for line in metrics.lines().filter(|l| l.contains("le=\"")) {
            let le_start = line.find("le=\"").unwrap() + 4;
            let le = &line[le_start..le_start + line[le_start..].find('"').unwrap()];
            assert!(
                le == "+Inf" || (!le.contains(['e', 'E']) && le.parse::<f64>().is_ok()),
                "non-decimal le label under load: {line}"
            );
        }
        let (status, slow) = get(addr, "/debug/slow");
        assert_eq!(status, 200);
        assert!(slow.starts_with('{') && slow.ends_with("]}"), "{slow}");
        for seed in seeds_in_order(&slow) {
            assert!((seed as usize) < n, "torn slow-log record: seed {seed}");
        }
        scrapes += 1;
    }
    for c in clients {
        c.join().expect("client thread");
    }

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(
        parse_metric(&metrics, "bepi_queries_total").unwrap(),
        200.0,
        "every hammered request was answered"
    );
    assert!(parse_metric(&metrics, "bepi_gmres_iterations_count").unwrap() > 0.0);
    assert!(parse_metric(&metrics, "bepi_inflight_requests").is_some());
    assert!(parse_metric(&metrics, "bepi_queue_depth").is_some());
    handle.shutdown();
}

/// The README's `/metrics` glossary names every family a daemon renders:
/// the full exposition of a frozen daemon (request counters, the live
/// block, the solver, WAL and phase instruments) is checked against the
/// table, so a new family cannot ship undocumented.
#[test]
fn metrics_glossary_lists_every_family() {
    let _guard = guard();
    let handle = start(&ServerConfig::default());
    let addr = handle.local_addr();
    assert_eq!(get(addr, "/query?seed=3").0, 200);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    handle.shutdown();

    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../README.md"))
        .expect("read README.md");
    let table: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("`/metrics` glossary"))
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(table.len() > 2, "glossary table not found in README.md");
    let families: Vec<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(families.contains(&"bepi_phase_seconds_total"), "{metrics}");
    let missing: Vec<&str> = families
        .into_iter()
        .filter(|name| {
            let (plain, labelled) = (format!("`{name}`"), format!("`{name}{{"));
            !table
                .iter()
                .any(|row| row.contains(&plain) || row.contains(&labelled))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "families missing from the README /metrics glossary: {missing:?}"
    );
}
