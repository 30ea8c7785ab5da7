//! The daemon's `catch_unwind` around one request, driven by a real
//! panic.
//!
//! A mapped index whose first `s.indices16` entry names a column past
//! `n2` passes `load_mapped_file`'s O(1) checks by design, so the first
//! solve over it indexes out of bounds and panics inside the daemon: on a
//! pool worker for a fresh connection, on a `bepi-keepalive` thread for a
//! kept-alive one. Either way the panic must cost one `500` answer (with
//! the request's id) and one `5xx` count, never the connection, a
//! worker, a keep-alive slot or the process.
//!
//! Debug builds `debug_assert` the pattern at load, so these tests only
//! exist in release codegen (`cargo test --release`).

#![cfg(not(debug_assertions))]

use bepi_core::persist;
use bepi_core::prelude::*;
use bepi_map::sections::S_INDICES16;
use bepi_map::MappedIndex;
use bepi_server::{Metrics, Server, ServerConfig, ServerHandle};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serves, in-process, a mapped index with one out-of-range column in
/// `S`. `name` keeps the files of concurrent tests apart.
fn serve_crafted_index(name: &str) -> (ServerHandle, PathBuf) {
    let g = bepi_graph::generators::rmat(7, 500, bepi_graph::generators::RmatParams::default(), 61)
        .unwrap();
    let bepi = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
    let path = std::env::temp_dir().join(format!("bepi_{name}_{}.bepi", std::process::id()));
    persist::save_file_v6(&bepi, None, &path).unwrap();
    let offset = MappedIndex::open(&path)
        .unwrap()
        .entries()
        .iter()
        .find(|e| e.id == S_INDICES16)
        .expect("S is stored narrow")
        .offset as usize;
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[offset..offset + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let (mapped, _) = persist::load_mapped_file(&path).expect("O(1) checks pass");
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    (Server::start(Arc::new(mapped), &config).unwrap(), path)
}

/// The request id the tests send with every request.
const RID: &str = "00112233445566778899aabbccddeeff";

/// Sends one request and reads one response (head and `Content-Length`
/// body). `None` when the daemon closed the socket instead of answering.
fn exchange(stream: &mut TcpStream, target: &str, keep_alive: bool) -> Option<(String, String)> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "GET {target} HTTP/1.1\r\nHost: t\r\nX-Request-Id: {RID}\r\nConnection: \
         {connection}\r\n\r\n"
    );
    stream.write_all(request.as_bytes()).ok()?;
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    let mut body = vec![0; length];
    reader.read_exact(&mut body).ok()?;
    Some((head, String::from_utf8(body).unwrap()))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Asserts that `response` is the `500` a panicking request gets,
/// carrying the request's id.
fn assert_panic_answer(response: Option<(String, String)>) {
    let (head, body) = response.expect("a panicking request is answered");
    assert!(head.starts_with("HTTP/1.1 500"), "{head}");
    assert!(head.contains(&format!("X-Request-Id: {RID}")), "{head}");
    assert!(body.contains("internal error"), "{body}");
}

/// Waits until `done` holds.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn panicking_solve_on_a_pool_worker_is_contained() {
    let (handle, path) = serve_crafted_index("pool_panic");
    let addr = handle.local_addr();
    let metrics = handle.metrics();
    let errors = || Metrics::get(&metrics.server_errors_total);
    assert_eq!(errors(), 0);

    assert_panic_answer(exchange(&mut connect(addr), "/query?seed=0", false));
    wait_for("the panic to be counted", || errors() == 1);
    wait_for("the worker to leave the request", || {
        Metrics::get(&metrics.in_flight) == 0
    });

    let (head, body) = exchange(&mut connect(addr), "/healthz", false).expect("healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    // The one worker survived: a second panic is answered and counted
    // just the same.
    assert_panic_answer(exchange(&mut connect(addr), "/query?seed=1", false));
    wait_for("the second panic to be counted", || errors() == 2);
    handle.shutdown();
    std::fs::remove_file(path).ok();
}

#[test]
fn panicking_keepalive_requests_release_their_slots() {
    let (handle, path) = serve_crafted_index("keepalive_panic");
    let addr = handle.local_addr();
    let metrics = handle.metrics();
    // One worker thread caps persistent connections at
    // `(4 * threads).clamp(8, 64)` = 8. If a panicking keep-alive thread
    // kept its slot, the ninth connection would find every slot taken.
    let keepalive_cap = 8;
    for i in 1..=keepalive_cap + 1 {
        let mut stream = connect(addr);
        let (head, _) = exchange(&mut stream, "/healthz", true).expect("healthz");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // The socket now belongs to a keep-alive thread, whose request
        // panics; the connection survives it and answers the next one.
        let answer = exchange(&mut stream, "/query?seed=0", true);
        assert!(answer
            .as_ref()
            .is_some_and(|(h, _)| h.contains("keep-alive")));
        assert_panic_answer(answer);
        let (head, body) = exchange(&mut stream, "/healthz", false).expect("healthz after");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        wait_for("the keep-alive panic to be counted", || {
            Metrics::get(&metrics.server_errors_total) == i
        });
    }

    // A fresh socket still gets a slot: its second request is answered
    // on the same connection.
    let mut stream = connect(addr);
    for _ in 0..2 {
        let (head, body) = exchange(&mut stream, "/healthz", true).expect("healthz");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(body, "ok\n");
    }
    wait_for("the pool worker to go idle", || {
        Metrics::get(&metrics.in_flight) == 0
    });
    handle.shutdown();
    std::fs::remove_file(path).ok();
}
