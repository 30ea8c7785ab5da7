//! Crash-recovery tests of the `bepi serve` daemon's WAL: SIGKILL the
//! process mid-stream, restart it on the same `--wal`, and require the
//! replayed state to serve byte-for-byte the same scores as a
//! from-scratch preprocess — plus the corruption path, which must fail
//! with a clean error, never an abort.

use bepi_core::prelude::*;
use bepi_core::{EdgeUpdate, RebuildKind};
use bepi_graph::Graph;
use bepi_server::worker::render_query_body;
use bepi_server::{QueryKey, ResponseMode};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_bepi");
const N: usize = 40;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bepi_live_recovery_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A directed cycle over `N` nodes, written as an edge list and returned
/// as a graph (the oracle for expected scores).
fn write_cycle(dir: &Path) -> (PathBuf, Graph) {
    let edges: Vec<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    let text: String = edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let path = dir.join("edges.txt");
    std::fs::write(&path, text).unwrap();
    (path, Graph::from_edges(N, &edges).unwrap())
}

/// `base` rebuilt over `graph` with `updates`, which must take the
/// numeric path; its scores are checked bit for bit against the
/// plan-frozen preprocess of the updated graph.
fn numeric_rebuild(base: &BePi, graph: &Graph, updates: &[EdgeUpdate]) -> BePi {
    let r = base.rebuild(graph, updates).unwrap();
    assert_eq!(r.kind, RebuildKind::Numeric, "{:?}", r.reason);
    let frozen =
        BePi::preprocess_with_plan(&r.graph, base.config(), &base.symbolic_plan()).unwrap();
    let bits = |b: &BePi| -> Vec<u64> {
        let scores = b.query(0).unwrap().scores;
        scores.iter().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&r.index), bits(&frozen));
    r.index
}

fn preprocess(edges: &Path, index: &Path) {
    let out = Command::new(BIN)
        .args([
            "preprocess",
            edges.to_str().unwrap(),
            index.to_str().unwrap(),
            "--embed-graph",
        ])
        .output()
        .expect("run bepi preprocess");
    assert!(
        out.status.success(),
        "preprocess failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A running daemon child whose stdin is held open (closing it triggers
/// graceful shutdown; `kill()` is the SIGKILL crash).
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(index: &Path, wal: &Path) -> Self {
        Self::spawn_with(index, wal, &[])
    }

    fn spawn_with(index: &Path, wal: &Path, extra: &[&str]) -> Self {
        let mut args = vec![
            "serve",
            index.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--wal",
            wal.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let mut child = Command::new(BIN)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn bepi serve daemon");
        // The daemon prints the bound address only after WAL replay (and
        // any recovery re-preprocessing) has finished.
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon exited before announcing its address")
                .expect("read daemon stdout");
            if let Some(rest) = line.split("http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address token")
                    .to_string();
            }
        };
        Daemon { child, addr }
    }

    fn request(&self, raw: &str) -> (u16, String) {
        let mut s = TcpStream::connect(&self.addr).expect("connect to daemon");
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).expect("read response");
        let status = buf
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let body = buf
            .split_once("\r\n\r\n")
            .expect("header terminator")
            .1
            .to_string();
        (status, body)
    }

    fn get(&self, target: &str) -> (u16, String) {
        self.request(&format!(
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        ))
    }

    fn post_edges(&self, body: &str) -> (u16, String) {
        self.request(&format!(
            "POST /edges HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ))
    }

    fn post_rebuild(&self) -> (u16, String) {
        self.request(
            "POST /rebuild HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// SIGKILL mid-stream: updates acknowledged before the kill must survive
/// into the restarted daemon, and a torn tail appended by the "crash"
/// must be tolerated. The restarted daemon's scores must be byte-for-byte
/// what a from-scratch preprocess of the updated graph produces.
#[test]
fn sigkill_and_restart_replays_acknowledged_updates() {
    let dir = temp_dir("sigkill");
    let (edges_path, graph) = write_cycle(&dir);
    let index = dir.join("index.bepi");
    let wal = dir.join("updates.wal");
    preprocess(&edges_path, &index);

    let updates = [EdgeUpdate::Insert(0, 20), EdgeUpdate::Insert(7, 33)];
    let daemon = Daemon::spawn(&index, &wal);
    let (status, body) = daemon
        .post_edges("{\"op\":\"insert\",\"u\":0,\"v\":20}\n{\"op\":\"insert\",\"u\":7,\"v\":33}\n");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"accepted\":2"), "{body}");

    // Crash hard: SIGKILL, no flush, no graceful anything...
    let mut daemon = daemon;
    daemon.child.kill().expect("SIGKILL the daemon");
    daemon.child.wait().expect("reap");
    // ...and mangle the tail like a crash mid-append would: a frame
    // header that claims more bytes than follow.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&170u32.to_le_bytes()).unwrap();
        f.write_all(&[7u8; 12]).unwrap();
    }

    let daemon2 = Daemon::spawn(&index, &wal);
    let (status, served) = daemon2.get("/query?seed=0&top=10");
    assert_eq!(status, 200, "{served}");

    // Oracle: rebuild the acknowledged updates through the function the
    // daemon's replay calls. The batch is numeric-only, so that is the
    // plan-frozen preprocess under the checkpoint's symbolic plan.
    // Preprocessing is deterministic, so the equality is exact.
    let base = BePi::preprocess(&graph, &BePiConfig::default()).unwrap();
    let rebuilt = numeric_rebuild(&base, &graph, &updates);
    let scores = rebuilt.query(0).unwrap();
    let expected = render_query_body(
        QueryKey {
            seed: 0,
            top_k: 10,
            version: 1,
            mode: ResponseMode::Exact,
        },
        &scores,
    );
    assert_eq!(served, expected, "replayed state must match byte-for-byte");

    drop(daemon2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A numeric-only rebuild's v6 checkpoint must round-trip the symbolic
/// plan: the checkpointed index was rebuilt under the *original*
/// preprocess's frozen plan, and a daemon restarted on that checkpoint
/// (WAL already compacted) must serve it byte-for-byte — proving the
/// plan survived the v6 sections and the restart paid no fresh
/// reordering that would have produced different bytes.
#[test]
fn numeric_checkpoint_round_trips_symbolic_plan_through_v6() {
    let dir = temp_dir("plan_roundtrip");
    let (edges_path, graph) = write_cycle(&dir);
    let index = dir.join("index.bepi");
    let wal = dir.join("updates.wal");
    preprocess(&edges_path, &index);

    // The daemon's frozen plan is the one the on-disk index carries —
    // identical to a deterministic in-process preprocess of the same
    // graph. This test is about the *numeric* path; the oracle fails
    // loudly if the batch ever starts classifying structural.
    let base = BePi::preprocess(&graph, &BePiConfig::default()).unwrap();
    let updates = [EdgeUpdate::Insert(0, 20), EdgeUpdate::Insert(7, 33)];
    let rebuilt = numeric_rebuild(&base, &graph, &updates);

    // First daemon: v6 (mmap) checkpoints; rebuild takes the numeric
    // path and checkpoints the rebuilt index over `index.bepi`.
    {
        let daemon = Daemon::spawn_with(&index, &wal, &["--mmap"]);
        let (status, body) = daemon.post_edges(
            "{\"op\":\"insert\",\"u\":0,\"v\":20}\n{\"op\":\"insert\",\"u\":7,\"v\":33}\n",
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = daemon.post_rebuild();
        assert_eq!(status, 200, "{body}");
        let (status, version) = daemon.get("/version");
        assert_eq!(status, 200, "{version}");
        assert!(
            version.contains("\"rebuild_kind\":\"numeric\""),
            "{version}"
        );
        assert!(
            version.contains("\"rebuild_trigger\":\"explicit\""),
            "{version}"
        );
    }

    // Restart on the checkpoint. The WAL was compacted when the
    // checkpoint became durable, so there is nothing to replay: what is
    // served IS the persisted rebuilt index.
    let daemon2 = Daemon::spawn_with(&index, &wal, &["--mmap"]);
    let (status, served) = daemon2.get("/query?seed=0&top=10");
    assert_eq!(status, 200, "{served}");

    // Oracle: the numeric rebuild is the plan-frozen preprocess, NOT a
    // fresh preprocess (whose SlashBurn would be free to reorder) — byte
    // equality here is exactly the plan round-tripping through the v6
    // sections.
    let scores = rebuilt.query(0).unwrap();
    let expected = render_query_body(
        QueryKey {
            seed: 0,
            top_k: 10,
            version: 1,
            mode: ResponseMode::Exact,
        },
        &scores,
    );
    assert_eq!(
        served, expected,
        "restart must serve the plan-frozen rebuilt index byte-for-byte"
    );

    drop(daemon2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL whose complete final segment has a corrupted CRC trailer is
/// genuine corruption: the daemon must refuse to start with a clean
/// error (non-zero exit, no abort/signal) that names the checksum.
#[test]
fn corrupted_wal_trailer_fails_cleanly_on_startup() {
    let dir = temp_dir("corrupt");
    let (edges_path, _) = write_cycle(&dir);
    let index = dir.join("index.bepi");
    let wal = dir.join("updates.wal");
    preprocess(&edges_path, &index);

    // Produce a WAL with one complete, valid segment...
    {
        let daemon = Daemon::spawn(&index, &wal);
        let (status, body) = daemon.post_edges("{\"op\":\"insert\",\"u\":1,\"v\":9}\n");
        assert_eq!(status, 200, "{body}");
    }
    // ...then flip a bit in its CRC trailer (the last 4 bytes).
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();

    let out = Command::new(BIN)
        .args([
            "serve",
            index.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--wal",
            wal.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .output()
        .expect("run daemon against corrupt WAL");
    assert!(!out.status.success(), "corrupt WAL must fail startup");
    assert!(
        out.status.code().is_some(),
        "must exit with an error code, not die on a signal/abort"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum mismatch"),
        "error must name the corruption, got: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
