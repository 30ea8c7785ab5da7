//! Cross-process mmap sharing: two `bepi serve --mmap` daemons over the
//! *same* v6 index must (a) serve bit-identical bytes and (b) actually
//! share the index pages through the page cache — which is the whole
//! premise of running several daemons on one host (N response caches,
//! one index in memory).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_bepi");
const N: usize = 80;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bepi_mmap_sharing_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn preprocess(dir: &Path) -> PathBuf {
    let edges: String = (0..N)
        .flat_map(|i| [(i, (i + 1) % N), (i, (i + 7) % N)])
        .map(|(u, v)| format!("{u} {v}\n"))
        .collect();
    let edges_path = dir.join("edges.txt");
    std::fs::write(&edges_path, edges).unwrap();
    let index = dir.join("graph.bepi");
    let out = Command::new(BIN)
        .args([
            "preprocess",
            edges_path.to_str().unwrap(),
            index.to_str().unwrap(),
            "--format",
            "v6",
            "--embed-graph",
        ])
        .output()
        .expect("run bepi preprocess");
    assert!(
        out.status.success(),
        "preprocess failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    index
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(index: &Path, name: &str) -> Self {
        let errlog =
            std::fs::File::create(index.parent().unwrap().join(format!("{name}.err"))).unwrap();
        let mut child = Command::new(BIN)
            .args([
                "serve",
                index.to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
                "--mmap",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(errlog))
            .spawn()
            .expect("spawn bepi serve daemon");
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

    fn get(&self, target: &str) -> (u16, Vec<(String, String)>, String) {
        let mut s = TcpStream::connect(&self.addr).expect("connect to daemon");
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf)
            .unwrap_or_else(|e| panic!("read response for {target} from {}: {e:?}", self.addr));
        let (head, body) = buf.split_once("\r\n\r\n").expect("header terminator");
        let mut lines = head.lines();
        let status = lines
            .next()
            .unwrap()
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
        (status, headers, body.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn two_mmap_daemons_over_one_index_serve_identical_bytes_and_share_pages() {
    let dir = temp_dir();
    let index = preprocess(&dir);
    let a = Daemon::spawn(&index, "daemon-a");
    let b = Daemon::spawn(&index, "daemon-b");
    // The two processes are told apart by the address each bound.
    assert_ne!(a.addr, b.addr, "two daemons cannot share one address");

    // (a) Bit-identity: every (seed, top) answer must match byte for
    // byte across the two processes — the mmap'd index is the same
    // bytes, so the responses must be too. So must every header but the
    // per-request correlation id.
    for seed in (0..N).step_by(7) {
        for top in [1, 5, 12] {
            let target = format!("/query?seed={seed}&top={top}");
            let (sa, ha, body_a) = a.get(&target);
            let (sb, hb, body_b) = b.get(&target);
            assert_eq!((sa, sb), (200, 200), "{target}");
            assert_eq!(body_a, body_b, "bodies must be bit-identical: {target}");
            let stable = |h: Vec<(String, String)>| {
                h.into_iter()
                    .filter(|(k, _)| k != "x-request-id")
                    .collect::<Vec<_>>()
            };
            assert_eq!(stable(ha), stable(hb), "headers must match: {target}");
        }
    }

    // (b) Page sharing: /proc/<pid>/smaps must show the index file
    // mapped into both processes, and the queries above touched those
    // pages in both, so the kernel accounts them as shared — Pss (the
    // proportional share) drops below Rss for the index mapping.
    // Graceful skip on kernels without /proc/<pid>/smaps.
    let index_name = index.file_name().unwrap().to_str().unwrap();
    let mut sharing_checked = false;
    for daemon in [&a, &b] {
        let smaps = match std::fs::read_to_string(format!("/proc/{}/smaps", daemon.child.id())) {
            Ok(s) => s,
            Err(_) => {
                eprintln!("skipping smaps check: /proc/<pid>/smaps unavailable");
                return;
            }
        };
        let (rss, pss) = index_mapping_stats(&smaps, index_name).unwrap_or_else(|| {
            panic!(
                "index {index_name} must be mapped in pid {}",
                daemon.child.id()
            )
        });
        assert!(rss > 0, "index mapping must be resident after queries");
        // Two processes touching the same file-backed pages: each one's
        // proportional share is strictly less than its resident size.
        if pss < rss {
            sharing_checked = true;
        }
    }
    assert!(
        sharing_checked,
        "at least one daemon must account the index pages as shared (Pss < Rss)"
    );
}

/// Sums `Rss:`/`Pss:` (in KiB) over every smaps mapping whose path line
/// mentions `file_name`.
fn index_mapping_stats(smaps: &str, file_name: &str) -> Option<(u64, u64)> {
    let mut in_index_mapping = false;
    let mut found = false;
    let (mut rss, mut pss) = (0u64, 0u64);
    for line in smaps.lines() {
        // Mapping header lines look like "7f.. r--s .. /path/graph.bepi";
        // stat lines look like "Rss:        128 kB".
        let is_header = line
            .split_whitespace()
            .next()
            .is_some_and(|tok| tok.contains('-') && tok.split('-').count() == 2);
        if is_header {
            in_index_mapping = line.contains(file_name);
            found |= in_index_mapping;
        } else if in_index_mapping {
            let parse = |prefix: &str| -> u64 {
                line.strip_prefix(prefix)
                    .and_then(|r| r.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            rss += parse("Rss:");
            pss += parse("Pss:");
        }
    }
    found.then_some((rss, pss))
}
