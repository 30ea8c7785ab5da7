//! A panic inside `bepi serve` is answered and logged, not only printed
//! by Rust's default hook.
//!
//! The daemon serves a `--mmap` index whose first `s.indices16` entry
//! names a column past `n2`. The mapped open checks only the section
//! table and META, so the first solve over `S` indexes out of bounds and
//! panics on a pool worker. The worker catches it around the one request:
//! the client gets a `500` carrying its request id, and this test
//! requires one `bepi_obs` error line on stderr that names the request
//! id, the path and the thread and carries the panic message.
//!
//! Debug builds `debug_assert` the pattern at load, so this test only
//! exists in release codegen (`cargo test --release`).

#![cfg(not(debug_assertions))]

use bepi_map::sections::S_INDICES16;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_bepi");

#[test]
fn panicking_solve_is_logged_with_thread_and_message() {
    let dir = std::env::temp_dir().join(format!("bepi_serve_panic_log_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("edges.txt");
    let index = dir.join("index.bepi");
    let text: String = (0..120u32)
        .flat_map(|v| [(v, (v + 1) % 120), (v, (v * 7 + 3) % 120)])
        .map(|(u, v)| format!("{u} {v}\n"))
        .collect();
    std::fs::write(&edges, text).unwrap();
    let out = Command::new(BIN)
        .args([
            "preprocess",
            edges.to_str().unwrap(),
            index.to_str().unwrap(),
        ])
        .output()
        .expect("run bepi preprocess");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One out-of-range column in S: the section's CRC no longer matches,
    // which the mapped open does not check by design.
    let mut bytes = std::fs::read(&index).unwrap();
    let offset = bepi_map::parse_layout(&bytes)
        .unwrap()
        .into_iter()
        .find(|e| e.id == S_INDICES16)
        .expect("S is stored narrow")
        .offset as usize;
    bytes[offset..offset + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    std::fs::write(&index, bytes).unwrap();

    let stderr_path = dir.join("serve.err");
    let mut child = Command::new(BIN)
        .args([
            "serve",
            index.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--mmap",
            "--threads",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(std::fs::File::create(&stderr_path).unwrap()))
        .spawn()
        .expect("spawn bepi serve");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let rid = "0123456789abcdef0123456789abcdef";
    stream
        .write_all(
            format!(
                "GET /query?seed=0 HTTP/1.1\r\nHost: t\r\nX-Request-Id: {rid}\r\n\
                 Connection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 500"),
        "a panicking solve is answered with a 500: {response}"
    );
    assert!(
        response.contains(&format!("X-Request-Id: {rid}\r\n")),
        "{response}"
    );

    // stdin EOF is the daemon's graceful stop; it drains, then exits.
    drop(child.stdin.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exit: {status}");
    let stderr = std::fs::read_to_string(&stderr_path).unwrap();
    let logged = stderr
        .lines()
        .find(|l| l.contains("level=error target=server msg=\"panic while serving a request\""))
        .unwrap_or_else(|| panic!("no panic log line on stderr:\n{stderr}"));
    assert!(logged.contains(&format!(" request_id={rid} ")), "{logged}");
    assert!(logged.contains(" path=/query "), "{logged}");
    assert!(logged.contains(" thread=bepi-worker-0 "), "{logged}");
    assert!(logged.contains(" panic=\"index out of bounds"), "{logged}");
    std::fs::remove_dir_all(&dir).ok();
}
