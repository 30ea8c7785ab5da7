//! The open-loop scheduler against a stub listener that stalls: the stall
//! must show in latency measured from the *due* instant and in the
//! generator's reported lateness — the two things a closed-loop harness
//! hides.

use bepi_benchmark::http;
use bepi_benchmark::openloop::{check_threads, run_closed_loop, run_open_loop};
use bepi_benchmark::stats;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

const STALL: Duration = Duration::from_millis(200);
const STALLED_REQUEST: usize = 5;
const REQUESTS: usize = 20;

/// Serves `REQUESTS` connections one at a time, each `200 OK`; the
/// `STALLED_REQUEST`-th (0-based) waits `STALL` first.
fn stub_listener() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        for served in 0..REQUESTS {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 2 {
                line.clear();
            }
            if served == STALLED_REQUEST {
                std::thread::sleep(STALL);
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
                .unwrap();
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_shows_in_latency_from_due_time_and_in_generator_lateness() {
    let (addr, server) = stub_listener();
    // One request every 10 ms, one sender: while the stub stalls, the
    // following sends are held back and go out late.
    let due: Vec<Duration> = (0..REQUESTS)
        .map(|i| Duration::from_millis(10 * i as u64))
        .collect();
    let outcomes = run_open_loop(&due, 1, |_| http::get(addr, "/x")).unwrap();
    server.join().unwrap();

    assert_eq!(outcomes.len(), REQUESTS);
    assert!(outcomes
        .iter()
        .all(|o| o.result.as_ref().unwrap().status == 200));
    // Before the stall everything is prompt.
    assert!(outcomes[..STALLED_REQUEST]
        .iter()
        .all(|o| o.latency() < Duration::from_millis(50)));
    // The stalled request itself.
    assert!(outcomes[STALLED_REQUEST].latency() >= STALL);
    // The next one was due 10 ms later but could only be sent after the
    // stall: service time alone would call it fast, latency from the due
    // instant does not.
    let next = &outcomes[STALLED_REQUEST + 1];
    assert!(
        next.lateness() >= STALL - Duration::from_millis(30),
        "{:?}",
        next.lateness()
    );
    assert!(next.latency() >= STALL - Duration::from_millis(30));
    assert!(
        next.done - next.sent < Duration::from_millis(50),
        "service time stayed small"
    );
    // ... and the benchmark's own validity metric reports it.
    let lateness_us: Vec<f64> = outcomes
        .iter()
        .map(|o| o.lateness().as_secs_f64() * 1e6)
        .collect();
    let p95 = stats::percentile(&stats::sorted(lateness_us), 0.95);
    assert!(p95 >= 100_000.0, "bench.gen_late_p95_us would read {p95}");
}

#[test]
fn more_load_threads_than_cores_are_refused_not_clamped() {
    let nproc = std::thread::available_parallelism().unwrap().get();
    assert!(check_threads(nproc).is_ok());
    assert!(check_threads(nproc + 1).is_err());
    assert!(check_threads(0).is_err());
    assert!(run_open_loop(&[Duration::ZERO], nproc + 1, |_| ()).is_err());
    assert!(run_closed_loop(nproc + 1, Duration::from_millis(1), |_, _| ()).is_err());
}

#[test]
fn closed_loop_callers_run_back_to_back_for_the_window() {
    let (results, elapsed) = run_closed_loop(1, Duration::from_millis(50), |caller, i| {
        std::thread::sleep(Duration::from_millis(5));
        (caller, i)
    })
    .unwrap();
    assert!(elapsed >= Duration::from_millis(50));
    assert!(
        results.len() >= 5 && results.len() <= 11,
        "{}",
        results.len()
    );
    assert_eq!(results[0], (0, 0));
    assert!(results.windows(2).all(|w| w[1].1 == w[0].1 + 1));
}
