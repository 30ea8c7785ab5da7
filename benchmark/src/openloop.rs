//! Open-loop and closed-loop load generation.
//!
//! An open loop sends on a schedule regardless of how the system is
//! doing (independent users); each operation is timed from the instant
//! it was *due*, so a stall that delays later sends is charged to them,
//! and how late the generator itself ran is reported beside the result.
//! A closed loop sends a caller's next request only after the previous
//! one completed (`sat_qps`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One executed operation of a schedule, in offsets from the run's start.
#[derive(Debug, Clone)]
pub struct Outcome<R> {
    /// Index into the plan.
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub result: R,
}

impl<R> Outcome<R> {
    /// Latency as an independent user saw it: from the due instant.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// More load threads than cores measures the scheduler, not the program:
/// such a request is refused, never clamped.
pub fn check_threads(threads: usize) -> Result<(), String> {
    let nproc = nproc();
    if threads == 0 || threads > nproc {
        return Err(format!(
            "{threads} load threads requested on a host with {nproc} cores; refusing"
        ));
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `plan` (ascending due offsets) on `threads` senders. A sender
/// takes the next unsent operation, sleeps until it is due, and executes
/// it; with every sender busy the next operation goes out late, and its
/// latency says so.
pub fn run_open_loop<R: Send>(
    due: &[Duration],
    threads: usize,
    exec: impl Fn(usize) -> R + Sync,
) -> Result<Vec<Outcome<R>>, String> {
    check_threads(threads)?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut outcomes: Vec<Outcome<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due.get(index) else {
                            return mine;
                        };
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let result = exec(index);
                        mine.push(Outcome {
                            index,
                            due,
                            sent,
                            done: start.elapsed(),
                            result,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.index);
    Ok(outcomes)
}

/// Runs `callers` closed loops for `window`; caller `c` executes
/// `exec(c, i)` for `i = 0, 1, …` back to back. Returns every result and
/// the wall time the phase really took.
pub fn run_closed_loop<R: Send>(
    callers: usize,
    window: Duration,
    exec: impl Fn(usize, usize) -> R + Sync,
) -> Result<(Vec<R>, Duration), String> {
    check_threads(callers)?;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                let (stop, exec) = (&stop, &exec);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut i = 0;
                    while !stop.load(Ordering::Relaxed) && start.elapsed() < window {
                        mine.push(exec(caller, i));
                        i += 1;
                    }
                    stop.store(true, Ordering::Relaxed);
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    Ok((results, start.elapsed()))
}
