//! # bepi-server
//!
//! A long-running RWR query daemon over a preprocessed BePI index.
//!
//! The paper's economics argument (Section 2.3) — preprocess once, answer
//! many queries — only pays off when one preprocessed instance stays
//! resident and is shared across queries. This crate is that serving
//! layer: a std-only HTTP/1.1 server (`std::net::TcpListener`, no
//! protocol crates) with
//!
//! * a fixed worker pool sharing one read-only [`Arc<BePi>`],
//! * a bounded admission queue, plus a degraded overflow lane: when the
//!   main queue is full, connections route to a dedicated worker that
//!   answers `mode=auto` / `mode=approx` queries from the deterministic
//!   TPA engine (`bepi-walk`, responses tagged `X-Approx: 1`) and sheds
//!   everything else with `503 Retry-After`,
//! * a per-request deadline stamped at admission (queue wait counts),
//! * a sharded LRU cache over rendered responses keyed
//!   `(seed, top_k, graph_version, exact|approx)`, so hot seeds skip
//!   the solve entirely, hot-swaps can never serve stale bodies, and
//!   exact/approximate answers never cross lanes,
//! * `GET /query?seed=S&top=K&mode=exact|approx|auto`, `GET /healthz`,
//!   `GET /metrics` (Prometheus text format),
//! * live updates via `bepi_live::LiveEngine` ([`Server::start_live`]):
//!   `POST /edges` (JSON-lines batch), `POST /rebuild` (force flush),
//!   `GET /version`, with every `/query` response stamped
//!   `X-Graph-Version`,
//! * one observability plumbing: `GET /metrics` is written by
//!   `bepi_obs`'s one exposition writer from [`Metrics`], one
//!   [`bepi_live::LiveStatus`] snapshot (which `GET /version` renders
//!   too) and the process-global solver, WAL and phase instruments;
//!   every answered `/query` becomes one [`QueryRecord`], kept by the
//!   slow-query ring (`GET /debug/slow`, threshold `slow_query`) and,
//!   for `?trace=1`, by the trace ring (`GET /debug/trace`, threshold
//!   zero), both a [`QueryLog`], and
//! * graceful shutdown that drains queued and in-flight queries, then
//!   the background rebuild worker.
//!
//! ```no_run
//! use bepi_core::prelude::*;
//! use bepi_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let g = bepi_graph::generators::example_graph();
//! let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
//! let handle = Server::start(bepi, &ServerConfig::default()).unwrap();
//! println!("listening on http://{}", handle.local_addr());
//! handle.join(); // blocks until a ShutdownTrigger fires
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod shutdown;
pub mod trace;
pub mod worker;

pub use cache::{QueryKey, ResponseCache, ResponseMode};
pub use metrics::{parse_metric, render_live_metrics, render_obs_metrics, Metrics};
pub use trace::{QueryLog, QueryRecord};

use crate::queue::{bounded, PushError};
use crate::shutdown::Shutdown;
use crate::worker::{Job, WorkerContext};
use bepi_core::BePi;
use bepi_live::LiveEngine;
use bepi_obs::trace::{TraceEvent, TraceExporter};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Entries retained by the slow-query log ring (`GET /debug/slow`).
const SLOW_LOG_ENTRIES: usize = 64;

/// Entries retained by the traced-request ring (`GET /debug/trace`).
const TRACE_ENTRIES: usize = 64;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7462`. Port `0` binds ephemeral
    /// (the bound address is reported by [`ServerHandle::local_addr`]).
    pub listen: String,
    /// Worker threads answering queries. `0` means "available
    /// parallelism" as reported by the OS.
    pub threads: usize,
    /// Total entries in the sharded response LRU. `0` disables caching.
    pub cache_entries: usize,
    /// Bounded admission-queue depth; connections beyond it get `503`.
    pub queue_depth: usize,
    /// Per-request deadline, stamped at admission.
    pub timeout: Duration,
    /// Queries whose end-to-end latency meets this threshold land in the
    /// slow-query log (`GET /debug/slow`). `Duration::ZERO` records every
    /// query.
    pub slow_query: Duration,
    /// Fraction of `queue_depth` at which `mode=auto` queries start
    /// routing to the approximate lane (graceful degradation kicks in
    /// *before* the queue is full and connections start overflowing).
    /// `0.0` serves every `auto` query approximately — a deterministic
    /// hook for tests and drills; values ≥ 1.0 degrade only via the
    /// overflow lane.
    pub pressure: f64,
    /// When set, every `?trace=1` query is appended to this file as
    /// Chrome trace-event JSON (load it in `chrome://tracing` or
    /// Perfetto). `None` (the default) disables the export; untraced
    /// queries never touch it either way.
    pub trace_export: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            threads: 0,
            cache_entries: 4096,
            queue_depth: 128,
            timeout: Duration::from_secs(10),
            slow_query: Duration::from_millis(100),
            pressure: 0.75,
            trace_export: None,
        }
    }
}

impl ServerConfig {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }

    /// Main-queue depth at which `mode=auto` routes approximate:
    /// `ceil(pressure × queue_depth)`. Zero (or negative) means "always
    /// pressured"; `+inf` saturates to "never" (the cast saturates at
    /// `u64::MAX`, a depth the gauge cannot reach).
    fn pressure_slots(&self) -> u64 {
        let p = if self.pressure.is_nan() {
            0.75
        } else {
            self.pressure
        };
        if p <= 0.0 {
            return 0;
        }
        (p * self.queue_depth as f64).ceil() as u64
    }
}

/// The daemon. Constructed via [`Server::start`]; all state lives in the
/// returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `config.listen`, spawns the acceptor and the worker pool,
    /// and returns immediately. The index is served as a frozen snapshot:
    /// `/query` works, the live-update endpoints reject with an
    /// explanatory error.
    pub fn start(bepi: Arc<BePi>, config: &ServerConfig) -> std::io::Result<ServerHandle> {
        Self::start_live(LiveEngine::frozen(bepi), config)
    }

    /// Binds `config.listen` and serves the given live engine: `/query`
    /// answers from its current snapshot, `POST /edges` / `POST /rebuild`
    /// feed its WAL and background rebuild worker.
    pub fn start_live(
        engine: Arc<LiveEngine>,
        config: &ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let threads = config.effective_threads();
        let metrics = Arc::new(Metrics::default());
        let cache = Arc::new(ResponseCache::new(
            config.cache_entries,
            threads.next_power_of_two().min(16),
        ));
        let shutdown = Shutdown::new(addr);
        let (tx, rx) = bounded::<Job>(config.queue_depth);
        // Overflow lane: connections the main queue cannot absorb are
        // re-tagged degraded and parked here for the dedicated degraded
        // worker, which answers only approximate-eligible `/query`s.
        let (degraded_tx, degraded_rx) = bounded::<Job>(config.queue_depth.max(1));

        let slow_log = QueryLog::new(SLOW_LOG_ENTRIES, config.slow_query);
        let trace_log = QueryLog::new(TRACE_ENTRIES, Duration::ZERO);
        let exporter = match &config.trace_export {
            Some(path) => {
                let exporter = TraceExporter::create(path, "bepi-server")?;
                export_preprocess_phases(&exporter);
                Some(Arc::new(exporter))
            }
            None => None,
        };
        let ctx = Arc::new(WorkerContext {
            engine: Arc::clone(&engine),
            cache: Arc::clone(&cache),
            metrics: Arc::clone(&metrics),
            slow_log,
            trace_log,
            exporter: exporter.clone(),
            pressure_slots: config.pressure_slots(),
            timeout: config.timeout,
            shutdown: Arc::clone(&shutdown),
            keepalive_threads: std::sync::atomic::AtomicUsize::new(0),
            // Enough headroom for pooled clients (a few sockets each)
            // without letting a misbehaving client turn persistent
            // connections into an unbounded thread fleet.
            keepalive_cap: (4 * threads).clamp(8, 64),
        });
        let mut workers: Vec<JoinHandle<()>> = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("bepi-worker-{i}"))
                    .spawn(move || worker::worker_loop(rx, ctx))
            })
            .collect::<std::io::Result<_>>()?;
        drop(rx);
        // One worker is enough for the overflow lane: the approximate
        // engines it runs are orders of magnitude cheaper than the exact
        // solve, and a saturated daemon should spend its cores on the
        // queries it already admitted.
        workers.push({
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("bepi-degraded".to_string())
                .spawn(move || worker::worker_loop(degraded_rx, ctx))?
        });

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("bepi-acceptor".to_string())
                .spawn(move || accept_loop(listener, tx, degraded_tx, shutdown, metrics))?
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            acceptor,
            workers,
            metrics,
            engine,
            exporter,
        })
    }
}

/// Replays the phase accumulators recorded so far (index load, LU
/// factorization, reordering, …) into the trace file as back-to-back
/// spans on a dedicated lane, so a serve-path trace also shows what
/// startup cost. Accumulators lose per-span timestamps, so the spans are
/// laid out sequentially ending at "now".
fn export_preprocess_phases(exporter: &TraceExporter) {
    let phases = bepi_obs::snapshot();
    let total_us: u64 = phases.iter().map(|p| p.total.as_micros() as u64).sum();
    let mut cursor = bepi_obs::clock_us().saturating_sub(total_us);
    for p in &phases {
        let us = p.total.as_micros() as u64;
        if us == 0 {
            continue;
        }
        let count = p.count.to_string();
        exporter.emit(&TraceEvent {
            name: &p.name,
            cat: "preprocess",
            ts_us: cursor,
            dur_us: us,
            tid: 0,
            args: &[("spans", &count)],
        });
        cursor += us;
    }
}

/// Admission: accept, stamp the admission time, try to enqueue. When the main
/// queue is full the connection is re-tagged [`worker::Lane::Degraded`]
/// and offered to the overflow lane (whose worker serves only
/// approximate-eligible `/query`s); only when that lane is also full is
/// the connection shed with `503`. Exits (dropping both queue senders,
/// which lets the workers drain and stop) once shutdown is requested.
fn accept_loop(
    listener: TcpListener,
    tx: queue::Producer<Job>,
    degraded_tx: queue::Producer<Job>,
    shutdown: Arc<Shutdown>,
    metrics: Arc<Metrics>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.is_requested() {
                    break;
                }
                continue;
            }
        };
        // Request/response over small messages: never trade latency for
        // segment coalescing (Nagle + delayed ACK stalls keep-alive
        // connections by tens of milliseconds).
        stream.set_nodelay(true).ok();
        if shutdown.is_requested() {
            // The wake connection (or a straggler racing it) is dropped
            // unanswered; admission is closed.
            break;
        }
        Metrics::inc(&metrics.connections_total);
        let job = Job {
            stream,
            accepted_at: Instant::now(),
            lane: worker::Lane::Normal,
        };
        // Incremented before the push so a worker's decrement can never
        // observe the gauge at zero and wrap; shed paths undo it. The
        // gauge tracks the *main* queue only — degraded admissions have
        // their own counter.
        metrics
            .queue_depth
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match tx.try_push(job) {
            Ok(()) => {}
            Err(PushError::Full(mut job)) => {
                metrics
                    .queue_depth
                    .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                job.lane = worker::Lane::Degraded;
                match degraded_tx.try_push(job) {
                    Ok(()) => Metrics::inc(&metrics.degraded_total),
                    Err(PushError::Full(job) | PushError::Closed(job)) => {
                        worker::shed_connection(job.stream, &metrics);
                    }
                }
            }
            Err(PushError::Closed(_)) => {
                metrics
                    .queue_depth
                    .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                break;
            }
        }
    }
    // Dropping `tx` and `degraded_tx` closes both queues: workers finish
    // everything already admitted, then exit — the graceful drain.
}

/// A handle on a running server: its bound address, metrics, and the
/// means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    engine: Arc<LiveEngine>,
    exporter: Option<Arc<TraceExporter>>,
}

/// A cloneable trigger that requests graceful shutdown from any thread
/// (the daemon's SIGTERM-equivalent).
#[derive(Clone)]
pub struct ShutdownTrigger {
    shutdown: Arc<Shutdown>,
}

impl ShutdownTrigger {
    /// Requests shutdown: admission stops, queued and in-flight requests
    /// drain, workers exit.
    pub fn fire(&self) {
        self.shutdown.request();
    }
}

impl ServerHandle {
    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics, shared with the workers.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A trigger other threads can use to stop the server.
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// The live engine behind the daemon (frozen for static indexes).
    pub fn engine(&self) -> Arc<LiveEngine> {
        Arc::clone(&self.engine)
    }

    /// Blocks until the server has fully stopped (someone fired a
    /// [`ShutdownTrigger`]) and every queued request has been answered.
    /// The rebuild worker is drained last — a rebuild already in flight
    /// finishes (including its checkpoint) before this returns.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.engine.shutdown();
        // Terminate the trace-event array only after every worker has
        // drained — no event can race the closing bracket.
        if let Some(exporter) = &self.exporter {
            exporter.close();
        }
    }

    /// Graceful shutdown: stop admission, drain queued and in-flight
    /// requests, join all threads.
    pub fn shutdown(self) {
        self.shutdown.request();
        self.join();
    }
}
