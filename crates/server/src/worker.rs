//! Worker pool: request handling on top of the admission queue.
//!
//! Each worker owns nothing mutable — the served index snapshot, the
//! response cache, and the metrics are all shared read-only /
//! atomically, so the pool scales like `bepi_core::batch` does: the
//! query phase is embarrassingly parallel over a read-only index.
//!
//! Queries resolve the [`bepi_live::LiveEngine`]'s current snapshot
//! *once* per request and hold that `Arc` for the request's whole
//! lifetime: seed validation, the solve, the cache key, and the
//! `X-Graph-Version` response header all come from the same epoch even
//! if a rebuild hot-swaps the index mid-request.

use crate::cache::{QueryKey, ResponseCache, ResponseMode};
use crate::http::{self, ParseError, Request};
use crate::metrics::{render_live_metrics, render_obs_metrics, LiveMetricsSample, Metrics};
use crate::slowlog::{SlowQuery, SlowQueryLog};
use crate::trace::{TraceLog, TracedQuery};
use bepi_core::rwr::RwrSolver;
use bepi_core::EdgeUpdate;
use bepi_live::LiveEngine;
use bepi_obs::trace::{RequestId, TraceEvent, TraceExporter};
use bepi_sparse::SparseError;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default `top` when the query string omits it.
pub const DEFAULT_TOP_K: usize = 10;

/// Which admission lane a connection came through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The main bounded admission queue: full service.
    Normal,
    /// The degraded overflow lane: the main queue was full, so this
    /// connection gets only what the approximate engine can answer
    /// cheaply — `GET /query` with a mode that permits approximation.
    /// Everything else is shed exactly as if the overflow lane did not
    /// exist.
    Degraded,
}

/// One accepted connection waiting for service. The deadline is stamped
/// at *admission*, so time spent waiting in the queue counts against it.
pub struct Job {
    /// The accepted client connection.
    pub stream: TcpStream,
    /// Absolute deadline for finishing this request.
    pub deadline: Instant,
    /// When the connection was admitted — queue wait and the end-to-end
    /// latency reported by `?trace=1` and the slow-query log both start
    /// here.
    pub accepted_at: Instant,
    /// Which admission lane accepted the connection.
    pub lane: Lane,
}

/// Everything a worker needs, shared across the pool.
pub struct WorkerContext {
    /// The live engine holding the served snapshot (and, in live mode,
    /// the WAL + rebuild worker behind the admin endpoints).
    pub engine: Arc<LiveEngine>,
    /// Rendered-response LRU.
    pub cache: Arc<ResponseCache>,
    /// Exported counters.
    pub metrics: Arc<Metrics>,
    /// Ring buffer behind `GET /debug/slow`.
    pub slow_log: Arc<SlowQueryLog>,
    /// Main-queue depth at which `mode=auto` queries start routing to
    /// the approximate lane (`ceil(pressure × queue_depth)`). Zero means
    /// every `auto` query is served approximately when the engine
    /// exists — the deterministic hook CI uses.
    pub pressure_slots: u64,
    /// Per-request deadline budget; re-armed for every request served
    /// over one keep-alive connection.
    pub timeout: Duration,
    /// Graceful-shutdown flag: keep-alive connections are closed after
    /// the in-flight request once shutdown is requested, so persistent
    /// router connections cannot stall the drain.
    pub shutdown: Arc<crate::shutdown::Shutdown>,
    /// This daemon's shard id rendered for the `X-Shard` response
    /// header (`None` outside a sharded fleet). The `bepi route` front
    /// tier uses it to attribute responses to shard processes.
    pub shard: Option<String>,
    /// Numeric form of the shard id, stamped into slowlog and trace-ring
    /// records so fleet-wide correlation does not re-parse the header.
    pub shard_id: Option<u64>,
    /// Ring buffer behind `GET /debug/trace`: the most recent `?trace=1`
    /// queries with their per-stage timings.
    pub trace_log: Arc<TraceLog>,
    /// Chrome trace-event exporter (`--trace-export`); `None` disables
    /// export. Only traced (`?trace=1`) requests are exported, so the
    /// untraced hot path never touches the file.
    pub exporter: Option<Arc<TraceExporter>>,
    /// Live count of dedicated keep-alive connection threads, bounded
    /// by [`WorkerContext::keepalive_cap`].
    pub keepalive_threads: AtomicUsize,
    /// Maximum concurrent persistent connections. Beyond the cap a
    /// kept-alive connection is closed after its response — dropping an
    /// idle persistent socket is exactly what pooled clients recover
    /// from (they retry on a fresh connection).
    pub keepalive_cap: usize,
}

impl WorkerContext {
    /// The `X-Shard` header pair, when this daemon has a shard id.
    fn shard_header(&self) -> Option<(&'static str, &str)> {
        self.shard.as_deref().map(|s| ("X-Shard", s))
    }
}

/// Worker main loop: drains the admission queue until it is closed *and*
/// empty, which is exactly the graceful-shutdown drain semantics. Runs
/// both the normal pool and the degraded overflow worker (the job's
/// [`Lane`] carries the difference; the queue-depth gauge tracks the
/// main queue only).
pub fn worker_loop(rx: crate::queue::Consumer<Job>, ctx: Arc<WorkerContext>) {
    while let Some(job) = rx.pop() {
        if job.lane == Lane::Normal {
            ctx.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        ctx.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        // A panic while serving one connection must not kill the worker:
        // the stream is dropped (client sees a reset), the panic is
        // counted, and the loop continues.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_connection(job, &ctx);
        }));
        if result.is_err() {
            Metrics::inc(&ctx.metrics.server_errors_total);
        }
        ctx.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

fn remaining(deadline: Instant) -> Option<Duration> {
    let now = Instant::now();
    if now >= deadline {
        None
    } else {
        Some(deadline - now)
    }
}

/// What [`serve_one`] decided about the connection after one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// Drop the stream; the response (if any) said `Connection: close`.
    Close,
    /// The request opted into keep-alive and was answered with
    /// `Connection: keep-alive`; read the next request off the same
    /// stream with a fresh deadline.
    KeepAlive,
}

fn handle_connection(job: Job, ctx: &Arc<WorkerContext>) {
    let Job {
        stream,
        deadline,
        accepted_at,
        lane,
    } = job;
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    match serve_one(
        &stream,
        &mut reader,
        deadline,
        accepted_at,
        lane,
        false,
        ctx,
    ) {
        Served::Close => {}
        // Hand the persistent connection to a dedicated thread and
        // return this worker to the admission queue. A keep-alive
        // connection parked on a pool worker would starve fresh
        // connections outright: the pool is sized to CPU, persistent
        // connections are sized to clients, and one idle router socket
        // must never block admission (on a 1-core box the pool is a
        // single worker).
        Served::KeepAlive => persist_connection(stream, reader, lane, ctx),
    }
}

/// Moves a kept-alive connection onto a `bepi-keepalive` thread, bounded
/// by `ctx.keepalive_cap`. At the cap (or if the spawn fails) the stream
/// is simply dropped — legal for a server at any idle point, and pooled
/// clients retry on a fresh connection.
fn persist_connection(
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    lane: Lane,
    ctx: &Arc<WorkerContext>,
) {
    let mut current = ctx.keepalive_threads.load(Ordering::Relaxed);
    loop {
        if current >= ctx.keepalive_cap {
            return;
        }
        match ctx.keepalive_threads.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(now) => current = now,
        }
    }
    let thread_ctx = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name("bepi-keepalive".to_string())
        .spawn(move || {
            let ctx = thread_ctx;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                loop {
                    // Keep-alive connections must not stall the graceful
                    // drain: once shutdown is requested the connection is
                    // dropped after the in-flight request (a dropped idle
                    // connection is exactly what pooled clients handle).
                    if ctx.shutdown.is_requested() {
                        return;
                    }
                    // Each request on the connection gets a fresh budget;
                    // queue wait is zero because it never went through
                    // admission again.
                    let now = Instant::now();
                    let deadline = now + ctx.timeout;
                    match serve_one(&stream, &mut reader, deadline, now, lane, true, &ctx) {
                        Served::Close => return,
                        Served::KeepAlive => {}
                    }
                }
            }));
            if result.is_err() {
                Metrics::inc(&ctx.metrics.server_errors_total);
            }
            ctx.keepalive_threads.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        // The closure never ran, so its decrement never will: undo the
        // reservation here and let the stream drop (connection closes).
        ctx.keepalive_threads.fetch_sub(1, Ordering::AcqRel);
        bepi_obs::warn!(
            "server",
            "keep-alive thread spawn failed; closing connection"
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_one(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
    accepted_at: Instant,
    lane: Lane,
    subsequent: bool,
    ctx: &WorkerContext,
) -> Served {
    let started = Instant::now();

    // Deadline may already have expired while the job sat in the queue.
    let Some(budget) = remaining(deadline) else {
        Metrics::inc(&ctx.metrics.timeouts_total);
        respond(
            stream,
            504,
            "application/json",
            &[],
            &http::json_error_body("deadline expired while queued"),
        );
        return Served::Close;
    };
    // The socket timeouts enforce the remaining budget on slow clients.
    let _ = stream.set_read_timeout(Some(budget));
    let _ = stream.set_write_timeout(Some(budget.max(Duration::from_secs(1))));

    let request = match http::read_request(reader) {
        Ok(r) => r,
        // On a kept-alive connection, EOF or an idle timeout before the
        // next request is the *normal* end of the connection — not a
        // client error, not a server timeout.
        Err(ParseError::Io(_)) if subsequent => return Served::Close,
        Err(ParseError::Malformed(m)) if subsequent && m == "empty request" => {
            return Served::Close;
        }
        Err(ParseError::TooLarge) => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                431,
                "application/json",
                &[],
                &http::json_error_body("request head too large"),
            );
            return Served::Close;
        }
        Err(ParseError::BodyTooLarge) => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                413,
                "application/json",
                &[],
                &http::json_error_body("request body too large"),
            );
            return Served::Close;
        }
        Err(ParseError::Malformed(m)) => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                400,
                "application/json",
                &[],
                &http::json_error_body(&m),
            );
            return Served::Close;
        }
        Err(ParseError::Io(_)) => {
            // Client vanished or stalled past its budget; nothing to say.
            Metrics::inc(&ctx.metrics.timeouts_total);
            return Served::Close;
        }
    };
    Metrics::inc(&ctx.metrics.requests_total);

    // Keep-alive is honored only on the normal lane: the single degraded
    // worker must never be pinned to one persistent connection while the
    // daemon is saturated.
    let keep_alive = request.keep_alive && lane == Lane::Normal;

    // The degraded lane exists solely to keep `/query` answerable via the
    // approximate engine while the main queue is saturated. Anything else
    // is shed exactly as if the overflow lane were not there.
    if lane == Lane::Degraded
        && (request.method.as_str(), request.path.as_str()) != ("GET", "/query")
    {
        Metrics::inc(&ctx.metrics.rejected_total);
        respond(
            stream,
            503,
            "application/json",
            &[("Retry-After", "1")],
            &http::json_error_body("overloaded: only GET /query is served on the degraded lane"),
        );
        return Served::Close;
    }

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let mut headers: Vec<(&str, &str)> = Vec::new();
            headers.extend(ctx.shard_header());
            respond_conn(stream, 200, "text/plain", &headers, "ok\n", keep_alive);
            kept(keep_alive)
        }
        ("GET", "/metrics") => {
            let engine = &ctx.engine;
            let mut body = ctx.metrics.render();
            let snapshot = engine.current();
            body.push_str(&render_live_metrics(&LiveMetricsSample {
                version: snapshot.version,
                pending: engine.pending_len(),
                rebuilds: engine.rebuilds(),
                updates: engine.updates_accepted(),
                last_rebuild_seconds: engine.last_rebuild_micros() as f64 / 1e6,
                index_heap_bytes: snapshot.bepi.heap_bytes(),
                index_mapped_bytes: snapshot.bepi.mapped_bytes(),
                numeric_rebuilds: engine.numeric_rebuilds(),
                structural_rebuilds: engine.structural_rebuilds(),
                numeric_rebuild_seconds: engine.numeric_rebuild_seconds(),
                full_rebuild_seconds: engine.full_rebuild_seconds(),
            }));
            body.push_str(&render_obs_metrics());
            let mut headers: Vec<(&str, &str)> = Vec::new();
            headers.extend(ctx.shard_header());
            respond_conn(
                stream,
                200,
                "text/plain; version=0.0.4",
                &headers,
                &body,
                keep_alive,
            );
            kept(keep_alive)
        }
        ("GET", "/query") => handle_query(
            stream,
            &request,
            ctx,
            deadline,
            accepted_at,
            started,
            lane,
            keep_alive,
        ),
        ("GET", "/version") => handle_version(stream, ctx, keep_alive),
        ("GET", "/debug/slow") => {
            respond_conn(
                stream,
                200,
                "application/json",
                &[],
                &ctx.slow_log.render_json(),
                keep_alive,
            );
            kept(keep_alive)
        }
        ("GET", "/debug/trace") => {
            respond_conn(
                stream,
                200,
                "application/json",
                &[],
                &ctx.trace_log.render_json(),
                keep_alive,
            );
            kept(keep_alive)
        }
        ("POST", "/edges") => {
            handle_edges(stream, &request, ctx);
            Served::Close
        }
        ("POST", "/rebuild") => {
            handle_rebuild(stream, ctx);
            Served::Close
        }
        (_, "/healthz" | "/metrics" | "/query" | "/version" | "/debug/slow" | "/debug/trace") => {
            method_not_allowed(stream, ctx, "GET");
            Served::Close
        }
        (_, "/edges" | "/rebuild") => {
            method_not_allowed(stream, ctx, "POST");
            Served::Close
        }
        _ => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                404,
                "application/json",
                &[],
                &http::json_error_body(
                    "unknown path (try /query, /healthz, /metrics, /version, /debug/slow, \
                     /debug/trace, /edges, /rebuild)",
                ),
            );
            Served::Close
        }
    }
}

fn kept(keep_alive: bool) -> Served {
    if keep_alive {
        Served::KeepAlive
    } else {
        Served::Close
    }
}

fn method_not_allowed(stream: &TcpStream, ctx: &WorkerContext, allow: &str) {
    Metrics::inc(&ctx.metrics.client_errors_total);
    respond(
        stream,
        405,
        "application/json",
        &[("Allow", allow)],
        &http::json_error_body(&format!("only {allow} is supported on this path")),
    );
}

#[allow(clippy::too_many_arguments)]
fn handle_query(
    stream: &TcpStream,
    request: &Request,
    ctx: &WorkerContext,
    deadline: Instant,
    accepted_at: Instant,
    started: Instant,
    lane: Lane,
    keep_alive: bool,
) -> Served {
    // Queue wait: admission to worker pickup.
    let queue_wait = started.saturating_duration_since(accepted_at);
    let trace = request.params.get("trace").map(String::as_str) == Some("1");
    // Adopt the caller's correlation id (the router mints one at ingress
    // and propagates it on every attempt) or mint one here — a
    // standalone daemon IS the ingress. Echoed on the response, stamped
    // into the slowlog, and — for traced requests — the trace ring and
    // the Chrome export, so one grep follows the request everywhere.
    let rid = request
        .request_id
        .as_deref()
        .and_then(RequestId::parse)
        .unwrap_or_else(RequestId::mint);
    let rid_hex = rid.to_hex();
    // One snapshot for the whole request: validation, cache key, solve,
    // and the version header all agree even across a concurrent swap.
    let snapshot = ctx.engine.current();
    let version_header = snapshot.version.to_string();
    let parsed = match parse_query_params(request, snapshot.bepi.node_count()) {
        Ok(p) => p,
        Err(msg) => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                400,
                "application/json",
                &[],
                &http::json_error_body(&msg),
            );
            return Served::Close;
        }
    };

    // Resolve the requested mode against the lane, the current pressure,
    // and whether this snapshot has an approximate engine at all. The
    // cache key always carries the *resolved* mode, so `auto` shares
    // entries with whichever explicit lane it lands on.
    let approx_engine = snapshot.approx.as_deref();
    let mode = match parsed.mode {
        RequestMode::Exact => {
            if lane == Lane::Degraded {
                // Exact work is exactly what the saturated main queue
                // could not absorb; the overflow lane must not do it.
                Metrics::inc(&ctx.metrics.rejected_total);
                respond(
                    stream,
                    503,
                    "application/json",
                    &[("Retry-After", "1")],
                    &http::json_error_body(
                        "overloaded: exact queries shed (retry, or use mode=auto)",
                    ),
                );
                return Served::Close;
            }
            ResponseMode::Exact
        }
        RequestMode::Approx => match approx_engine {
            Some(_) => ResponseMode::Approx,
            None => {
                Metrics::inc(&ctx.metrics.client_errors_total);
                respond(
                    stream,
                    400,
                    "application/json",
                    &[],
                    &http::json_error_body(
                        "mode=approx unavailable: this index was started without an \
                         approximate engine (no graph embedded)",
                    ),
                );
                return Served::Close;
            }
        },
        RequestMode::Auto => {
            let pressured = lane == Lane::Degraded
                || ctx.metrics.queue_depth.load(Ordering::Relaxed) >= ctx.pressure_slots;
            match approx_engine {
                Some(_) if pressured => ResponseMode::Approx,
                None if lane == Lane::Degraded => {
                    // Nothing to degrade to: shed like a full queue would.
                    Metrics::inc(&ctx.metrics.rejected_total);
                    respond(
                        stream,
                        503,
                        "application/json",
                        &[("Retry-After", "1")],
                        &http::json_error_body("overloaded and no approximate engine available"),
                    );
                    return Served::Close;
                }
                _ => ResponseMode::Exact,
            }
        }
    };
    let key = QueryKey {
        seed: parsed.seed,
        top_k: parsed.top_k,
        version: snapshot.version,
        mode,
    };
    let approx = mode == ResponseMode::Approx;
    let mut headers: Vec<(&str, &str)> = Vec::with_capacity(5);
    headers.push(("X-Graph-Version", &version_header));
    headers.push(("X-Request-Id", &rid_hex));
    headers.extend(ctx.shard_header());
    if approx {
        headers.push(("X-Approx", "1"));
    }

    // Cache hit: byte-identical rendered body, no solve. The key carries
    // the snapshot version and resolved mode, so a hit can only come from
    // this same epoch and lane.
    if let Some(body) = ctx.cache.get(&key) {
        Metrics::inc(&ctx.metrics.cache_hits_total);
        Metrics::inc(&ctx.metrics.queries_total);
        if approx {
            Metrics::inc(&ctx.metrics.approx_requests_total);
        }
        let total = accepted_at.elapsed();
        headers.push(("X-Cache", "hit"));
        if trace {
            let traced = with_trace(
                &body,
                &rid_hex,
                queue_wait,
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                total,
            );
            respond_conn(
                stream,
                200,
                "application/json",
                &headers,
                &traced,
                keep_alive,
            );
        } else {
            respond_conn(stream, 200, "application/json", &headers, &body, keep_alive);
        }
        ctx.metrics.query_latency.observe(started.elapsed());
        ctx.slow_log.record(&SlowQuery {
            seed: key.seed as u64,
            latency_us: total.as_micros() as u64,
            iterations: 0,
            residual: 0.0,
            cache_hit: true,
            version: key.version,
            top_k: key.top_k as u64,
            approx,
            request_id: rid,
            shard: ctx.shard_id,
        });
        if trace {
            record_traced(
                ctx,
                rid,
                &rid_hex,
                key,
                queue_wait,
                Duration::ZERO,
                Duration::ZERO,
                Duration::ZERO,
                total,
                true,
            );
        }
        return kept(keep_alive);
    }

    // The solve is not interruptible; shed the request if its budget is
    // already gone rather than burning a worker on a dead client.
    if remaining(deadline).is_none() {
        Metrics::inc(&ctx.metrics.timeouts_total);
        respond(
            stream,
            504,
            "application/json",
            &[],
            &http::json_error_body("deadline expired before solve"),
        );
        return Served::Close;
    }

    let solve_start = Instant::now();
    let solved = match key.mode {
        ResponseMode::Exact => snapshot.bepi.query(key.seed),
        // `approx_engine` is always Some here: every path that resolves
        // to Approx checked it above.
        ResponseMode::Approx => approx_engine
            .expect("approx mode resolved without an engine")
            .query(key.seed, 0),
    };
    let scores = match solved {
        Ok(s) => s,
        Err(e) => {
            Metrics::inc(&ctx.metrics.server_errors_total);
            respond(
                stream,
                500,
                "application/json",
                &[],
                &http::json_error_body(&format!("solver failed: {e}")),
            );
            return Served::Close;
        }
    };
    let solve_time = solve_start.elapsed();
    let (rendered, topk_time, serialize_time) = render_query_body_timed(key, &scores);
    let body: Arc<str> = Arc::from(rendered);
    ctx.cache.insert(key, Arc::clone(&body));
    Metrics::inc(&ctx.metrics.cache_misses_total);
    Metrics::inc(&ctx.metrics.queries_total);
    if approx {
        Metrics::inc(&ctx.metrics.approx_requests_total);
    }
    let total = accepted_at.elapsed();
    headers.push(("X-Cache", "miss"));
    if trace {
        // The cache stores the base body; the trace block is per-request
        // and spliced in only for the response that asked for it.
        let traced = with_trace(
            &body,
            &rid_hex,
            queue_wait,
            solve_time,
            topk_time,
            serialize_time,
            total,
        );
        respond_conn(
            stream,
            200,
            "application/json",
            &headers,
            &traced,
            keep_alive,
        );
    } else {
        respond_conn(stream, 200, "application/json", &headers, &body, keep_alive);
    }
    ctx.metrics.query_latency.observe(started.elapsed());
    ctx.slow_log.record(&SlowQuery {
        seed: key.seed as u64,
        latency_us: total.as_micros() as u64,
        iterations: scores.iterations as u64,
        residual: scores.residual,
        cache_hit: false,
        version: key.version,
        top_k: key.top_k as u64,
        approx,
        request_id: rid,
        shard: ctx.shard_id,
    });
    if trace {
        record_traced(
            ctx,
            rid,
            &rid_hex,
            key,
            queue_wait,
            solve_time,
            topk_time,
            serialize_time,
            total,
            false,
        );
    }
    kept(keep_alive)
}

/// Books a traced request into the trace ring, the structured log, and
/// (when `--trace-export` is active) the Chrome trace file. Off the
/// untraced hot path entirely.
#[allow(clippy::too_many_arguments)]
fn record_traced(
    ctx: &WorkerContext,
    rid: RequestId,
    rid_hex: &str,
    key: QueryKey,
    queue: Duration,
    solve: Duration,
    topk: Duration,
    serialize: Duration,
    total: Duration,
    cache_hit: bool,
) {
    ctx.trace_log.record(&TracedQuery {
        request_id: rid,
        seed: key.seed as u64,
        top_k: key.top_k as u64,
        queue_us: queue.as_micros() as u64,
        solve_us: solve.as_micros() as u64,
        topk_us: topk.as_micros() as u64,
        serialize_us: serialize.as_micros() as u64,
        total_us: total.as_micros() as u64,
        cache_hit,
        version: key.version,
        shard: ctx.shard_id,
    });
    bepi_obs::info!(
        "server",
        "traced query",
        request_id = rid_hex,
        seed = key.seed,
        cache_hit = cache_hit,
        total_us = total.as_micros()
    );
    let Some(exporter) = &ctx.exporter else {
        return;
    };
    // Trace lanes: pid = shard id (0 for a standalone daemon), tid = the
    // serving thread's ordinal — worker, degraded, or keep-alive thread.
    let pid = ctx.shard_id.unwrap_or(0);
    let tid = trace_tid();
    let total_us = total.as_micros() as u64;
    let end = bepi_obs::clock_us();
    let start = end.saturating_sub(total_us);
    let name = format!("query seed={}", key.seed);
    exporter.emit(&TraceEvent {
        name: &name,
        cat: "serve",
        ts_us: start,
        dur_us: total_us,
        pid,
        tid,
        args: &[
            ("request_id", rid_hex),
            ("cache", if cache_hit { "hit" } else { "miss" }),
        ],
    });
    let mut cursor = start;
    for (stage, d) in [
        ("queue", queue),
        ("solve", solve),
        ("topk", topk),
        ("serialize", serialize),
    ] {
        let us = d.as_micros() as u64;
        if us > 0 {
            exporter.emit(&TraceEvent {
                name: stage,
                cat: "serve",
                ts_us: cursor,
                dur_us: us,
                pid,
                tid,
                args: &[("request_id", rid_hex)],
            });
        }
        cursor += us;
    }
}

/// A small stable ordinal for the current serving thread, used as the
/// `tid` lane in exported traces (worker pool, degraded, and keep-alive
/// threads each get their own lane in order of first export).
fn trace_tid() -> u64 {
    use std::cell::Cell;
    static NEXT_TID: AtomicUsize = AtomicUsize::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed) as u64);
        }
        t.get()
    })
}

/// Splices the `?trace=1` stage-timing breakdown into a rendered `/query`
/// body (which always ends in `}`). Stages are reported in microseconds;
/// their sum is ≤ `total_us` — the remainder is parse and dispatch
/// overhead not attributed to a named stage. The request id makes the
/// body self-correlating: the same hex id is on the `X-Request-Id`
/// header, in `/debug/slow`, `/debug/trace`, and any trace export.
fn with_trace(
    body: &str,
    rid_hex: &str,
    queue: Duration,
    solve: Duration,
    topk: Duration,
    serialize: Duration,
    total: Duration,
) -> String {
    debug_assert!(body.ends_with('}'));
    format!(
        "{},\"trace\":{{\"request_id\":\"{}\",\"queue_us\":{},\"solve_us\":{},\
         \"topk_us\":{},\"serialize_us\":{},\"total_us\":{}}}}}",
        &body[..body.len() - 1],
        rid_hex,
        queue.as_micros(),
        solve.as_micros(),
        topk.as_micros(),
        serialize.as_micros(),
        total.as_micros()
    )
}

/// `GET /version`: the serving state in one JSON object.
fn handle_version(stream: &TcpStream, ctx: &WorkerContext, keep_alive: bool) -> Served {
    let info = ctx.engine.info();
    let last_error = match &info.last_error {
        Some(e) => http::json_string(e),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"version\":{},\"nodes\":{},\"pending\":{},\"rebuilds\":{},\"live\":{},\
         \"rebuild_kind\":\"{}\",\"rebuild_trigger\":\"{}\",\"last_error\":{}}}",
        info.version,
        info.nodes,
        info.pending,
        info.rebuilds,
        info.live,
        info.rebuild_kind,
        info.rebuild_trigger,
        last_error
    );
    let version_header = info.version.to_string();
    let mut headers: Vec<(&str, &str)> = vec![("X-Graph-Version", &version_header)];
    headers.extend(ctx.shard_header());
    respond_conn(stream, 200, "application/json", &headers, &body, keep_alive);
    kept(keep_alive)
}

/// `POST /edges`: a batch of JSON-lines edge updates, e.g.
///
/// ```text
/// {"op":"insert","u":0,"v":5}
/// {"op":"remove","u":3,"v":4}
/// ```
///
/// The whole batch is validated, WAL-logged, and buffered atomically;
/// queries keep seeing the current snapshot until a rebuild completes.
fn handle_edges(stream: &TcpStream, request: &Request, ctx: &WorkerContext) {
    let updates = match parse_edge_lines(&request.body) {
        Ok(u) => u,
        Err(msg) => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                400,
                "application/json",
                &[],
                &http::json_error_body(&msg),
            );
            return;
        }
    };
    match ctx.engine.submit(&updates) {
        Ok(out) => {
            let body = format!(
                "{{\"accepted\":{},\"pending\":{},\"version\":{},\"rebuild_triggered\":{}}}",
                out.accepted, out.pending, out.version, out.rebuild_triggered
            );
            respond(
                stream,
                200,
                "application/json",
                &[("X-Graph-Version", &out.version.to_string())],
                &body,
            );
        }
        Err(SparseError::IndexOutOfBounds { index, shape }) => {
            Metrics::inc(&ctx.metrics.client_errors_total);
            respond(
                stream,
                422,
                "application/json",
                &[],
                &http::json_error_body(&format!(
                    "edge ({}, {}) out of range (graph has {} nodes)",
                    index.0, index.1, shape.0
                )),
            );
        }
        Err(e) => {
            Metrics::inc(&ctx.metrics.server_errors_total);
            // Parity with every other shed path: a 503 always tells the
            // client when to come back.
            respond(
                stream,
                503,
                "application/json",
                &[("Retry-After", "1")],
                &http::json_error_body(&e.to_string()),
            );
        }
    }
}

/// `POST /rebuild`: force a flush of everything buffered and block until
/// the hot-swap completes. An admin operation — the query deadline does
/// not apply, so the socket budget is re-armed generously before the
/// (potentially long) preprocessing run.
fn handle_rebuild(stream: &TcpStream, ctx: &WorkerContext) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    match ctx.engine.rebuild_and_wait() {
        Ok(version) => {
            let body = format!(
                "{{\"version\":{},\"pending\":{}}}",
                version,
                ctx.engine.pending_len()
            );
            respond(
                stream,
                200,
                "application/json",
                &[("X-Graph-Version", &version.to_string())],
                &body,
            );
        }
        Err(e) => {
            Metrics::inc(&ctx.metrics.server_errors_total);
            respond(
                stream,
                503,
                "application/json",
                &[("Retry-After", "1")],
                &http::json_error_body(&e.to_string()),
            );
        }
    }
}

/// Parses a JSON-lines edge-update body. Each non-empty line is one flat
/// object with fields `op` (`"insert"` / `"remove"`), `u`, and `v`. The
/// parser is hand-rolled (std-only daemon) but tolerant of whitespace and
/// field order.
fn parse_edge_lines(body: &str) -> Result<Vec<EdgeUpdate>, String> {
    let mut updates = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        updates.push(parse_edge_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    if updates.is_empty() {
        return Err(
            "empty batch: expected JSON lines like {\"op\":\"insert\",\"u\":0,\"v\":5}".to_string(),
        );
    }
    Ok(updates)
}

fn parse_edge_line(line: &str) -> Result<EdgeUpdate, String> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("expected a JSON object, got {line:?}"))?;
    let (mut op, mut u, mut v) = (None, None, None);
    for field in inner.split(',') {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("expected \"key\":value, got {field:?}"))?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "op" => {
                op = Some(
                    value
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| format!("op must be a string, got {value}"))?,
                );
            }
            "u" => u = Some(parse_node(value, "u")?),
            "v" => v = Some(parse_node(value, "v")?),
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    let op = op.ok_or("missing field: op")?;
    let u = u.ok_or("missing field: u")?;
    let v = v.ok_or("missing field: v")?;
    match op {
        "insert" => Ok(EdgeUpdate::Insert(u, v)),
        "remove" => Ok(EdgeUpdate::Remove(u, v)),
        other => Err(format!(
            "op must be \"insert\" or \"remove\", got {other:?}"
        )),
    }
}

fn parse_node(value: &str, name: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{name} must be a non-negative integer, got {value}"))
}

/// The serving mode a `/query` request asked for (`?mode=`), before it is
/// resolved against pressure, lane, and engine availability into a
/// [`ResponseMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestMode {
    /// Always the exact BePI solve; sheds under overload.
    Exact,
    /// Always the approximate engine; 400 when the index has none.
    Approx,
    /// Exact normally, approximate under admission pressure — the
    /// graceful-degradation contract. The default: clients that never
    /// heard of `mode=` get degraded answers instead of 503s.
    Auto,
}

/// Validated `/query` parameters, pre-resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParsedQuery {
    seed: usize,
    top_k: usize,
    mode: RequestMode,
}

fn parse_query_params(request: &Request, node_count: usize) -> Result<ParsedQuery, String> {
    let seed_s = request
        .params
        .get("seed")
        .ok_or("missing required parameter: seed")?;
    let seed: usize = seed_s
        .parse()
        .map_err(|_| format!("bad seed: {seed_s:?}"))?;
    if seed >= node_count {
        return Err(format!(
            "seed {seed} out of range (index has {node_count} nodes)"
        ));
    }
    let top_k = match request.params.get("top") {
        None => DEFAULT_TOP_K,
        Some(t) => t.parse().map_err(|_| format!("bad top: {t:?}"))?,
    };
    let mode = match request.params.get("mode").map(String::as_str) {
        None | Some("auto") => RequestMode::Auto,
        Some("exact") => RequestMode::Exact,
        Some("approx") => RequestMode::Approx,
        Some(m) => return Err(format!("bad mode: {m:?} (expected exact, approx, or auto)")),
    };
    Ok(ParsedQuery {
        seed,
        top_k: top_k.min(node_count),
        mode,
    })
}

/// Renders the `/query` response body. Scores use Rust's shortest
/// round-trip float formatting, so parsing them back yields bit-identical
/// `f64`s to what [`bepi_core::RwrSolver::query`] produced.
pub fn render_query_body(key: QueryKey, scores: &bepi_core::RwrScores) -> String {
    render_query_body_timed(key, scores).0
}

/// [`render_query_body`] plus the two stage timings `?trace=1` reports:
/// top-k selection and serialization.
fn render_query_body_timed(
    key: QueryKey,
    scores: &bepi_core::RwrScores,
) -> (String, Duration, Duration) {
    let topk_start = Instant::now();
    let ranked = scores.top_k(key.top_k);
    let topk_time = topk_start.elapsed();
    let serialize_start = Instant::now();
    let mode = match key.mode {
        ResponseMode::Exact => "exact",
        ResponseMode::Approx => "approx",
    };
    let mut body = format!(
        "{{\"seed\":{},\"top\":{},\"mode\":\"{}\",\"iterations\":{},\"residual\":{},\"results\":[",
        key.seed,
        key.top_k,
        mode,
        scores.iterations,
        fmt_f64(scores.residual)
    );
    for (i, &node) in ranked.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"node\":{},\"score\":{}}}",
            node,
            fmt_f64(scores.scores[node])
        ));
    }
    body.push_str("]}");
    (body, topk_time, serialize_start.elapsed())
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` is shortest round-trip and always includes a decimal
        // point or exponent, which keeps the token a JSON number.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Best-effort response write; a failed write means the client is gone,
/// which is not an error worth tracking separately.
fn respond(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
) {
    let _ = http::write_response(&mut stream, status, content_type, extra, body);
    let _ = stream.flush();
}

/// [`respond`] with an explicit connection disposition: `keep_alive`
/// answers `Connection: keep-alive` so the caller can serve the next
/// request off the same stream.
fn respond_conn(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) {
    let _ = http::write_response_conn(&mut stream, status, content_type, extra, body, keep_alive);
    let _ = stream.flush();
}

/// Sheds one connection with `503 Service Unavailable` + `Retry-After`.
/// Called by the *acceptor* when the admission queue is full, so the
/// worker pool never sees the connection. Reads (best-effort, bounded)
/// before writing so well-behaved clients get the response instead of a
/// reset.
pub fn shed_connection(stream: TcpStream, metrics: &Metrics) {
    Metrics::inc(&metrics.rejected_total);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 1024];
    let mut s = &stream;
    let _ = s.read(&mut sink);
    respond(
        &stream,
        503,
        "application/json",
        &[("Retry-After", "1")],
        &http::json_error_body("admission queue full, retry shortly"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_core::prelude::*;
    use bepi_graph::generators;

    #[test]
    fn query_body_rendering_is_valid_json_and_ranked() {
        let g = generators::erdos_renyi(50, 200, 11).unwrap();
        let bepi = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let scores = bepi.query(7).unwrap();
        let key = QueryKey {
            seed: 7,
            top_k: 5,
            version: 1,
            mode: ResponseMode::Exact,
        };
        let body = render_query_body(key, &scores);
        assert!(body.starts_with("{\"seed\":7,\"top\":5,\"mode\":\"exact\","));
        assert_eq!(body.matches("\"node\":").count(), 5);
        // The seed dominates its own ranking.
        assert!(body.contains(&format!(
            "\"node\":7,\"score\":{}",
            fmt_f64(scores.scores[7])
        )));
        // Scores round-trip bit-exactly through the rendered text.
        for &node in &scores.top_k(5) {
            let fragment = format!("\"node\":{node},\"score\":");
            let idx = body.find(&fragment).unwrap() + fragment.len();
            let rest = &body[idx..];
            let end = rest.find(['}', ',']).unwrap();
            let parsed: f64 = rest[..end].parse().unwrap();
            assert_eq!(parsed.to_bits(), scores.scores[node].to_bits());
        }
    }

    #[test]
    fn param_parsing_validates_seed_and_top() {
        let req = |q: &str| Request {
            method: "GET".into(),
            path: "/query".into(),
            params: q
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap();
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: String::new(),
            keep_alive: false,
            request_id: None,
        };
        assert_eq!(
            parse_query_params(&req("seed=3&top=4"), 10).unwrap(),
            ParsedQuery {
                seed: 3,
                top_k: 4,
                mode: RequestMode::Auto,
            }
        );
        // Defaults and clamping.
        assert_eq!(parse_query_params(&req("seed=3"), 10).unwrap().top_k, 10);
        assert_eq!(
            parse_query_params(&req("seed=3&top=99"), 10).unwrap().top_k,
            10
        );
        assert!(parse_query_params(&req(""), 10).is_err());
        assert!(parse_query_params(&req("seed=x"), 10).is_err());
        assert!(parse_query_params(&req("seed=10"), 10).is_err());
        assert!(parse_query_params(&req("seed=-1"), 10).is_err());
        assert!(parse_query_params(&req("seed=3&top=x"), 10).is_err());
    }

    #[test]
    fn param_parsing_validates_mode() {
        let req = |q: &str| Request {
            method: "GET".into(),
            path: "/query".into(),
            params: q
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap();
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: String::new(),
            keep_alive: false,
            request_id: None,
        };
        let mode = |q: &str| parse_query_params(&req(q), 10).unwrap().mode;
        assert_eq!(mode("seed=1"), RequestMode::Auto);
        assert_eq!(mode("seed=1&mode=auto"), RequestMode::Auto);
        assert_eq!(mode("seed=1&mode=exact"), RequestMode::Exact);
        assert_eq!(mode("seed=1&mode=approx"), RequestMode::Approx);
        assert!(parse_query_params(&req("seed=1&mode=fast"), 10).is_err());
        // Parameters the endpoint does not know are ignored, like any
        // other unknown query parameter.
        assert_eq!(mode("seed=1&mode=approx&epoch=x"), RequestMode::Approx);
    }

    #[test]
    fn approx_body_carries_mode() {
        let g = generators::erdos_renyi(20, 80, 5).unwrap();
        let bepi = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let scores = bepi.query(2).unwrap();
        let key = QueryKey {
            seed: 2,
            top_k: 3,
            version: 9,
            mode: ResponseMode::Approx,
        };
        let body = render_query_body(key, &scores);
        assert!(
            body.starts_with("{\"seed\":2,\"top\":3,\"mode\":\"approx\",\"iterations\":"),
            "{body}"
        );
    }

    #[test]
    fn edge_line_parsing() {
        assert_eq!(
            parse_edge_lines(
                "{\"op\":\"insert\",\"u\":0,\"v\":5}\n{\"op\":\"remove\",\"u\":3,\"v\":4}\n"
            )
            .unwrap(),
            vec![EdgeUpdate::Insert(0, 5), EdgeUpdate::Remove(3, 4)]
        );
        // Field order and whitespace are flexible; blank lines skipped.
        assert_eq!(
            parse_edge_lines("\n  { \"v\" : 2 , \"u\" : 1 , \"op\" : \"insert\" }  \n\n").unwrap(),
            vec![EdgeUpdate::Insert(1, 2)]
        );
        for bad in [
            "",
            "not json",
            "{\"op\":\"insert\",\"u\":0}",                 // missing v
            "{\"op\":\"upsert\",\"u\":0,\"v\":1}",         // unknown op
            "{\"op\":insert,\"u\":0,\"v\":1}",             // unquoted op
            "{\"op\":\"insert\",\"u\":-1,\"v\":1}",        // negative id
            "{\"op\":\"insert\",\"u\":0,\"v\":1,\"w\":2}", // unknown field
        ] {
            assert!(parse_edge_lines(bad).is_err(), "{bad:?}");
        }
        // Errors carry the 1-based line number.
        let err =
            parse_edge_lines("{\"op\":\"insert\",\"u\":0,\"v\":1}\n{\"op\":\"x\",\"u\":0,\"v\":1}")
                .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.05, 1e-9, 6.938893903907228e-18, 1.0, 0.0] {
            let s = fmt_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }
}
