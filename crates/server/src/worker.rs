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
use crate::metrics::{render_live_metrics, render_obs_metrics, Metrics};
use crate::trace::{QueryLog, QueryRecord};
use bepi_core::rwr::RwrSolver;
use bepi_core::EdgeUpdate;
use bepi_live::LiveEngine;
use bepi_obs::trace::{RequestId, TraceEvent, TraceExporter};
use bepi_sparse::SparseError;
use std::any::Any;
use std::cell::Cell;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default `top` when the query string omits it.
const DEFAULT_TOP_K: usize = 10;

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

/// One accepted connection waiting for service. Its deadline is
/// `accepted_at` plus the request timeout, so time spent waiting in the
/// queue counts against it.
pub struct Job {
    /// The accepted client connection.
    pub stream: TcpStream,
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
    pub slow_log: QueryLog,
    /// Main-queue depth at which `mode=auto` queries start routing to
    /// the approximate lane (`ceil(pressure × queue_depth)`). Zero means
    /// every `auto` query is served approximately when the engine
    /// exists — the deterministic hook CI uses.
    pub pressure_slots: u64,
    /// Per-request deadline budget, counted from admission; re-armed for
    /// every request served over one keep-alive connection.
    pub timeout: Duration,
    /// Graceful-shutdown flag: keep-alive connections are closed after
    /// the in-flight request once shutdown is requested, so persistent
    /// client connections cannot stall the drain.
    pub shutdown: Arc<crate::shutdown::Shutdown>,
    /// Ring buffer behind `GET /debug/trace`: the most recent `?trace=1`
    /// queries with their per-stage timings (threshold zero).
    pub trace_log: QueryLog,
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
        if let Ok(clone) = job.stream.try_clone() {
            let conn = Connection {
                stream: job.stream,
                reader: BufReader::new(clone),
                lane: job.lane,
            };
            serve_connection(conn, Some(job.accepted_at), &ctx);
        }
        ctx.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One client connection: the stream responses go to, the buffered
/// reader requests come from, and the lane that admitted it.
struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    lane: Lane,
}

/// Serves the requests of one connection in turn. A pool worker (or the
/// degraded worker) passes the admission time of the connection's first
/// request as `admitted` and serves that request only: a connection that
/// stays open after it moves to a `bepi-keepalive` thread (see
/// [`keep_alive`]), which runs this same loop with `admitted = None` and
/// gives each later request a fresh budget. A keep-alive connection
/// parked on a pool worker would starve fresh connections outright: the
/// pool is sized to CPU, persistent connections are sized to clients, and
/// one idle client socket must never block admission.
///
/// A panic in one request's service is caught around that request (see
/// [`serve_guarded`]); one outside it, reading or parsing a request, is
/// caught here: the connection is dropped, the panic is counted and
/// logged, and the thread goes on.
fn serve_connection(mut conn: Connection, mut admitted: Option<Instant>, ctx: &Arc<WorkerContext>) {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
        let on_worker = admitted.is_some();
        let accepted_at = match admitted.take() {
            Some(admission) => admission,
            None => {
                // Keep-alive connections must not stall the graceful
                // drain: once shutdown is requested the connection is
                // dropped after the in-flight request (a dropped idle
                // connection is exactly what pooled clients handle).
                if ctx.shutdown.is_requested() {
                    return;
                }
                // The request's budget starts now; its queue wait is
                // zero, as it never went through admission.
                Instant::now()
            }
        };
        match serve_one(&mut conn, accepted_at, !on_worker, ctx) {
            Served::Close => return,
            Served::KeepAlive if on_worker => return keep_alive(conn, ctx),
            Served::KeepAlive => {}
        }
    }));
    if let Err(payload) = result {
        report_panic(&ctx.metrics, None, payload.as_ref());
    }
}

/// Counts a caught panic as a server error and logs it with the serving
/// thread's name and the panic message, and with the request's id and
/// path (`request`) when it was caught around one parsed request.
fn report_panic(metrics: &Metrics, request: Option<(&str, &str)>, payload: &(dyn Any + Send)) {
    Metrics::inc(&metrics.server_errors_total);
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    let thread = std::thread::current();
    let thread = thread.name().unwrap_or("unnamed");
    match request {
        Some((request_id, path)) => bepi_obs::error!(
            "server",
            "panic while serving a request",
            request_id = request_id,
            path = path,
            thread = thread,
            panic = message
        ),
        None => bepi_obs::error!(
            "server",
            "panic while serving a connection",
            thread = thread,
            panic = message
        ),
    }
}

/// The budget left before `deadline`; `None` once it has passed.
fn remaining(deadline: Instant) -> Option<Duration> {
    (deadline.checked_duration_since(Instant::now())).filter(|left| !left.is_zero())
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

/// Moves a kept-alive connection onto a `bepi-keepalive` thread, bounded
/// by `ctx.keepalive_cap`. At the cap (or if the spawn fails) the stream
/// is simply dropped — legal for a server at any idle point, and pooled
/// clients retry on a fresh connection.
fn keep_alive(conn: Connection, ctx: &Arc<WorkerContext>) {
    let reserved = ctx
        .keepalive_threads
        .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |n| {
            (n < ctx.keepalive_cap).then_some(n + 1)
        });
    if reserved.is_err() {
        return;
    }
    let thread_ctx = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name("bepi-keepalive".to_string())
        .spawn(move || {
            serve_connection(conn, None, &thread_ctx);
            thread_ctx.keepalive_threads.fetch_sub(1, Ordering::AcqRel);
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

/// Reads one request off `conn` and serves it by `accepted_at` plus the
/// request timeout. `subsequent` marks a request after the connection's
/// first, whose EOF or idle timeout is the normal end of the connection.
fn serve_one(
    conn: &mut Connection,
    accepted_at: Instant,
    subsequent: bool,
    ctx: &WorkerContext,
) -> Served {
    let started = Instant::now();
    let deadline = accepted_at + ctx.timeout;
    let stream = &conn.stream;
    let metrics = &ctx.metrics;

    // Deadline may already have expired while the job sat in the queue.
    let Some(budget) = remaining(deadline) else {
        return reject(
            stream,
            &metrics.timeouts_total,
            504,
            &[],
            "deadline expired while queued",
        );
    };
    // The socket timeouts enforce the remaining budget on slow clients.
    let _ = stream.set_read_timeout(Some(budget));
    let _ = stream.set_write_timeout(Some(budget.max(Duration::from_secs(1))));

    let request = match http::read_request(&mut conn.reader) {
        Ok(r) => r,
        // On a kept-alive connection, EOF or an idle timeout before the
        // next request is the *normal* end of the connection — not a
        // client error, not a server timeout.
        Err(ParseError::Io(_)) if subsequent => return Served::Close,
        Err(ParseError::Malformed(m)) if subsequent && m == "empty request" => {
            return Served::Close;
        }
        Err(ParseError::TooLarge) => {
            return reject(
                stream,
                &metrics.client_errors_total,
                431,
                &[],
                "request head too large",
            );
        }
        Err(ParseError::BodyTooLarge) => {
            return reject(
                stream,
                &metrics.client_errors_total,
                413,
                &[],
                "request body too large",
            );
        }
        Err(ParseError::Malformed(message)) => {
            return reject(stream, &metrics.client_errors_total, 400, &[], &message);
        }
        Err(ParseError::Io(_)) => {
            // Client vanished or stalled past its budget; nothing to say.
            Metrics::inc(&metrics.timeouts_total);
            return Served::Close;
        }
    };
    Metrics::inc(&metrics.requests_total);

    // Keep-alive is honored only on the normal lane: the single degraded
    // worker must never be pinned to one persistent connection while the
    // daemon is saturated.
    let lane = conn.lane;
    let keep_alive = request.keep_alive && lane == Lane::Normal;
    // Adopt the caller's correlation id or mint one here. A `/query`
    // echoes it on the response, stamps it into the slowlog, and — for
    // traced requests — the trace ring and the Chrome export, so one grep
    // follows the request everywhere; a panicking request logs it.
    let rid = request
        .request_id
        .as_deref()
        .and_then(RequestId::parse)
        .unwrap_or_else(RequestId::mint);
    let timing = (accepted_at, started);
    serve_guarded(
        stream,
        &ctx.metrics,
        (rid, &request.path),
        keep_alive,
        || dispatch(stream, &request, rid, timing, lane, keep_alive, ctx),
    )
}

thread_local! {
    /// Whether this thread has written a response since
    /// [`serve_guarded`] began serving its current request ([`respond`]
    /// sets it).
    static ANSWERED: Cell<bool> = const { Cell::new(false) };
}

/// Serves one parsed request (`serve`), catching a panic in it: say, a
/// corrupt payload in a mapped index, which the mapped open does not
/// check. The panic is counted and logged with the request's id and path.
/// If no response went out yet, the request gets a `500` and the worker,
/// and a keep-alive connection, go on to the next request. If one did,
/// the connection is closed: a second response would answer the client's
/// next request on it.
#[inline]
fn serve_guarded(
    stream: &TcpStream,
    metrics: &Metrics,
    (rid, path): (RequestId, &str),
    keep_alive: bool,
    serve: impl FnOnce() -> Served,
) -> Served {
    ANSWERED.with(|answered| answered.set(false));
    std::panic::catch_unwind(AssertUnwindSafe(serve))
        .unwrap_or_else(|payload| answer_panic(stream, metrics, (rid, path), payload, keep_alive))
}

/// Counts and logs a panic in one request's service; answers it with a
/// `500` carrying its request id unless a response already went out (see
/// [`serve_guarded`]).
#[cold]
#[inline(never)]
fn answer_panic(
    stream: &TcpStream,
    metrics: &Metrics,
    (rid, path): (RequestId, &str),
    payload: Box<dyn Any + Send>,
    keep_alive: bool,
) -> Served {
    let rid_hex = rid.to_hex();
    report_panic(metrics, Some((&rid_hex, path)), payload.as_ref());
    if ANSWERED.with(Cell::get) {
        return Served::Close;
    }
    respond(
        stream,
        500,
        "application/json",
        &[("X-Request-Id", &rid_hex)],
        &http::json_error_body("internal error while serving the request"),
        keep_alive,
    )
}

/// Serves one parsed request: routes it by lane, method and path.
#[inline(never)]
fn dispatch(
    stream: &TcpStream,
    request: &Request,
    rid: RequestId,
    timing: (Instant, Instant),
    lane: Lane,
    keep_alive: bool,
    ctx: &WorkerContext,
) -> Served {
    // The degraded lane exists solely to keep `/query` answerable via the
    // approximate engine while the main queue is saturated. Anything else
    // is shed exactly as if the overflow lane were not there.
    if lane == Lane::Degraded
        && (request.method.as_str(), request.path.as_str()) != ("GET", "/query")
    {
        return reject(
            stream,
            &ctx.metrics.rejected_total,
            503,
            RETRY_AFTER,
            "overloaded: only GET /query is served on the degraded lane",
        );
    }

    let json = "application/json";
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => respond(stream, 200, "text/plain", &[], "ok\n", keep_alive),
        ("GET", "/metrics") => {
            let mut body = ctx.metrics.render();
            body.push_str(&render_live_metrics(&ctx.engine.status()));
            body.push_str(&render_obs_metrics());
            let content_type = "text/plain; version=0.0.4";
            respond(stream, 200, content_type, &[], &body, keep_alive)
        }
        ("GET", "/query") => handle_query(stream, request, ctx, rid, timing, lane, keep_alive),
        ("GET", "/version") => handle_version(stream, ctx, keep_alive),
        ("GET", "/debug/slow") => {
            let body = ctx.slow_log.render_slow_json();
            respond(stream, 200, json, &[], &body, keep_alive)
        }
        ("GET", "/debug/trace") => {
            let body = ctx.trace_log.render_trace_json();
            respond(stream, 200, json, &[], &body, keep_alive)
        }
        ("POST", "/edges") => handle_edges(stream, request, ctx),
        ("POST", "/rebuild") => handle_rebuild(stream, ctx),
        (_, "/healthz" | "/metrics" | "/query" | "/version" | "/debug/slow" | "/debug/trace") => {
            method_not_allowed(stream, ctx, "GET")
        }
        (_, "/edges" | "/rebuild") => method_not_allowed(stream, ctx, "POST"),
        _ => reject(
            stream,
            &ctx.metrics.client_errors_total,
            404,
            &[],
            "unknown path (try /query, /healthz, /metrics, /version, /debug/slow, \
             /debug/trace, /edges, /rebuild)",
        ),
    }
}

fn method_not_allowed(stream: &TcpStream, ctx: &WorkerContext, allow: &str) -> Served {
    let message = format!("only {allow} is supported on this path");
    let counter = &ctx.metrics.client_errors_total;
    reject(stream, counter, 405, &[("Allow", allow)], &message)
}

/// The header every `503` carries: when to come back.
const RETRY_AFTER: &[(&str, &str)] = &[("Retry-After", "1")];

/// Answers a request the daemon will not serve: counts it on `counter`
/// and writes `status` with `extra` headers and a JSON error body. The
/// connection closes.
fn reject(
    stream: &TcpStream,
    counter: &AtomicU64,
    status: u16,
    extra: &[(&str, &str)],
    message: &str,
) -> Served {
    Metrics::inc(counter);
    let body = http::json_error_body(message);
    respond(stream, status, "application/json", extra, &body, false)
}

/// How a `/query` is answered once its mode is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer<E> {
    /// The exact BePI solve.
    Exact,
    /// The snapshot's approximate engine.
    Approx(E),
}

/// Why mode resolution refuses a `/query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// `503` with `Retry-After`, counted as rejected: the overflow lane
    /// sheds what it cannot answer approximately.
    Shed(&'static str),
    /// `400`, counted as a client error: `mode=approx` on an index
    /// without an approximate engine.
    Unavailable(&'static str),
}

/// Resolves the requested mode against the lane, the main queue's
/// pressure and the snapshot's approximate engine (if any). The degraded
/// lane counts as pressured.
fn resolve_mode<E>(
    requested: RequestMode,
    lane: Lane,
    pressured: bool,
    engine: Option<E>,
) -> Result<Answer<E>, Refusal> {
    let degraded = lane == Lane::Degraded;
    match (requested, engine) {
        // Exact work is exactly what the saturated main queue could not
        // absorb; the overflow lane must not do it.
        (RequestMode::Exact, _) if degraded => Err(Refusal::Shed(
            "overloaded: exact queries shed (retry, or use mode=auto)",
        )),
        (RequestMode::Exact, _) => Ok(Answer::Exact),
        (RequestMode::Approx, Some(engine)) => Ok(Answer::Approx(engine)),
        (RequestMode::Approx, None) => Err(Refusal::Unavailable(
            "mode=approx unavailable: this index was started without an \
             approximate engine (no graph embedded)",
        )),
        (RequestMode::Auto, Some(engine)) if pressured || degraded => Ok(Answer::Approx(engine)),
        // Nothing to degrade to: shed like a full queue would.
        (RequestMode::Auto, None) if degraded => Err(Refusal::Shed(
            "overloaded and no approximate engine available",
        )),
        (RequestMode::Auto, _) => Ok(Answer::Exact),
    }
}

/// `GET /query`. `timing` is the request's admission and the start of its
/// service.
fn handle_query(
    stream: &TcpStream,
    request: &Request,
    ctx: &WorkerContext,
    rid: RequestId,
    (accepted_at, started): (Instant, Instant),
    lane: Lane,
    keep_alive: bool,
) -> Served {
    // Queue wait: admission to worker pickup.
    let queue_wait = started.saturating_duration_since(accepted_at);
    let trace = request.params.get("trace").map(String::as_str) == Some("1");
    let rid_hex = rid.to_hex();
    // One snapshot for the whole request: validation, cache key, solve,
    // and the version header all agree even across a concurrent swap.
    let snapshot = ctx.engine.current();
    let version_header = snapshot.version.to_string();
    let parsed = match parse_query_params(request, snapshot.bepi.node_count()) {
        Ok(p) => p,
        Err(msg) => return reject(stream, &ctx.metrics.client_errors_total, 400, &[], &msg),
    };

    // Resolve the requested mode against the lane, the current pressure,
    // and whether this snapshot has an approximate engine at all. The
    // cache key always carries the *resolved* mode, so `auto` shares
    // entries with whichever explicit lane it lands on.
    let pressured = ctx.metrics.queue_depth.load(Ordering::Relaxed) >= ctx.pressure_slots;
    let answer = match resolve_mode(parsed.mode, lane, pressured, snapshot.approx.as_deref()) {
        Ok(answer) => answer,
        Err(Refusal::Shed(msg)) => {
            return reject(stream, &ctx.metrics.rejected_total, 503, RETRY_AFTER, msg)
        }
        Err(Refusal::Unavailable(msg)) => {
            return reject(stream, &ctx.metrics.client_errors_total, 400, &[], msg)
        }
    };
    let approx = matches!(answer, Answer::Approx(_));
    let key = QueryKey {
        seed: parsed.seed,
        top_k: parsed.top_k,
        version: snapshot.version,
        mode: if approx {
            ResponseMode::Approx
        } else {
            ResponseMode::Exact
        },
    };
    let mut headers: Vec<(&str, &str)> = Vec::with_capacity(5);
    headers.push(("X-Graph-Version", &version_header));
    headers.push(("X-Request-Id", &rid_hex));
    if approx {
        headers.push(("X-Approx", "1"));
    }

    let mut record = QueryRecord {
        request_id: rid,
        seed: key.seed as u64,
        top_k: key.top_k as u64,
        version: key.version,
        cache_hit: true,
        approx,
        iterations: 0,
        residual: 0.0,
        queue_us: queue_wait.as_micros() as u64,
        solve_us: 0,
        topk_us: 0,
        serialize_us: 0,
        total_us: 0,
    };
    // Cache hit: byte-identical rendered body, no solve. The key carries
    // the snapshot version and resolved mode, so a hit can only come from
    // this same epoch and lane.
    // A miss keeps its scores until the request ends, after the response
    // is written: freeing the solve's n-sized vectors earlier shifts the
    // worker thread's heap layout, which the allocator can answer by
    // trimming and re-faulting them on the next query.
    let (_scores, body) = if let Some(body) = ctx.cache.get(&key) {
        Metrics::inc(&ctx.metrics.cache_hits_total);
        (None, body)
    } else {
        // The solve is not interruptible; shed the request if its budget
        // is already gone rather than burning a worker on a dead client.
        if remaining(accepted_at + ctx.timeout).is_none() {
            let message = "deadline expired before solve";
            return reject(stream, &ctx.metrics.timeouts_total, 504, &[], message);
        }
        let solve_start = Instant::now();
        let solved = match answer {
            Answer::Exact => snapshot.bepi.query(key.seed),
            Answer::Approx(engine) => engine.query(key.seed, 0),
        };
        let scores = match solved {
            Ok(s) => s,
            Err(e) => {
                let message = format!("solver failed: {e}");
                return reject(stream, &ctx.metrics.server_errors_total, 500, &[], &message);
            }
        };
        let solve_time = solve_start.elapsed();
        let (rendered, topk_time, serialize_time) = render_query_body_timed(key, &scores);
        let body: Arc<str> = Arc::from(rendered);
        ctx.cache.insert(key, Arc::clone(&body));
        Metrics::inc(&ctx.metrics.cache_misses_total);
        record = QueryRecord {
            cache_hit: false,
            iterations: scores.iterations as u64,
            residual: scores.residual,
            solve_us: solve_time.as_micros() as u64,
            topk_us: topk_time.as_micros() as u64,
            serialize_us: serialize_time.as_micros() as u64,
            ..record
        };
        (Some(scores), body)
    };
    Metrics::inc(&ctx.metrics.queries_total);
    if approx {
        Metrics::inc(&ctx.metrics.approx_requests_total);
    }
    record.total_us = accepted_at.elapsed().as_micros() as u64;
    headers.push(("X-Cache", if record.cache_hit { "hit" } else { "miss" }));
    // The cache stores the base body; the trace block is per-request and
    // spliced in only for the response that asked for it.
    let traced = trace.then(|| with_trace(&body, &rid_hex, &record));
    let body = traced.as_deref().unwrap_or(&body);
    let served = respond(stream, 200, "application/json", &headers, body, keep_alive);
    ctx.metrics
        .query_latency
        .observe(started.elapsed().as_secs_f64());
    ctx.slow_log.record(&record);
    if trace {
        record_traced(ctx, &rid_hex, &record);
    }
    served
}

/// Books a traced request into the trace ring, the structured log, and
/// (when `--trace-export` is active) the Chrome trace file. Off the
/// untraced hot path entirely.
fn record_traced(ctx: &WorkerContext, rid_hex: &str, q: &QueryRecord) {
    ctx.trace_log.record(q);
    bepi_obs::info!(
        "server",
        "traced query",
        request_id = rid_hex,
        seed = q.seed,
        cache_hit = q.cache_hit,
        total_us = q.total_us
    );
    let Some(exporter) = &ctx.exporter else {
        return;
    };
    // Trace lanes: tid = the serving thread's ordinal — worker,
    // degraded, or keep-alive thread.
    let tid = trace_tid();
    let end = bepi_obs::clock_us();
    let start = end.saturating_sub(q.total_us);
    let name = format!("query seed={}", q.seed);
    exporter.emit(&TraceEvent {
        name: &name,
        cat: "serve",
        ts_us: start,
        dur_us: q.total_us,
        tid,
        args: &[
            ("request_id", rid_hex),
            ("cache", if q.cache_hit { "hit" } else { "miss" }),
        ],
    });
    let mut cursor = start;
    for (stage, us) in [
        ("queue", q.queue_us),
        ("solve", q.solve_us),
        ("topk", q.topk_us),
        ("serialize", q.serialize_us),
    ] {
        if us > 0 {
            exporter.emit(&TraceEvent {
                name: stage,
                cat: "serve",
                ts_us: cursor,
                dur_us: us,
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
fn with_trace(body: &str, rid_hex: &str, q: &QueryRecord) -> String {
    debug_assert!(body.ends_with('}'));
    format!(
        "{},\"trace\":{{\"request_id\":\"{}\",\"queue_us\":{},\"solve_us\":{},\
         \"topk_us\":{},\"serialize_us\":{},\"total_us\":{}}}}}",
        &body[..body.len() - 1],
        rid_hex,
        q.queue_us,
        q.solve_us,
        q.topk_us,
        q.serialize_us,
        q.total_us
    )
}

/// `GET /version`: the serving state in one JSON object.
fn handle_version(stream: &TcpStream, ctx: &WorkerContext, keep_alive: bool) -> Served {
    let status = ctx.engine.status();
    let json_or_null =
        |v: &Option<String>| v.as_deref().map_or("null".to_string(), http::json_string);
    let body = format!(
        "{{\"version\":{},\"nodes\":{},\"variant\":\"{}\",\"pending\":{},\"rebuilds\":{},\
         \"live\":{},\"rebuild_kind\":\"{}\",\"rebuild_reason\":{},\"rebuild_trigger\":\"{}\",\
         \"last_error\":{}}}",
        status.version,
        status.nodes,
        status.variant,
        status.pending,
        status.rebuilds,
        status.live,
        status.rebuild_kind.name(),
        json_or_null(&status.rebuild_reason),
        status.rebuild_trigger.name(),
        json_or_null(&status.last_error)
    );
    let version_header = status.version.to_string();
    let headers = [("X-Graph-Version", version_header.as_str())];
    respond(stream, 200, "application/json", &headers, &body, keep_alive)
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
fn handle_edges(stream: &TcpStream, request: &Request, ctx: &WorkerContext) -> Served {
    let updates = match parse_edge_lines(&request.body) {
        Ok(u) => u,
        Err(msg) => return reject(stream, &ctx.metrics.client_errors_total, 400, &[], &msg),
    };
    match ctx.engine.submit(&updates) {
        Ok(out) => {
            let body = format!(
                "{{\"accepted\":{},\"pending\":{},\"version\":{},\"rebuild_triggered\":{}}}",
                out.accepted, out.pending, out.version, out.rebuild_triggered
            );
            let version = out.version.to_string();
            let headers = [("X-Graph-Version", version.as_str())];
            respond(stream, 200, "application/json", &headers, &body, false)
        }
        Err(SparseError::IndexOutOfBounds { index, shape }) => {
            let message = format!(
                "edge ({}, {}) out of range (graph has {} nodes)",
                index.0, index.1, shape.0
            );
            reject(stream, &ctx.metrics.client_errors_total, 422, &[], &message)
        }
        // Parity with every other shed path: a 503 always tells the
        // client when to come back.
        Err(e) => {
            let message = e.to_string();
            reject(
                stream,
                &ctx.metrics.server_errors_total,
                503,
                RETRY_AFTER,
                &message,
            )
        }
    }
}

/// `POST /rebuild`: force a flush of everything buffered and block until
/// the hot-swap completes. An admin operation — the query deadline does
/// not apply, so the socket budget is re-armed generously before the
/// (potentially long) preprocessing run.
fn handle_rebuild(stream: &TcpStream, ctx: &WorkerContext) -> Served {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    match ctx.engine.rebuild_and_wait() {
        Ok(version) => {
            let body = format!(
                "{{\"version\":{},\"pending\":{}}}",
                version,
                ctx.engine.status().pending
            );
            let version = version.to_string();
            let headers = [("X-Graph-Version", version.as_str())];
            respond(stream, 200, "application/json", &headers, &body, false)
        }
        Err(e) => {
            let message = e.to_string();
            reject(
                stream,
                &ctx.metrics.server_errors_total,
                503,
                RETRY_AFTER,
                &message,
            )
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

pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` is shortest round-trip and always includes a decimal
        // point or exponent, which keeps the token a JSON number.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Best-effort response write; a failed write means the client is gone,
/// which is not an error worth tracking separately. `keep_alive` answers
/// `Connection: keep-alive`, and the returned [`Served`] tells the caller
/// to read the next request off the same stream.
fn respond(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Served {
    ANSWERED.with(|answered| answered.set(true));
    let _ = http::write_response(&mut stream, status, content_type, extra, body, keep_alive);
    let _ = stream.flush();
    if keep_alive {
        Served::KeepAlive
    } else {
        Served::Close
    }
}

/// Sheds one connection with `503 Service Unavailable` + `Retry-After`.
/// Called by the *acceptor* when the admission queue is full, so the
/// worker pool never sees the connection. Reads (best-effort, bounded)
/// before writing so well-behaved clients get the response instead of a
/// reset.
pub fn shed_connection(stream: TcpStream, metrics: &Metrics) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 1024];
    let mut s = &stream;
    let _ = s.read(&mut sink);
    let message = "admission queue full, retry shortly";
    reject(&stream, &metrics.rejected_total, 503, RETRY_AFTER, message);
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

    /// A `GET /query` with the query string `q`.
    fn req(q: &str) -> Request {
        http::read_request(&mut format!("GET /query?{q} HTTP/1.1\r\n\r\n").as_bytes()).unwrap()
    }

    #[test]
    fn param_parsing_validates_seed_and_top() {
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

    /// A panic before the response answers `500` with the request's id and
    /// keeps the connection; one after it writes nothing more and closes
    /// the connection. Both count as server errors.
    #[test]
    fn a_panic_answers_500_only_before_the_response() {
        const RID: &str = "00112233445566778899aabbccddeeff";
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let metrics = Metrics::default();
        let request = (RequestId::parse(RID).unwrap(), "/query");
        let before = serve_guarded(&server, &metrics, request, true, || panic!("before"));
        assert_eq!(before, Served::KeepAlive);
        let after = serve_guarded(&server, &metrics, request, true, || {
            respond(&server, 200, "text/plain", &[], "ok\n", true);
            panic!("after the response")
        });
        assert_eq!(after, Served::Close);
        assert_eq!(metrics.server_errors_total.load(Ordering::Relaxed), 2);
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert_eq!(text.matches("HTTP/1.1 ").count(), 2, "{text}");
        let second = text.find("HTTP/1.1 200").expect("the 200 went out");
        let (first, second) = text.split_at(second);
        assert!(
            first.starts_with("HTTP/1.1 500") && first.contains(RID),
            "{first}"
        );
        assert!(second.ends_with("ok\n"), "{second}");
    }

    /// Every combination of requested mode, lane, queue pressure and
    /// engine presence, with the answer each gets.
    #[test]
    fn mode_resolution_covers_every_input() {
        use RequestMode::{Approx, Auto, Exact};
        const SHED: &str = "shed";
        const UNAVAILABLE: &str = "unavailable";
        let exact = Ok(Answer::Exact);
        let approx = Ok(Answer::Approx("engine"));
        for (mode, lane, pressured, engine, want) in [
            (Exact, Lane::Normal, false, true, exact),
            (Exact, Lane::Normal, false, false, exact),
            (Exact, Lane::Normal, true, true, exact),
            (Exact, Lane::Normal, true, false, exact),
            (Exact, Lane::Degraded, false, true, Err(SHED)),
            (Exact, Lane::Degraded, false, false, Err(SHED)),
            (Exact, Lane::Degraded, true, true, Err(SHED)),
            (Exact, Lane::Degraded, true, false, Err(SHED)),
            (Approx, Lane::Normal, false, true, approx),
            (Approx, Lane::Normal, false, false, Err(UNAVAILABLE)),
            (Approx, Lane::Normal, true, true, approx),
            (Approx, Lane::Normal, true, false, Err(UNAVAILABLE)),
            (Approx, Lane::Degraded, false, true, approx),
            (Approx, Lane::Degraded, false, false, Err(UNAVAILABLE)),
            (Approx, Lane::Degraded, true, true, approx),
            (Approx, Lane::Degraded, true, false, Err(UNAVAILABLE)),
            (Auto, Lane::Normal, false, true, exact),
            (Auto, Lane::Normal, false, false, exact),
            (Auto, Lane::Normal, true, true, approx),
            (Auto, Lane::Normal, true, false, exact),
            (Auto, Lane::Degraded, false, true, approx),
            (Auto, Lane::Degraded, false, false, Err(SHED)),
            (Auto, Lane::Degraded, true, true, approx),
            (Auto, Lane::Degraded, true, false, Err(SHED)),
        ] {
            let got = resolve_mode(mode, lane, pressured, engine.then_some("engine"));
            let got = got.map_err(|refusal| match refusal {
                Refusal::Shed(_) => SHED,
                Refusal::Unavailable(_) => UNAVAILABLE,
            });
            assert_eq!(
                got, want,
                "{mode:?} on {lane:?}, pressured {pressured}, engine {engine}"
            );
        }
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
