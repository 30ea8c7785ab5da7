//! The scatter-gather front tier.
//!
//! The router accepts plain `bepi-server`-style HTTP and forwards
//! `/query` to shard daemons, placing each seed on its ring-preferred
//! shard and failing over deterministically when that shard is down:
//!
//! * **Bounded retry with backoff** — a failed attempt (transport
//!   error, 5xx) is retried on the next sibling in the seed's ring
//!   order, up to `retries` extra attempts, with a linear backoff
//!   between sequential attempts.
//! * **Hedging** — when the primary has not answered within `hedge_ms`,
//!   a duplicate request is launched at the first sibling and whichever
//!   answers first wins; the loser is abandoned (its worker thread
//!   drains the response into the connection pool or drops it).
//! * **Scatter-gather `/batch`** — `?seeds=a,b,c` fans out across the
//!   fleet grouped by primary shard, each group multiplexed over that
//!   shard's persistent connections, and the per-seed bodies are
//!   gathered *in seed order*, byte-identical to what a single daemon
//!   would have produced; `&merge=1` instead merges the per-seed top-k
//!   lists into one fleet-wide ranking (score text kept verbatim).
//!
//! Responses are proxied, not re-rendered: status, body, and the
//! lineage headers (`X-Graph-Version`, `X-Approx`, `X-Cache`,
//! `X-Shard`) pass through untouched, which is what makes router
//! answers bit-comparable to a single daemon's.

use crate::client::{AttemptTiming, HttpResponse};
use crate::metrics::{merge_expositions, render, RouteMetrics};
use crate::ring::SeedRing;
use crate::shard::{fleet_variant, quorum_version, ShardState};
use crate::supervisor::Supervisor;
use crate::trace::{AttemptEntry, AttemptKind, AttemptLog, AttemptOutcome};
use bepi_obs::trace::{clock_us, RequestId, TraceEvent, TraceExporter, ROUTER_PID};
use bepi_server::http::{self, ParseError, Request};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub listen: String,
    /// Hedge delay: a `/query` unanswered after this long launches a
    /// duplicate at the next sibling. `0` disables hedging.
    pub hedge_ms: u64,
    /// Extra attempts after the first (so `retries = 2` allows three
    /// shard attempts in total).
    pub retries: u32,
    /// Base backoff between sequential retry attempts; attempt `n`
    /// sleeps `n × backoff_ms` first.
    pub backoff_ms: u64,
    /// Health-probe interval.
    pub health_interval: Duration,
    /// Per-attempt I/O timeout against a shard.
    pub shard_timeout: Duration,
    /// Requests whose end-to-end latency meets this threshold land (one
    /// record per shard attempt) in the router slowlog
    /// (`GET /debug/slow`). `Duration::ZERO` records every request.
    pub slow_query: Duration,
    /// Entries retained by the router slowlog ring.
    pub slow_log_entries: usize,
    /// Entries retained by the traced-request ring (`GET /debug/trace`).
    pub trace_entries: usize,
    /// When set, every `?trace=1` request is appended to this file as
    /// Chrome trace-event JSON (`pid` 9999 = the router; attempts get
    /// one lane each).
    pub trace_export: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".to_string(),
            hedge_ms: 50,
            retries: 3,
            backoff_ms: 10,
            health_interval: Duration::from_millis(200),
            shard_timeout: Duration::from_secs(10),
            slow_query: Duration::from_millis(100),
            slow_log_entries: 64,
            trace_entries: 64,
            trace_export: None,
        }
    }
}

/// The running front tier.
pub struct Router;

/// Handle over a started router: address, shard introspection, and
/// shutdown.
pub struct RouterHandle {
    addr: SocketAddr,
    shards: Vec<Arc<ShardState>>,
    supervisor: Arc<Supervisor>,
    metrics: Arc<RouteMetrics>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
    exporter: Option<Arc<TraceExporter>>,
}

/// Everything one connection thread needs.
struct RouteContext {
    shards: Vec<Arc<ShardState>>,
    ring: SeedRing,
    cfg: RouterConfig,
    metrics: Arc<RouteMetrics>,
    supervisor: Arc<Supervisor>,
    slow_log: AttemptLog,
    trace_log: AttemptLog,
    exporter: Option<Arc<TraceExporter>>,
}

impl Router {
    /// Starts the front tier over an already-built supervisor (spawned
    /// children or attached daemons). Runs one synchronous health pass
    /// first, so shards that are already up enter rotation before the
    /// first request arrives.
    pub fn start(supervisor: Supervisor, cfg: RouterConfig) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let supervisor = Arc::new(supervisor);
        supervisor.tick();
        let shards: Vec<Arc<ShardState>> = supervisor.shards().to_vec();
        assert!(!shards.is_empty(), "router needs at least one shard");
        let metrics = Arc::new(RouteMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));
        let exporter = match &cfg.trace_export {
            Some(path) => Some(Arc::new(TraceExporter::create(
                path,
                &[(ROUTER_PID, "bepi-route")],
            )?)),
            None => None,
        };

        let ctx = Arc::new(RouteContext {
            shards: shards.clone(),
            ring: SeedRing::new(shards.len()),
            metrics: Arc::clone(&metrics),
            supervisor: Arc::clone(&supervisor),
            slow_log: AttemptLog::new(cfg.slow_log_entries, cfg.slow_query),
            trace_log: AttemptLog::new(cfg.trace_entries, Duration::ZERO),
            exporter: exporter.clone(),
            cfg: cfg.clone(),
        });

        let health_thread = {
            let supervisor = Arc::clone(&supervisor);
            let interval = cfg.health_interval;
            std::thread::Builder::new()
                .name("bepi-route-health".to_string())
                .spawn(move || supervisor.run(interval))?
        };

        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("bepi-route-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Small request/response messages: Nagle +
                        // delayed ACK would stall them needlessly.
                        stream.set_nodelay(true).ok();
                        let ctx = Arc::clone(&ctx);
                        // The router is I/O-bound fan-out, not solve-bound:
                        // a thread per connection is plenty for a front
                        // tier whose clients are few and batchy.
                        let _ = std::thread::Builder::new()
                            .name("bepi-route-conn".to_string())
                            .spawn(move || handle_connection(stream, &ctx));
                    }
                })?
        };

        Ok(RouterHandle {
            addr,
            shards,
            supervisor,
            metrics,
            stop,
            accept_thread: Some(accept_thread),
            health_thread: Some(health_thread),
            exporter,
        })
    }
}

impl RouterHandle {
    /// The router's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard states (for tests and introspection).
    pub fn shards(&self) -> &[Arc<ShardState>] {
        &self.shards
    }

    /// Router-level metrics.
    pub fn metrics(&self) -> &RouteMetrics {
        &self.metrics
    }

    /// The supervisor (e.g. for child pids in kill drills).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Stops accepting, stops the health loop, and shuts the shard
    /// children down gracefully.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    fn stop_all(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.supervisor.shutdown();
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        // Connection threads may straggle past the acceptor; the
        // exporter tolerates that by dropping events after close.
        if let Some(exporter) = self.exporter.take() {
            exporter.close();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() || self.health_thread.is_some() {
            self.stop_all();
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &RouteContext) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let request = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(ParseError::Io(_)) => return,
        Err(e) => {
            let msg = match e {
                ParseError::TooLarge => "request head too large",
                ParseError::BodyTooLarge => "request body too large",
                ParseError::Malformed(_) => "malformed request",
                ParseError::Io(_) => unreachable!("handled above"),
            };
            respond(&stream, 400, &[], &http::json_error_body(msg));
            return;
        }
    };
    RouteMetrics::inc(&ctx.metrics.requests_total);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/query") => route_query(&stream, &request, ctx),
        ("GET", "/batch") => route_batch(&stream, &request, ctx),
        ("GET", "/healthz") => respond(&stream, 200, &[], "ok\n"),
        ("GET", "/version") => route_version(&stream, ctx),
        ("GET", "/route/health") => route_health(&stream, ctx),
        ("GET", "/debug/slow") => respond(&stream, 200, &[], &ctx.slow_log.render_json()),
        ("GET", "/debug/trace") => respond(&stream, 200, &[], &ctx.trace_log.render_json()),
        ("GET", "/metrics") => {
            // Fleet aggregation: one scrape of the router re-emits every
            // healthy shard's exposition with a `shard` label alongside
            // the router's own series.
            let own = render(&ctx.metrics, &ctx.shards);
            let mut shard_bodies: Vec<(u64, String)> = Vec::new();
            for s in &ctx.shards {
                if !s.is_healthy() {
                    continue;
                }
                if let Ok(resp) = s.client().get("/metrics") {
                    if resp.status == 200 {
                        shard_bodies.push((s.id as u64, resp.body));
                    }
                }
            }
            let body = merge_expositions(&own, &shard_bodies);
            respond_typed(&stream, 200, "text/plain; version=0.0.4", &[], &body);
        }
        _ => {
            respond(
                &stream,
                404,
                &[],
                &http::json_error_body(
                    "unknown path (try /query, /batch, /healthz, /metrics, /version, \
                     /route/health, /debug/slow, /debug/trace)",
                ),
            );
        }
    }
}

/// `GET /version`: the quorum-advertised fleet version plus per-shard
/// detail, shaped like a shard's own `/version` where it overlaps.
fn route_version(stream: &TcpStream, ctx: &RouteContext) {
    let advertised = quorum_version(&ctx.shards);
    let healthy = ctx.shards.iter().filter(|s| s.is_healthy()).count();
    let variant = fleet_variant(&ctx.shards).map_or("null".to_string(), |v| http::json_string(&v));
    let body = format!(
        "{{\"version\":{},\"variant\":{},\"shards\":{},\"healthy\":{},\"expected_epoch\":{}}}",
        advertised,
        variant,
        ctx.shards.len(),
        healthy,
        ctx.supervisor.expected_epoch()
    );
    let version = advertised.to_string();
    respond(stream, 200, &[("X-Graph-Version", &version)], &body);
}

/// `GET /route/health`: the full fleet view.
fn route_health(stream: &TcpStream, ctx: &RouteContext) {
    let mut body = String::from("{\"shards\":[");
    for (i, s) in ctx.shards.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"id\":{},\"addr\":{},\"healthy\":{},\"version\":{},\"generation\":{},\
             \"last_probe_ms\":{}}}",
            s.id,
            http::json_string(&s.addr()),
            s.is_healthy(),
            s.version(),
            s.generation(),
            s.last_probe_age_ms()
                .map_or("null".to_string(), |ms| ms.to_string())
        ));
    }
    body.push_str(&format!(
        "],\"advertised_version\":{},\"quorum\":{}}}",
        quorum_version(&ctx.shards),
        ctx.shards.len() / 2 + 1
    ));
    respond(stream, 200, &[], &body);
}

/// Rebuilds the shard-facing path+query string for a `/query` request,
/// preserving exactly the parameters the shard contract knows about (a
/// stable, canonical order keeps shard response caches maximally hot).
fn shard_query_path(request: &Request) -> Result<(u64, String), String> {
    let seed_s = request
        .params
        .get("seed")
        .ok_or("missing required parameter: seed")?;
    let seed: u64 = seed_s
        .parse()
        .map_err(|_| format!("bad seed: {seed_s:?}"))?;
    let mut path = format!("/query?seed={seed}");
    for key in ["top", "mode", "trace"] {
        if let Some(v) = request.params.get(key) {
            path.push_str(&format!("&{key}={v}"));
        }
    }
    Ok((seed, path))
}

/// The shard attempt order for a seed: ring order, healthy shards
/// first. Unhealthy shards stay in the list as a last resort — with the
/// whole fleet marked down, trying beats failing.
fn attempt_order(ctx: &RouteContext, seed: u64) -> Vec<usize> {
    let ring_order = ctx.ring.order(seed);
    let mut order: Vec<usize> = ring_order
        .iter()
        .copied()
        .filter(|&s| ctx.shards[s].is_healthy())
        .collect();
    for s in ring_order {
        if !order.contains(&s) {
            order.push(s);
        }
    }
    order
}

/// One shard attempt, recorded into the shard's counters. A transport
/// failure marks the shard unhealthy on the spot (the health loop
/// re-admits it later); a 5xx does not — the shard is alive, just
/// unable to serve this request. The request id rides along as
/// `X-Request-Id` so the shard's slowlog and trace correlate with ours.
fn attempt(
    shard: &ShardState,
    path: &str,
    rid_hex: &str,
) -> std::io::Result<(HttpResponse, AttemptTiming)> {
    let started = Instant::now();
    shard.requests_total.fetch_add(1, Ordering::Relaxed);
    match shard.client().get_with(path, &[("X-Request-Id", rid_hex)]) {
        Ok((resp, timing)) => {
            if let Some(v) = resp.graph_version() {
                shard.observe_version(v);
            }
            if resp.status < 500 {
                shard.latency.observe(started.elapsed().as_secs_f64());
            }
            Ok((resp, timing))
        }
        Err(e) => {
            shard.errors_total.fetch_add(1, Ordering::Relaxed);
            shard.mark(false);
            Err(e)
        }
    }
}

/// What the router learned from one shard attempt, in launch order.
/// Attempts still in flight when the request resolves stay `Abandoned`.
struct AttemptDetail {
    shard: usize,
    kind: AttemptKind,
    timing: AttemptTiming,
    outcome: AttemptOutcome,
}

/// Fetches `path` for `seed` with failover and (optionally) hedging.
/// Returns the winning response plus the id of the shard that served
/// it (`None` when every allowed attempt failed), and the per-attempt
/// record that feeds the router slowlog and trace splice.
fn fetch_with_failover(
    ctx: &RouteContext,
    seed: u64,
    path: &str,
    hedge: bool,
    rid_hex: &str,
) -> (Option<(usize, HttpResponse)>, Vec<AttemptDetail>) {
    let order = attempt_order(ctx, seed);
    let max_attempts = (1 + ctx.cfg.retries as usize).min(order.len().max(1));
    let hedge_delay = Duration::from_millis(ctx.cfg.hedge_ms);
    let use_hedge = hedge && ctx.cfg.hedge_ms > 0 && order.len() > 1;
    let primary = ctx.ring.primary(seed);

    let (tx, rx) = mpsc::channel::<(usize, std::io::Result<(HttpResponse, AttemptTiming)>)>();
    let mut details: Vec<AttemptDetail> = Vec::new();
    let mut outstanding = 0usize;
    let mut hedged = false;
    let launch =
        |i: usize, kind: AttemptKind, outstanding: &mut usize, details: &mut Vec<AttemptDetail>| {
            let shard = Arc::clone(&ctx.shards[order[i]]);
            details.push(AttemptDetail {
                shard: order[i],
                kind,
                timing: AttemptTiming::default(),
                outcome: AttemptOutcome::Abandoned,
            });
            let path = path.to_string();
            let rid_hex = rid_hex.to_string();
            let tx = tx.clone();
            *outstanding += 1;
            let _ = std::thread::Builder::new()
                .name("bepi-route-attempt".to_string())
                .spawn(move || {
                    let result = attempt(&shard, &path, &rid_hex);
                    let _ = tx.send((i, result));
                });
        };

    // The first launch is "primary" when the ring's first choice is
    // actually the seed's primary shard; with the primary filtered out
    // as unhealthy it is already a failover.
    let first_kind = if order[0] == primary {
        AttemptKind::Primary
    } else {
        AttemptKind::Failover
    };
    launch(0, first_kind, &mut outstanding, &mut details);
    let mut launched = 1usize;
    let overall_deadline = Instant::now() + ctx.cfg.shard_timeout + hedge_delay;
    let mut last_5xx: Option<(usize, HttpResponse)> = None;
    loop {
        // While exactly one un-hedged attempt is in flight, wait only
        // the hedge delay; afterwards wait out the overall budget.
        let wait = if use_hedge && !hedged && outstanding == 1 && launched < order.len() {
            hedge_delay
        } else {
            overall_deadline.saturating_duration_since(Instant::now())
        };
        match rx.recv_timeout(wait) {
            Ok((i, Ok((resp, timing)))) => {
                outstanding -= 1;
                details[i].timing = timing;
                details[i].outcome = AttemptOutcome::Status(resp.status);
                let shard_id = details[i].shard;
                if resp.status < 500 {
                    return (Some((shard_id, resp)), details);
                }
                // 5xx: remember the best loser (a 503 with Retry-After
                // is a real answer if every sibling also fails).
                last_5xx = Some((shard_id, resp));
                if launched < max_attempts {
                    RouteMetrics::inc(&ctx.metrics.retries_total);
                    std::thread::sleep(Duration::from_millis(ctx.cfg.backoff_ms * launched as u64));
                    launch(launched, AttemptKind::Retry, &mut outstanding, &mut details);
                    launched += 1;
                } else if outstanding == 0 {
                    return (last_5xx, details);
                }
            }
            Ok((i, Err(_))) => {
                outstanding -= 1;
                details[i].outcome = AttemptOutcome::IoError;
                if launched < max_attempts {
                    RouteMetrics::inc(&ctx.metrics.retries_total);
                    std::thread::sleep(Duration::from_millis(ctx.cfg.backoff_ms * launched as u64));
                    launch(launched, AttemptKind::Retry, &mut outstanding, &mut details);
                    launched += 1;
                } else if outstanding == 0 {
                    return (last_5xx, details);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if use_hedge && !hedged && launched < order.len() {
                    // Tail-latency hedge: duplicate the request at the
                    // next sibling; first answer wins.
                    hedged = true;
                    RouteMetrics::inc(&ctx.metrics.hedged_total);
                    launch(launched, AttemptKind::Hedge, &mut outstanding, &mut details);
                    launched += 1;
                } else {
                    return (last_5xx, details);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return (last_5xx, details),
        }
    }
}

/// Adopts the caller's well-formed `X-Request-Id` or mints a fresh one:
/// the router is the fleet's ingress, so this is where correlation ids
/// are born. Malformed ids are replaced, never echoed.
fn ingress_request_id(request: &Request) -> RequestId {
    request
        .request_id
        .as_deref()
        .and_then(RequestId::parse)
        .unwrap_or_else(RequestId::mint)
}

/// True when the client asked for a spliced trace block.
fn is_traced(request: &Request) -> bool {
    request.params.get("trace").map(String::as_str) == Some("1")
}

/// `GET /query`: proxy with failover + hedging.
fn route_query(stream: &TcpStream, request: &Request, ctx: &RouteContext) {
    let started = Instant::now();
    let rid = ingress_request_id(request);
    let rid_hex = rid.to_hex();
    let traced = is_traced(request);
    let (seed, path) = match shard_query_path(request) {
        Ok(p) => p,
        Err(msg) => {
            respond(
                stream,
                400,
                &[("X-Request-Id", &rid_hex)],
                &http::json_error_body(&msg),
            );
            return;
        }
    };
    let (won, attempts) = fetch_with_failover(ctx, seed, &path, true, &rid_hex);
    let total_us = started.elapsed().as_micros() as u64;
    record_attempts(ctx, rid, &rid_hex, seed, total_us, &attempts, traced);
    match won {
        Some((shard_id, resp)) => {
            if shard_id != ctx.ring.primary(seed) {
                RouteMetrics::inc(&ctx.metrics.failovers_total);
            }
            if traced && resp.status == 200 {
                // Wrap the shard's own trace block with the router-side
                // view: which shards were tried, why, and how long each
                // hop phase took.
                let body = splice_route_block(&resp.body, &rid_hex, shard_id, &attempts);
                proxy_body(stream, &resp, &body, &rid_hex);
            } else {
                proxy_body(stream, &resp, &resp.body, &rid_hex);
            }
        }
        None => {
            RouteMetrics::inc(&ctx.metrics.errors_total);
            respond(
                stream,
                502,
                &[("Retry-After", "1"), ("X-Request-Id", &rid_hex)],
                &http::json_error_body("no shard could answer (fleet unavailable)"),
            );
        }
    }
}

/// Books every attempt of one routed request into the slowlog (subject
/// to its threshold) and — when traced — the trace ring, a structured
/// log line, and the Chrome export (parent span on lane 0, one lane per
/// attempt).
fn record_attempts(
    ctx: &RouteContext,
    rid: RequestId,
    rid_hex: &str,
    seed: u64,
    total_us: u64,
    attempts: &[AttemptDetail],
    traced: bool,
) {
    for (i, a) in attempts.iter().enumerate() {
        let entry = AttemptEntry {
            request_id: rid,
            seed,
            attempt: i as u64,
            shard: a.shard as u64,
            kind: a.kind,
            connect_us: a.timing.connect_us,
            send_us: a.timing.send_us,
            wait_us: a.timing.wait_us,
            outcome: a.outcome,
            total_us,
        };
        ctx.slow_log.record(&entry);
        if traced {
            ctx.trace_log.record(&entry);
        }
    }
    if !traced {
        return;
    }
    bepi_obs::info!(
        "route",
        "traced request",
        request_id = rid_hex,
        seed = seed,
        attempts = attempts.len(),
        total_us = total_us
    );
    let Some(exporter) = &ctx.exporter else {
        return;
    };
    let end = clock_us();
    let start = end.saturating_sub(total_us);
    let name = format!("route seed={seed}");
    exporter.emit(&TraceEvent {
        name: &name,
        cat: "route",
        ts_us: start,
        dur_us: total_us,
        pid: ROUTER_PID,
        tid: 0,
        args: &[("request_id", rid_hex)],
    });
    for (i, a) in attempts.iter().enumerate() {
        let hop_us = a.timing.connect_us + a.timing.send_us + a.timing.wait_us;
        let name = format!("attempt shard={} {}", a.shard, a.kind.name());
        let outcome = a.outcome.name();
        exporter.emit(&TraceEvent {
            name: &name,
            cat: "route",
            ts_us: start,
            // Abandoned attempts have no completed round trip; show
            // them spanning the whole request.
            dur_us: if hop_us > 0 { hop_us } else { total_us },
            pid: ROUTER_PID,
            tid: i as u64 + 1,
            args: &[("request_id", rid_hex), ("outcome", &outcome)],
        });
    }
}

/// Splices the router's per-attempt view into a shard's already-traced
/// `/query` body, just before the trailing `}` — the shard's own
/// `trace` block stays untouched inside.
fn splice_route_block(
    body: &str,
    rid_hex: &str,
    shard_id: usize,
    attempts: &[AttemptDetail],
) -> String {
    let mut block =
        format!(",\"route\":{{\"request_id\":\"{rid_hex}\",\"shard\":{shard_id},\"attempts\":[");
    for (i, a) in attempts.iter().enumerate() {
        if i > 0 {
            block.push(',');
        }
        block.push_str(&attempt_json(a, None));
    }
    block.push_str("]}");
    match body.rfind('}') {
        Some(pos) => {
            let mut out = String::with_capacity(body.len() + block.len());
            out.push_str(&body[..pos]);
            out.push_str(&block);
            out.push_str(&body[pos..]);
            out
        }
        None => body.to_string(),
    }
}

/// One attempt as a JSON object (with its seed when part of a batch).
fn attempt_json(a: &AttemptDetail, seed: Option<u64>) -> String {
    let seed_field = seed.map_or(String::new(), |s| format!("\"seed\":{s},"));
    format!(
        "{{{seed_field}\"shard\":{},\"kind\":\"{}\",\"connect_us\":{},\"send_us\":{},\
         \"wait_us\":{},\"outcome\":\"{}\"}}",
        a.shard,
        a.kind.name(),
        a.timing.connect_us,
        a.timing.send_us,
        a.timing.wait_us,
        a.outcome.name()
    )
}

/// `GET /batch?seeds=a,b,c[&top=K][&mode=M][&merge=1]`:
/// scatter per-seed queries across the fleet, gather in seed order.
fn route_batch(stream: &TcpStream, request: &Request, ctx: &RouteContext) {
    let started = Instant::now();
    let rid = ingress_request_id(request);
    let rid_hex = rid.to_hex();
    let traced = is_traced(request);
    let Some(seeds_s) = request.params.get("seeds") else {
        respond(
            stream,
            400,
            &[("X-Request-Id", &rid_hex)],
            &http::json_error_body("missing required parameter: seeds (comma-separated)"),
        );
        return;
    };
    let seeds: Result<Vec<u64>, _> = seeds_s
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect();
    let Ok(seeds) = seeds else {
        respond(
            stream,
            400,
            &[("X-Request-Id", &rid_hex)],
            &http::json_error_body(&format!("bad seeds list: {seeds_s:?}")),
        );
        return;
    };
    if seeds.is_empty() {
        respond(
            stream,
            400,
            &[("X-Request-Id", &rid_hex)],
            &http::json_error_body("empty seeds list"),
        );
        return;
    }
    let merge = request.params.get("merge").map(String::as_str) == Some("1");
    let top_k: usize = request
        .params
        .get("top")
        .and_then(|t| t.parse().ok())
        .unwrap_or(bepi_server::worker::DEFAULT_TOP_K);

    // Scatter: group seed positions by primary shard so each group
    // multiplexes over its shard's persistent connections; gather into
    // a slot per input position so output order is input order.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); ctx.shards.len()];
    for (pos, &seed) in seeds.iter().enumerate() {
        groups[attempt_order(ctx, seed)[0]].push(pos);
    }
    type BatchSlot = (Option<(usize, HttpResponse)>, Vec<AttemptDetail>);
    let mut slots: Vec<BatchSlot> = Vec::new();
    slots.resize_with(seeds.len(), || (None, Vec::new()));
    let slot_refs: Vec<std::sync::Mutex<&mut BatchSlot>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for positions in groups.iter().filter(|g| !g.is_empty()) {
            let slot_refs = &slot_refs;
            let seeds = &seeds;
            let rid_hex = &rid_hex;
            scope.spawn(move || {
                for &pos in positions {
                    let seed = seeds[pos];
                    let mut path = format!("/query?seed={seed}");
                    for key in ["top", "mode", "trace"] {
                        if let Some(v) = request.params.get(key) {
                            path.push_str(&format!("&{key}={v}"));
                        }
                    }
                    // Per-seed failover, no hedging: the batch already
                    // saturates the fleet; duplicating every straggler
                    // would double the load exactly when it hurts. The
                    // whole batch shares one request id.
                    let got = fetch_with_failover(ctx, seed, &path, false, rid_hex);
                    **slot_refs[pos].lock().unwrap_or_else(|p| p.into_inner()) = got;
                }
            });
        }
    });

    let total_us = started.elapsed().as_micros() as u64;
    let mut answered: Vec<(usize, HttpResponse)> = Vec::with_capacity(seeds.len());
    let mut batch_attempts: Vec<(u64, AttemptDetail)> = Vec::new();
    let mut failed: Option<(usize, Option<HttpResponse>)> = None;
    for (pos, (slot, attempts)) in slots.into_iter().enumerate() {
        record_attempts(ctx, rid, &rid_hex, seeds[pos], total_us, &attempts, traced);
        batch_attempts.extend(attempts.into_iter().map(|a| (seeds[pos], a)));
        match slot {
            Some((shard_id, resp)) if resp.status == 200 => answered.push((shard_id, resp)),
            other => {
                failed.get_or_insert((pos, other.map(|(_, resp)| resp)));
            }
        }
    }
    match failed {
        Some((_, Some(resp))) => {
            RouteMetrics::inc(&ctx.metrics.errors_total);
            proxy_body(stream, &resp, &resp.body, &rid_hex);
            return;
        }
        Some((pos, None)) => {
            RouteMetrics::inc(&ctx.metrics.errors_total);
            respond(
                stream,
                502,
                &[("Retry-After", "1"), ("X-Request-Id", &rid_hex)],
                &http::json_error_body(&format!(
                    "no shard could answer seed {} (fleet unavailable)",
                    seeds[pos]
                )),
            );
            return;
        }
        None => {}
    }

    let version = answered
        .iter()
        .filter_map(|(_, r)| r.graph_version())
        .max()
        .unwrap_or(0)
        .to_string();
    let mut body = if merge {
        merge_topk(&seeds, &answered, top_k)
    } else {
        // Per-seed bodies verbatim, in seed order: byte-identical to
        // asking one daemon the same seeds one at a time.
        let mut body = String::from("{\"results\":[");
        for (i, (_, resp)) in answered.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&resp.body);
        }
        body.push_str("]}");
        body
    };
    if traced {
        // Aggregate scatter-gather view: every attempt of every seed,
        // spliced after the gathered results (each per-seed body still
        // carries its own shard's trace block when not merging).
        let mut block = format!(",\"route\":{{\"request_id\":\"{rid_hex}\",\"attempts\":[");
        for (i, (seed, a)) in batch_attempts.iter().enumerate() {
            if i > 0 {
                block.push(',');
            }
            block.push_str(&attempt_json(a, Some(*seed)));
        }
        block.push_str("]}");
        if let Some(pos) = body.rfind('}') {
            body.insert_str(pos, &block);
        }
    }
    respond(
        stream,
        200,
        &[("X-Graph-Version", &version), ("X-Request-Id", &rid_hex)],
        &body,
    );
}

/// One entry of a per-seed top-k list, with the score kept as the exact
/// text token the shard rendered (parsed only for ordering).
struct MergeEntry<'a> {
    seed: u64,
    node: u64,
    score_text: &'a str,
    score: f64,
}

/// Merges per-seed `results` arrays into one fleet-wide top-k ranking:
/// score descending, ties broken by (seed, node) ascending so the merge
/// is fully deterministic. Score text passes through verbatim — the
/// merged list quotes the shards, it does not re-round them.
fn merge_topk(seeds: &[u64], answered: &[(usize, HttpResponse)], top_k: usize) -> String {
    let mut entries: Vec<MergeEntry<'_>> = Vec::new();
    for (&seed, (_, resp)) in seeds.iter().zip(answered) {
        entries.extend(
            parse_results(&resp.body)
                .into_iter()
                .map(|(node, score_text)| MergeEntry {
                    seed,
                    node,
                    score_text,
                    score: score_text.parse().unwrap_or(f64::NEG_INFINITY),
                }),
        );
    }
    entries.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.seed, a.node).cmp(&(b.seed, b.node)))
    });
    entries.truncate(top_k);
    let mut body = format!("{{\"merged\":true,\"top\":{top_k},\"results\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"seed\":{},\"node\":{},\"score\":{}}}",
            e.seed, e.node, e.score_text
        ));
    }
    body.push_str("]}");
    body
}

/// Extracts `(node, score-text)` pairs from a shard `/query` body's
/// `"results":[{"node":N,"score":S},...]` array without re-rendering
/// the score tokens.
fn parse_results(body: &str) -> Vec<(u64, &str)> {
    let mut out = Vec::new();
    let Some(start) = body.find("\"results\":[") else {
        return out;
    };
    let mut rest = &body[start + "\"results\":[".len()..];
    while let Some(node_at) = rest.find("{\"node\":") {
        rest = &rest[node_at + "{\"node\":".len()..];
        let Some(comma) = rest.find(',') else { break };
        let Ok(node) = rest[..comma].trim().parse::<u64>() else {
            break;
        };
        let Some(score_at) = rest.find("\"score\":") else {
            break;
        };
        rest = &rest[score_at + "\"score\":".len()..];
        let end = rest.find('}').unwrap_or(rest.len());
        out.push((node, rest[..end].trim()));
        rest = &rest[end..];
    }
    out
}

/// Proxies a shard response: status, the given body (the shard's
/// verbatim, or the trace-spliced variant), and the lineage headers a
/// client of a single daemon would have seen. The request id is always
/// echoed — from the shard's echo when present, from the router's own
/// copy otherwise (e.g. a pre-trace-era shard mid-rollout).
fn proxy_body(stream: &TcpStream, resp: &HttpResponse, body: &str, rid_hex: &str) {
    const FORWARDED: [&str; 7] = [
        "x-graph-version",
        "x-approx",
        "x-cache",
        "x-shard",
        "x-request-id",
        "retry-after",
        "allow",
    ];
    let mut headers: Vec<(&str, &str)> = resp
        .headers
        .iter()
        .filter(|(n, _)| FORWARDED.contains(&n.as_str()))
        .map(|(n, v)| (canonical_header(n), v.as_str()))
        .collect();
    if !headers.iter().any(|(n, _)| *n == "X-Request-Id") {
        headers.push(("X-Request-Id", rid_hex));
    }
    let content_type = resp.header("content-type").unwrap_or("application/json");
    respond_typed(stream, resp.status, content_type, &headers, body);
}

/// Maps a lower-cased forwarded header name back to its canonical
/// spelling (cosmetic: clients match case-insensitively, but the proxy
/// should look like the daemon it fronts).
fn canonical_header(lower: &str) -> &'static str {
    match lower {
        "x-graph-version" => "X-Graph-Version",
        "x-approx" => "X-Approx",
        "x-cache" => "X-Cache",
        "x-shard" => "X-Shard",
        "x-request-id" => "X-Request-Id",
        "retry-after" => "Retry-After",
        "allow" => "Allow",
        _ => "X-Forwarded-Header",
    }
}

fn respond(stream: &TcpStream, status: u16, extra: &[(&str, &str)], body: &str) {
    respond_typed(stream, status, "application/json", extra, body);
}

fn respond_typed(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
) {
    let _ = http::write_response(&mut stream, status, content_type, extra, body);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_results_extracts_nodes_and_score_text() {
        let body = "{\"seed\":7,\"top\":3,\"mode\":\"exact\",\"iterations\":12,\
                    \"residual\":1e-10,\"results\":[{\"node\":7,\"score\":0.05},\
                    {\"node\":3,\"score\":6.938893903907228e-18},{\"node\":1,\"score\":0.001}]}";
        let got = parse_results(body);
        assert_eq!(
            got,
            vec![(7, "0.05"), (3, "6.938893903907228e-18"), (1, "0.001")]
        );
    }

    #[test]
    fn parse_results_tolerates_empty_and_garbage() {
        assert!(parse_results("{\"results\":[]}").is_empty());
        assert!(parse_results("not json at all").is_empty());
        assert!(parse_results("{\"results\":[{\"node\":x}]}").is_empty());
    }

    #[test]
    fn merge_keeps_score_text_verbatim_and_sorts_desc() {
        let mk = |seed: u64, body: &str| HttpResponse {
            status: 200,
            headers: vec![("x-graph-version".to_string(), seed.to_string())],
            body: body.to_string(),
        };
        let seeds = [1u64, 2];
        let answered = vec![
            (
                0usize,
                mk(
                    1,
                    "{\"results\":[{\"node\":5,\"score\":0.5},{\"node\":6,\"score\":0.125}]}",
                ),
            ),
            (1usize, mk(2, "{\"results\":[{\"node\":9,\"score\":0.25}]}")),
        ];
        let merged = merge_topk(&seeds, &answered, 2);
        assert_eq!(
            merged,
            "{\"merged\":true,\"top\":2,\"results\":[\
             {\"seed\":1,\"node\":5,\"score\":0.5},\
             {\"seed\":2,\"node\":9,\"score\":0.25}]}"
        );
        // Ties break deterministically by (seed, node).
        let answered_tie = vec![
            (0usize, mk(1, "{\"results\":[{\"node\":9,\"score\":0.5}]}")),
            (1usize, mk(2, "{\"results\":[{\"node\":5,\"score\":0.5}]}")),
        ];
        let merged = merge_topk(&seeds, &answered_tie, 2);
        assert_eq!(
            merged,
            "{\"merged\":true,\"top\":2,\"results\":[\
             {\"seed\":1,\"node\":9,\"score\":0.5},\
             {\"seed\":2,\"node\":5,\"score\":0.5}]}"
        );
    }
}
