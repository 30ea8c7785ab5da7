//! The daemon's `/metrics` exposition: its request counters and `/query`
//! latency histogram, the live engine's block, and the process-global
//! solver, WAL and phase instruments, all written by one
//! [`Exposition`] writer.
//!
//! Everything is lock-free `AtomicU64`s with relaxed ordering: metrics
//! tolerate slightly stale cross-thread reads, and the query hot path
//! must not serialize on a metrics lock.

use bepi_live::LiveStatus;
use bepi_obs::telemetry::Kind::{self, Counter, Gauge};
use bepi_obs::telemetry::{Exposition, Histogram};
use bepi_obs::PhaseSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds, in seconds. Chosen to straddle the
/// observed per-query range: sub-millisecond cache hits up to multi-second
/// cold GMRES solves on large indices.
pub const LATENCY_BUCKETS_SECS: [f64; 12] = [
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
];

/// All counters exported on `/metrics`.
#[derive(Debug)]
pub struct Metrics {
    /// Connections accepted (including ones later shed with 503).
    pub connections_total: AtomicU64,
    /// Requests whose head parsed successfully.
    pub requests_total: AtomicU64,
    /// `/query` requests answered with 200.
    pub queries_total: AtomicU64,
    /// `/query` responses served from the LRU cache.
    pub cache_hits_total: AtomicU64,
    /// `/query` responses that ran the solver.
    pub cache_misses_total: AtomicU64,
    /// `/query` responses answered by the approximate lane (any mode
    /// that resolved to approximate, cache hits included).
    pub approx_requests_total: AtomicU64,
    /// Connections admitted through the degraded overflow lane because
    /// the main admission queue was full.
    pub degraded_total: AtomicU64,
    /// Connections shed with 503 because the admission queue was full.
    pub rejected_total: AtomicU64,
    /// Requests shed with 504 because their deadline expired in queue.
    pub timeouts_total: AtomicU64,
    /// 4xx responses (malformed requests, unknown paths, bad seeds...).
    pub client_errors_total: AtomicU64,
    /// 5xx responses other than queue rejections (solver failures...).
    pub server_errors_total: AtomicU64,
    /// Requests currently being processed by workers.
    pub in_flight: AtomicU64,
    /// Connections admitted to the queue and not yet picked up by a
    /// worker.
    pub queue_depth: AtomicU64,
    /// End-to-end `/query` service time in seconds (dequeue to response
    /// written), over [`LATENCY_BUCKETS_SECS`].
    pub query_latency: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        let zero = || AtomicU64::new(0);
        Metrics {
            connections_total: zero(),
            requests_total: zero(),
            queries_total: zero(),
            cache_hits_total: zero(),
            cache_misses_total: zero(),
            approx_requests_total: zero(),
            degraded_total: zero(),
            rejected_total: zero(),
            timeouts_total: zero(),
            client_errors_total: zero(),
            server_errors_total: zero(),
            in_flight: zero(),
            queue_depth: zero(),
            query_latency: Histogram::new(&LATENCY_BUCKETS_SECS),
        }
    }
}

/// Name, kind and help of the families [`Metrics::render`] writes from
/// its counters, in field order.
const FAMILIES: [(&str, Kind, &str); 13] = [
    (
        "bepi_connections_total",
        Counter,
        "Connections accepted by the listener.",
    ),
    (
        "bepi_requests_total",
        Counter,
        "HTTP requests successfully parsed.",
    ),
    (
        "bepi_queries_total",
        Counter,
        "Successful /query responses (HTTP 200).",
    ),
    (
        "bepi_cache_hits_total",
        Counter,
        "/query responses served from the result cache.",
    ),
    (
        "bepi_cache_misses_total",
        Counter,
        "/query responses that ran the RWR solver.",
    ),
    (
        "bepi_approx_requests_total",
        Counter,
        "/query responses answered by the approximate lane.",
    ),
    (
        "bepi_degraded_total",
        Counter,
        "Connections admitted through the degraded overflow lane.",
    ),
    (
        "bepi_rejected_total",
        Counter,
        "Connections shed with 503 (admission queue full).",
    ),
    (
        "bepi_timeouts_total",
        Counter,
        "Requests shed with 504 (deadline expired before service).",
    ),
    ("bepi_client_errors_total", Counter, "4xx responses."),
    (
        "bepi_server_errors_total",
        Counter,
        "5xx responses other than queue rejections.",
    ),
    (
        "bepi_inflight_requests",
        Gauge,
        "Requests currently being processed.",
    ),
    (
        "bepi_queue_depth",
        Gauge,
        "Connections waiting in the admission queue.",
    ),
];

impl Metrics {
    /// Convenience relaxed increment.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience relaxed read.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition format (`text/plain;
    /// version=0.0.4`).
    pub fn render(&self) -> String {
        let counters = [
            &self.connections_total,
            &self.requests_total,
            &self.queries_total,
            &self.cache_hits_total,
            &self.cache_misses_total,
            &self.approx_requests_total,
            &self.degraded_total,
            &self.rejected_total,
            &self.timeouts_total,
            &self.client_errors_total,
            &self.server_errors_total,
            &self.in_flight,
            &self.queue_depth,
        ];
        let mut e = Exposition::default();
        for ((name, kind, help), counter) in FAMILIES.into_iter().zip(counters) {
            e.scalar(name, kind, help, Self::get(counter) as f64);
        }
        let latency = "bepi_query_latency_seconds";
        e.family(latency, Kind::Histogram, "End-to-end /query service time.")
            .histogram(latency, &self.query_latency);
        e.finish()
    }
}

/// Renders the live-update block appended to `/metrics` by the daemon
/// from one [`LiveStatus`] snapshot of the engine.
pub fn render_live_metrics(s: &LiveStatus) -> String {
    let secs = |us: u64| us as f64 / 1e6;
    let path = "bepi_rebuild_path_seconds";
    let mut e = Exposition::default();
    e.scalar(
        "bepi_graph_version",
        Gauge,
        "Snapshot version currently served (bumped by each hot-swap).",
        s.version as f64,
    )
    .scalar(
        "bepi_index_heap_bytes",
        Gauge,
        "Served index bytes held on the process heap.",
        s.index_bytes.heap as f64,
    )
    .scalar(
        "bepi_index_mapped_bytes",
        Gauge,
        "Served index bytes backed by a shared file mapping (page cache).",
        s.index_bytes.mapped as f64,
    )
    .scalar(
        "bepi_pending_updates",
        Gauge,
        "Edge updates buffered but not yet visible to queries.",
        s.pending as f64,
    )
    .scalar(
        "bepi_rebuilds_total",
        Counter,
        "Background index rebuilds completed.",
        s.rebuilds as f64,
    )
    .scalar(
        "bepi_numeric_rebuilds_total",
        Counter,
        "Rebuilds served by the numeric-only (plan-frozen) refactorization path.",
        s.numeric_rebuilds as f64,
    )
    .scalar(
        "bepi_structural_rebuilds_total",
        Counter,
        "Rebuilds that ran the full preprocessing pipeline.",
        s.structural_rebuilds as f64,
    )
    .family(
        path,
        Counter,
        "Cumulative rebuild wall time, split by rebuild path.",
    )
    .sample(path, Some(("path", "numeric")), secs(s.numeric_rebuild_us))
    .sample(path, Some(("path", "full")), secs(s.full_rebuild_us))
    .scalar(
        "bepi_updates_total",
        Counter,
        "Edge updates accepted via POST /edges.",
        s.updates as f64,
    )
    .scalar(
        "bepi_last_rebuild_seconds",
        Gauge,
        "Duration of the most recent rebuild.",
        secs(s.last_rebuild_us),
    );
    e.finish()
}

/// Renders the process-global observability block: the GMRES iteration
/// histogram and residual gauge fed by `bepi_core`'s query path, the WAL
/// fsync latency histogram fed by `bepi_live`, and one
/// `bepi_phase_seconds_total{phase=...}` family per registered span phase
/// (preprocessing stages, WAL replay, rebuild, checkpoint, hot-swap).
///
/// These instruments live in `bepi-obs` statics rather than in
/// [`Metrics`], so every component of the process — batch queries
/// included — is accounted in one registry.
pub fn render_obs_metrics() -> String {
    use bepi_obs::telemetry::{gmres_iterations, gmres_residual, wal_fsync_seconds};
    let (iterations, fsync) = ("bepi_gmres_iterations", "bepi_wal_fsync_seconds");
    let mut e = Exposition::default();
    e.family(
        iterations,
        Kind::Histogram,
        "Inner-solver iterations per cache-missing query.",
    )
    .histogram(iterations, gmres_iterations())
    .scalar(
        "bepi_gmres_residual",
        Gauge,
        "Final relative residual of the most recent solve.",
        gmres_residual().get(),
    )
    .family(fsync, Kind::Histogram, "WAL append fsync latency.")
    .histogram(fsync, wal_fsync_seconds());
    type Stat = fn(&PhaseSnapshot) -> f64;
    let phase_families: [(&str, Kind, &str, Stat); 3] = [
        (
            "bepi_phase_seconds_total",
            Counter,
            "Cumulative wall time per instrumented phase.",
            |p| p.total.as_secs_f64(),
        ),
        (
            "bepi_phase_invocations_total",
            Counter,
            "Completed spans per instrumented phase.",
            |p| p.count as f64,
        ),
        (
            "bepi_phase_max_seconds",
            Gauge,
            "Longest single span per instrumented phase.",
            |p| p.max.as_secs_f64(),
        ),
    ];
    let phases = bepi_obs::snapshot();
    if phases.is_empty() {
        return e.finish();
    }
    for (name, kind, help, stat) in phase_families {
        e.family(name, kind, help);
        for p in &phases {
            e.sample(name, Some(("phase", &p.name)), stat(p));
        }
    }
    e.finish()
}

/// Parses one counter value back out of rendered metrics text — shared by
/// the integration tests and the CLI's shutdown summary.
pub fn parse_metric(rendered: &str, name: &str) -> Option<f64> {
    rendered.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_sparse::Bytes;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.query_latency.observe(0.0001); // <= 0.25ms bucket
        m.query_latency.observe(0.003); // <= 5ms bucket
        m.query_latency.observe(5.0); // +Inf bucket
        let out = m.render();
        let x = "bepi_query_latency_seconds";
        assert!(out.contains(&format!("{x}_bucket{{le=\"0.00025\"}} 1\n")));
        assert!(out.contains(&format!("{x}_bucket{{le=\"0.005\"}} 2\n")));
        assert!(out.contains(&format!("{x}_bucket{{le=\"1\"}} 2\n")));
        assert!(out.contains(&format!("{x}_bucket{{le=\"+Inf\"}} 3\n")));
        assert!(out.contains(&format!("{x}_count 3\n")));
        assert_eq!(m.query_latency.count(), 3);
    }

    /// A scrape racing an observe must still print a `_count` equal to
    /// its `+Inf` bucket — the consistency `metrics_check` enforces.
    #[test]
    fn latency_count_matches_inf_bucket_while_observed() {
        use std::sync::{atomic::AtomicBool, Arc, Barrier};
        let m = Arc::new(Metrics::default());
        let done = Arc::new(AtomicBool::new(false));
        let started = Arc::new(Barrier::new(2));
        let observer = {
            let (m, done, started) = (m.clone(), done.clone(), started.clone());
            std::thread::spawn(move || {
                m.query_latency.observe(0.0);
                started.wait();
                let mut i = 0u64;
                while !done.load(Ordering::Relaxed) {
                    m.query_latency.observe((i % 2000) as f64 * 1e-3);
                    i += 1;
                }
            })
        };
        // Every render below overlaps the observer's loop.
        started.wait();
        for _ in 0..10_000 {
            let text = m.render();
            let inf = parse_metric(&text, "bepi_query_latency_seconds_bucket{le=\"+Inf\"}");
            let count = parse_metric(&text, "bepi_query_latency_seconds_count");
            assert_eq!(inf, count, "_count disagrees with the +Inf bucket");
        }
        done.store(true, Ordering::Relaxed);
        observer.join().unwrap();
    }

    /// Satellite: every rendered line must parse, and every `le` label
    /// must be a plain decimal float — never scientific notation, which
    /// Prometheus scrapers reject.
    #[test]
    fn every_rendered_line_parses_and_le_is_decimal() {
        let m = Metrics::default();
        m.query_latency.observe(0.00008);
        m.query_latency.observe(0.04);
        bepi_obs::telemetry::record_solve(17, 3.2e-10);
        bepi_obs::telemetry::wal_fsync_seconds().observe(0.00007);
        bepi_obs::record_duration("test.metrics_render", Duration::from_millis(5));
        let mut text = m.render();
        text.push_str(&render_live_metrics(&LiveStatus {
            version: 1,
            ..LiveStatus::default()
        }));
        text.push_str(&render_obs_metrics());
        let mut le_labels = 0;
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(!series.is_empty());
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
            if let Some(idx) = series.find("le=\"") {
                let rest = &series[idx + 4..];
                let le = &rest[..rest.find('"').expect("closing quote")];
                le_labels += 1;
                if le != "+Inf" {
                    assert!(
                        !le.contains(['e', 'E']),
                        "scientific notation in le label: {line:?}"
                    );
                    le.parse::<f64>().expect("le parses as f64");
                }
            }
        }
        // All three histograms rendered their bucket lines.
        assert!(le_labels >= 3 * 13, "saw only {le_labels} le labels");
        assert!(
            text.contains("bepi_query_latency_seconds_bucket{le=\"0.00025\"}"),
            "sub-millisecond bounds render as plain decimals"
        );
        assert!(text.contains("bepi_wal_fsync_seconds_bucket{le=\"0.00005\"}"));
    }

    #[test]
    fn obs_block_exposes_solver_and_phase_series() {
        bepi_obs::telemetry::record_solve(9, 1.5e-10);
        bepi_obs::record_duration("test.obs_block", Duration::from_millis(3));
        let text = render_obs_metrics();
        assert!(text.contains("# TYPE bepi_gmres_iterations histogram"));
        assert!(text.contains("# TYPE bepi_gmres_residual gauge"));
        assert!(text.contains("# TYPE bepi_wal_fsync_seconds histogram"));
        assert!(text.contains("bepi_phase_seconds_total{phase=\"test.obs_block\"}"));
        assert!(text.contains("bepi_phase_invocations_total{phase=\"test.obs_block\"}"));
        assert!(text.contains("bepi_phase_max_seconds{phase=\"test.obs_block\"}"));
        assert!(parse_metric(&text, "bepi_gmres_iterations_count").unwrap() >= 1.0);
        // Histogram buckets are monotone cumulative.
        let mut last = 0.0;
        for line in text
            .lines()
            .filter(|l| l.starts_with("bepi_gmres_iterations_bucket"))
        {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn inflight_and_queue_depth_gauges_render() {
        let m = Metrics::default();
        m.in_flight.fetch_add(3, Ordering::Relaxed);
        m.queue_depth.fetch_add(5, Ordering::Relaxed);
        let text = m.render();
        assert_eq!(parse_metric(&text, "bepi_inflight_requests"), Some(3.0));
        assert_eq!(parse_metric(&text, "bepi_queue_depth"), Some(5.0));
        assert!(text.contains("# TYPE bepi_inflight_requests gauge"));
        assert!(text.contains("# TYPE bepi_queue_depth gauge"));
    }

    #[test]
    fn render_and_parse_roundtrip() {
        let m = Metrics::default();
        Metrics::inc(&m.cache_hits_total);
        Metrics::inc(&m.cache_hits_total);
        Metrics::inc(&m.queries_total);
        let text = m.render();
        assert_eq!(parse_metric(&text, "bepi_cache_hits_total"), Some(2.0));
        assert_eq!(parse_metric(&text, "bepi_queries_total"), Some(1.0));
        assert_eq!(parse_metric(&text, "bepi_rejected_total"), Some(0.0));
        assert_eq!(parse_metric(&text, "bepi_nonexistent"), None);
        // Every metric family carries HELP and TYPE lines.
        assert_eq!(
            text.matches("# HELP").count(),
            text.matches("# TYPE").count()
        );
    }

    #[test]
    fn live_block_renders_and_parses() {
        let text = render_live_metrics(&LiveStatus {
            version: 3,
            pending: 17,
            rebuilds: 2,
            updates: 40,
            last_rebuild_us: 125_000,
            index_bytes: Bytes {
                heap: 1024,
                mapped: 4096,
            },
            numeric_rebuilds: 1,
            structural_rebuilds: 1,
            numeric_rebuild_us: 25_000,
            full_rebuild_us: 100_000,
            ..LiveStatus::default()
        });
        assert_eq!(parse_metric(&text, "bepi_graph_version"), Some(3.0));
        assert_eq!(parse_metric(&text, "bepi_index_heap_bytes"), Some(1024.0));
        assert_eq!(parse_metric(&text, "bepi_index_mapped_bytes"), Some(4096.0));
        assert!(text.contains("# TYPE bepi_index_heap_bytes gauge"));
        assert!(text.contains("# TYPE bepi_index_mapped_bytes gauge"));
        assert_eq!(parse_metric(&text, "bepi_pending_updates"), Some(17.0));
        assert_eq!(parse_metric(&text, "bepi_rebuilds_total"), Some(2.0));
        assert_eq!(parse_metric(&text, "bepi_updates_total"), Some(40.0));
        assert_eq!(
            parse_metric(&text, "bepi_last_rebuild_seconds"),
            Some(0.125)
        );
        assert!(text.contains("# TYPE bepi_graph_version gauge"));
        assert!(text.contains("# TYPE bepi_pending_updates gauge"));
        assert!(text.contains("# TYPE bepi_rebuilds_total counter"));
        assert_eq!(
            parse_metric(&text, "bepi_numeric_rebuilds_total"),
            Some(1.0)
        );
        assert_eq!(
            parse_metric(&text, "bepi_structural_rebuilds_total"),
            Some(1.0)
        );
        assert_eq!(
            parse_metric(&text, "bepi_rebuild_path_seconds{path=\"numeric\"}"),
            Some(0.025)
        );
        assert_eq!(
            parse_metric(&text, "bepi_rebuild_path_seconds{path=\"full\"}"),
            Some(0.1)
        );
        assert_eq!(
            text.matches("# HELP").count(),
            text.matches("# TYPE").count()
        );
    }

    #[test]
    fn parse_does_not_confuse_prefixes() {
        let text = "bepi_cache_hits_total 7\nbepi_cache 9\n";
        // "bepi_cache" must not match the "bepi_cache_hits_total" line.
        assert_eq!(parse_metric(text, "bepi_cache"), Some(9.0));
        assert_eq!(parse_metric(text, "bepi_cache_hits_total"), Some(7.0));
    }
}
