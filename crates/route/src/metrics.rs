//! Router-level metrics in Prometheus exposition format.
//!
//! The fleet-facing series — `bepi_shard_healthy`,
//! `bepi_route_retries_total`, `bepi_hedged_requests_total` — plus the
//! per-shard latency histograms, rendered with a `shard` label by the
//! same [`Exposition`] writer the daemon's `/metrics` uses.

use crate::shard::{quorum_version, ShardState};
use bepi_obs::telemetry::Exposition;
use bepi_obs::telemetry::Kind::{self, Counter, Gauge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Router-wide counters.
#[derive(Debug, Default)]
pub struct RouteMetrics {
    /// Requests accepted by the router (any endpoint).
    pub requests_total: AtomicU64,
    /// Retries after a failed shard attempt (`bepi_route_retries_total`).
    pub retries_total: AtomicU64,
    /// Hedge requests launched (`bepi_hedged_requests_total`).
    pub hedged_total: AtomicU64,
    /// Requests answered by a non-primary shard after its primary
    /// failed or was unhealthy.
    pub failovers_total: AtomicU64,
    /// Requests the router could not answer from any shard.
    pub errors_total: AtomicU64,
}

impl RouteMetrics {
    /// Relaxed add-one; counters are monotonic and independent.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Renders the full router exposition: router counters, per-shard
/// health gauges, versions, request/error counters, and latency
/// histograms.
pub fn render(metrics: &RouteMetrics, shards: &[Arc<ShardState>]) -> String {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let mut e = Exposition::default();
    for (name, help, counter) in [
        (
            "bepi_route_requests_total",
            "Requests accepted by the router.",
            &metrics.requests_total,
        ),
        (
            "bepi_route_retries_total",
            "Shard attempts retried on a sibling after a failure.",
            &metrics.retries_total,
        ),
        (
            "bepi_hedged_requests_total",
            "Hedge requests launched against a sibling for tail latency.",
            &metrics.hedged_total,
        ),
        (
            "bepi_route_failovers_total",
            "Requests answered by a non-primary shard.",
            &metrics.failovers_total,
        ),
        (
            "bepi_route_errors_total",
            "Requests no shard could answer.",
            &metrics.errors_total,
        ),
    ] {
        e.scalar(name, Counter, help, load(counter));
    }
    let ids: Vec<String> = shards.iter().map(|s| s.id.to_string()).collect();
    let per_shard = |e: &mut Exposition, name, kind, help, value: &dyn Fn(&ShardState) -> f64| {
        e.family(name, kind, help);
        for (s, id) in shards.iter().zip(&ids) {
            e.sample(name, Some(("shard", id)), value(s));
        }
    };
    per_shard(
        &mut e,
        "bepi_shard_healthy",
        Gauge,
        "Shard serving state (1 healthy, 0 out of rotation).",
        &|s| f64::from(u8::from(s.is_healthy())),
    );
    per_shard(
        &mut e,
        "bepi_shard_graph_version",
        Gauge,
        "Highest graph version observed per shard.",
        &|s| s.version() as f64,
    );
    e.scalar(
        "bepi_route_advertised_version",
        Gauge,
        "Quorum-advertised fleet graph version.",
        quorum_version(shards) as f64,
    );
    per_shard(
        &mut e,
        "bepi_route_shard_requests_total",
        Counter,
        "Requests answered per shard.",
        &|s| load(&s.requests_total),
    );
    per_shard(
        &mut e,
        "bepi_route_shard_errors_total",
        Counter,
        "Transport failures per shard.",
        &|s| load(&s.errors_total),
    );
    let latency = "bepi_route_shard_latency_seconds";
    e.family(
        latency,
        Kind::Histogram,
        "Successful request latency per shard.",
    );
    for (s, id) in shards.iter().zip(&ids) {
        e.histogram(latency, Some(("shard", id)), &s.latency);
    }
    e.finish()
}

/// One metric family being merged: HELP/TYPE emitted once, samples from
/// every source appended in arrival order (so a family's samples stay
/// contiguous and each shard's run stays contiguous within it).
struct Family {
    help: Option<String>,
    type_line: Option<String>,
    samples: Vec<String>,
}

/// Merges the router's own exposition with scraped shard expositions
/// into one valid Prometheus text body: every shard sample is re-labeled
/// with `shard="N"` and grouped under a single HELP/TYPE header per
/// family, so one scrape of the router observes the whole fleet.
pub fn merge_expositions(own: &str, shard_bodies: &[(u64, String)]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut families: std::collections::HashMap<String, Family> = std::collections::HashMap::new();
    let mut absorb = |body: &str, shard: Option<u64>| {
        // Samples are attributed to the family of the preceding HELP or
        // TYPE line — the order both tiers' renderers guarantee.
        let mut current = String::new();
        for line in body.lines() {
            if line.is_empty() {
                continue;
            }
            let meta = line
                .strip_prefix("# HELP ")
                .map(|r| (true, r))
                .or_else(|| line.strip_prefix("# TYPE ").map(|r| (false, r)));
            let family_of =
                |name: &str,
                 order: &mut Vec<String>,
                 families: &mut std::collections::HashMap<String, Family>| {
                    if !families.contains_key(name) {
                        order.push(name.to_string());
                        families.insert(
                            name.to_string(),
                            Family {
                                help: None,
                                type_line: None,
                                samples: Vec::new(),
                            },
                        );
                    }
                };
            if let Some((is_help, rest)) = meta {
                let name = rest.split_whitespace().next().unwrap_or("");
                family_of(name, &mut order, &mut families);
                current = name.to_string();
                let fam = families.get_mut(name).expect("just inserted");
                if is_help {
                    fam.help.get_or_insert_with(|| line.to_string());
                } else {
                    fam.type_line.get_or_insert_with(|| line.to_string());
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            if current.is_empty() {
                // A sample with no preceding header: its own family.
                let name = line.split(['{', ' ']).next().unwrap_or("").to_string();
                family_of(&name, &mut order, &mut families);
                current = name;
            }
            let sample = match shard {
                Some(id) => inject_shard_label(line, id),
                None => line.to_string(),
            };
            families
                .get_mut(&current)
                .expect("current family exists")
                .samples
                .push(sample);
        }
    };
    absorb(own, None);
    for (id, body) in shard_bodies {
        absorb(body, Some(*id));
    }
    let mut out = String::with_capacity(own.len() * (1 + shard_bodies.len()));
    for name in &order {
        let fam = &families[name];
        if let Some(h) = &fam.help {
            out.push_str(h);
            out.push('\n');
        }
        if let Some(t) = &fam.type_line {
            out.push_str(t);
            out.push('\n');
        }
        for s in &fam.samples {
            out.push_str(s);
            out.push('\n');
        }
    }
    out
}

/// Re-labels one sample line with `shard="N"` as its first label.
fn inject_shard_label(line: &str, shard: u64) -> String {
    match line.find('{') {
        Some(brace) => format!(
            "{}{{shard=\"{}\",{}",
            &line[..brace],
            shard,
            &line[brace + 1..]
        ),
        None => match line.find(' ') {
            Some(space) => format!(
                "{}{{shard=\"{}\"}}{}",
                &line[..space],
                shard,
                &line[space..]
            ),
            None => line.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn merge_relabels_shard_samples_and_keeps_one_header_per_family() {
        let own = "# HELP bepi_route_requests_total Requests accepted.\n\
                   # TYPE bepi_route_requests_total counter\n\
                   bepi_route_requests_total 4\n";
        let shard0 = "# HELP bepi_server_queries_total Queries answered.\n\
                      # TYPE bepi_server_queries_total counter\n\
                      bepi_server_queries_total 7\n\
                      # HELP bepi_server_query_latency_seconds Query latency.\n\
                      # TYPE bepi_server_query_latency_seconds histogram\n\
                      bepi_server_query_latency_seconds_bucket{le=\"0.01\"} 7\n\
                      bepi_server_query_latency_seconds_bucket{le=\"+Inf\"} 7\n\
                      bepi_server_query_latency_seconds_sum 0.004\n\
                      bepi_server_query_latency_seconds_count 7\n";
        let shard1 = "# HELP bepi_server_queries_total Queries answered.\n\
                      # TYPE bepi_server_queries_total counter\n\
                      bepi_server_queries_total 9\n";
        let merged = merge_expositions(own, &[(0, shard0.to_string()), (1, shard1.to_string())]);
        // Router's own series pass through unlabeled.
        assert!(merged.contains("bepi_route_requests_total 4\n"));
        // Shard samples gain the shard label; the family header appears
        // exactly once and precedes every sample of the family.
        assert!(merged.contains("bepi_server_queries_total{shard=\"0\"} 7\n"));
        assert!(merged.contains("bepi_server_queries_total{shard=\"1\"} 9\n"));
        assert_eq!(
            merged.matches("# TYPE bepi_server_queries_total").count(),
            1
        );
        assert!(merged
            .contains("bepi_server_query_latency_seconds_bucket{shard=\"0\",le=\"0.01\"} 7\n"));
        assert!(merged.contains("bepi_server_query_latency_seconds_sum{shard=\"0\"} 0.004\n"));
        let type_at = merged.find("# TYPE bepi_server_queries_total").unwrap();
        let s0 = merged
            .find("bepi_server_queries_total{shard=\"0\"}")
            .unwrap();
        let s1 = merged
            .find("bepi_server_queries_total{shard=\"1\"}")
            .unwrap();
        assert!(type_at < s0 && s0 < s1);
    }

    #[test]
    fn exposition_carries_the_issue_series() {
        let m = RouteMetrics::default();
        RouteMetrics::inc(&m.retries_total);
        RouteMetrics::inc(&m.hedged_total);
        let shards: Vec<Arc<ShardState>> = (0..2)
            .map(|i| Arc::new(ShardState::new(i, "127.0.0.1:1", Duration::from_millis(10))))
            .collect();
        shards[0].mark(true);
        shards[0].latency.observe(0.002);
        shards[0].observe_version(3);
        shards[1].observe_version(3);
        let text = render(&m, &shards);
        assert!(text.contains("bepi_route_retries_total 1"), "{text}");
        assert!(text.contains("bepi_hedged_requests_total 1"));
        assert!(text.contains("bepi_shard_healthy{shard=\"0\"} 1"));
        assert!(text.contains("bepi_shard_healthy{shard=\"1\"} 0"));
        assert!(text.contains("bepi_route_advertised_version 3"));
        assert!(
            text.contains("bepi_route_shard_latency_seconds_bucket{shard=\"0\",le=\"0.0025\"} 1")
        );
        assert!(text.contains("bepi_route_shard_latency_seconds_count{shard=\"0\"} 1"));
        // Every sample line parses via the server's metric scraper.
        assert_eq!(
            bepi_server::parse_metric(&text, "bepi_route_retries_total"),
            Some(1.0)
        );
    }
}
