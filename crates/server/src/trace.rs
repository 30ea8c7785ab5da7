//! The daemon's request rings behind `GET /debug/slow` and
//! `GET /debug/trace`.
//!
//! Both hold the same [`QueryRecord`] in a [`QueryLog`]: a fixed-capacity
//! [`SeqRing`] that keeps a request when its end-to-end latency meets the
//! log's threshold. The slow-query log has the configured threshold; the
//! trace ring has zero and is fed only `?trace=1` requests. Recording
//! happens on the query hot path, so it is atomics only — no locks, no
//! allocation per record; rendering walks the seqlock ring and skips torn
//! slots.

use crate::worker::fmt_f64;
use bepi_obs::ring::{SeqRing, RECORD_FIELDS};
use bepi_obs::trace::RequestId;
use std::time::Duration;

/// One answered `/query` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Correlation id of the request (minted at ingress, propagated via
    /// `X-Request-Id`); lets one grep tie this record to the client's
    /// logs and the exported trace.
    pub request_id: RequestId,
    /// Seed node of the query.
    pub seed: u64,
    /// `top` parameter of the query.
    pub top_k: u64,
    /// Graph snapshot version that answered the query.
    pub version: u64,
    /// Whether the response came from the cache.
    pub cache_hit: bool,
    /// Whether the approximate lane answered (mode resolved to approx).
    pub approx: bool,
    /// Inner-solver iterations (0 for cache hits).
    pub iterations: u64,
    /// Final solver residual (0.0 for cache hits).
    pub residual: f64,
    /// Admission-queue wait in microseconds.
    pub queue_us: u64,
    /// Solve stage in microseconds (0 for cache hits).
    pub solve_us: u64,
    /// Top-k selection stage in microseconds (0 for cache hits).
    pub topk_us: u64,
    /// Serialization stage in microseconds (0 for cache hits).
    pub serialize_us: u64,
    /// End-to-end latency (admission to response written) in
    /// microseconds.
    pub total_us: u64,
}

impl QueryRecord {
    fn encode(&self) -> [u64; RECORD_FIELDS] {
        [
            self.request_id.hi,
            self.request_id.lo,
            self.seed,
            self.top_k,
            self.version,
            u64::from(self.cache_hit) | u64::from(self.approx) << 1,
            self.iterations,
            self.residual.to_bits(),
            self.queue_us,
            self.solve_us,
            self.topk_us,
            self.serialize_us,
            self.total_us,
        ]
    }

    fn decode(f: [u64; RECORD_FIELDS]) -> QueryRecord {
        QueryRecord {
            request_id: RequestId { hi: f[0], lo: f[1] },
            seed: f[2],
            top_k: f[3],
            version: f[4],
            cache_hit: f[5] & 1 != 0,
            approx: f[5] & 2 != 0,
            iterations: f[6],
            residual: f64::from_bits(f[7]),
            queue_us: f[8],
            solve_us: f[9],
            topk_us: f[10],
            serialize_us: f[11],
            total_us: f[12],
        }
    }
}

/// Seqlock ring of the most recent queries that met a latency threshold.
#[derive(Debug)]
pub struct QueryLog {
    ring: SeqRing,
    threshold: Duration,
}

impl QueryLog {
    /// A ring of `entries` queries keeping those whose end-to-end latency
    /// met `threshold` (zero keeps every query).
    pub fn new(entries: usize, threshold: Duration) -> QueryLog {
        QueryLog {
            ring: SeqRing::new(entries.max(1)),
            threshold,
        }
    }

    /// Records a query if it met the threshold. Lock-free.
    pub fn record(&self, q: &QueryRecord) {
        if Duration::from_micros(q.total_us) >= self.threshold {
            self.ring.push(q.encode());
        }
    }

    /// The retained queries, newest first.
    pub fn entries(&self) -> Vec<QueryRecord> {
        self.ring
            .snapshot()
            .into_iter()
            .map(QueryRecord::decode)
            .collect()
    }

    /// Renders the `GET /debug/slow` JSON body, newest entry first.
    pub fn render_slow_json(&self) -> String {
        let mut body = format!(
            "{{\"threshold_us\":{},\"capacity\":{},\"entries\":[",
            self.threshold.as_micros(),
            self.ring.capacity()
        );
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"request_id\":\"{}\",\"seed\":{},\"latency_us\":{},\"iterations\":{},\
                 \"residual\":{},\"cache_hit\":{},\"version\":{},\"top\":{},\"approx\":{}}}",
                e.request_id.to_hex(),
                e.seed,
                e.total_us,
                e.iterations,
                fmt_f64(e.residual),
                e.cache_hit,
                e.version,
                e.top_k,
                e.approx
            ));
        }
        body.push_str("]}");
        body
    }

    /// Renders the `GET /debug/trace` JSON body, newest entry first.
    pub fn render_trace_json(&self) -> String {
        let mut body = format!("{{\"capacity\":{},\"entries\":[", self.ring.capacity());
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{{\"request_id\":\"{}\",\"seed\":{},\"top\":{},\"queue_us\":{},\
                 \"solve_us\":{},\"topk_us\":{},\"serialize_us\":{},\"total_us\":{},\
                 \"cache_hit\":{},\"version\":{}}}",
                e.request_id.to_hex(),
                e.seed,
                e.top_k,
                e.queue_us,
                e.solve_us,
                e.topk_us,
                e.serialize_us,
                e.total_us,
                e.cache_hit,
                e.version
            ));
        }
        body.push_str("]}");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose every field derives from its seed, so a mix of two
    /// records breaks one of the equalities.
    fn q(seed: u64, total_us: u64) -> QueryRecord {
        QueryRecord {
            request_id: RequestId {
                hi: seed,
                lo: seed.wrapping_mul(7),
            },
            seed,
            top_k: 10,
            version: seed / 3,
            cache_hit: seed % 2 == 0,
            approx: seed % 3 == 0,
            iterations: seed + 1,
            residual: seed as f64 * 1e-10,
            queue_us: seed,
            solve_us: seed * 2,
            topk_us: seed * 3,
            serialize_us: seed * 4,
            total_us,
        }
    }

    #[test]
    fn threshold_filters_fast_queries() {
        let log = QueryLog::new(8, Duration::from_millis(10));
        log.record(&q(1, 500)); // fast: dropped
        log.record(&q(2, 10_000)); // exactly at threshold: kept
        log.record(&q(3, 50_000)); // slow: kept
        let seeds: Vec<u64> = log.entries().iter().map(|e| e.seed).collect();
        assert_eq!(seeds, vec![3, 2], "newest first");
    }

    #[test]
    fn zero_threshold_records_everything_and_evicts_oldest() {
        let log = QueryLog::new(3, Duration::ZERO);
        for seed in 0..7 {
            log.record(&q(seed, 100));
        }
        let entries = log.entries();
        assert_eq!(entries, vec![q(6, 100), q(5, 100), q(4, 100)]);
    }

    #[test]
    fn round_trips_and_evicts_oldest() {
        let log = QueryLog::new(5, Duration::ZERO);
        // Seeds 0..6 cover every cache_hit/approx pair; NaN and subnormal
        // residuals keep their bits. The ring keeps the newest five.
        let mut records: Vec<QueryRecord> = (0..6).map(|s| q(s, s * 11)).collect();
        records[2].residual = f64::NAN;
        records[3].residual = 5e-324;
        for r in &records {
            log.record(r);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 5);
        for (got, want) in entries.iter().rev().zip(&records[1..]) {
            assert_eq!(got.residual.to_bits(), want.residual.to_bits());
            let bits_free = |r: &QueryRecord| QueryRecord {
                residual: 0.0,
                ..*r
            };
            assert_eq!(bits_free(got), bits_free(want));
        }
    }

    #[test]
    fn json_round_trips_fields() {
        let log = QueryLog::new(4, Duration::ZERO);
        log.record(&q(4, 1234));
        let rid = q(4, 0).request_id.to_hex();
        let slow = log.render_slow_json();
        assert!(slow.starts_with("{\"threshold_us\":0,\"capacity\":4,\"entries\":["));
        assert!(slow.contains(&format!("\"request_id\":\"{rid}\"")));
        let residual = fmt_f64(q(4, 0).residual);
        assert!(slow.contains(&format!(
            "\"latency_us\":1234,\"iterations\":5,\"residual\":{residual},"
        )));
        assert!(slow.ends_with("\"cache_hit\":true,\"version\":1,\"top\":10,\"approx\":false}]}"));
        let trace = log.render_trace_json();
        assert!(trace.starts_with("{\"capacity\":4,\"entries\":["));
        assert!(trace.contains("\"queue_us\":4,\"solve_us\":8,\"topk_us\":12,\"serialize_us\":16"));
        assert!(trace.ends_with("\"total_us\":1234,\"cache_hit\":true,\"version\":1}]}"));
    }

    #[test]
    fn concurrent_writers_never_surface_a_torn_record() {
        use std::sync::Arc;
        let log = Arc::new(QueryLog::new(16, Duration::ZERO));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let seed = w * 1000 + i;
                        log.record(&q(seed, seed * 11));
                    }
                })
            })
            .collect();
        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for e in log.entries() {
                        assert_eq!(e, q(e.seed, e.seed * 11), "torn record surfaced");
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert!(!log.entries().is_empty());
    }
}
