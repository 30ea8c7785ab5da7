//! Lock-free telemetry instruments: fixed-bucket histograms, float gauges,
//! and the process-global solver/WAL instruments shared across the stack,
//! plus the one Prometheus exposition writer every `/metrics` body uses.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum number of finite bucket bounds a [`Histogram`] supports.
pub const MAX_BUCKETS: usize = 16;

/// A fixed-bound histogram with atomic per-bucket counters.
///
/// Buckets store *non-cumulative* counts internally; rendering for the
/// Prometheus exposition format accumulates them so `le` series are
/// monotone cumulative. The sum is accumulated in micro-units (value × 1e6,
/// rounded) so it needs no floating-point CAS loop.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: [AtomicU64; MAX_BUCKETS],
    /// Overflow bucket (`+Inf`): observations above the last finite bound.
    overflow: AtomicU64,
    sum_micro: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over ascending finite bucket bounds.
    ///
    /// # Panics
    /// Panics when more than [`MAX_BUCKETS`] bounds are given or when the
    /// bounds are not strictly ascending.
    pub fn new(bounds: &'static [f64]) -> Histogram {
        assert!(bounds.len() <= MAX_BUCKETS, "too many histogram buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b);
        match idx {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        let micro = if value.is_finite() && value > 0.0 {
            (value * 1e6).round() as u64
        } else {
            0
        };
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Cumulative bucket counts, one per finite bound plus the `+Inf` bucket
    /// at the end.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        let mut acc = 0u64;
        for b in &self.buckets[..self.bounds.len()] {
            acc += b.load(Ordering::Relaxed);
            out.push(acc);
        }
        acc += self.overflow.load(Ordering::Relaxed);
        out.push(acc);
        out
    }
}

/// The kind of a metric family, as its `# TYPE` line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone total.
    Counter,
    /// A value that can go down.
    Gauge,
    /// A [`Histogram`]: cumulative `_bucket`s, `_sum` and `_count`.
    Histogram,
}

/// A Prometheus text exposition (format 0.0.4) being written.
///
/// Each family starts with [`Exposition::family`], which writes its
/// `# HELP` and `# TYPE` lines; its samples follow. A sample carries at
/// most one label pair; a histogram's buckets carry only `le`. Every value
/// and bound goes through [`format_le`], so no line carries exponent
/// notation.
#[derive(Debug, Default)]
pub struct Exposition {
    text: String,
}

impl Exposition {
    /// Starts a family: its `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: &str, kind: Kind, help: &str) -> &mut Self {
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        };
        let _ = writeln!(self.text, "# HELP {name} {help}\n# TYPE {name} {kind}");
        self
    }

    /// Writes one sample of the current family.
    pub fn sample(&mut self, name: &str, label: Option<(&str, &str)>, value: f64) -> &mut Self {
        let value = format_le(value);
        let _ = match label {
            Some((key, v)) => writeln!(self.text, "{name}{{{key}=\"{v}\"}} {value}"),
            None => writeln!(self.text, "{name} {value}"),
        };
        self
    }

    /// Writes a family of one unlabelled sample.
    pub fn scalar(&mut self, name: &str, kind: Kind, help: &str, value: f64) -> &mut Self {
        self.family(name, kind, help).sample(name, None, value)
    }

    /// Writes the samples of one histogram series: a cumulative bucket
    /// per bound and `+Inf`, then `_sum` and `_count`. `_count` is the
    /// `+Inf` bucket of the same read, so the two always agree.
    pub fn histogram(&mut self, name: &str, h: &Histogram) -> &mut Self {
        let cumulative = h.cumulative();
        let bounds = h.bounds.iter().copied().chain([f64::INFINITY]);
        for (bound, count) in bounds.zip(&cumulative) {
            let le = format_le(bound);
            let _ = writeln!(self.text, "{name}_bucket{{le=\"{le}\"}} {count}");
        }
        let total = cumulative.last().copied().unwrap_or(0);
        let _ = writeln!(self.text, "{name}_sum {}", format_le(h.sum()));
        let _ = writeln!(self.text, "{name}_count {total}");
        self
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.text
    }
}

/// Formats a sample value or an `le` bound: `+Inf`, `-Inf` and `NaN` as
/// Prometheus spells them, any finite value in Rust's `Display` form.
///
/// That form is the shortest decimal that parses back to the same bits,
/// and it never uses exponent notation (`5e-324` and `1e300` print every
/// digit), which Prometheus scrapers reject in `le` labels.
pub fn format_le(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.into()
    } else {
        v.to_string()
    }
}

/// A float gauge stored as `f64` bits in an atomic.
#[derive(Debug, Default)]
pub struct F64Gauge {
    bits: AtomicU64,
}

impl F64Gauge {
    /// Creates a gauge initialised to `0.0`.
    pub const fn new() -> F64Gauge {
        F64Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Stores a new value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Loads the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucket bounds for GMRES iteration counts (powers of two; the paper's
/// Schur-complement solves typically converge within a few dozen).
pub const GMRES_ITERATION_BOUNDS: [f64; 12] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0,
];

/// Bucket bounds (seconds) for WAL fsync latency.
pub const WAL_FSYNC_BOUNDS: [f64; 12] = [
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
];

/// Process-global histogram of inner-solver iteration counts per query.
pub fn gmres_iterations() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| Histogram::new(&GMRES_ITERATION_BOUNDS))
}

/// Process-global gauge holding the most recent query's final residual.
pub fn gmres_residual() -> &'static F64Gauge {
    static G: F64Gauge = F64Gauge::new();
    &G
}

/// Process-global histogram of WAL append fsync latency in seconds.
pub fn wal_fsync_seconds() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| Histogram::new(&WAL_FSYNC_BOUNDS))
}

/// Records one solve's telemetry (iterations histogram + residual gauge).
/// Called by the core query path on every cache-missing solve, including
/// batch queries.
pub fn record_solve(iterations: usize, residual: f64) {
    gmres_iterations().observe(iterations as f64);
    gmres_residual().set(residual);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_le_never_uses_exponent() {
        for b in GMRES_ITERATION_BOUNDS.iter().chain(WAL_FSYNC_BOUNDS.iter()) {
            let s = format_le(*b);
            assert!(!s.contains(['e', 'E']), "{} rendered as {}", b, s);
            assert_eq!(s.parse::<f64>().unwrap(), *b, "round trip of {}", s);
        }
        assert_eq!(format_le(0.00005), "0.00005");
        assert_eq!(format_le(0.00025), "0.00025");
        assert_eq!(format_le(1.0), "1");
        assert_eq!(format_le(f64::INFINITY), "+Inf");
        assert_eq!(format_le(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_le(f64::NAN), "NaN");
        // The extremes of the finite range: the smallest subnormal, a
        // residual-sized value and a huge one all print as plain decimals.
        for v in [5e-324, 3.2e-10, 1e300] {
            let s = format_le(v);
            assert!(!s.contains(['e', 'E']), "{v:e} rendered as {s}");
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn histogram_cumulative_counts_are_monotone() {
        static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];
        let h = Histogram::new(&BOUNDS);
        for v in [0.5, 5.0, 50.0, 500.0, 50.0, 0.1] {
            h.observe(v);
        }
        let cum = h.cumulative();
        assert_eq!(cum, vec![2, 3, 5, 6]);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 605.6).abs() < 1e-6, "sum={}", h.sum());
    }

    #[test]
    fn histogram_render_parses_cleanly() {
        static BOUNDS: [f64; 2] = [0.00005, 2.0];
        let h = Histogram::new(&BOUNDS);
        h.observe(0.00001);
        h.observe(1.0);
        h.observe(3.0);
        let mut e = Exposition::default();
        e.family("test_hist", Kind::Histogram, "help text")
            .histogram("test_hist", &h);
        let out = e.finish();
        assert!(out.contains("# HELP test_hist help text\n# TYPE test_hist histogram\n"));
        assert!(out.contains("test_hist_bucket{le=\"0.00005\"} 1"));
        assert!(out.contains("test_hist_bucket{le=\"2\"} 2"));
        assert!(out.contains("test_hist_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("test_hist_sum 4.00001\n"));
        assert!(out.contains("test_hist_count 3\n"));
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            value.parse::<f64>().expect("sample value parses");
        }
    }

    #[test]
    fn gauge_round_trips() {
        let g = F64Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(1.5e-9);
        assert_eq!(g.get(), 1.5e-9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        static BAD: [f64; 2] = [2.0, 1.0];
        let _ = Histogram::new(&BAD);
    }
}
