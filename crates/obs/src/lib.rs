//! Observability layer for the BePI stack: structured logging, span
//! instrumentation, and lock-free telemetry primitives.
//!
//! Everything in this crate is std-only and safe to call from latency-critical
//! paths: level filtering is a single relaxed atomic load, phase accumulators
//! are plain atomic counters behind a lock-free registry, histograms are
//! fixed-bucket atomic arrays, and the slow-query ring buffer is a seqlock —
//! writers never block readers and readers never block writers.
//!
//! The pieces:
//!
//! - [`mod@log`]: leveled `target=... key=value` line logger writing to stderr,
//!   level set programmatically, via `--log-level`, or the `BEPI_LOG`
//!   environment variable.
//! - [`span`]: [`Span::enter`] records wall-time into a process-global
//!   registry of named phase accumulators (count / total / max).
//! - [`telemetry`]: fixed-bucket [`Histogram`]s and float gauges, plus the
//!   process-global solver/WAL instruments shared by the server and CLI.
//! - [`ring`]: a seqlock ring buffer of fixed-width records used for the
//!   slow-query log and the trace rings.
//! - [`mod@trace`]: 128-bit request ids for per-request correlation, the
//!   process trace clock, and the Chrome trace-event exporter behind
//!   `--trace-export`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod ring;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use crate::log::{enabled, init_from_env, level, set_level, Level};
pub use crate::ring::SeqRing;
pub use crate::span::{record_duration, snapshot, PhaseSnapshot, Span};
pub use crate::telemetry::{format_le, Exposition, F64Gauge, Histogram, Kind};
pub use crate::trace::{clock_us, RequestId, TraceEvent, TraceExporter};
