//! The one trusted benchmark for bepi-rs: four workloads, five gated
//! end-to-end metrics, and a layer budget measured **from outside** — by
//! timing calls into the crates' public functions and the daemon's public
//! HTTP surface. See `benchmark/README.md` for the metric dictionary.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod daemon;
pub mod exact_cold;
pub mod http;
pub mod json;
pub mod openloop;
pub mod oracle;
pub mod report;
pub mod sample;
pub mod serve;
pub mod shadow;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workload;
