//! # bepi-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! BePI paper's evaluation (Section 4 and Appendices I–K) on the
//! synthetic dataset suite.
//!
//! Each experiment lives in [`experiments`] as a library function
//! returning a printable report; the `src/bin/*` binaries are thin
//! wrappers, and `bin/run_all` executes everything and collects output
//! under `experiments/` for `EXPERIMENTS.md`. [`harness`] holds the
//! dataset suite, method registry and budget gates, [`table`] the report
//! printer, [`fit`] the log-log slope fits of Figure 5.
//!
//! The one binary that is not a paper artifact is `bin/metrics_check`,
//! the `/metrics` exposition validator `scripts/ci.sh` points at a live
//! daemon. Performance is not measured here: that is
//! `benchmark/` at the repository root.
//!
//! Environment knobs:
//! * `BEPI_SEEDS` — query seeds per measurement (default 30, as in the
//!   paper).
//! * `BEPI_SUITE_MAX` — restrict the dataset suite to its first N members
//!   (for quick runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Experiment tables pass function-pointer tuples around; naming each
// composite type would add indirection without clarity.
#![allow(clippy::type_complexity)]

pub mod experiments;
pub mod fit;
pub mod harness;
pub mod table;

pub use harness::{query_seeds, suite, Status};
pub use table::Table;
