//! # bepi-live
//!
//! Live-update subsystem for the BePI query daemon: a durable
//! write-ahead log of edge updates, a background worker that rebuilds
//! the index off the serving path, and an atomic hot-swap of the served
//! index.
//!
//! The design follows the paper's observation (Section 5) that BePI's
//! preprocessing is cheap enough to re-run for *batches* of graph
//! changes. On top of that, the worker exploits the symbolic/numeric
//! split of `bepi-incr`: a batch that provably preserves the frozen
//! SlashBurn ordering takes the plan-frozen preprocess (the ordering is
//! kept, every numeric phase is redone), while structural batches fall
//! back to the full pipeline. Queries
//! always see exactly one consistent snapshot — the last *completed*
//! rebuild, never the WAL tip.
//!
//! - [`wal`] — the on-disk log: length-validated, CRC-32-trailed
//!   segments, replay-on-restart with truncated-tail tolerance.
//! - [`engine`] — [`LiveEngine`]: buffering + dedup, rebuild scheduling,
//!   epoch-counted snapshot swap, checkpoint + WAL compaction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod wal;

pub use engine::{
    LiveConfig, LiveEngine, LiveStatus, RebuildTrigger, SubmitOutcome, VersionedIndex,
};
pub use wal::{ReplayReport, Wal};
