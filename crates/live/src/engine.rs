//! The live engine: buffered updates, a background rebuild worker, and
//! an epoch-counted atomic snapshot swap.
//!
//! The serving path only ever touches [`LiveEngine::current`], which
//! hands out an `Arc` to an immutable [`VersionedIndex`] — in-flight
//! queries finish on the snapshot they started with, the swap is a
//! pointer exchange under a mutex held for nanoseconds, and there are no
//! torn reads by construction. Everything expensive (applying updates,
//! SlashBurn → Schur → ILU re-preprocessing, checkpointing) happens on
//! the rebuild worker thread, off the serving path — exactly the paper's
//! Section 5 batch-update strategy run as a subsystem instead of a cron
//! job.

use crate::wal::Wal;
use bepi_core::dynamic::{check_in_range, dedup_opposing, EdgeUpdate, RebuildKind, Rebuilt};
use bepi_core::rwr::RwrSolver;
use bepi_core::{persist, BePi};
use bepi_graph::Graph;
use bepi_sparse::{Bytes, Result, SparseError};
use bepi_walk::{ApproxConfig, ApproxEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One immutable served snapshot: the preprocessed index plus the epoch
/// counter that names it. Responses echo `version` so a client can tell
/// exactly which graph state produced its scores.
#[derive(Debug)]
pub struct VersionedIndex {
    /// Monotonically increasing snapshot epoch, starting at 1.
    pub version: u64,
    /// The preprocessed, read-only index for this epoch.
    pub bepi: Arc<BePi>,
    /// The approximate serving engine over this epoch's graph, rebuilt
    /// at every hot-swap so exact and approximate lanes always answer
    /// from the same graph state. `None` when the index was loaded
    /// without its graph — the approximate lane is then unavailable.
    pub approx: Option<Arc<ApproxEngine>>,
}

/// Tuning for [`LiveEngine::start`].
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Buffered updates that trigger an automatic background rebuild.
    /// `0` disables auto-rebuild (only `POST /rebuild` flushes).
    pub auto_flush_threshold: usize,
    /// Durable write-ahead log path. `None` keeps updates in memory only
    /// (they die with the process).
    pub wal_path: Option<PathBuf>,
    /// Where to checkpoint the index (graph embedded) after each
    /// successful rebuild; applied WAL segments are truncated once
    /// the checkpoint is durable. `None` disables checkpointing — the
    /// WAL then grows until restart and is never compacted.
    pub checkpoint_path: Option<PathBuf>,
    /// Once a checkpoint is durable, re-open it as a shared read-only
    /// mapping and hot-swap the mapped copy in place of the heap-built
    /// snapshot (the new file is mapped *before* the old snapshot is
    /// dropped, so serving never gaps). `false` keeps serving the heap
    /// snapshot.
    pub mmap_checkpoints: bool,
}

/// What [`LiveEngine::submit`] did with a batch.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOutcome {
    /// Updates accepted (all of them — validation is all-or-nothing).
    pub accepted: usize,
    /// Buffered updates not yet visible to queries, after this batch.
    pub pending: usize,
    /// Version currently being served (the batch is *not* in it yet).
    pub version: u64,
    /// Whether this batch pushed the buffer over the auto-flush
    /// threshold and scheduled a background rebuild.
    pub rebuild_triggered: bool,
}

/// What caused the most recent rebuild pass to be scheduled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RebuildTrigger {
    /// No rebuild has run yet (the served index is the initial one).
    #[default]
    None,
    /// A submit pushed the buffer over the auto-flush threshold.
    Threshold,
    /// An explicit `POST /rebuild` / [`LiveEngine::rebuild_and_wait`].
    Explicit,
}

impl RebuildTrigger {
    /// Stable lower-case name for logs and the version JSON.
    pub fn name(self) -> &'static str {
        match self {
            RebuildTrigger::None => "none",
            RebuildTrigger::Threshold => "threshold",
            RebuildTrigger::Explicit => "explicit",
        }
    }
}

/// One consistent snapshot of a [`LiveEngine`]'s state: what
/// `GET /version` and the live block of `GET /metrics` both render,
/// returned by [`LiveEngine::status`].
#[derive(Debug, Clone, Default)]
pub struct LiveStatus {
    /// Served snapshot epoch.
    pub version: u64,
    /// Nodes in the served index.
    pub nodes: usize,
    /// The served index's BePI variant (`BePI-S`, `BePI` or `BePI-B`,
    /// from [`bepi_core::BePiVariant::name`]): whether queries pay for
    /// ILU(0).
    pub variant: &'static str,
    /// Served index bytes on the process heap and backed by a shared
    /// file mapping.
    pub index_bytes: Bytes,
    /// Buffered, not-yet-visible updates.
    pub pending: usize,
    /// Whether this engine accepts updates at all.
    pub live: bool,
    /// Edge updates accepted since startup.
    pub updates: u64,
    /// Background rebuilds completed since startup. A WAL replay at
    /// start is no background rebuild and counts nowhere here.
    pub rebuilds: u64,
    /// Rebuilds served by the numeric path (plan-frozen preprocess).
    pub numeric_rebuilds: u64,
    /// Rebuilds that ran the full (structural) preprocessing pipeline.
    pub structural_rebuilds: u64,
    /// Wall time of the most recent rebuild, in microseconds.
    pub last_rebuild_us: u64,
    /// Cumulative wall time of numeric-path rebuilds, in microseconds.
    pub numeric_rebuild_us: u64,
    /// Cumulative wall time of full-path rebuilds, in microseconds.
    pub full_rebuild_us: u64,
    /// Which path produced the served index: `initial` (no rebuild or
    /// WAL replay yet), `full` (complete preprocessing pipeline), or
    /// `numeric` (plan-frozen preprocess under the index's symbolic plan).
    pub rebuild_kind: RebuildKind,
    /// Why the served index came from a full rebuild: the structural
    /// reason, or the plan-frozen preprocess's error that forced the
    /// fallback. `None` when no rebuild ran or the numeric path served.
    pub rebuild_reason: Option<String>,
    /// What scheduled the most recent rebuild.
    pub rebuild_trigger: RebuildTrigger,
    /// The last rebuild *or checkpoint* failure, if any (cleared by the
    /// next fully clean rebuild pass).
    pub last_error: Option<String>,
}

impl LiveStatus {
    /// Records the shape of the index about to be served.
    fn describe(&mut self, index: &VersionedIndex) {
        self.version = index.version;
        self.nodes = index.bepi.node_count();
        self.variant = index.bepi.config().variant.name();
        self.index_bytes = index.bepi.bytes();
    }
}

struct MutState {
    /// The graph matching the *served* snapshot. `None` for frozen
    /// engines (index loaded without an embedded graph).
    graph: Option<Graph>,
    pending: Vec<EdgeUpdate>,
    wal: Option<Wal>,
    /// Rebuild request/completion generations: the worker owes a pass
    /// whenever `request_gen > done_gen`.
    request_gen: u64,
    done_gen: u64,
    /// Set when the worker thread is gone (shutdown or panic) so waiters
    /// never block forever.
    worker_gone: bool,
    /// The generation whose *rebuild* (apply + preprocess + swap) failed,
    /// with the error. Checkpoint failures do not set this: the swap
    /// landed, so callers of [`LiveEngine::rebuild_and_wait`] still get
    /// their new version. Cleared once a later pass applies the
    /// re-buffered batch.
    failed: Option<(u64, String)>,
    /// What scheduled the pass the worker will run next — recorded at
    /// the `request_gen` bump sites, snapshotted by the worker.
    trigger: RebuildTrigger,
    /// Everything [`LiveEngine::status`] reports but `pending`, which it
    /// reads off the buffer. Every swap of the served index updates it
    /// under this lock, together with the counters of the rebuild that
    /// produced the index.
    status: LiveStatus,
}

/// Shared, thread-safe live-update engine. Cheap to clone via `Arc`.
pub struct LiveEngine {
    current: Mutex<Arc<VersionedIndex>>,
    state: Mutex<MutState>,
    cv: Condvar,
    shutdown: AtomicBool,
    worker: Mutex<Option<JoinHandle<()>>>,
    auto_flush_threshold: usize,
    checkpoint_path: Option<PathBuf>,
    mmap_checkpoints: bool,
}

impl LiveEngine {
    /// Wraps an index with no graph: queries work, updates are rejected.
    /// This is the daemon's classic static-snapshot mode. The
    /// approximate lane needs the graph, so it is unavailable here —
    /// use [`LiveEngine::start`] when the graph is on hand.
    pub fn frozen(bepi: Arc<BePi>) -> Arc<Self> {
        let index = VersionedIndex {
            version: 1,
            bepi,
            approx: None,
        };
        Self::assemble(
            index,
            None,
            None,
            LiveStatus::default(),
            LiveConfig::default(),
        )
    }

    /// The engine around its first served index. `status` carries what
    /// a WAL replay found (kind and reason); the rest is filled here.
    fn assemble(
        index: VersionedIndex,
        graph: Option<Graph>,
        wal: Option<Wal>,
        mut status: LiveStatus,
        config: LiveConfig,
    ) -> Arc<Self> {
        status.live = graph.is_some();
        status.describe(&index);
        Arc::new(Self {
            current: Mutex::new(Arc::new(index)),
            state: Mutex::new(MutState {
                worker_gone: graph.is_none(),
                graph,
                pending: Vec::new(),
                wal,
                request_gen: 0,
                done_gen: 0,
                failed: None,
                trigger: RebuildTrigger::None,
                status,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            worker: Mutex::new(None),
            auto_flush_threshold: config.auto_flush_threshold,
            checkpoint_path: config.checkpoint_path,
            mmap_checkpoints: config.mmap_checkpoints,
        })
    }

    /// Starts a live engine: opens and replays the WAL (if configured),
    /// folds any replayed updates into the served index *before* the
    /// first query, checkpoints that recovered state, and spawns the
    /// background rebuild worker. Every rebuild keeps `bepi`'s own
    /// config ([`BePi::rebuild`]).
    pub fn start(bepi: Arc<BePi>, graph: Graph, config: LiveConfig) -> Result<Arc<Self>> {
        if graph.n() != bepi.node_count() {
            return Err(SparseError::ShapeMismatch {
                left: (graph.n(), graph.n()),
                right: (bepi.node_count(), bepi.node_count()),
                op: "LiveEngine::start (graph vs index node count)",
            });
        }
        let mut graph = graph;
        let mut bepi = bepi;
        let mut wal = None;
        let mut replayed_through = 0u64;
        let mut replay_kind = RebuildKind::Initial;
        let mut replay_reason = None;
        if let Some(path) = &config.wal_path {
            let replay_span = bepi_obs::Span::enter("wal.replay");
            let (w, records, report) = Wal::open(path)?;
            if !records.is_empty() {
                // Recovered updates become visible immediately: the WAL
                // acknowledged them before the crash. The checkpoint's
                // symbolic plan survived the save/load round-trip (the
                // index persists every plan field), so a numeric-only batch
                // replays through the plan-frozen preprocess, skipping the
                // reordering a full preprocess would redo.
                let rebuilt = bepi.rebuild(&graph, &records)?;
                bepi = Arc::new(rebuilt.index);
                graph = rebuilt.graph;
                replay_kind = rebuilt.kind;
                replay_reason = rebuilt.reason;
                replayed_through = report.segments;
            }
            let replay_time = replay_span.exit();
            bepi_obs::info!(
                "live",
                "WAL replay complete",
                records = records.len(),
                segments = report.segments,
                truncated_bytes = report.truncated_bytes,
                path = match replay_kind {
                    RebuildKind::Initial => "none",
                    kind => kind.name(),
                },
                reason = replay_reason.as_deref().unwrap_or("none"),
                elapsed_ms = replay_time.as_millis()
            );
            wal = Some(w);
        }

        let approx = build_approx(&bepi, &graph);
        let index = VersionedIndex {
            version: 1,
            bepi,
            approx,
        };
        // A replay's kind names the served index, but replay is not a
        // background rebuild: the rebuild counters stay at zero.
        let status = LiveStatus {
            rebuild_kind: replay_kind,
            rebuild_reason: replay_reason,
            ..LiveStatus::default()
        };
        let engine = Self::assemble(index, Some(graph), wal, status, config);

        if replayed_through > 0 {
            // The recovered state is the new baseline: checkpoint it and
            // drop the replayed WAL prefix so a crash loop cannot grow
            // the log without bound.
            engine
                .checkpoint_and_compact(&mut engine.state(), replayed_through)
                .map_err(SparseError::Io)?;
        }

        let worker = {
            let engine = Arc::clone(&engine);
            // Rebuilds run beside the serving workers, so their
            // preprocessing kernels stay on this one thread.
            std::thread::Builder::new()
                .name("bepi-rebuild".to_string())
                .spawn(move || bepi_par::with_kernel_threads(1, || worker_loop(&engine)))?
        };
        *engine.worker.lock().unwrap_or_else(|e| e.into_inner()) = Some(worker);
        Ok(engine)
    }

    /// The snapshot to answer queries from. Callers hold the `Arc` for
    /// the whole request so seed validation, the solve, and the rendered
    /// version header all agree even across a concurrent hot-swap.
    pub fn current(&self) -> Arc<VersionedIndex> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Served snapshot epoch.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// One consistent snapshot of the engine's state, for `GET /version`
    /// and `GET /metrics`.
    pub fn status(&self) -> LiveStatus {
        let st = self.state();
        LiveStatus {
            pending: st.pending.len(),
            ..st.status.clone()
        }
    }

    fn state(&self) -> MutexGuard<'_, MutState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Validates, logs (WAL append + fsync), and buffers a batch of
    /// updates. All-or-nothing: an out-of-range update rejects the whole
    /// batch before anything is logged. Queries keep seeing the old
    /// snapshot until a rebuild completes.
    pub fn submit(&self, updates: &[EdgeUpdate]) -> Result<SubmitOutcome> {
        if updates.is_empty() {
            return Ok(SubmitOutcome {
                accepted: 0,
                pending: self.state().pending.len(),
                version: self.version(),
                rebuild_triggered: false,
            });
        }
        let mut st = self.state();
        let Some(graph) = &st.graph else {
            return Err(SparseError::Parse(
                "live updates disabled: the index was loaded without its graph \
                 (re-preprocess with --embed-graph or pass --graph)"
                    .to_string(),
            ));
        };
        check_in_range(graph.n(), updates)?;
        // Durability first: only after the fsync succeeds does the batch
        // enter the in-memory buffer (and get acknowledged).
        if let Some(wal) = &mut st.wal {
            wal.append(updates)?;
        }
        st.pending.extend_from_slice(updates);
        st.pending = dedup_opposing(&st.pending);
        st.status.updates += updates.len() as u64;

        let pending = st.pending.len();
        let trigger = self.auto_flush_threshold > 0 && pending >= self.auto_flush_threshold;
        if trigger {
            // Unconditionally bump the request generation — even while a
            // rebuild is in flight. The in-flight pass has already taken
            // its batch and will complete at an older generation, so this
            // increment makes the worker immediately run another pass
            // over the updates buffered here; gating on
            // `request_gen == done_gen` would leave a threshold-crossing
            // batch invisible forever if no later submit arrived.
            st.request_gen += 1;
            st.trigger = RebuildTrigger::Threshold;
            self.cv.notify_all();
        }
        drop(st);
        Ok(SubmitOutcome {
            accepted: updates.len(),
            pending,
            version: self.version(),
            rebuild_triggered: trigger,
        })
    }

    /// Forces a rebuild of everything buffered and blocks until the
    /// hot-swap completes (or reports the rebuild error). No-op returning
    /// the current version when nothing is buffered.
    pub fn rebuild_and_wait(&self) -> Result<u64> {
        let mut st = self.state();
        if st.graph.is_none() {
            return Err(SparseError::Parse(
                "live updates disabled: the index was loaded without its graph".to_string(),
            ));
        }
        st.request_gen += 1;
        st.trigger = RebuildTrigger::Explicit;
        let target = st.request_gen;
        self.cv.notify_all();
        while st.done_gen < target {
            if st.worker_gone || self.shutdown.load(Ordering::SeqCst) {
                return Err(SparseError::Parse(
                    "rebuild worker is shutting down".to_string(),
                ));
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // Only surface a failure from the pass that covered *this*
        // request (gen >= target): a stale error from an earlier
        // generation — or a checkpoint hiccup after a successful swap —
        // must not make a clean rebuild report failure.
        if let Some((gen, err)) = &st.failed {
            if *gen >= target {
                return Err(SparseError::Parse(format!("rebuild failed: {err}")));
            }
        }
        drop(st);
        Ok(self.version())
    }

    /// Stops the rebuild worker: a rebuild already in progress finishes
    /// (including its hot-swap and checkpoint), buffered-but-unflushed
    /// updates stay in the WAL for the next start. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        let handle = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Checkpoints the *current* snapshot (+ graph) to the configured
    /// path — atomically and durably, see [`persist::save_file_v6`] —
    /// then truncates WAL segments `<= upto`. Compaction is skipped
    /// unless the checkpoint landed: checkpoint + remaining WAL must
    /// always reconstruct current state. An error names the checkpoint
    /// path, which is what `/version`'s `last_error` reports.
    fn checkpoint_and_compact(
        &self,
        st: &mut MutState,
        upto: u64,
    ) -> std::result::Result<(), String> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let Some(graph) = &st.graph else {
            return Ok(());
        };
        let current = self.current();
        let span = bepi_obs::Span::enter("live.checkpoint");
        persist::save_file_v6(&current.bepi, Some(graph), path)
            .map_err(|e| format!("checkpoint {} failed: {e}", path.display()))?;
        let checkpoint_time = span.exit();
        if let Some(wal) = &mut st.wal {
            wal.compact_through(upto).map_err(|e| {
                format!(
                    "WAL compaction after checkpoint {} failed: {e}",
                    path.display()
                )
            })?;
        }
        bepi_obs::debug!(
            "live",
            "checkpoint written",
            version = current.version,
            elapsed_ms = checkpoint_time.as_millis()
        );
        if self.mmap_checkpoints {
            self.remap_from_checkpoint(st, path, &current);
        }
        Ok(())
    }

    /// Serves `index` from now on and records its shape in `st.status`.
    /// Runs under the state lock, like every change of the counters, so
    /// a reader of [`LiveEngine::status`] never sees a version without
    /// the counters of the rebuild that produced it.
    fn publish(&self, st: &mut MutState, index: VersionedIndex) {
        st.status.describe(&index);
        let new = Arc::new(index);
        // The old snapshot is dropped after the serving lock is released.
        let _old = std::mem::replace(
            &mut *self.current.lock().unwrap_or_else(|e| e.into_inner()),
            new,
        );
    }

    /// Re-opens the just-written v6 checkpoint as a shared mapping and
    /// swaps the mapped copy in for the heap-built snapshot of the same
    /// epoch: the daemon then serves zero-copy from the page cache and
    /// the rebuild's heap allocations are freed once in-flight queries
    /// drain. The new file is mapped *before* the old snapshot's `Arc`
    /// is released, and no other swap can intervene: the caller holds
    /// the state lock. Failures are logged and leave the heap snapshot
    /// serving — the checkpoint itself already landed.
    fn remap_from_checkpoint(
        &self,
        st: &mut MutState,
        path: &std::path::Path,
        expected: &VersionedIndex,
    ) {
        let mapped = match persist::load_mapped_file(path) {
            Ok((bepi, _)) => Arc::new(bepi),
            Err(e) => {
                bepi_obs::warn!(
                    "live",
                    "could not re-map checkpoint; keeping heap snapshot",
                    error = e
                );
                return;
            }
        };
        let index = VersionedIndex {
            version: expected.version,
            bepi: mapped,
            // Same graph state, so the same approximate engine: it owns
            // its operator and never reads the adjacency again.
            approx: expected.approx.clone(),
        };
        self.publish(st, index);
        bepi_obs::debug!(
            "live",
            "serving mapped checkpoint",
            version = expected.version
        );
    }
}

/// Builds the approximate engine for one snapshot. Approximate serving
/// is an optional lane: any failure (or a graph that does not match the
/// index) degrades to exact-only serving with a logged warning instead
/// of failing the snapshot.
fn build_approx(bepi: &BePi, graph: &Graph) -> Option<Arc<ApproxEngine>> {
    if graph.n() != bepi.node_count() {
        bepi_obs::warn!(
            "live",
            "graph does not match index; approximate lane disabled",
            graph_nodes = graph.n(),
            index_nodes = bepi.node_count()
        );
        return None;
    }
    match ApproxEngine::new(graph, bepi.config().c, ApproxConfig::default()) {
        Ok(engine) => Some(Arc::new(engine)),
        Err(e) => {
            bepi_obs::warn!(
                "live",
                "approximate engine build failed; lane disabled",
                error = e
            );
            None
        }
    }
}

/// Ensures waiters are released even if the worker thread panics.
struct WorkerGoneGuard<'a>(&'a LiveEngine);

impl Drop for WorkerGoneGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state();
        st.worker_gone = true;
        self.0.cv.notify_all();
    }
}

fn worker_loop(engine: &LiveEngine) {
    let _guard = WorkerGoneGuard(engine);
    loop {
        // Phase 1 (cheap, under the state lock): claim the buffered
        // updates and the rebuild generation.
        let (updates, graph, upto, target, trigger) = {
            let mut st = engine.state();
            loop {
                if engine.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if st.request_gen > st.done_gen {
                    break;
                }
                st = engine.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            let target = st.request_gen;
            let updates = std::mem::take(&mut st.pending);
            let upto = st.wal.as_ref().map(|w| w.seq()).unwrap_or(0);
            let trigger = st.trigger;
            let Some(graph) = st.graph.clone() else {
                return; // unreachable: live engines always carry a graph
            };
            (updates, graph, upto, target, trigger)
        };

        if updates.is_empty() {
            let mut st = engine.state();
            st.done_gen = target;
            engine.cv.notify_all();
            continue;
        }

        // Phase 2 (expensive, NO locks held): apply the batch and rebuild
        // while queries keep being served from the old snapshot.
        let started = Instant::now();
        let rebuild_span = bepi_obs::Span::enter("live.rebuild");
        let served = engine.current();
        let rebuilt = served.bepi.rebuild(&graph, &updates);
        let rebuild_time = rebuild_span.exit();
        drop(served);

        match rebuilt {
            Ok(Rebuilt {
                graph: new_graph,
                index: bepi,
                kind,
                reason,
            }) => {
                let micros = started.elapsed().as_micros() as u64;
                // The approximate lane swaps in lockstep with the exact
                // one: both engines in a snapshot answer from the same
                // graph state, so a mode=approx response can never mix
                // epochs with a mode=exact one. Built before the swap
                // lock, off the serving path.
                let bepi = Arc::new(bepi);
                let approx = build_approx(&bepi, &new_graph);
                let mut st = engine.state();
                let status = &mut st.status;
                status.rebuilds += 1;
                status.last_rebuild_us = micros;
                if kind == RebuildKind::Numeric {
                    status.numeric_rebuilds += 1;
                    status.numeric_rebuild_us += micros;
                } else {
                    status.structural_rebuilds += 1;
                    status.full_rebuild_us += micros;
                }
                status.rebuild_kind = kind;
                status.rebuild_trigger = trigger;
                status.last_error = None;
                // Phase 3: the hot-swap. One pointer exchange; queries
                // already holding the old Arc finish on the old snapshot.
                let version = status.version + 1;
                {
                    let _span = bepi_obs::Span::enter("live.swap");
                    let index = VersionedIndex {
                        version,
                        bepi,
                        approx,
                    };
                    engine.publish(&mut st, index);
                }
                bepi_obs::info!(
                    "live",
                    "rebuild hot-swapped",
                    version = version,
                    updates = updates.len(),
                    rebuild_kind = kind.name(),
                    reason = reason.as_deref().unwrap_or("none"),
                    trigger = trigger.name(),
                    elapsed_ms = rebuild_time.as_millis()
                );
                st.status.rebuild_reason = reason;
                st.graph = Some(new_graph);
                st.failed = None;
                if let Err(e) = engine.checkpoint_and_compact(&mut st, upto) {
                    // The swap already happened; a failed checkpoint only
                    // costs replay time on the next restart. Recorded for
                    // /version but *not* as a failed generation — the
                    // caller's rebuild did succeed.
                    st.status.last_error = Some(e);
                }
                st.done_gen = target;
                engine.cv.notify_all();
            }
            Err(e) => {
                bepi_obs::warn!(
                    "live",
                    "rebuild failed; batch re-buffered",
                    generation = target,
                    error = e
                );
                let mut st = engine.state();
                // Put the batch back (ahead of anything newly buffered)
                // so acknowledged updates are never silently dropped.
                let mut merged = updates;
                merged.append(&mut st.pending);
                st.pending = merged;
                st.status.last_error = Some(e.to_string());
                st.failed = Some((target, e.to_string()));
                st.done_gen = target;
                engine.cv.notify_all();
            }
        }
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_core::dynamic::apply_updates;
    use bepi_core::BePiConfig;
    use bepi_graph::generators;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bepi_engine_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    fn engine_over_cycle(n: usize, config: LiveConfig) -> Arc<LiveEngine> {
        let g = generators::cycle(n);
        let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
        LiveEngine::start(bepi, g, config).unwrap()
    }

    #[test]
    fn frozen_engine_serves_but_rejects_updates() {
        let g = generators::cycle(10);
        let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
        let engine = LiveEngine::frozen(bepi);
        assert!(!engine.status().live);
        assert_eq!(engine.version(), 1);
        assert!(engine.current().bepi.query(0).is_ok());
        assert!(engine.submit(&[EdgeUpdate::Insert(0, 5)]).is_err());
        assert!(engine.rebuild_and_wait().is_err());
        engine.shutdown(); // no-op, must not hang
    }

    #[test]
    fn submit_then_forced_rebuild_hot_swaps() {
        let engine = engine_over_cycle(10, LiveConfig::default());
        let before = engine.current();
        let score_before = before.bepi.query(0).unwrap().scores[5];

        let out = engine.submit(&[EdgeUpdate::Insert(0, 5)]).unwrap();
        assert_eq!(out.accepted, 1);
        assert_eq!(out.pending, 1);
        assert!(!out.rebuild_triggered, "no auto-flush configured");
        // Staleness contract: not visible until a rebuild completes.
        assert_eq!(
            engine.current().bepi.query(0).unwrap().scores[5],
            score_before
        );

        let v = engine.rebuild_and_wait().unwrap();
        assert_eq!(v, 2);
        let status = engine.status();
        assert_eq!((status.pending, status.rebuilds), (0, 1));
        let after = engine.current();
        assert_eq!(after.version, 2);
        assert!(after.bepi.query(0).unwrap().scores[5] > score_before);
        // The old snapshot is still queryable by holders of the old Arc.
        assert_eq!(before.bepi.query(0).unwrap().scores[5], score_before);
        engine.shutdown();
    }

    #[test]
    fn auto_flush_threshold_triggers_background_rebuild() {
        let engine = engine_over_cycle(
            16,
            LiveConfig {
                auto_flush_threshold: 3,
                ..LiveConfig::default()
            },
        );
        engine.submit(&[EdgeUpdate::Insert(0, 2)]).unwrap();
        let out = engine
            .submit(&[EdgeUpdate::Insert(0, 3), EdgeUpdate::Insert(0, 4)])
            .unwrap();
        assert!(out.rebuild_triggered);
        // The rebuild is asynchronous; wait for it to land.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while engine.version() < 2 {
            assert!(Instant::now() < deadline, "rebuild never completed");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(engine.status().pending, 0);
        engine.shutdown();
    }

    #[test]
    fn rebuild_with_empty_buffer_is_noop() {
        let engine = engine_over_cycle(8, LiveConfig::default());
        let v = engine.rebuild_and_wait().unwrap();
        assert_eq!(v, 1, "no updates: no new version");
        assert_eq!(engine.status().rebuilds, 0);
        engine.shutdown();
    }

    #[test]
    fn out_of_range_batch_rejected_atomically() {
        let engine = engine_over_cycle(6, LiveConfig::default());
        let batch = [EdgeUpdate::Insert(0, 3), EdgeUpdate::Insert(0, 6)];
        assert!(engine.submit(&batch).is_err());
        let status = engine.status();
        assert_eq!(status.pending, 0, "nothing buffered");
        assert_eq!(status.updates, 0);
        engine.shutdown();
    }

    #[test]
    fn wal_replay_restores_submitted_updates() {
        let wal = tmp("replay.wal");
        let cp = tmp("replay.bepi");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&cp).ok();

        let g = generators::cycle(12);
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        let config = LiveConfig {
            wal_path: Some(wal.clone()),
            ..LiveConfig::default()
        };
        let engine = LiveEngine::start(Arc::clone(&bepi), g.clone(), config.clone()).unwrap();
        engine.submit(&[EdgeUpdate::Insert(0, 6)]).unwrap();
        engine.submit(&[EdgeUpdate::Remove(3, 4)]).unwrap();
        // Simulate a crash: drop without rebuild — updates only in WAL.
        engine.shutdown();
        drop(engine);

        let engine2 = LiveEngine::start(bepi, g.clone(), config).unwrap();
        // Replayed updates are visible immediately (folded in at start).
        let scores = engine2.current().bepi.query(0).unwrap().scores.clone();
        let expected_graph =
            apply_updates(&g, &[EdgeUpdate::Insert(0, 6), EdgeUpdate::Remove(3, 4)]).unwrap();
        let expected = BePi::preprocess(&expected_graph, &cfg).unwrap();
        assert_eq!(scores, expected.query(0).unwrap().scores);
        // The served index came from the replay, not the initial
        // preprocess; Remove(3,4) flips node 3 to a deadend, so the replay
        // ran the full pipeline and says why. Replay is no background
        // rebuild, so the totals stay at zero.
        let status = engine2.status();
        assert_eq!(status.rebuild_kind, RebuildKind::Full);
        assert!(status.rebuild_reason.is_some());
        assert_eq!((status.rebuilds, status.structural_rebuilds), (0, 0));
        engine2.shutdown();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn out_of_range_wal_record_fails_start() {
        // Only `submit` range-checks before the WAL append; a record that
        // reached the log some other way must fail the replay, not vanish
        // or alias a real edge.
        let wal = tmp("oob.wal");
        std::fs::remove_file(&wal).ok();
        let g = generators::cycle(64);
        let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
        let (mut w, _, _) = Wal::open(&wal).unwrap();
        w.append(&[EdgeUpdate::Remove(70, 5)]).unwrap();
        drop(w);
        let config = LiveConfig {
            wal_path: Some(wal.clone()),
            ..LiveConfig::default()
        };
        match LiveEngine::start(bepi, g, config) {
            Err(e) => assert!(matches!(e, SparseError::IndexOutOfBounds { .. }), "{e}"),
            Ok(_) => panic!("an out-of-range WAL record must fail the replay"),
        }
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn checkpoint_compacts_wal_and_restart_is_fast_path() {
        let wal = tmp("compact.wal");
        let cp = tmp("compact.bepi");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&cp).ok();

        let g = generators::cycle(12);
        let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
        let config = LiveConfig {
            wal_path: Some(wal.clone()),
            checkpoint_path: Some(cp.clone()),
            ..LiveConfig::default()
        };
        let engine = LiveEngine::start(bepi, g, config).unwrap();
        engine.submit(&[EdgeUpdate::Insert(0, 6)]).unwrap();
        engine.rebuild_and_wait().unwrap();
        engine.shutdown();

        // The checkpoint exists, is live-capable, and the WAL is empty.
        let (cp_bepi, cp_graph) = persist::load_file_with_graph(&cp).unwrap();
        assert!(cp_graph.is_some(), "checkpoint must embed the graph");
        assert_eq!(cp_graph.unwrap().adjacency().get(0, 6), 1.0);
        let (_, replayed, _) = Wal::open(&wal).unwrap();
        assert!(replayed.is_empty(), "applied segments must be truncated");
        // And it serves the post-update scores.
        assert!(cp_bepi.query(0).unwrap().scores[6] > 0.0);
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&cp).ok();
    }

    #[test]
    fn mmap_checkpoints_write_v6_and_hot_swap_the_mapped_copy() {
        let wal = tmp("mmapcp.wal");
        let cp = tmp("mmapcp.bepi");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&cp).ok();

        let g = generators::cycle(12);
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        let config = LiveConfig {
            wal_path: Some(wal.clone()),
            checkpoint_path: Some(cp.clone()),
            mmap_checkpoints: true,
            ..LiveConfig::default()
        };
        let engine = LiveEngine::start(bepi, g.clone(), config).unwrap();
        assert_eq!(
            engine.current().bepi.mapped_bytes(),
            0,
            "nothing checkpointed yet: still the heap index"
        );
        // Remove(3,4) flips node 3 to a deadend — a structural batch, so
        // the rebuild runs the full pipeline and bit-identity against a
        // from-scratch preprocess holds below.
        let batch = [EdgeUpdate::Insert(0, 6), EdgeUpdate::Remove(3, 4)];
        engine.submit(&batch).unwrap();
        let v = engine.rebuild_and_wait().unwrap();
        assert_eq!(v, 2);

        // The checkpoint landed and the served snapshot was re-pointed
        // at it, same epoch, zero-copy.
        assert!(persist::verify_mapped_file(&cp).is_ok());
        let served = engine.current();
        assert_eq!(served.version, 2);
        assert!(
            served.bepi.mapped_bytes() > 0,
            "post-rebuild snapshot is mapped"
        );
        // The remap re-describes the served index: its bytes now count
        // as mapped.
        let status = engine.status();
        assert!(status.index_bytes.mapped > 0);
        assert_eq!(status.index_bytes, served.bepi.bytes());

        // Bit-identical to a from-scratch heap preprocess of the updated
        // graph (the --mmap byte-identity acceptance bar).
        let expected_graph = apply_updates(&g, &batch).unwrap();
        let expected = BePi::preprocess(&expected_graph, &cfg).unwrap();
        assert_eq!(
            served.bepi.query(0).unwrap().scores,
            expected.query(0).unwrap().scores
        );

        // A second update cycle keeps working over the mapped snapshot:
        // the rebuild preprocesses on the heap, checkpoints, and re-maps.
        engine.submit(&[EdgeUpdate::Remove(5, 6)]).unwrap();
        assert_eq!(engine.rebuild_and_wait().unwrap(), 3);
        assert!(engine.current().bepi.mapped_bytes() > 0);
        engine.shutdown();
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&cp).ok();
    }

    #[test]
    fn threshold_crossing_submit_during_rebuild_still_flushes() {
        let engine = engine_over_cycle(
            16,
            LiveConfig {
                auto_flush_threshold: 2,
                ..LiveConfig::default()
            },
        );
        let baseline = engine.current().bepi.query(0).unwrap().scores[9];
        // First batch crosses the threshold and kicks off a rebuild.
        let out = engine
            .submit(&[EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(0, 3)])
            .unwrap();
        assert!(out.rebuild_triggered);
        // Give the worker a moment to claim the batch so the next submit
        // lands while the rebuild is in flight (either interleaving must
        // work; this makes the in-flight one likely).
        std::thread::sleep(std::time::Duration::from_millis(2));
        let out = engine
            .submit(&[EdgeUpdate::Insert(0, 5), EdgeUpdate::Insert(0, 9)])
            .unwrap();
        assert!(out.rebuild_triggered);
        // Without another submit ever arriving, the second batch must
        // still become visible — the worker owes it a follow-up pass.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let visible = engine.status().pending == 0
                && engine.current().bepi.query(0).unwrap().scores[9] > baseline;
            if visible {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "threshold-crossing batch submitted during a rebuild was never flushed"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        engine.shutdown();
    }

    #[test]
    fn checkpoint_failure_does_not_fail_rebuild() {
        // Checkpoint into a directory that does not exist: the swap
        // succeeds, so rebuild_and_wait must report the new version, with
        // the checkpoint error surfaced via status() only.
        let g = generators::cycle(10);
        let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
        let engine = LiveEngine::start(
            bepi,
            g,
            LiveConfig {
                checkpoint_path: Some(PathBuf::from("/nonexistent-bepi-dir/checkpoint.bepi")),
                ..LiveConfig::default()
            },
        )
        .unwrap();
        engine.submit(&[EdgeUpdate::Insert(0, 5)]).unwrap();
        let v = engine.rebuild_and_wait().expect(
            "a successful hot-swap must not be reported as a rebuild failure \
             just because the checkpoint could not be written",
        );
        assert_eq!(v, 2);
        let err = engine
            .status()
            .last_error
            .expect("checkpoint error recorded");
        // The error names the checkpoint's own path, not its temporary
        // sibling.
        assert!(
            err.starts_with("checkpoint /nonexistent-bepi-dir/checkpoint.bepi failed: io error: "),
            "{err}"
        );
        assert!(!err.contains(".tmp."), "{err}");
        // A later no-op rebuild must not resurface the stale error.
        assert_eq!(engine.rebuild_and_wait().unwrap(), 2);
        engine.shutdown();
    }

    #[test]
    fn info_reports_state() {
        let engine = engine_over_cycle(8, LiveConfig::default());
        engine.submit(&[EdgeUpdate::Insert(1, 3)]).unwrap();
        let status = engine.status();
        assert_eq!(status.version, 1);
        assert_eq!(status.nodes, 8);
        assert_eq!(status.pending, 1);
        assert_eq!(status.updates, 1);
        assert_eq!(status.rebuilds, 0);
        assert!(status.live);
        assert!(status.last_error.is_none());
        assert_eq!(status.rebuild_kind, RebuildKind::Initial);
        assert_eq!(status.rebuild_trigger, RebuildTrigger::None);
        let bepi = &engine.current().bepi;
        assert_eq!(status.index_bytes, Bytes::heap(bepi.heap_bytes()));
        engine.shutdown();
    }

    #[test]
    fn numeric_batch_takes_refactor_path_and_reports_kind() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 5).unwrap();
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        let engine = LiveEngine::start(bepi, g.clone(), LiveConfig::default()).unwrap();

        // Removing one edge of a multi-out-edge source is numeric-only.
        let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
        let v = g.out_neighbors(u).next().unwrap();
        engine.submit(&[EdgeUpdate::Remove(u, v)]).unwrap();
        assert_eq!(engine.rebuild_and_wait().unwrap(), 2);
        let status = engine.status();
        assert_eq!(
            (status.numeric_rebuilds, status.structural_rebuilds),
            (1, 0)
        );
        assert!(status.numeric_rebuild_us > 0);
        assert_eq!(status.numeric_rebuild_us, status.last_rebuild_us);
        assert_eq!(status.rebuild_kind, RebuildKind::Numeric);
        assert_eq!(status.rebuild_trigger, RebuildTrigger::Explicit);

        // The rebuilt snapshot answers like a from-scratch preprocess
        // of the updated graph.
        let expected_graph = apply_updates(&g, &[EdgeUpdate::Remove(u, v)]).unwrap();
        let expected = BePi::preprocess(&expected_graph, &cfg).unwrap();
        let got = engine.current().bepi.query(0).unwrap().scores;
        for (a, b) in got.iter().zip(&expected.query(0).unwrap().scores) {
            assert!((a - b).abs() < 1e-6);
        }

        // A deadend flip is structural: the full pipeline must run.
        let w = (0..g.n())
            .find(|&w| expected_graph.out_degree(w) == 1)
            .unwrap();
        let wv = expected_graph.out_neighbors(w).next().unwrap();
        engine.submit(&[EdgeUpdate::Remove(w, wv)]).unwrap();
        assert_eq!(engine.rebuild_and_wait().unwrap(), 3);
        let status = engine.status();
        assert_eq!((status.rebuilds, status.structural_rebuilds), (2, 1));
        assert_eq!(status.rebuild_kind, RebuildKind::Full);
        engine.shutdown();
    }
}
