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
use bepi_core::dynamic::{apply_updates, dedup_opposing, EdgeUpdate, RebuildKind};
use bepi_core::rwr::RwrSolver;
use bepi_core::{classify, persist, BePi, BePiConfig, Classification};
use bepi_graph::Graph;
use bepi_sparse::{Result, SparseError};
use bepi_walk::{ApproxConfig, ApproxEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildTrigger {
    /// No rebuild has run yet (the served index is the initial one).
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

/// A point-in-time summary for `GET /version`.
#[derive(Debug, Clone)]
pub struct VersionInfo {
    /// Served snapshot epoch.
    pub version: u64,
    /// Nodes in the served index.
    pub nodes: usize,
    /// Buffered, not-yet-visible updates.
    pub pending: usize,
    /// Background rebuilds completed since startup.
    pub rebuilds: u64,
    /// Whether this engine accepts updates at all.
    pub live: bool,
    /// The last rebuild *or checkpoint* failure, if any (cleared by the
    /// next fully clean rebuild pass).
    pub last_error: Option<String>,
    /// Which path produced the served index: `initial` (no rebuild yet),
    /// `full` (complete preprocessing pipeline), or `numeric` (plan-frozen
    /// KLU-style refactorization).
    pub rebuild_kind: &'static str,
    /// What scheduled the most recent rebuild: `none`, `threshold`, or
    /// `explicit`.
    pub rebuild_trigger: &'static str,
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
    /// Most recent failure of any kind (rebuild or checkpoint), for
    /// `GET /version` / metrics. Cleared by the next fully clean pass.
    last_error: Option<String>,
    /// The generation whose *rebuild* (apply + preprocess + swap) failed,
    /// with the error. Checkpoint failures do not set this: the swap
    /// landed, so callers of [`LiveEngine::rebuild_and_wait`] still get
    /// their new version. Cleared once a later pass applies the
    /// re-buffered batch.
    failed: Option<(u64, String)>,
    /// What scheduled the pass the worker will run next — recorded at
    /// the `request_gen` bump sites, snapshotted by the worker.
    trigger: RebuildTrigger,
}

/// Shared, thread-safe live-update engine. Cheap to clone via `Arc`.
pub struct LiveEngine {
    current: Mutex<Arc<VersionedIndex>>,
    state: Mutex<MutState>,
    cv: Condvar,
    shutdown: AtomicBool,
    worker: Mutex<Option<JoinHandle<()>>>,
    solver_config: BePiConfig,
    auto_flush_threshold: usize,
    checkpoint_path: Option<PathBuf>,
    mmap_checkpoints: bool,
    rebuilds_total: AtomicU64,
    updates_total: AtomicU64,
    last_rebuild_micros: AtomicU64,
    numeric_rebuilds_total: AtomicU64,
    structural_rebuilds_total: AtomicU64,
    /// Cumulative wall time spent in numeric-path rebuilds, in micros.
    numeric_rebuild_micros: AtomicU64,
    /// Cumulative wall time spent in full-path rebuilds, in micros.
    full_rebuild_micros: AtomicU64,
    /// Encoded [`RebuildKind`] of the served index (0/1/2).
    last_rebuild_kind: AtomicU64,
    /// Encoded [`RebuildTrigger`] of the latest pass (0/1/2).
    last_rebuild_trigger: AtomicU64,
}

fn encode_kind(kind: RebuildKind) -> u64 {
    match kind {
        RebuildKind::Initial => 0,
        RebuildKind::Full => 1,
        RebuildKind::Numeric => 2,
    }
}

fn decode_kind(v: u64) -> RebuildKind {
    match v {
        2 => RebuildKind::Numeric,
        1 => RebuildKind::Full,
        _ => RebuildKind::Initial,
    }
}

fn encode_trigger(t: RebuildTrigger) -> u64 {
    match t {
        RebuildTrigger::None => 0,
        RebuildTrigger::Threshold => 1,
        RebuildTrigger::Explicit => 2,
    }
}

fn decode_trigger(v: u64) -> RebuildTrigger {
    match v {
        2 => RebuildTrigger::Explicit,
        1 => RebuildTrigger::Threshold,
        _ => RebuildTrigger::None,
    }
}

impl LiveEngine {
    /// Wraps an index with no graph: queries work, updates are rejected.
    /// This is the daemon's classic static-snapshot mode. The
    /// approximate lane needs the graph, so it is unavailable here —
    /// use [`LiveEngine::frozen_with_graph`] when the graph is on hand.
    pub fn frozen(bepi: Arc<BePi>) -> Arc<Self> {
        Self::frozen_inner(bepi, None)
    }

    /// Wraps an index *with* its graph, still frozen (updates are
    /// rejected), but with the approximate serving lane enabled: the
    /// snapshot carries an [`ApproxEngine`] built from the graph with
    /// the index's own restart probability.
    pub fn frozen_with_graph(bepi: Arc<BePi>, graph: &Graph) -> Arc<Self> {
        let approx = build_approx(&bepi, graph);
        Self::frozen_inner(bepi, approx)
    }

    fn frozen_inner(bepi: Arc<BePi>, approx: Option<Arc<ApproxEngine>>) -> Arc<Self> {
        Arc::new(Self {
            current: Mutex::new(Arc::new(VersionedIndex {
                version: 1,
                bepi,
                approx,
            })),
            state: Mutex::new(MutState {
                graph: None,
                pending: Vec::new(),
                wal: None,
                request_gen: 0,
                done_gen: 0,
                worker_gone: true,
                last_error: None,
                failed: None,
                trigger: RebuildTrigger::None,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            worker: Mutex::new(None),
            solver_config: BePiConfig::default(),
            auto_flush_threshold: 0,
            checkpoint_path: None,
            mmap_checkpoints: false,
            rebuilds_total: AtomicU64::new(0),
            updates_total: AtomicU64::new(0),
            last_rebuild_micros: AtomicU64::new(0),
            numeric_rebuilds_total: AtomicU64::new(0),
            structural_rebuilds_total: AtomicU64::new(0),
            numeric_rebuild_micros: AtomicU64::new(0),
            full_rebuild_micros: AtomicU64::new(0),
            last_rebuild_kind: AtomicU64::new(0),
            last_rebuild_trigger: AtomicU64::new(0),
        })
    }

    /// Starts a live engine: opens and replays the WAL (if configured),
    /// folds any replayed updates into the served index *before* the
    /// first query, checkpoints that recovered state, and spawns the
    /// background rebuild worker.
    pub fn start(
        bepi: Arc<BePi>,
        graph: Graph,
        solver_config: BePiConfig,
        config: LiveConfig,
    ) -> Result<Arc<Self>> {
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
        if let Some(path) = &config.wal_path {
            let replay_span = bepi_obs::Span::enter("wal.replay");
            let (w, records, report) = Wal::open(path)?;
            let replayed = records.len();
            let mut replay_path = "none";
            if !records.is_empty() {
                // Recovered updates become visible immediately: the WAL
                // acknowledged them before the crash. The checkpoint's
                // symbolic plan survived the save/load round-trip (the
                // index persists every plan field), so a numeric-only batch
                // replays through the cheap refactor path instead of a
                // full preprocess.
                let new_graph = apply_updates(&graph, &records)?;
                let sources: Vec<usize> = records
                    .iter()
                    .map(|u| match *u {
                        EdgeUpdate::Insert(a, _) | EdgeUpdate::Remove(a, _) => a,
                    })
                    .collect();
                bepi = match classify(&bepi.symbolic_plan(), &graph, &new_graph, &sources) {
                    Classification::NumericOnly(dirty) => match bepi.refactor(&new_graph, &dirty) {
                        Ok(b) => {
                            replay_path = "numeric";
                            Arc::new(b)
                        }
                        Err(_) => {
                            replay_path = "full";
                            Arc::new(BePi::preprocess(&new_graph, &solver_config)?)
                        }
                    },
                    Classification::Structural(_) => {
                        replay_path = "full";
                        Arc::new(BePi::preprocess(&new_graph, &solver_config)?)
                    }
                };
                graph = new_graph;
                replayed_through = report.segments;
            }
            let replay_time = replay_span.exit();
            bepi_obs::info!(
                "live",
                "WAL replay complete",
                records = replayed,
                segments = report.segments,
                truncated_bytes = report.truncated_bytes,
                path = replay_path,
                elapsed_ms = replay_time.as_millis()
            );
            wal = Some(w);
        }

        let approx = build_approx(&bepi, &graph);
        let engine = Arc::new(Self {
            current: Mutex::new(Arc::new(VersionedIndex {
                version: 1,
                bepi,
                approx,
            })),
            state: Mutex::new(MutState {
                graph: Some(graph),
                pending: Vec::new(),
                wal,
                request_gen: 0,
                done_gen: 0,
                worker_gone: false,
                last_error: None,
                failed: None,
                trigger: RebuildTrigger::None,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            worker: Mutex::new(None),
            solver_config,
            auto_flush_threshold: config.auto_flush_threshold,
            checkpoint_path: config.checkpoint_path,
            mmap_checkpoints: config.mmap_checkpoints,
            rebuilds_total: AtomicU64::new(0),
            updates_total: AtomicU64::new(0),
            last_rebuild_micros: AtomicU64::new(0),
            numeric_rebuilds_total: AtomicU64::new(0),
            structural_rebuilds_total: AtomicU64::new(0),
            numeric_rebuild_micros: AtomicU64::new(0),
            full_rebuild_micros: AtomicU64::new(0),
            last_rebuild_kind: AtomicU64::new(0),
            last_rebuild_trigger: AtomicU64::new(0),
        });

        if replayed_through > 0 {
            // The recovered state is the new baseline: checkpoint it and
            // drop the replayed WAL prefix so a crash loop cannot grow
            // the log without bound.
            let mut st = engine.state.lock().unwrap_or_else(|e| e.into_inner());
            engine.checkpoint_and_compact(&mut st, replayed_through)?;
        }

        let worker = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("bepi-rebuild".to_string())
                .spawn(move || worker_loop(&engine))?
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

    /// Whether this engine accepts edge updates.
    pub fn is_live(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .graph
            .is_some()
    }

    /// Buffered updates not yet visible to queries.
    pub fn pending_len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .len()
    }

    /// Background rebuilds completed since startup.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds_total.load(Ordering::Relaxed)
    }

    /// Edge updates accepted since startup.
    pub fn updates_accepted(&self) -> u64 {
        self.updates_total.load(Ordering::Relaxed)
    }

    /// Duration of the most recent completed rebuild, in microseconds.
    pub fn last_rebuild_micros(&self) -> u64 {
        self.last_rebuild_micros.load(Ordering::Relaxed)
    }

    /// Rebuilds that took the numeric-only refactorization path.
    pub fn numeric_rebuilds(&self) -> u64 {
        self.numeric_rebuilds_total.load(Ordering::Relaxed)
    }

    /// Rebuilds that ran the full (structural) preprocessing pipeline.
    pub fn structural_rebuilds(&self) -> u64 {
        self.structural_rebuilds_total.load(Ordering::Relaxed)
    }

    /// Cumulative wall time of numeric-path rebuilds, in seconds.
    pub fn numeric_rebuild_seconds(&self) -> f64 {
        self.numeric_rebuild_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Cumulative wall time of full-path rebuilds, in seconds.
    pub fn full_rebuild_seconds(&self) -> f64 {
        self.full_rebuild_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Which path produced the currently served index.
    pub fn last_rebuild_kind(&self) -> RebuildKind {
        decode_kind(self.last_rebuild_kind.load(Ordering::Relaxed))
    }

    /// What scheduled the most recent rebuild pass.
    pub fn last_rebuild_trigger(&self) -> RebuildTrigger {
        decode_trigger(self.last_rebuild_trigger.load(Ordering::Relaxed))
    }

    /// Point-in-time status summary.
    pub fn info(&self) -> VersionInfo {
        let current = self.current();
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        VersionInfo {
            version: current.version,
            nodes: current.bepi.node_count(),
            pending: st.pending.len(),
            rebuilds: self.rebuilds(),
            live: st.graph.is_some(),
            last_error: st.last_error.clone(),
            rebuild_kind: self.last_rebuild_kind().name(),
            rebuild_trigger: self.last_rebuild_trigger().name(),
        }
    }

    /// Validates, logs (WAL append + fsync), and buffers a batch of
    /// updates. All-or-nothing: an out-of-range update rejects the whole
    /// batch before anything is logged. Queries keep seeing the old
    /// snapshot until a rebuild completes.
    pub fn submit(&self, updates: &[EdgeUpdate]) -> Result<SubmitOutcome> {
        if updates.is_empty() {
            return Ok(SubmitOutcome {
                accepted: 0,
                pending: self.pending_len(),
                version: self.version(),
                rebuild_triggered: false,
            });
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(graph) = &st.graph else {
            return Err(SparseError::Parse(
                "live updates disabled: the index was loaded without its graph \
                 (re-preprocess with --embed-graph or pass --graph)"
                    .to_string(),
            ));
        };
        let n = graph.n();
        for update in updates {
            let (EdgeUpdate::Insert(u, v) | EdgeUpdate::Remove(u, v)) = *update;
            if u >= n || v >= n {
                return Err(SparseError::IndexOutOfBounds {
                    index: (u, v),
                    shape: (n, n),
                });
            }
        }
        // Durability first: only after the fsync succeeds does the batch
        // enter the in-memory buffer (and get acknowledged).
        if let Some(wal) = &mut st.wal {
            wal.append(updates)?;
        }
        st.pending.extend_from_slice(updates);
        st.pending = dedup_opposing(&st.pending);
        self.updates_total
            .fetch_add(updates.len() as u64, Ordering::Relaxed);

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
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
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
    /// always reconstruct current state.
    fn checkpoint_and_compact(&self, st: &mut MutState, upto: u64) -> Result<()> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let Some(graph) = &st.graph else {
            return Ok(());
        };
        let current = self.current();
        let span = bepi_obs::Span::enter("live.checkpoint");
        persist::save_file_v6(&current.bepi, Some(graph), path)?;
        let checkpoint_time = span.exit();
        if let Some(wal) = &mut st.wal {
            wal.compact_through(upto)?;
        }
        bepi_obs::debug!(
            "live",
            "checkpoint written",
            version = current.version,
            elapsed_ms = checkpoint_time.as_millis()
        );
        if self.mmap_checkpoints {
            self.remap_from_checkpoint(path, &current);
        }
        Ok(())
    }

    /// Re-opens the just-written v6 checkpoint as a shared mapping and
    /// swaps the mapped copy in for the heap-built snapshot of the same
    /// epoch: the daemon then serves zero-copy from the page cache and
    /// the rebuild's heap allocations are freed once in-flight queries
    /// drain. The new file is mapped *before* the old snapshot's `Arc`
    /// is released, and the swap is skipped if another hot-swap bumped
    /// the version in the meantime (the mapped bytes would be stale).
    /// Failures are logged and leave the heap snapshot serving — the
    /// checkpoint itself already landed.
    fn remap_from_checkpoint(&self, path: &std::path::Path, expected: &VersionedIndex) {
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
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        if current.version != expected.version {
            return;
        }
        *current = Arc::new(VersionedIndex {
            version: expected.version,
            bepi: mapped,
            // Same graph state, so the same approximate engine: it owns
            // its operator and never reads the adjacency again.
            approx: expected.approx.clone(),
        });
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
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
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
            let mut st = engine.state.lock().unwrap_or_else(|e| e.into_inner());
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
            let mut st = engine.state.lock().unwrap_or_else(|e| e.into_inner());
            st.done_gen = target;
            engine.cv.notify_all();
            continue;
        }

        // Phase 2 (expensive, NO locks held): apply the batch and rebuild
        // while queries keep being served from the old snapshot. A batch
        // that provably preserves the served index's symbolic plan takes
        // the numeric-only refactorization; anything structural (or a
        // refactor error) runs the full preprocessing pipeline.
        let started = Instant::now();
        let rebuild_span = bepi_obs::Span::enter("live.rebuild");
        let served = engine.current();
        let rebuilt = apply_updates(&graph, &updates).and_then(|new_graph| {
            let sources: Vec<usize> = updates
                .iter()
                .map(|u| match *u {
                    EdgeUpdate::Insert(a, _) | EdgeUpdate::Remove(a, _) => a,
                })
                .collect();
            let plan = served.bepi.symbolic_plan();
            let (bepi, kind) = match classify(&plan, &graph, &new_graph, &sources) {
                Classification::NumericOnly(dirty) => {
                    match served.bepi.refactor(&new_graph, &dirty) {
                        Ok(b) => (b, RebuildKind::Numeric),
                        Err(e) => {
                            bepi_obs::warn!(
                                "live",
                                "numeric refactor failed; falling back to full preprocess",
                                error = e
                            );
                            (
                                BePi::preprocess(&new_graph, &engine.solver_config)?,
                                RebuildKind::Full,
                            )
                        }
                    }
                }
                Classification::Structural(why) => {
                    bepi_obs::debug!("live", "structural batch", reason = why);
                    (
                        BePi::preprocess(&new_graph, &engine.solver_config)?,
                        RebuildKind::Full,
                    )
                }
            };
            Ok((new_graph, bepi, kind))
        });
        let rebuild_time = rebuild_span.exit();
        drop(served);

        match rebuilt {
            Ok((new_graph, bepi, kind)) => {
                let micros = started.elapsed().as_micros() as u64;
                engine.last_rebuild_micros.store(micros, Ordering::Relaxed);
                match kind {
                    RebuildKind::Numeric => {
                        engine
                            .numeric_rebuilds_total
                            .fetch_add(1, Ordering::Relaxed);
                        engine
                            .numeric_rebuild_micros
                            .fetch_add(micros, Ordering::Relaxed);
                    }
                    _ => {
                        engine
                            .structural_rebuilds_total
                            .fetch_add(1, Ordering::Relaxed);
                        engine
                            .full_rebuild_micros
                            .fetch_add(micros, Ordering::Relaxed);
                    }
                }
                engine
                    .last_rebuild_kind
                    .store(encode_kind(kind), Ordering::Relaxed);
                engine
                    .last_rebuild_trigger
                    .store(encode_trigger(trigger), Ordering::Relaxed);
                // The approximate lane swaps in lockstep with the exact
                // one: both engines in a snapshot answer from the same
                // graph state, so a mode=approx response can never mix
                // epochs with a mode=exact one. Built before the swap
                // lock, off the serving path.
                let bepi = Arc::new(bepi);
                let approx = build_approx(&bepi, &new_graph);
                // Phase 3: the hot-swap. One pointer exchange; queries
                // already holding the old Arc finish on the old snapshot.
                let new_version = {
                    let _span = bepi_obs::Span::enter("live.swap");
                    let mut current = engine.current.lock().unwrap_or_else(|e| e.into_inner());
                    let v = current.version + 1;
                    *current = Arc::new(VersionedIndex {
                        version: v,
                        bepi,
                        approx,
                    });
                    v
                };
                engine.rebuilds_total.fetch_add(1, Ordering::Relaxed);
                bepi_obs::info!(
                    "live",
                    "rebuild hot-swapped",
                    version = new_version,
                    updates = updates.len(),
                    rebuild_kind = kind.name(),
                    trigger = trigger.name(),
                    elapsed_ms = rebuild_time.as_millis()
                );
                let mut st = engine.state.lock().unwrap_or_else(|e| e.into_inner());
                st.graph = Some(new_graph);
                st.last_error = None;
                st.failed = None;
                if let Err(e) = engine.checkpoint_and_compact(&mut st, upto) {
                    // The swap already happened; a failed checkpoint only
                    // costs replay time on the next restart. Recorded for
                    // /version but *not* as a failed generation — the
                    // caller's rebuild did succeed.
                    st.last_error = Some(format!("checkpoint failed: {e}"));
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
                let mut st = engine.state.lock().unwrap_or_else(|e| e.into_inner());
                // Put the batch back (ahead of anything newly buffered)
                // so acknowledged updates are never silently dropped.
                let mut merged = updates;
                merged.append(&mut st.pending);
                st.pending = merged;
                st.last_error = Some(e.to_string());
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
    use bepi_graph::generators;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bepi_engine_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    fn engine_over_cycle(n: usize, config: LiveConfig) -> Arc<LiveEngine> {
        let g = generators::cycle(n);
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        LiveEngine::start(bepi, g, cfg, config).unwrap()
    }

    #[test]
    fn frozen_engine_serves_but_rejects_updates() {
        let g = generators::cycle(10);
        let bepi = Arc::new(BePi::preprocess(&g, &BePiConfig::default()).unwrap());
        let engine = LiveEngine::frozen(bepi);
        assert!(!engine.is_live());
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
        assert_eq!(engine.pending_len(), 0);
        assert_eq!(engine.rebuilds(), 1);
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
        assert_eq!(engine.pending_len(), 0);
        engine.shutdown();
    }

    #[test]
    fn rebuild_with_empty_buffer_is_noop() {
        let engine = engine_over_cycle(8, LiveConfig::default());
        let v = engine.rebuild_and_wait().unwrap();
        assert_eq!(v, 1, "no updates: no new version");
        assert_eq!(engine.rebuilds(), 0);
        engine.shutdown();
    }

    #[test]
    fn out_of_range_batch_rejected_atomically() {
        let engine = engine_over_cycle(6, LiveConfig::default());
        let batch = [EdgeUpdate::Insert(0, 3), EdgeUpdate::Insert(0, 6)];
        assert!(engine.submit(&batch).is_err());
        assert_eq!(engine.pending_len(), 0, "nothing buffered");
        assert_eq!(engine.updates_accepted(), 0);
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
        let engine = LiveEngine::start(Arc::clone(&bepi), g.clone(), cfg, config.clone()).unwrap();
        engine.submit(&[EdgeUpdate::Insert(0, 6)]).unwrap();
        engine.submit(&[EdgeUpdate::Remove(3, 4)]).unwrap();
        // Simulate a crash: drop without rebuild — updates only in WAL.
        engine.shutdown();
        drop(engine);

        let engine2 = LiveEngine::start(bepi, g.clone(), cfg, config).unwrap();
        // Replayed updates are visible immediately (folded in at start).
        let scores = engine2.current().bepi.query(0).unwrap().scores.clone();
        let expected_graph =
            apply_updates(&g, &[EdgeUpdate::Insert(0, 6), EdgeUpdate::Remove(3, 4)]).unwrap();
        let expected = BePi::preprocess(&expected_graph, &cfg).unwrap();
        assert_eq!(scores, expected.query(0).unwrap().scores);
        engine2.shutdown();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn checkpoint_compacts_wal_and_restart_is_fast_path() {
        let wal = tmp("compact.wal");
        let cp = tmp("compact.bepi");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&cp).ok();

        let g = generators::cycle(12);
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        let config = LiveConfig {
            wal_path: Some(wal.clone()),
            checkpoint_path: Some(cp.clone()),
            ..LiveConfig::default()
        };
        let engine = LiveEngine::start(bepi, g, cfg, config).unwrap();
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
        let engine = LiveEngine::start(bepi, g.clone(), cfg, config).unwrap();
        assert!(
            !engine.current().bepi.is_mapped(),
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
        assert!(served.bepi.is_mapped(), "post-rebuild snapshot is mapped");

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
        assert!(engine.current().bepi.is_mapped());
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
            let visible = engine.pending_len() == 0
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
        // the checkpoint error surfaced via info() only.
        let g = generators::cycle(10);
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        let engine = LiveEngine::start(
            bepi,
            g,
            cfg,
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
        let err = engine.info().last_error.expect("checkpoint error recorded");
        assert!(err.contains("checkpoint failed"), "{err}");
        // A later no-op rebuild must not resurface the stale error.
        assert_eq!(engine.rebuild_and_wait().unwrap(), 2);
        engine.shutdown();
    }

    #[test]
    fn info_reports_state() {
        let engine = engine_over_cycle(8, LiveConfig::default());
        engine.submit(&[EdgeUpdate::Insert(1, 3)]).unwrap();
        let info = engine.info();
        assert_eq!(info.version, 1);
        assert_eq!(info.nodes, 8);
        assert_eq!(info.pending, 1);
        assert_eq!(info.rebuilds, 0);
        assert!(info.live);
        assert!(info.last_error.is_none());
        assert_eq!(info.rebuild_kind, "initial");
        assert_eq!(info.rebuild_trigger, "none");
        engine.shutdown();
    }

    #[test]
    fn numeric_batch_takes_refactor_path_and_reports_kind() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 5).unwrap();
        let cfg = BePiConfig::default();
        let bepi = Arc::new(BePi::preprocess(&g, &cfg).unwrap());
        let engine = LiveEngine::start(bepi, g.clone(), cfg, LiveConfig::default()).unwrap();

        // Removing one edge of a multi-out-edge source is numeric-only.
        let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
        let v = g.out_neighbors(u).next().unwrap();
        engine.submit(&[EdgeUpdate::Remove(u, v)]).unwrap();
        assert_eq!(engine.rebuild_and_wait().unwrap(), 2);
        assert_eq!(engine.numeric_rebuilds(), 1);
        assert_eq!(engine.structural_rebuilds(), 0);
        assert!(engine.numeric_rebuild_seconds() > 0.0);
        let info = engine.info();
        assert_eq!(info.rebuild_kind, "numeric");
        assert_eq!(info.rebuild_trigger, "explicit");

        // The refactored snapshot answers like a from-scratch preprocess
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
        assert_eq!(engine.structural_rebuilds(), 1);
        assert_eq!(engine.info().rebuild_kind, "full");
        engine.shutdown();
    }
}
