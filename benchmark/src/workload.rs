//! What a run is: a workload, a seed, a measuring time, traced or not —
//! and what it hands back.

use crate::spans::Recorder;
use bepi_graph::{Dataset, DatasetSpec, Graph};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Every answer asked for and checked is a top-20.
pub const TOP_K: usize = 20;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ExactCold,
    ServeCold,
    ServeHot,
    LiveMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExactCold,
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::LiveMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactCold => "exact-cold",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::LiveMixed => "live-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The graph a workload runs on: one suite step below the issue's
    /// choice each. The contract's cap (92 runs with set-up in 3420 s)
    /// leaves ~30 s a run, and set-up, the oracle chain and answer
    /// verification all scale with the graph (README).
    fn dataset(self, smoke: bool) -> Dataset {
        if smoke {
            return Dataset::Slashdot;
        }
        match self {
            Workload::ExactCold => Dataset::WikiLink,
            Workload::ServeCold | Workload::ServeHot => Dataset::LiveJournal,
            Workload::LiveMixed => Dataset::Flickr,
        }
    }
}

/// Per-layer metrics of the in-process workload.
const EXACT_COLD_LAYERS: &[&str] = &[
    "core.query_us",
    "core.topk_us",
    "sparse.permute_us",
    "solver.h11_fwd_us",
    "sparse.h21_spmv_us",
    "solver.gmres_us",
    "sparse.h12_spmv_us",
    "solver.h11_back_us",
    "sparse.h3x_spmv_us",
    "sparse.unpermute_us",
    "solver.gmres_iters",
    "sparse.s_spmv_us",
    "solver.ilu_apply_us",
    "solver.gmres_ortho_us",
    "sparse.s_spmv_gbps",
    "core.budget_gap_share",
    "core.query_spoke_us",
    "core.query_hub_us",
    "core.query_deadend_us",
    "core.alloc_count",
    "core.alloc_bytes",
    "core.batch_scaling",
    "walk.tpa_us",
    "walk.tpa_precision_at_20",
    "core.residual_max",
    "core.preprocess_s",
    "incr.analyze_s",
    "incr.assemble_s",
    "solver.block_lu_s",
    "core.schur_s",
    "solver.ilu0_s",
    "core.s_nnz",
    "core.h11_inv_nnz",
    "core.n2",
    "reorder.blocks",
    "server.trace_overhead_share",
    "bench.samples",
    "bench.host_triad_gbps",
];

/// Per-layer metrics every HTTP workload takes.
const HTTP_LAYERS: &[&str] = &[
    "core.query_us",
    "core.topk_us",
    "solver.gmres_iters",
    "core.residual_max",
    "core.s_nnz",
    "core.h11_inv_nnz",
    "core.n2",
    "reorder.blocks",
    "cli.preprocess_s",
    "cli.ready_ms",
    "server.cache_hit_share",
    "server.shed_share",
    "server.degraded_share",
    "server.resp_bytes",
    "server.queue_us",
    "server.solve_us",
    "server.topk_us",
    "server.serialize_us",
    "server.io_us",
    "server.trace_overhead_share",
    "bench.query_p95_ms",
    "server.query_p99_ms",
    "bench.gen_late_p95_us",
    "bench.samples",
    "bench.host_triad_gbps",
];

const SERVE_COLD_LAYERS: &[&str] = &[
    "server.http_overhead_us",
    "core.save_v6_s",
    "mapidx.open_us",
    "mapidx.first_query_us",
];

const SERVE_HOT_LAYERS: &[&str] = &["server.hit_us"];

const LIVE_MIXED_LAYERS: &[&str] = &[
    "live.update_visible_p50_ms",
    "live.visible_numeric_ms",
    "live.visible_structural_ms",
    "live.ack_p50_ms",
    "live.wal_append_us",
    "live.numeric_rebuilds",
    "live.structural_rebuilds",
    "live.swap_stall_ms",
    "live.lost_updates",
    "core.refactor_s",
    "incr.classify_us",
];

impl Workload {
    /// The per-layer metrics this workload's traced run takes; every
    /// other declared per-layer metric reads zero on it. A traced run
    /// that emits any other set is refused, so this list, the code and
    /// `BENCHMARK.json` cannot drift apart.
    pub fn traced_names(self) -> Vec<&'static str> {
        let own: &[&str] = match self {
            Workload::ExactCold => return EXACT_COLD_LAYERS.to_vec(),
            Workload::ServeCold => SERVE_COLD_LAYERS,
            Workload::ServeHot => SERVE_HOT_LAYERS,
            Workload::LiveMixed => LIVE_MIXED_LAYERS,
        };
        HTTP_LAYERS.iter().chain(own).copied().collect()
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time of the run (`--seconds`).
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where span files and scratch data go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// The workload's graph: the suite graph, whatever the seed. `--seed`
    /// drives the query seeds, the arrival schedule and the edge batches;
    /// a graph per seed was tried and put the inputs' own variance (1.6 %
    /// of `index_bytes`, a GMRES iteration more or less) into every
    /// spread the driver holds against a bound.
    pub fn generate_graph(&self) -> (DatasetSpec, Graph) {
        let spec = self.workload.dataset(self.smoke).spec();
        (spec, spec.generate())
    }

    /// An untraced run spends two thirds of `--seconds` in the latency
    /// window and one third in the closed-loop `sat_qps` phase; a traced
    /// run gives a third each to an untraced reference window, the traced
    /// window and the closed loop.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.traced { 1.0 / 3.0 } else { 2.0 / 3.0 })
    }

    pub fn sat_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 3.0)
    }

    /// Not part of `--seconds`: caches fill and lazy set-up finishes.
    pub fn warm_up(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 12.0).clamp(0.25, 1.0))
    }

    pub fn work_dir(&self) -> PathBuf {
        self.out_dir.join(format!(
            "work-{}-{}",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub attempted: u64,
    /// Transport errors, non-200s, shed or degraded answers.
    pub failed: u64,
    /// Answers that arrived and were wrong.
    pub wrong: u64,
    /// Reasons behind `failed`/`wrong` and any violated validity rule
    /// (first few only).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Flags the daemon ran with (host fingerprint).
    pub daemon_flags: Vec<String>,
}

/// The end-to-end metrics, in the order [`RunOutput::set_end_to_end`]
/// takes them.
pub const END_TO_END: [&str; 4] = ["setup_s", "index_bytes", "query_p50_ms", "sat_qps"];

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// What an untraced run reports, and all it reports.
    pub fn set_end_to_end(&mut self, values: [f64; 4]) {
        for (name, value) in END_TO_END.into_iter().zip(values) {
            self.set(name, value);
        }
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0 && self.problems.is_empty()
    }
}

/// What the host gives a memory-bound kernel right now: `a = b + s·c`
/// over three 16 MiB arrays, median of five passes, in GB/s of computed
/// traffic. The indexes here leave L2 on purpose, so every solve leans on
/// the cache and memory the host shares with its other guests; on the
/// host this was built on, that share moved by a third within minutes on
/// one commit, and this number is how a reader tells such a run apart.
pub fn host_triad_gbps() -> f64 {
    const LEN: usize = 2 << 20;
    let b = vec![1.0f64; LEN];
    let c = vec![2.0f64; LEN];
    let mut a = vec![0.0f64; LEN];
    let mut gbps = Vec::new();
    for _ in 0..5 {
        let start = std::time::Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        std::hint::black_box(&mut a);
        gbps.push((24 * LEN) as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&gbps)
}

/// A traced run's recorder, or nothing on an untraced run.
pub type Tracer<'a> = Option<&'a Recorder>;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;
    use std::collections::BTreeSet;

    #[test]
    fn every_declared_name_is_emitted_and_every_emitted_name_is_declared() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(declared, END_TO_END);
        let declared: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            declared.len(),
            spec.per_layer.len(),
            "a per-layer name is declared twice"
        );
        let emitted: BTreeSet<&str> = Workload::ALL
            .into_iter()
            .flat_map(Workload::traced_names)
            .collect();
        assert_eq!(emitted, declared);
        let workloads: Vec<&str> = Workload::ALL.into_iter().map(Workload::name).collect();
        assert_eq!(spec.workloads, workloads);
    }

    #[test]
    fn contract_limits_hold() {
        let spec = Spec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("an end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = &spec.end_to_end[0];
        assert_eq!((setup.name.as_str(), setup.unit.as_str()), ("setup_s", "s"));
        assert!(!setup.higher_is_better);
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }
}
