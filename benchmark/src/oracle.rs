//! The in-process oracle the HTTP workloads are judged against.
//!
//! One index per graph version, built by the same public calls the
//! daemon's rebuild worker makes (`apply_updates`, `classify`,
//! `refactor` / `preprocess`), which is what makes its score strings
//! comparable bit for bit with the daemon's. The chain itself is judged
//! independently: by the raw-graph residual, and by an index preprocessed
//! from scratch on the fully updated graph.

use crate::check::{check_top_k, residual_inf, RESIDUAL_LIMIT};
use crate::http::QueryBody;
use crate::openloop;
use crate::sample::{Rng, SeedClasses};
use crate::stats;
use crate::workload::{us, RunConfig, TOP_K};
use bepi_core::dynamic::apply_updates;
use bepi_core::rwr::build_h;
use bepi_core::{classify, BePi, Classification, EdgeUpdate};
use bepi_graph::Graph;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Edges per `POST /edges`, equal to `--auto-flush`: every batch triggers
/// exactly one rebuild, so batch `k` becomes graph version `k + 2`.
pub const BATCH_EDGES: usize = 16;

/// RNG stream of the edge batches (the workloads' other streams are 1-3).
const BATCH_STREAM: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    Numeric,
    Structural,
}

/// A checked `/query` answer.
pub struct Answer {
    pub seed: usize,
    pub version: u64,
    pub body: QueryBody,
    pub bytes: usize,
}

/// The in-process oracle: one index per graph version, built by the same
/// public calls the daemon's rebuild worker makes (`apply_updates`,
/// `classify`, `refactor` / `preprocess`), which is what makes its score
/// strings comparable bit for bit; the raw-graph residual and the
/// from-scratch index at the final version judge the chain itself.
pub struct Oracle {
    pub versions: Vec<BePi>,
    pub graphs: Vec<Graph>,
    pub batches: Vec<(BatchKind, Vec<EdgeUpdate>)>,
    /// Wall time of each `refactor` / `classify` call the chain made.
    pub refactor_s: Vec<f64>,
    pub classify_us: Vec<f64>,
}

/// Builds the version chain: the loaded index, then one index per edge
/// batch. Batches are made here because "numeric-safe" is a property of
/// a batch *against the plan it meets*, which changes at every structural
/// rebuild; each batch is classified as the daemon will classify it.
pub fn build_oracle(
    cfg: &RunConfig,
    index: BePi,
    graph: Graph,
    classes: &SeedClasses,
    write_interval: Option<f64>,
    total: Duration,
) -> Result<Oracle, String> {
    let e = |err: bepi_sparse::SparseError| err.to_string();
    let mut oracle = Oracle {
        versions: vec![index],
        graphs: vec![graph],
        batches: Vec::new(),
        refactor_s: Vec::new(),
        classify_us: Vec::new(),
    };
    let Some(interval) = write_interval else {
        return Ok(oracle);
    };
    let count = (total.as_secs_f64() / interval).ceil() as usize;
    let mut rng = Rng::new(cfg.seed, BATCH_STREAM);
    let mut classes = classes.clone();
    for k in 0..count {
        let kind = if k % 5 == 4 {
            BatchKind::Structural
        } else {
            BatchKind::Numeric
        };
        let current = oracle.versions.last().expect("chain starts non-empty");
        let g_old = oracle.graphs.last().expect("chain starts non-empty");
        // Numeric-safe: a spoke gains an edge to a hub (its H11 block and
        // the dead-end set stay as they are). Structural: dead ends gain
        // their first out-edge.
        let sources = match kind {
            BatchKind::Numeric => &classes.spokes,
            BatchKind::Structural => &classes.dead_ends,
        };
        if sources.len() < BATCH_EDGES || classes.hubs.is_empty() {
            return Err("graph too small for the edge-batch schedule".into());
        }
        let mut batch = Vec::with_capacity(BATCH_EDGES);
        let mut used = BTreeSet::new();
        while batch.len() < BATCH_EDGES {
            let u = sources[rng.below(sources.len())];
            let v = classes.hubs[rng.below(classes.hubs.len())];
            if g_old.adjacency().get(u, v) == 0.0 && used.insert(u) {
                batch.push(EdgeUpdate::Insert(u, v));
            }
        }
        let g_new = apply_updates(g_old, &batch).map_err(e)?;
        let update_sources: Vec<usize> = batch
            .iter()
            .map(|u| match *u {
                EdgeUpdate::Insert(a, _) | EdgeUpdate::Remove(a, _) => a,
            })
            .collect();
        let t = Instant::now();
        let verdict = classify(&current.symbolic_plan(), g_old, &g_new, &update_sources);
        oracle.classify_us.push(us(t.elapsed()));
        let next = match (kind, verdict) {
            (BatchKind::Numeric, Classification::NumericOnly(dirty)) => {
                let t = Instant::now();
                let next = current.refactor(&g_new, &dirty).map_err(e)?;
                oracle.refactor_s.push(t.elapsed().as_secs_f64());
                next
            }
            (BatchKind::Structural, Classification::Structural(_)) => {
                let next = BePi::preprocess(&g_new, current.config()).map_err(e)?;
                classes = SeedClasses::of(&next);
                next
            }
            (kind, verdict) => {
                return Err(format!(
                    "batch {k} meant as {kind:?} classified as {verdict:?}"
                ))
            }
        };
        oracle.versions.push(next);
        oracle.graphs.push(g_new);
        oracle.batches.push((kind, batch));
    }
    Ok(oracle)
}

pub struct Verdicts {
    /// Per answer: why it is wrong, if it is.
    pub wrong: Vec<Option<String>>,
    pub residual_max: f64,
    pub scratch_mismatches: usize,
    /// Mean in-process cost of the answers verified.
    pub query_us: f64,
    pub topk_us: f64,
}

/// Solves every distinct `(version, seed)` once, on `nproc` threads, and
/// checks each body's ids and score strings by linear scan of the
/// oracle's scores. Twenty solves also take the raw-graph residual, and
/// the final version's answers are compared with an index preprocessed
/// from scratch on the fully updated graph.
pub fn verify_answers(
    cfg: &RunConfig,
    oracle: &Oracle,
    answers: &[Answer],
    c: f64,
    final_seeds: &[usize],
    final_version: u64,
) -> Result<Verdicts, String> {
    let e = |err: bepi_sparse::SparseError| err.to_string();
    let mut wrong: Vec<Option<String>> = vec![None; answers.len()];
    let mut by_key: BTreeMap<(u64, usize), Vec<usize>> = BTreeMap::new();
    for (i, a) in answers.iter().enumerate() {
        if a.version == 0 || a.version as usize > oracle.versions.len() {
            wrong[i] = Some(format!("version {} was never scheduled", a.version));
        } else {
            by_key.entry((a.version, a.seed)).or_default().push(i);
        }
    }
    let keys: Vec<(u64, usize)> = by_key.keys().copied().collect();
    let live = oracle.versions.len() > 1;
    // Residual samples: spread over the keys on a read-only workload; the
    // final version's twenty on a live one (one H to build, and the
    // version every acknowledged update must have reached).
    let stride = (keys.len() / 20).max(1);
    let residual_version = if live { final_version } else { 1 };
    let h = oracle
        .graphs
        .get(residual_version as usize - 1)
        .map(|g| build_h(g, c).map_err(e))
        .transpose()?;
    let scratch = match oracle.graphs.get(residual_version as usize - 1) {
        Some(g) if live => Some(BePi::preprocess(g, oracle.versions[0].config()).map_err(e)?),
        _ => None,
    };

    struct Solved {
        verdicts: Vec<(usize, String)>,
        residual: f64,
        scratch_mismatch: bool,
        query_us: f64,
        topk_us: f64,
    }
    let next = AtomicUsize::new(0);
    let solved: Vec<Solved> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..openloop::nproc())
            .map(|_| {
                scope.spawn(|| {
                    bepi_par::with_kernel_threads(1, || {
                        let mut mine = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(version, seed)) = keys.get(k) else {
                                return mine;
                            };
                            let index = &oracle.versions[version as usize - 1];
                            let t = Instant::now();
                            let answer = index
                                .query_with_stats(seed)
                                .expect("answered seeds are in range");
                            let query_us = us(t.elapsed());
                            // The scan below needs no sort; the real
                            // top-k runs only where its cost is reported.
                            let t = Instant::now();
                            if cfg.traced {
                                std::hint::black_box(answer.top_k(TOP_K));
                            }
                            let topk_us = us(t.elapsed());
                            let verdicts = by_key[&(version, seed)]
                                .iter()
                                .filter_map(|&i| {
                                    let body = &answers[i].body;
                                    check_top_k(&answer.scores, &body.results, TOP_K)
                                        .and_then(|()| {
                                            if body.iterations == answer.iterations as u64 {
                                                Ok(())
                                            } else {
                                                Err(format!(
                                                    "{} iterations, oracle took {}",
                                                    body.iterations, answer.iterations
                                                ))
                                            }
                                        })
                                        .err()
                                        .map(|why| (i, why))
                                })
                                .collect();
                            let sampled = version == residual_version
                                && if live {
                                    final_seeds.contains(&seed)
                                } else {
                                    k.is_multiple_of(stride)
                                };
                            let residual = match (&h, sampled) {
                                (Some(h), true) => residual_inf(h, &answer.scores, seed, c),
                                _ => 0.0,
                            };
                            let scratch_mismatch = match (&scratch, sampled) {
                                (Some(scratch), true) => scratch
                                    .query_with_stats(seed)
                                    .expect("same node count")
                                    .scores
                                    .iter()
                                    .zip(&answer.scores)
                                    .any(|(a, b)| (a - b).abs() > RESIDUAL_LIMIT),
                                _ => false,
                            };
                            mine.push(Solved {
                                verdicts,
                                residual,
                                scratch_mismatch,
                                query_us,
                                topk_us,
                            });
                        }
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a verifier thread panicked"))
            .collect()
    });
    let mut residual_max: f64 = 0.0;
    let mut scratch_mismatches = 0;
    for s in &solved {
        for (i, why) in &s.verdicts {
            wrong[*i] = Some(why.clone());
        }
        residual_max = residual_max.max(s.residual);
        scratch_mismatches += s.scratch_mismatch as usize;
    }
    let mean_of = |f: fn(&Solved) -> f64| stats::mean(&solved.iter().map(f).collect::<Vec<_>>());
    Ok(Verdicts {
        wrong,
        residual_max,
        scratch_mismatches,
        query_us: mean_of(|s| s.query_us),
        topk_us: mean_of(|s| s.topk_us),
    })
}

/// `Wal::append` (write + fsync) of the run's own batches on the run's
/// own directory: the durable part of an acknowledgement.
pub fn wal_append_us(oracle: &Oracle, work: &Path) -> Result<f64, String> {
    let path = work.join("probe.wal");
    let (mut wal, _, _) = bepi_live::Wal::open(&path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for (_, batch) in &oracle.batches {
        let t = Instant::now();
        wal.append(batch).map_err(|e| e.to_string())?;
        times.push(us(t.elapsed()));
    }
    Ok(stats::median(&times))
}
