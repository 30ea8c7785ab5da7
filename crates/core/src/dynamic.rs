//! Dynamic graphs via batch re-preprocessing.
//!
//! Section 5 of the paper: "A conventional strategy for preprocessing
//! methods on dynamic graphs is batch update, e.g., it stores update
//! information such as edge insertions for one day, and re-preprocesses
//! the changed graph at midnight. Note that our method is desirable for
//! this case since our method is efficient in terms of preprocessing
//! time." [`BePi::rebuild`] is that re-preprocess, for one batch of
//! [`EdgeUpdate`]s against the graph an index was built from. Buffering
//! the batch (and deciding when to rebuild) is the caller's business —
//! `bepi-live` buffers behind a write-ahead log and rebuilds on a
//! background thread.
//!
//! On top of the paper's strategy, a batch that provably keeps the
//! index's frozen [`bepi_incr::SymbolicPlan`] — same nodes, no dead-end
//! flip, no edge across two `H11` blocks ([`bepi_incr::classify`]) — skips
//! the symbolic phase: the rebuild runs the plan-frozen preprocess,
//! [`BePi::preprocess_with_plan`], which keeps the plan's ordering and
//! redoes every numeric phase in full. A structural batch, or a
//! plan-frozen preprocess that fails, runs the full pipeline
//! ([`BePi::preprocess`]). The numeric path's index *is* the plan-frozen
//! preprocess of the new graph; the full path's is bit-identical to a
//! from-scratch preprocess of it.

use crate::bepi::BePi;
use bepi_graph::Graph;
use bepi_incr::{classify, Classification};
use bepi_sparse::{Coo, Csr, Result, SparseError};

/// Which rebuild path produced a served index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RebuildKind {
    /// The initial preprocess at construction (or load) time.
    #[default]
    Initial,
    /// A full re-preprocess: structural batch, or a numeric attempt that
    /// had to fall back.
    Full,
    /// A plan-frozen preprocess ([`BePi::preprocess_with_plan`]) under
    /// the index's symbolic plan.
    Numeric,
}

impl RebuildKind {
    /// Stable lower-case name for logs, metrics, and the version JSON.
    pub fn name(self) -> &'static str {
        match self {
            RebuildKind::Initial => "initial",
            RebuildKind::Full => "full",
            RebuildKind::Numeric => "numeric",
        }
    }
}

/// One edge mutation of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Insert the edge `u → v` with weight 1 (no-op if already present —
    /// inserts are idempotent, so replaying a logged batch over a state
    /// that already contains it changes nothing).
    Insert(usize, usize),
    /// Remove the edge `u → v` entirely (no-op if absent).
    Remove(usize, usize),
}

/// The outcome of [`BePi::rebuild`].
#[derive(Debug)]
pub struct Rebuilt {
    /// The graph with the batch applied.
    pub graph: Graph,
    /// The index over [`Rebuilt::graph`].
    pub index: BePi,
    /// Which path built [`Rebuilt::index`]: `Numeric` or `Full`.
    pub kind: RebuildKind,
    /// Why the rebuild was full: the classifier's structural reason, or
    /// the plan-frozen preprocess's error that forced the fallback. `None`
    /// for `Numeric`.
    pub reason: Option<String>,
}

impl BePi {
    /// Applies `updates` to `graph` — the graph this index was built
    /// from — and rebuilds the index over the result with this index's
    /// own config: a plan-frozen [`BePi::preprocess_with_plan`] when
    /// [`bepi_incr::classify`] proves the batch keeps this index's
    /// symbolic plan, a full [`BePi::preprocess`] otherwise. A failed
    /// plan-frozen preprocess never drops the batch; it falls back to the
    /// full pipeline. An out-of-range update fails the whole batch before
    /// anything is built.
    pub fn rebuild(&self, graph: &Graph, updates: &[EdgeUpdate]) -> Result<Rebuilt> {
        let new_graph = apply_updates(graph, updates)?;
        let sources: Vec<usize> = updates
            .iter()
            .map(|&(EdgeUpdate::Insert(u, _) | EdgeUpdate::Remove(u, _))| u)
            .collect();
        let plan = self.symbolic_plan();
        let reason = match classify(&plan, graph, &new_graph, &sources) {
            Classification::NumericOnly(()) => {
                match BePi::preprocess_with_plan(&new_graph, self.config(), &plan) {
                    Ok(index) => {
                        return Ok(Rebuilt {
                            graph: new_graph,
                            index,
                            kind: RebuildKind::Numeric,
                            reason: None,
                        })
                    }
                    Err(e) => {
                        bepi_obs::warn!(
                            "rebuild",
                            "plan-frozen preprocess failed; falling back to full preprocess",
                            error = e
                        );
                        format!("plan-frozen preprocess failed: {e}")
                    }
                }
            }
            Classification::Structural(why) => why,
        };
        let index = BePi::preprocess(&new_graph, self.config())?;
        Ok(Rebuilt {
            graph: new_graph,
            index,
            kind: RebuildKind::Full,
            reason: Some(reason),
        })
    }
}

/// Fails with [`SparseError::IndexOutOfBounds`] on the first update whose
/// endpoint is not a node of an `n`-node graph.
pub fn check_in_range(n: usize, updates: &[EdgeUpdate]) -> Result<()> {
    for &(EdgeUpdate::Insert(u, v) | EdgeUpdate::Remove(u, v)) in updates {
        if u >= n || v >= n {
            return Err(SparseError::IndexOutOfBounds {
                index: (u, v),
                shape: (n, n),
            });
        }
    }
    Ok(())
}

/// Drops updates that can never affect the outcome: an `Insert(u, v)`
/// followed (anywhere later in the batch) by a `Remove(u, v)` is
/// cancelled by it, and of several removes on the same edge with no
/// insert in between only the last survives. Order of the surviving
/// updates is preserved, so per edge the result is at most one `Remove`
/// followed only by `Insert`s. One forward pass, O(batch).
pub fn dedup_opposing(updates: &[EdgeUpdate]) -> Vec<EdgeUpdate> {
    use std::collections::HashMap;
    struct PerEdge {
        live_inserts: Vec<usize>,
        last_remove: Option<usize>,
    }
    let mut alive = vec![true; updates.len()];
    let mut per_edge: HashMap<(usize, usize), PerEdge> = HashMap::new();
    for (i, update) in updates.iter().enumerate() {
        match *update {
            EdgeUpdate::Insert(u, v) => {
                per_edge
                    .entry((u, v))
                    .or_insert_with(|| PerEdge {
                        live_inserts: Vec::new(),
                        last_remove: None,
                    })
                    .live_inserts
                    .push(i);
            }
            EdgeUpdate::Remove(u, v) => {
                let e = per_edge.entry((u, v)).or_insert_with(|| PerEdge {
                    live_inserts: Vec::new(),
                    last_remove: None,
                });
                for &j in &e.live_inserts {
                    alive[j] = false;
                }
                e.live_inserts.clear();
                // An earlier remove with no insert since is redundant.
                if let Some(r) = e.last_remove.replace(i) {
                    alive[r] = false;
                }
            }
        }
    }
    updates
        .iter()
        .zip(&alive)
        .filter_map(|(u, &a)| a.then_some(*u))
        .collect()
}

/// Applies a batch of updates to a graph. Inserts are **idempotent**:
/// an edge already present (or inserted twice in one batch) keeps its
/// existing weight rather than being summed — `apply_updates(apply_updates(g,
/// b), b)` equals `apply_updates(g, b)`, which is what lets a WAL batch
/// be replayed over a checkpoint that may already contain it. Within the
/// batch, updates apply in order *per edge*: an insert that follows a
/// removal of the same edge re-adds it at weight 1, an insert followed
/// by a removal is cancelled (see [`dedup_opposing`]). An out-of-range
/// update fails the whole batch (see [`check_in_range`]).
pub fn apply_updates(g: &Graph, updates: &[EdgeUpdate]) -> Result<Graph> {
    use std::collections::HashSet;
    let n = g.n();
    check_in_range(n, updates)?;
    let updates = dedup_opposing(updates);
    // After dedup, every surviving insert comes after any remove of the
    // same edge, so removals strip only pre-existing edges.
    let removals: HashSet<(u32, u32)> = updates
        .iter()
        .filter_map(|u| match u {
            EdgeUpdate::Remove(a, b) => Some((*a as u32, *b as u32)),
            EdgeUpdate::Insert(..) => None,
        })
        .collect();
    let adj: &Csr = g.adjacency();
    let mut coo = Coo::with_capacity(n, n, adj.nnz() + updates.len())?;
    // `present` guards idempotency: `Csr::from_coo` *sums* duplicate
    // entries, so re-inserting a kept edge must never push a second
    // coordinate (the weight would silently inflate to w + 1).
    let mut present: HashSet<(u32, u32)> = HashSet::with_capacity(adj.nnz());
    for (r, c, w) in adj.iter() {
        if !removals.contains(&(r as u32, c as u32)) {
            coo.push(r, c, w)?;
            present.insert((r as u32, c as u32));
        }
    }
    for u in &updates {
        if let EdgeUpdate::Insert(a, b) = u {
            if present.insert((*a as u32, *b as u32)) {
                coo.push(*a, *b, 1.0)?;
            }
        }
    }
    Graph::from_adjacency(coo.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bepi::BePiConfig;
    use crate::rwr::RwrSolver;
    use bepi_graph::generators;
    use bepi_tests_support::*;

    // Minimal local copy of the reference helper (the shared fixture crate
    // lives above core in the dependency graph).
    mod bepi_tests_support {
        use bepi_graph::Graph;
        use bepi_solver::power::{power_iteration, PowerConfig};

        pub fn reference(g: &Graph, seed: usize) -> Vec<f64> {
            let a = g.row_normalized();
            let mut q = vec![0.0; g.n()];
            q[seed] = 1.0;
            power_iteration(
                &a,
                0.05,
                &q,
                &PowerConfig {
                    tol: 1e-13,
                    max_iters: 100_000,
                },
                false,
            )
            .unwrap()
            .r
        }
    }

    fn preprocess(g: &Graph) -> BePi {
        BePi::preprocess(g, &BePiConfig::default()).unwrap()
    }

    fn scores(index: &BePi, seed: usize) -> Vec<f64> {
        index.query(seed).unwrap().scores
    }

    fn assert_matches_reference(r: &Rebuilt, seed: usize) {
        let want = reference(&r.graph, seed);
        for (i, (a, b)) in scores(&r.index, seed).iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "seed {seed} node {i}: {a} vs {b}");
        }
    }

    fn assert_bit_identical(a: &BePi, b: &BePi, seeds: &[usize]) {
        for &seed in seeds {
            let (x, y) = (scores(a, seed), scores(b, seed));
            assert!(
                x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()),
                "seed {seed} differs bit-for-bit"
            );
        }
    }

    #[test]
    fn inserts_become_visible_after_flush() {
        let g = generators::cycle(10);
        let index = preprocess(&g);
        let before = scores(&index, 0)[5];
        let r = index.rebuild(&g, &[EdgeUpdate::Insert(0, 5)]).unwrap();
        assert!(
            scores(&r.index, 0)[5] > before,
            "direct edge must raise the score"
        );
        // The rebuild leaves the index it started from untouched.
        assert_eq!(scores(&index, 0)[5], before);
    }

    #[test]
    fn flushed_state_matches_from_scratch_preprocess() {
        let g = generators::erdos_renyi(80, 300, 9).unwrap();
        let batch = [
            EdgeUpdate::Insert(1, 2),
            EdgeUpdate::Insert(3, 4),
            EdgeUpdate::Remove(1, 2),
        ];
        let r = preprocess(&g).rebuild(&g, &batch).unwrap();
        assert_matches_reference(&r, 3);
        // (1,2) was inserted then removed in the same batch: must be gone.
        assert_eq!(r.graph.adjacency().get(1, 2), 0.0);
        assert_eq!(r.graph.adjacency().get(3, 4), 1.0);
    }

    #[test]
    fn remove_then_insert_readds_edge() {
        let g = generators::cycle(6);
        let batch = [EdgeUpdate::Remove(0, 1), EdgeUpdate::Insert(0, 1)];
        let r = preprocess(&g).rebuild(&g, &batch).unwrap();
        assert_eq!(r.graph.adjacency().get(0, 1), 1.0);
    }

    #[test]
    fn removing_all_out_edges_creates_deadend() {
        let g = generators::cycle(5);
        let r = preprocess(&g)
            .rebuild(&g, &[EdgeUpdate::Remove(2, 3)])
            .unwrap();
        assert_eq!(r.graph.deadend_count(), 1);
        assert_eq!(r.kind, RebuildKind::Full, "a deadend flip is structural");
        // Queries still work with the new deadend.
        assert_matches_reference(&r, 0);
    }

    #[test]
    fn out_of_range_update_rejected() {
        let g = generators::cycle(4);
        let index = preprocess(&g);
        assert!(index.rebuild(&g, &[EdgeUpdate::Insert(0, 4)]).is_err());
        assert!(index.rebuild(&g, &[EdgeUpdate::Remove(9, 0)]).is_err());

        // Removals are range-checked too: one past n must not vanish, and
        // 2^32 + 3 must not alias node 3 and delete the real edge 3 → 5.
        let mut edges: Vec<(usize, usize)> = (0..64).map(|i| (i, (i + 1) % 64)).collect();
        edges.push((3, 5));
        let g = Graph::from_edges(64, &edges).unwrap();
        for bad in [(70, 5), ((1usize << 32) + 3, 5)] {
            let batch = [EdgeUpdate::Insert(0, 2), EdgeUpdate::Remove(bad.0, bad.1)];
            match apply_updates(&g, &batch) {
                Err(SparseError::IndexOutOfBounds { index, shape }) => {
                    assert_eq!((index, shape), (bad, (64, 64)));
                }
                other => panic!("Remove{bad:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn apply_batch_dedups_opposing_pairs() {
        let g = generators::cycle(12);
        let batch = [
            EdgeUpdate::Insert(0, 5),
            EdgeUpdate::Remove(0, 5), // cancels the insert
            EdgeUpdate::Insert(0, 7),
        ];
        // The opposing pair collapses to just the remove.
        assert_eq!(dedup_opposing(&batch).len(), 2);
        let r = preprocess(&g).rebuild(&g, &batch).unwrap();
        assert_eq!(r.graph.adjacency().get(0, 5), 0.0);
        assert_eq!(r.graph.adjacency().get(0, 7), 1.0);
    }

    #[test]
    fn dedup_opposing_keeps_per_edge_order() {
        let ups = [
            EdgeUpdate::Remove(1, 2),
            EdgeUpdate::Insert(1, 2), // survives: re-adds after removal
            EdgeUpdate::Insert(3, 4),
            EdgeUpdate::Remove(3, 4), // cancels the insert above
            EdgeUpdate::Remove(5, 6),
            EdgeUpdate::Remove(5, 6), // redundant duplicate remove
        ];
        let kept = dedup_opposing(&ups);
        assert_eq!(
            kept,
            vec![
                EdgeUpdate::Remove(1, 2),
                EdgeUpdate::Insert(1, 2),
                EdgeUpdate::Remove(3, 4),
                EdgeUpdate::Remove(5, 6),
            ]
        );
    }

    #[test]
    fn removing_nonexistent_edge_is_noop() {
        let g = generators::cycle(8);
        let index = preprocess(&g);
        let r = index.rebuild(&g, &[EdgeUpdate::Remove(3, 7)]).unwrap(); // no such edge
        assert_eq!(r.graph.adjacency(), g.adjacency());
        assert_bit_identical(&r.index, &index, &[0]);
    }

    #[test]
    fn insert_turning_deadend_into_non_deadend_roundtrips() {
        // Node 4 is a deadend: path 0→1→2→3→4 with no out-edge from 4.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.deadend_count(), 1);
        let r = preprocess(&g)
            .rebuild(&g, &[EdgeUpdate::Insert(4, 0)])
            .unwrap();
        assert_eq!(r.graph.deadend_count(), 0);
        assert_matches_reference(&r, 0);
    }

    #[test]
    fn structural_flush_is_bit_identical_to_from_scratch_preprocess() {
        let g = generators::erdos_renyi(60, 240, 17).unwrap();
        // Removing every out-edge of some node flips it to a deadend — a
        // structural batch, so the rebuild must run the full pipeline,
        // which is bit-identical to a from-scratch preprocess.
        let u = (0..g.n()).find(|&u| g.out_degree(u) > 0).unwrap();
        let mut batch: Vec<EdgeUpdate> = g
            .out_neighbors(u)
            .map(|v| EdgeUpdate::Remove(u, v))
            .collect();
        batch.push(EdgeUpdate::Insert(10, 20));
        let r = preprocess(&g).rebuild(&g, &batch).unwrap();
        assert_eq!(r.kind, RebuildKind::Full);
        assert!(r.reason.is_some(), "a full rebuild says why");
        assert_bit_identical(&r.index, &preprocess(&r.graph), &[0, 10, 59]);
    }

    #[test]
    fn numeric_flush_is_bit_identical_to_plan_frozen_preprocess() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 7).unwrap();
        let index = preprocess(&g);
        // Removing one edge of a multi-out-edge source can never flip a
        // deadend or cross H11 blocks: guaranteed numeric-only.
        let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
        let v = g.out_neighbors(u).next().unwrap();
        let r = index.rebuild(&g, &[EdgeUpdate::Remove(u, v)]).unwrap();
        assert_eq!(r.kind, RebuildKind::Numeric);
        assert_eq!(r.reason, None);
        let frozen =
            BePi::preprocess_with_plan(&r.graph, &BePiConfig::default(), &index.symbolic_plan())
                .unwrap();
        assert_bit_identical(&r.index, &frozen, &[0, 33, 200]);
        // And agree with a genuine from-scratch preprocess numerically.
        let scratch = preprocess(&r.graph);
        for seed in [0usize, 33, 200] {
            for (x, y) in scores(&r.index, seed).iter().zip(&scores(&scratch, seed)) {
                assert!((x - y).abs() < 1e-6, "seed {seed}");
            }
        }
    }

    #[test]
    fn numeric_flush_meets_residual_bound_vs_scratch() {
        // With a tight inner tolerance the numeric path's answers satisfy
        // ‖H r − c q‖∞ ≤ 1e-10 on the *updated* graph — the same bound a
        // from-scratch preprocess meets. The rebuild keeps the index's own
        // config, tolerance included.
        let cfg = BePiConfig {
            tol: 1e-12,
            ..BePiConfig::default()
        };
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 7).unwrap();
        let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
        let v = g.out_neighbors(u).next().unwrap();
        let r = BePi::preprocess(&g, &cfg)
            .unwrap()
            .rebuild(&g, &[EdgeUpdate::Remove(u, v)])
            .unwrap();
        assert_eq!(r.kind, RebuildKind::Numeric);
        let h = crate::rwr::build_h(&r.graph, cfg.c).unwrap();
        for seed in [0usize, 99] {
            let x = scores(&r.index, seed);
            let hr = h.mul_vec(&x).unwrap();
            let mut q = vec![0.0; x.len()];
            q[seed] = cfg.c;
            let resid = hr
                .iter()
                .zip(&q)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(resid <= 1e-10, "seed {seed}: residual {resid}");
        }
    }

    #[test]
    fn repeated_insert_remove_insert_across_generations() {
        // The same edge cycled through insert/remove/insert over several
        // rebuild generations — weights must stay fresh and the last
        // generation must match the reference on the then-current graph,
        // whichever rebuild path served it.
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 5).unwrap();
        let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
        let v = g.out_neighbors(u).next().unwrap();
        let index = preprocess(&g);

        // Gen 1: remove + re-insert in one batch → dedup leaves
        // Remove, Insert; the edge survives at weight 1.0.
        let r = index
            .rebuild(&g, &[EdgeUpdate::Remove(u, v), EdgeUpdate::Insert(u, v)])
            .unwrap();
        assert_eq!(r.graph.adjacency().get(u, v), 1.0);

        // Gen 2: remove it for real (numeric: u keeps other out-edges).
        let r = r
            .index
            .rebuild(&r.graph, &[EdgeUpdate::Remove(u, v)])
            .unwrap();
        assert_eq!(r.graph.adjacency().get(u, v), 0.0);
        assert_eq!(r.kind, RebuildKind::Numeric);

        // Gen 3: re-insert it (re-adding an original edge is numeric-safe).
        let r = r
            .index
            .rebuild(&r.graph, &[EdgeUpdate::Insert(u, v)])
            .unwrap();
        assert_eq!(r.graph.adjacency().get(u, v), 1.0);
        assert_matches_reference(&r, u);
    }

    #[test]
    fn random_small_batches_stay_correct_over_generations() {
        // Property test over a deterministic LCG stream of small batches:
        // inserts (sometimes structural), removals of existing edges,
        // opposing insert/remove pairs, and edges into deadend targets.
        // Every generation must (a) be bit-identical to a plan-frozen
        // preprocess when the numeric path fired and (b) match the power
        // reference on the updated graph.
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 13).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 3).unwrap();
        let n = g.n();
        let deadend = (0..n).find(|&u| g.out_degree(u) == 0).unwrap();
        let mut index = preprocess(&g);
        let mut graph = g;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut numeric_seen = false;
        for generation in 0..6 {
            let mut batch = Vec::new();
            for _ in 0..3 {
                match next() % 4 {
                    0 => batch.push(EdgeUpdate::Insert(next() % n, next() % n)),
                    1 => {
                        // Remove an existing edge of a random source.
                        let u = next() % n;
                        if let Some(v) = graph.out_neighbors(u).next() {
                            batch.push(EdgeUpdate::Remove(u, v));
                        }
                    }
                    2 => {
                        // Opposing pair: cancels to nothing.
                        let (u, v) = (next() % n, next() % n);
                        batch.push(EdgeUpdate::Insert(u, v));
                        batch.push(EdgeUpdate::Remove(u, v));
                    }
                    _ => {
                        // Deadend-only target: the deadend gains no
                        // out-edge, so its rows stay identity rows.
                        batch.push(EdgeUpdate::Insert(next() % n, deadend));
                    }
                }
            }
            let r = index.rebuild(&graph, &batch).unwrap();
            assert_eq!(r.reason.is_none(), r.kind == RebuildKind::Numeric);
            if r.kind == RebuildKind::Numeric {
                numeric_seen = true;
                let frozen = BePi::preprocess_with_plan(
                    &r.graph,
                    &BePiConfig::default(),
                    &index.symbolic_plan(),
                )
                .unwrap();
                assert_bit_identical(&r.index, &frozen, &[generation]);
            }
            assert_matches_reference(&r, next() % n);
            (graph, index) = (r.graph, r.index);
        }
        assert!(numeric_seen, "the LCG stream should hit the numeric path");
    }

    #[test]
    fn inserting_existing_edge_is_idempotent() {
        // Re-inserting a present edge must keep weight 1.0, not sum to
        // 2.0 — otherwise row-normalized transition probabilities shift.
        let g = generators::cycle(6); // (0,1) already exists
        let index = preprocess(&g);
        let batch = [EdgeUpdate::Insert(0, 1), EdgeUpdate::Insert(0, 1)]; // twice
        let r = index.rebuild(&g, &batch).unwrap();
        assert_eq!(r.graph.adjacency(), g.adjacency());
        assert_bit_identical(&r.index, &index, &[0]);
    }

    #[test]
    fn replaying_applied_batch_is_idempotent() {
        // The WAL-recovery invariant: a crash between checkpoint rename
        // and compaction replays the batch over a state that already
        // contains it, which must change neither the graph nor a score.
        let g = generators::erdos_renyi(50, 200, 11).unwrap();
        let batch = [
            EdgeUpdate::Insert(0, 7),
            EdgeUpdate::Remove(1, 2),
            EdgeUpdate::Insert(3, 9),
        ];
        let once = preprocess(&g).rebuild(&g, &batch).unwrap();
        let twice = once.index.rebuild(&once.graph, &batch).unwrap();
        assert_eq!(once.graph.adjacency(), twice.graph.adjacency());
        assert_bit_identical(&once.index, &twice.index, &[0, 3, 7, 49]);
    }
}
