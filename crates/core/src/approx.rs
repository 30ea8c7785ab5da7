//! Approximate RWR methods (Section 5 of the paper, "Approximate and
//! top-k methods for RWR").
//!
//! The paper's evaluation excludes approximate methods because all
//! compared methods are exact, but its related-work section surveys them;
//! a usable RWR library should offer the two standard ones:
//!
//! * [`monte_carlo`] — simulate random walks with restart and estimate
//!   scores by visit frequencies (the Fast-PPR / Bahmani et al. family's
//!   basic building block). Unbiased; error shrinks as `O(1/√walks)`.
//! * [`forward_push`] — Andersen, Chung & Lang's local push: maintain
//!   per-node (estimate, residual) pairs and push residual mass along
//!   out-edges until every residual is below `epsilon · deg(u)`. The
//!   work is *local* — independent of graph size for small ε-communities.
//!
//! Both return scores in the same normalization as the exact solvers
//! (`Σ r ≤ 1`, `= 1` on deadend-free graphs), so they are directly
//! comparable against [`crate::BePi`] in the tests.
//!
//! Neither serves queries in the daemon: its approximate lane is the
//! `bepi-walk` crate's truncated cumulative power iteration, which draws
//! no random numbers and is deterministic per seed at any thread count.
//! [`monte_carlo`] stays as the readable reference estimator the ranking
//! tests and the `approx_comparison` experiment measure against, and
//! [`forward_push`] backs `bepi query --method push`.

use crate::rwr::{check_restart_prob, check_seed, RwrScores};
use bepi_graph::Graph;
use bepi_sparse::{Csr, Result, SparseError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Estimates RWR scores by simulating `walks` random walks with restart
/// from `seed` and counting terminal-state visits.
///
/// Each walk steps to a uniform out-neighbor with probability `1 − c` and
/// terminates (restart event) with probability `c`; walks that reach a
/// deadend terminate there *without* contributing (matching the linear
/// system's leaked mass). The estimate of `r_u` is the fraction of walks
/// terminating at `u`, which converges to the exact solution scaled to
/// the same total mass.
pub fn monte_carlo(
    g: &Graph,
    c: f64,
    seed: usize,
    walks: usize,
    rng_seed: u64,
) -> Result<RwrScores> {
    check_restart_prob(c)?;
    check_seed(seed, g.n())?;
    if walks == 0 {
        return Err(SparseError::Numerical(
            "monte_carlo needs at least one walk".into(),
        ));
    }
    let adj: &Csr = g.adjacency();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut hits = vec![0u64; g.n()];
    let mut leaked = 0u64;
    for _ in 0..walks {
        let mut u = seed;
        loop {
            if rng.random::<f64>() < c {
                hits[u] += 1;
                break;
            }
            let (cols, weights) = adj.row(u);
            if cols.is_empty() {
                // Deadend: the surfer's mass leaks (Equation 4 semantics).
                leaked += 1;
                break;
            }
            // Weighted neighbor choice (uniform when weights are equal).
            let total: f64 = weights.iter().sum();
            let mut pick = rng.random::<f64>() * total;
            let mut next = cols[cols.len() - 1] as usize;
            for (&col, &w) in cols.iter().zip(weights) {
                if pick < w {
                    next = col as usize;
                    break;
                }
                pick -= w;
            }
            u = next;
        }
    }
    let _ = leaked;
    let scores: Vec<f64> = hits.into_iter().map(|h| h as f64 / walks as f64).collect();
    Ok(RwrScores {
        scores,
        iterations: walks,
        residual: 0.0,
    })
}

/// Result of a forward-push run.
#[derive(Debug, Clone)]
pub struct PushResult {
    /// The approximate scores (lower bounds on the exact scores).
    pub scores: RwrScores,
    /// Number of push operations performed (the method's work measure).
    pub pushes: usize,
    /// Nodes with a non-zero estimate or residual (locality measure).
    pub touched: usize,
}

/// Andersen–Chung–Lang forward push with threshold `epsilon`.
///
/// Maintains estimates `p` and residuals `r` with the invariant
/// `r_exact = p + (walk operator applied to r)`; repeatedly pushes any
/// node whose residual exceeds `epsilon · out_degree`. The returned `p`
/// underestimates the exact scores by at most `epsilon · vol` in total.
pub fn forward_push(g: &Graph, c: f64, seed: usize, epsilon: f64) -> Result<PushResult> {
    check_restart_prob(c)?;
    check_seed(seed, g.n())?;
    if epsilon <= 0.0 {
        return Err(SparseError::Numerical(
            "forward_push needs epsilon > 0".into(),
        ));
    }
    let adj: &Csr = g.adjacency();
    let n = g.n();
    let mut p = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];
    r[seed] = 1.0;
    let mut queue: Vec<u32> = vec![seed as u32];
    let mut queued = vec![false; n];
    queued[seed] = true;
    let mut pushes = 0usize;

    while let Some(u) = queue.pop() {
        let u = u as usize;
        queued[u] = false;
        let deg = adj.row_nnz(u);
        let threshold = epsilon * (deg.max(1) as f64);
        if r[u] < threshold {
            continue;
        }
        let mass = r[u];
        r[u] = 0.0;
        p[u] += c * mass;
        pushes += 1;
        if deg == 0 {
            continue; // deadend: the (1−c) share leaks, as in the exact model
        }
        let (cols, weights) = adj.row(u);
        let total: f64 = weights.iter().sum();
        for (&col, &w) in cols.iter().zip(weights) {
            let v = col as usize;
            r[v] += (1.0 - c) * mass * (w / total);
            let vdeg = adj.row_nnz(v).max(1) as f64;
            if !queued[v] && r[v] >= epsilon * vdeg {
                queued[v] = true;
                queue.push(col);
            }
        }
    }
    let touched = (0..n).filter(|&u| p[u] > 0.0 || r[u] > 0.0).count();
    Ok(PushResult {
        scores: RwrScores {
            scores: p,
            iterations: pushes,
            residual: 0.0,
        },
        pushes,
        touched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use bepi_graph::generators;

    fn exact(g: &Graph, seed: usize) -> Vec<f64> {
        DenseExact::with_defaults(g)
            .unwrap()
            .query(seed)
            .unwrap()
            .scores
    }

    #[test]
    fn monte_carlo_converges_with_walks() {
        let g = generators::erdos_renyi(60, 300, 3).unwrap();
        let truth = exact(&g, 5);
        let coarse = monte_carlo(&g, 0.05, 5, 2_000, 1).unwrap();
        let fine = monte_carlo(&g, 0.05, 5, 60_000, 1).unwrap();
        let err = |approx: &RwrScores| -> f64 {
            approx
                .scores
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        assert!(
            err(&fine) < err(&coarse),
            "more walks must reduce error: {} vs {}",
            err(&fine),
            err(&coarse)
        );
        assert!(err(&fine) < 0.02, "fine error {}", err(&fine));
    }

    #[test]
    fn monte_carlo_mass_conservation() {
        // Deadend-free graph: all walks terminate via restart → sum = 1.
        let g = generators::cycle(10);
        let mc = monte_carlo(&g, 0.2, 0, 10_000, 7).unwrap();
        let sum: f64 = mc.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Deadend graph: some walks leak → sum < 1.
        let g = generators::path(5);
        let mc = monte_carlo(&g, 0.2, 0, 10_000, 7).unwrap();
        let sum: f64 = mc.scores.iter().sum();
        assert!(sum < 1.0);
    }

    #[test]
    fn monte_carlo_deterministic_per_seed() {
        let g = generators::erdos_renyi(40, 160, 9).unwrap();
        let a = monte_carlo(&g, 0.1, 3, 5_000, 42).unwrap();
        let b = monte_carlo(&g, 0.1, 3, 5_000, 42).unwrap();
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn forward_push_underestimates_and_converges() {
        let g = generators::erdos_renyi(80, 400, 5).unwrap();
        let truth = exact(&g, 7);
        let coarse = forward_push(&g, 0.05, 7, 1e-4).unwrap();
        let fine = forward_push(&g, 0.05, 7, 1e-8).unwrap();
        // Push estimates are lower bounds.
        for (a, b) in coarse.scores.scores.iter().zip(&truth) {
            assert!(*a <= b + 1e-12, "push must underestimate: {a} vs {b}");
        }
        let max_err = |pr: &PushResult| -> f64 {
            pr.scores
                .scores
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        assert!(max_err(&fine) < max_err(&coarse).max(1e-9));
        assert!(max_err(&fine) < 1e-5, "fine error {}", max_err(&fine));
        assert!(fine.pushes > coarse.pushes);
    }

    #[test]
    fn forward_push_is_local() {
        // Two islands: pushing from island A never touches island B.
        let g = bepi_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        let pr = forward_push(&g, 0.1, 0, 1e-10).unwrap();
        assert!(pr.scores.scores[3..].iter().all(|&v| v == 0.0));
        assert!(pr.touched <= 3);
    }

    #[test]
    fn forward_push_on_weighted_graph_matches_exact() {
        let mut coo = bepi_sparse::Coo::new(3, 3).unwrap();
        coo.push(0, 1, 9.0).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        let g = bepi_graph::Graph::from_adjacency(coo.to_csr()).unwrap();
        let truth = exact(&g, 0);
        let pr = forward_push(&g, 0.05, 0, 1e-12).unwrap();
        for (a, b) in pr.scores.scores.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let g = generators::cycle(5);
        assert!(monte_carlo(&g, 0.0, 0, 100, 1).is_err());
        assert!(monte_carlo(&g, 0.1, 9, 100, 1).is_err());
        assert!(monte_carlo(&g, 0.1, 0, 0, 1).is_err());
        assert!(forward_push(&g, 0.1, 0, 0.0).is_err());
        assert!(forward_push(&g, 0.1, 9, 1e-6).is_err());
    }
}
