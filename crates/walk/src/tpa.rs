//! TPA-style cumulative power iteration.
//!
//! TPA (Yoon, Jung & Kang — see PAPERS.md) observes that the RWR vector
//! is the geometric series `r = c Σ_{i≥0} (1-c)^i (Ã^T)^i q`, and that a
//! short truncation of that series already ranks the top-k correctly:
//! the omitted tail `Σ_{i>S}` carries at most `(1-c)^{S+1}` of the walk
//! mass, spread thinly across the graph. This module computes exactly
//! that truncation with the workspace's deterministic SpMV kernel, so the
//! estimate is a pure function of `(seed, matrix)` — no sampling noise,
//! bit-identical at any thread count — and its accuracy knob (`terms`)
//! trades latency for tail mass in closed form.

use bepi_core::RwrScores;
use bepi_sparse::{Csr, Result, SparseError};

/// Computes the truncated cumulative power iteration for `seed` over
/// `at`, the **transpose of the row-normalized adjacency** `Ã^T`
/// (columns of `at` sum to 1 except for deadends, whose mass leaks —
/// the exact solvers' Equation 4 semantics).
///
/// Runs at most `terms` matrix-vector products, stopping early once the
/// undelivered tail mass falls below `tail_tol`. The returned `residual`
/// is that tail bound `(1-c)^{S+1}` — exact accounting of what the
/// truncation left out. Deterministic: `bepi_par`'s SpMV partitions rows
/// with fixed per-row dot products, so the scores are bit-identical to
/// the serial loop at any thread count.
pub fn tpa_scores(at: &Csr, c: f64, seed: usize, terms: usize, tail_tol: f64) -> Result<RwrScores> {
    if at.nrows() != at.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: at.shape(),
            right: at.shape(),
            op: "tpa_scores (operator must be square)",
        });
    }
    let n = at.nrows();
    if !(c > 0.0 && c < 1.0) {
        return Err(SparseError::Numerical(format!(
            "restart probability must be in (0, 1), got {c}"
        )));
    }
    if seed >= n {
        return Err(SparseError::IndexOutOfBounds {
            index: (seed, 0),
            shape: (n, n),
        });
    }
    if terms == 0 {
        return Err(SparseError::Numerical(
            "tpa_scores needs at least one term".into(),
        ));
    }

    // x holds (Ã^T)^i q; r accumulates c (1-c)^i x.
    let mut x = vec![0.0f64; n];
    x[seed] = 1.0;
    let mut y = vec![0.0f64; n];
    let mut r = vec![0.0f64; n];
    r[seed] = c;
    let mut weight = 1.0f64; // (1-c)^i
    let mut ran = 0usize;
    let mut mass_prev = 1.0f64; // ‖x_{i-1}‖₁ (walk survival, ≤ 1)
    let mut mass = 1.0f64; // ‖x_i‖₁
    for _ in 1..=terms {
        at.mul_vec_into(&x, &mut y)?;
        std::mem::swap(&mut x, &mut y);
        weight *= 1.0 - c;
        ran += 1;
        mass_prev = mass;
        mass = 0.0;
        let cw = c * weight;
        for (ri, xi) in r.iter_mut().zip(&x) {
            *ri += cw * xi;
            mass += xi;
        }
        // Tail bound after i terms: Σ_{j>i} c(1-c)^j = (1-c)^{i+1}.
        if weight * (1.0 - c) < tail_tol {
            break;
        }
    }
    // Closed-form tail estimate: the truncated series Σ_{j>S} c(1-c)^j
    // (Ã^T)^j q is approximated by geometric continuation of the last
    // iterate — x_{S+j} ≈ ρ^j x_S, where ρ = ‖x_S‖₁/‖x_{S-1}‖₁ is the
    // observed per-step walk survival (deadends leak mass, so ρ < 1 on
    // leaky graphs and the tail correctly shrinks). Summing the
    // geometric series gives tail ≈ c(1-c)^S · q/(1-q) · x_S with
    // q = (1-c)ρ — one axpy instead of another hundred matrix products,
    // and exactly (1-c)^{S+1} x_S on deadend-free graphs (ρ = 1). A
    // pure function of x_S, so determinism is untouched. The reported
    // residual remains the honest bound on what the estimate replaced.
    let rho = if mass_prev > 0.0 {
        mass / mass_prev
    } else {
        0.0
    };
    let q = (1.0 - c) * rho.min(1.0);
    let coef = c * weight * q / (1.0 - q);
    for (ri, xi) in r.iter_mut().zip(&x) {
        *ri += coef * xi;
    }
    Ok(RwrScores {
        scores: r,
        iterations: ran,
        residual: weight * (1.0 - c),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::{generators, Graph};

    fn operator(g: &Graph) -> Csr {
        g.row_normalized().transpose()
    }

    #[test]
    fn converges_to_the_exact_solution() {
        use bepi_core::prelude::*;
        let g = generators::rmat(7, 500, Default::default(), 61).unwrap();
        let c = 0.05;
        let exact = BePi::preprocess(
            &g,
            &BePiConfig {
                c,
                ..BePiConfig::default()
            },
        )
        .unwrap()
        .query(4)
        .unwrap();
        let at = operator(&g);
        let approx = tpa_scores(&at, c, 4, 2_000, 1e-12).unwrap();
        for (u, (&a, &e)) in approx.scores.iter().zip(&exact.scores).enumerate() {
            assert!((a - e).abs() < 1e-8, "node {u}: tpa {a} vs exact {e}");
        }
        assert!(approx.residual < 1e-12);
    }

    #[test]
    fn truncation_tail_is_the_reported_residual() {
        let g = generators::erdos_renyi(50, 300, 9).unwrap();
        let at = operator(&g);
        let c = 0.2f64;
        let r = tpa_scores(&at, c, 1, 10, 0.0).unwrap();
        assert_eq!(r.iterations, 10);
        let expected_tail = (1.0 - c).powi(11);
        assert!((r.residual - expected_tail).abs() < 1e-15);
        // On a deadend-free strongly-reachable graph the delivered mass
        // is 1 - tail (up to leaked deadend mass, absent here if any).
        let total: f64 = r.scores.iter().sum();
        assert!(total <= 1.0 + 1e-12);
    }

    #[test]
    fn early_stop_honors_tail_tolerance() {
        let g = generators::erdos_renyi(30, 120, 2).unwrap();
        let at = operator(&g);
        let r = tpa_scores(&at, 0.5, 0, 1_000, 1e-6).unwrap();
        assert!(r.iterations < 1_000, "must stop early at c=0.5");
        assert!(r.residual < 1e-6);
    }

    #[test]
    fn identical_across_thread_counts() {
        let g = generators::rmat(8, 2_000, Default::default(), 33).unwrap();
        let at = operator(&g);
        bepi_par::set_threads(1);
        let base = tpa_scores(&at, 0.05, 7, 64, 0.0).unwrap();
        for t in [2, 4, 8] {
            bepi_par::set_threads(t);
            let r = tpa_scores(&at, 0.05, 7, 64, 0.0).unwrap();
            assert_eq!(r.scores, base.scores, "thread count {t}");
        }
        bepi_par::set_threads(1);
    }

    #[test]
    fn input_validation() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let at = operator(&g);
        assert!(tpa_scores(&at, 0.0, 0, 10, 0.0).is_err());
        assert!(tpa_scores(&at, 1.0, 0, 10, 0.0).is_err());
        assert!(tpa_scores(&at, 0.2, 9, 10, 0.0).is_err());
        assert!(tpa_scores(&at, 0.2, 0, 0, 0.0).is_err());
    }
}
