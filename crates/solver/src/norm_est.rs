//! Spectral-norm and smallest-singular-value estimation.
//!
//! Theorem 4 bounds BePI's accuracy via `‖H12‖₂`, `‖H31‖₂`, `‖H32‖₂`,
//! `σ_min(H11)` and `σ_min(S)`. The 2-norm is `sqrt(λ_max(AᵀA))`,
//! estimated by the power method on the Gram operator; `σ_min` is
//! `1/sqrt(λ_max((AᵀA)^{-1}))`, estimated by inverse power iteration where
//! each step solves two systems with the caller-provided solver.

use crate::linop::{GramOp, LinOp};
use bepi_sparse::vecops::{norm2, normalize};
use bepi_sparse::Csr;

/// Result of a power-method estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormEstimate {
    /// The estimated value.
    pub value: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative change dropped below the tolerance.
    pub converged: bool,
}

/// Estimates `‖A‖₂` by the power method on `AᵀA`.
///
/// `tol` is the relative change tolerance between iterates (1e-6 is plenty
/// for the accuracy-bound use); returns 0 for an all-zero matrix.
pub fn norm2_est(a: &Csr, tol: f64, max_iters: usize) -> NormEstimate {
    let n = a.ncols();
    if n == 0 || a.nnz() == 0 {
        return NormEstimate {
            value: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let gram = GramOp::new(a);
    // Deterministic, dense starting vector.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 7) as f64) * 0.1).collect();
    normalize(&mut v);
    let mut w = vec![0.0; n];
    let mut lambda = 0.0f64;
    for it in 1..=max_iters {
        gram.apply(&v, &mut w);
        let new_lambda = norm2(&w);
        if new_lambda == 0.0 {
            return NormEstimate {
                value: 0.0,
                iterations: it,
                converged: true,
            };
        }
        std::mem::swap(&mut v, &mut w);
        normalize(&mut v);
        let rel = (new_lambda - lambda).abs() / new_lambda;
        lambda = new_lambda;
        if rel <= tol {
            return NormEstimate {
                value: lambda.sqrt(),
                iterations: it,
                converged: true,
            };
        }
    }
    NormEstimate {
        value: lambda.sqrt(),
        iterations: max_iters,
        converged: false,
    }
}

/// Estimates `σ_min(A)` by inverse power iteration on `AᵀA`: each step
/// solves `Aᵀ A w = v` as `A z = v`-like pair via the provided solver for
/// `A x = b` and a second solve with `Aᵀ`. The caller supplies both solves
/// (BePI has LU factors or GMRES available for them).
///
/// `solve` must compute `A^{-1} b`; `solve_t` must compute `A^{-T} b`.
pub fn sigma_min_est<FS, FT>(
    n: usize,
    mut solve: FS,
    mut solve_t: FT,
    tol: f64,
    max_iters: usize,
) -> NormEstimate
where
    FS: FnMut(&[f64]) -> Vec<f64>,
    FT: FnMut(&[f64]) -> Vec<f64>,
{
    if n == 0 {
        return NormEstimate {
            value: 0.0,
            iterations: 0,
            converged: true,
        };
    }
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 5) as f64) * 0.2).collect();
    normalize(&mut v);
    let mut mu = 0.0f64; // estimate of λ_max((AᵀA)^{-1}) = 1/σ_min²
    for it in 1..=max_iters {
        // w = (AᵀA)^{-1} v = A^{-1} (A^{-T} v)
        let z = solve_t(&v);
        let mut w = solve(&z);
        let new_mu = norm2(&w);
        if new_mu == 0.0 {
            return NormEstimate {
                value: f64::INFINITY,
                iterations: it,
                converged: true,
            };
        }
        normalize(&mut w);
        let rel = (new_mu - mu).abs() / new_mu;
        mu = new_mu;
        v = w;
        if rel <= tol {
            return NormEstimate {
                value: 1.0 / mu.sqrt(),
                iterations: it,
                converged: true,
            };
        }
    }
    NormEstimate {
        value: 1.0 / mu.sqrt(),
        iterations: max_iters,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_lu::DenseLu;
    use bepi_sparse::{Coo, Dense};

    #[test]
    fn norm2_of_diagonal_matrix() {
        let mut coo = Coo::new(3, 3).unwrap();
        for (i, d) in [2.0, -5.0, 1.0].iter().enumerate() {
            coo.push(i, i, *d).unwrap();
        }
        let est = norm2_est(&coo.to_csr(), 1e-10, 500);
        assert!(est.converged);
        assert!((est.value - 5.0).abs() < 1e-6, "{}", est.value);
    }

    #[test]
    fn norm2_of_known_2x2() {
        // [[3, 0], [4, 5]] → σ_max = sqrt(λ_max(AᵀA)); AᵀA = [[25,20],[20,25]]
        // λ_max = 45 → ‖A‖₂ = sqrt(45) ≈ 6.7082
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 0, 3.0).unwrap();
        coo.push(1, 0, 4.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        let est = norm2_est(&coo.to_csr(), 1e-12, 1000);
        assert!((est.value - 45f64.sqrt()).abs() < 1e-6, "{}", est.value);
    }

    #[test]
    fn norm2_zero_matrix() {
        let est = norm2_est(&bepi_sparse::Csr::zeros(4, 4), 1e-8, 100);
        assert_eq!(est.value, 0.0);
        assert!(est.converged);
    }

    #[test]
    fn sigma_min_of_diagonal_matrix() {
        let a = Dense::from_rows(&[&[2.0, 0.0], &[0.0, 0.5]]).unwrap();
        let lu = DenseLu::factor(&a).unwrap();
        let at = a.transpose();
        let lut = DenseLu::factor(&at).unwrap();
        let est = sigma_min_est(
            2,
            |b| lu.solve(b).unwrap(),
            |b| lut.solve(b).unwrap(),
            1e-12,
            1000,
        );
        assert!((est.value - 0.5).abs() < 1e-6, "{}", est.value);
    }

    #[test]
    fn sigma_min_times_norm_bounds_condition() {
        // Random diagonally dominant matrix: verify σ_min ≤ ‖A‖₂.
        let n = 10;
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 3.0 + (i % 3) as f64).unwrap();
            coo.push(i, (i + 1) % n, -0.5).unwrap();
        }
        let a = coo.to_csr();
        let d = a.to_dense();
        let lu = DenseLu::factor(&d).unwrap();
        let dt = d.transpose();
        let lut = DenseLu::factor(&dt).unwrap();
        let smin = sigma_min_est(
            n,
            |b| lu.solve(b).unwrap(),
            |b| lut.solve(b).unwrap(),
            1e-10,
            2000,
        );
        let smax = norm2_est(&a, 1e-10, 2000);
        assert!(smin.value <= smax.value + 1e-9);
        assert!(smin.value > 0.0);
    }
}
