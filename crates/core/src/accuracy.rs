//! The accuracy guarantees of Section 3.6.3 (Lemmas 2–4, Theorem 4).
//!
//! Theorem 4: with GMRES tolerance ε on the Schur system,
//!
//! ```text
//! ‖r* − r‖₂ ≤ sqrt((α‖H31‖₂ + ‖H32‖₂)² + α² + 1) · ‖q̂2‖₂/σ_min(S) · ε
//! ```
//!
//! with `α = ‖H12‖₂ / σ_min(H11)`. This module evaluates the bound's
//! constants for a preprocessed [`BePi`] instance (norms by the power
//! method, smallest singular values by inverse iteration through the
//! method's own solvers) and inverts it to pick an ε for a target
//! accuracy, as the end of Section 3.6.3 describes.

use crate::bepi::BePi;
use bepi_solver::norm_est::{norm2_est, sigma_min_est};
use bepi_solver::{gmres, BlockLu, GmresConfig, Preconditioner};
use bepi_sparse::vecops::dist2;
use bepi_sparse::Result;

/// The constants of the Theorem 4 bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem4Bound {
    /// `‖H12‖₂`.
    pub h12_norm: f64,
    /// `‖H31‖₂`.
    pub h31_norm: f64,
    /// `‖H32‖₂`.
    pub h32_norm: f64,
    /// `σ_min(H11)`.
    pub sigma_min_h11: f64,
    /// `σ_min(S)`.
    pub sigma_min_s: f64,
    /// `α = ‖H12‖₂ / σ_min(H11)`.
    pub alpha: f64,
    /// `sqrt((α‖H31‖₂ + ‖H32‖₂)² + α² + 1)`.
    pub prefactor: f64,
}

impl Theorem4Bound {
    /// The bound `‖r* − r‖₂ ≤ prefactor · ‖q̂2‖₂ / σ_min(S) · ε`.
    pub fn error_bound(&self, q2_hat_norm: f64, eps: f64) -> f64 {
        self.prefactor * q2_hat_norm / self.sigma_min_s * eps
    }

    /// The largest ε guaranteeing a target accuracy ε_T (the inequality at
    /// the end of Section 3.6.3).
    pub fn tolerance_for_target(&self, q2_hat_norm: f64, target: f64) -> f64 {
        if q2_hat_norm == 0.0 {
            return target;
        }
        target * self.sigma_min_s / (self.prefactor * q2_hat_norm)
    }
}

/// Estimates the Theorem 4 constants for a preprocessed BePI instance.
///
/// Norm estimates use the power method; `σ_min(H11)` uses the inverted
/// block factors, `σ_min(S)` uses (preconditioned) GMRES solves — all
/// machinery BePI already has. Intended for the small/mid graphs of the
/// accuracy experiments; cost grows with GMRES solve cost.
pub fn theorem4_bound(bepi: &BePi) -> Result<Theorem4Bound> {
    let (h12, _h21, h31, h32) = bepi.coupling_blocks();
    let tol = 1e-8;
    let iters = 2_000;
    let h12_norm = norm2_est(&h12.to_csr(), tol, iters).value;
    let h31_norm = norm2_est(&h31.to_csr(), tol, iters).value;
    let h32_norm = norm2_est(&h32.to_csr(), tol, iters).value;

    // σ_min(H11) via the explicit inverse factors; the transposed
    // products run on them decoded.
    let blu = bepi.h11_factors();
    let BlockLu { l_inv, u_inv, .. } = blu.to_builder()?;
    let n1 = blu.n();
    let sigma_min_h11 = if n1 == 0 {
        1.0
    } else {
        sigma_min_est(
            n1,
            |b| blu.solve_vec(b).expect("dimension fixed"),
            |b| {
                // H11^{-T} b = L1^{-T} (U1^{-T} b)
                let t = u_inv.mul_vec_transposed(b).expect("dimension fixed");
                l_inv.mul_vec_transposed(&t).expect("dimension fixed")
            },
            tol,
            iters,
        )
        .value
    };

    // σ_min(S) via GMRES solves on S and S^T.
    let s = bepi.schur();
    let st = s.to_csr().transpose();
    let cfg = GmresConfig {
        tol: 1e-10,
        ..GmresConfig::default()
    };
    let precond = bepi.preconditioner();
    let sigma_min_s = if s.nrows() == 0 {
        1.0
    } else {
        sigma_min_est(
            s.nrows(),
            |b| {
                gmres(s, b, None, precond.map(|m| m as &dyn Preconditioner), &cfg)
                    .expect("gmres on S")
                    .x
            },
            |b| gmres(&st, b, None, None, &cfg).expect("gmres on S^T").x,
            1e-6,
            200,
        )
        .value
    };

    let alpha = if sigma_min_h11 > 0.0 {
        h12_norm / sigma_min_h11
    } else {
        f64::INFINITY
    };
    let prefactor = ((alpha * h31_norm + h32_norm).powi(2) + alpha * alpha + 1.0).sqrt();
    Ok(Theorem4Bound {
        h12_norm,
        h31_norm,
        h32_norm,
        sigma_min_h11,
        sigma_min_s,
        alpha,
        prefactor,
    })
}

/// `‖a − b‖₂` — the error metric of Figure 10 and Theorem 4.
pub fn l2_error(a: &[f64], b: &[f64]) -> f64 {
    dist2(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bepi::{BePiConfig, BePiVariant};
    use crate::exact::DenseExact;
    use crate::rwr::RwrSolver;
    use bepi_graph::generators;

    #[test]
    fn bound_constants_are_finite_and_positive() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 3).unwrap();
        let bepi = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let bound = theorem4_bound(&bepi).unwrap();
        assert!(bound.sigma_min_s > 0.0 && bound.sigma_min_s.is_finite());
        assert!(bound.sigma_min_h11 > 0.0);
        assert!(bound.prefactor >= 1.0);
        assert!(bound.alpha.is_finite());
    }

    #[test]
    fn empirical_error_within_bound() {
        let g = generators::erdos_renyi(150, 700, 11).unwrap();
        let eps = 1e-6;
        let cfg = BePiConfig {
            tol: eps,
            variant: BePiVariant::Full,
            ..BePiConfig::default()
        };
        let bepi = BePi::preprocess(&g, &cfg).unwrap();
        let exact = DenseExact::with_defaults(&g).unwrap();
        let bound = theorem4_bound(&bepi).unwrap();
        for seed in [0usize, 75, 149] {
            let approx = bepi.query(seed).unwrap();
            let truth = exact.query(seed).unwrap();
            let err = l2_error(&approx.scores, &truth.scores);
            // ‖q̂2‖₂ ≤ c + ‖H21 H11^{-1} c q1‖; c·1 is a safe small probe —
            // use the generous upper bound ‖q̂2‖ ≤ 1 for the check.
            let theoretical = bound.error_bound(1.0, eps);
            assert!(
                err <= theoretical,
                "seed {seed}: empirical {err} exceeds bound {theoretical}"
            );
        }
    }

    #[test]
    fn tolerance_inversion_roundtrip() {
        let b = Theorem4Bound {
            h12_norm: 1.0,
            h31_norm: 0.5,
            h32_norm: 0.5,
            sigma_min_h11: 0.9,
            sigma_min_s: 0.1,
            alpha: 1.0 / 0.9,
            prefactor: 2.0,
        };
        let target = 1e-6;
        let eps = b.tolerance_for_target(0.7, target);
        let achieved = b.error_bound(0.7, eps);
        assert!((achieved - target).abs() < 1e-18);
    }

    #[test]
    fn l2_error_basics() {
        assert_eq!(l2_error(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
        assert_eq!(l2_error(&[1.0], &[1.0]), 0.0);
    }
}
