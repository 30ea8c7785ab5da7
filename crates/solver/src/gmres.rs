//! Restarted GMRES with optional left preconditioning.
//!
//! GMRES (Saad & Schultz 1986) is the paper's iterative engine: plain on
//! the full system `H r = c q` as a baseline (Section 2.2), and
//! left-preconditioned with ILU(0) factors on the Schur-complement system
//! `S r2 = q̂2` inside BePI's query phase (Algorithm 4 / Appendix B).
//!
//! Implementation: Arnoldi with modified Gram–Schmidt, Givens rotations
//! for the incremental least-squares residual, restart after `m` inner
//! steps. With a preconditioner `M`, the iteration runs on `M^{-1}A` /
//! `M^{-1}b` and convergence is declared on the preconditioned relative
//! residual — exactly the quantity Algorithm 5 of the paper monitors
//! (`‖H̄y − ‖t‖e₁‖ < ε`).

use crate::linop::{LinOp, Preconditioner};
use bepi_sparse::vecops::{axpy, dot, norm2};
use bepi_sparse::{Result, SparseError};

/// GMRES configuration.
///
/// ```
/// use bepi_solver::{gmres, GmresConfig};
/// use bepi_sparse::Coo;
///
/// // Strictly diagonally dominant 2×2 system: [[4, 1], [1, 3]] x = [1, 2].
/// let mut coo = Coo::new(2, 2).unwrap();
/// coo.push(0, 0, 4.0).unwrap();
/// coo.push(0, 1, 1.0).unwrap();
/// coo.push(1, 0, 1.0).unwrap();
/// coo.push(1, 1, 3.0).unwrap();
/// let a = coo.to_csr();
///
/// let cfg = GmresConfig { tol: 1e-12, ..GmresConfig::default() };
/// let sol = gmres(&a, &[1.0, 2.0], None, None, &cfg).unwrap();
/// assert!(sol.converged);
/// assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-9);
/// assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresConfig {
    /// Relative residual tolerance ε (the paper uses `10^{-9}`).
    pub tol: f64,
    /// Krylov dimension before restart.
    pub restart: usize,
    /// Cap on total inner iterations.
    pub max_iters: usize,
}

impl Default for GmresConfig {
    fn default() -> Self {
        Self {
            tol: 1e-9,
            restart: 100,
            max_iters: 10_000,
        }
    }
}

/// Outcome of a GMRES run.
#[derive(Debug, Clone)]
pub struct GmresResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Total inner (Arnoldi) iterations performed — the `T` of Theorem 2
    /// and the quantity Table 4 reports.
    pub iterations: usize,
    /// Final relative residual (preconditioned when `M` is supplied).
    pub residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Relative residual after each inner iteration (drives Figure 10).
    pub residual_history: Vec<f64>,
}

/// Solves `A x = b` (or `M^{-1}A x = M^{-1}b` when `precond` is given).
pub fn gmres<A: LinOp>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    precond: Option<&dyn Preconditioner>,
    cfg: &GmresConfig,
) -> Result<GmresResult> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), a.ncols()),
            right: (n, n),
            op: "gmres (operator must be square)",
        });
    }
    if b.len() != n {
        return Err(SparseError::VectorLength {
            expected: n,
            actual: b.len(),
        });
    }
    let mut x = match x0 {
        Some(x0) => {
            if x0.len() != n {
                return Err(SparseError::VectorLength {
                    expected: n,
                    actual: x0.len(),
                });
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    // Reference norm: ‖M^{-1} b‖ (or ‖b‖ unpreconditioned).
    let mut mb = vec![0.0; n];
    match precond {
        Some(m) => m.apply(b, &mut mb),
        None => mb.copy_from_slice(b),
    }
    let denom = norm2(&mb);
    if denom == 0.0 {
        return Ok(GmresResult {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
            converged: true,
            residual_history: Vec::new(),
        });
    }

    // Without an initial guess the first cycle's residual
    // M^{-1}(b − A·0) is `mb` itself: reuse it rather than pay one apply
    // of `A` and one of `M` to recompute it.
    let mut first_residual = x0.is_none().then_some(mb);

    let m = cfg.restart.max(1);
    let mut iterations = 0usize;
    let mut history = Vec::new();
    let mut scratch = vec![0.0; n];
    let mut w = vec![0.0; n];

    loop {
        // (Preconditioned) residual r = M^{-1}(b − A x).
        let mut r = first_residual.take().unwrap_or_else(|| {
            a.apply(&x, &mut scratch);
            for (s, bi) in scratch.iter_mut().zip(b) {
                *s = bi - *s;
            }
            let mut r = vec![0.0; n];
            match precond {
                Some(mm) => mm.apply(&scratch, &mut r),
                None => r.copy_from_slice(&scratch),
            }
            r
        });
        let beta = norm2(&r);
        let rel = beta / denom;
        if rel <= cfg.tol {
            return Ok(GmresResult {
                x,
                iterations,
                residual: rel,
                converged: true,
                residual_history: history,
            });
        }
        if iterations >= cfg.max_iters {
            return Ok(GmresResult {
                x,
                iterations,
                residual: rel,
                converged: false,
                residual_history: history,
            });
        }

        // Arnoldi basis and Hessenberg columns for this cycle.
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        for v in &mut r {
            *v /= beta;
        }
        basis.push(r);
        let mut h_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut cs: Vec<f64> = Vec::with_capacity(m);
        let mut sn: Vec<f64> = Vec::with_capacity(m);
        let mut g = vec![0.0; m + 1];
        g[0] = beta;
        let mut k_used = 0usize;
        let mut cycle_converged = false;

        for j in 0..m {
            if iterations >= cfg.max_iters {
                break;
            }
            // w = M^{-1} A v_j
            a.apply(&basis[j], &mut scratch);
            match precond {
                Some(mm) => mm.apply(&scratch, &mut w),
                None => w.copy_from_slice(&scratch),
            }
            // Modified Gram–Schmidt.
            let mut h = vec![0.0; j + 2];
            for (i, v) in basis.iter().enumerate().take(j + 1) {
                let hij = dot(&w, v);
                h[i] = hij;
                axpy(-hij, v, &mut w);
            }
            let hnext = norm2(&w);
            h[j + 1] = hnext;

            // Apply accumulated Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[i] + sn[i] * h[i + 1];
                h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1];
                h[i] = t;
            }
            // New rotation annihilating h[j+1].
            let (c, s) = givens(h[j], h[j + 1]);
            cs.push(c);
            sn.push(s);
            h[j] = c * h[j] + s * h[j + 1];
            h[j + 1] = 0.0;
            let gj = g[j];
            g[j] = c * gj;
            g[j + 1] = -s * gj;

            h_cols.push(h);
            iterations += 1;
            k_used = j + 1;
            let rel = g[j + 1].abs() / denom;
            history.push(rel);

            let happy = hnext <= 1e-14 * denom.max(1.0);
            if rel <= cfg.tol || happy {
                cycle_converged = true;
                break;
            }
            // Extend the basis.
            let mut v = w.clone();
            for vi in &mut v {
                *vi /= hnext;
            }
            basis.push(v);
        }

        // Solve the small triangular system R y = g and update x.
        if k_used > 0 {
            let mut y = vec![0.0; k_used];
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for (jj, yj) in y.iter().enumerate().take(k_used).skip(i + 1) {
                    acc -= h_cols[jj][i] * yj;
                }
                y[i] = acc / h_cols[i][i];
            }
            for (jj, yj) in y.iter().enumerate() {
                axpy(*yj, &basis[jj], &mut x);
            }
        }

        if cycle_converged {
            // Re-enter the loop once more; the residual check at the top
            // confirms convergence (and returns the true final residual).
            continue;
        }
        if iterations >= cfg.max_iters {
            a.apply(&x, &mut scratch);
            for (s, bi) in scratch.iter_mut().zip(b) {
                *s = bi - *s;
            }
            let mut r = vec![0.0; n];
            match precond {
                Some(mm) => mm.apply(&scratch, &mut r),
                None => r.copy_from_slice(&scratch),
            }
            let rel = norm2(&r) / denom;
            return Ok(GmresResult {
                x,
                iterations,
                residual: rel,
                converged: rel <= cfg.tol,
                residual_history: history,
            });
        }
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a == 0.0 {
        (0.0, 1.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu0::Ilu0;
    use bepi_sparse::{Coo, Csr};

    fn dd_matrix(n: usize) -> Csr {
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            let mut off = 0.0;
            for d in [1usize, 4, 9] {
                let j = (i + d) % n;
                if j != i {
                    let v = 0.2 + ((i * 13 + j * 7) % 6) as f64 * 0.1;
                    coo.push(i, j, -v).unwrap();
                    off += v;
                }
            }
            coo.push(i, i, off + 0.5).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn solves_diagonal_system_exactly() {
        let mut coo = Coo::new(3, 3).unwrap();
        for (i, d) in [2.0, 4.0, 8.0].iter().enumerate() {
            coo.push(i, i, *d).unwrap();
        }
        let a = coo.to_csr();
        let r = gmres(&a, &[2.0, 4.0, 8.0], None, None, &GmresConfig::default()).unwrap();
        assert!(r.converged);
        for xi in &r.x {
            assert!((xi - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn solves_nonsymmetric_dd_system() {
        let a = dd_matrix(60);
        let x_true: Vec<f64> = (0..60).map(|i| (i as f64 * 0.17).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r = gmres(&a, &b, None, None, &GmresConfig::default()).unwrap();
        assert!(r.converged, "residual {}", r.residual);
        for (g, w) in r.x.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-6, "{g} vs {w}");
        }
    }

    #[test]
    fn restart_path_still_converges() {
        let a = dd_matrix(80);
        let x_true: Vec<f64> = (0..80).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let cfg = GmresConfig {
            restart: 5, // force many restarts
            ..GmresConfig::default()
        };
        let r = gmres(&a, &b, None, None, &cfg).unwrap();
        assert!(r.converged, "residual {}", r.residual);
        for (g, w) in r.x.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let a = dd_matrix(120);
        let b: Vec<f64> = (0..120).map(|i| ((i + 1) as f64).recip()).collect();
        let plain = gmres(&a, &b, None, None, &GmresConfig::default()).unwrap();
        let ilu = Ilu0::factor(&a).unwrap();
        let pre = gmres(
            &a,
            &b,
            None,
            Some(&ilu as &dyn Preconditioner),
            &GmresConfig::default(),
        )
        .unwrap();
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "precond {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
        // Same solution.
        for (p, q) in pre.x.iter().zip(&plain.x) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = dd_matrix(10);
        let r = gmres(&a, &[0.0; 10], None, None, &GmresConfig::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.x, vec![0.0; 10]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn warm_start_from_solution_is_immediate() {
        let a = dd_matrix(30);
        let x_true: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r = gmres(&a, &b, Some(&x_true), None, &GmresConfig::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let a = dd_matrix(100);
        let b = vec![1.0; 100];
        let cfg = GmresConfig {
            tol: 1e-30, // unreachable
            restart: 10,
            max_iters: 17,
        };
        let r = gmres(&a, &b, None, None, &cfg).unwrap();
        assert!(!r.converged);
        assert_eq!(r.iterations, 17);
    }

    #[test]
    fn residual_history_is_monotone_within_cycle() {
        let a = dd_matrix(50);
        let b = vec![1.0; 50];
        let r = gmres(&a, &b, None, None, &GmresConfig::default()).unwrap();
        // GMRES residual is non-increasing (up to fp noise) without restart.
        for w in r.residual_history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "{} then {}", w[0], w[1]);
        }
    }

    /// A `LinOp` that counts its applies.
    struct Counting<'a> {
        inner: &'a Csr,
        applies: std::cell::Cell<usize>,
    }

    impl LinOp for Counting<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.applies.set(self.applies.get() + 1);
            self.inner.apply(x, y);
        }
    }

    #[test]
    fn no_initial_guess_equals_zero_guess_bit_for_bit_with_one_apply_less() {
        let a = dd_matrix(90);
        let b: Vec<f64> = (0..90).map(|i| ((i * 3 + 1) as f64 * 0.37).sin()).collect();
        let zeros = vec![0.0; 90];
        let ilu = Ilu0::factor(&a).unwrap();
        let restarting = GmresConfig {
            restart: 4,
            ..GmresConfig::default()
        };
        for cfg in [GmresConfig::default(), restarting] {
            for precond in [None, Some(&ilu as &dyn Preconditioner)] {
                let counted = |x0: Option<&[f64]>| {
                    let op = Counting {
                        inner: &a,
                        applies: std::cell::Cell::new(0),
                    };
                    let sol = gmres(&op, &b, x0, precond, &cfg).unwrap();
                    (sol, op.applies.get())
                };
                let (none, none_applies) = counted(None);
                let (zero, zero_applies) = counted(Some(&zeros));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(none.converged && zero.converged);
                assert_eq!(bits(&none.x), bits(&zero.x));
                assert_eq!(none.iterations, zero.iterations);
                assert_eq!(none.residual.to_bits(), zero.residual.to_bits());
                assert_eq!(bits(&none.residual_history), bits(&zero.residual_history));
                assert_eq!(none_applies + 1, zero_applies);
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = dd_matrix(5);
        assert!(gmres(&a, &[1.0; 4], None, None, &GmresConfig::default()).is_err());
        assert!(gmres(
            &a,
            &[1.0; 5],
            Some(&[0.0; 3]),
            None,
            &GmresConfig::default()
        )
        .is_err());
    }
}
