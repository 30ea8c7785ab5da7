//! Restarted GMRES with optional left preconditioning, for one
//! right-hand side or a block of them solved in lock step.
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
//! (`‖H̄y − ‖t‖e₁‖ < ε`). A step whose new basis direction vanishes
//! against `‖A v_j‖` (happy breakdown) ends the cycle; the test is
//! relative to the new Hessenberg column, so it does not depend on the
//! scale of `b`.
//!
//! **Lock step.** [`gmres_block`] runs up to [`BLOCK_WIDTH`] right-hand
//! sides together. Each column keeps its own solution, Arnoldi basis,
//! Hessenberg, Givens and restart state and drops out when it is done;
//! the only thing the columns share is the operator apply, which
//! [`LinOp::apply_block`] makes one pass over `A` for all active columns.
//! A column's next apply is either its Arnoldi vector or, at a restart,
//! its current solution — columns at different stages still share the
//! pass. The block kernel accumulates every lane in the non-zero order of
//! the single-vector SpMV, the preconditioner is applied per column, and
//! orthogonalisation never mixes columns, so each column's result is
//! bit-identical to [`gmres`] on that right-hand side alone. [`gmres`] is
//! the one-column case of the same engine and applies `A` directly, with
//! no packing. The width is a constant, not a setting: eight `f64` lanes
//! are one cache line per non-zero of `A`, and SpMV over BePI's `S` is
//! bandwidth-bound, so one pass costs about what a single-vector pass
//! costs while serving eight solves.

use crate::linop::{LinOp, Preconditioner};
use bepi_sparse::vecops::{axpy, dot, norm2};
use bepi_sparse::{Result, SparseError, BLOCK_WIDTH};

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
    check_square(a)?;
    check_len(b, a.nrows())?;
    if let Some(x0) = x0 {
        check_len(x0, a.nrows())?;
    }
    let column = Column::start(b, x0, precond, cfg);
    Ok(lockstep(a, vec![column], precond, cfg)
        .pop()
        .expect("one column in, one result out"))
}

/// Solves `A x_l = b_l` (preconditioned as in [`gmres`]) for every
/// right-hand side of `bs` from a zero initial guess, [`BLOCK_WIDTH`]
/// columns at a time in lock step (see the module docs). Results come
/// back in input order, each bit-identical to `gmres(a, b_l, None,
/// precond, cfg)`.
///
/// ```
/// use bepi_solver::{gmres, gmres_block, GmresConfig};
/// use bepi_sparse::Coo;
///
/// let mut coo = Coo::new(2, 2).unwrap();
/// coo.push(0, 0, 4.0).unwrap();
/// coo.push(0, 1, 1.0).unwrap();
/// coo.push(1, 0, 1.0).unwrap();
/// coo.push(1, 1, 3.0).unwrap();
/// let a = coo.to_csr();
///
/// let cfg = GmresConfig::default();
/// let (b0, b1) = ([1.0, 2.0], [0.0, -5.0]);
/// let both = gmres_block(&a, &[&b0[..], &b1[..]], None, &cfg).unwrap();
/// assert_eq!(both[1].x, gmres(&a, &b1, None, None, &cfg).unwrap().x);
/// ```
pub fn gmres_block<A: LinOp>(
    a: &A,
    bs: &[&[f64]],
    precond: Option<&dyn Preconditioner>,
    cfg: &GmresConfig,
) -> Result<Vec<GmresResult>> {
    check_square(a)?;
    for b in bs {
        check_len(b, a.nrows())?;
    }
    let mut results = Vec::with_capacity(bs.len());
    for block in bs.chunks(BLOCK_WIDTH) {
        let columns = block
            .iter()
            .map(|b| Column::start(b, None, precond, cfg))
            .collect();
        results.extend(lockstep(a, columns, precond, cfg));
    }
    Ok(results)
}

fn check_square<A: LinOp>(a: &A) -> Result<()> {
    if a.ncols() != a.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), a.ncols()),
            right: (a.nrows(), a.nrows()),
            op: "gmres (operator must be square)",
        });
    }
    Ok(())
}

fn check_len(v: &[f64], n: usize) -> Result<()> {
    if v.len() != n {
        return Err(SparseError::VectorLength {
            expected: n,
            actual: v.len(),
        });
    }
    Ok(())
}

/// Advances every column until all are done. Each round gives every
/// running column one apply of `A`: directly when one column is left,
/// else through one [`LinOp::apply_block`] over the packed operands.
fn lockstep<A: LinOp>(
    a: &A,
    mut columns: Vec<Column<'_>>,
    precond: Option<&dyn Preconditioner>,
    cfg: &GmresConfig,
) -> Vec<GmresResult> {
    let n = a.nrows();
    let mut lane = vec![0.0; n];
    // Output of the preconditioner in an Arnoldi step.
    let mut spare = if precond.is_some() {
        vec![0.0; n]
    } else {
        Vec::new()
    };
    let (mut x_block, mut y_block) = (Vec::new(), Vec::new());
    let mut running = Vec::with_capacity(columns.len());
    loop {
        running.clear();
        running.extend((0..columns.len()).filter(|&i| !columns[i].is_done()));
        match running.len() {
            0 => break,
            1 => {
                let column = &mut columns[running[0]];
                a.apply(column.operand(), &mut lane);
                column.advance(&mut lane, &mut spare, precond, cfg);
            }
            width => {
                x_block.resize(n * width, 0.0);
                y_block.resize(n * width, 0.0);
                for (l, &i) in running.iter().enumerate() {
                    let operand = columns[i].operand();
                    for (dst, &v) in x_block[l..].iter_mut().step_by(width).zip(operand) {
                        *dst = v;
                    }
                }
                a.apply_block(&x_block, &mut y_block, width);
                for (l, &i) in running.iter().enumerate() {
                    for (dst, &v) in lane.iter_mut().zip(y_block[l..].iter().step_by(width)) {
                        *dst = v;
                    }
                    columns[i].advance(&mut lane, &mut spare, precond, cfg);
                }
            }
        }
    }
    columns.into_iter().map(Column::into_result).collect()
}

/// What a column's next apply of `A` is for.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// `A x`, for the residual that opens a (re)start cycle.
    Residual,
    /// `A v_j`, for the next Arnoldi step.
    Arnoldi,
    /// Finished: `residual` is the final relative residual.
    Done { residual: f64, converged: bool },
}

/// The Arnoldi basis, Hessenberg columns, Givens rotations and rotated
/// right-hand side of one restart cycle.
#[derive(Default)]
struct Cycle {
    basis: Vec<Vec<f64>>,
    h_cols: Vec<Vec<f64>>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
}

/// One right-hand side's complete GMRES state.
struct Column<'a> {
    b: &'a [f64],
    /// Reference norm: ‖M^{-1} b‖ (or ‖b‖ unpreconditioned).
    denom: f64,
    x: Vec<f64>,
    iterations: usize,
    history: Vec<f64>,
    cycle: Cycle,
    phase: Phase,
}

impl<'a> Column<'a> {
    fn start(
        b: &'a [f64],
        x0: Option<&[f64]>,
        precond: Option<&dyn Preconditioner>,
        cfg: &GmresConfig,
    ) -> Self {
        let n = b.len();
        let mut mb = vec![0.0; n];
        match precond {
            Some(m) => m.apply(b, &mut mb),
            None => mb.copy_from_slice(b),
        }
        let denom = norm2(&mb);
        let mut column = Column {
            b,
            denom,
            x: x0.map_or_else(|| vec![0.0; n], <[f64]>::to_vec),
            iterations: 0,
            history: Vec::new(),
            cycle: Cycle::default(),
            phase: Phase::Residual,
        };
        if denom == 0.0 {
            column.x = vec![0.0; n];
            column.phase = Phase::Done {
                residual: 0.0,
                converged: true,
            };
        } else if x0.is_none() {
            // Without an initial guess the first cycle's residual
            // M^{-1}(b − A·0) is `mb` itself: reuse it rather than pay one
            // apply of `A` and one of `M` to recompute it.
            column.start_cycle(mb, cfg);
        }
        column
    }

    fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done { .. })
    }

    /// The vector this column needs `A` applied to next.
    fn operand(&self) -> &[f64] {
        match self.phase {
            Phase::Residual => &self.x,
            Phase::Arnoldi => self.cycle.basis.last().expect("a cycle has a basis"),
            Phase::Done { .. } => unreachable!("a finished column takes no applies"),
        }
    }

    /// Consumes `av = A · operand()`; `av` and `spare` are scratch.
    fn advance(
        &mut self,
        av: &mut [f64],
        spare: &mut [f64],
        precond: Option<&dyn Preconditioner>,
        cfg: &GmresConfig,
    ) {
        match self.phase {
            Phase::Residual => {
                // (Preconditioned) residual r = M^{-1}(b − A x).
                for (s, bi) in av.iter_mut().zip(self.b) {
                    *s = bi - *s;
                }
                let r = match precond {
                    Some(mm) => {
                        let mut r = vec![0.0; av.len()];
                        mm.apply(av, &mut r);
                        r
                    }
                    None => av.to_vec(),
                };
                self.start_cycle(r, cfg);
            }
            Phase::Arnoldi => {
                // w = M^{-1} A v_j
                let w = match precond {
                    Some(mm) => {
                        mm.apply(av, spare);
                        spare
                    }
                    None => av,
                };
                self.arnoldi_step(w, cfg);
            }
            Phase::Done { .. } => unreachable!("a finished column takes no applies"),
        }
    }

    /// Opens a cycle on the residual `r`, or finishes the column if `r`
    /// meets the tolerance or the iteration cap is spent.
    fn start_cycle(&mut self, mut r: Vec<f64>, cfg: &GmresConfig) {
        let beta = norm2(&r);
        let rel = beta / self.denom;
        if rel <= cfg.tol || self.iterations >= cfg.max_iters {
            self.phase = Phase::Done {
                residual: rel,
                converged: rel <= cfg.tol,
            };
            return;
        }
        let m = cfg.restart.max(1);
        for v in &mut r {
            *v /= beta;
        }
        let mut basis = Vec::with_capacity(m + 1);
        basis.push(r);
        let mut g = vec![0.0; m + 1];
        g[0] = beta;
        self.cycle = Cycle {
            basis,
            h_cols: Vec::with_capacity(m),
            cs: Vec::with_capacity(m),
            sn: Vec::with_capacity(m),
            g,
        };
        self.phase = Phase::Arnoldi;
    }

    /// Step `j` of the cycle on `w = M^{-1} A v_j`.
    fn arnoldi_step(&mut self, w: &mut [f64], cfg: &GmresConfig) {
        let c = &mut self.cycle;
        let j = c.h_cols.len();
        // Modified Gram–Schmidt.
        let mut h = vec![0.0; j + 2];
        for (i, v) in c.basis.iter().enumerate() {
            let hij = dot(w, v);
            h[i] = hij;
            axpy(-hij, v, w);
        }
        let hnext = norm2(w);
        h[j + 1] = hnext;
        // ‖M^{-1} A v_j‖, since Gram–Schmidt only splits it into parts.
        let column_norm = norm2(&h);

        // Apply accumulated Givens rotations to the new column.
        for i in 0..j {
            let t = c.cs[i] * h[i] + c.sn[i] * h[i + 1];
            h[i + 1] = -c.sn[i] * h[i] + c.cs[i] * h[i + 1];
            h[i] = t;
        }
        // New rotation annihilating h[j+1].
        let (cj, sj) = givens(h[j], h[j + 1]);
        c.cs.push(cj);
        c.sn.push(sj);
        h[j] = cj * h[j] + sj * h[j + 1];
        h[j + 1] = 0.0;
        let gj = c.g[j];
        c.g[j] = cj * gj;
        c.g[j + 1] = -sj * gj;
        c.h_cols.push(h);
        self.iterations += 1;
        let rel = c.g[j + 1].abs() / self.denom;
        self.history.push(rel);

        let happy = hnext <= 1e-14 * column_norm;
        let cycle_full = j + 1 == cfg.restart.max(1);
        if rel <= cfg.tol || happy || cycle_full || self.iterations >= cfg.max_iters {
            // The next apply computes the true residual, which confirms
            // convergence, restarts, or reports the capped result.
            self.finish_cycle();
            self.phase = Phase::Residual;
        } else {
            c.basis.push(w.iter().map(|wi| wi / hnext).collect());
        }
    }

    /// Solves the small triangular system `R y = g` and updates `x`.
    fn finish_cycle(&mut self) {
        let Cycle {
            basis, h_cols, g, ..
        } = std::mem::take(&mut self.cycle);
        let k_used = h_cols.len();
        let mut y = vec![0.0; k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for (jj, yj) in y.iter().enumerate().skip(i + 1) {
                acc -= h_cols[jj][i] * yj;
            }
            y[i] = acc / h_cols[i][i];
        }
        for (jj, yj) in y.iter().enumerate() {
            axpy(*yj, &basis[jj], &mut self.x);
        }
    }

    fn into_result(self) -> GmresResult {
        let Phase::Done {
            residual,
            converged,
        } = self.phase
        else {
            unreachable!("lockstep runs every column to completion")
        };
        GmresResult {
            x: self.x,
            iterations: self.iterations,
            residual,
            converged,
            residual_history: self.history,
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

    #[test]
    fn iteration_count_does_not_depend_on_the_scale_of_b() {
        let a = dd_matrix(120);
        let b: Vec<f64> = (0..120).map(|i| ((i + 1) as f64).recip()).collect();
        let runs: Vec<(usize, bool)> = [1e-20, 1e-10, 1.0, 1e12, 1e14, 1e16]
            .iter()
            .map(|scale| {
                let scaled: Vec<f64> = b.iter().map(|v| v * scale).collect();
                let r = gmres(&a, &scaled, None, None, &GmresConfig::default()).unwrap();
                (r.iterations, r.converged)
            })
            .collect();
        assert!(runs[0].1, "{runs:?}");
        assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
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
