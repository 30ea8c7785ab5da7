//! Linear-operator and preconditioner abstractions.
//!
//! GMRES and the norm estimators only need `y = A x`; abstracting the
//! operator lets the same solver run on an explicit CSR matrix (BePI's
//! Schur complement) and on matrix-free compositions (`M^{-1}A` for the
//! eigenvalue study of Figure 7).

use bepi_sparse::{CodedCsr, Csr};

/// A real linear operator `R^ncols → R^nrows`.
pub trait LinOp {
    /// Output dimension.
    fn nrows(&self) -> usize;
    /// Input dimension.
    fn ncols(&self) -> usize;
    /// Computes `y = A x` (overwrites `y`; `x.len() == ncols`,
    /// `y.len() == nrows`).
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Computes `Y = A X` for `width` vectors stored row-interleaved
    /// (lane `l` of entry `i` at `x[i * width + l]`; `x.len() ==
    /// ncols · width`, `y.len() == nrows · width`). Each lane must equal
    /// [`LinOp::apply`] on that lane bit for bit. The default applies the
    /// lanes one at a time; [`Csr`] and [`CodedCsr`] override it with one
    /// pass over the matrix for all lanes.
    fn apply_block(&self, x: &[f64], y: &mut [f64], width: usize) {
        let mut xl = vec![0.0; self.ncols()];
        let mut yl = vec![0.0; self.nrows()];
        for l in 0..width {
            for (dst, &v) in xl.iter_mut().zip(x[l..].iter().step_by(width)) {
                *dst = v;
            }
            self.apply(&xl, &mut yl);
            for (dst, &v) in y[l..].iter_mut().step_by(width).zip(&yl) {
                *dst = v;
            }
        }
    }
}

impl LinOp for Csr {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }

    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_into(x, y)
            .expect("dimension checked by caller");
    }

    fn apply_block(&self, x: &[f64], y: &mut [f64], width: usize) {
        self.mul_block_into(x, y, width)
            .expect("dimension checked by caller");
    }
}

impl LinOp for CodedCsr {
    fn nrows(&self) -> usize {
        CodedCsr::nrows(self)
    }

    fn ncols(&self) -> usize {
        CodedCsr::ncols(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_into(x, y)
            .expect("dimension checked by caller");
    }

    fn apply_block(&self, x: &[f64], y: &mut [f64], width: usize) {
        self.mul_block_into(x, y, width)
            .expect("dimension checked by caller");
    }
}

/// A left preconditioner: computes `z = M^{-1} r`.
pub trait Preconditioner {
    /// Applies the preconditioner (overwrites `z`).
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The preconditioned operator `M^{-1} A` as a [`LinOp`] — what GMRES
/// actually Arnoldi-izes, and what Figure 7 takes eigenvalues of.
pub struct PrecondOp<'a, A: LinOp, M: Preconditioner> {
    a: &'a A,
    m: &'a M,
    scratch: std::cell::RefCell<Vec<f64>>,
}

impl<'a, A: LinOp, M: Preconditioner> PrecondOp<'a, A, M> {
    /// Wraps `A` and `M` into the operator `M^{-1}A`.
    pub fn new(a: &'a A, m: &'a M) -> Self {
        let n = a.nrows();
        Self {
            a,
            m,
            scratch: std::cell::RefCell::new(vec![0.0; n]),
        }
    }
}

impl<A: LinOp, M: Preconditioner> LinOp for PrecondOp<'_, A, M> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut t = self.scratch.borrow_mut();
        self.a.apply(x, &mut t);
        self.m.apply(&t, y);
    }
}

/// The transpose-product operator `A^T A` as a [`LinOp`] (for the 2-norm
/// power method).
pub struct GramOp<'a> {
    a: &'a Csr,
    scratch: std::cell::RefCell<Vec<f64>>,
}

impl<'a> GramOp<'a> {
    /// Wraps `A` into `A^T A`.
    pub fn new(a: &'a Csr) -> Self {
        Self {
            a,
            scratch: std::cell::RefCell::new(vec![0.0; a.nrows()]),
        }
    }
}

impl LinOp for GramOp<'_> {
    fn nrows(&self) -> usize {
        self.a.ncols()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut t = self.scratch.borrow_mut();
        self.a.mul_vec_into(x, &mut t).expect("shape ok");
        self.a.mul_vec_transposed_into(&t, y).expect("shape ok");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_sparse::Coo;

    fn sample() -> Csr {
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn csr_linop_matches_mul_vec() {
        let a = sample();
        let x = [1.0, 2.0];
        let mut y = [0.0; 2];
        LinOp::apply(&a, &x, &mut y);
        assert_eq!(y.to_vec(), a.mul_vec(&x).unwrap());
    }

    /// `M = 2I`: `M^{-1}` halves its input.
    struct Double;

    impl Preconditioner for Double {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            for (zi, ri) in z.iter_mut().zip(r) {
                *zi = 0.5 * ri;
            }
        }
    }

    #[test]
    fn precond_op_composes() {
        let a = sample();
        let op = PrecondOp::new(&a, &Double);
        let x = [1.0, 1.0];
        let mut y = [0.0; 2];
        op.apply(&x, &mut y);
        // M^{-1} A [1, 1] = [3, 3] / 2
        assert_eq!(y, [1.5, 1.5]);
        assert_eq!(op.nrows(), 2);
    }

    #[test]
    fn lockstep_default_apply_block_matches_apply_per_lane() {
        let a = sample();
        let op = PrecondOp::new(&a, &Double);
        // Lanes [1, 2], [3, -1], [0.5, 4], interleaved.
        let x = [1.0, 3.0, 0.5, 2.0, -1.0, 4.0];
        let mut y = [f64::NAN; 6];
        op.apply_block(&x, &mut y, 3);
        for l in 0..3 {
            let mut want = [0.0; 2];
            op.apply(&[x[l], x[3 + l]], &mut want);
            assert_eq!([y[l], y[3 + l]], want, "lane {l}");
        }
    }

    #[test]
    fn gram_op_is_ata() {
        let a = sample();
        let g = GramOp::new(&a);
        let x = [1.0, 0.0];
        let mut y = [0.0; 2];
        g.apply(&x, &mut y);
        // A^T A e0 = A^T [2, 0] = [4, 2]
        assert_eq!(y, [4.0, 2.0]);
    }
}
