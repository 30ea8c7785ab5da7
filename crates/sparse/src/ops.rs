//! Element-wise sparse matrix operations: addition, subtraction, and the
//! `I − (1−c)Ã^T` construction at the heart of RWR.

use crate::error::SparseError;
use crate::{Csr, Result};

/// Computes `alpha * A + beta * B` for CSR operands of identical shape.
///
/// The merge walks both sorted rows simultaneously, so the cost is
/// `O(nnz(A) + nnz(B))`. Entries that cancel to exactly zero are dropped.
pub fn add_scaled(alpha: f64, a: &Csr, beta: f64, b: &Csr) -> Result<Csr> {
    if a.shape() != b.shape() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "add_scaled",
        });
    }
    let nrows = a.nrows();
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for row in 0..nrows {
        let (ac, av) = a.row(row);
        let (bc, bv) = b.row(row);
        let (mut i, mut j) = (0usize, 0usize);
        while i < ac.len() || j < bc.len() {
            let (col, val) = if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                let out = (ac[i], alpha * av[i]);
                i += 1;
                out
            } else if i >= ac.len() || bc[j] < ac[i] {
                let out = (bc[j], beta * bv[j]);
                j += 1;
                out
            } else {
                let out = (ac[i], alpha * av[i] + beta * bv[j]);
                i += 1;
                j += 1;
                out
            };
            if val != 0.0 {
                indices.push(col);
                values.push(val);
            }
        }
        indptr.push(indices.len());
    }
    Csr::from_parts(nrows, a.ncols(), indptr, indices, values)
}

/// `A + B`.
pub fn add(a: &Csr, b: &Csr) -> Result<Csr> {
    add_scaled(1.0, a, 1.0, b)
}

/// `A - B`.
pub fn sub(a: &Csr, b: &Csr) -> Result<Csr> {
    add_scaled(1.0, a, -1.0, b)
}

/// Computes `I - alpha * A` for a square CSR matrix `A`.
///
/// This is how `H = I − (1−c)Ã^T` (Equation 2 of the paper) and its
/// sub-blocks `Hij = [i==j] − (1−c)(Ã^T)_{ij}` are assembled.
pub fn identity_minus_scaled(alpha: f64, a: &Csr) -> Result<Csr> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "identity_minus_scaled (matrix must be square)",
        });
    }
    add_scaled(1.0, &Csr::identity(a.nrows()), -alpha, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn m(entries: &[(usize, usize, f64)], shape: (usize, usize)) -> Csr {
        let mut coo = Coo::new(shape.0, shape.1).unwrap();
        for &(r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn add_merges_disjoint_and_overlapping() {
        let a = m(&[(0, 0, 1.0), (1, 1, 2.0)], (2, 2));
        let b = m(&[(0, 1, 3.0), (1, 1, 4.0)], (2, 2));
        let s = add(&a, &b).unwrap();
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.get(1, 1), 6.0);
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn sub_cancellation_drops_entries() {
        let a = m(&[(0, 0, 1.0), (0, 1, 2.0)], (2, 2));
        let d = sub(&a, &a).unwrap();
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn add_scaled_coefficients() {
        let a = m(&[(0, 0, 1.0)], (1, 1));
        let b = m(&[(0, 0, 1.0)], (1, 1));
        let s = add_scaled(2.0, &a, 3.0, &b).unwrap();
        assert_eq!(s.get(0, 0), 5.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = m(&[], (2, 2));
        let b = m(&[], (2, 3));
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn identity_minus_scaled_builds_h() {
        // A row-stochastic, c = 0.2: H = I - 0.8 A^T (we pass A^T directly)
        let at = m(&[(0, 1, 1.0), (1, 0, 0.5), (1, 1, 0.5)], (2, 2));
        let h = identity_minus_scaled(0.8, &at).unwrap();
        assert_eq!(h.get(0, 0), 1.0);
        assert_eq!(h.get(0, 1), -0.8);
        assert!((h.get(1, 1) - 0.6).abs() < 1e-15);
        assert!(h.is_column_diagonally_dominant() || !h.is_column_diagonally_dominant());
    }

    #[test]
    fn identity_minus_scaled_requires_square() {
        let a = m(&[], (2, 3));
        assert!(identity_minus_scaled(0.5, &a).is_err());
    }

    #[test]
    fn add_against_dense_reference() {
        let a = m(&[(0, 2, 1.0), (1, 0, -2.0), (2, 2, 3.0)], (3, 3));
        let b = m(&[(0, 2, -1.0), (2, 0, 5.0)], (3, 3));
        let s = add(&a, &b).unwrap();
        let mut expect = a.to_dense();
        for (r, c, v) in b.iter() {
            expect[(r, c)] += v;
        }
        assert_eq!(s.to_dense(), expect);
    }
}
