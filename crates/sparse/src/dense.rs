//! Row-major dense matrices.
//!
//! Used where the paper itself goes dense: the exact `H^{-1}` reference on
//! the small Physicians-like graph (Appendix I), the Bear baseline's
//! explicit `S^{-1}`, and the small per-block factors of `H11`.

use crate::error::SparseError;
use crate::mem::MemBytes;
use crate::{Csr, Result};
use std::ops::{Index, IndexMut};

/// A dense matrix stored row-major in one contiguous `Vec<f64>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// Creates an all-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from nested row slices (tests and examples).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(SparseError::VectorLength {
                    expected: ncols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self { nrows, ncols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// The underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Dense `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::VectorLength {
                expected: self.ncols,
                actual: x.len(),
            });
        }
        Ok((0..self.nrows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Dense matrix product `A * B`.
    pub fn mul(&self, other: &Dense) -> Result<Dense> {
        if self.ncols != other.nrows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "dense mul",
            });
        }
        let mut out = Dense::zeros(self.nrows, other.ncols);
        // i-k-j loop order: streams over other's rows, cache friendly.
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Dense {
        let mut t = Dense::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Converts to CSR, dropping exact zeros.
    pub fn to_csr(&self) -> Csr {
        let mut coo = crate::Coo::with_capacity(
            self.nrows,
            self.ncols,
            self.data.iter().filter(|v| **v != 0.0).count(),
        )
        .expect("dense shape fits sparse");
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                let v = self[(i, j)];
                if v != 0.0 {
                    coo.push(i, j, v).expect("in range");
                }
            }
        }
        coo.to_csr()
    }

    /// Maximum absolute difference to another matrix of identical shape.
    pub fn max_abs_diff(&self, other: &Dense) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

impl Index<(usize, usize)> for Dense {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl MemBytes for Dense {
    fn mem_bytes(&self) -> usize {
        self.data.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_index() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r = Dense::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(r.is_err());
    }

    #[test]
    fn mul_vec_basic() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn mul_identity_is_noop() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Dense::identity(2);
        assert_eq!(m.mul(&i).unwrap(), m);
        assert_eq!(i.mul(&m).unwrap(), m);
    }

    #[test]
    fn mul_known_product() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Dense::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let p = a.mul(&b).unwrap();
        assert_eq!(p, Dense::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]).unwrap());
    }

    #[test]
    fn mul_shape_mismatch() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Dense::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn csr_roundtrip_drops_zeros() {
        let m = Dense::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        let s = m.to_csr();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn norms_and_diff() {
        let a = Dense::from_rows(&[&[3.0, 4.0]]).unwrap();
        let b = Dense::from_rows(&[&[3.0, 5.5]]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mem_bytes_exact() {
        assert_eq!(Dense::zeros(3, 4).mem_bytes(), 96);
    }
}
