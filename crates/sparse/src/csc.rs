//! Compressed sparse column format.
//!
//! The LU and triangular-solve kernels in `bepi-solver` are column-oriented
//! (left-looking), so they consume CSC. Structurally a CSC matrix is the
//! CSR of its transpose; we reuse [`Csr`]'s compression machinery.

use crate::mem::{Bytes, MemBytes};
use crate::{Coo, Csr, Result};

/// A sparse matrix in compressed sparse column format.
///
/// Invariants mirror [`Csr`]: `indptr` is non-decreasing with
/// `ncols + 1` entries, and row indices within each column are strictly
/// increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Csc {
    /// Creates an all-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            indptr: vec![0; ncols + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Compresses a COO matrix into CSC (duplicates summed).
    pub fn from_coo(coo: &Coo) -> Self {
        // CSC(A) has the same arrays as CSR(A^T).
        let t = Csr::from_coo(&coo.clone().transpose());
        Self::from_csr_transpose(t)
    }

    /// Converts a CSR matrix into CSC format (same logical matrix).
    pub fn from_csr(csr: &Csr) -> Self {
        Self::from_csr_transpose(csr.transpose())
    }

    /// Interprets `t = A^T` stored as CSR as `A` stored as CSC.
    fn from_csr_transpose(t: Csr) -> Self {
        let (nrows, ncols) = (t.ncols(), t.nrows());
        let indptr = t.indptr().to_vec();
        let indices = t.indices().to_vec();
        let values = t.values().to_vec();
        Self {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Converts to CSR format (same logical matrix).
    pub fn to_csr(&self) -> Csr {
        // Our arrays are CSR(A^T); transposing that CSR yields CSR(A).
        self.as_csr_of_transpose().transpose()
    }

    /// Views the internal arrays as the CSR representation of `A^T`.
    fn as_csr_of_transpose(&self) -> Csr {
        Csr::from_parts(
            self.ncols,
            self.nrows,
            self.indptr.clone(),
            self.indices.clone(),
            self.values.clone(),
        )
        .expect("CSC invariants imply valid CSR of transpose")
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column-pointer array (`ncols + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The row-index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The row indices and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.indptr[j], self.indptr[j + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Iterates over the `(row, value)` pairs of column `j`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| (r as usize, v))
    }

    /// Value at `(row, col)`, 0.0 if absent.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (rows, vals) = self.col(col);
        match rows.binary_search(&(row as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Dense `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(crate::SparseError::VectorLength {
                expected: self.ncols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (i, v) in self.col_iter(j) {
                y[i] += v * xj;
            }
        }
        Ok(y)
    }
}

impl MemBytes for Csc {
    fn bytes(&self) -> Bytes {
        self.indptr.bytes() + self.indices.bytes() + self.values.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        let mut coo = Coo::new(3, 3).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 2, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 1, 5.0).unwrap();
        coo
    }

    #[test]
    fn from_coo_columns_sorted() {
        let m = Csc::from_coo(&sample_coo());
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[2.0, 3.0]);
    }

    #[test]
    fn csr_roundtrip() {
        let coo = sample_coo();
        let csr = coo.to_csr();
        let csc = Csc::from_csr(&csr);
        assert_eq!(csc.to_csr(), csr);
        assert_eq!(csc.get(2, 1), 5.0);
        assert_eq!(csc.get(1, 1), 0.0);
    }

    #[test]
    fn mul_vec_matches_csr() {
        let coo = sample_coo();
        let csr = coo.to_csr();
        let csc = Csc::from_coo(&coo);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(csc.mul_vec(&x).unwrap(), csr.mul_vec(&x).unwrap());
    }

    #[test]
    fn identity_columns() {
        let i = Csc::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(3, 3), 1.0);
        assert_eq!(
            i.mul_vec(&[1.0, 2.0, 3.0, 4.0]).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn zeros_have_no_entries() {
        let z = Csc::zeros(3, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.col(1).0.len(), 0);
    }

    #[test]
    fn mem_bytes_exact() {
        let m = Csc::from_coo(&sample_coo()); // 5 nnz, 4 indptr
        assert_eq!(m.mem_bytes(), 4 * 8 + 5 * 4 + 5 * 8);
    }

    #[test]
    fn mul_vec_rejects_bad_length() {
        let m = Csc::identity(3);
        assert!(m.mul_vec(&[1.0]).is_err());
    }
}
