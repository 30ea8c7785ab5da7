//! Coordinate (triplet) format — the assembly format.
//!
//! Graphs and intermediate matrices are assembled as `(row, col, value)`
//! triplets and then compressed into [`Csr`](crate::Csr) /
//! [`Csc`](crate::Csc) for computation.

use crate::error::SparseError;
use crate::mem::{Bytes, MemBytes};
use crate::Result;

/// A sparse matrix in coordinate format.
///
/// Duplicate entries are allowed during assembly; conversion to compressed
/// formats sums them (the usual finite-element / graph-multigraph
/// convention, and what a multi-edge in an adjacency list means).
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    values: Vec<f64>,
}

impl Coo {
    /// Creates an empty matrix of the given shape.
    ///
    /// # Errors
    /// [`SparseError::DimensionTooLarge`] if either dimension exceeds the
    /// `u32` index space.
    pub fn new(nrows: usize, ncols: usize) -> Result<Self> {
        check_dims(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Creates an empty matrix with capacity for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Result<Self> {
        check_dims(nrows, ncols)?;
        Ok(Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        })
    }

    /// Builds a COO matrix from parallel triplet arrays.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        check_dims(nrows, ncols)?;
        if rows.len() != cols.len() || rows.len() != values.len() {
            return Err(SparseError::VectorLength {
                expected: rows.len(),
                actual: cols.len().min(values.len()),
            });
        }
        for (&r, &c) in rows.iter().zip(&cols) {
            if r as usize >= nrows || c as usize >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    index: (r as usize, c as usize),
                    shape: (nrows, ncols),
                });
            }
        }
        Ok(Self {
            nrows,
            ncols,
            rows,
            cols,
            values,
        })
    }

    /// Appends one entry.
    ///
    /// # Errors
    /// [`SparseError::IndexOutOfBounds`] if `(row, col)` lies outside the
    /// declared shape.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.values.push(value);
        Ok(())
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

    /// Number of stored entries (duplicates counted separately).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Returns the transpose (rows and columns swapped).
    pub fn transpose(mut self) -> Self {
        std::mem::swap(&mut self.rows, &mut self.cols);
        std::mem::swap(&mut self.nrows, &mut self.ncols);
        self
    }

    /// Compresses to CSR, summing duplicate entries and dropping exact zeros
    /// that result from cancellation.
    pub fn to_csr(&self) -> crate::Csr {
        crate::Csr::from_coo(self)
    }
}

impl MemBytes for Coo {
    fn bytes(&self) -> Bytes {
        self.rows.bytes() + self.cols.bytes() + self.values.bytes()
    }
}

pub(crate) fn check_dims(nrows: usize, ncols: usize) -> Result<()> {
    // Reserve u32::MAX itself as a sentinel-free bound.
    if nrows >= u32::MAX as usize {
        return Err(SparseError::DimensionTooLarge { dim: nrows });
    }
    if ncols >= u32::MAX as usize {
        return Err(SparseError::DimensionTooLarge { dim: ncols });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter_roundtrip() {
        let mut m = Coo::new(3, 4).unwrap();
        m.push(0, 1, 2.0).unwrap();
        m.push(2, 3, -1.5).unwrap();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 1, 2.0), (2, 3, -1.5)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!((m.nrows(), m.ncols()), (3, 4));
    }

    #[test]
    fn out_of_bounds_push_rejected() {
        let mut m = Coo::new(2, 2).unwrap();
        let err = m.push(2, 0, 1.0).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
        let err = m.push(0, 5, 1.0).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn from_triplets_validates() {
        let ok = Coo::from_triplets(2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0]);
        assert!(ok.is_ok());
        let bad_len = Coo::from_triplets(2, 2, vec![0], vec![1, 0], vec![1.0, 2.0]);
        assert!(bad_len.is_err());
        let bad_idx = Coo::from_triplets(2, 2, vec![0, 3], vec![1, 0], vec![1.0, 2.0]);
        assert!(matches!(
            bad_idx.unwrap_err(),
            SparseError::IndexOutOfBounds { .. }
        ));
    }

    #[test]
    fn transpose_swaps_shape_and_indices() {
        let mut m = Coo::new(2, 3).unwrap();
        m.push(0, 2, 7.0).unwrap();
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (3, 2));
        assert_eq!(t.iter().next(), Some((2, 0, 7.0)));
    }

    #[test]
    fn huge_dimension_rejected() {
        assert!(matches!(
            Coo::new(u32::MAX as usize, 1),
            Err(SparseError::DimensionTooLarge { .. })
        ));
    }

    #[test]
    fn mem_bytes_counts_all_arrays() {
        let mut m = Coo::new(4, 4).unwrap();
        m.push(1, 1, 1.0).unwrap();
        m.push(2, 2, 2.0).unwrap();
        // two entries: 2*(4 + 4 + 8) bytes
        assert_eq!(m.mem_bytes(), 32);
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = Coo::new(0, 0).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.iter().count(), 0);
    }
}
