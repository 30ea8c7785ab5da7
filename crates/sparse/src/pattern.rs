//! The sparsity pattern of a CSR matrix — its row pointers and column
//! indices — stored wide or narrow.
//!
//! [`Csr`](crate::Csr) stores its pattern as `usize` row pointers and
//! `u32` column indices ([`Pattern::Wide`]). A matrix with at most
//! [`MAX_NARROW_COLS`] columns and at most `u32::MAX` non-zeros fits
//! both in half the width: `u32` row pointers and `u16` column indices
//! ([`Pattern::Narrow`]), 2 bytes per non-zero and 4 per row instead of
//! 4 and 8. That is the index half of Kourtis, Goumas & Koziris,
//! "Optimizing sparse matrix-vector multiplication using index and value
//! compression" (CF 2008); [`CodedCsr`](crate::CodedCsr) holds the value
//! half. BePI's Schur complement is `n2 × n2` with `n2` the hub count,
//! which stays below 2¹⁶ on every benchmark graph.
//!
//! Kernels read either form through [`Idx`]: each is one body, generic
//! over the row-pointer and column-index types, instantiated once per
//! form. A narrow index widens to the same `usize` the wide one holds, so
//! both forms visit the same entries in the same order and every result
//! is bit-identical.

use crate::error::SparseError;
use crate::mem::{Bytes, MemBytes};
use crate::storage::Storage;
use crate::Result;
use std::ops::Range;

/// The most columns a [`Pattern::Narrow`] indexes: every `u16`.
pub const MAX_NARROW_COLS: usize = 1 << 16;

/// An unsigned integer a pattern array stores: a row pointer or a column
/// index, widened to `usize` where a kernel reads it.
pub trait Idx: Copy {
    /// The value as a `usize`.
    fn ix(self) -> usize;
}

impl Idx for usize {
    #[inline(always)]
    fn ix(self) -> usize {
        self
    }
}

impl Idx for u32 {
    #[inline(always)]
    fn ix(self) -> usize {
        self as usize
    }
}

impl Idx for u16 {
    #[inline(always)]
    fn ix(self) -> usize {
        usize::from(self)
    }
}

/// The row pointers and column indices of a CSR matrix, in one of two
/// widths (see the module doc). Cloning shares the arrays.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// `usize` row pointers and `u32` column indices, as [`crate::Csr`]
    /// stores them.
    Wide {
        /// Row pointers (`nrows + 1` entries).
        indptr: Storage<usize>,
        /// Column index per non-zero.
        indices: Storage<u32>,
    },
    /// `u32` row pointers and `u16` column indices.
    Narrow {
        /// Row pointers (`nrows + 1` entries).
        indptr: Storage<u32>,
        /// Column index per non-zero.
        indices: Storage<u16>,
    },
}

impl Pattern {
    /// This pattern in the narrow form when it fits one — at most
    /// [`MAX_NARROW_COLS`] columns (`ncols`) and at most `u32::MAX`
    /// non-zeros — copied into new arrays; otherwise `self` unchanged.
    pub fn narrowed(self, ncols: usize) -> Self {
        match self {
            Pattern::Wide { indptr, indices }
                if ncols <= MAX_NARROW_COLS && u32::try_from(indices.len()).is_ok() =>
            {
                Pattern::Narrow {
                    indptr: indptr.iter().map(|&p| p as u32).collect::<Vec<_>>().into(),
                    indices: indices.iter().map(|&c| c as u16).collect::<Vec<_>>().into(),
                }
            }
            other => other,
        }
    }

    /// True for the narrow form.
    #[inline]
    pub fn is_narrow(&self) -> bool {
        matches!(self, Pattern::Narrow { .. })
    }

    /// Number of row pointers (`nrows + 1` for a well-formed pattern).
    #[inline]
    pub fn indptr_len(&self) -> usize {
        match self {
            Pattern::Wide { indptr, .. } => indptr.len(),
            Pattern::Narrow { indptr, .. } => indptr.len(),
        }
    }

    /// Number of non-zeros (column indices).
    #[inline]
    pub fn nnz(&self) -> usize {
        match self {
            Pattern::Wide { indices, .. } => indices.len(),
            Pattern::Narrow { indices, .. } => indices.len(),
        }
    }

    /// Row pointer `i`.
    #[inline]
    pub fn row_ptr(&self, i: usize) -> usize {
        match self {
            Pattern::Wide { indptr, .. } => indptr[i],
            Pattern::Narrow { indptr, .. } => indptr[i].ix(),
        }
    }

    /// The positions of row `i`'s non-zeros.
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.row_ptr(i)..self.row_ptr(i + 1)
    }

    /// The column of non-zero `k`.
    #[inline]
    pub fn col(&self, k: usize) -> usize {
        match self {
            Pattern::Wide { indices, .. } => indices[k].ix(),
            Pattern::Narrow { indices, .. } => indices[k].ix(),
        }
    }

    /// The pattern in the wide form: this one's arrays, shared, when it is
    /// wide; widened copies when it is narrow.
    pub fn to_wide(&self) -> (Storage<usize>, Storage<u32>) {
        match self {
            Pattern::Wide { indptr, indices } => (indptr.clone(), indices.clone()),
            Pattern::Narrow { indptr, indices } => (
                indptr.iter().map(|&p| p.ix()).collect::<Vec<_>>().into(),
                indices
                    .iter()
                    .map(|&c| u32::from(c))
                    .collect::<Vec<_>>()
                    .into(),
            ),
        }
    }

    /// True when both patterns read the same arrays (not copies of them).
    pub fn shares(&self, other: &Pattern) -> bool {
        match (self, other) {
            (
                Pattern::Wide { indptr, indices },
                Pattern::Wide {
                    indptr: p,
                    indices: c,
                },
            ) => {
                std::ptr::eq(indptr.as_slice(), p.as_slice())
                    && std::ptr::eq(indices.as_slice(), c.as_slice())
            }
            (
                Pattern::Narrow { indptr, indices },
                Pattern::Narrow {
                    indptr: p,
                    indices: c,
                },
            ) => {
                std::ptr::eq(indptr.as_slice(), p.as_slice())
                    && std::ptr::eq(indices.as_slice(), c.as_slice())
            }
            _ => false,
        }
    }

    /// Checks that the row pointers start at 0, never decrease and end
    /// at [`Pattern::nnz`]: then every row's range of non-zeros is in
    /// bounds. `O(nrows)`.
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first bad row pointer.
    pub fn check_indptr(&self) -> Result<()> {
        match self {
            Pattern::Wide { indptr, indices } => check_indptr(indptr, indices.len()),
            Pattern::Narrow { indptr, indices } => check_indptr(indptr, indices.len()),
        }
    }

    /// Checks that every column index is below `ncols` and that each
    /// row's columns strictly increase (sorted, no duplicates), as every
    /// kernel and every builder assumes. Run it after
    /// [`Pattern::check_indptr`]. `O(nnz)`.
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first column out of range, or
    /// the first row whose columns do not strictly increase.
    pub fn check_indices(&self, ncols: usize) -> Result<()> {
        match self {
            Pattern::Wide { indptr, indices } => check_indices(indptr, indices, ncols),
            Pattern::Narrow { indptr, indices } => check_indices(indptr, indices, ncols),
        }
    }
}

/// [`Pattern::check_indptr`] on one form's row pointers.
fn check_indptr<P: Idx>(indptr: &[P], nnz: usize) -> Result<()> {
    let bad = |msg: String| Err(SparseError::Parse(msg));
    match indptr.first().map(|p| p.ix()) {
        None => return bad("no row pointers".into()),
        Some(0) => {}
        Some(p) => return bad(format!("row pointer 0 is {p}, not 0")),
    }
    if let Some(i) = indptr.windows(2).position(|w| w[1].ix() < w[0].ix()) {
        return bad(format!(
            "row pointers decrease at row {i}: {} then {}",
            indptr[i].ix(),
            indptr[i + 1].ix()
        ));
    }
    match indptr.last().map(|p| p.ix()) {
        Some(last) if last != nnz => bad(format!("last row pointer is {last}, not nnz={nnz}")),
        _ => Ok(()),
    }
}

/// [`Pattern::check_indices`] on one form's arrays.
fn check_indices<P: Idx, C: Idx>(indptr: &[P], indices: &[C], ncols: usize) -> Result<()> {
    let bad = |msg: String| Err(SparseError::Parse(msg));
    if let Some(k) = indices.iter().position(|c| c.ix() >= ncols) {
        return bad(format!(
            "column {} at non-zero {k} is out of range for {ncols} columns",
            indices[k].ix()
        ));
    }
    for (r, bounds) in indptr.windows(2).enumerate() {
        let (s, e) = (bounds[0].ix(), bounds[1].ix());
        let Some(row) = indices.get(s..e) else {
            return bad(format!(
                "row {r} spans non-zeros {s}..{e}, past the column indices"
            ));
        };
        if let Some(k) = row.windows(2).position(|c| c[1].ix() <= c[0].ix()) {
            return bad(format!(
                "columns of row {r} do not strictly increase at non-zero {}: {} then {}",
                s + k + 1,
                row[k].ix(),
                row[k + 1].ix()
            ));
        }
    }
    Ok(())
}

impl MemBytes for Pattern {
    /// `8·(nrows+1) + 4·nnz` wide, `4·(nrows+1) + 2·nnz` narrow.
    fn bytes(&self) -> Bytes {
        match self {
            Pattern::Wide { indptr, indices } => indptr.bytes() + indices.bytes(),
            Pattern::Narrow { indptr, indices } => indptr.bytes() + indices.bytes(),
        }
    }
}

impl PartialEq for Pattern {
    /// The same row pointers and column indices, whatever the widths.
    fn eq(&self, other: &Self) -> bool {
        fn same<A: Idx, B: Idx>(a: &[A], b: &[B]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.ix() == y.ix())
        }
        match (self, other) {
            (
                Pattern::Wide { indptr, indices },
                Pattern::Wide {
                    indptr: p,
                    indices: c,
                },
            ) => indptr == p && indices == c,
            (
                Pattern::Narrow { indptr, indices },
                Pattern::Narrow {
                    indptr: p,
                    indices: c,
                },
            ) => indptr == p && indices == c,
            (
                Pattern::Wide { indptr, indices },
                Pattern::Narrow {
                    indptr: p,
                    indices: c,
                },
            )
            | (
                Pattern::Narrow {
                    indptr: p,
                    indices: c,
                },
                Pattern::Wide { indptr, indices },
            ) => same(indptr, p) && same(indices, c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide(indptr: Vec<usize>, indices: Vec<u32>) -> Pattern {
        Pattern::Wide {
            indptr: indptr.into(),
            indices: indices.into(),
        }
    }

    #[test]
    fn narrow_selection_follows_ncols_and_round_trips() {
        let p = wide(vec![0, 2, 2, 3], vec![0, 65_535, 7]);
        for ncols in [8, MAX_NARROW_COLS] {
            let n = p.clone().narrowed(ncols);
            assert!(n.is_narrow(), "{ncols}");
            assert_eq!(n, p);
            assert_eq!(n.mem_bytes(), 4 * 4 + 2 * 3);
            assert_eq!((n.row_range(0), n.col(1)), (0..2, 65_535));
            let (indptr, indices) = n.to_wide();
            assert_eq!(
                (&indptr[..], &indices[..]),
                (&[0, 2, 2, 3][..], &[0, 65_535, 7][..])
            );
        }
        let kept = p.clone().narrowed(MAX_NARROW_COLS + 1);
        assert!(!kept.is_narrow());
        assert!(kept.shares(&p));
        assert_eq!(kept.mem_bytes(), 4 * 8 + 3 * 4);
        // A wide pattern widens to itself, shared.
        let (indptr, indices) = p.to_wide();
        assert!(Pattern::Wide { indptr, indices }.shares(&p));
    }

    #[test]
    fn narrow_checks_name_the_bad_entry() {
        assert!(check_indptr(&[0u32, 1, 3], 3).is_ok());
        assert!(check_indices(&[0u32, 2], &[0u16, 4], 5).is_ok());
        let err = |r: Result<()>| r.unwrap_err().to_string();
        assert!(err(check_indptr::<u32>(&[], 0)).contains("no row pointers"));
        assert!(err(check_indptr(&[1usize, 3], 3)).contains("row pointer 0 is 1"));
        assert!(err(check_indptr(&[0u32, 3, 2, 3], 3)).contains("decrease at row 1: 3 then 2"));
        assert!(err(check_indptr(&[0usize, 2], 3)).contains("last row pointer is 2, not nnz=3"));
        assert!(err(check_indices(&[0u32, 2], &[0u16, 5], 5)).contains("column 5 at non-zero 1"));
        assert!(err(check_indices(&[0u32, 1, 3], &[4u16, 2, 2], 5))
            .contains("columns of row 1 do not strictly increase at non-zero 2: 2 then 2"));
        assert!(err(check_indices(&[0usize, 2], &[3u32, 1], 5))
            .contains("row 0 do not strictly increase at non-zero 1: 3 then 1"));
        assert!(
            check_indices(&[0u32, 1, 2], &[3u16, 1], 5).is_ok(),
            "rows are checked apart"
        );
        let p = wide(vec![0, 2], vec![1, 9]);
        assert!(p.check_indptr().is_ok());
        assert!(p.check_indices(10).is_ok());
        assert!(p.check_indices(9).is_err());
    }
}
