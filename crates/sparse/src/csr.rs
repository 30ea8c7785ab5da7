//! Compressed sparse row format — the computational workhorse.
//!
//! Invariants maintained by every constructor:
//! * `indptr` has length `nrows + 1`, is non-decreasing, starts at 0 and
//!   ends at `nnz`.
//! * Within each row, column indices are strictly increasing (sorted, no
//!   duplicates).
//!
//! These invariants let SpMV, SpGEMM, triangular solves, and the block
//! slicing used by BePI's partitioning run without per-entry checks.

use crate::coo::check_dims;
use crate::error::SparseError;
use crate::mem::{Bytes, MemBytes};
use crate::pattern::{Idx, Pattern};
use crate::storage::Storage;
use crate::{Coo, Dense, Result};

/// The widest block [`Csr::mul_block_into`] multiplies in one pass.
///
/// Eight `f64` lanes are one 64-byte cache line, so each non-zero of the
/// matrix reads exactly one line of the block; at BePI's Schur sizes an
/// `n2 × 8` block (1 MB at `n2` = 16 k) still fits a per-core L2.
pub const BLOCK_WIDTH: usize = 8;

/// A sparse matrix in compressed sparse row format.
///
/// ```
/// use bepi_sparse::Coo;
///
/// // [1 0 2]
/// // [0 3 0]
/// let mut coo = Coo::new(2, 3).unwrap();
/// coo.push(0, 0, 1.0).unwrap();
/// coo.push(0, 2, 2.0).unwrap();
/// coo.push(1, 1, 3.0).unwrap();
/// let a = coo.to_csr();
///
/// assert_eq!(a.shape(), (2, 3));
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    indptr: Storage<usize>,
    indices: Storage<u32>,
    values: Storage<f64>,
}

impl Csr {
    /// Creates an all-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        check_dims(nrows, ncols).expect("dimension exceeds u32 index space");
        Self {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1].into(),
            indices: Vec::new().into(),
            values: Vec::new().into(),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        check_dims(n, n).expect("dimension exceeds u32 index space");
        Self {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect::<Vec<_>>().into(),
            indices: (0..n as u32).collect::<Vec<_>>().into(),
            values: vec![1.0; n].into(),
        }
    }

    /// Builds a CSR matrix directly from raw parts, validating all
    /// invariants (indptr monotonicity, sorted unique column indices).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        check_dims(nrows, ncols)?;
        if indptr.len() != nrows + 1 {
            return Err(SparseError::VectorLength {
                expected: nrows + 1,
                actual: indptr.len(),
            });
        }
        if indices.len() != values.len() {
            return Err(SparseError::VectorLength {
                expected: indices.len(),
                actual: values.len(),
            });
        }
        if indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
            return Err(SparseError::Parse(format!(
                "indptr must start at 0 and end at nnz={}",
                indices.len()
            )));
        }
        for row in 0..nrows {
            let (start, end) = (indptr[row], indptr[row + 1]);
            if start > end {
                return Err(SparseError::Parse(format!("indptr decreases at row {row}")));
            }
            if end > indices.len() {
                return Err(SparseError::Parse(format!(
                    "indptr entry {end} at row {row} exceeds nnz {}",
                    indices.len()
                )));
            }
            let mut prev: Option<u32> = None;
            for &col in &indices[start..end] {
                if col as usize >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: (row, col as usize),
                        shape: (nrows, ncols),
                    });
                }
                if let Some(p) = prev {
                    if col <= p {
                        return Err(SparseError::Parse(format!(
                            "row {row} has unsorted or duplicate column {col}"
                        )));
                    }
                }
                prev = Some(col);
            }
        }
        Ok(Self {
            nrows,
            ncols,
            indptr: indptr.into(),
            indices: indices.into(),
            values: values.into(),
        })
    }

    /// Builds a CSR matrix from [`Storage`]-backed parts — the zero-copy
    /// constructor for matrices served straight out of a memory-mapped
    /// v6 index — with `O(1)` structural checks only (lengths, first and
    /// last row pointer).
    ///
    /// The full `O(nnz)` invariant scan of [`Csr::from_parts`] is
    /// deliberately skipped: integrity of mapped sections is established
    /// by the container's per-section CRC-32, and re-walking every entry
    /// at open time would make daemon startup linear in index size
    /// again. Interior corruption that slips past the caller's CRC
    /// policy surfaces as a clean panic or wrong scores on use — never
    /// undefined behavior (this crate forbids `unsafe`). Debug builds
    /// still verify everything.
    pub fn from_parts_storage_trusted(
        nrows: usize,
        ncols: usize,
        indptr: Storage<usize>,
        indices: Storage<u32>,
        values: Storage<f64>,
    ) -> Result<Self> {
        check_dims(nrows, ncols)?;
        if indptr.len() != nrows + 1 {
            return Err(SparseError::VectorLength {
                expected: nrows + 1,
                actual: indptr.len(),
            });
        }
        if indices.len() != values.len() {
            return Err(SparseError::VectorLength {
                expected: indices.len(),
                actual: values.len(),
            });
        }
        if indptr[0] != 0 || indptr[nrows] != indices.len() {
            return Err(SparseError::Parse(format!(
                "indptr must start at 0 and end at nnz={}",
                indices.len()
            )));
        }
        let m = Self {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        };
        debug_assert!(m.check_invariants().is_ok(), "CSR invariants violated");
        Ok(m)
    }

    /// Builds a CSR matrix from raw parts without validation.
    ///
    /// Callers must uphold the format invariants; intended for kernels that
    /// construct valid output by design. Debug builds still verify.
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            indptr: indptr.into(),
            indices: indices.into(),
            values: values.into(),
        };
        debug_assert!(m.check_invariants().is_ok(), "CSR invariants violated");
        m
    }

    /// Verifies the format invariants; used by debug assertions and tests.
    pub fn check_invariants(&self) -> Result<()> {
        let clone = Self::from_parts(
            self.nrows,
            self.ncols,
            self.indptr.to_vec(),
            self.indices.to_vec(),
            self.values.to_vec(),
        )?;
        debug_assert_eq!(&clone, self);
        Ok(())
    }

    /// Compresses a COO matrix, summing duplicates and dropping entries
    /// whose summed value is exactly zero.
    pub fn from_coo(coo: &Coo) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        // Counting sort by row.
        let mut counts = vec![0usize; nrows + 1];
        for (r, _, _) in coo.iter() {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let nnz = coo.nnz();
        let mut col_buf = vec![0u32; nnz];
        let mut val_buf = vec![0.0f64; nnz];
        {
            let mut next = counts.clone();
            for (r, c, v) in coo.iter() {
                let slot = next[r];
                col_buf[slot] = c as u32;
                val_buf[slot] = v;
                next[r] += 1;
            }
        }
        // Sort each row by column and merge duplicates.
        let mut indptr = vec![0usize; nrows + 1];
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut order: Vec<u32> = Vec::new();
        for row in 0..nrows {
            let (start, end) = (counts[row], counts[row + 1]);
            let cols = &col_buf[start..end];
            let vals = &val_buf[start..end];
            order.clear();
            order.extend(0..(end - start) as u32);
            order.sort_unstable_by_key(|&i| cols[i as usize]);
            let mut i = 0;
            while i < order.len() {
                let col = cols[order[i] as usize];
                let mut sum = 0.0;
                while i < order.len() && cols[order[i] as usize] == col {
                    sum += vals[order[i] as usize];
                    i += 1;
                }
                if sum != 0.0 {
                    indices.push(col);
                    values.push(sum);
                }
            }
            indptr[row + 1] = indices.len();
        }
        Self::from_parts_unchecked(nrows, ncols, indptr, indices, values)
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

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure stays fixed). For a
    /// mapped matrix this copies the value array to the heap first
    /// (copy-on-write); the read-only serving paths never call it.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.values.to_mut()
    }

    /// A matrix with this one's pattern and the given values. The pattern
    /// is shared (an `Arc` bump, owned or mapped), never copied.
    ///
    /// # Errors
    /// [`SparseError::VectorLength`] unless `values.len() == self.nnz()`.
    pub fn with_values(&self, values: Vec<f64>) -> Result<Self> {
        if values.len() != self.nnz() {
            return Err(SparseError::VectorLength {
                expected: self.nnz(),
                actual: values.len(),
            });
        }
        Ok(Self {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: values.into(),
        })
    }

    /// The pattern (`indptr`, `indices`) in its wide form, sharing this
    /// matrix's arrays, owned or mapped, never copying them — for
    /// structures stored in this matrix's pattern, such as its ILU(0)
    /// factors.
    pub fn pattern(&self) -> Pattern {
        Pattern::Wide {
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
        }
    }

    /// A handle on the value array that shares it, owned or mapped.
    pub fn value_storage(&self) -> Storage<f64> {
        self.values.clone()
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterates over the `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row(i);
        cols.iter().zip(vals).map(|(&c, &v)| (c as usize, v))
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row_iter(r).map(move |(c, v)| (r, c, v)))
    }

    /// Value at `(row, col)` (binary search within the row), 0.0 if absent.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&(col as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Dense `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// `y = A x` into a caller-provided buffer (overwrites `y`).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        check_vec_dims((self.nrows, self.ncols), x, y)?;
        spmv_rows(&self.indptr, &self.indices, &self.values, |v| v, x, y);
        Ok(())
    }

    /// `Y = A X` for a block of `width` dense vectors stored row-interleaved:
    /// lane `l` of row `i` is `x[i * width + l]` (and `y[i * width + l]`),
    /// so each non-zero reads one contiguous run of `width` values.
    ///
    /// Every lane accumulates in exactly the order of
    /// [`Csr::mul_vec_into`] — the row's non-zeros left to right from
    /// `0.0` — so lane `l` of `Y` is bit-identical to `mul_vec_into` on
    /// lane `l` of `X`. One pass over the matrix serves all lanes, which
    /// is what the lock-step GMRES of `bepi-solver` amortises.
    /// `width` must be `1..=`[`BLOCK_WIDTH`].
    pub fn mul_block_into(&self, x: &[f64], y: &mut [f64], width: usize) -> Result<()> {
        check_block_dims((self.nrows, self.ncols), x, y, width)?;
        spmv_block(
            &self.indptr,
            &self.indices,
            &self.values,
            |v| v,
            x,
            y,
            width,
        );
        Ok(())
    }

    /// Dense `y = A^T x` without materializing the transpose.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.ncols];
        self.mul_vec_transposed_into(x, &mut y)?;
        Ok(y)
    }

    /// `y = A^T x` into a caller-provided buffer (overwrites `y`).
    pub fn mul_vec_transposed_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.nrows {
            return Err(SparseError::VectorLength {
                expected: self.nrows,
                actual: x.len(),
            });
        }
        if y.len() != self.ncols {
            return Err(SparseError::VectorLength {
                expected: self.ncols,
                actual: y.len(),
            });
        }
        y.fill(0.0);
        // Borrow the arrays once, as `mul_vec_into` does.
        let (indices, values) = (self.indices.as_slice(), self.values.as_slice());
        for (&xr, bounds) in x.iter().zip(self.indptr.windows(2)) {
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = (
                &indices[bounds[0]..bounds[1]],
                &values[bounds[0]..bounds[1]],
            );
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += v * xr;
            }
        }
        Ok(())
    }

    /// Returns the transpose as a new CSR matrix (equivalently: interprets
    /// this matrix as CSC and re-compresses by the other dimension).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in self.indices.iter() {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = counts.clone();
        for row in 0..self.nrows {
            let (s, e) = (self.indptr[row], self.indptr[row + 1]);
            for k in s..e {
                let col = self.indices[k] as usize;
                let slot = next[col];
                indices[slot] = row as u32;
                values[slot] = self.values[k];
                next[col] += 1;
            }
        }
        // Row-major traversal writes each output row in increasing source-row
        // order, so output columns are already sorted.
        Csr::from_parts_unchecked(self.ncols, self.nrows, counts, indices, values)
    }

    /// Row-normalizes in place: each non-empty row is divided by its sum of
    /// values, making it row-stochastic. Rows that sum to zero (deadends)
    /// are left untouched, exactly as the paper's `Ã` handles deadends.
    ///
    /// Returns the number of rows that could not be normalized.
    pub fn row_normalize(&mut self) -> usize {
        let mut skipped = 0;
        let values = self.values.to_mut();
        for row in 0..self.nrows {
            let (s, e) = (self.indptr[row], self.indptr[row + 1]);
            let sum: f64 = values[s..e].iter().sum();
            if sum != 0.0 {
                for v in &mut values[s..e] {
                    *v /= sum;
                }
            } else if e > s {
                skipped += 1;
            }
        }
        skipped
    }

    /// Multiplies every stored value by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in self.values.to_mut() {
            *v *= alpha;
        }
    }

    /// Extracts the sub-matrix `self[row_range, col_range]` with indices
    /// shifted to start at zero. Ranges must lie inside the shape.
    ///
    /// After BePI's node reordering every block (`H11`, `H12`, ...,
    /// the per-component diagonal blocks of `H11`) is a contiguous slice,
    /// so this is the partitioning primitive of the whole system.
    pub fn slice_block(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> Result<Csr> {
        if row_range.end > self.nrows || row_range.start > row_range.end {
            return Err(SparseError::IndexOutOfBounds {
                index: (row_range.end, 0),
                shape: (self.nrows, self.ncols),
            });
        }
        if col_range.end > self.ncols || col_range.start > col_range.end {
            return Err(SparseError::IndexOutOfBounds {
                index: (0, col_range.end),
                shape: (self.nrows, self.ncols),
            });
        }
        let nrows = row_range.end - row_range.start;
        let ncols = col_range.end - col_range.start;
        let (clo, chi) = (col_range.start as u32, col_range.end as u32);
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in row_range {
            let (cols, vals) = self.row(row);
            // Columns are sorted: binary search the window once per row.
            let lo = cols.partition_point(|&c| c < clo);
            let hi = cols.partition_point(|&c| c < chi);
            for k in lo..hi {
                indices.push(cols[k] - clo);
                values.push(vals[k]);
            }
            indptr.push(indices.len());
        }
        Ok(Csr::from_parts_unchecked(
            nrows, ncols, indptr, indices, values,
        ))
    }

    /// Converts to a dense matrix (small problems / tests only).
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// The main diagonal as a dense vector (zero where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// True if the matrix is strictly diagonally dominant by columns:
    /// `|a_jj| > Σ_{i≠j} |a_ij|` for every column `j`.
    ///
    /// `H = I − (1−c)Ã^T` satisfies this for `0 < c < 1`, which is what
    /// makes BePI's no-pivot LU and ILU(0) factorizations safe.
    pub fn is_column_diagonally_dominant(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let mut off = vec![0.0f64; self.ncols];
        let mut diag = vec![0.0f64; self.ncols];
        for (r, c, v) in self.iter() {
            if r == c {
                diag[c] = v.abs();
            } else {
                off[c] += v.abs();
            }
        }
        diag.iter().zip(&off).all(|(d, o)| d > o)
    }
}

/// Checks `y = A x`'s vector lengths against `A`'s `shape`.
pub(crate) fn check_vec_dims(shape: (usize, usize), x: &[f64], y: &[f64]) -> Result<()> {
    for (expected, actual) in [(shape.1, x.len()), (shape.0, y.len())] {
        if expected != actual {
            return Err(SparseError::VectorLength { expected, actual });
        }
    }
    Ok(())
}

/// Checks a `width`-lane block product's width and lengths against `A`'s
/// `shape`.
pub(crate) fn check_block_dims(
    shape: (usize, usize),
    x: &[f64],
    y: &[f64],
    width: usize,
) -> Result<()> {
    if width == 0 || width > BLOCK_WIDTH {
        return Err(SparseError::ShapeMismatch {
            left: shape,
            right: (shape.1, width),
            op: "mul_block_into (block width must be 1..=8)",
        });
    }
    for (expected, actual) in [(shape.1 * width, x.len()), (shape.0 * width, y.len())] {
        if expected != actual {
            return Err(SparseError::VectorLength { expected, actual });
        }
    }
    Ok(())
}

/// The one SpMV body, `y = A x`, over CSR arrays whose `k`-th value is
/// `value(vals[k])`: the value array itself (`|v| v`) or codes into a
/// value table. The row pointers and column indices may be either
/// [`Pattern`] width. Each row accumulates its non-zeros left to right
/// from `0.0`, so any two encodings of one matrix give bit-identical
/// results. The arrays are borrowed as slices once: indexing a `Storage`
/// per entry re-checks whether it is owned or mapped.
#[inline]
pub(crate) fn spmv_rows<P: Idx, C: Idx, V: Copy>(
    indptr: &[P],
    indices: &[C],
    vals: &[V],
    value: impl Fn(V) -> f64,
    x: &[f64],
    y: &mut [f64],
) {
    for (yi, bounds) in y.iter_mut().zip(indptr.windows(2)) {
        let (s, e) = (bounds[0].ix(), bounds[1].ix());
        let (cols, vals) = (&indices[s..e], &vals[s..e]);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += value(v) * x[c.ix()];
        }
        *yi = acc;
    }
}

/// [`spmv_rows`] for `width` row-interleaved vectors (see
/// [`Csr::mul_block_into`]), dispatched to a compile-time width.
#[inline]
pub(crate) fn spmv_block<P: Idx, C: Idx, V: Copy>(
    indptr: &[P],
    indices: &[C],
    vals: &[V],
    value: impl Fn(V) -> f64,
    x: &[f64],
    y: &mut [f64],
    width: usize,
) {
    match width {
        1 => spmv_block_fixed::<P, C, V, 1>(indptr, indices, vals, value, x, y),
        2 => spmv_block_fixed::<P, C, V, 2>(indptr, indices, vals, value, x, y),
        3 => spmv_block_fixed::<P, C, V, 3>(indptr, indices, vals, value, x, y),
        4 => spmv_block_fixed::<P, C, V, 4>(indptr, indices, vals, value, x, y),
        5 => spmv_block_fixed::<P, C, V, 5>(indptr, indices, vals, value, x, y),
        6 => spmv_block_fixed::<P, C, V, 6>(indptr, indices, vals, value, x, y),
        7 => spmv_block_fixed::<P, C, V, 7>(indptr, indices, vals, value, x, y),
        _ => spmv_block_fixed::<P, C, V, 8>(indptr, indices, vals, value, x, y),
    }
}

/// [`spmv_block`] at a compile-time width: the lanes of a row live in a
/// `[f64; B]` register block, and each non-zero reads its `B` lanes of
/// `x` as one `[f64; B]` behind a single bounds check.
fn spmv_block_fixed<P: Idx, C: Idx, V: Copy, const B: usize>(
    indptr: &[P],
    indices: &[C],
    vals: &[V],
    value: impl Fn(V) -> f64,
    x: &[f64],
    y: &mut [f64],
) {
    for (yi, bounds) in y.chunks_exact_mut(B).zip(indptr.windows(2)) {
        let (s, e) = (bounds[0].ix(), bounds[1].ix());
        let (cols, vals) = (&indices[s..e], &vals[s..e]);
        let mut acc = [0.0; B];
        for (&c, &v) in cols.iter().zip(vals) {
            let v = value(v);
            let at = c.ix() * B;
            let xc: &[f64; B] = x[at..at + B].try_into().expect("B lanes");
            for l in 0..B {
                acc[l] += v * xc[l];
            }
        }
        yi.copy_from_slice(&acc);
    }
}

/// [`spmv_block`] over a matrix that stores only the rows `rows` (row
/// pointers over those rows alone): every other row of `y` is `+0.0`, the
/// sum of an empty row, and each stored row's lanes are summed in
/// [`spmv_rows`]' order, starting from that `+0.0`. `width` is `1` for
/// [`spmv_rows`]' product. Kept apart from the kernels above, which `S`'s
/// products run through every GMRES iteration.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn spmv_stored_rows<P: Idx, C: Idx, V: Copy>(
    rows: &[u32],
    indptr: &[P],
    indices: &[C],
    vals: &[V],
    value: impl Fn(V) -> f64,
    x: &[f64],
    y: &mut [f64],
    width: usize,
) {
    y.fill(0.0);
    let m = (rows, indptr, indices, vals);
    match width {
        1 => stored_rows_fixed::<P, C, V, 1>(m, value, x, y),
        2 => stored_rows_fixed::<P, C, V, 2>(m, value, x, y),
        3 => stored_rows_fixed::<P, C, V, 3>(m, value, x, y),
        4 => stored_rows_fixed::<P, C, V, 4>(m, value, x, y),
        5 => stored_rows_fixed::<P, C, V, 5>(m, value, x, y),
        6 => stored_rows_fixed::<P, C, V, 6>(m, value, x, y),
        7 => stored_rows_fixed::<P, C, V, 7>(m, value, x, y),
        _ => stored_rows_fixed::<P, C, V, 8>(m, value, x, y),
    }
}

/// [`spmv_stored_rows`] at a compile-time width, each stored row's lanes
/// in a `[f64; B]` register block as in [`spmv_block`].
#[allow(clippy::type_complexity)]
fn stored_rows_fixed<P: Idx, C: Idx, V: Copy, const B: usize>(
    (rows, indptr, indices, vals): (&[u32], &[P], &[C], &[V]),
    value: impl Fn(V) -> f64,
    x: &[f64],
    y: &mut [f64],
) {
    for (&r, bounds) in rows.iter().zip(indptr.windows(2)) {
        let (s, e) = (bounds[0].ix(), bounds[1].ix());
        let mut acc = [0.0; B];
        for (&c, &v) in indices[s..e].iter().zip(&vals[s..e]) {
            let v = value(v);
            let at = c.ix() * B;
            let xc: &[f64; B] = x[at..at + B].try_into().expect("B lanes");
            for l in 0..B {
                acc[l] += v * xc[l];
            }
        }
        let at = r.ix() * B;
        y[at..at + B].copy_from_slice(&acc);
    }
}

impl MemBytes for Csr {
    fn bytes(&self) -> Bytes {
        self.indptr.bytes() + self.indices.bytes() + self.values.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        let mut coo = Coo::new(3, 3).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 2, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 1, 5.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let mut coo = Coo::new(2, 3).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        coo.push(0, 0, 5.0).unwrap();
        coo.push(0, 2, 2.0).unwrap(); // duplicate of (0,2)
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 2), 3.0);
        let (cols, _) = m.row(0);
        assert_eq!(cols, &[0, 2]);
    }

    #[test]
    fn duplicate_cancellation_drops_entry() {
        let mut coo = Coo::new(1, 1).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, -1.0).unwrap();
        assert_eq!(coo.to_csr().nnz(), 0);
    }

    #[test]
    fn identity_and_zeros() {
        let i = Csr::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let z = Csr::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.shape(), (2, 5));
    }

    #[test]
    fn from_parts_rejects_unsorted() {
        let r = Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn from_parts_rejects_bad_indptr() {
        let r = Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(r.is_err());
        let r = Csr::from_parts(2, 2, vec![1, 1, 1], vec![0], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn from_parts_rejects_overflowing_middle_indptr() {
        // Regression: a middle indptr entry larger than nnz used to panic
        // on slicing instead of returning a parse error.
        let r = Csr::from_parts(2, 2, vec![0, 999, 1], vec![0], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 9.0, 14.0]);
    }

    #[test]
    fn mul_vec_transposed_matches_dense() {
        let m = sample();
        let y = m.mul_vec_transposed(&[1.0, 2.0, 3.0]).unwrap();
        // A^T x: col sums weighted by x
        assert_eq!(y, vec![1.0 + 12.0, 15.0, 2.0 + 6.0]);
    }

    #[test]
    fn mul_vec_rejects_bad_lengths() {
        let m = sample();
        assert!(m.mul_vec(&[1.0, 2.0]).is_err());
        assert!(m.mul_vec_transposed(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.transpose(), m);
        t.check_invariants().unwrap();
    }

    #[test]
    fn row_normalize_makes_rows_stochastic() {
        let mut m = sample();
        let skipped = m.row_normalize();
        assert_eq!(skipped, 0);
        for r in 0..3 {
            let sum: f64 = m.row(r).1.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn row_normalize_leaves_empty_rows() {
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        let mut m = coo.to_csr();
        let skipped = m.row_normalize();
        assert_eq!(skipped, 0); // empty row isn't "skipped", it has no entries
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn slice_block_extracts_and_shifts() {
        let m = sample();
        let b = m.slice_block(1..3, 1..3).unwrap();
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b.get(0, 1), 3.0); // was (1,2)
        assert_eq!(b.get(1, 0), 5.0); // was (2,1)
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn slice_block_full_is_identity_op() {
        let m = sample();
        let b = m.slice_block(0..3, 0..3).unwrap();
        assert_eq!(b, m);
    }

    #[test]
    fn slice_block_rejects_out_of_range() {
        let m = sample();
        assert!(m.slice_block(0..4, 0..3).is_err());
        assert!(m.slice_block(0..3, 2..5).is_err());
    }

    #[test]
    fn get_and_diagonal() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.diagonal(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn diagonal_dominance_detection() {
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 0, 3.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        assert!(coo.to_csr().is_column_diagonally_dominant());

        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, -2.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        assert!(!coo.to_csr().is_column_diagonally_dominant());
    }

    #[test]
    fn to_dense_and_back() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(2, 1)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);
        assert_eq!(d.to_csr(), m);
    }

    #[test]
    fn scale_multiplies_values() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m.get(2, 1), 10.0);
    }

    #[test]
    fn mem_bytes_exact() {
        let m = sample(); // 5 nnz, 4 indptr entries
        assert_eq!(m.mem_bytes(), 4 * 8 + 5 * 4 + 5 * 8);
    }

    /// A rectangular matrix with a spread of row lengths, every third
    /// row empty, and values of mixed sign and magnitude so that the
    /// summation order shows in the low bits.
    fn ragged(nrows: usize, ncols: usize) -> Csr {
        let mut coo = Coo::new(nrows, ncols).unwrap();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for r in (0..nrows).filter(|r| r % 3 != 1) {
            for _ in 0..(next() % 9) {
                let c = (next() % ncols as u64) as usize;
                let v = (next() % 2001) as f64 / 1000.0 - 1.0;
                coo.push(r, c, v * 10f64.powi((next() % 7) as i32 - 3))
                    .unwrap();
            }
        }
        coo.to_csr()
    }

    /// `a` served from a mapped v6 container: all three arrays are
    /// `Storage::Mapped`.
    fn mapped_copy(a: &Csr, tag: &str) -> Csr {
        use bepi_map::{sections, ContainerWriter, MappedIndex};
        use std::io::Write as _;
        let path = std::env::temp_dir().join(format!("bepi_csr_{tag}_{}.bepi", std::process::id()));
        let mut w = ContainerWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        w.begin_section(sections::S_INDPTR).unwrap();
        for &p in a.indptr() {
            w.write_all(&(p as u64).to_le_bytes()).unwrap();
        }
        w.begin_section(sections::S_INDICES).unwrap();
        for &j in a.indices() {
            w.write_all(&j.to_le_bytes()).unwrap();
        }
        w.begin_section(sections::S_VALUES).unwrap();
        for &v in a.values() {
            w.write_all(&v.to_le_bytes()).unwrap();
        }
        w.finish().unwrap();
        let idx = MappedIndex::open(&path).unwrap();
        // The mapping outlives the directory entry.
        std::fs::remove_file(&path).unwrap();
        Csr::from_parts_storage_trusted(
            a.nrows(),
            a.ncols(),
            idx.section::<usize>(sections::S_INDPTR).unwrap().into(),
            idx.section::<u32>(sections::S_INDICES).unwrap().into(),
            idx.section::<f64>(sections::S_VALUES).unwrap().into(),
        )
        .unwrap()
    }

    #[test]
    fn lockstep_block_spmv_is_bit_identical_to_mul_vec_per_lane() {
        let owned = ragged(57, 43);
        let mapped = mapped_copy(&owned, "block_spmv");
        assert_eq!(mapped.bytes(), Bytes::mapped(owned.bytes().heap));
        assert!((0..57).any(|r| owned.row_nnz(r) == 0));
        for a in [&owned, &mapped] {
            for width in 1..=BLOCK_WIDTH {
                let lanes: Vec<Vec<f64>> = (0..width)
                    .map(|l| {
                        (0..43)
                            .map(|i| ((i * 31 + l * 17) as f64 * 0.37).sin() * 10f64.powi(l as i32))
                            .collect()
                    })
                    .collect();
                let mut x = vec![0.0; 43 * width];
                for (l, lane) in lanes.iter().enumerate() {
                    for (i, v) in lane.iter().enumerate() {
                        x[i * width + l] = *v;
                    }
                }
                let mut y = vec![f64::NAN; 57 * width];
                a.mul_block_into(&x, &mut y, width).unwrap();
                for (l, lane) in lanes.iter().enumerate() {
                    let want = owned.mul_vec(lane).unwrap();
                    for (i, w) in want.iter().enumerate() {
                        assert_eq!(
                            y[i * width + l].to_bits(),
                            w.to_bits(),
                            "width {width} lane {l} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lockstep_block_spmv_rejects_bad_widths_and_lengths() {
        let a = ragged(6, 4);
        assert!(a.mul_block_into(&[], &mut [], 0).is_err());
        let mut y = vec![0.0; 6 * 9];
        assert!(a.mul_block_into(&[0.0; 4 * 9], &mut y, 9).is_err());
        assert!(a
            .mul_block_into(&[0.0; 4 * 2], &mut [0.0; 6 * 3], 2)
            .is_err());
        assert!(a
            .mul_block_into(&[0.0; 4 * 3], &mut [0.0; 6 * 2], 2)
            .is_err());
        assert!(a
            .mul_block_into(&[0.0; 4 * 2], &mut [0.0; 6 * 2], 2)
            .is_ok());
    }

    #[test]
    fn empty_rows_iterate_fine() {
        let m = Csr::zeros(3, 3);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.mul_vec(&[1.0; 3]).unwrap(), vec![0.0; 3]);
    }
}
