//! LU factorization and explicit inversion of the block-diagonal `H11`.
//!
//! SlashBurn leaves `H11` block diagonal with blocks `H11_1 … H11_b`
//! (Figure 3(d)). Its LU factors — and their inverses — are block diagonal
//! too, so everything is done per block and assembled into two global
//! sparse triangular matrices `L1^{-1}`, `U1^{-1}` exactly as Algorithms 1
//! and 3 store them. The per-block cost is what Theorems 1–3 count as
//! `Σ n1i³`.
//!
//! Small blocks use dense no-pivot LU + dense triangular inversion (cheap,
//! no allocation churn); larger blocks (e.g. the final-GCC block) use the
//! sparse path of [`crate::sparse_lu`].
//!
//! [`BlockLu`] is the builder: its factors are [`Csr`]s, which the Schur
//! complement's SpGEMM reads. An index stores them frozen
//! ([`FrozenBlockLu`]): value-coded [`CodedCsr`]s on a narrow pattern when
//! they fit one, answering the same solves bit for bit.

use crate::dense_lu::{invert_unit_lower, invert_upper, lu_nopivot};
use crate::sparse_lu::SparseLu;
use bepi_sparse::{CodedCsr, Csr, Dense, MemBytes, Result, SparseError};

/// Block size at or below which the dense per-block path is used.
const DENSE_BLOCK_THRESHOLD: usize = 128;

/// Inverted LU factors of a block-diagonal matrix.
///
/// Applying the factors ([`BlockLu::solve_vec`]) is two SpMVs; the
/// factorisation itself fans out per block ([`BlockLu::factor_parallel`]).
///
/// ```
/// use bepi_solver::BlockLu;
/// use bepi_sparse::Coo;
///
/// // Two diagonal blocks: [2.0] and [[4, 0], [1, 2]].
/// let mut coo = Coo::new(3, 3).unwrap();
/// coo.push(0, 0, 2.0).unwrap();
/// coo.push(1, 1, 4.0).unwrap();
/// coo.push(2, 1, 1.0).unwrap();
/// coo.push(2, 2, 2.0).unwrap();
/// let a = coo.to_csr();
///
/// let lu = BlockLu::factor(&a, &[1, 2]).unwrap();
/// let x = lu.solve_vec(&[2.0, 4.0, 3.0]).unwrap(); // solves A x = b
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// assert!((x[2] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct BlockLu {
    /// Global `L1^{-1}` (unit-lower-triangular, block diagonal), CSR.
    pub l_inv: Csr,
    /// Global `U1^{-1}` (upper-triangular, block diagonal), CSR.
    pub u_inv: Csr,
    /// The block sizes used for the factorization.
    pub block_sizes: Vec<usize>,
}

impl BlockLu {
    /// Factors and inverts a block-diagonal matrix given its block sizes
    /// (which must tile the dimension; entries crossing blocks are a bug
    /// in the caller and are rejected via per-block extraction checks in
    /// debug builds).
    pub fn factor(a: &Csr, block_sizes: &[usize]) -> Result<Self> {
        Self::factor_parallel(a, block_sizes, 1)
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.l_inv.nrows()
    }

    /// Applies `A^{-1} x = U^{-1}(L^{-1} x)` — two SpMVs, as in the
    /// paper's query phase (Algorithm 2 line 5, Algorithm 4 line 5).
    pub fn solve_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let t = self.l_inv.mul_vec(x)?;
        self.u_inv.mul_vec(&t)
    }

    /// Applies `A^{-1}` to a sparse matrix:
    /// `U^{-1}(L^{-1} B)` via two SpGEMMs — the Schur-complement
    /// construction of Algorithm 1 line 6.
    pub fn solve_matrix(&self, b: &Csr) -> Result<Csr> {
        let t = bepi_sparse::spgemm(&self.l_inv, b)?;
        bepi_sparse::spgemm(&self.u_inv, &t)
    }

    /// Largest block size (diagnostics; the final-GCC block dominates).
    pub fn max_block(&self) -> usize {
        self.block_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Parallel variant of [`BlockLu::factor`]: the diagonal blocks are
    /// independent, so they are factored and inverted across `threads`
    /// worker threads. Each thread takes a contiguous, cost-balanced run
    /// of blocks and writes its rows of both factors straight into CSR
    /// parts; the factors are block diagonal, so the parts concatenate in
    /// block order. Every block runs the same kernel at any thread count,
    /// so the output is bit-identical to the serial path.
    pub fn factor_parallel(a: &Csr, block_sizes: &[usize], threads: usize) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SparseError::ShapeMismatch {
                left: a.shape(),
                right: a.shape(),
                op: "BlockLu::factor (matrix must be square)",
            });
        }
        if block_sizes.iter().sum::<usize>() != n {
            return Err(SparseError::VectorLength {
                expected: n,
                actual: block_sizes.iter().sum(),
            });
        }
        debug_assert!(
            bepi_reorder_check(a, block_sizes),
            "matrix entries cross declared diagonal blocks"
        );
        // Block start offsets, plus a cumulative cost for load balancing.
        let mut starts = Vec::with_capacity(block_sizes.len());
        let mut cost_prefix = Vec::with_capacity(block_sizes.len() + 1);
        cost_prefix.push(0usize);
        let mut acc = 0usize;
        let mut cost = 0usize;
        for &s in block_sizes {
            starts.push(acc);
            acc += s;
            cost = cost.saturating_add(block_cost(s));
            cost_prefix.push(cost);
        }
        // Each thread gets a contiguous, cost-balanced run of blocks and
        // at least PAR_BLOCK_LU_MIN_COST of work; one run is the serial
        // path, on the calling thread.
        let threads = threads.min(cost / PAR_BLOCK_LU_MIN_COST).max(1);
        let ranges = bepi_par::balanced_ranges(&cost_prefix, threads);
        let parts = bepi_par::par_join(
            ranges
                .into_iter()
                .map(|run| {
                    let starts = &starts;
                    move || -> Result<(FactorRows, FactorRows)> {
                        let sizes = &block_sizes[run.clone()];
                        let mut l = FactorRows::for_blocks(sizes);
                        let mut u = FactorRows::for_blocks(sizes);
                        for bi in run {
                            factor_block(a, starts[bi], block_sizes[bi], &mut l, &mut u)?;
                        }
                        Ok((l, u))
                    }
                })
                .collect(),
        )
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        let (l_parts, u_parts): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        Ok(Self {
            l_inv: FactorRows::concat(n, l_parts)?,
            u_inv: FactorRows::concat(n, u_parts)?,
            block_sizes: block_sizes.to_vec(),
        })
    }
}

impl MemBytes for BlockLu {
    fn mem_bytes(&self) -> usize {
        self.l_inv.mem_bytes() + self.u_inv.mem_bytes()
    }
}

/// The inverted block factors as an index stores them: `L1⁻¹` and `U1⁻¹`
/// frozen into [`CodedCsr`]s, value-coded over the index's shared value
/// table and on a narrow pattern when they fit one. Solves are
/// bit-identical to the [`BlockLu`] they were frozen from.
#[derive(Debug, Clone)]
pub struct FrozenBlockLu {
    /// Global `L1^{-1}` (unit-lower-triangular, block diagonal).
    pub l_inv: CodedCsr,
    /// Global `U1^{-1}` (upper-triangular, block diagonal).
    pub u_inv: CodedCsr,
    /// The block sizes used for the factorization.
    pub block_sizes: Vec<usize>,
}

impl FrozenBlockLu {
    /// Assembles frozen factors — from a [`BlockLu`]'s factors coded, or
    /// from an index file — with `O(1)` shape checks only: the factors are
    /// trusted to be triangular and block diagonal (persisted sections are
    /// covered by CRCs); debug builds still scan every entry.
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] unless both factors are `n × n`;
    /// [`SparseError::VectorLength`] unless the block sizes sum to `n`.
    pub fn from_inverse_factors_trusted(
        l_inv: CodedCsr,
        u_inv: CodedCsr,
        block_sizes: Vec<usize>,
    ) -> Result<Self> {
        let n = l_inv.nrows();
        if l_inv.ncols() != n || u_inv.nrows() != n || u_inv.ncols() != n {
            return Err(SparseError::ShapeMismatch {
                left: l_inv.shape(),
                right: u_inv.shape(),
                op: "FrozenBlockLu::from_inverse_factors_trusted",
            });
        }
        if block_sizes.iter().sum::<usize>() != n {
            return Err(SparseError::VectorLength {
                expected: n,
                actual: block_sizes.iter().sum(),
            });
        }
        debug_assert!(
            (0..n).all(|r| l_inv.row_iter(r).all(|(c, _)| r >= c)),
            "L^-1 must be lower triangular"
        );
        debug_assert!(
            (0..n).all(|r| u_inv.row_iter(r).all(|(c, _)| r <= c)),
            "U^-1 must be upper triangular"
        );
        Ok(Self {
            l_inv,
            u_inv,
            block_sizes,
        })
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.l_inv.nrows()
    }

    /// Applies `A^{-1} x = U^{-1}(L^{-1} x)`, bit-identical to
    /// [`BlockLu::solve_vec`].
    pub fn solve_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let t = self.l_inv.mul_vec(x)?;
        self.u_inv.mul_vec(&t)
    }

    /// KLU-style partial refactorization: re-factors only the listed
    /// dirty diagonal blocks of `a_new` and copies every other block's
    /// inverse-factor rows verbatim from `self`, into a new builder.
    ///
    /// The caller must guarantee that `a_new` has the same block
    /// structure as the original matrix and that every block *not*
    /// listed in `dirty_blocks` is numerically unchanged — under that
    /// contract the result is bit-identical to `BlockLu::factor(a_new,
    /// block_sizes)` at a fraction of the cost (each clean block skips
    /// its `O(size³)` factor/invert).
    pub fn refactor_blocks(&self, a_new: &Csr, dirty_blocks: &[usize]) -> Result<BlockLu> {
        let n = self.n();
        if a_new.nrows() != n || a_new.ncols() != n {
            return Err(SparseError::ShapeMismatch {
                left: a_new.shape(),
                right: (n, n),
                op: "FrozenBlockLu::refactor_blocks",
            });
        }
        let mut dirty = vec![false; self.block_sizes.len()];
        for &b in dirty_blocks {
            if b >= dirty.len() {
                return Err(SparseError::IndexOutOfBounds {
                    index: (b, b),
                    shape: (dirty.len(), dirty.len()),
                });
            }
            dirty[b] = true;
        }
        debug_assert!(
            bepi_reorder_check(a_new, &self.block_sizes),
            "matrix entries cross declared diagonal blocks"
        );
        let mut l = FactorRows::for_blocks(&self.block_sizes);
        let mut u = FactorRows::for_blocks(&self.block_sizes);
        let mut start = 0usize;
        for (bi, &size) in self.block_sizes.iter().enumerate() {
            if dirty[bi] {
                factor_block(a_new, start, size, &mut l, &mut u)?;
            } else {
                for i in start..start + size {
                    l.copy_row(self.l_inv.row_iter(i));
                    u.copy_row(self.u_inv.row_iter(i));
                }
            }
            start += size;
        }
        Ok(BlockLu {
            l_inv: FactorRows::concat(n, vec![l])?,
            u_inv: FactorRows::concat(n, vec![u])?,
            block_sizes: self.block_sizes.clone(),
        })
    }
}

/// Minimum [`block_cost`] total per thread before
/// [`BlockLu::factor_parallel`] fans out: below it a spawned thread
/// costs more than the blocks it would take.
const PAR_BLOCK_LU_MIN_COST: usize = 8_192;

/// Load-balancing weight of one diagonal block: a 1×1 block is one unit;
/// a larger block pays about a dozen units of allocation before its
/// `O(size³)` factorisation and inversion (Theorems 1–3).
fn block_cost(size: usize) -> usize {
    if size == 1 {
        1
    } else {
        12usize.saturating_add(size.saturating_pow(3) / 8)
    }
}

/// Rows of an inverse factor for a run of consecutive diagonal blocks,
/// written in row order with global column ids. Exact zeros are never
/// stored.
struct FactorRows {
    /// Cumulative entry count at the end of each written row.
    row_ends: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl FactorRows {
    /// Room for the rows of `block_sizes`: a dense-path block's
    /// triangular inverse holds at most `s(s+1)/2` entries; a sparse-path
    /// block reserves only its diagonal and grows as needed.
    fn for_blocks(block_sizes: &[usize]) -> Self {
        let rows = block_sizes.iter().sum();
        let entries = block_sizes
            .iter()
            .map(|&s| {
                if s <= DENSE_BLOCK_THRESHOLD {
                    s * (s + 1) / 2
                } else {
                    s
                }
            })
            .sum();
        Self {
            row_ends: Vec::with_capacity(rows),
            indices: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries),
        }
    }

    fn push(&mut self, col: usize, v: f64) {
        if v != 0.0 {
            self.indices.push(col as u32);
            self.values.push(v);
        }
    }

    fn end_row(&mut self) {
        self.row_ends.push(self.indices.len());
    }

    /// Appends a row of an existing factor verbatim (its columns are
    /// sorted and it stores no zeros).
    fn copy_row(&mut self, row: impl Iterator<Item = (usize, f64)>) {
        for (c, v) in row {
            self.indices.push(c as u32);
            self.values.push(v);
        }
        self.end_row();
    }

    /// Concatenates parts that cover rows `0..n` in order.
    fn concat(n: usize, mut parts: Vec<FactorRows>) -> Result<Csr> {
        if parts.len() == 1 {
            let part = parts.pop().expect("one part");
            let mut indptr = Vec::with_capacity(n + 1);
            indptr.push(0usize);
            indptr.extend(part.row_ends);
            return Csr::from_parts(n, n, indptr, part.indices, part.values);
        }
        let total: usize = parts.iter().map(|p| p.indices.len()).sum();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        for part in parts {
            let base = indices.len();
            indptr.extend(part.row_ends.iter().map(|e| base + e));
            indices.extend_from_slice(&part.indices);
            values.extend_from_slice(&part.values);
        }
        Csr::from_parts(n, n, indptr, indices, values)
    }
}

/// Factors and inverts the diagonal block `a[start.., start..]` of
/// `size` rows, appending its rows of `L^{-1}` and `U^{-1}`.
fn factor_block(
    a: &Csr,
    start: usize,
    size: usize,
    l: &mut FactorRows,
    u: &mut FactorRows,
) -> Result<()> {
    let range = start..start + size;
    if size == 1 {
        // 1×1 block: L^{-1} = [1], U^{-1} = [1/a].
        let d = a.get(start, start);
        if d == 0.0 {
            return Err(SparseError::ZeroDiagonal { row: start });
        }
        l.push(start, 1.0);
        u.push(start, 1.0 / d);
        l.end_row();
        u.end_row();
    } else if size <= DENSE_BLOCK_THRESHOLD {
        let mut block = Dense::zeros(size, size);
        for i in 0..size {
            for (c, v) in a.row_iter(start + i) {
                if range.contains(&c) {
                    block[(i, c - start)] = v;
                }
            }
        }
        let (lf, uf) = lu_nopivot(&block)?;
        let li = invert_unit_lower(&lf);
        let ui = invert_upper(&uf)?;
        for i in 0..size {
            for j in 0..size {
                l.push(start + j, li[(i, j)]);
                u.push(start + j, ui[(i, j)]);
            }
            l.end_row();
            u.end_row();
        }
    } else {
        let block = a.slice_block(range.clone(), range)?;
        let lu = SparseLu::factor(&bepi_sparse::Csc::from_csr(&block))?;
        let (linv, uinv) = lu.invert_factors();
        for (factor, rows) in [(linv.to_csr(), &mut *l), (uinv.to_csr(), &mut *u)] {
            for i in 0..size {
                for (c, v) in factor.row_iter(i) {
                    rows.push(start + c, v);
                }
                rows.end_row();
            }
        }
    }
    Ok(())
}

fn bepi_reorder_check(a: &Csr, block_sizes: &[usize]) -> bool {
    let mut block_of = vec![0u32; a.nrows()];
    let mut start = 0usize;
    for (bi, &size) in block_sizes.iter().enumerate() {
        for i in start..start + size {
            block_of[i] = bi as u32;
        }
        start += size;
    }
    a.iter().all(|(r, c, _)| block_of[r] == block_of[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_sparse::Coo;

    /// Block-diagonal, diagonally dominant test matrix:
    /// blocks of sizes [2, 1, 3].
    fn sample() -> (Csr, Vec<usize>) {
        let mut coo = Coo::new(6, 6).unwrap();
        // Block 0 (rows 0-1)
        coo.push(0, 0, 3.0).unwrap();
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -0.5).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        // Block 1 (row 2)
        coo.push(2, 2, 4.0).unwrap();
        // Block 2 (rows 3-5)
        coo.push(3, 3, 5.0).unwrap();
        coo.push(3, 4, 1.0).unwrap();
        coo.push(4, 4, 3.0).unwrap();
        coo.push(4, 5, -1.0).unwrap();
        coo.push(5, 3, 0.5).unwrap();
        coo.push(5, 5, 6.0).unwrap();
        (coo.to_csr(), vec![2, 1, 3])
    }

    #[test]
    fn solve_vec_matches_dense_inverse() {
        let (a, blocks) = sample();
        let blu = BlockLu::factor(&a, &blocks).unwrap();
        let dense_inv = crate::dense_lu::DenseLu::factor(&a.to_dense())
            .unwrap()
            .inverse()
            .unwrap();
        let x = vec![1.0, 2.0, -1.0, 0.5, 3.0, -2.0];
        let got = blu.solve_vec(&x).unwrap();
        let want = dense_inv.mul_vec(&x).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn inverse_factors_are_triangular_and_block_confined() {
        let (a, blocks) = sample();
        let blu = BlockLu::factor(&a, &blocks).unwrap();
        for (r, c, _) in blu.l_inv.iter() {
            assert!(r >= c, "L^-1 must be lower triangular");
        }
        for (r, c, _) in blu.u_inv.iter() {
            assert!(r <= c, "U^-1 must be upper triangular");
        }
        assert!(bepi_reorder_check(&blu.l_inv, &blocks));
        assert!(bepi_reorder_check(&blu.u_inv, &blocks));
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let (a, blocks) = sample();
        let blu = BlockLu::factor(&a, &blocks).unwrap();
        // Sparse RHS with two columns.
        let mut bcoo = Coo::new(6, 2).unwrap();
        bcoo.push(0, 0, 1.0).unwrap();
        bcoo.push(4, 1, -2.0).unwrap();
        bcoo.push(5, 0, 3.0).unwrap();
        let b = bcoo.to_csr();
        let x = blu.solve_matrix(&b).unwrap();
        let bd = b.to_dense();
        for j in 0..2 {
            let col: Vec<f64> = (0..6).map(|i| bd[(i, j)]).collect();
            let want = blu.solve_vec(&col).unwrap();
            for i in 0..6 {
                assert!((x.get(i, j) - want[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn large_block_uses_sparse_path() {
        // One 200-node diagonally dominant tridiagonal block (> threshold).
        let n = 200;
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 3.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let blu = BlockLu::factor(&a, &[n]).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.05).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let got = blu.solve_vec(&b).unwrap();
        for (g, w) in got.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn all_singleton_blocks() {
        let mut coo = Coo::new(3, 3).unwrap();
        for i in 0..3 {
            coo.push(i, i, (i + 1) as f64).unwrap();
        }
        let a = coo.to_csr();
        let blu = BlockLu::factor(&a, &[1, 1, 1]).unwrap();
        let got = blu.solve_vec(&[2.0, 2.0, 3.0]).unwrap();
        assert_eq!(got, vec![2.0, 1.0, 1.0]);
    }

    /// The Coo-assembled serial factorisation the row-ordered writer
    /// replaced, kept as its oracle: each block factored on its own slice
    /// and every entry pushed through one `Coo` per factor.
    fn factor_reference(a: &Csr, block_sizes: &[usize]) -> (Csr, Csr) {
        let n = a.nrows();
        let mut l_coo = Coo::new(n, n).unwrap();
        let mut u_coo = Coo::new(n, n).unwrap();
        let mut start = 0usize;
        for &size in block_sizes {
            let range = start..start + size;
            let block = a.slice_block(range.clone(), range).unwrap();
            let (li, ui) = if size <= DENSE_BLOCK_THRESHOLD {
                let (l, u) = lu_nopivot(&block.to_dense()).unwrap();
                let (li, ui) = (invert_unit_lower(&l), invert_upper(&u).unwrap());
                let to_csr = |d: &Dense| {
                    let mut coo = Coo::new(size, size).unwrap();
                    for i in 0..size {
                        for j in 0..size {
                            coo.push(i, j, d[(i, j)]).unwrap();
                        }
                    }
                    coo.to_csr()
                };
                (to_csr(&li), to_csr(&ui))
            } else {
                let lu = SparseLu::factor(&bepi_sparse::Csc::from_csr(&block)).unwrap();
                let (li, ui) = lu.invert_factors();
                (li.to_csr(), ui.to_csr())
            };
            for (r, c, v) in li.iter() {
                l_coo.push(start + r, start + c, v).unwrap();
            }
            for (r, c, v) in ui.iter() {
                u_coo.push(start + r, start + c, v).unwrap();
            }
            start += size;
        }
        (l_coo.to_csr(), u_coo.to_csr())
    }

    fn assert_bits_eq(got: &Csr, want: &Csr, what: &str) {
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.indptr(), want.indptr(), "{what}: indptr");
        assert_eq!(got.indices(), want.indices(), "{what}: indices");
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    /// Appends a diagonally dominant block of `size` rows at `at`: dense
    /// below 8 rows, otherwise banded with a few long-range couplings.
    fn push_block(coo: &mut Coo, at: usize, size: usize, salt: usize) {
        for r in 0..size {
            let cols: Vec<usize> = if size < 8 {
                (0..size).filter(|&c| c != r).collect()
            } else {
                [r.wrapping_sub(1), r + 1, (r * 7 + salt) % size]
                    .into_iter()
                    .filter(|&c| c < size && c != r)
                    .collect()
            };
            let mut off = 0.0;
            for c in cols {
                let v = 0.1 + ((salt + r + c) % 4) as f64 * 0.05;
                coo.push(at + r, at + c, -v).unwrap();
                off += v;
            }
            coo.push(at + r, at + r, off + 1.0 + (r % 3) as f64)
                .unwrap();
        }
    }

    #[test]
    fn parallel_factor_is_bit_identical_to_serial() {
        // Mixed dense blocks, a 200-row block on the sparse-LU path and
        // 1 200 singletons.
        let mut sizes: Vec<usize> = vec![1, 3, 2, 5, 1, 4, 6, 2, 3, 5, 7, 1, 4, 6, 10];
        sizes.push(200);
        sizes.extend([1; 700]);
        sizes.extend([2, 9, 128, 3]);
        sizes.extend([1; 500]);
        let n: usize = sizes.iter().sum();
        let mut coo = Coo::new(n, n).unwrap();
        let mut at = 0usize;
        for (i, &size) in sizes.iter().enumerate() {
            push_block(&mut coo, at, size, i);
            at += size;
        }
        let a = coo.to_csr();
        let (l_ref, u_ref) = factor_reference(&a, &sizes);
        let serial = BlockLu::factor(&a, &sizes).unwrap();
        assert_bits_eq(&serial.l_inv, &l_ref, "serial L^-1");
        assert_bits_eq(&serial.u_inv, &u_ref, "serial U^-1");
        for threads in [1usize, 2, 3, 8, 64] {
            let par = BlockLu::factor_parallel(&a, &sizes, threads).unwrap();
            assert_bits_eq(&par.l_inv, &l_ref, &format!("L^-1 at {threads} threads"));
            assert_bits_eq(&par.u_inv, &u_ref, &format!("U^-1 at {threads} threads"));
        }
    }

    /// `lu`'s factors frozen as an index stores them.
    fn frozen(lu: &BlockLu) -> FrozenBlockLu {
        let [l_inv, u_inv]: [CodedCsr; 2] = CodedCsr::encode_all(&[&lu.l_inv, &lu.u_inv])
            .try_into()
            .unwrap();
        FrozenBlockLu::from_inverse_factors_trusted(l_inv, u_inv, lu.block_sizes.clone()).unwrap()
    }

    #[test]
    fn refactor_blocks_is_bit_identical_to_full_factor() {
        let (a, blocks) = sample();
        let lu = frozen(&BlockLu::factor(&a, &blocks).unwrap());
        // Rescale block 2 (rows 3-5) only; blocks 0 and 1 stay untouched.
        let mut coo = Coo::new(6, 6).unwrap();
        for (r, c, v) in a.iter() {
            let v = if r >= 3 { v * 1.5 } else { v };
            coo.push(r, c, v).unwrap();
        }
        let a_new = coo.to_csr();
        let got = lu.refactor_blocks(&a_new, &[2]).unwrap();
        let want = BlockLu::factor(&a_new, &blocks).unwrap();
        assert_bits_eq(&got.l_inv, &want.l_inv, "L^-1");
        assert_bits_eq(&got.u_inv, &want.u_inv, "U^-1");
        assert_eq!(got.block_sizes, blocks);
    }

    #[test]
    fn refactor_blocks_with_no_dirty_blocks_copies_factors() {
        let (a, blocks) = sample();
        let lu = BlockLu::factor(&a, &blocks).unwrap();
        let got = frozen(&lu).refactor_blocks(&a, &[]).unwrap();
        assert_bits_eq(&got.l_inv, &lu.l_inv, "L^-1");
        assert_bits_eq(&got.u_inv, &lu.u_inv, "U^-1");
    }

    /// The frozen factors solve bit for bit like the builder's, and sit
    /// on a narrow, value-coded pattern sharing one table.
    #[test]
    fn compact_frozen_factors_solve_bit_identically() {
        let (a, blocks) = sample();
        let lu = BlockLu::factor(&a, &blocks).unwrap();
        let f = frozen(&lu);
        assert!(f.l_inv.pattern().is_narrow() && f.l_inv.is_coded());
        assert!(std::ptr::eq(
            f.l_inv.table().unwrap().as_slice(),
            f.u_inv.table().unwrap().as_slice()
        ));
        assert_eq!(f.n(), 6);
        assert_eq!(f.l_inv.to_csr(), lu.l_inv);
        let x = [1.0, -0.0, 5e-324, 1e300, -2.5, 0.125];
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(f.solve_vec(&x).unwrap()),
            bits(lu.solve_vec(&x).unwrap())
        );
        assert!(FrozenBlockLu::from_inverse_factors_trusted(
            f.l_inv.clone(),
            f.u_inv.clone(),
            vec![2, 2]
        )
        .is_err());
    }

    #[test]
    fn refactor_blocks_rejects_bad_inputs() {
        let (a, blocks) = sample();
        let lu = frozen(&BlockLu::factor(&a, &blocks).unwrap());
        assert!(lu.refactor_blocks(&Csr::zeros(4, 4), &[0]).is_err());
        assert!(
            lu.refactor_blocks(&a, &[7]).is_err(),
            "block id out of range"
        );
    }

    #[test]
    fn parallel_factor_single_thread_degenerates() {
        let (a, blocks) = sample();
        let p = BlockLu::factor_parallel(&a, &blocks, 1).unwrap();
        let s = BlockLu::factor(&a, &blocks).unwrap();
        assert_eq!(p.l_inv, s.l_inv);
    }

    #[test]
    fn parallel_factor_rejects_bad_blocks() {
        let (a, _) = sample();
        assert!(BlockLu::factor_parallel(&a, &[2, 2], 4).is_err());
    }

    #[test]
    fn zero_diagonal_singleton_rejected() {
        let a = Csr::zeros(2, 2);
        assert!(BlockLu::factor(&a, &[1, 1]).is_err());
    }

    #[test]
    fn bad_block_sizes_rejected() {
        let (a, _) = sample();
        assert!(BlockLu::factor(&a, &[2, 2]).is_err()); // sums to 4 ≠ 6
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::zeros(0, 0);
        let blu = BlockLu::factor(&a, &[]).unwrap();
        assert_eq!(blu.solve_vec(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn identity_inverse_is_identity() {
        let a = Csr::identity(5);
        let blu = BlockLu::factor(&a, &[1; 5]).unwrap();
        let i = Dense::identity(5);
        let li = blu.l_inv.to_dense();
        let ui = blu.u_inv.to_dense();
        assert!(li.max_abs_diff(&i).unwrap() < 1e-15);
        assert!(ui.max_abs_diff(&i).unwrap() < 1e-15);
    }
}
