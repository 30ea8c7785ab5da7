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
//! ([`FrozenBlockLu`]): only the rows of blocks larger than 1 × 1, as
//! value-coded [`CodedCsr`]s on a narrow pattern when they fit one, plus
//! one `U1⁻¹` value per 1 × 1 block, answering the same solves bit for
//! bit.

use crate::dense_lu::{invert_unit_lower, invert_upper, lu_nopivot};
use crate::sparse_lu::SparseLu;
use bepi_sparse::{
    Bytes, CodedCsr, CodedValues, Csr, Dense, MemBytes, Result, SparseError, Storage,
};

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

    /// The factors split the way [`FrozenBlockLu`] stores them: the rows
    /// of `L^{-1}` and `U^{-1}` that belong to blocks of more than one
    /// node, in block order with global columns, and the one `U^{-1}`
    /// value of each 1 × 1 block, in block order. A 1 × 1 block's
    /// `L^{-1}` entry is the unit diagonal, so it is dropped.
    ///
    /// # Errors
    /// [`SparseError::Numerical`] if a 1 × 1 block's rows are not the
    /// unit diagonal of `L^{-1}` and one diagonal entry of `U^{-1}` (its
    /// inverse diagonal underflowed to zero and was not stored).
    pub fn split_singletons(&self) -> Result<(Csr, Csr, Vec<f64>)> {
        let mut rows = Vec::new();
        let mut singletons = Vec::new();
        for (start, size) in blocks(&self.block_sizes) {
            if size > 1 {
                rows.extend(start..start + size);
                continue;
            }
            match (self.l_inv.row(start), self.u_inv.row(start)) {
                ((&[lc], &[lv]), (&[uc], &[uv]))
                    if lc as usize == start && uc as usize == start && lv == 1.0 =>
                {
                    singletons.push(uv);
                }
                _ => {
                    return Err(SparseError::Numerical(format!(
                        "1x1 block at row {start} has no single U^-1 diagonal value"
                    )))
                }
            }
        }
        Ok((
            select_rows(&self.l_inv, &rows)?,
            select_rows(&self.u_inv, &rows)?,
            singletons,
        ))
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
    fn bytes(&self) -> Bytes {
        self.l_inv.bytes() + self.u_inv.bytes()
    }
}

/// The inverted block factors as an index stores them, holding only what
/// a solve reads. [`FrozenBlockLu::l_inv`] and [`FrozenBlockLu::u_inv`]
/// keep one row per row of a block of more than one node — in block
/// order, with global columns — frozen into [`CodedCsr`]s, value-coded
/// over the index's shared value table and on a narrow pattern when they
/// fit one. A 1 × 1 block's `L^{-1}` entry is exactly 1.0 and is not
/// stored; its `U^{-1}` entry is one value of
/// [`FrozenBlockLu::singletons`]. The block structure is the `(start,
/// size)` of each block larger than 1 × 1
/// ([`FrozenBlockLu::larger_blocks`], 8 bytes per such block); every other
/// row is a 1 × 1 block. SlashBurn leaves most spoke blocks 1 × 1, so
/// this stores about 2 bytes per such node where full rows cost 16
/// (narrow and coded) or 40 (wide and plain), and a size per block would
/// cost 8 more. Solves are bit-identical to the [`BlockLu`] the factors
/// were frozen from.
#[derive(Debug, Clone)]
pub struct FrozenBlockLu {
    l_inv: CodedCsr,
    u_inv: CodedCsr,
    singletons: CodedValues,
    /// `start, size` of each block larger than 1 × 1, in block order: a
    /// solve visits these instead of every block.
    larger: Storage<u32>,
}

impl FrozenBlockLu {
    /// Assembles frozen factors — from a [`BlockLu`] split by
    /// [`BlockLu::split_singletons`] and coded, or from an index file —
    /// with `O(1)` shape checks only: the larger blocks are trusted to be
    /// ascending, disjoint, at least 2 × 2 and to cover the stored rows
    /// exactly (an index loader that reads every byte runs
    /// [`FrozenBlockLu::check_larger_blocks`] first), and the rows to stay
    /// inside their own block and triangle ([`check_factor_rows`]).
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] unless both factors have the same
    /// shape, `n` columns and one row per row of a block of more than one
    /// node, `n` being the stored rows plus one per singleton value;
    /// [`SparseError::VectorLength`] unless `larger` holds whole pairs.
    pub fn from_parts_trusted(
        l_inv: CodedCsr,
        u_inv: CodedCsr,
        singletons: CodedValues,
        larger: Storage<u32>,
    ) -> Result<Self> {
        let n = l_inv.ncols();
        if l_inv.shape() != u_inv.shape() || l_inv.nrows() + singletons.len() != n {
            return Err(SparseError::ShapeMismatch {
                left: l_inv.shape(),
                right: u_inv.shape(),
                op: "FrozenBlockLu::from_parts_trusted (factor rows of blocks larger than 1x1, \
                     and one value per 1x1 block)",
            });
        }
        if larger.len() % 2 != 0 {
            return Err(SparseError::VectorLength {
                expected: larger.len() + 1,
                actual: larger.len(),
            });
        }
        if u32::try_from(n).is_err() {
            return Err(SparseError::DimensionTooLarge { dim: n });
        }
        Ok(Self {
            l_inv,
            u_inv,
            singletons,
            larger,
        })
    }

    /// Checks the larger blocks against the factors (`O(#blocks)`): each
    /// at least 2 × 2, each starting past the end of the one before,
    /// none past `n`, and their sizes adding up to the stored rows.
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first bad block.
    pub fn check_larger_blocks(&self) -> Result<()> {
        let (n, mut end, mut rows) = (self.n(), 0usize, 0usize);
        for (i, (start, size)) in self.larger_blocks_iter().enumerate() {
            let bad = |what: String| {
                Err(SparseError::Parse(format!(
                    "block {i} (start {start}, size {size}) {what}"
                )))
            };
            if size < 2 {
                return bad("is below 2 x 2".into());
            }
            if start < end {
                return bad(format!("overlaps the block before it, which ends at {end}"));
            }
            if start + size > n {
                return bad(format!("overruns the {n} rows of H11"));
            }
            (end, rows) = (start + size, rows + size);
        }
        if rows != self.l_inv.nrows() {
            return Err(SparseError::Parse(format!(
                "the blocks larger than 1x1 cover {rows} rows, but the factors store {}",
                self.l_inv.nrows()
            )));
        }
        Ok(())
    }

    /// `L^{-1}`'s rows of the blocks of more than one node (unit lower
    /// triangular within each block), in block order.
    pub fn l_inv(&self) -> &CodedCsr {
        &self.l_inv
    }

    /// `U^{-1}`'s rows of the blocks of more than one node (upper
    /// triangular within each block), in block order.
    pub fn u_inv(&self) -> &CodedCsr {
        &self.u_inv
    }

    /// `U^{-1}`'s value of each 1 × 1 block, in block order.
    pub fn singletons(&self) -> &CodedValues {
        &self.singletons
    }

    /// `start, size` of each block larger than 1 × 1, in block order, as
    /// stored.
    pub fn larger_blocks(&self) -> &Storage<u32> {
        &self.larger
    }

    /// [`FrozenBlockLu::larger_blocks`] as `(start, size)` pairs.
    fn larger_blocks_iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.larger
            .chunks_exact(2)
            .map(|p| (p[0] as usize, p[1] as usize))
    }

    /// The size of every diagonal block, in order: the larger blocks and a
    /// 1 for every row between them.
    pub fn block_sizes(&self) -> Vec<usize> {
        block_sizes(&self.larger, self.n())
    }

    /// Number of diagonal blocks: one per 1 × 1 block and per larger one.
    pub fn num_blocks(&self) -> usize {
        self.singletons.len() + self.larger.len() / 2
    }

    /// `lu`'s factors frozen on a value table of their own. An index
    /// codes them beside its other matrices, over the index's one table,
    /// instead.
    ///
    /// # Errors
    /// As [`BlockLu::split_singletons`].
    pub fn freeze(lu: &BlockLu) -> Result<Self> {
        let (l, u, singletons) = lu.split_singletons()?;
        let parts = [l.value_storage(), u.value_storage(), singletons.into()];
        let [lv, uv, sv]: [CodedValues; 3] = CodedValues::encode_all(&parts)
            .try_into()
            .expect("three value arrays in, three out");
        Self::from_parts_trusted(
            CodedCsr::with_values(&l, lv),
            CodedCsr::with_values(&u, uv),
            sv,
            larger_blocks(&lu.block_sizes)?,
        )
    }

    /// The full factors as a builder, every row decoded: a stored row as
    /// it is, a 1 × 1 block's as the unit diagonal and its stored `U^{-1}`
    /// value.
    ///
    /// # Errors
    /// [`SparseError::Parse`] if a stored row's columns do not strictly
    /// increase (a crafted mapped index; a heap load rejects those).
    pub fn to_builder(&self) -> Result<BlockLu> {
        let block_sizes = self.block_sizes();
        let mut l = FactorRows::for_blocks(&block_sizes);
        let mut u = FactorRows::for_blocks(&block_sizes);
        self.singletons.with_reader(|values| {
            // The next stored row and the next 1 × 1 block's value.
            let (mut r, mut k) = (0usize, 0usize);
            for (start, size) in blocks(&block_sizes) {
                if size == 1 {
                    l.push(start, 1.0);
                    u.push(start, values.get(k));
                    l.end_row();
                    u.end_row();
                    k += 1;
                } else {
                    for i in r..r + size {
                        l.copy_row(self.l_inv.row_iter(i));
                        u.copy_row(self.u_inv.row_iter(i));
                    }
                    r += size;
                }
            }
        });
        let n = self.n();
        Ok(BlockLu {
            l_inv: FactorRows::concat(n, vec![l])?,
            u_inv: FactorRows::concat(n, vec![u])?,
            block_sizes,
        })
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.l_inv.ncols()
    }

    /// Non-zeros of the full factors `|L^{-1}| + |U^{-1}|` (Theorem 1's
    /// count): the stored rows plus two entries per 1 × 1 block.
    pub fn inverse_nnz(&self) -> usize {
        self.l_inv.nnz() + self.u_inv.nnz() + 2 * self.singletons.len()
    }

    /// Applies `A^{-1} x = U^{-1}(L^{-1} x)`, bit-identical to
    /// [`BlockLu::solve_vec`]: the stored rows by one SpMV per factor,
    /// and each 1 × 1 block as the additions and multiplications its full
    /// rows would cost, `0.0 + u·(0.0 + x_i)`.
    pub fn solve_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let n = self.n();
        if x.len() != n {
            return Err(SparseError::VectorLength {
                expected: n,
                actual: x.len(),
            });
        }
        // Each factor's stored rows land in the tail of its output, past
        // one slot per 1 × 1 block, and move to their own rows in a
        // forward pass that also writes the 1 × 1 blocks' rows.
        // `y` is allocated after `L^{-1}`'s product, as with full rows:
        // allocating it first shifted the serving daemon's heap layout
        // enough for glibc to trim and re-fault about 1 MB per query.
        let tail = n - self.l_inv.nrows();
        let mut t = vec![0.0; n];
        // A 1 × 1 block's `L^{-1}` row is the unit diagonal: `0.0 + 1.0·x_i`.
        self.l_inv.mul_vec_into(x, &mut t[tail..])?;
        self.spread(&mut t, |i, _| 0.0 + x[i]);
        let mut y = vec![0.0; n];
        self.u_inv.mul_vec_into(&t, &mut y[tail..])?;
        self.singletons
            .with_reader(|u| self.spread(&mut y, |i, k| 0.0 + u.get(k) * t[i]));
        Ok(y)
    }

    /// Writes every row of `out` in order: each stored row from its slot
    /// in `out`'s tail, and the row `i` of the `k`-th 1 × 1 block as
    /// `one(i, k)`. A tail slot is never before its own row, and a 1 × 1
    /// block's row is before the next unread slot, so every slot is read
    /// before it is written over.
    fn spread(&self, out: &mut [f64], one: impl Fn(usize, usize) -> f64) {
        let n = out.len();
        let tail = n - self.l_inv.nrows();
        // Rows written so far, and the stored rows among them.
        let (mut done, mut r) = (0, 0);
        for (start, size) in self.larger_blocks_iter().chain([(n, 0)]) {
            for i in done..start {
                out[i] = one(i, i - r);
            }
            for i in start..start + size {
                out[i] = out[i - start + tail + r];
            }
            r += size;
            done = start + size;
        }
    }
}

/// `(start, size)` of each diagonal block, in order.
fn blocks(block_sizes: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    block_sizes.iter().scan(0, |start, &size| {
        *start += size;
        Some((*start - size, size))
    })
}

/// The size of every diagonal block of an `n`-row block-diagonal matrix
/// whose blocks larger than 1 × 1 are `larger` (`start, size` pairs, as
/// [`FrozenBlockLu::larger_blocks`] stores them): those blocks, and a 1
/// for every row between them.
pub fn block_sizes(larger: &[u32], n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut done = 0;
    let pairs = larger
        .chunks_exact(2)
        .map(|p| (p[0] as usize, p[1] as usize));
    for (start, size) in pairs.chain([(n, 0)]) {
        sizes.extend(std::iter::repeat(1).take(start.saturating_sub(done)));
        if size > 0 {
            sizes.push(size);
        }
        done = start + size;
    }
    sizes
}

/// `start, size` of each block of `block_sizes` larger than 1 × 1, as
/// [`FrozenBlockLu::larger_blocks`] stores them.
///
/// # Errors
/// [`SparseError::DimensionTooLarge`] when the blocks span more rows than
/// a `u32` counts.
pub fn larger_blocks(block_sizes: &[usize]) -> Result<Storage<u32>> {
    let n: usize = block_sizes.iter().sum();
    if u32::try_from(n).is_err() {
        return Err(SparseError::DimensionTooLarge { dim: n });
    }
    Ok(blocks(block_sizes)
        .filter(|&(_, size)| size > 1)
        .flat_map(|(start, size)| [start as u32, size as u32])
        .collect::<Vec<_>>()
        .into())
}

/// Rows `rows` of `a`, in that order, with every column.
fn select_rows(a: &Csr, rows: &[usize]) -> Result<Csr> {
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0);
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for &r in rows {
        let (cols, vals) = a.row(r);
        indices.extend_from_slice(cols);
        values.extend_from_slice(vals);
        indptr.push(indices.len());
    }
    Csr::from_parts(rows.len(), a.ncols(), indptr, indices, values)
}

/// Checks that every row of `factor` — one per row of a block of more
/// than one node, as [`FrozenBlockLu`] stores them — holds only entries
/// of its own diagonal block, on or below the diagonal (`lower`, for
/// `L^{-1}`) or on or above it (`U^{-1}`). The blocks are
/// [`FrozenBlockLu::larger_blocks`]' `start, size` pairs. `O(nnz)`; a
/// loader that reads every byte runs it, where
/// [`FrozenBlockLu::from_parts_trusted`] checks shapes only.
///
/// # Errors
/// [`SparseError::Parse`] naming the first entry out of place.
pub fn check_factor_rows(factor: &CodedCsr, larger: &[u32], lower: bool) -> Result<()> {
    let mut r = 0;
    for pair in larger.chunks_exact(2) {
        let (start, size) = (pair[0] as usize, pair[1] as usize);
        for row in start..start + size {
            if r >= factor.nrows() {
                return Err(SparseError::Parse(format!(
                    "{} stored rows, fewer than the blocks larger than 1x1 have",
                    factor.nrows()
                )));
            }
            let mut cols = factor.entries(r).map(|k| factor.pattern().col(k));
            let (lo, hi) = if lower {
                (start, row)
            } else {
                (row, start + size - 1)
            };
            if let Some(c) = cols.find(|c| !(lo..=hi).contains(c)) {
                return Err(SparseError::Parse(format!(
                    "stored row {r} (row {row} of the {size}-node block at {start}) has column \
                     {c}, outside the block's {} triangle {lo}..={hi}",
                    if lower { "lower" } else { "upper" }
                )));
            }
            r += 1;
        }
    }
    Ok(())
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

    /// `lu`'s factors frozen as an index stores them, over one table.
    fn frozen(lu: &BlockLu) -> FrozenBlockLu {
        FrozenBlockLu::freeze(lu).unwrap()
    }

    /// A frozen index's factors decode back to the builder's rows bit for
    /// bit: stored rows as they are, 1 × 1 blocks from their values.
    #[test]
    fn frozen_factors_decode_to_the_builder_bit_identically() {
        let (a, blocks) = sample();
        let lu = BlockLu::factor(&a, &blocks).unwrap();
        let decoded = frozen(&lu).to_builder().unwrap();
        assert_bits_eq(&decoded.l_inv, &lu.l_inv, "decoded L^-1");
        assert_bits_eq(&decoded.u_inv, &lu.u_inv, "decoded U^-1");
        assert_eq!(decoded.block_sizes, blocks);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The frozen factors keep rows only for blocks of more than one node,
    /// narrow and value-coded over one table with the 1 × 1 blocks'
    /// values, and solve bit for bit like the builder's — `-0.0`, a
    /// subnormal and NaN inputs included.
    #[test]
    fn compact_frozen_factors_solve_bit_identically() {
        let (a, blocks) = sample();
        let lu = BlockLu::factor(&a, &blocks).unwrap();
        let f = frozen(&lu);
        assert!(f.l_inv().pattern().is_narrow() && f.l_inv().is_coded());
        let table = f.l_inv().table().unwrap().as_slice();
        assert!(std::ptr::eq(f.u_inv().table().unwrap().as_slice(), table));
        assert!(matches!(f.singletons(), CodedValues::Coded { table: t, .. }
            if std::ptr::eq(t.as_slice(), table)));
        assert_eq!(
            (f.n(), f.l_inv().shape(), f.singletons().len()),
            (6, (5, 6), 1)
        );
        assert_eq!(f.singletons().get(0), 0.25);
        assert_eq!(f.inverse_nnz(), lu.l_inv.nnz() + lu.u_inv.nnz());
        let nan = f64::from_bits(0x7ff8_0000_0000_0042);
        for x in [
            [1.0, -0.0, 5e-324, 1e300, -2.5, 0.125],
            [-0.0, 3.0, -0.0, nan, 0.0, -0.0],
        ] {
            assert_eq!(
                bits(&f.solve_vec(&x).unwrap()),
                bits(&lu.solve_vec(&x).unwrap())
            );
        }
        assert!(f.solve_vec(&[1.0; 5]).is_err());
        assert_eq!(&f.larger_blocks()[..], &[0, 2, 3, 3]);
        assert_eq!((f.block_sizes(), f.num_blocks()), (vec![2, 1, 3], 3));
        let rebuilt = |larger: Vec<u32>| {
            FrozenBlockLu::from_parts_trusted(
                f.l_inv().clone(),
                f.u_inv().clone(),
                f.singletons().clone(),
                larger.into(),
            )
            .and_then(|f| f.check_larger_blocks())
            .map_err(|e| e.to_string())
        };
        assert_eq!(rebuilt(vec![0, 2, 3, 3]), Ok(()));
        for (larger, want) in [
            (vec![0, 2, 3], "vector length 3"),
            (vec![0, 2, 2, 2], "cover 4 rows, but the factors store 5"),
            (
                vec![0, 3, 2, 2],
                "block 1 (start 2, size 2) overlaps the block before it",
            ),
            (
                vec![0, 2, 4, 3],
                "block 1 (start 4, size 3) overruns the 6 rows",
            ),
            (
                vec![0, 1, 1, 1, 3, 3],
                "block 0 (start 0, size 1) is below 2 x 2",
            ),
        ] {
            let err = rebuilt(larger.clone()).unwrap_err();
            assert!(err.contains(want), "{larger:?}: {err}");
        }
    }

    /// A block-diagonal matrix with blocks `sizes`, self-loop-like
    /// diagonals ≠ 1 and dense couplings inside each block.
    fn blocks_of(sizes: &[usize]) -> Csr {
        let n: usize = sizes.iter().sum();
        let mut coo = Coo::new(n, n).unwrap();
        let mut at = 0;
        for (i, &size) in sizes.iter().enumerate() {
            if size == 1 {
                coo.push(at, at, 1.25 + 0.1 * i as f64).unwrap();
            } else {
                push_block(&mut coo, at, size, i);
            }
            at += size;
        }
        coo.to_csr()
    }

    /// Independent oracle: on an all-1 × 1, a no-1 × 1 and a mixed `H11`
    /// the frozen solve agrees with a dense inverse to 1e-12 and with the
    /// builder's solve bit for bit, on inputs holding `-0.0`.
    #[test]
    fn compact_singleton_solve_matches_dense_inverse() {
        for sizes in [vec![1; 9], vec![2, 3, 4], vec![1, 3, 1, 1, 2, 1]] {
            let a = blocks_of(&sizes);
            let lu = BlockLu::factor(&a, &sizes).unwrap();
            let f = frozen(&lu);
            let ones = sizes.iter().filter(|&&s| s == 1).count();
            assert_eq!(f.singletons().len(), ones);
            assert!((0..ones).all(|k| f.singletons().get(k) != 1.0));
            let inv = crate::dense_lu::DenseLu::factor(&a.to_dense())
                .unwrap()
                .inverse()
                .unwrap();
            let n = a.nrows();
            let x: Vec<f64> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        -0.0
                    } else {
                        (i as f64) * 0.7 - 2.0
                    }
                })
                .collect();
            let got = f.solve_vec(&x).unwrap();
            assert_eq!(bits(&got), bits(&lu.solve_vec(&x).unwrap()), "{sizes:?}");
            for (g, w) in got.iter().zip(inv.mul_vec(&x).unwrap()) {
                assert!((g - w).abs() < 1e-12, "{sizes:?}: {g} vs {w}");
            }
        }
    }

    /// Stored rows must keep inside their own block and triangle.
    #[test]
    fn compact_factor_rows_out_of_block_are_rejected() {
        let (a, blocks) = sample();
        let f = frozen(&BlockLu::factor(&a, &blocks).unwrap());
        let larger = f.larger_blocks();
        assert!(check_factor_rows(f.l_inv(), larger, true).is_ok());
        assert!(check_factor_rows(f.u_inv(), larger, false).is_ok());
        assert!(
            check_factor_rows(f.u_inv(), larger, true).is_err(),
            "U is not lower"
        );
        // Row 3 of the 3-node block at 3 reaching into the 2-node block.
        let mut coo = Coo::new(5, 6).unwrap();
        for (r, c) in [(0, 0), (1, 0), (1, 1), (2, 3), (3, 1), (3, 4), (4, 5)] {
            coo.push(r, c, 1.0).unwrap();
        }
        let err = check_factor_rows(&CodedCsr::encode(&coo.to_csr()), larger, true)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("stored row 3 (row 4 of the 3-node block at 3) has column 1"),
            "{err}"
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
