//! Incomplete LU factorization with zero fill — ILU(0).
//!
//! BePI's preconditioner (Section 3.5): `S ≈ L̂2 Û2` where the factors
//! keep exactly the sparsity pattern of `S`'s lower/upper parts, so "the
//! storage cost of L̂2 and Û2 is the same as that of S". Here it costs
//! less: the factors hold no pattern of their own — they share `S`'s
//! row pointers and column indices, wide or narrow ([`Pattern`]) — and
//! store one f32 per non-zero, plus one diagonal position per row. The
//! elimination runs in f64 and rounds once; the solves accumulate in
//! f64. A preconditioner need not be exact: GMRES still converges on the
//! f64 `S`. Applying the preconditioner is one forward and one backward
//! substitution (Appendix B), with the same complexity as an SpMV.

use crate::linop::Preconditioner;
use bepi_sparse::pattern::Idx;
use bepi_sparse::{Bytes, CodedCsr, Csr, MemBytes, Pattern, Result, SparseError, Storage};

/// An ILU(0) factorization stored in the pattern of the input matrix.
///
/// ```
/// use bepi_solver::{Ilu0, Preconditioner};
/// use bepi_sparse::Coo;
///
/// // A triangular matrix has an *exact* ILU(0) factorization, so
/// // applying the preconditioner solves the system outright.
/// let mut coo = Coo::new(2, 2).unwrap();
/// coo.push(0, 0, 2.0).unwrap();
/// coo.push(1, 0, 1.0).unwrap();
/// coo.push(1, 1, 4.0).unwrap();
/// let a = coo.to_csr();
///
/// let ilu = Ilu0::factor(&a).unwrap();
/// let mut x = vec![0.0; 2];
/// ilu.apply(&[2.0, 5.0], &mut x); // solves L U x = b = A x
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Ilu0 {
    /// The factored matrix's row pointers and column indices, shared
    /// with it (owned or mapped, wide or narrow), never copied: the
    /// pattern belongs to `S`, and no byte count here includes it.
    pattern: Pattern,
    /// Combined factors, one per pattern entry: left of the diagonal the
    /// strictly-lower part of `L̂` (unit diagonal implicit), right of it
    /// the strictly-upper part of `Û`, and on the diagonal `1 / u_ii`, so
    /// the backward sweep multiplies instead of dividing.
    lu: Storage<f32>,
    /// Position of the diagonal entry within each row.
    diag_pos: Storage<usize>,
}

impl Ilu0 {
    /// Computes the ILU(0) factorization of `a`, sharing `a`'s pattern.
    ///
    /// # Errors
    /// [`SparseError::ZeroDiagonal`] if some diagonal entry is absent from
    /// the pattern or becomes zero during elimination, or its reciprocal
    /// overflows f32. (Never happens for the diagonally dominant systems
    /// BePI produces.)
    pub fn factor(a: &Csr) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SparseError::ShapeMismatch {
                left: a.shape(),
                right: a.shape(),
                op: "Ilu0::factor (matrix must be square)",
            });
        }
        // Locate diagonals first: a missing one is rejected before any
        // arithmetic (and before the values are copied).
        let diag_pos = (0..n)
            .map(|i| {
                let (cols, _) = a.row(i);
                cols.binary_search(&(i as u32))
                    .map_err(|_| SparseError::ZeroDiagonal { row: i })
            })
            .collect::<Result<Vec<usize>>>()?;
        let values = eliminate(a, &diag_pos)?;
        let lu = round_factors(&values, a.indptr(), &diag_pos)?;
        Self::from_pattern(a.shape(), a.pattern(), lu.into(), diag_pos.into())
    }

    /// Reassembles a factorization from previously computed parts — the
    /// load path for persisted indexes, which store the factor values so
    /// the `O(nnz)` elimination of [`Ilu0::factor`] is never re-run at
    /// open time. The pattern is `pattern`'s (the loaded `S`), shared, in
    /// whichever form it has. Only `O(1)` length checks are performed;
    /// the entries are trusted because persisted sections are covered by
    /// CRCs. A loader that reads every byte anyway follows up with
    /// [`Ilu0::check_diag_pos`].
    ///
    /// # Errors
    /// [`SparseError::ShapeMismatch`] if `pattern` is not square;
    /// [`SparseError::VectorLength`] unless `lu` has one entry per
    /// non-zero of `pattern` and `diag_pos` one per row;
    /// [`SparseError::Parse`] if `pattern` stores only its non-empty rows
    /// (every row of a matrix with an ILU(0) factorization holds its
    /// diagonal).
    pub fn from_parts(
        pattern: &CodedCsr,
        lu: Storage<f32>,
        diag_pos: Storage<usize>,
    ) -> Result<Self> {
        if pattern.stored_rows().is_some() {
            return Err(SparseError::Parse(
                "ILU(0) factors need a matrix that stores every row".into(),
            ));
        }
        Self::from_pattern(pattern.shape(), pattern.pattern().clone(), lu, diag_pos)
    }

    /// These factors on `s`'s pattern instead of their own: `s` must have
    /// the pattern they were computed on, at either width (checked in
    /// debug builds only). How preprocessing hands factors computed from
    /// `S` as a [`Csr`] to the stored [`CodedCsr`], whose pattern may be
    /// narrow, so that one copy of the pattern serves both.
    ///
    /// # Errors
    /// As [`Ilu0::from_parts`].
    pub fn rebind(self, s: &CodedCsr) -> Result<Self> {
        debug_assert!(self.pattern == *s.pattern(), "rebind onto another pattern");
        Self::from_parts(s, self.lu, self.diag_pos)
    }

    /// [`Ilu0::from_parts`] over the pattern of a `shape` matrix.
    fn from_pattern(
        shape: (usize, usize),
        pattern: Pattern,
        lu: Storage<f32>,
        diag_pos: Storage<usize>,
    ) -> Result<Self> {
        if shape.0 != shape.1 {
            return Err(SparseError::ShapeMismatch {
                left: shape,
                right: shape,
                op: "Ilu0::from_parts (matrix must be square)",
            });
        }
        for (expected, actual) in [(pattern.nnz(), lu.len()), (shape.0, diag_pos.len())] {
            if expected != actual {
                return Err(SparseError::VectorLength { expected, actual });
            }
        }
        Ok(Self {
            pattern,
            lu,
            diag_pos,
        })
    }

    /// Checks that each row's diagonal position lies inside the row and
    /// points at its diagonal entry (`O(n)`; the pattern's row pointers
    /// must be in bounds). A loader that reads every byte anyway runs it,
    /// so a crafted position fails the load instead of panicking the first
    /// sweep.
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first bad row.
    pub fn check_diag_pos(&self) -> Result<()> {
        for (i, &d) in self.diag_pos.iter().enumerate() {
            let row = self.pattern.row_range(i);
            if d >= row.len() {
                return Err(SparseError::Parse(format!(
                    "diagonal position {d} of row {i} is past the row's {} entries",
                    row.len()
                )));
            }
            let col = self.pattern.col(row.start + d);
            if col != i {
                return Err(SparseError::Parse(format!(
                    "diagonal position {d} of row {i} points at column {col}"
                )));
            }
        }
        Ok(())
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.diag_pos.len()
    }

    /// The combined factor values in the pattern of the factored matrix
    /// (the diagonal slots hold `1 / u_ii`).
    pub fn values(&self) -> &[f32] {
        &self.lu
    }

    /// Diagonal offsets within each row of the pattern.
    pub fn diag_pos(&self) -> &[usize] {
        &self.diag_pos
    }

    /// True when these factors read `pattern`'s own arrays, not a copy of
    /// them — the invariant that keeps them at `4·nnz + 8·n` bytes.
    pub fn shares_pattern(&self, pattern: &Pattern) -> bool {
        self.pattern.shares(pattern)
    }

    /// Solves `L̂ Û z = r` by forward then backward substitution into `z`,
    /// accumulating in f64.
    pub fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n());
        debug_assert_eq!(z.len(), self.n());
        let (lu, diag_pos) = (&*self.lu, &*self.diag_pos);
        match &self.pattern {
            Pattern::Wide { indptr, indices } => sweeps(indptr, indices, lu, diag_pos, r, z),
            Pattern::Narrow { indptr, indices } => sweeps(indptr, indices, lu, diag_pos, r, z),
        }
    }
}

/// [`Ilu0::solve_into`] on one pattern form. The arrays are borrowed as
/// slices once: indexing a `Storage` per entry re-checks its backing in
/// the inner loop.
fn sweeps<P: Idx, C: Idx>(
    indptr: &[P],
    indices: &[C],
    lu: &[f32],
    diag_pos: &[usize],
    r: &[f64],
    z: &mut [f64],
) {
    let n = diag_pos.len();
    // Forward: L̂ y = r (unit diagonal).
    for i in 0..n {
        let s = indptr[i].ix();
        let mut acc = r[i];
        for p in s..s + diag_pos[i] {
            acc -= f64::from(lu[p]) * z[indices[p].ix()];
        }
        z[i] = acc;
    }
    // Backward: Û z = y.
    for i in (0..n).rev() {
        let (d, e) = (indptr[i].ix() + diag_pos[i], indptr[i + 1].ix());
        let mut acc = z[i];
        for p in d + 1..e {
            acc -= f64::from(lu[p]) * z[indices[p].ix()];
        }
        z[i] = acc * f64::from(lu[d]);
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve_into(r, z);
    }
}

impl MemBytes for Ilu0 {
    /// Values and diagonal positions: `4·nnz + 8·n` bytes.
    fn bytes(&self) -> Bytes {
        self.lu.bytes() + self.diag_pos.bytes()
    }
}

/// ILU(0) elimination of `a` in f64: returns the combined factors `L̂`
/// and `Û` in `a`'s pattern — the numeric kernel behind
/// [`Ilu0::factor`]. `diag_pos[i]` is the
/// offset of the diagonal within row `i`.
///
/// IKJ order with a column→position scatter of row `i`: for each lower
/// neighbour `k` (ascending) only `U(k, ·)` is streamed, and an entry is
/// updated where row `i` stores that column. Cost `Σ_i Σ_{k ∈ L(i)} |U(k)|`
/// probes plus two passes over the pattern, against the
/// `Σ_i |row i|·|L(i)|` of merging row `i` against every row `k`. Each
/// entry still receives its updates in ascending `k`, so the factors are
/// bit-identical to the merge kernel's.
fn eliminate(a: &Csr, diag_pos: &[usize]) -> Result<Vec<f64>> {
    // Row offsets fit u32 because column indices do, and u32::MAX is never
    // a valid one (a row holds at most `n < u32::MAX` entries).
    const ABSENT: u32 = u32::MAX;
    let (indptr, indices) = (a.indptr(), a.indices());
    let mut values = a.values().to_vec();
    let n = diag_pos.len();
    // pos[j] = offset of (i, j) within row i while row i is active.
    let mut pos = vec![ABSENT; n];
    for i in 0..n {
        let (ri_start, ri_end) = (indptr[i], indptr[i + 1]);
        // Rows k < i are final and only read; row i is the one written.
        let (done, rest) = values.split_at_mut(ri_start);
        let row = &mut rest[..ri_end - ri_start];
        let row_cols = &indices[ri_start..ri_end];
        for (p, &j) in (0u32..).zip(row_cols) {
            pos[j as usize] = p;
        }
        for (ki, &k) in row_cols[..diag_pos[i]].iter().enumerate() {
            let k = k as usize;
            let (dk, rk_end) = (indptr[k] + diag_pos[k], indptr[k + 1]);
            let akk = done[dk];
            if akk == 0.0 {
                return Err(SparseError::ZeroDiagonal { row: k });
            }
            let lik = row[ki] / akk;
            row[ki] = lik;
            if lik == 0.0 {
                continue;
            }
            // Subtract lik * U(k, j) from A(i, j) for j > k, only where
            // (i, j) exists: ABSENT is out of range for every row, so the
            // bounds check is the membership test.
            for (&j, &ukj) in indices[dk + 1..rk_end].iter().zip(&done[dk + 1..rk_end]) {
                if let Some(aij) = row.get_mut(pos[j as usize] as usize) {
                    *aij -= lik * ukj;
                }
            }
        }
        if row[diag_pos[i]] == 0.0 {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        for &j in row_cols {
            pos[j as usize] = ABSENT;
        }
    }
    Ok(values)
}

/// Rounds the f64 factors to their stored f32 form, once: every entry to
/// its nearest f32, except each diagonal, which becomes `(1 / u_ii) as
/// f32`.
///
/// # Errors
/// [`SparseError::ZeroDiagonal`] for a pivot whose f32 reciprocal is not
/// finite.
fn round_factors(values: &[f64], indptr: &[usize], diag_pos: &[usize]) -> Result<Vec<f32>> {
    let mut lu: Vec<f32> = values.iter().map(|&v| v as f32).collect();
    for (i, (&start, &d)) in indptr.iter().zip(diag_pos).enumerate() {
        let inv = (1.0 / values[start + d]) as f32;
        if !inv.is_finite() {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        lu[start + d] = inv;
    }
    Ok(lu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gmres, GmresConfig};
    use bepi_sparse::Coo;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The kernel `Ilu0::factor` ran before the scatter kernel, kept as
    /// the oracle: row `i` is two-pointer-merged against every
    /// lower-neighbour row `k`. Returns the factor values and `diag_pos`.
    fn factor_reference(a: &Csr) -> Result<(Vec<f64>, Vec<usize>)> {
        let n = a.nrows();
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            let (cols, _) = a.row(i);
            match cols.binary_search(&(i as u32)) {
                Ok(p) => diag_pos[i] = p,
                Err(_) => return Err(SparseError::ZeroDiagonal { row: i }),
            }
        }
        let (indptr, indices) = (a.indptr(), a.indices());
        let mut values = a.values().to_vec();
        for i in 0..n {
            let (ri_start, ri_end) = (indptr[i], indptr[i + 1]);
            let di = ri_start + diag_pos[i];
            for ki in ri_start..di {
                let k = indices[ki] as usize;
                let dk = indptr[k] + diag_pos[k];
                let akk = values[dk];
                if akk == 0.0 {
                    return Err(SparseError::ZeroDiagonal { row: k });
                }
                let lik = values[ki] / akk;
                values[ki] = lik;
                if lik == 0.0 {
                    continue;
                }
                let mut p = ki + 1; // positions in row i after column k
                let mut q = dk + 1; // positions in row k after the diagonal
                let rk_end = indptr[k + 1];
                while p < ri_end && q < rk_end {
                    match indices[p].cmp(&indices[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            values[p] -= lik * values[q];
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
            if values[di] == 0.0 {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
        }
        Ok((values, diag_pos))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The stored form of f64 factors, spelled out entry by entry: `v as
    /// f32` off the diagonal, `(1 / v) as f32` on it.
    fn rounded(values: &[f64], a: &Csr, diag_pos: &[usize]) -> Vec<u32> {
        let mut out = Vec::with_capacity(values.len());
        for (i, &d) in diag_pos.iter().enumerate() {
            for p in a.indptr()[i]..a.indptr()[i + 1] {
                let v = values[p];
                let stored = if p == a.indptr()[i] + d {
                    (1.0 / v) as f32
                } else {
                    v as f32
                };
                out.push(stored.to_bits());
            }
        }
        out
    }

    /// Both kernels must agree on `a`: the f64 elimination bit-equal to
    /// the merge kernel's, the stored f32 factors its one rounding, equal
    /// `diag_pos` and a shared pattern — or the same error.
    fn assert_matches_reference(a: &Csr) {
        match (Ilu0::factor(a), factor_reference(a)) {
            (Ok(got), Ok((values, diag_pos))) => {
                assert!(got.shares_pattern(&a.pattern()));
                assert_eq!(bits(&eliminate(a, got.diag_pos()).unwrap()), bits(&values));
                assert_eq!(bits32(got.values()), rounded(&values, a, &diag_pos));
                assert_eq!(got.diag_pos(), &diag_pos[..]);
            }
            (Err(got), Err(want)) => assert_eq!(format!("{got:?}"), format!("{want:?}")),
            (got, want) => panic!("scatter kernel {got:?}, merge kernel {want:?}"),
        }
    }

    /// A random strictly row-diagonally-dominant matrix with negative
    /// off-diagonals (an M-matrix, so ILU(0) exists), shaped to reach the
    /// kernel's edges: a sparse background, one heavy row and column
    /// (about two thirds of the other nodes), one row with no strict-lower
    /// part, one with no strict-upper part, and one strictly-lower entry
    /// stored as an explicit `0.0`.
    fn shaped_dd_matrix(n: usize, rng: &mut TestRng) -> Csr {
        let pick = |rng: &mut TestRng| rng.below(n as u64) as usize;
        let weight = |rng: &mut TestRng| -(0.1 + 0.9 * rng.unit_f64());
        let mut cells: Vec<Vec<Option<f64>>> = vec![vec![None; n]; n];
        for _ in 0..3 * n {
            let (r, c) = (pick(rng), pick(rng));
            cells[r][c] = Some(weight(rng));
        }
        let heavy = pick(rng);
        for j in (0..n).filter(|j| (j + heavy) % 3 != 0) {
            cells[heavy][j] = Some(weight(rng));
            cells[j][heavy] = Some(weight(rng));
        }
        let (no_lower, no_upper) = (pick(rng), pick(rng));
        cells[no_lower][..no_lower].fill(None);
        cells[no_upper][no_upper + 1..].fill(None);
        let lower: Vec<(usize, usize)> = (0..n)
            .flat_map(|r| (0..r).map(move |c| (r, c)))
            .filter(|&(r, c)| cells[r][c].is_some())
            .collect();
        if !lower.is_empty() {
            let (r, c) = lower[rng.below(lower.len() as u64) as usize];
            cells[r][c] = Some(0.0);
        }
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for (i, row) in cells.iter_mut().enumerate() {
            row[i] = None;
            let off: f64 = row.iter().flatten().map(|v| v.abs()).sum();
            row[i] = Some(off + 0.5);
            for (j, v) in row.iter().enumerate() {
                if let Some(v) = v {
                    indices.push(j as u32);
                    values.push(*v);
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_parts(n, n, indptr, indices, values).unwrap()
    }

    fn shaped_dd_strategy() -> impl Strategy<Value = Csr> {
        (1usize..48).prop_perturb(|n, mut rng| shaped_dd_matrix(n, &mut rng))
    }

    /// `a` served from a mapped v6 container: all three arrays are
    /// `Storage::Mapped`.
    fn mapped_copy(a: &Csr, tag: &str) -> Csr {
        use bepi_map::{sections, ContainerWriter, MappedIndex};
        use std::io::Write as _;
        let path =
            std::env::temp_dir().join(format!("bepi_ilu0_{tag}_{}.bepi", std::process::id()));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn scatter_kernel_is_bit_identical_to_merge_kernel(a in shaped_dd_strategy()) {
            assert_matches_reference(&a);
        }

        #[test]
        fn f32_factors_cost_no_gmres_iterations(a in shaped_dd_strategy()) {
            let ilu = Ilu0::factor(&a).unwrap();
            let (values, diag_pos) = factor_reference(&a).unwrap();
            let reference = ReferenceIlu { a: &a, values, diag_pos };
            let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 7 % 11) as f64 - 5.0) / 3.0).collect();
            // The paper's tolerance, 1e-9 (the default).
            let cfg = GmresConfig::default();
            let got = gmres(&a, &b, None, Some(&ilu as &dyn Preconditioner), &cfg).unwrap();
            let want = gmres(&a, &b, None, Some(&reference as &dyn Preconditioner), &cfg).unwrap();
            prop_assert!(got.converged && want.converged);
            // Where ILU(0) approximates `a`, the f32 rounding (~1e-7) is
            // far below the dropped fill and costs no iteration. Where it
            // drops no fill, the f64 apply is a direct solve (one or two
            // iterations), and the rounding may cost one more.
            if want.iterations > 2 {
                prop_assert_eq!(got.iterations, want.iterations);
            } else {
                prop_assert!(got.iterations <= want.iterations + 1);
            }
        }
    }

    /// The f64 preconditioner the stored f32 factors replace: the merge
    /// kernel's factors, applied with a division by each pivot.
    struct ReferenceIlu<'a> {
        a: &'a Csr,
        values: Vec<f64>,
        diag_pos: Vec<usize>,
    }

    impl Preconditioner for ReferenceIlu<'_> {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let (indptr, indices, v) = (self.a.indptr(), self.a.indices(), &self.values);
            let n = self.diag_pos.len();
            for i in 0..n {
                let mut acc = r[i];
                for p in indptr[i]..indptr[i] + self.diag_pos[i] {
                    acc -= v[p] * z[indices[p] as usize];
                }
                z[i] = acc;
            }
            for i in (0..n).rev() {
                let d = indptr[i] + self.diag_pos[i];
                let mut acc = z[i];
                for p in d + 1..indptr[i + 1] {
                    acc -= v[p] * z[indices[p] as usize];
                }
                z[i] = acc / v[d];
            }
        }
    }

    #[test]
    fn shaped_generator_reaches_every_edge() {
        // The property above is only as good as its inputs: check that
        // the generator really produces each shape it promises.
        let mut rng = TestRng::deterministic("shaped_generator_reaches_every_edge");
        let (mut heavy, mut no_lower, mut no_upper, mut zero_l) = (false, false, false, false);
        for _ in 0..50 {
            let a = shaped_dd_matrix(24, &mut rng);
            let t = a.transpose();
            for i in 0..24 {
                let (cols, vals) = a.row(i);
                let d = cols.binary_search(&(i as u32)).unwrap();
                heavy |= cols.len() >= 12 && t.row_nnz(i) >= 12;
                no_lower |= d == 0 && cols.len() > 1;
                no_upper |= d + 1 == cols.len() && cols.len() > 1;
                zero_l |= vals[..d].contains(&0.0);
            }
        }
        assert!(heavy && no_lower && no_upper && zero_l);
    }

    #[test]
    fn single_row_matrix_matches_reference() {
        let a = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![3.0]).unwrap();
        assert_matches_reference(&a);
        assert_eq!(Ilu0::factor(&a).unwrap().values(), &[(1.0f64 / 3.0) as f32]);
    }

    #[test]
    fn mapped_input_is_left_untouched_and_result_is_owned() {
        let mut rng = TestRng::deterministic("mapped_input");
        let a = shaped_dd_matrix(40, &mut rng);
        let mapped = mapped_copy(&a, "factor");
        assert_eq!(mapped.bytes(), Bytes::mapped(a.mem_bytes()));
        let ilu = Ilu0::factor(&mapped).unwrap();
        let (want, diag_pos) = factor_reference(&a).unwrap();
        assert_eq!(bits32(ilu.values()), rounded(&want, &a, &diag_pos));
        assert_eq!(ilu.diag_pos(), &diag_pos[..]);
        // The factor values and diagonal positions live on the heap, the
        // mapped input still holds A, and the pattern is the mapped one.
        assert_eq!(bits(mapped.values()), bits(a.values()));
        assert!(ilu.shares_pattern(&mapped.pattern()));
        assert_eq!(ilu.bytes(), Bytes::heap(a.nnz() * 4 + a.nrows() * 8));
    }

    #[test]
    fn zero_pivot_is_reported_for_the_same_row_by_both_kernels() {
        // Elimination zeroes the pivot of row 1: a11 − (4/2)·1 = 0.
        let a = Csr::from_parts(
            3,
            3,
            vec![0, 2, 4, 7],
            vec![0, 1, 0, 1, 0, 1, 2],
            vec![2.0, 1.0, 4.0, 2.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            Ilu0::factor(&a),
            Err(SparseError::ZeroDiagonal { row: 1 })
        ));
        assert_matches_reference(&a);
        // A diagonal stored as an explicit 0.0 fails at its own row,
        // before any later row divides by it.
        let b = Csr::from_parts(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![0.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            Ilu0::factor(&b),
            Err(SparseError::ZeroDiagonal { row: 0 })
        ));
        assert_matches_reference(&b);
    }

    fn dd_matrix(n: usize) -> Csr {
        // Deterministic strictly diagonally dominant sparse matrix.
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            let mut off = 0.0;
            for d in [1usize, 3] {
                let j = (i + d) % n;
                if j != i {
                    let v = 0.3 + ((i * 7 + j) % 5) as f64 * 0.1;
                    coo.push(i, j, -v).unwrap();
                    off += v;
                }
            }
            coo.push(i, i, off + 1.0).unwrap();
        }
        coo.to_csr()
    }

    /// `a` as a [`CodedCsr`] on `a`'s own wide pattern, as an index file
    /// that stores the pattern wide loads it.
    fn wide_coded(a: &Csr) -> CodedCsr {
        let values = CodedCsr::encode(a).values().clone();
        CodedCsr::from_parts_storage_trusted(a.nrows(), a.ncols(), None, a.pattern(), values)
            .unwrap()
    }

    /// Factors rebound onto a narrow `S` read its pattern, not a copy, and
    /// solve bit for bit as the wide factors do.
    #[test]
    fn narrow_factors_share_s_and_solve_bit_identically() {
        let mut rng = TestRng::deterministic("narrow_factors");
        for n in [1, 7, 40] {
            let a = shaped_dd_matrix(n, &mut rng);
            let wide = Ilu0::factor(&a).unwrap();
            let s = CodedCsr::encode(&a);
            assert!(s.pattern().is_narrow());
            let narrow = wide.clone().rebind(&s).unwrap();
            assert!(narrow.shares_pattern(s.pattern()));
            assert!(!narrow.shares_pattern(&a.pattern()));
            assert_eq!(narrow.mem_bytes(), wide.mem_bytes());
            let r: Vec<f64> = (0..n).map(|i| ((i * 5 % 9) as f64 - 4.0) / 3.0).collect();
            let (mut zw, mut zn) = (vec![0.0; n], vec![f64::NAN; n]);
            wide.solve_into(&r, &mut zw);
            narrow.solve_into(&r, &mut zn);
            assert_eq!(bits(&zn), bits(&zw), "n = {n}");
        }
    }

    /// A diagonal position past its row, or on an off-diagonal entry,
    /// fails the check with the row named.
    #[test]
    fn check_diag_pos_names_the_bad_row() {
        let a = dd_matrix(6);
        let ilu = Ilu0::factor(&a).unwrap();
        assert!(ilu.check_diag_pos().is_ok());
        let with = |i: usize, d: usize| {
            let mut diag = ilu.diag_pos.to_vec();
            diag[i] = d;
            Ilu0::from_parts(&wide_coded(&a), ilu.lu.clone(), diag.into()).unwrap()
        };
        let past = with(2, a.row_nnz(2));
        let err = past.check_diag_pos().unwrap_err().to_string();
        assert!(err.contains("row 2 is past"), "{err}");
        let off = with(3, (ilu.diag_pos[3] + 1) % a.row_nnz(3));
        let err = off.check_diag_pos().unwrap_err().to_string();
        assert!(err.contains("of row 3 points at column"), "{err}");
    }

    #[test]
    fn pattern_is_preserved() {
        let a = dd_matrix(20);
        let ilu = Ilu0::factor(&a).unwrap();
        assert_eq!(ilu.values().len(), a.nnz());
        assert!(ilu.shares_pattern(&a.pattern()));
        // The pattern is `a`'s: only values and diagonal positions count.
        assert_eq!(ilu.bytes(), Bytes::heap(a.nnz() * 4 + a.nrows() * 8));
        // Reassembling persisted parts shares the pattern it is given.
        let rebuilt =
            Ilu0::from_parts(&wide_coded(&a), ilu.lu.clone(), ilu.diag_pos.clone()).unwrap();
        assert!(rebuilt.shares_pattern(&a.pattern()));
        let copy = Csr::from_parts(
            a.nrows(),
            a.ncols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        assert!(!rebuilt.shares_pattern(&copy.pattern()));
    }

    #[test]
    fn exact_on_full_lu_pattern() {
        // For a tridiagonal matrix ILU(0) has no dropped fill, so
        // L̂Û = A exactly and the "preconditioner solve" is a direct solve.
        let n = 30;
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.5).unwrap();
            }
        }
        let a = coo.to_csr();
        let ilu = Ilu0::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let mut z = vec![0.0; n];
        ilu.solve_into(&b, &mut z);
        // Exact up to the f32 rounding of the stored factors (the worst
        // entry is off by ~5e-8).
        for (g, w) in z.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-6, "{g} vs {w}");
        }
    }

    #[test]
    fn approximate_inverse_reduces_residual() {
        let a = dd_matrix(40);
        let ilu = Ilu0::factor(&a).unwrap();
        let b: Vec<f64> = (0..40).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let mut z = vec![0.0; 40];
        ilu.solve_into(&b, &mut z);
        // ‖A z − b‖ should be far smaller than ‖b‖ for a decent ILU.
        let az = a.mul_vec(&z).unwrap();
        let res: f64 = az
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(res < 0.5 * nb, "residual {res} vs ‖b‖ {nb}");
    }

    #[test]
    fn missing_diagonal_rejected() {
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        assert!(matches!(
            Ilu0::factor(&coo.to_csr()),
            Err(SparseError::ZeroDiagonal { .. })
        ));
    }

    #[test]
    fn missing_diagonal_is_rejected_before_any_arithmetic() {
        // Row 1 would hit a zero pivot during elimination, but row 2 has
        // no diagonal in its pattern: the pattern error wins.
        let a = Csr::from_parts(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 0, 1, 0],
            vec![2.0, 1.0, 4.0, 2.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            Ilu0::factor(&a),
            Err(SparseError::ZeroDiagonal { row: 2 })
        ));
        assert_matches_reference(&a);
    }

    #[test]
    fn identity_preconditioner_is_exact() {
        let a = Csr::identity(4);
        let ilu = Ilu0::factor(&a).unwrap();
        let r = [1.0, 2.0, 3.0, 4.0];
        let mut z = [0.0; 4];
        ilu.apply(&r, &mut z);
        assert_eq!(z, r);
    }
}
