//! Value-coded CSR: a read-only matrix that stores each distinct value
//! once.
//!
//! BePI's stored matrices hold few distinct values. `H`'s off-diagonal
//! entries are `−(1−c)/deg(j)`, one per distinct out-degree on an
//! unweighted graph; the Schur complement `S = H22 − H21 H11⁻¹ H12`
//! reuses few products; and the inverted `H11` factors repeat the values
//! of their many 1 × 1 blocks. On the benchmark graphs one non-zero of
//! `S` in 14 to 30 has a value not seen before. [`CodedCsr`] exploits
//! that the way CSR-VI does (Kourtis, Goumas & Koziris, "Optimizing
//! sparse matrix-vector multiplication using index and value
//! compression", CF 2008): a table of the distinct `f64`s in
//! first-occurrence order, plus one `u16` code per non-zero. A value costs
//! 2 bytes instead of 8.
//!
//! **One table per index.** [`CodedCsr::encode_all`] codes several
//! matrices over one shared table: the first matrix's values are listed
//! in first-occurrence order, and each later one appends only the values
//! the table does not hold yet. Every coded matrix then holds the same
//! [`Storage`], so a table is stored once, in memory and in an index file,
//! and the per-thread widened copy below is filled once for all of them.
//! That matters for speed, not only size: a refill writes all 512 KB of
//! the widened copy, and one BePI query multiplies with seven stored
//! matrices about nine times, so per-matrix tables would refill about
//! nine times per query.
//!
//! The coded form is chosen at build time from the data: whenever the
//! table stays within [`MAX_TABLE_LEN`] entries. A matrix whose new values
//! would push it past that keeps plain `f64` values
//! ([`CodedValues::Plain`]) and adds nothing to the table, as does one
//! decoded from an index file that stores them that way. The pattern is
//! chosen the same way: narrow (`u32` row pointers, `u16` column indices)
//! whenever the matrix has at most 2¹⁶ columns, wide otherwise or when a
//! file stores it wide (see [`Pattern`]).
//!
//! Two more forms store only what a matrix carries, chosen the same way,
//! by the bytes they store:
//!
//! * **Per-column values** ([`MatrixValues::Columns`]): when every
//!   non-zero of each column carries the same code and the matrix has
//!   fewer columns than non-zeros, one code per column replaces one per
//!   non-zero. BePI's coupling blocks are blocks of
//!   `H = I − (1−c)Ãᵀ`, whose column `j` holds `−(1−c)·w/d_j` in every
//!   row, so on an unweighted graph all four qualify; a weighted graph's
//!   columns mix values and keep per-entry codes.
//! * **Stored rows only**: when fewer than half the rows hold a non-zero,
//!   the matrix stores the ids of its non-empty rows (`u32`,
//!   ascending) and row pointers over those rows alone. `H31` and `H32`
//!   have a row per dead end, and most dead ends have no in-link from a
//!   spoke or a hub.
//!
//! Every form sums each row in the order [`Csr::mul_vec_into`] does: the
//! SpMV body `csr::spmv_rows` reads the value of non-zero `k` as
//! `values[k]` or `table[codes[k]]` and its column at either width; a
//! matrix that stores only its non-empty rows runs it over those
//! (`csr::spmv_stored_rows`) and writes `+0.0`, an empty row's sum, to
//! the others. A matrix with per-column codes reads a non-zero's value
//! as `table[codes[col]]`, through its column. `table[code] * x[c]` is the
//! same product as `value * x[c]`, so every output is bit-identical to the
//! [`Csr`] the matrix was encoded from. (Scaling `x` by the column values
//! into per-thread scratch first, then summing, is no faster in
//! isolation, and its scratch allocation more than doubled a serving
//! daemon's minor page faults per query by changing where the allocator
//! trims its heap.)
//!
//! The SpMV reads the table through a per-thread copy widened to one entry
//! per `u16` code ([`MAX_TABLE_LEN`], 512 KB), so a code indexes it with
//! no bounds check: the check on a table of runtime length cost 5–25 % of
//! the single-vector kernel on the benchmark graphs. The copy is made when
//! a thread first multiplies with a table and kept while it goes on using
//! that table; it is query scratch, like the Krylov basis, not index data.
//! Its entries past the table are NaN, so a corrupt code in a mapped file
//! poisons the product (GMRES then fails to converge) instead of reading
//! another value.

use crate::csr::{check_block_dims, check_vec_dims, spmv_block, spmv_rows, spmv_stored_rows};
use crate::error::SparseError;
use crate::mem::MemBytes;
use crate::pattern::{Idx, Pattern};
use crate::storage::Storage;
use crate::{Csr, Result};
use std::cell::RefCell;
use std::ops::Range;

/// The most distinct values a value table holds: every `u16` code.
pub const MAX_TABLE_LEN: usize = 1 << 16;

/// An array of values, one per entry: stored plain, or as codes into a
/// value table. A [`CodedCsr`] holds one per non-zero
/// ([`MatrixValues::Entries`]); the `H11` factors' 1 × 1 blocks one per
/// block.
#[derive(Debug, Clone)]
pub enum CodedValues {
    /// One `f64` per entry.
    Plain(Storage<f64>),
    /// The distinct values, in first-occurrence order, and one index into
    /// them per entry.
    Coded {
        /// The distinct values (at most [`MAX_TABLE_LEN`]).
        table: Storage<f64>,
        /// Per entry, the index of its value in `table`.
        codes: Storage<u16>,
    },
}

impl CodedValues {
    /// Stores each of `parts` value-coded over one table shared by all of
    /// them, or plain where that table would overflow (see
    /// [`CodedCsr::encode_all`], which codes matrices' values this way).
    /// The table lists `parts[0]`'s values in first-occurrence order, then
    /// each later part's new ones; a part whose new values would push it
    /// past [`MAX_TABLE_LEN`] entries stays plain (its own storage,
    /// shared) and appends nothing. Every coded result holds the same
    /// table [`Storage`].
    pub fn encode_all(parts: &[Storage<f64>]) -> Vec<Self> {
        let nnz = parts.iter().map(|p| p.len()).sum();
        let mut table = ValueTable::with_room_for(nnz);
        let codes: Vec<Option<Vec<u16>>> = parts.iter().map(|p| table.encode(p)).collect();
        let table: Storage<f64> = table.into_values().into();
        parts
            .iter()
            .zip(codes)
            .map(|(part, codes)| match codes {
                Some(codes) => CodedValues::Coded {
                    table: table.clone(),
                    codes: codes.into(),
                },
                None => CodedValues::Plain(part.clone()),
            })
            .collect()
    }

    /// The table and codes of coded values, or `None` for plain ones.
    #[inline]
    pub fn coded_parts(&self) -> Option<(&Storage<f64>, &Storage<u16>)> {
        match self {
            CodedValues::Plain(_) => None,
            CodedValues::Coded { table, codes } => Some((table, codes)),
        }
    }

    /// Runs `f` with a [`ValueReader`] over these values: the one way to
    /// read many of them fast. Coded values are read through this
    /// thread's widened copy of the table — the copy every coded SpMV
    /// reads, so it is already in cache — and a code past the table reads
    /// NaN, as in an SpMV.
    pub fn with_reader<R>(&self, f: impl FnOnce(ValueReader<'_>) -> R) -> R {
        match self {
            CodedValues::Plain(v) => f(ValueReader::Plain(v)),
            CodedValues::Coded { table, codes } => {
                with_wide_table(table, |wide| f(ValueReader::Coded { wide, codes }))
            }
        }
    }

    /// Checks that every code indexes the value table (`O(len)`; trivially
    /// true for plain values).
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first code out of range.
    pub fn check_codes(&self) -> Result<()> {
        match self {
            CodedValues::Plain(_) => Ok(()),
            CodedValues::Coded { table, codes } => check_codes(table, codes, "non-zero"),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            CodedValues::Plain(v) => v.heap_bytes(),
            CodedValues::Coded { table, codes } => table.heap_bytes() + codes.heap_bytes(),
        }
    }

    fn mapped_bytes(&self) -> usize {
        match self {
            CodedValues::Plain(v) => v.mapped_bytes(),
            CodedValues::Coded { table, codes } => table.mapped_bytes() + codes.mapped_bytes(),
        }
    }

    /// Number of values stored (one per non-zero of a matrix).
    pub fn len(&self) -> usize {
        match self {
            CodedValues::Plain(v) => v.len(),
            CodedValues::Coded { codes, .. } => codes.len(),
        }
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `k`.
    ///
    /// # Panics
    /// If `k` is out of range, or its code is past the table.
    #[inline]
    pub fn get(&self, k: usize) -> f64 {
        match self {
            CodedValues::Plain(v) => v[k],
            CodedValues::Coded { table, codes } => table[codes[k] as usize],
        }
    }
}

/// Checks that every one of `codes` indexes `table`; an error names the
/// first code past it and its position, `at` (what a code stands for)
/// and its index.
fn check_codes(table: &[f64], codes: &[u16], at: &str) -> Result<()> {
    match codes.iter().position(|&c| c as usize >= table.len()) {
        None => Ok(()),
        Some(k) => Err(SparseError::Parse(format!(
            "value code {} at {at} {k} is past the {}-entry value table",
            codes[k],
            table.len()
        ))),
    }
}

/// Reads [`CodedValues`] by index (see [`CodedValues::with_reader`]).
#[derive(Debug, Clone, Copy)]
pub enum ValueReader<'a> {
    /// Plain values.
    Plain(&'a [f64]),
    /// Codes into a table widened to one entry per `u16` code.
    Coded {
        /// The table, widened (NaN past its entries).
        wide: &'a [f64; MAX_TABLE_LEN],
        /// One code per value.
        codes: &'a [u16],
    },
}

impl ValueReader<'_> {
    /// Value `k`.
    ///
    /// # Panics
    /// If `k` is out of range.
    #[inline]
    pub fn get(self, k: usize) -> f64 {
        match self {
            ValueReader::Plain(v) => v[k],
            ValueReader::Coded { wide, codes } => wide[usize::from(codes[k])],
        }
    }
}

impl MemBytes for CodedValues {
    fn mem_bytes(&self) -> usize {
        match self {
            CodedValues::Plain(v) => v.mem_bytes(),
            CodedValues::Coded { table, codes } => table.mem_bytes() + codes.mem_bytes(),
        }
    }
}

/// How a [`CodedCsr`] stores its values: one per non-zero, or one code
/// per column (see the module doc).
#[derive(Debug, Clone)]
pub enum MatrixValues {
    /// One value or code per non-zero.
    Entries(CodedValues),
    /// One index into the table per column, every non-zero of a column
    /// carrying its column's value.
    Columns {
        /// The distinct values (at most [`MAX_TABLE_LEN`]).
        table: Storage<f64>,
        /// Per column, the index of its value in `table`.
        codes: Storage<u16>,
    },
}

impl MatrixValues {
    /// The value table the codes index, or `None` for plain values.
    #[inline]
    pub fn table(&self) -> Option<&Storage<f64>> {
        match self {
            MatrixValues::Entries(values) => values.coded_parts().map(|(table, _)| table),
            MatrixValues::Columns { table, .. } => Some(table),
        }
    }

    /// Checks that every code indexes the value table (`O(codes)`;
    /// trivially true for plain values).
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first code out of range and the
    /// non-zero or column it stands for.
    pub fn check_codes(&self) -> Result<()> {
        match self {
            MatrixValues::Entries(values) => values.check_codes(),
            MatrixValues::Columns { table, codes } => check_codes(table, codes, "column"),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            MatrixValues::Entries(values) => values.heap_bytes(),
            MatrixValues::Columns { table, codes } => table.heap_bytes() + codes.heap_bytes(),
        }
    }

    fn mapped_bytes(&self) -> usize {
        match self {
            MatrixValues::Entries(values) => values.mapped_bytes(),
            MatrixValues::Columns { table, codes } => table.mapped_bytes() + codes.mapped_bytes(),
        }
    }
}

impl MemBytes for MatrixValues {
    fn mem_bytes(&self) -> usize {
        match self {
            MatrixValues::Entries(values) => values.mem_bytes(),
            MatrixValues::Columns { table, codes } => table.mem_bytes() + codes.mem_bytes(),
        }
    }
}

/// A read-only CSR matrix whose values are stored plain, value-coded per
/// non-zero or per column, whose pattern is stored wide or narrow, and
/// which stores every row or only its non-empty ones (see the module
/// doc).
///
/// ```
/// use bepi_sparse::{CodedCsr, Coo};
///
/// let mut coo = Coo::new(2, 3).unwrap();
/// coo.push(0, 0, 0.5).unwrap();
/// coo.push(0, 2, -0.25).unwrap();
/// coo.push(1, 1, 0.5).unwrap();
/// let a = coo.to_csr();
/// let s = CodedCsr::encode(&a);
///
/// assert!(s.is_coded());
/// assert!(s.pattern().is_narrow());
/// let x = [1.0, 2.0, 4.0];
/// assert_eq!(s.mul_vec(&x).unwrap(), a.mul_vec(&x).unwrap());
/// assert_eq!(s.to_csr(), a);
/// ```
#[derive(Debug, Clone)]
pub struct CodedCsr {
    nrows: usize,
    ncols: usize,
    /// The ids of the stored rows, ascending, when only the non-empty
    /// rows are stored; `None` when every row is.
    rows: Option<Storage<u32>>,
    /// Row pointers over the stored rows, and the column indices.
    pattern: Pattern,
    values: MatrixValues,
}

impl CodedCsr {
    /// Stores `a` value-coded when its distinct values (by bit pattern, so
    /// `0.0` and `-0.0`, and NaNs with different payloads, stay apart)
    /// number at most [`MAX_TABLE_LEN`], and plain otherwise; and its
    /// pattern narrow when it fits one ([`Pattern::narrowed`]), its codes
    /// per column and its rows stored only where non-empty when that
    /// stores fewer bytes (see [`CodedCsr::with_values`]). A wide pattern
    /// over every row, and plain values, are `a`'s arrays, shared.
    pub fn encode(a: &Csr) -> Self {
        Self::encode_all(&[a])
            .pop()
            .expect("one matrix in, one out")
    }

    /// Stores each of `mats` as [`CodedCsr::encode`] does, but over one
    /// value table shared by all of them (see the module doc). The table
    /// lists `mats[0]`'s values in first-occurrence order, so the first
    /// matrix codes exactly as it would alone; each later matrix appends
    /// its new values in first-occurrence order, unless they would push
    /// the table past [`MAX_TABLE_LEN`] entries, in which case that matrix
    /// stays plain and appends nothing. Every coded result holds the same
    /// table [`Storage`].
    pub fn encode_all(mats: &[&Csr]) -> Vec<Self> {
        let parts: Vec<Storage<f64>> = mats.iter().map(|a| a.value_storage()).collect();
        mats.iter()
            .zip(CodedValues::encode_all(&parts))
            .map(|(a, values)| Self::with_values(a, values))
            .collect()
    }

    /// `a` stored with `values` (one per non-zero of `a`, as
    /// [`CodedValues::encode_all`] codes them) — how a matrix coded beside
    /// other value arrays is frozen. Each form is picked by the bytes it
    /// stores:
    /// * the rows: only the non-empty ones, with their ids, when fewer
    ///   than half the rows are non-empty, else every row;
    /// * the pattern: narrow when it fits one ([`Pattern::narrowed`]);
    /// * the codes: one per column ([`MatrixValues::Columns`]) when every
    ///   non-zero of each column has the same code and there are fewer
    ///   columns than non-zeros, else `values` as given.
    ///
    /// # Panics
    /// Unless `values` holds one value per non-zero of `a`.
    pub fn with_values(a: &Csr, values: CodedValues) -> Self {
        assert_eq!(values.len(), a.nnz(), "one value per non-zero");
        let indptr = a.indptr();
        let nonempty = indptr.windows(2).filter(|w| w[0] < w[1]).count();
        let (rows, pattern) = match u32::try_from(a.nrows()) {
            Ok(_) if 2 * nonempty < a.nrows() => {
                let rows: Vec<u32> = (0..a.nrows())
                    .filter(|&i| indptr[i] < indptr[i + 1])
                    .map(|i| i as u32)
                    .collect();
                let stored_ptr: Vec<usize> = std::iter::once(0)
                    .chain(rows.iter().map(|&i| indptr[i as usize + 1]))
                    .collect();
                let pattern = Pattern::Wide {
                    indptr: stored_ptr.into(),
                    indices: a.indices().to_vec().into(),
                };
                (Some(rows.into()), pattern)
            }
            _ => (None, a.pattern()),
        };
        Self {
            nrows: a.nrows(),
            ncols: a.ncols(),
            rows,
            pattern: pattern.narrowed(a.ncols()),
            values: per_column(values, a.indices(), a.ncols()),
        }
    }

    /// Builds a matrix from [`Storage`]-backed parts, in any form — the
    /// constructor for matrices decoded from an index file — with `O(1)`
    /// shape checks only: one row pointer per stored row and one more,
    /// with end points 0 and nnz; at most `nrows` stored row ids; one value
    /// or code per non-zero, or one code per column for
    /// [`MatrixValues::Columns`]; and a table of at most
    /// [`MAX_TABLE_LEN`] entries.
    ///
    /// As for [`Csr::from_parts_storage_trusted`], the entries are
    /// trusted: a row id, column or row pointer out of range surfaces as a
    /// clean panic on use, never undefined behaviour, and a code past the
    /// table reads NaN (see the module doc). A loader that reads every
    /// byte anyway calls [`CodedCsr::check_rows`],
    /// [`Pattern::check_indptr`], [`Pattern::check_indices`] and
    /// [`MatrixValues::check_codes`] first.
    ///
    /// # Errors
    /// [`SparseError::VectorLength`] or [`SparseError::Parse`] naming the
    /// first check that fails.
    pub fn from_parts_storage_trusted(
        nrows: usize,
        ncols: usize,
        rows: Option<Storage<u32>>,
        pattern: Pattern,
        values: MatrixValues,
    ) -> Result<Self> {
        crate::coo::check_dims(nrows, ncols)?;
        let stored = rows.as_ref().map_or(nrows, |r| r.len());
        if stored > nrows {
            return Err(SparseError::Parse(format!(
                "{stored} stored row ids for {nrows} rows"
            )));
        }
        if pattern.indptr_len() != stored + 1 {
            return Err(SparseError::VectorLength {
                expected: stored + 1,
                actual: pattern.indptr_len(),
            });
        }
        let nnz = pattern.nnz();
        let (stored_values, per_value) = match &values {
            MatrixValues::Entries(values) => (values.len(), nnz),
            MatrixValues::Columns { codes, .. } => (codes.len(), ncols),
        };
        if stored_values != per_value {
            return Err(SparseError::VectorLength {
                expected: per_value,
                actual: stored_values,
            });
        }
        if let Some(table) = values.table() {
            if table.len() > MAX_TABLE_LEN {
                return Err(SparseError::Parse(format!(
                    "value table holds {} entries, more than the {MAX_TABLE_LEN} a u16 code \
                     can index",
                    table.len()
                )));
            }
        }
        if pattern.row_ptr(0) != 0 || pattern.row_ptr(stored) != nnz {
            return Err(SparseError::Parse(format!(
                "indptr must start at 0 and end at nnz={nnz}"
            )));
        }
        let m = Self {
            nrows,
            ncols,
            rows,
            pattern,
            values,
        };
        debug_assert!(
            m.pattern.check_indptr().is_ok() && m.pattern.check_indices(ncols).is_ok(),
            "CSR pattern out of range"
        );
        Ok(m)
    }

    /// Checks that the stored row ids strictly increase (sorted, none
    /// repeated) and stay below `nrows` (`O(stored rows)`; trivially true
    /// when every row is stored).
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first bad row id.
    pub fn check_rows(&self) -> Result<()> {
        let Some(rows) = &self.rows else {
            return Ok(());
        };
        if let Some(k) = rows.iter().position(|&r| r as usize >= self.nrows) {
            return Err(SparseError::Parse(format!(
                "row id {} at stored row {k} is out of range for {} rows",
                rows[k], self.nrows
            )));
        }
        if let Some(k) = rows.windows(2).position(|w| w[1] <= w[0]) {
            return Err(SparseError::Parse(format!(
                "row ids do not strictly increase at stored row {}: {} then {}",
                k + 1,
                rows[k],
                rows[k + 1]
            )));
        }
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

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// The row pointers (over the stored rows, see
    /// [`CodedCsr::stored_rows`]) and column indices, wide or narrow.
    /// Clone it to share it (as the ILU(0) factors do).
    #[inline]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The ids of the stored rows, ascending, when only the non-empty rows
    /// are stored; `None` when every row is.
    #[inline]
    pub fn stored_rows(&self) -> Option<&Storage<u32>> {
        self.rows.as_ref()
    }

    /// How the values are stored.
    #[inline]
    pub fn values(&self) -> &MatrixValues {
        &self.values
    }

    /// True when the values are value-coded (per non-zero or per column)
    /// rather than plain.
    #[inline]
    pub fn is_coded(&self) -> bool {
        self.values.table().is_some()
    }

    /// True when the values are coded one per column.
    #[inline]
    pub fn is_per_column(&self) -> bool {
        matches!(self.values, MatrixValues::Columns { .. })
    }

    /// The value table the codes index, or `None` for plain values.
    #[inline]
    pub fn table(&self) -> Option<&Storage<f64>> {
        self.values.table()
    }

    /// The positions of row `i`'s non-zeros (empty for a row that is not
    /// stored).
    pub fn entries(&self, i: usize) -> Range<usize> {
        match &self.rows {
            None => self.pattern.row_range(i),
            Some(rows) => match rows.binary_search(&(i as u32)) {
                Ok(stored) => self.pattern.row_range(stored),
                Err(_) => 0..0,
            },
        }
    }

    /// The value of non-zero `k`.
    #[inline]
    pub fn value(&self, k: usize) -> f64 {
        match &self.values {
            MatrixValues::Entries(values) => values.get(k),
            MatrixValues::Columns { table, codes } => table[codes[self.pattern.col(k)] as usize],
        }
    }

    /// Iterates over the `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries(i)
            .map(move |k| (self.pattern.col(k), self.value(k)))
    }

    /// The matrix as a [`Csr`]: a wide pattern over every row and plain
    /// values are shared; a narrow pattern is widened, row pointers over
    /// the stored rows are spread over every row, and codes are decoded.
    pub fn to_csr(&self) -> Csr {
        let values = match &self.values {
            MatrixValues::Entries(CodedValues::Plain(v)) => v.clone(),
            _ => (0..self.nnz())
                .map(|k| self.value(k))
                .collect::<Vec<_>>()
                .into(),
        };
        let (mut indptr, indices) = self.pattern.to_wide();
        if let Some(rows) = &self.rows {
            let mut full = vec![0; self.nrows + 1];
            for (stored, &r) in rows.iter().enumerate() {
                full[r as usize + 1] = indptr[stored + 1];
            }
            for i in 0..self.nrows {
                full[i + 1] = full[i + 1].max(full[i]);
            }
            indptr = full.into();
        }
        Csr::from_parts_storage_trusted(self.nrows, self.ncols, indptr, indices, values)
            .expect("a CodedCsr has a valid CSR shape")
    }

    /// Dense `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// `y = A x` into a caller-provided buffer (overwrites `y`),
    /// bit-identical to [`Csr::mul_vec_into`] on [`CodedCsr::to_csr`].
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        check_vec_dims(self.shape(), x, y)?;
        let rows = self.rows.as_deref();
        match &self.pattern {
            Pattern::Wide { indptr, indices } => spmv(rows, indptr, indices, &self.values, x, y),
            Pattern::Narrow { indptr, indices } => spmv(rows, indptr, indices, &self.values, x, y),
        }
        Ok(())
    }

    /// `Y = A X` for `width` row-interleaved vectors, bit-identical per
    /// lane to [`CodedCsr::mul_vec_into`] (see [`Csr::mul_block_into`]).
    pub fn mul_block_into(&self, x: &[f64], y: &mut [f64], width: usize) -> Result<()> {
        check_block_dims(self.shape(), x, y, width)?;
        let rows = self.rows.as_deref();
        match &self.pattern {
            Pattern::Wide { indptr, indices } => {
                block_spmv((rows, indptr, indices), &self.values, x, y, width)
            }
            Pattern::Narrow { indptr, indices } => {
                block_spmv((rows, indptr, indices), &self.values, x, y, width)
            }
        }
        Ok(())
    }

    /// Bytes of heap memory held.
    pub fn heap_bytes(&self) -> usize {
        self.rows.as_ref().map_or(0, Storage::heap_bytes)
            + self.pattern.heap_bytes()
            + self.values.heap_bytes()
    }

    /// Bytes served zero-copy from a mapped index file.
    pub fn mapped_bytes(&self) -> usize {
        self.rows.as_ref().map_or(0, Storage::mapped_bytes)
            + self.pattern.mapped_bytes()
            + self.values.mapped_bytes()
    }
}

/// `values` coded one per column when they can be and that stores fewer
/// codes: coded per non-zero, fewer columns than non-zeros, and every
/// non-zero of each column (`indices[k]` is non-zero `k`'s column) on the
/// same code. An empty column gets code 0. Otherwise `values` as given.
fn per_column(values: CodedValues, indices: &[u32], ncols: usize) -> MatrixValues {
    let CodedValues::Coded { table, codes } = &values else {
        return MatrixValues::Entries(values);
    };
    if ncols >= codes.len() {
        return MatrixValues::Entries(values);
    }
    const UNSET: u32 = u32::MAX;
    let mut by_col = vec![UNSET; ncols];
    for (&c, &code) in indices.iter().zip(codes.iter()) {
        let slot = &mut by_col[c as usize];
        if *slot == UNSET {
            *slot = u32::from(code);
        } else if *slot != u32::from(code) {
            return MatrixValues::Entries(values);
        }
    }
    MatrixValues::Columns {
        table: table.clone(),
        codes: by_col
            .iter()
            .map(|&code| if code == UNSET { 0 } else { code as u16 })
            .collect::<Vec<_>>()
            .into(),
    }
}

/// [`CodedCsr::mul_vec_into`] on one pattern form: [`spmv_rows`] (or
/// [`spmv_stored_rows`]) reading `values` as stored, per-column codes
/// through each non-zero's column.
fn spmv<P: Idx, C: Idx>(
    rows: Option<&[u32]>,
    indptr: &[P],
    indices: &[C],
    values: &MatrixValues,
    x: &[f64],
    y: &mut [f64],
) {
    match values {
        MatrixValues::Entries(CodedValues::Plain(v)) => match rows {
            None => spmv_rows(indptr, indices, v, |v| v, x, y),
            Some(rows) => spmv_stored_rows(rows, indptr, indices, v, |v| v, x, y, 1),
        },
        MatrixValues::Entries(CodedValues::Coded { table, codes }) => {
            with_wide_table(table, |wide| {
                let value = |c: u16| wide[c as usize];
                match rows {
                    None => spmv_rows(indptr, indices, codes, value, x, y),
                    Some(rows) => spmv_stored_rows(rows, indptr, indices, codes, value, x, y, 1),
                }
            })
        }
        MatrixValues::Columns { table, codes } => with_wide_table(table, |wide| {
            let codes = codes.as_slice();
            let value = |c: C| wide[usize::from(codes[c.ix()])];
            match rows {
                None => spmv_rows(indptr, indices, indices, value, x, y),
                Some(rows) => spmv_stored_rows(rows, indptr, indices, indices, value, x, y, 1),
            }
        }),
    }
}

/// [`CodedCsr::mul_block_into`] on one pattern form: [`spmv_block`] (or
/// [`spmv_stored_rows`]) reading `values` as stored, per-column codes
/// through each non-zero's column.
fn block_spmv<P: Idx, C: Idx>(
    (rows, indptr, indices): (Option<&[u32]>, &[P], &[C]),
    values: &MatrixValues,
    x: &[f64],
    y: &mut [f64],
    width: usize,
) {
    let arrays = (rows, indptr, indices);
    match values {
        MatrixValues::Entries(CodedValues::Plain(v)) => block_rows(arrays, v, |v| v, x, y, width),
        MatrixValues::Entries(CodedValues::Coded { table, codes }) => {
            with_wide_table(table, |wide| {
                block_rows(arrays, codes, |c| wide[c as usize], x, y, width)
            })
        }
        MatrixValues::Columns { table, codes } => with_wide_table(table, |wide| {
            let codes = codes.as_slice();
            block_rows(
                arrays,
                indices,
                |c: C| wide[usize::from(codes[c.ix()])],
                x,
                y,
                width,
            )
        }),
    }
}

/// [`spmv_block`] over every row, or [`spmv_stored_rows`] over `rows`.
fn block_rows<P: Idx, C: Idx, V: Copy>(
    (rows, indptr, indices): (Option<&[u32]>, &[P], &[C]),
    vals: &[V],
    value: impl Fn(V) -> f64,
    x: &[f64],
    y: &mut [f64],
    width: usize,
) {
    match rows {
        None => spmv_block(indptr, indices, vals, value, x, y, width),
        Some(rows) => spmv_stored_rows(rows, indptr, indices, vals, value, x, y, width),
    }
}

thread_local! {
    /// The value table this thread last multiplied with, widened (see
    /// [`with_wide_table`]).
    static WIDE_TABLE: RefCell<Option<WideTable>> = const { RefCell::new(None) };
}

/// A value table copied into [`MAX_TABLE_LEN`] entries, the rest NaN.
struct WideTable {
    /// The table copied, held so that its memory, which identifies it,
    /// cannot be freed and reused while this copy stands for it.
    source: Storage<f64>,
    wide: Box<[f64; MAX_TABLE_LEN]>,
}

/// Runs `f` on `table` widened to one entry per `u16` code, copying it
/// into this thread's buffer unless the buffer holds it already.
fn with_wide_table<R>(table: &Storage<f64>, f: impl FnOnce(&[f64; MAX_TABLE_LEN]) -> R) -> R {
    WIDE_TABLE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let held = slot
            .as_ref()
            .is_some_and(|w| std::ptr::eq(w.source.as_slice(), table.as_slice()));
        if !held {
            let mut wide = match slot.take() {
                Some(old) => old.wide,
                None => vec![0.0; MAX_TABLE_LEN]
                    .into_boxed_slice()
                    .try_into()
                    .expect("MAX_TABLE_LEN entries"),
            };
            wide[..table.len()].copy_from_slice(table);
            wide[table.len()..].fill(f64::NAN);
            *slot = Some(WideTable {
                source: table.clone(),
                wide,
            });
        }
        f(&slot.as_ref().expect("filled above").wide)
    })
}

impl MemBytes for CodedCsr {
    /// Row ids, pattern and values: `4·stored` for the ids of a matrix
    /// that stores only its non-empty rows; `8·(stored+1) + 4·nnz` wide or
    /// `4·(stored+1) + 2·nnz` narrow; and then `8·nnz` plain, or
    /// `8·|table|` plus `2·nnz` coded or `2·ncols` per column.
    fn mem_bytes(&self) -> usize {
        self.rows.as_ref().map_or(0, MemBytes::mem_bytes)
            + self.pattern.mem_bytes()
            + self.values.mem_bytes()
    }
}

impl PartialEq for CodedCsr {
    /// The same matrix, however it is stored: equal shapes, and row by row
    /// the same columns with equal values (as `f64`s, like [`Csr`]'s
    /// equality).
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape()
            && self.nnz() == other.nnz()
            && (0..self.nrows).all(|i| self.row_iter(i).eq(other.row_iter(i)))
    }
}

/// A value table under construction, shared by the matrices
/// [`CodedCsr::encode_all`] codes over it.
///
/// Open addressing with linear probing over a power-of-two slot array at
/// most half full, keyed by `to_bits()` and hashed multiplicatively
/// (Fibonacci hashing: the top bits of `bits · 2⁶⁴/φ`). The table lists
/// each value at its first occurrence, so the same matrices always encode
/// to the same bytes.
struct ValueTable {
    /// Per slot, the code of the value it holds, or [`ValueTable::EMPTY`].
    slots: Vec<u32>,
    shift: u32,
    values: Vec<f64>,
}

impl ValueTable {
    const EMPTY: u32 = u32::MAX;

    /// An empty table with slots for up to `nnz` distinct values (capped
    /// at [`MAX_TABLE_LEN`]).
    fn with_room_for(nnz: usize) -> Self {
        let slots_len = (2 * nnz.min(MAX_TABLE_LEN)).next_power_of_two().max(2);
        Self {
            slots: vec![Self::EMPTY; slots_len],
            shift: 64 - slots_len.trailing_zeros(),
            values: Vec::new(),
        }
    }

    /// One code per entry of `values`, appending the values the table does
    /// not hold yet; or `None`, leaving the table as it was, when they
    /// would take it past [`MAX_TABLE_LEN`] entries.
    fn encode(&mut self, values: &[f64]) -> Option<Vec<u16>> {
        let mask = self.slots.len() - 1;
        let before = self.values.len();
        // Slots filled by this call, emptied again if it fails. Every
        // value probed past them was inserted before them, so emptying
        // them breaks no older value's probe run.
        let mut filled = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for &v in values {
            let bits = v.to_bits();
            let mut h = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
            let code = loop {
                match self.slots[h] {
                    Self::EMPTY => {
                        if self.values.len() == MAX_TABLE_LEN {
                            for slot in filled {
                                self.slots[slot] = Self::EMPTY;
                            }
                            self.values.truncate(before);
                            return None;
                        }
                        let code = self.values.len() as u32;
                        self.slots[h] = code;
                        filled.push(h);
                        self.values.push(v);
                        break code;
                    }
                    code if self.values[code as usize].to_bits() == bits => break code,
                    _ => h = (h + 1) & mask,
                }
            };
            codes.push(code as u16);
        }
        Some(codes)
    }

    /// The distinct values, with no spare capacity.
    fn into_values(mut self) -> Vec<f64> {
        self.values.shrink_to_fit();
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The value table and codes of `values` alone, or `None` when they
    /// hold more than [`MAX_TABLE_LEN`] distinct bit patterns.
    fn encode_values(values: &[f64]) -> Option<(Vec<f64>, Vec<u16>)> {
        let mut table = ValueTable::with_room_for(values.len());
        let codes = table.encode(values)?;
        Some((table.into_values(), codes))
    }

    #[test]
    fn coded_encode_keeps_zero_signs_and_nan_payloads_apart() {
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        let vals = [0.0, -0.0, nan_a, 0.0, nan_b, nan_a, -0.0];
        let (table, codes) = encode_values(&vals).unwrap();
        assert_eq!(bits(&table), bits(&[0.0, -0.0, nan_a, nan_b]));
        assert_eq!(codes, [0, 1, 2, 0, 3, 2, 1]);
        assert_eq!(table.capacity(), table.len());
        assert_eq!(encode_values(&[]), Some((vec![], vec![])));
    }

    #[test]
    fn coded_table_overflow_fails_the_encode() {
        let full: Vec<f64> = (0..MAX_TABLE_LEN).map(|i| i as f64).collect();
        let (table, codes) = encode_values(&full).unwrap();
        assert_eq!(table.len(), MAX_TABLE_LEN);
        assert_eq!(codes[MAX_TABLE_LEN - 1], u16::MAX);
        let mut over = full;
        over.push(-1.0);
        assert!(encode_values(&over).is_none());
    }

    #[test]
    fn coded_trusted_parts_reject_bad_shapes_and_codes() {
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        let a = CodedCsr::encode(&coo.to_csr());
        let part = |table: Vec<f64>, codes: Vec<u16>| {
            CodedCsr::from_parts_storage_trusted(
                2,
                2,
                None,
                a.pattern().clone(),
                MatrixValues::Entries(CodedValues::Coded {
                    table: table.into(),
                    codes: codes.into(),
                }),
            )
        };
        assert!(part(vec![1.0, 2.0], vec![0, 1]).is_ok());
        assert!(
            part(vec![1.0], vec![0]).is_err(),
            "one code for two non-zeros"
        );
        assert!(part(vec![0.0; MAX_TABLE_LEN + 1], vec![0, 1]).is_err());
        let bad = CodedCsr {
            values: MatrixValues::Entries(CodedValues::Coded {
                table: vec![1.0].into(),
                codes: vec![0, 1].into(),
            }),
            ..a.clone()
        };
        let err = bad.values().check_codes().unwrap_err().to_string();
        assert!(err.contains("value code 1 at non-zero 1"), "{err}");
        assert!(a.values().check_codes().is_ok());
        let columns = |codes: Vec<u16>| MatrixValues::Columns {
            table: vec![1.0].into(),
            codes: codes.into(),
        };
        let bad = CodedCsr {
            values: columns(vec![0, 3]),
            ..a.clone()
        };
        let err = bad.values().check_codes().unwrap_err().to_string();
        assert!(err.contains("value code 3 at column 1"), "{err}");
        let trusted = |codes| {
            CodedCsr::from_parts_storage_trusted(2, 2, None, a.pattern().clone(), columns(codes))
        };
        assert!(trusted(vec![0, 0]).is_ok());
        assert!(trusted(vec![0]).is_err(), "one code for two columns");
    }

    #[test]
    fn coded_accounting_counts_table_and_codes() {
        let mut coo = Coo::new(3, 3).unwrap();
        for (r, c) in [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)] {
            coo.push(r, c, if r == c { 1.0 } else { -0.5 }).unwrap();
        }
        let a = coo.to_csr();
        let s = CodedCsr::encode(&a);
        // A narrow pattern, then two table entries and five codes.
        assert_eq!(s.mem_bytes(), 4 * 4 + 5 * 2 + 2 * 8 + 5 * 2);
        assert_eq!(s.heap_bytes(), s.mem_bytes());
        assert_eq!(s.mapped_bytes(), 0);
        let row: Vec<_> = s.row_iter(2).collect();
        assert_eq!(row, [(0, -0.5), (2, 1.0)]);
    }

    /// One matrix per value, same pattern: a 3 × 3 tridiagonal.
    fn tridiagonal(diag: f64, off: f64) -> Csr {
        let mut coo = Coo::new(3, 3).unwrap();
        for i in 0..3 {
            coo.push(i, i, diag).unwrap();
            if i > 0 {
                coo.push(i, i - 1, off).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The per-thread widened table follows whichever table a thread
    /// multiplies with, including a new one built after the old was
    /// dropped.
    #[test]
    fn coded_wide_table_follows_the_matrix() {
        let x = [1.0, 2.0, 4.0];
        let (a, b) = (tridiagonal(2.0, -0.5), tridiagonal(3.0, -0.25));
        let (ca, cb) = (CodedCsr::encode(&a), CodedCsr::encode(&b));
        for _ in 0..2 {
            assert_eq!(ca.mul_vec(&x).unwrap(), a.mul_vec(&x).unwrap());
            assert_eq!(cb.mul_vec(&x).unwrap(), b.mul_vec(&x).unwrap());
        }
        drop(ca);
        let c = tridiagonal(5.0, -1.0);
        let cc = CodedCsr::encode(&c);
        assert_eq!(cc.mul_vec(&x).unwrap(), c.mul_vec(&x).unwrap());
        let mut y = [0.0; 6];
        let x2 = [1.0, -1.0, 2.0, -2.0, 4.0, -4.0];
        cc.mul_block_into(&x2, &mut y, 2).unwrap();
        let mut want = [0.0; 6];
        c.mul_block_into(&x2, &mut want, 2).unwrap();
        assert_eq!(y, want);
    }

    /// A one-row matrix holding `values` in consecutive columns.
    fn row_of(values: &[f64]) -> Csr {
        let n = values.len();
        Csr::from_parts(1, n, vec![0, n], (0..n as u32).collect(), values.to_vec()).unwrap()
    }

    /// Matrices coded together hold one table: the first codes exactly as
    /// it would alone, and each later one appends only its new values, in
    /// first-occurrence order.
    #[test]
    fn compact_encode_all_shares_one_table() {
        let a = tridiagonal(2.0, -0.5);
        let b = row_of(&[-0.5, 7.0, -0.0, 7.0, 2.0]);
        let alone = CodedCsr::encode(&a);
        let coded = CodedCsr::encode_all(&[&a, &b]);
        let table = coded[0].table().unwrap();
        assert_eq!(bits(table), bits(&[2.0, -0.5, 7.0, -0.0]));
        assert!(std::ptr::eq(
            coded[1].table().unwrap().as_slice(),
            table.as_slice()
        ));
        for (m, src) in [(&coded[0], &a), (&coded[1], &b)] {
            assert_eq!(m.to_csr(), *src);
        }
        let entries = |m: &CodedCsr| match m.values() {
            MatrixValues::Entries(values) => values.clone(),
            columns => panic!("per-entry codes: {columns:?}"),
        };
        match (entries(&alone), entries(&coded[0]), entries(&coded[1])) {
            (
                CodedValues::Coded { codes: solo, .. },
                CodedValues::Coded { codes: first, .. },
                CodedValues::Coded { codes: second, .. },
            ) => {
                assert_eq!(&solo[..], &first[..]);
                assert_eq!(&second[..], &[1, 2, 3, 2, 0]);
            }
            other => panic!("every matrix codes: {other:?}"),
        }
        assert!(CodedCsr::encode_all(&[]).is_empty());
    }

    /// A matrix whose new values would push the shared table past
    /// [`MAX_TABLE_LEN`] stays plain and leaves the table as it found it:
    /// a later matrix reusing some of those values codes them afresh.
    #[test]
    fn compact_encode_all_overflow_keeps_one_matrix_plain() {
        let first: Vec<f64> = (0..MAX_TABLE_LEN - 4).map(|i| i as f64).collect();
        let over: Vec<f64> = (0..10).map(|i| -1.0 - i as f64).collect();
        let later = [-3.0, 5.0, -1.0, 0.5, -3.0];
        let (a, b, c) = (row_of(&first), row_of(&over), row_of(&later));
        let coded = CodedCsr::encode_all(&[&a, &b, &c]);
        assert!(coded[0].is_coded() && !coded[1].is_coded() && coded[2].is_coded());
        let table = coded[2].table().unwrap();
        assert!(std::ptr::eq(
            table.as_slice(),
            coded[0].table().unwrap().as_slice()
        ));
        assert_eq!(table.len(), MAX_TABLE_LEN - 4 + 3);
        let base = (MAX_TABLE_LEN - 4) as u16;
        match coded[2].values() {
            MatrixValues::Entries(CodedValues::Coded { codes, .. }) => {
                assert_eq!(&codes[..], &[base, 5, base + 1, base + 2, base]);
            }
            other => unreachable!("{other:?}"),
        }
        let x = vec![1.5; MAX_TABLE_LEN];
        for (m, src) in coded.iter().zip([&a, &b, &c]) {
            assert_eq!(m.to_csr(), *src);
            let x = &x[..src.ncols()];
            assert_eq!(bits(&m.mul_vec(x).unwrap()), bits(&src.mul_vec(x).unwrap()));
        }
    }

    /// Value arrays coded beside each other share one table, and a matrix
    /// takes coded values as they are.
    #[test]
    fn compact_coded_value_arrays_share_one_table() {
        let a = tridiagonal(2.0, -0.5);
        let parts: Vec<Storage<f64>> = vec![a.value_storage(), vec![7.0, 2.0, -0.0].into()];
        let values = CodedValues::encode_all(&parts);
        let (first, second) = (&values[0], &values[1]);
        assert_eq!((first.len(), second.len()), (5, 3));
        assert!(std::ptr::eq(
            first.coded_parts().unwrap().0.as_slice(),
            second.coded_parts().unwrap().0.as_slice()
        ));
        assert_eq!(
            bits(&[second.get(0), second.get(1), second.get(2)]),
            bits(&[7.0, 2.0, -0.0])
        );
        let with = CodedCsr::with_values(&a, first.clone());
        assert!(with.pattern().is_narrow() && with.is_coded());
        assert_eq!(with.to_csr(), a);
    }

    /// A code past the end of its table (a corrupt mapped file) reads NaN,
    /// so the product is visibly poisoned rather than quietly wrong.
    #[test]
    fn coded_code_past_the_table_poisons_the_product() {
        let a = CodedCsr::encode(&tridiagonal(2.0, -0.5));
        let bad = CodedCsr {
            values: MatrixValues::Entries(CodedValues::Coded {
                table: vec![2.0].into(),
                codes: vec![0, 1, 0, 1, 0].into(),
            }),
            ..a.clone()
        };
        let y = bad.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y[0], 2.0);
        assert!(y[1].is_nan() && y[2].is_nan(), "{y:?}");
        // Per-column codes: column 1's code is past the table.
        let bad = CodedCsr {
            values: MatrixValues::Columns {
                table: vec![2.0].into(),
                codes: vec![0, 1, 0].into(),
            },
            ..a
        };
        let y = bad.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y[0], 2.0);
        assert!(y[1].is_nan() && y[2].is_nan(), "{y:?}");
    }
}
