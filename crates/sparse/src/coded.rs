//! Value-coded CSR: a read-only matrix that stores each distinct value
//! once.
//!
//! BePI's Schur complement `S = H22 − H21 H11⁻¹ H12` holds few distinct
//! values: `H`'s off-diagonal entries are `−(1−c)/deg(j)`, one per column,
//! and the Schur correction reuses few products. On the benchmark graphs
//! one non-zero in 14 to 30 has a value not seen before. [`CodedCsr`]
//! exploits that the way CSR-VI does (Kourtis, Goumas & Koziris,
//! "Optimizing sparse matrix-vector multiplication using index and value
//! compression", CF 2008): a table of the distinct `f64`s in
//! first-occurrence order, plus one `u16` code per non-zero. A value costs
//! 2 bytes instead of 8.
//!
//! The coded form is chosen at build time from the data
//! ([`CodedCsr::encode`]): whenever the table has at most
//! [`MAX_TABLE_LEN`] entries. Otherwise the matrix keeps plain `f64`
//! values ([`CodedValues::Plain`]), as does one decoded from an index file
//! that stores them that way. The pattern is chosen the same way: narrow
//! (`u32` row pointers, `u16` column indices) whenever the matrix has at
//! most 2¹⁶ columns, wide otherwise or when a file stores it wide (see
//! [`Pattern`]).
//!
//! Every form runs one SpMV body (`csr::spmv_rows`), which reads the value
//! of non-zero `k` as `table[codes[k]]` or `values[k]`, its column at
//! either width, and sums each row in the order [`Csr::mul_vec_into`]
//! does. `table[code] * x[c]` is the same product as `value * x[c]`, so
//! every output is bit-identical to the [`Csr`] the matrix was encoded
//! from.
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

use crate::csr::{check_block_dims, check_vec_dims, spmv_block, spmv_rows};
use crate::error::SparseError;
use crate::mem::MemBytes;
use crate::pattern::{Idx, Pattern};
use crate::storage::Storage;
use crate::{Csr, Result};
use std::cell::RefCell;

/// The most distinct values a value table holds: every `u16` code.
pub const MAX_TABLE_LEN: usize = 1 << 16;

/// How a [`CodedCsr`] stores its values.
#[derive(Debug, Clone)]
pub enum CodedValues {
    /// One `f64` per non-zero.
    Plain(Storage<f64>),
    /// The distinct values, in first-occurrence order, and one index into
    /// them per non-zero.
    Coded {
        /// The distinct values (at most [`MAX_TABLE_LEN`]).
        table: Storage<f64>,
        /// Per non-zero, the index of its value in `table`.
        codes: Storage<u16>,
    },
}

impl CodedValues {
    /// Checks that every code indexes the value table (`O(nnz)`; trivially
    /// true for plain values).
    ///
    /// # Errors
    /// [`SparseError::Parse`] naming the first code out of range.
    pub fn check_codes(&self) -> Result<()> {
        if let CodedValues::Coded { table, codes } = self {
            if let Some(k) = codes.iter().position(|&c| c as usize >= table.len()) {
                return Err(SparseError::Parse(format!(
                    "value code {} at non-zero {k} is past the {}-entry value table",
                    codes[k],
                    table.len()
                )));
            }
        }
        Ok(())
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

    /// Number of values stored, one per non-zero.
    fn len(&self) -> usize {
        match self {
            CodedValues::Plain(v) => v.len(),
            CodedValues::Coded { codes, .. } => codes.len(),
        }
    }

    /// The value of non-zero `k`.
    #[inline]
    fn get(&self, k: usize) -> f64 {
        match self {
            CodedValues::Plain(v) => v[k],
            CodedValues::Coded { table, codes } => table[codes[k] as usize],
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

/// A read-only CSR matrix whose values are stored plain or value-coded
/// and whose pattern is stored wide or narrow (see the module doc).
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
    pattern: Pattern,
    values: CodedValues,
}

impl CodedCsr {
    /// Stores `a` value-coded when its distinct values (by bit pattern, so
    /// `0.0` and `-0.0`, and NaNs with different payloads, stay apart)
    /// number at most [`MAX_TABLE_LEN`], and plain otherwise; and its
    /// pattern narrow when it fits one ([`Pattern::narrowed`]). A wide
    /// pattern, and plain values, are `a`'s arrays, shared.
    pub fn encode(a: &Csr) -> Self {
        let pattern = a.pattern().narrowed(a.ncols());
        let values = match encode_values(a.values()) {
            Some((table, codes)) => CodedValues::Coded {
                table: table.into(),
                codes: codes.into(),
            },
            None => CodedValues::Plain(a.value_storage()),
        };
        Self {
            nrows: a.nrows(),
            ncols: a.ncols(),
            pattern,
            values,
        }
    }

    /// Builds a matrix from [`Storage`]-backed parts, in either pattern
    /// form — the constructor for matrices decoded from an index file —
    /// with `O(1)` shape checks only: the row-pointer length and end
    /// points, one value (or code) per non-zero, and a table of at most
    /// [`MAX_TABLE_LEN`] entries.
    ///
    /// As for [`Csr::from_parts_storage_trusted`], the entries are
    /// trusted: a column or row pointer out of range surfaces as a clean
    /// panic on use, never undefined behaviour. A loader that reads every
    /// byte anyway calls [`Pattern::check_indptr`],
    /// [`Pattern::check_indices`] and [`CodedValues::check_codes`] first.
    ///
    /// # Errors
    /// [`SparseError::VectorLength`] or [`SparseError::Parse`] naming the
    /// first check that fails.
    pub fn from_parts_storage_trusted(
        nrows: usize,
        ncols: usize,
        pattern: Pattern,
        values: CodedValues,
    ) -> Result<Self> {
        crate::coo::check_dims(nrows, ncols)?;
        if pattern.indptr_len() != nrows + 1 {
            return Err(SparseError::VectorLength {
                expected: nrows + 1,
                actual: pattern.indptr_len(),
            });
        }
        let nnz = pattern.nnz();
        if values.len() != nnz {
            return Err(SparseError::VectorLength {
                expected: nnz,
                actual: values.len(),
            });
        }
        if let CodedValues::Coded { table, .. } = &values {
            if table.len() > MAX_TABLE_LEN {
                return Err(SparseError::Parse(format!(
                    "value table holds {} entries, more than the {MAX_TABLE_LEN} a u16 code \
                     can index",
                    table.len()
                )));
            }
        }
        if pattern.row_ptr(0) != 0 || pattern.row_ptr(nrows) != nnz {
            return Err(SparseError::Parse(format!(
                "indptr must start at 0 and end at nnz={nnz}"
            )));
        }
        let m = Self {
            nrows,
            ncols,
            pattern,
            values,
        };
        debug_assert!(m.values.check_codes().is_ok(), "value code out of range");
        debug_assert!(
            m.to_csr().check_invariants().is_ok(),
            "CSR invariants violated"
        );
        Ok(m)
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

    /// The row pointers and column indices, wide or narrow. Clone it to
    /// share it (as the ILU(0) factors do).
    #[inline]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// How the values are stored.
    #[inline]
    pub fn values(&self) -> &CodedValues {
        &self.values
    }

    /// True when the values are value-coded rather than plain.
    #[inline]
    pub fn is_coded(&self) -> bool {
        matches!(self.values, CodedValues::Coded { .. })
    }

    /// Iterates over the `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.pattern
            .row_range(i)
            .map(move |k| (self.pattern.col(k), self.values.get(k)))
    }

    /// The matrix as a [`Csr`]: a wide pattern and plain values are
    /// shared, a narrow pattern is widened and codes are decoded.
    pub fn to_csr(&self) -> Csr {
        let values = match &self.values {
            CodedValues::Plain(v) => v.clone(),
            CodedValues::Coded { table, codes } => {
                let table = table.as_slice();
                codes
                    .iter()
                    .map(|&c| table[c as usize])
                    .collect::<Vec<_>>()
                    .into()
            }
        };
        let (indptr, indices) = self.pattern.to_wide();
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
        match &self.pattern {
            Pattern::Wide { indptr, indices } => spmv(indptr, indices, &self.values, x, y),
            Pattern::Narrow { indptr, indices } => spmv(indptr, indices, &self.values, x, y),
        }
        Ok(())
    }

    /// `Y = A X` for `width` row-interleaved vectors, bit-identical per
    /// lane to [`CodedCsr::mul_vec_into`] (see [`Csr::mul_block_into`]).
    pub fn mul_block_into(&self, x: &[f64], y: &mut [f64], width: usize) -> Result<()> {
        check_block_dims(self.shape(), x, y, width)?;
        match &self.pattern {
            Pattern::Wide { indptr, indices } => {
                block_spmv(indptr, indices, &self.values, x, y, width)
            }
            Pattern::Narrow { indptr, indices } => {
                block_spmv(indptr, indices, &self.values, x, y, width)
            }
        }
        Ok(())
    }

    /// Bytes of heap memory held.
    pub fn heap_bytes(&self) -> usize {
        self.pattern.heap_bytes() + self.values.heap_bytes()
    }

    /// Bytes served zero-copy from a mapped index file.
    pub fn mapped_bytes(&self) -> usize {
        self.pattern.mapped_bytes() + self.values.mapped_bytes()
    }
}

/// [`CodedCsr::mul_vec_into`] on one pattern form: [`spmv_rows`] reading
/// `values` as stored.
fn spmv<P: Idx, C: Idx>(
    indptr: &[P],
    indices: &[C],
    values: &CodedValues,
    x: &[f64],
    y: &mut [f64],
) {
    match values {
        CodedValues::Plain(v) => spmv_rows(indptr, indices, v, |v| v, x, y),
        CodedValues::Coded { table, codes } => with_wide_table(table, |wide| {
            spmv_rows(indptr, indices, codes, |c| wide[c as usize], x, y)
        }),
    }
}

/// [`CodedCsr::mul_block_into`] on one pattern form: [`spmv_block`]
/// reading `values` as stored.
fn block_spmv<P: Idx, C: Idx>(
    indptr: &[P],
    indices: &[C],
    values: &CodedValues,
    x: &[f64],
    y: &mut [f64],
    width: usize,
) {
    match values {
        CodedValues::Plain(v) => spmv_block(indptr, indices, v, |v| v, x, y, width),
        CodedValues::Coded { table, codes } => with_wide_table(table, |wide| {
            spmv_block(indptr, indices, codes, |c| wide[c as usize], x, y, width)
        }),
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
    /// Pattern plus values: `8·(nrows+1) + 4·nnz` wide or
    /// `4·(nrows+1) + 2·nnz` narrow, and then `8·nnz` plain or
    /// `8·|table| + 2·nnz` coded.
    fn mem_bytes(&self) -> usize {
        self.pattern.mem_bytes() + self.values.mem_bytes()
    }
}

impl PartialEq for CodedCsr {
    /// The same matrix, however it is stored: equal shapes and patterns
    /// (at either width), and equal values entry by entry (as `f64`s, like
    /// [`Csr`]'s equality).
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape()
            && self.pattern == other.pattern
            && (0..self.nnz()).all(|k| self.values.get(k) == other.values.get(k))
    }
}

/// The value table and codes of `values`, or `None` when they hold more
/// than [`MAX_TABLE_LEN`] distinct bit patterns.
///
/// Open addressing with linear probing over a power-of-two slot array at
/// most half full, keyed by `to_bits()` and hashed multiplicatively
/// (Fibonacci hashing: the top bits of `bits · 2⁶⁴/φ`). The table lists
/// each value at its first occurrence, so one matrix always encodes to
/// the same bytes, and it holds no spare capacity.
fn encode_values(values: &[f64]) -> Option<(Vec<f64>, Vec<u16>)> {
    const EMPTY: u32 = u32::MAX;
    let slots_len = (2 * values.len().min(MAX_TABLE_LEN))
        .next_power_of_two()
        .max(2);
    let shift = 64 - slots_len.trailing_zeros();
    let mut slots = vec![EMPTY; slots_len];
    let mut table: Vec<f64> = Vec::new();
    let mut codes = Vec::with_capacity(values.len());
    for &v in values {
        let bits = v.to_bits();
        let mut h = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        let code = loop {
            match slots[h] {
                EMPTY => {
                    if table.len() == MAX_TABLE_LEN {
                        return None;
                    }
                    let code = table.len() as u32;
                    slots[h] = code;
                    table.push(v);
                    break code;
                }
                code if table[code as usize].to_bits() == bits => break code,
                _ => h = (h + 1) & (slots_len - 1),
            }
        };
        codes.push(code as u16);
    }
    table.shrink_to_fit();
    Some((table, codes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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
                a.pattern().clone(),
                CodedValues::Coded {
                    table: table.into(),
                    codes: codes.into(),
                },
            )
        };
        assert!(part(vec![1.0, 2.0], vec![0, 1]).is_ok());
        assert!(
            part(vec![1.0], vec![0]).is_err(),
            "one code for two non-zeros"
        );
        assert!(part(vec![0.0; MAX_TABLE_LEN + 1], vec![0, 1]).is_err());
        let bad = CodedCsr {
            values: CodedValues::Coded {
                table: vec![1.0].into(),
                codes: vec![0, 1].into(),
            },
            ..a.clone()
        };
        let err = bad.values().check_codes().unwrap_err().to_string();
        assert!(err.contains("value code 1 at non-zero 1"), "{err}");
        assert!(a.values().check_codes().is_ok());
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

    /// A code past the end of its table (a corrupt mapped file) reads NaN,
    /// so the product is visibly poisoned rather than quietly wrong.
    #[test]
    fn coded_code_past_the_table_poisons_the_product() {
        let a = CodedCsr::encode(&tridiagonal(2.0, -0.5));
        let bad = CodedCsr {
            values: CodedValues::Coded {
                table: vec![2.0].into(),
                codes: vec![0, 1, 0, 1, 0].into(),
            },
            ..a
        };
        let y = bad.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y[0], 2.0);
        assert!(y[1].is_nan() && y[2].is_nan(), "{y:?}");
    }
}
