//! Sparse matrix × sparse matrix multiplication (Gustavson's algorithm).
//!
//! The Schur complement `S = H22 − H21 (U1^{-1} (L1^{-1} H12))` of
//! Algorithms 1 and 3 is a chain of sparse products; this row-wise kernel
//! with a dense accumulator ("sparse accumulator" / SPA) is the standard
//! way to compute them in `O(Σ flops)`.
//!
//! The parallel variant partitions output rows by the left operand's nnz
//! prefix sums, runs the identical per-row Gustavson body on each range
//! with a thread-private accumulator, and concatenates the per-range
//! results in row order — so it is bit-identical to the serial kernel at
//! any thread count.

use crate::error::SparseError;
use crate::{Csr, Result};

/// Minimum `nnz(A)` before [`spgemm`] fans out to threads.
const PAR_SPGEMM_MIN_NNZ: usize = 8_192;

/// Computes `C = A * B` for CSR operands.
///
/// Entries that cancel to exactly zero are kept out of the output, so
/// `nnz(C)` reflects genuine structural fill.
///
/// Runs on [`bepi_par::get_threads`] threads when `A` is large enough to
/// amortize the spawns; see [`spgemm_threads`] to pin the count.
pub fn spgemm(a: &Csr, b: &Csr) -> Result<Csr> {
    gustavson(a, b, None, default_threads(a))
}

/// [`spgemm`] with an explicit thread count, bypassing both the global
/// knob and the size threshold (tests and benchmarks pin thread counts
/// through this; `threads <= 1` is the serial kernel).
pub fn spgemm_threads(a: &Csr, b: &Csr, threads: usize) -> Result<Csr> {
    gustavson(a, b, None, threads)
}

/// Computes `C − A * B` in the product's row pass — the Schur complement
/// `S = H22 − H21 X` without materialising `H21 X`.
///
/// Each row of `A * B` is finished exactly as [`spgemm`] finishes it
/// (exact zeros dropped), then merged with the same row of `C` exactly
/// as [`crate::ops::sub`] merges (`1·c + (−1)·p`, exact zeros dropped), so
/// the result is bit-identical to `ops::sub(c, &spgemm(a, b)?)`. Threads
/// as [`spgemm`].
pub fn sub_spgemm(c: &Csr, a: &Csr, b: &Csr) -> Result<Csr> {
    gustavson(a, b, Some(c), default_threads(a))
}

fn default_threads(a: &Csr) -> usize {
    if a.nnz() < PAR_SPGEMM_MIN_NNZ {
        1
    } else {
        bepi_par::get_threads()
    }
}

/// `A * B`, or `minuend − A * B`, on `threads` threads.
fn gustavson(a: &Csr, b: &Csr, minuend: Option<&Csr>, threads: usize) -> Result<Csr> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "spgemm",
        });
    }
    let nrows = a.nrows();
    let ncols = b.ncols();
    if let Some(c) = minuend {
        if c.shape() != (nrows, ncols) {
            return Err(SparseError::ShapeMismatch {
                left: c.shape(),
                right: (nrows, ncols),
                op: "add_scaled",
            });
        }
    }
    if threads <= 1 || nrows <= 1 {
        let (row_ends, indices, values) = spgemm_rows(a, b, minuend, 0..nrows);
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0usize);
        indptr.extend(row_ends);
        return Ok(Csr::from_parts_unchecked(
            nrows, ncols, indptr, indices, values,
        ));
    }
    // Balance output rows by nnz(A) per row — a proxy for the flops each
    // row of the product costs — plus, when subtracting, the minuend's
    // row nnz that the merge walks.
    let ranges = match minuend {
        None => bepi_par::balanced_ranges(a.indptr(), threads),
        Some(c) => {
            let work: Vec<usize> = a
                .indptr()
                .iter()
                .zip(c.indptr())
                .map(|(x, y)| x + y)
                .collect();
            bepi_par::balanced_ranges(&work, threads)
        }
    };
    let parts = bepi_par::par_join(
        ranges
            .iter()
            .map(|r| {
                let r = r.clone();
                move || spgemm_rows(a, b, minuend, r)
            })
            .collect::<Vec<_>>(),
    );
    // Concatenate in range order: offsets depend only on the partition,
    // never on completion order.
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0usize);
    let total: usize = parts.iter().map(|(_, idx, _)| idx.len()).sum();
    let mut indices: Vec<u32> = Vec::with_capacity(total);
    let mut values: Vec<f64> = Vec::with_capacity(total);
    for (row_ends, part_indices, part_values) in parts {
        let base = indices.len();
        indptr.extend(row_ends.iter().map(|e| base + e));
        indices.extend_from_slice(&part_indices);
        values.extend_from_slice(&part_values);
    }
    Ok(Csr::from_parts_unchecked(
        nrows, ncols, indptr, indices, values,
    ))
}

/// The Gustavson row body over `rows`, with a private sparse accumulator,
/// optionally subtracted from `minuend`'s rows. Returns per-row
/// cumulative nnz (relative to the range start) plus the concatenated
/// column indices and values for those rows.
fn spgemm_rows(
    a: &Csr,
    b: &Csr,
    minuend: Option<&Csr>,
    rows: std::ops::Range<usize>,
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let ncols = b.ncols();
    // Output bound: the minuend's entries plus one per multiply-add.
    let bound: usize = rows
        .clone()
        .map(|i| {
            let flops: usize = a.row(i).0.iter().map(|&k| b.row_nnz(k as usize)).sum();
            flops + minuend.map_or(0, |c| c.row_nnz(i))
        })
        .sum();
    let mut row_ends = Vec::with_capacity(rows.len());
    let mut indices: Vec<u32> = Vec::with_capacity(bound);
    let mut values: Vec<f64> = Vec::with_capacity(bound);

    // Sparse accumulator: dense value array + occupancy marks + touched list.
    let mut acc = vec![0.0f64; ncols];
    let mut mark = vec![false; ncols];
    let mut touched: Vec<u32> = Vec::new();

    for i in rows {
        touched.clear();
        for (k, aik) in a.row_iter(i) {
            if aik == 0.0 {
                continue;
            }
            let (bc, bv) = b.row(k);
            for (idx, &j) in bc.iter().enumerate() {
                let ju = j as usize;
                if !mark[ju] {
                    mark[ju] = true;
                    touched.push(j);
                }
                acc[ju] += aik * bv[idx];
            }
        }
        touched.sort_unstable();
        // The minuend's row, merged in column order; empty for a plain
        // product.
        let (cc, cv) = minuend.map_or((&[][..], &[][..]), |c| c.row(i));
        let mut q = 0usize;
        for &j in &touched {
            let ju = j as usize;
            let p = acc[ju];
            acc[ju] = 0.0;
            mark[ju] = false;
            if p == 0.0 {
                continue; // a cancelled product entry is not stored
            }
            while q < cc.len() && cc[q] < j {
                push_nonzero(&mut indices, &mut values, cc[q], cv[q]);
                q += 1;
            }
            if minuend.is_none() {
                push_nonzero(&mut indices, &mut values, j, p);
            } else if q < cc.len() && cc[q] == j {
                // `h − p` is the IEEE sum `1·h + (−1)·p` of `ops::sub`.
                push_nonzero(&mut indices, &mut values, j, cv[q] - p);
                q += 1;
            } else {
                push_nonzero(&mut indices, &mut values, j, -p);
            }
        }
        for q in q..cc.len() {
            push_nonzero(&mut indices, &mut values, cc[q], cv[q]);
        }
        row_ends.push(indices.len());
    }
    (row_ends, indices, values)
}

fn push_nonzero(indices: &mut Vec<u32>, values: &mut Vec<f64>, col: u32, v: f64) {
    if v != 0.0 {
        indices.push(col);
        values.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coo, Dense};

    fn m(entries: &[(usize, usize, f64)], shape: (usize, usize)) -> Csr {
        let mut coo = Coo::new(shape.0, shape.1).unwrap();
        for &(r, c, v) in entries {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(&[(0, 1, 2.0), (1, 0, 3.0), (1, 1, -1.0)], (2, 2));
        let i = Csr::identity(2);
        assert_eq!(spgemm(&a, &i).unwrap(), a);
        assert_eq!(spgemm(&i, &a).unwrap(), a);
    }

    #[test]
    fn known_product() {
        let a = m(&[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)], (2, 2));
        let b = m(&[(0, 1, 1.0), (1, 0, 4.0)], (2, 2));
        // A*B = [[8, 1], [12, 0]]
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.get(0, 0), 8.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 0), 12.0);
        assert_eq!(c.get(1, 1), 0.0);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn rectangular_shapes() {
        let a = m(&[(0, 2, 1.0), (1, 0, 2.0)], (2, 3));
        let b = m(&[(0, 0, 1.0), (2, 1, 5.0)], (3, 2));
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 1), 5.0);
        assert_eq!(c.get(1, 0), 2.0);
    }

    #[test]
    fn incompatible_shapes_rejected() {
        let a = m(&[], (2, 3));
        let b = m(&[], (2, 2));
        assert!(spgemm(&a, &b).is_err());
    }

    #[test]
    fn matches_dense_reference_on_random_like_pattern() {
        let a = m(
            &[
                (0, 0, 1.5),
                (0, 3, -2.0),
                (1, 1, 0.5),
                (2, 0, 1.0),
                (2, 2, 2.0),
                (3, 3, -1.0),
            ],
            (4, 4),
        );
        let b = m(
            &[
                (0, 1, 2.0),
                (1, 1, -1.0),
                (2, 3, 4.0),
                (3, 0, 0.5),
                (3, 2, 3.0),
            ],
            (4, 4),
        );
        let c = spgemm(&a, &b).unwrap();
        let dense_ref = dense_mul(&a.to_dense(), &b.to_dense());
        assert!(c.to_dense().max_abs_diff(&dense_ref).unwrap() < 1e-14);
        c.check_invariants().unwrap();
    }

    fn dense_mul(a: &Dense, b: &Dense) -> Dense {
        a.mul(b).unwrap()
    }

    #[test]
    fn cancellation_not_stored() {
        let a = m(&[(0, 0, 1.0), (0, 1, 1.0)], (1, 2));
        let b = m(&[(0, 0, 1.0), (1, 0, -1.0)], (2, 1));
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn empty_operands() {
        let a = Csr::zeros(3, 3);
        let b = Csr::identity(3);
        assert_eq!(spgemm(&a, &b).unwrap().nnz(), 0);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let a = m(
            &[
                (0, 0, 1.5),
                (0, 3, -2.0),
                (1, 1, 0.5),
                (2, 0, 1.0),
                (2, 2, 2.0),
                (3, 3, -1.0),
                (4, 0, 0.25),
                (4, 4, 1.0),
            ],
            (5, 5),
        );
        let b = m(
            &[
                (0, 1, 2.0),
                (1, 1, -1.0),
                (2, 3, 4.0),
                (3, 0, 0.5),
                (3, 2, 3.0),
                (4, 4, -2.5),
            ],
            (5, 5),
        );
        let serial = spgemm_threads(&a, &b, 1).unwrap();
        for t in [2, 3, 8] {
            assert_eq!(spgemm_threads(&a, &b, t).unwrap(), serial);
        }
        serial.check_invariants().unwrap();
    }

    #[test]
    fn sub_spgemm_is_bit_identical_to_sub_of_product() {
        // Rows cover: product-only entries, minuend-only entries, overlaps,
        // an overlap that cancels to exactly zero (row 0, col 1: 2 − 1·2),
        // a product entry that cancels inside the accumulator (row 1,
        // col 0) and an explicit zero in the minuend (row 3, col 3).
        let a = m(
            &[
                (0, 0, 1.0),
                (0, 2, 0.1),
                (1, 1, 1.0),
                (1, 2, -1.0),
                (2, 0, 0.3),
                (2, 3, 0.7),
                (3, 2, 1e-3),
                (4, 4, 2.5),
            ],
            (5, 5),
        );
        let b = m(
            &[
                (0, 1, 2.0),
                (0, 4, 0.2),
                (1, 0, 1.5),
                (2, 0, 1.5),
                (2, 3, 0.3),
                (3, 2, -4.0),
                (4, 4, 1.0 / 3.0),
            ],
            (5, 5),
        );
        let c = Csr::from_parts(
            5,
            5,
            vec![0, 3, 4, 5, 7, 8],
            vec![0, 1, 3, 2, 2, 0, 3, 4],
            vec![0.5, 2.0, 1.0, 4.0, 0.1, 1.0, 0.0, 1.0],
        )
        .unwrap();
        let want = crate::ops::sub(&c, &spgemm(&a, &b).unwrap()).unwrap();
        let bits = |x: &Csr| x.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(want.get(0, 1), 0.0, "the cancelling entry is dropped");
        for threads in [1, 2, 3, 8] {
            let got = gustavson(&a, &b, Some(&c), threads).unwrap();
            assert_eq!(got.indptr(), want.indptr(), "threads {threads}");
            assert_eq!(got.indices(), want.indices(), "threads {threads}");
            assert_eq!(bits(&got), bits(&want), "threads {threads}");
        }
        assert_eq!(sub_spgemm(&c, &a, &b).unwrap(), want);
        assert!(sub_spgemm(&Csr::zeros(4, 5), &a, &b).is_err());
        assert!(sub_spgemm(&c, &a, &Csr::zeros(4, 5)).is_err());
    }
}
