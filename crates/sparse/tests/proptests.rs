//! Property-based tests for the sparse substrate: format round-trips,
//! kernel agreement with dense references, permutation algebra.

use bepi_sparse::coded::MAX_TABLE_LEN;
use bepi_sparse::pattern::MAX_NARROW_COLS;
use bepi_sparse::{
    ops, spgemm, vecops, CodedCsr, CodedValues, Coo, Csc, Csr, Dense, MatrixValues, Pattern,
    Permutation, BLOCK_WIDTH,
};
use proptest::prelude::*;

/// Strategy: a random sparse matrix as (nrows, ncols, triplets).
fn coo_strategy(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr as u32, 0..nc as u32, -10.0f64..10.0), 0..=max_nnz)
            .prop_map(move |trip| {
                let mut coo = Coo::new(nr, nc).unwrap();
                for (r, c, v) in trip {
                    coo.push(r as usize, c as usize, v).unwrap();
                }
                coo
            })
    })
}

fn square_csr_strategy(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (2..=max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, -5.0f64..5.0), 0..=max_nnz).prop_map(
            move |trip| {
                let mut coo = Coo::new(n, n).unwrap();
                for (r, c, v) in trip {
                    coo.push(r as usize, c as usize, v).unwrap();
                }
                coo.to_csr()
            },
        )
    })
}

/// Strategy: two same-shaped square CSR matrices.
fn pair_strategy(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr, Csr)> {
    (2..=max_dim).prop_flat_map(move |n| {
        let one = move || {
            proptest::collection::vec((0..n as u32, 0..n as u32, -5.0f64..5.0), 0..=max_nnz)
                .prop_map(move |trip| {
                    let mut coo = Coo::new(n, n).unwrap();
                    for (r, c, v) in trip {
                        coo.push(r as usize, c as usize, v).unwrap();
                    }
                    coo.to_csr()
                })
        };
        (one(), one())
    })
}

fn permutation_strategy(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut v: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates with proptest's rng for shrink-stability.
        for i in (1..n).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        Permutation::from_new_of_old(v).unwrap()
    })
}

/// The full sort `top_k_indices` used before it became a selection, kept
/// as the oracle: score descending, ties by index ascending.
fn top_k_by_full_sort(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

proptest! {
    #[test]
    fn coo_csr_dense_roundtrip(coo in coo_strategy(12, 40)) {
        let csr = coo.to_csr();
        csr.check_invariants().unwrap();
        // Dense reference: sum duplicates.
        let mut dense = Dense::zeros(coo.nrows(), coo.ncols());
        for (r, c, v) in coo.iter() {
            dense[(r, c)] += v;
        }
        // CSR drops exact zeros; compare value-wise.
        prop_assert!(csr.to_dense().max_abs_diff(&dense).unwrap() < 1e-12);
    }

    #[test]
    fn csc_equals_csr(coo in coo_strategy(10, 30)) {
        let csr = coo.to_csr();
        let csc = Csc::from_coo(&coo);
        // Duplicate triplets may be summed in a different order on the two
        // paths, so compare with a tolerance rather than bit-exactly.
        let back = csc.to_csr();
        prop_assert_eq!(back.shape(), csr.shape());
        prop_assert!(back.to_dense().max_abs_diff(&csr.to_dense()).unwrap() < 1e-9);
    }

    #[test]
    fn transpose_is_involution(coo in coo_strategy(10, 30)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn spmv_matches_dense(coo in coo_strategy(10, 30), seed in 0u64..1000) {
        let csr = coo.to_csr();
        let x: Vec<f64> = (0..csr.ncols())
            .map(|i| ((seed as f64) * 0.37 + i as f64 * 1.11).sin())
            .collect();
        let sparse_y = csr.mul_vec(&x).unwrap();
        let dense_y = csr.to_dense().mul_vec(&x).unwrap();
        for (a, b) in sparse_y.iter().zip(&dense_y) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn transposed_spmv_matches_transpose(coo in coo_strategy(10, 30)) {
        let csr = coo.to_csr();
        let x: Vec<f64> = (0..csr.nrows()).map(|i| (i as f64 * 0.7).cos()).collect();
        let via_kernel = csr.mul_vec_transposed(&x).unwrap();
        let via_materialized = csr.transpose().mul_vec(&x).unwrap();
        for (a, b) in via_kernel.iter().zip(&via_materialized) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn spgemm_matches_dense(pair in pair_strategy(8, 20)) {
        let (a, b) = pair;
        let c = spgemm(&a, &b).unwrap();
        let dense_ref = a.to_dense().mul(&b.to_dense()).unwrap();
        prop_assert!(c.to_dense().max_abs_diff(&dense_ref).unwrap() < 1e-10);
        c.check_invariants().unwrap();
    }

    #[test]
    fn add_sub_inverse(pair in pair_strategy(10, 30)) {
        let (a, b) = pair;
        let sum = ops::add(&a, &b).unwrap();
        let back = ops::sub(&sum, &b).unwrap();
        prop_assert!(back.to_dense().max_abs_diff(&a.to_dense()).unwrap() < 1e-12);
    }

    #[test]
    fn row_normalize_is_stochastic(coo in coo_strategy(10, 40)) {
        // Use absolute values so row sums can't cancel to zero.
        let mut abs = Coo::new(coo.nrows(), coo.ncols()).unwrap();
        for (r, c, v) in coo.iter() {
            abs.push(r, c, v.abs() + 0.1).unwrap();
        }
        let mut m = abs.to_csr();
        m.row_normalize();
        for r in 0..m.nrows() {
            let sum: f64 = m.row(r).1.iter().sum();
            prop_assert!(m.row_nnz(r) == 0 || (sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn permutation_roundtrips(p in (1usize..30).prop_flat_map(permutation_strategy)) {
        let n = p.len();
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let pv = p.permute_vec(&v).unwrap();
        prop_assert_eq!(p.unpermute_vec(&pv).unwrap(), v);
    }

    #[test]
    fn symmetric_permutation_conjugates_spmv(
        a in square_csr_strategy(12, 50),
    ) {
        let n = a.nrows();
        // Deterministic derangement-ish permutation: rotate by 1.
        let rot: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let p = Permutation::from_new_of_old(rot).unwrap();
        let b = p.permute_symmetric(&a).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5).sin()).collect();
        let lhs = b.mul_vec(&p.permute_vec(&x).unwrap()).unwrap();
        let rhs = p.permute_vec(&a.mul_vec(&x).unwrap()).unwrap();
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn slice_blocks_tile_the_matrix(a in square_csr_strategy(10, 40), split in 0usize..10) {
        let n = a.nrows();
        let s = split.min(n);
        let b11 = a.slice_block(0..s, 0..s).unwrap();
        let b12 = a.slice_block(0..s, s..n).unwrap();
        let b21 = a.slice_block(s..n, 0..s).unwrap();
        let b22 = a.slice_block(s..n, s..n).unwrap();
        prop_assert_eq!(b11.nnz() + b12.nnz() + b21.nnz() + b22.nnz(), a.nnz());
        // Spot-check entries map back.
        for (r, c, v) in b21.iter() {
            prop_assert_eq!(a.get(r + s, c), v);
        }
    }

    // Selection must return exactly the head of the full sort, ties and
    // duplicates included, for every k.
    #[test]
    fn top_k_matches_full_sort_oracle(
        // Scores drawn from a handful of levels, so ties are the rule;
        // `levels = 1` is the all-equal vector.
        (scores, k) in (1usize..6, 0usize..60).prop_flat_map(|(levels, n)| {
            let score = (0..levels).prop_map(|l| [0.25, -1.0, 0.0, -0.0, 3.5][l]);
            (proptest::collection::vec(score, n..=n), 0usize..n + 6)
        }),
    ) {
        let n = scores.len();
        for k in [0, 1, n, n + 5, k] {
            prop_assert_eq!(vecops::top_k_indices(&scores, k), top_k_by_full_sort(&scores, k), "k = {}", k);
        }
    }

    #[test]
    fn top_k_matches_full_sort_oracle_on_distinct_scores(
        scores in proptest::collection::vec(-1.0f64..1.0, 0..200),
        k in 0usize..210,
    ) {
        prop_assert_eq!(vecops::top_k_indices(&scores, k), top_k_by_full_sort(&scores, k));
    }

    #[test]
    fn top_k_is_sorted_descending(scores in proptest::collection::vec(-1.0f64..1.0, 1..50), k in 1usize..10) {
        let idx = vecops::top_k_indices(&scores, k);
        for w in idx.windows(2) {
            prop_assert!(scores[w[0]] >= scores[w[1]]);
        }
        prop_assert_eq!(idx.len(), k.min(scores.len()));
    }

    // The parallel SpGEMM partitions rows and runs the same serial body
    // per partition, so it must agree with the serial path bit-for-bit —
    // not merely within tolerance — at every thread count.
    #[test]
    fn parallel_spgemm_is_bit_identical(pair in pair_strategy(24, 160)) {
        let (a, b) = pair;
        let serial = spgemm::spgemm_threads(&a, &b, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let par = spgemm::spgemm_threads(&a, &b, threads).unwrap();
            par.check_invariants().unwrap();
            prop_assert_eq!(&par, &serial, "spgemm differs at {} threads", threads);
        }
    }
}

/// Directed skew cases the random strategies rarely hit: rows with no
/// entries at all, and one row holding almost every nonzero (the balanced
/// partitioner then assigns most threads a single row or an empty range).
#[test]
fn parallel_kernels_bit_identical_on_skewed_shapes() {
    let n = 64usize;

    // Shape 1: every row empty except the last.
    let mut tail = Coo::new(n, n).unwrap();
    for c in 0..n {
        tail.push(n - 1, c, (c as f64 * 0.17).sin() + 0.01).unwrap();
    }

    // Shape 2: one row dominates (n·4 entries), the rest hold one each,
    // with a band of fully empty rows in the middle.
    let mut skew = Coo::new(n, n).unwrap();
    for k in 0..4 * n {
        skew.push(7, k % n, (k as f64 * 0.31).cos()).unwrap();
    }
    for r in 0..n {
        if !(20..40).contains(&r) && r != 7 {
            skew.push(r, (r * 3) % n, 1.0 + r as f64 * 0.05).unwrap();
        }
    }

    for coo in [tail, skew] {
        let m = coo.to_csr();
        let gram_serial = spgemm::spgemm_threads(&m, &m, 1).unwrap();
        for threads in [2usize, 3, 8, 64] {
            let gram_par = spgemm::spgemm_threads(&m, &m, threads).unwrap();
            assert_eq!(
                gram_par, gram_serial,
                "skewed spgemm differs at {threads} threads"
            );
        }
    }
}

/// Values the value-coded kernels must carry bit for bit: both zeros,
/// subnormals, magnitudes near the ends of the f64 range, and ordinary
/// fractions. Drawn from a pool so that values repeat, as in BePI's `S`.
const CODED_POOL: [f64; 11] = [
    -0.0,
    0.0,
    5e-324,
    -2.225e-308,
    1e300,
    -1e300,
    -1e-300,
    1e-300,
    0.5,
    -0.25,
    -0.047_5,
];

/// Strategy: a CSR built straight from parts (so stored `-0.0`s and
/// `0.0`s survive, which `Coo` compression would drop), with empty rows,
/// and values mostly from [`CODED_POOL`] and otherwise arbitrary.
fn coded_source_strategy(max_dim: usize) -> impl Strategy<Value = Csr> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(nr, nc)| {
        // (column, pool slot or none, arbitrary value) per entry: three in
        // four entries take their value from the pool.
        let entry = (0..nc as u32, 0..4 * CODED_POOL.len() / 3, -1e3f64..1e3);
        let row = proptest::collection::vec(entry, 0..=nc.min(6));
        proptest::collection::vec(row, nr).prop_map(move |rows| {
            let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
            for mut row in rows {
                row.sort_by_key(|e| e.0);
                row.dedup_by_key(|e| e.0);
                for (c, slot, v) in row {
                    indices.push(c);
                    values.push(CODED_POOL.get(slot).copied().unwrap_or(v));
                }
                indptr.push(indices.len());
            }
            Csr::from_parts(nr, nc, indptr, indices, values).unwrap()
        })
    })
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `width` row-interleaved lanes of `ncols` entries each, with the
/// specials of [`CODED_POOL`] mixed in.
fn coded_lanes(ncols: usize, width: usize, seed: u64) -> Vec<f64> {
    (0..ncols * width)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            if h % 5 == 0 {
                CODED_POOL[(h >> 8) as usize % CODED_POOL.len()]
            } else {
                ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3
            }
        })
        .collect()
}

proptest! {
    /// The value-coded SpMV reads `table[code]` where `Csr` reads the
    /// value, and sums in the same order: every output bit matches.
    #[test]
    fn coded_spmv_is_bit_identical_to_csr(a in coded_source_strategy(14), seed in 0u64..1000) {
        let s = CodedCsr::encode(&a);
        prop_assert!(s.is_coded());
        let x = coded_lanes(a.ncols(), 1, seed);
        let (mut want, mut got) = (vec![0.0; a.nrows()], vec![f64::NAN; a.nrows()]);
        a.mul_vec_into(&x, &mut want).unwrap();
        s.mul_vec_into(&x, &mut got).unwrap();
        prop_assert_eq!(to_bits(&got), to_bits(&want));
    }

    /// The same for the lock-step kernel at every width.
    #[test]
    fn coded_block_spmv_is_bit_identical_to_csr(a in coded_source_strategy(14), seed in 0u64..1000) {
        let s = CodedCsr::encode(&a);
        for width in 1..=BLOCK_WIDTH {
            let x = coded_lanes(a.ncols(), width, seed);
            let mut want = vec![0.0; a.nrows() * width];
            let mut got = vec![f64::NAN; a.nrows() * width];
            a.mul_block_into(&x, &mut want, width).unwrap();
            s.mul_block_into(&x, &mut got, width).unwrap();
            prop_assert_eq!(to_bits(&got), to_bits(&want), "width {}", width);
        }
    }

    /// Decoding gives back the source matrix bit for bit. Its pattern,
    /// narrow at this size, is widened into new arrays.
    #[test]
    fn coded_to_csr_roundtrips_bit_for_bit(a in coded_source_strategy(14)) {
        let s = CodedCsr::encode(&a);
        prop_assert!(s.pattern().is_narrow());
        let back = s.to_csr();
        prop_assert_eq!(back.indptr(), a.indptr());
        prop_assert_eq!(back.indices(), a.indices());
        prop_assert_eq!(to_bits(back.values()), to_bits(a.values()));
        prop_assert!(!std::ptr::eq(back.indices(), a.indices()));
        for i in 0..a.nrows() {
            let got: Vec<(usize, u64)> = s.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
            let want: Vec<(usize, u64)> = a.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The table lists values in first-occurrence order, so two encodes of
    /// one matrix (or of an equal copy) are the same bytes.
    #[test]
    fn coded_encode_is_deterministic(a in coded_source_strategy(14)) {
        let copy = Csr::from_parts(
            a.nrows(), a.ncols(), a.indptr().to_vec(), a.indices().to_vec(), a.values().to_vec(),
        ).unwrap();
        let parts = |m: &Csr| match CodedValues::encode_all(&[m.value_storage()]).remove(0) {
            CodedValues::Coded { table, codes } => (to_bits(&table), codes.to_vec()),
            other => panic!("a small matrix must code per non-zero: {other:?}"),
        };
        let (table, codes) = parts(&a);
        prop_assert_eq!(&(table.clone(), codes.clone()), &parts(&copy));
        let mut seen = Vec::new();
        for &c in &codes {
            if c as usize == seen.len() {
                seen.push(c);
            }
            prop_assert!((c as usize) < seen.len(), "code {} before its first use", c);
        }
        prop_assert_eq!(seen.len(), table.len());
    }
}

/// `a` in every stored form it has: wide or narrow pattern; every row
/// or only the non-empty ones; plain values, codes per non-zero, or —
/// when every column of `a` holds one value — codes per column.
fn stored_forms(a: &Csr) -> Vec<(String, CodedCsr)> {
    let coded = CodedValues::encode_all(&[a.value_storage()]).remove(0);
    let plain = CodedValues::Plain(a.values().to_vec().into());
    let mut values = vec![
        ("plain", MatrixValues::Entries(plain)),
        ("coded", MatrixValues::Entries(coded.clone())),
    ];
    if let CodedValues::Coded { table, codes } = &coded {
        let mut by_col = vec![None; a.ncols()];
        let constant = a
            .indices()
            .iter()
            .zip(codes.iter())
            .all(|(&c, &code)| *by_col[c as usize].get_or_insert(code) == code);
        if constant && a.nnz() > 0 {
            let codes: Vec<u16> = by_col.iter().map(|c| c.unwrap_or(0)).collect();
            let table = table.clone();
            values.push((
                "per-column",
                MatrixValues::Columns {
                    table,
                    codes: codes.into(),
                },
            ));
        }
    }
    let indptr = a.indptr();
    let nonempty: Vec<u32> = (0..a.nrows() as u32)
        .filter(|&i| indptr[i as usize] < indptr[i as usize + 1])
        .collect();
    let stored_ptr: Vec<usize> = std::iter::once(0)
        .chain(nonempty.iter().map(|&i| indptr[i as usize + 1]))
        .collect();
    let stored = Pattern::Wide {
        indptr: stored_ptr.into(),
        indices: a.indices().to_vec().into(),
    };
    let mut forms = Vec::new();
    for (rows_name, rows, pattern) in [
        ("every row", None, a.pattern()),
        ("stored rows", Some(nonempty), stored),
    ] {
        for (width, pattern) in [
            ("wide", pattern.clone()),
            ("narrow", pattern.narrowed(a.ncols())),
        ] {
            for (value_name, values) in &values {
                let m = CodedCsr::from_parts_storage_trusted(
                    a.nrows(),
                    a.ncols(),
                    rows.clone().map(Into::into),
                    pattern.clone(),
                    values.clone(),
                )
                .unwrap();
                forms.push((format!("{width} {value_name}, {rows_name}"), m));
            }
        }
    }
    forms
}

/// Strategy: [`coded_source_strategy`] matrices, some with every
/// column's entries set to one value of [`CODED_POOL`] (as in a block of
/// `H`) and some with most rows emptied (as in `H31`).
fn compact_source_strategy() -> impl Strategy<Value = Csr> {
    (coded_source_strategy(14), 0u8..2, 0u8..2).prop_map(|(a, by_column, sparse_rows)| {
        let (by_column, sparse_rows) = (by_column == 1, sparse_rows == 1);
        let indptr = a.indptr();
        let (mut ptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..a.nrows() {
            if !(sparse_rows && i % 3 != 0) {
                for (c, v) in a.row_iter(i) {
                    indices.push(c as u32);
                    values.push(if by_column {
                        CODED_POOL[c % CODED_POOL.len()]
                    } else {
                        v
                    });
                }
            }
            ptr.push(indices.len());
        }
        debug_assert_eq!(indptr.len(), ptr.len());
        Csr::from_parts(a.nrows(), a.ncols(), ptr, indices, values).unwrap()
    })
}

/// [`coded_lanes`] with a NaN in about one lane entry in seven.
fn lanes_with_nan(ncols: usize, width: usize, seed: u64) -> Vec<f64> {
    let mut x = coded_lanes(ncols, width, seed);
    for (i, v) in x.iter_mut().enumerate() {
        if (i as u64 ^ seed) % 7 == 3 {
            *v = f64::NAN;
        }
    }
    x
}

proptest! {
    /// Every stored form — per-column codes and stored rows included —
    /// multiplies bit for bit like the plain `Csr`, single and at every
    /// lock-step width, on inputs with `-0.0`s and NaNs; a row that is not
    /// stored reads `+0.0`. Each form decodes back through `row_iter` and
    /// `to_csr`, and equals every other form.
    #[test]
    fn compact_every_form_matches_csr(a in compact_source_strategy(), seed in 0u64..1000) {
        let forms = stored_forms(&a);
        for (what, s) in &forms {
            let x = lanes_with_nan(a.ncols(), 1, seed);
            let (mut want, mut got) = (vec![0.0; a.nrows()], vec![f64::NAN; a.nrows()]);
            a.mul_vec_into(&x, &mut want).unwrap();
            s.mul_vec_into(&x, &mut got).unwrap();
            prop_assert_eq!(to_bits(&got), to_bits(&want), "{}", what);
            for width in 1..=BLOCK_WIDTH {
                let x = lanes_with_nan(a.ncols(), width, seed);
                let mut want = vec![0.0; a.nrows() * width];
                let mut got = vec![f64::NAN; a.nrows() * width];
                a.mul_block_into(&x, &mut want, width).unwrap();
                s.mul_block_into(&x, &mut got, width).unwrap();
                prop_assert_eq!(to_bits(&got), to_bits(&want), "{} width {}", what, width);
            }
            let back = s.to_csr();
            prop_assert_eq!(back.indptr(), a.indptr(), "{}", what);
            prop_assert_eq!(back.indices(), a.indices(), "{}", what);
            prop_assert_eq!(to_bits(back.values()), to_bits(a.values()), "{}", what);
            for i in 0..a.nrows() {
                let got: Vec<(usize, u64)> = s.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
                let want: Vec<(usize, u64)> = a.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
                prop_assert_eq!(got, want, "{} row {}", what, i);
            }
            prop_assert!(forms.iter().all(|(_, t)| t == s), "{}", what);
            prop_assert!(s.check_rows().is_ok() && s.values().check_codes().is_ok(), "{}", what);
        }
        // The encoder picks the form that stores the fewest bytes of those
        // it may choose: per-column codes only where they are fewer.
        let picked = CodedCsr::encode(&a);
        prop_assert_eq!(picked.to_csr(), a.clone());
        let per_column = forms.iter().any(|(what, _)| what.contains("per-column"));
        prop_assert_eq!(picked.is_per_column(), per_column && a.ncols() < a.nnz());
        let nonempty = (0..a.nrows()).filter(|&i| a.row_iter(i).next().is_some()).count();
        prop_assert_eq!(picked.stored_rows().is_some(), 2 * nonempty < a.nrows());
    }
}

proptest! {
    /// A narrow pattern reads each column as the same `usize` the wide one
    /// does, in the same order: with plain or coded values, the single
    /// and every lock-step width are bit-identical to `Csr`'s.
    #[test]
    fn narrow_spmv_is_bit_identical_to_csr(a in coded_source_strategy(14), seed in 0u64..1000) {
        for (what, s) in stored_forms(&a) {
            let x = coded_lanes(a.ncols(), 1, seed);
            let (mut want, mut got) = (vec![0.0; a.nrows()], vec![f64::NAN; a.nrows()]);
            a.mul_vec_into(&x, &mut want).unwrap();
            s.mul_vec_into(&x, &mut got).unwrap();
            prop_assert_eq!(to_bits(&got), to_bits(&want), "{}", what);
            for width in 1..=BLOCK_WIDTH {
                let x = coded_lanes(a.ncols(), width, seed);
                let mut want = vec![0.0; a.nrows() * width];
                let mut got = vec![f64::NAN; a.nrows() * width];
                a.mul_block_into(&x, &mut want, width).unwrap();
                s.mul_block_into(&x, &mut got, width).unwrap();
                prop_assert_eq!(to_bits(&got), to_bits(&want), "{} width {}", what, width);
            }
        }
    }

    /// Every form decodes to the source matrix bit for bit, through
    /// `to_csr` and row by row, and equals every other form.
    #[test]
    fn narrow_to_csr_and_row_iter_round_trip(a in coded_source_strategy(14)) {
        let forms = stored_forms(&a);
        for (what, s) in &forms {
            let back = s.to_csr();
            prop_assert_eq!(back.indptr(), a.indptr(), "{}", what);
            prop_assert_eq!(back.indices(), a.indices(), "{}", what);
            prop_assert_eq!(to_bits(back.values()), to_bits(a.values()), "{}", what);
            for i in 0..a.nrows() {
                let got: Vec<(usize, u64)> = s.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
                let want: Vec<(usize, u64)> = a.row_iter(i).map(|(c, v)| (c, v.to_bits())).collect();
                prop_assert_eq!(got, want, "{} row {}", what, i);
            }
            prop_assert!(forms.iter().all(|(_, t)| t == s), "{}", what);
        }
    }
}

/// The pattern narrows up to and including 2¹⁶ columns and stays wide
/// (on the source's own arrays) one column past that; both multiply bit
/// for bit like the source.
#[test]
fn narrow_selected_at_65536_columns_wide_at_65537() {
    for (ncols, narrow) in [(MAX_NARROW_COLS, true), (MAX_NARROW_COLS + 1, false)] {
        let last = ncols as u32 - 1;
        let a = Csr::from_parts(
            3,
            ncols,
            vec![0, 2, 2, 4],
            vec![0, last, 1, last],
            vec![0.5, -1e300, 5e-324, -0.0],
        )
        .unwrap();
        let s = CodedCsr::encode(&a);
        assert_eq!(s.pattern().is_narrow(), narrow, "{ncols} columns");
        assert_eq!(s.pattern().shares(&a.pattern()), !narrow, "{ncols} columns");
        let mem = if narrow { 4 * 4 + 2 * 4 } else { 8 * 4 + 4 * 4 };
        assert_eq!(bepi_sparse::MemBytes::mem_bytes(s.pattern()), mem);
        let x = coded_lanes(ncols, 1, 7);
        assert_eq!(
            to_bits(&s.mul_vec(&x).unwrap()),
            to_bits(&a.mul_vec(&x).unwrap())
        );
        assert_eq!(s.to_csr(), a);
    }
}

/// One distinct value past what a `u16` code indexes keeps `S` plain, on
/// its own value array; one fewer codes it.
#[test]
fn coded_selects_plain_past_65536_distinct_values() {
    let csr = |distinct: usize| {
        let n = distinct;
        let values: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-6).collect();
        Csr::from_parts(1, n, vec![0, n], (0..n as u32).collect(), values).unwrap()
    };
    let over = csr(MAX_TABLE_LEN + 1);
    let s = CodedCsr::encode(&over);
    assert!(!s.is_coded());
    match s.values() {
        MatrixValues::Entries(CodedValues::Plain(v)) => {
            assert!(std::ptr::eq(v.as_slice(), over.values()))
        }
        other => unreachable!("{other:?}"),
    }
    assert_eq!(s.to_csr(), over);
    let at = CodedCsr::encode(&csr(MAX_TABLE_LEN));
    assert!(at.is_coded());
    let x = vec![1.0; MAX_TABLE_LEN];
    assert_eq!(
        to_bits(&at.mul_vec(&x).unwrap()),
        to_bits(&csr(MAX_TABLE_LEN).mul_vec(&x).unwrap())
    );
}

/// Strategy: an `H`-shaped block — rectangular, most rows empty (a row
/// of `H21` or `H31` is non-empty only where a hub or dead end links to a
/// spoke), values from [`CODED_POOL`] — as a CSR built straight from
/// parts, so stored `-0.0`s survive.
fn h_block_strategy() -> impl Strategy<Value = Csr> {
    (1usize..=24, 1usize..=24).prop_flat_map(|(nr, nc)| {
        let entry = (0..nc as u32, 0..CODED_POOL.len());
        // One row in four holds entries.
        let row = (0..4u8, proptest::collection::vec(entry, 1..=nc.min(5)));
        proptest::collection::vec(row, nr).prop_map(move |rows| {
            let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
            for (kind, mut row) in rows {
                if kind == 0 {
                    row.sort_by_key(|e| e.0);
                    row.dedup_by_key(|e| e.0);
                    for (c, slot) in row {
                        indices.push(c);
                        values.push(CODED_POOL[slot]);
                    }
                }
                indptr.push(indices.len());
            }
            Csr::from_parts(nr, nc, indptr, indices, values).unwrap()
        })
    })
}

/// The code of each non-zero of `m`, read through its column when `m`
/// stores one code per column; `None` when `m` is plain.
fn entry_codes(m: &CodedCsr) -> Option<Vec<u16>> {
    match m.values() {
        MatrixValues::Entries(CodedValues::Coded { codes, .. }) => Some(codes.to_vec()),
        MatrixValues::Columns { codes, .. } => {
            Some((0..m.nnz()).map(|k| codes[m.pattern().col(k)]).collect())
        }
        MatrixValues::Entries(CodedValues::Plain(_)) => None,
    }
}

proptest! {
    /// Blocks coded together over one shared table — as an index codes
    /// its `H` blocks after `S` — hold that one table, and multiply bit
    /// for bit like their `Csr`s, single and at every lock-step width.
    #[test]
    fn compact_h_shaped_spmv_is_bit_identical_to_csr(
        s in coded_source_strategy(10),
        h12 in h_block_strategy(),
        h21 in h_block_strategy(),
        seed in 0u64..1000,
    ) {
        let coded = CodedCsr::encode_all(&[&s, &h12, &h21]);
        let table = coded[0].table().expect("a small matrix codes");
        for (m, a) in coded.iter().zip([&s, &h12, &h21]) {
            prop_assert!(std::ptr::eq(m.table().unwrap().as_slice(), table.as_slice()));
            prop_assert_eq!(m.pattern().is_narrow(), true);
            let x = coded_lanes(a.ncols(), 1, seed);
            let (mut want, mut got) = (vec![0.0; a.nrows()], vec![f64::NAN; a.nrows()]);
            a.mul_vec_into(&x, &mut want).unwrap();
            m.mul_vec_into(&x, &mut got).unwrap();
            prop_assert_eq!(to_bits(&got), to_bits(&want));
            for width in 1..=BLOCK_WIDTH {
                let x = coded_lanes(a.ncols(), width, seed);
                let mut want = vec![0.0; a.nrows() * width];
                let mut got = vec![f64::NAN; a.nrows() * width];
                a.mul_block_into(&x, &mut want, width).unwrap();
                m.mul_block_into(&x, &mut got, width).unwrap();
                prop_assert_eq!(to_bits(&got), to_bits(&want), "width {}", width);
            }
        }
        // The first matrix codes exactly as it would alone.
        prop_assert_eq!(
            to_bits(coded[0].to_csr().values()),
            to_bits(s.values())
        );
        match (entry_codes(&CodedCsr::encode(&s)), entry_codes(&coded[0])) {
            (Some(alone), Some(codes)) => prop_assert_eq!(alone, codes),
            _ => prop_assert!(false, "a small matrix codes"),
        }
    }
}
