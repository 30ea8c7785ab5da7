//! Property-based tests for the sparse substrate: format round-trips,
//! kernel agreement with dense references, permutation algebra.

use bepi_sparse::{ops, spgemm, vecops, Coo, Csc, Csr, Dense, Permutation};
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
