//! Property-based tests for the numerical substrate: all solvers agree
//! with the dense reference on random strictly diagonally dominant
//! systems (the class every BePI matrix belongs to).

use bepi_solver::dense_lu::DenseLu;
use bepi_solver::{gmres, gmres_block, GmresConfig, GmresResult, Ilu0, Preconditioner, SparseLu};
use bepi_sparse::{Coo, Csc, Csr};
use proptest::prelude::*;

/// Strategy: a random strictly column-diagonally-dominant sparse matrix
/// and a random RHS.
fn dd_system() -> impl Strategy<Value = (Csr, Vec<f64>)> {
    (3usize..40).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, 0.1f64..1.0), n..(n * 3));
        let rhs = proptest::collection::vec(-2.0f64..2.0, n..=n);
        (entries, rhs).prop_map(move |(ents, b)| {
            let mut coo = Coo::new(n, n).unwrap();
            let mut col_sums = vec![0.0f64; n];
            for (r, c, v) in ents {
                if r != c {
                    coo.push(r, c, -v).unwrap();
                    col_sums[c] += v;
                }
            }
            for (i, s) in col_sums.iter().enumerate() {
                coo.push(i, i, s + 0.5).unwrap();
            }
            (coo.to_csr(), b)
        })
    })
}

/// Strategy: a `dd_system` matrix and a block of 1–8 right-hand sides of
/// mixed kinds — dense, one-hot, a few scattered entries, the system's
/// own RHS — so the columns need different iteration counts; blocks of
/// two or more hold one zero column.
fn dd_block() -> impl Strategy<Value = (Csr, Vec<Vec<f64>>)> {
    (dd_system(), 1usize..9, 0u64..u64::MAX).prop_map(|((a, b), width, seed)| {
        let n = a.nrows();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut cols: Vec<Vec<f64>> = (0..width)
            .map(|_| match next() % 4 {
                0 => (0..n)
                    .map(|_| (next() % 4001) as f64 / 1000.0 - 2.0)
                    .collect(),
                1 => {
                    let mut e = vec![0.0; n];
                    e[(next() % n as u64) as usize] = 1.0;
                    e
                }
                2 => {
                    let mut v = vec![0.0; n];
                    for _ in 0..3 {
                        v[(next() % n as u64) as usize] += (next() % 1000) as f64 * 1e-3 - 0.5;
                    }
                    v
                }
                _ => b.clone(),
            })
            .collect();
        if width >= 2 {
            let zero = (next() % width as u64) as usize;
            cols[zero] = vec![0.0; n];
        }
        (a, cols)
    })
}

fn assert_same_solve(got: &GmresResult, want: &GmresResult) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.x), bits(&want.x));
    assert_eq!(got.iterations, want.iterations);
    assert_eq!(got.residual.to_bits(), want.residual.to_bits());
    assert_eq!(bits(&got.residual_history), bits(&want.residual_history));
    assert_eq!(got.converged, want.converged);
}

fn dense_solve(a: &Csr, b: &[f64]) -> Vec<f64> {
    DenseLu::factor(&a.to_dense()).unwrap().solve(b).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn gmres_matches_dense_lu((a, b) in dd_system()) {
        let want = dense_solve(&a, &b);
        let got = gmres(&a, &b, None, None, &GmresConfig::default()).unwrap();
        prop_assert!(got.converged);
        for (x, y) in got.x.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn preconditioned_gmres_matches_and_is_no_slower((a, b) in dd_system()) {
        let want = dense_solve(&a, &b);
        let ilu = Ilu0::factor(&a).unwrap();
        let got = gmres(&a, &b, None, Some(&ilu as &dyn Preconditioner), &GmresConfig::default()).unwrap();
        prop_assert!(got.converged);
        for (x, y) in got.x.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn sparse_lu_matches_dense_lu((a, b) in dd_system()) {
        let want = dense_solve(&a, &b);
        let lu = SparseLu::factor(&Csc::from_csr(&a)).unwrap();
        let got = lu.solve(&b).unwrap();
        for (x, y) in got.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn inverted_factors_match_solve((a, b) in dd_system()) {
        let lu = SparseLu::factor(&Csc::from_csr(&a)).unwrap();
        let direct = lu.solve(&b).unwrap();
        let (linv, uinv) = lu.invert_factors();
        let via_inv = uinv.mul_vec(&linv.mul_vec(&b).unwrap()).unwrap();
        for (x, y) in via_inv.iter().zip(&direct) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn eigenvalue_trace_invariant((a, _b) in dd_system()) {
        let eigs = bepi_solver::eig::dense_eigenvalues(&a.to_dense());
        let trace: f64 = a.diagonal().iter().sum();
        let eig_sum: f64 = eigs.iter().map(|e| e.0).sum();
        prop_assert!((trace - eig_sum).abs() < 1e-6 * trace.abs().max(1.0),
            "trace {trace} vs eig sum {eig_sum}");
        // Imaginary parts pair up.
        let imag: f64 = eigs.iter().map(|e| e.1).sum();
        prop_assert!(imag.abs() < 1e-7);
    }

    #[test]
    fn ilu0_exact_when_no_fill_dropped((a, b) in dd_system()) {
        // ILU(0) is a contraction-quality preconditioner: one application
        // must reduce the residual of the correction equation.
        let ilu = Ilu0::factor(&a).unwrap();
        let mut z = vec![0.0; b.len()];
        ilu.solve_into(&b, &mut z);
        let az = a.mul_vec(&z).unwrap();
        let res: f64 = az.iter().zip(&b).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(res <= nb * 0.9 + 1e-12, "residual {res} vs rhs norm {nb}");
    }

    #[test]
    fn lockstep_block_gmres_is_bit_identical_to_single_solves((a, cols) in dd_block()) {
        let ilu = Ilu0::factor(&a).unwrap();
        let configs = [
            GmresConfig::default(),
            GmresConfig { restart: 4, ..GmresConfig::default() },
            // Unreachable tolerance under a cap: columns stop unconverged
            // at the cap, or earlier where a cycle breaks down.
            GmresConfig { tol: 1e-30, restart: 4, max_iters: 6 },
        ];
        let rhs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        for cfg in &configs {
            for precond in [None, Some(&ilu as &dyn Preconditioner)] {
                let block = gmres_block(&a, &rhs, precond, cfg).unwrap();
                prop_assert_eq!(block.len(), rhs.len());
                for (got, b) in block.iter().zip(&rhs) {
                    let want = gmres(&a, b, None, precond, cfg).unwrap();
                    assert_same_solve(got, &want);
                }
            }
        }
    }
}
