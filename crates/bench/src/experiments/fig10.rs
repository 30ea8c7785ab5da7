//! Figure 10 (Appendix I) — accuracy vs iterations against the exact
//! solution `r* = c H^{-1} q` on the Physicians stand-in (241 nodes).
//!
//! Power iteration exposes its iterates directly; BePI and GMRES are
//! swept over tolerances, recording (inner iterations, L2 error) pairs.
//! The paper's observation: BePI converges in far fewer iterations and to
//! machine-precision errors, while power iteration and GMRES approach the
//! tolerance slowly.

use crate::table::Table;
use bepi_core::accuracy::l2_error;
use bepi_core::prelude::*;
use bepi_core::rwr::seed_vector;
use bepi_graph::datasets::physicians_like;
use bepi_solver::power::{power_iteration, PowerConfig};
use std::fmt::Write as _;

/// Tolerance sweep for the iterative methods.
pub const TOLS: [f64; 7] = [1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12];

/// Number of query seeds averaged.
pub const SEEDS: usize = 20;

/// Runs the accuracy experiment.
pub fn run() -> String {
    let mut out = String::new();
    let g = physicians_like();
    let _ = writeln!(
        out,
        "Figure 10 — L2 error vs iterations on {}-node Physicians stand-in ({} seeds)\n",
        g.n(),
        SEEDS
    );
    let exact = DenseExact::with_defaults(&g).expect("small graph");
    let seeds: Vec<usize> = (0..SEEDS).map(|i| (i * 13) % g.n()).collect();

    // Power iteration: error after each iteration, averaged over seeds.
    let a_norm = g.row_normalized();
    let mut power_err: Vec<f64> = Vec::new();
    for &s in &seeds {
        let q = seed_vector(g.n(), s).expect("seed");
        let truth = exact.query(s).expect("exact").scores;
        let res = power_iteration(
            &a_norm,
            bepi_core::DEFAULT_RESTART_PROB,
            &q,
            &PowerConfig {
                tol: 1e-14,
                max_iters: 250,
            },
            true,
        )
        .expect("power");
        for (i, snapshot) in res.history.iter().enumerate() {
            let e = l2_error(snapshot, &truth);
            if power_err.len() <= i {
                power_err.push(0.0);
            }
            power_err[i] += e / SEEDS as f64;
        }
    }
    let _ = writeln!(out, "Power iteration error trajectory:");
    let mut t = Table::new(vec!["iteration", "avg L2 error"]);
    for i in [0usize, 4, 9, 24, 49, 99, 149, 199] {
        if i < power_err.len() {
            t.row(vec![(i + 1).to_string(), format!("{:.3e}", power_err[i])]);
        }
    }
    let _ = writeln!(out, "{}", t.render());

    // BePI and GMRES: tolerance sweep → (avg iterations, avg error).
    for (label, is_bepi) in [("BePI", true), ("GMRES", false)] {
        let _ = writeln!(out, "{label} (tolerance sweep):");
        let mut t = Table::new(vec!["tolerance", "avg iterations", "avg L2 error"]);
        for &tol in &TOLS {
            let (mut it_sum, mut err_sum) = (0.0f64, 0.0f64);
            if is_bepi {
                let solver = BePi::preprocess(
                    &g,
                    &BePiConfig {
                        tol,
                        ..BePiConfig::for_variant(BePiVariant::Full)
                    },
                )
                .expect("preprocess");
                for &s in &seeds {
                    let r = solver.query(s).expect("query");
                    let truth = exact.query(s).expect("exact").scores;
                    it_sum += r.iterations as f64;
                    err_sum += l2_error(&r.scores, &truth);
                }
            } else {
                let solver =
                    GmresSolver::new(&g, bepi_core::DEFAULT_RESTART_PROB, tol).expect("gmres");
                for &s in &seeds {
                    let r = solver.query(s).expect("query");
                    let truth = exact.query(s).expect("exact").scores;
                    it_sum += r.iterations as f64;
                    err_sum += l2_error(&r.scores, &truth);
                }
            }
            t.row(vec![
                format!("{tol:.0e}"),
                format!("{:.1}", it_sum / SEEDS as f64),
                format!("{:.3e}", err_sum / SEEDS as f64),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    let _ = writeln!(
        out,
        "Expected shape: BePI reaches any target error in the fewest iterations\n\
         (preconditioned Schur system), and its error decreases monotonically with ε."
    );
    out
}
