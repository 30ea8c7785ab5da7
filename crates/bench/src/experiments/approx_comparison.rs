//! Extension experiment: exact BePI vs the approximate methods the
//! paper's related work surveys (Monte Carlo estimation, forward push).
//!
//! The paper excludes approximate methods from its evaluation because all
//! compared methods are exact; this table quantifies what that exactness
//! costs — per-query time vs maximum absolute error against the exact
//! solution, on a mid-size suite member.

use crate::table::{fmt_secs, Table};
use bepi_core::approx::{forward_push, monte_carlo};
use bepi_core::prelude::*;
use bepi_graph::Dataset;
use std::fmt::Write as _;
use std::time::Instant;

/// Seeds averaged per configuration.
const SEEDS: usize = 10;

/// Runs the exact-vs-approximate comparison.
pub fn run() -> String {
    let mut out = String::new();
    let ds = Dataset::Wikipedia;
    let spec = ds.spec();
    let g = ds.generate();
    let _ = writeln!(
        out,
        "Extension — exact BePI vs approximate RWR on {} ({} seeds)\n",
        spec.name, SEEDS
    );
    let bepi = BePi::preprocess(
        &g,
        &BePiConfig {
            hub_ratio: Some(spec.hub_ratio),
            ..BePiConfig::for_variant(BePiVariant::Full)
        },
    )
    .expect("preprocess");
    let seeds: Vec<usize> = (0..SEEDS).map(|i| (i * 409 + 1) % g.n()).collect();
    // Exact references from BePI at tight tolerance.
    let truth: Vec<Vec<f64>> = seeds
        .iter()
        .map(|&s| bepi.query(s).expect("query").scores)
        .collect();

    let mut t = Table::new(vec!["method", "parameter", "avg query", "max |err|"]);
    // BePI itself (the exact row: error vs its own tight solve is ~0).
    {
        let t0 = Instant::now();
        for &s in &seeds {
            let _ = bepi.query(s).expect("query");
        }
        t.row(vec![
            "BePI (exact)".to_string(),
            "eps=1e-9".to_string(),
            fmt_secs(t0.elapsed().as_secs_f64() / SEEDS as f64),
            "0".to_string(),
        ]);
    }
    for walks in [10_000usize, 100_000] {
        let t0 = Instant::now();
        let mut max_err = 0.0f64;
        for (i, &s) in seeds.iter().enumerate() {
            let mc = monte_carlo(&g, 0.05, s, walks, 99).expect("mc");
            for (a, b) in mc.scores.iter().zip(&truth[i]) {
                max_err = max_err.max((a - b).abs());
            }
        }
        t.row(vec![
            "Monte Carlo".to_string(),
            format!("{walks} walks"),
            fmt_secs(t0.elapsed().as_secs_f64() / SEEDS as f64),
            format!("{max_err:.2e}"),
        ]);
    }
    for eps in [1e-5f64, 1e-7] {
        let t0 = Instant::now();
        let mut max_err = 0.0f64;
        let mut touched = 0usize;
        for (i, &s) in seeds.iter().enumerate() {
            let pr = forward_push(&g, 0.05, s, eps).expect("push");
            touched += pr.touched;
            for (a, b) in pr.scores.scores.iter().zip(&truth[i]) {
                max_err = max_err.max((a - b).abs());
            }
        }
        t.row(vec![
            "Forward push".to_string(),
            format!("eps={eps:.0e} (touch {})", touched / SEEDS),
            fmt_secs(t0.elapsed().as_secs_f64() / SEEDS as f64),
            format!("{max_err:.2e}"),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Shape: approximate methods trade orders of magnitude of accuracy for locality/speed;\n\
         exact BePI answers at full precision in comparable time once preprocessed."
    );
    out
}
