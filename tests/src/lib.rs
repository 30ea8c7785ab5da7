//! Shared fixtures for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this library crate makes
//! the workspace-level `tests/` directory a compilable member and hosts
//! graph fixtures plus a high-precision power-iteration reference used by
//! every end-to-end agreement test, and the [`json`] reader the HTTP tests
//! parse response bodies with.

pub mod json;

use bepi_graph::{generators, Graph};
use bepi_solver::power::{power_iteration, PowerConfig};

/// A named graph fixture covering a distinct structural regime.
pub struct Fixture {
    /// Human-readable name (shown in assertion messages).
    pub name: &'static str,
    /// The graph.
    pub graph: Graph,
}

/// A zoo of graphs exercising every structural edge case the solvers must
/// handle: power-law, uniform, deadend-heavy, disconnected, tiny, chain.
pub fn fixture_zoo() -> Vec<Fixture> {
    let rmat = generators::rmat(8, 900, generators::RmatParams::default(), 77).unwrap();
    vec![
        Fixture {
            name: "example-fig2",
            graph: generators::example_graph(),
        },
        Fixture {
            name: "rmat-powerlaw",
            graph: rmat.clone(),
        },
        Fixture {
            name: "rmat-deadends",
            graph: generators::inject_deadends(&rmat, 0.35, 3).unwrap(),
        },
        Fixture {
            name: "erdos-renyi",
            graph: generators::erdos_renyi(180, 900, 5).unwrap(),
        },
        Fixture {
            name: "disconnected",
            graph: two_islands(),
        },
        Fixture {
            name: "path-chain",
            graph: generators::path(40),
        },
        Fixture {
            name: "star",
            graph: generators::star(60),
        },
        Fixture {
            name: "cycle",
            graph: generators::cycle(25),
        },
        // Non-power-law structures: SlashBurn's hub assumption fails here,
        // but correctness must not.
        Fixture {
            name: "small-world",
            graph: generators::watts_strogatz(120, 3, 0.2, 9).unwrap(),
        },
        Fixture {
            name: "grid",
            graph: generators::grid(8, 9),
        },
        Fixture {
            name: "complete-bipartite",
            graph: generators::complete_bipartite(6, 10),
        },
    ]
}

/// Two R-MAT islands with no edges between them.
pub fn two_islands() -> Graph {
    let a = generators::erdos_renyi(60, 240, 11).unwrap();
    let b = generators::erdos_renyi(60, 240, 13).unwrap();
    let mut edges = Vec::new();
    for u in 0..60 {
        for v in a.out_neighbors(u) {
            edges.push((u, v));
        }
        for v in b.out_neighbors(u) {
            edges.push((u + 60, v + 60));
        }
    }
    Graph::from_edges(120, &edges).unwrap()
}

/// High-precision RWR reference via power iteration.
pub fn reference_scores(g: &Graph, c: f64, seed: usize) -> Vec<f64> {
    let a = g.row_normalized();
    let mut q = vec![0.0; g.n()];
    q[seed] = 1.0;
    power_iteration(
        &a,
        c,
        &q,
        &PowerConfig {
            tol: 1e-13,
            max_iters: 200_000,
        },
        false,
    )
    .expect("power iteration")
    .r
}

/// Asserts two score vectors agree within `tol`, with a labeled message.
pub fn assert_scores_close(name: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() < tol,
            "{name}: node {i} differs: {a} vs {b} (tol {tol})"
        );
    }
}
