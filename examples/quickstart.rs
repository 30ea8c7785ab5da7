//! Quickstart: the worked example of Figure 2 in the BePI paper.
//!
//! Builds the 8-node example graph, preprocesses it with BePI-S (the default
//! configuration; `BePiVariant::Full` is the paper's, which adds ILU(0)), runs
//! one RWR query from node u1, and prints the personalized ranking table.
//!
//! Run with: `cargo run -p bepi-core --example quickstart`

use bepi_core::prelude::*;
use bepi_graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The example graph of Figure 2 (u1 = node 0, …, u8 = node 7).
    let graph = generators::example_graph();
    println!(
        "graph: {} nodes, {} directed edges, {} deadends",
        graph.n(),
        graph.m(),
        graph.deadend_count()
    );

    // Preprocessing phase (Algorithm 3): reorder, block-eliminate,
    // sparsify the Schur complement (the paper's full BePI would also
    // compute the ILU(0) preconditioner).
    let config = BePiConfig::default(); // c = 0.05, ε = 1e-9, BePI-S
    let solver = BePi::preprocess(&graph, &config)?;
    let stats = solver.stats();
    println!(
        "preprocessed in {:?}: n1 = {} spokes, n2 = {} hubs, n3 = {} deadends, |S| = {}",
        stats.elapsed, stats.n1, stats.n2, stats.n3, stats.s_nnz
    );
    println!(
        "preprocessed data: {}",
        bepi_sparse::mem::format_bytes(solver.preprocessed_bytes())
    );

    // Query phase (Algorithm 4): RWR scores w.r.t. seed u1.
    let seed = 0;
    let result = solver.query(seed)?;
    println!(
        "\nRWR scores w.r.t. u1 (query took {} GMRES iterations):",
        result.iterations
    );
    println!("{:<6} {:>9} {:>6}", "node", "score", "rank");
    let ranking = result.top_k(graph.n());
    for (rank, &node) in ranking.iter().enumerate() {
        println!(
            "u{:<5} {:>9.4} {:>6}",
            node + 1,
            result.scores[node],
            rank + 1
        );
    }

    // The paper's observation: u8 outranks u6 because u8 connects to u1
    // through both u4 and u5.
    let u8_rank = ranking.iter().position(|&n| n == 7).unwrap();
    let u6_rank = ranking.iter().position(|&n| n == 5).unwrap();
    assert!(u8_rank < u6_rank, "u8 should be recommended over u6");
    println!(
        "\nu8 (rank {}) is recommended to u1 over u6 (rank {}).",
        u8_rank + 1,
        u6_rank + 1
    );
    Ok(())
}
