//! Property tests for the index format: save → load, on the heap and
//! through the mapping, must answer bit-identically to the in-memory
//! `BePi::preprocess` result it was saved from — an oracle outside the
//! persistence code — on arbitrary graphs, and on the structural corner
//! cases the section decoder has to get right (empty H11 blocks,
//! deadend-only graphs, a single hub).

use bepi_core::{persist, BePi, BePiConfig, RwrSolver};
use bepi_graph::{generators, Graph};
use proptest::prelude::*;
use std::path::PathBuf;

/// A unique temp path per test case (proptest runs cases sequentially
/// within one test, so the case label keeps shrink iterations apart).
fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bepi-v6-prop-{}-{label}.bepi", std::process::id()))
}

/// Saves `bepi` (with `graph` embedded), loads it back on the heap and
/// through the mapping, and asserts both answer every seed exactly like
/// the instance that was saved.
fn assert_loads_match_preprocess(bepi: &BePi, graph: &Graph, label: &str) {
    let path = tmp(label);
    persist::save_file_v6(bepi, Some(graph), &path).unwrap();

    let (heap, heap_graph) = persist::load_file_with_graph(&path).unwrap();
    let (mapped, mapped_graph) = persist::load_mapped_file(&path).unwrap();
    assert!(
        mapped.mapped_bytes() > 0,
        "mapped load must borrow from the file"
    );
    assert_eq!(heap.mapped_bytes(), 0);
    let dense = graph.adjacency().to_dense();
    assert_eq!(heap_graph.unwrap().adjacency().to_dense(), dense);
    assert_eq!(mapped_graph.unwrap().adjacency().to_dense(), dense);

    for seed in 0..graph.n() {
        let want = bepi.query(seed).unwrap().scores;
        // Bitwise equality, not approximate: every path must run the
        // same kernels over the same numbers.
        assert_eq!(heap.query(seed).unwrap().scores, want, "heap, seed {seed}");
        assert_eq!(
            mapped.query(seed).unwrap().scores,
            want,
            "mapped, seed {seed}"
        );
    }

    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn v6_heap_and_mapped_queries_match_preprocess(
        n in 4usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..120),
        hub_frac in 0.1f64..0.5,
    ) {
        let edges: Vec<(usize, usize)> = pairs.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let graph = Graph::from_edges(n, &edges).unwrap();
        let cfg = BePiConfig { hub_ratio: Some(hub_frac), ..BePiConfig::default() };
        let bepi = BePi::preprocess(&graph, &cfg).unwrap();
        assert_loads_match_preprocess(&bepi, &graph, "rand");
    }
}

#[test]
fn v6_roundtrip_deadend_only_graph() {
    // Every node is a deadend: n1 = n2 = 0, all CSR sections empty.
    let graph = Graph::from_edges(5, &[]).unwrap();
    let bepi = BePi::preprocess(&graph, &BePiConfig::default()).unwrap();
    assert_loads_match_preprocess(&bepi, &graph, "deadend");
}

#[test]
fn v6_roundtrip_single_hub_star() {
    // A star: removing the center disconnects everything, so SlashBurn
    // selects a single hub and the spokes become 1-node blocks.
    let n = 12;
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((0, v));
        edges.push((v, 0));
    }
    let graph = Graph::from_edges(n, &edges).unwrap();
    let cfg = BePiConfig {
        hub_ratio: Some(0.1),
        ..BePiConfig::default()
    };
    let bepi = BePi::preprocess(&graph, &cfg).unwrap();
    assert_loads_match_preprocess(&bepi, &graph, "star");
}

#[test]
fn v6_roundtrip_empty_block_structure() {
    // Two disjoint cycles plus isolated deadends: multiple small H11
    // blocks, a nonempty deadend tail, and (with a high hub ratio) a
    // hub part — exercises every section kind at once.
    let mut edges = Vec::new();
    for v in 0..4 {
        edges.push((v, (v + 1) % 4));
    }
    for v in 0..5 {
        edges.push((4 + v, 4 + (v + 1) % 5));
    }
    // Nodes 9..12 are isolated (deadends).
    let graph = Graph::from_edges(12, &edges).unwrap();
    let cfg = BePiConfig {
        hub_ratio: Some(0.3),
        ..BePiConfig::default()
    };
    let bepi = BePi::preprocess(&graph, &cfg).unwrap();
    assert_loads_match_preprocess(&bepi, &graph, "blocks");
}

#[test]
fn v6_roundtrip_example_graph_without_embedded_graph() {
    // The paper's Figure 2 graph, saved without the adjacency: the
    // GRAPH sections are absent and the loader must report None.
    let graph = generators::example_graph();
    let bepi = BePi::preprocess(&graph, &BePiConfig::default()).unwrap();
    let path = tmp("nograph");
    persist::save_file_v6(&bepi, None, &path).unwrap();
    let (mapped, none) = persist::load_mapped_file(&path).unwrap();
    assert!(none.is_none());
    assert_eq!(
        mapped.query(0).unwrap().scores,
        bepi.query(0).unwrap().scores
    );
    std::fs::remove_file(&path).ok();
}
