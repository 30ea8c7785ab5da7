//! Reverse queries via the transpose graph.

use bepi_core::prelude::*;
use bepi_graph::{generators, Graph};

#[test]
fn reverse_queries_via_transpose() {
    // Directed chain 0 → 1 → 2: forward RWR from 0 reaches 2; the reverse
    // question "who reaches 2?" is a forward query from 2 on Gᵀ.
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    let forward = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
    let f = forward.query(0).unwrap().scores;
    assert!(f[2] > 0.0, "forward walk reaches the chain end");

    let reverse = BePi::preprocess(&g.transpose(), &BePiConfig::default()).unwrap();
    let r = reverse.query(2).unwrap().scores;
    assert!(
        r[0] > 0.0 && r[1] > 0.0,
        "reverse walk finds ancestors: {r:?}"
    );
    assert!(r[1] > r[0], "closer ancestor scores higher");

    // Forward from 2 (a deadend) scores nothing but itself.
    let f2 = forward.query(2).unwrap().scores;
    assert!(f2[0] == 0.0 && f2[1] == 0.0);
}

#[test]
fn reverse_ranking_on_citation_like_graph() {
    // Preferential attachment points to "older" nodes; the reverse query
    // from an old hub surfaces its followers.
    let g = generators::preferential_attachment(200, 2, 5).unwrap();
    let hub = (0..g.n()).max_by_key(|&u| g.in_degrees()[u]).unwrap();
    let reverse = BePi::preprocess(&g.transpose(), &BePiConfig::default()).unwrap();
    let r = reverse.query(hub).unwrap();
    // Every in-neighbor of the hub gets positive reverse score.
    let followers: Vec<usize> = (0..g.n())
        .filter(|&u| g.adjacency().get(u, hub) > 0.0)
        .collect();
    assert!(!followers.is_empty());
    for u in followers {
        assert!(r.scores[u] > 0.0, "follower {u} unscored");
    }
}
