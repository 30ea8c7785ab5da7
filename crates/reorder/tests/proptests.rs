//! Property-based tests for the reordering methods on random graphs.

use bepi_graph::Graph;
use bepi_reorder::{
    blocks, degree_order, rcm_order, reorder_deadends, slashburn, DegreeOrder, SlashBurnConfig,
};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = Graph> {
    (4usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * 3)).prop_map(move |pairs| {
            let edges: Vec<(usize, usize)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

fn is_permutation(p: &bepi_sparse::Permutation, n: usize) -> bool {
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for u in 0..n {
        let l = p.apply(u);
        if l >= n || seen[l] {
            return false;
        }
        seen[l] = true;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slashburn_output_is_valid(g in graph_strategy(), k_idx in 0usize..3) {
        let k = [0.05, 0.2, 0.5][k_idx];
        let sym = g.undirected_structure();
        let r = slashburn(&sym, &SlashBurnConfig::with_ratio(k));
        prop_assert!(is_permutation(&r.perm, g.n()));
        prop_assert_eq!(r.n_spokes + r.n_hubs, g.n());
        prop_assert_eq!(r.block_sizes.iter().sum::<usize>(), r.n_spokes);
        // Defining property: reordered spoke region is block diagonal.
        let b = r.perm.permute_symmetric(&sym).unwrap();
        let spoke_block = b.slice_block(0..r.n_spokes, 0..r.n_spokes).unwrap();
        prop_assert!(blocks::is_block_diagonal(&spoke_block, &r.block_sizes));
    }

    #[test]
    fn deadend_reorder_splits_cleanly(g in graph_strategy()) {
        let r = reorder_deadends(&g);
        prop_assert!(is_permutation(&r.perm, g.n()));
        prop_assert_eq!(r.n_deadend, g.deadend_count());
        let a = r.perm.permute_symmetric(g.adjacency()).unwrap();
        for row in r.n_non_deadend..g.n() {
            prop_assert_eq!(a.row_nnz(row), 0);
        }
        for row in 0..r.n_non_deadend {
            prop_assert!(a.row_nnz(row) > 0);
        }
    }

    #[test]
    fn degree_order_is_monotone(g in graph_strategy()) {
        let p = degree_order(&g, DegreeOrder::Ascending);
        prop_assert!(is_permutation(&p, g.n()));
        let degs = g.total_degrees();
        let by_label: Vec<usize> = p.old_of_new().iter().map(|&o| degs[o as usize]).collect();
        for w in by_label.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn rcm_is_valid_permutation(g in graph_strategy()) {
        let p = rcm_order(&g);
        prop_assert!(is_permutation(&p, g.n()));
    }

    #[test]
    fn diagonal_blocks_tile_any_square_matrix(g in graph_strategy()) {
        let sym = g.undirected_structure();
        let bs = blocks::diagonal_blocks(&sym);
        prop_assert_eq!(bs.iter().sum::<usize>(), g.n());
        prop_assert!(blocks::is_block_diagonal(&sym, &bs));
    }
}
