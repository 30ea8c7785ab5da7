//! Degree-based node ordering.
//!
//! The LU-decomposition baseline (Fujiwara et al., VLDB 2012; Section 2.3
//! of the BePI paper) reorders `H` "based on nodes' degrees and community
//! structures to make the inverses of factors sparse". Eliminating
//! low-degree nodes first is the classic minimum-degree-style heuristic
//! that keeps LU fill-in down.

use bepi_graph::Graph;
use bepi_sparse::Permutation;

/// Direction of the degree sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeOrder {
    /// Lowest total degree first (standard fill-reducing choice).
    Ascending,
    /// Highest total degree first.
    Descending,
}

/// Orders nodes by total degree (ties by node id).
pub fn degree_order(g: &Graph, order: DegreeOrder) -> Permutation {
    let degs = g.total_degrees();
    let mut nodes: Vec<u32> = (0..g.n() as u32).collect();
    match order {
        DegreeOrder::Ascending => {
            nodes
                .sort_unstable_by(|&a, &b| degs[a as usize].cmp(&degs[b as usize]).then(a.cmp(&b)));
        }
        DegreeOrder::Descending => {
            nodes
                .sort_unstable_by(|&a, &b| degs[b as usize].cmp(&degs[a as usize]).then(a.cmp(&b)));
        }
    }
    // nodes[new] = old
    Permutation::from_old_of_new(nodes).expect("sorted node list is a bijection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::generators;

    #[test]
    fn ascending_puts_low_degree_first() {
        let g = generators::star(5); // node 0 has degree 8, leaves 2
        let p = degree_order(&g, DegreeOrder::Ascending);
        assert_eq!(p.apply(0), 4); // hub last
                                   // Leaves keep id order.
        assert_eq!(p.apply(1), 0);
        assert_eq!(p.apply(2), 1);
    }

    #[test]
    fn descending_puts_hub_first() {
        let g = generators::star(5);
        let p = degree_order(&g, DegreeOrder::Descending);
        assert_eq!(p.apply(0), 0);
    }

    #[test]
    fn is_valid_permutation_on_random_graph() {
        let g = generators::erdos_renyi(100, 400, 3).unwrap();
        let p = degree_order(&g, DegreeOrder::Ascending);
        let mut seen = [false; 100];
        for u in 0..100 {
            let l = p.apply(u);
            assert!(!seen[l]);
            seen[l] = true;
        }
    }

    #[test]
    fn degrees_monotone_along_labels() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 2).unwrap();
        let degs = g.total_degrees();
        let p = degree_order(&g, DegreeOrder::Ascending);
        let by_label: Vec<usize> = p.old_of_new().iter().map(|&o| degs[o as usize]).collect();
        for w in by_label.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
