//! Degree-distribution and connectivity statistics.
//!
//! Used by the dataset registry to verify the synthetic suite has the
//! structural properties (power-law degrees, deadend fraction, GCC size)
//! that the paper's real graphs have, and by `table2_datasets` to print the
//! analogue of Table 2.

use crate::graph::Graph;

/// Summary statistics of a graph, mirroring what Table 2 reports plus the
/// structural properties the substitution argument relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Number of deadend nodes (no out-edges).
    pub deadends: usize,
    /// Maximum total degree.
    pub max_degree: usize,
    /// Mean total degree.
    pub mean_degree: f64,
    /// MLE power-law exponent of the total-degree distribution
    /// (`None` if the graph is too small or degenerate).
    pub power_law_alpha: Option<f64>,
    /// Size of the largest weakly connected component.
    pub gcc_size: usize,
}

/// Computes summary statistics.
pub fn graph_stats(g: &Graph) -> GraphStats {
    let degs = g.total_degrees();
    let max_degree = degs.iter().copied().max().unwrap_or(0);
    let mean_degree = if degs.is_empty() {
        0.0
    } else {
        degs.iter().sum::<usize>() as f64 / degs.len() as f64
    };
    GraphStats {
        n: g.n(),
        m: g.m(),
        deadends: g.deadend_count(),
        max_degree,
        mean_degree,
        power_law_alpha: power_law_alpha(&degs, 1),
        gcc_size: weakly_connected_components(g)
            .1
            .into_iter()
            .max()
            .unwrap_or(0),
    }
}

/// Continuous MLE estimate of the power-law exponent
/// `α = 1 + n / Σ ln(d_i / d_min)` over degrees `≥ d_min`.
pub fn power_law_alpha(degrees: &[usize], d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1) as f64;
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d as f64 >= d_min)
        .map(|&d| d as f64)
        .collect();
    if tail.len() < 10 {
        return None;
    }
    let log_sum: f64 = tail.iter().map(|d| (d / d_min).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / log_sum)
}

/// Weakly connected components via union-find on the symmetrized structure.
/// Returns `(component_id_per_node, component_sizes)`.
pub fn weakly_connected_components(g: &Graph) -> (Vec<usize>, Vec<usize>) {
    let n = g.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize]; // path halving
            x = parent[x as usize];
        }
        x
    }

    for u in 0..n {
        for v in g.out_neighbors(u) {
            let ru = find(&mut parent, u as u32);
            let rv = find(&mut parent, v as u32);
            if ru != rv {
                // Union by index keeps it deterministic.
                let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                parent[hi as usize] = lo;
            }
        }
    }
    let mut comp_of_root = std::collections::HashMap::new();
    let mut ids = vec![0usize; n];
    let mut sizes: Vec<usize> = Vec::new();
    for u in 0..n {
        let root = find(&mut parent, u as u32);
        let next_id = sizes.len();
        let id = *comp_of_root.entry(root).or_insert(next_id);
        if id == sizes.len() {
            sizes.push(0);
        }
        ids[u] = id;
        sizes[id] += 1;
    }
    (ids, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_on_cycle() {
        let g = generators::cycle(10);
        let s = graph_stats(&g);
        assert_eq!(s.n, 10);
        assert_eq!(s.m, 10);
        assert_eq!(s.deadends, 0);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.gcc_size, 10);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (ids, sizes) = weakly_connected_components(&g);
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert_eq!(sizes.len(), 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[3], ids[4]);
        assert_ne!(ids[0], ids[3]);
        assert_ne!(ids[5], ids[0]);
    }

    #[test]
    fn components_treat_direction_as_undirected() {
        // 0→1, 2→1: all weakly connected.
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        let (_, sizes) = weakly_connected_components(&g);
        assert_eq!(sizes, vec![3]);
    }

    #[test]
    fn power_law_alpha_on_rmat_is_plausible() {
        let g = generators::rmat(11, 20_000, generators::RmatParams::default(), 3).unwrap();
        let alpha = graph_stats(&g).power_law_alpha.unwrap();
        assert!(
            (1.2..4.0).contains(&alpha),
            "alpha {alpha} outside plausible power-law range"
        );
    }

    #[test]
    fn power_law_alpha_degenerate_cases() {
        assert_eq!(power_law_alpha(&[], 1), None);
        // All-equal degrees: log_sum = 0.
        assert_eq!(power_law_alpha(&[1; 20], 1), None);
    }
}
