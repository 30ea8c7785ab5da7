//! SlashBurn hub-and-spoke reordering (Kang & Faloutsos, ICDM 2011;
//! paper Appendix A).
//!
//! SlashBurn repeatedly removes the `⌈k·n⌉` highest-degree nodes (*hubs*)
//! from the current giant connected component (GCC). The removal shatters
//! the graph; nodes in the non-giant components (*spokes*) receive the
//! lowest free labels grouped by component, hubs receive the highest free
//! labels, and the procedure recurses on the GCC until it is small enough
//! to become a spoke block itself.
//!
//! Applied to the non-deadend block `Ann`, the reordered matrix has a large
//! block-diagonal upper-left part (`H11`'s diagonal blocks = the spoke
//! components) — Figure 3(c)/(d) of the paper. The block sizes `n1i` drive
//! the complexity results of Theorems 1–3.

use bepi_sparse::{Csr, Permutation};

/// Configuration of a SlashBurn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlashBurnConfig {
    /// Hub selection ratio `k ∈ (0, 1)`: `⌈k·n⌉` hubs are removed per
    /// iteration. The paper uses 0.001 for Bear/BePI-B and 0.2–0.3 for
    /// BePI-S/BePI (chosen to minimize `|S|`, Section 3.4).
    pub k: f64,
    /// Safety cap on iterations (the algorithm always terminates, but a
    /// cap keeps adversarial inputs bounded).
    pub max_iterations: usize,
}

impl SlashBurnConfig {
    /// Config with the given hub ratio and a generous iteration cap.
    pub fn with_ratio(k: f64) -> Self {
        assert!(k > 0.0 && k < 1.0, "hub ratio must be in (0,1), got {k}");
        Self {
            k,
            max_iterations: usize::MAX,
        }
    }
}

impl Default for SlashBurnConfig {
    fn default() -> Self {
        Self::with_ratio(0.2)
    }
}

/// Result of a SlashBurn reordering.
#[derive(Debug, Clone)]
pub struct SlashBurnResult {
    /// Relabeling of `0..n`: spokes get `0..n_spokes` grouped by component
    /// block, hubs get `n_spokes..n` (earliest-removed hubs highest).
    pub perm: Permutation,
    /// Number of spoke nodes (paper's `n1`).
    pub n_spokes: usize,
    /// Number of hub nodes (paper's `n2`).
    pub n_hubs: usize,
    /// Number of iterations performed (the `⌈n2/(k·l)⌉` of Theorem 1).
    pub iterations: usize,
    /// Sizes of the spoke diagonal blocks in label order (paper's `n1i`,
    /// `b = block_sizes.len()`).
    pub block_sizes: Vec<usize>,
}

/// Runs SlashBurn on a symmetric adjacency *structure* (use
/// [`bepi_graph::Graph::undirected_structure`] for directed graphs).
///
/// Determinism: degree ties break toward the lower node id; components are
/// discovered in ascending order of their lowest node id.
///
/// # Panics
/// Panics if `adj` is not square.
pub fn slashburn(adj: &Csr, cfg: &SlashBurnConfig) -> SlashBurnResult {
    assert_eq!(adj.nrows(), adj.ncols(), "SlashBurn needs a square matrix");
    let n = adj.nrows();
    if n == 0 {
        return SlashBurnResult {
            perm: Permutation::identity(0),
            n_spokes: 0,
            n_hubs: 0,
            iterations: 0,
            block_sizes: Vec::new(),
        };
    }
    let hubs_per_iter = ((cfg.k * n as f64).ceil() as usize).max(1);

    // Active set = current GCC candidates; degrees maintained incrementally
    // (only hub removal changes the degree of a surviving node, because
    // spokes are never adjacent to the GCC they were split from).
    let mut active = vec![true; n];
    let mut degree: Vec<i64> = (0..n).map(|u| adj.row_nnz(u) as i64).collect();
    let mut active_nodes: Vec<u32> = (0..n as u32).collect();

    let mut spoke_order: Vec<u32> = Vec::with_capacity(n);
    let mut block_sizes: Vec<usize> = Vec::new();
    let mut hub_order: Vec<u32> = Vec::new();
    let mut iterations = 0usize;

    // Components of one iteration, each a contiguous run of
    // `comp_nodes` in BFS order ending at its `comp_ends` entry; the
    // buffer doubles as the BFS queue.
    let mut visited = vec![false; n];
    let mut comp_nodes: Vec<u32> = Vec::with_capacity(n);
    let mut comp_ends: Vec<usize> = Vec::new();

    loop {
        if active_nodes.is_empty() {
            break;
        }
        if active_nodes.len() <= hubs_per_iter || iterations >= cfg.max_iterations {
            // Final GCC becomes one spoke block (ascending ids for
            // determinism; it is connected so it is a valid block).
            active_nodes.sort_unstable();
            block_sizes.push(active_nodes.len());
            spoke_order.extend_from_slice(&active_nodes);
            break;
        }
        iterations += 1;

        // Select top-degree hubs (degree desc, id asc).
        let mut order = active_nodes.clone();
        let h = hubs_per_iter.min(order.len());
        order.select_nth_unstable_by(h - 1, |&a, &b| {
            degree[b as usize].cmp(&degree[a as usize]).then(a.cmp(&b))
        });
        let mut hubs: Vec<u32> = order[..h].to_vec();
        hubs.sort_unstable_by(|&a, &b| degree[b as usize].cmp(&degree[a as usize]).then(a.cmp(&b)));
        for &hub in &hubs {
            active[hub as usize] = false;
            for (v, _) in adj.row_iter(hub as usize) {
                if active[v] {
                    degree[v] -= 1;
                }
            }
        }
        hub_order.extend_from_slice(&hubs);

        // Connected components of the surviving active nodes.
        active_nodes.retain(|&u| active[u as usize]);
        for &u in &active_nodes {
            visited[u as usize] = false;
        }
        comp_nodes.clear();
        comp_ends.clear();
        for &start in &active_nodes {
            if visited[start as usize] {
                continue;
            }
            visited[start as usize] = true;
            let mut head = comp_nodes.len();
            comp_nodes.push(start);
            while head < comp_nodes.len() {
                let u = comp_nodes[head];
                head += 1;
                for (v, _) in adj.row_iter(u as usize) {
                    if active[v] && !visited[v] {
                        visited[v] = true;
                        comp_nodes.push(v as u32);
                    }
                }
            }
            comp_ends.push(comp_nodes.len());
        }

        // Largest component stays active; ties break toward the earlier-
        // discovered (lowest min-id) component.
        let comp_range = |i: usize| (if i == 0 { 0 } else { comp_ends[i - 1] })..comp_ends[i];
        let gcc_idx = (0..comp_ends.len()).max_by(|&ia, &ib| {
            comp_range(ia)
                .len()
                .cmp(&comp_range(ib).len())
                .then(ib.cmp(&ia))
        });
        let Some(gcc_idx) = gcc_idx else {
            break; // every active node became a hub; nothing left
        };
        for i in 0..comp_ends.len() {
            if i == gcc_idx {
                continue;
            }
            let comp = &mut comp_nodes[comp_range(i)];
            comp.sort_unstable();
            block_sizes.push(comp.len());
            spoke_order.extend_from_slice(comp);
            for &u in comp.iter() {
                active[u as usize] = false;
            }
        }
        active_nodes.clear();
        active_nodes.extend_from_slice(&comp_nodes[comp_range(gcc_idx)]);
        active_nodes.sort_unstable();
    }

    let n_spokes = spoke_order.len();
    let n_hubs = hub_order.len();
    debug_assert_eq!(n_spokes + n_hubs, n);

    // Labels: spokes 0..n_spokes in block order; hubs fill n_spokes..n with
    // the earliest-removed (highest-degree) hubs at the very top.
    let mut new_of_old = vec![0u32; n];
    for (label, &u) in spoke_order.iter().enumerate() {
        new_of_old[u as usize] = label as u32;
    }
    for (i, &u) in hub_order.iter().enumerate() {
        new_of_old[u as usize] = (n - 1 - i) as u32;
    }
    let perm = Permutation::from_new_of_old(new_of_old)
        .expect("spoke/hub assignment is a bijection by construction");

    SlashBurnResult {
        perm,
        n_spokes,
        n_hubs,
        iterations,
        block_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::{generators, Graph};

    fn run(g: &Graph, k: f64) -> SlashBurnResult {
        slashburn(&g.undirected_structure(), &SlashBurnConfig::with_ratio(k))
    }

    /// Checks the defining property: in the reordered matrix, no edge
    /// connects two different spoke blocks.
    fn assert_block_diagonal(adj: &Csr, r: &SlashBurnResult) {
        let b = r.perm.permute_symmetric(adj).unwrap();
        let mut block_of = vec![usize::MAX; r.n_spokes];
        let mut start = 0;
        for (bi, &size) in r.block_sizes.iter().enumerate() {
            for lbl in start..start + size {
                block_of[lbl] = bi;
            }
            start += size;
        }
        assert_eq!(start, r.n_spokes, "block sizes must tile the spokes");
        for (row, col, _) in b.iter() {
            if row < r.n_spokes && col < r.n_spokes {
                assert_eq!(
                    block_of[row], block_of[col],
                    "edge ({row},{col}) crosses spoke blocks"
                );
            }
        }
    }

    #[test]
    fn star_hub_is_detected() {
        let g = generators::star(11);
        let r = run(&g, 0.1); // 2 hubs/iter on 11 nodes
                              // Node 0 (the hub) must be among the hubs.
        assert!(r.perm.apply(0) >= r.n_spokes);
        assert_eq!(r.n_spokes + r.n_hubs, 11);
        assert_block_diagonal(&g.undirected_structure(), &r);
        // After removing the hub, all leaves are singleton blocks.
        assert!(r.block_sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn permutation_is_complete_bijection() {
        let g = generators::rmat(9, 3000, generators::RmatParams::default(), 17).unwrap();
        let r = run(&g, 0.2);
        assert_eq!(r.perm.len(), g.n());
        assert_eq!(r.n_spokes + r.n_hubs, g.n());
        assert_eq!(r.block_sizes.iter().sum::<usize>(), r.n_spokes);
    }

    #[test]
    fn block_diagonality_on_rmat() {
        let g = generators::rmat(9, 2500, generators::RmatParams::default(), 5).unwrap();
        let r = run(&g, 0.15);
        assert_block_diagonal(&g.undirected_structure(), &r);
    }

    #[test]
    fn block_diagonality_on_erdos_renyi() {
        let g = generators::erdos_renyi(300, 900, 23).unwrap();
        let r = run(&g, 0.1);
        assert_block_diagonal(&g.undirected_structure(), &r);
    }

    #[test]
    fn larger_k_means_fewer_iterations() {
        let g = generators::rmat(10, 6000, generators::RmatParams::default(), 9).unwrap();
        let small_k = run(&g, 0.01);
        let large_k = run(&g, 0.3);
        assert!(
            small_k.iterations >= large_k.iterations,
            "{} < {}",
            small_k.iterations,
            large_k.iterations
        );
    }

    #[test]
    fn deterministic() {
        let g = generators::rmat(8, 1500, generators::RmatParams::default(), 31).unwrap();
        let a = run(&g, 0.2);
        let b = run(&g, 0.2);
        assert_eq!(a.perm, b.perm);
        assert_eq!(a.block_sizes, b.block_sizes);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let e = slashburn(&Csr::zeros(0, 0), &SlashBurnConfig::default());
        assert_eq!(e.n_spokes + e.n_hubs, 0);

        let g = Graph::from_edges(1, &[]).unwrap();
        let r = run(&g, 0.5);
        assert_eq!(r.n_spokes + r.n_hubs, 1);
        assert_eq!(r.perm.len(), 1);
    }

    #[test]
    fn disconnected_graph_components_become_blocks() {
        // Two triangles, no connection.
        let g = Graph::from_undirected_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        let r = run(&g, 0.2);
        assert_block_diagonal(&g.undirected_structure(), &r);
        assert_eq!(r.n_spokes + r.n_hubs, 6);
    }

    #[test]
    fn hubs_get_highest_labels_in_removal_order() {
        let g = generators::star(9);
        let r = run(&g, 0.12); // ⌈0.12*9⌉ = 2 hubs in iteration 1
                               // The star hub has the highest degree → removed first → label n-1.
        assert_eq!(r.perm.apply(0), 8);
    }

    #[test]
    #[should_panic(expected = "hub ratio")]
    fn rejects_bad_ratio() {
        let _ = SlashBurnConfig::with_ratio(1.5);
    }

    /// FNV-1a over the labels, block sizes and iteration count.
    fn fingerprint(r: &SlashBurnResult) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let labels = (0..r.perm.len()).map(|u| r.perm.apply(u));
        for x in labels
            .chain(r.block_sizes.iter().copied())
            .chain([r.iterations])
        {
            for b in (x as u64).to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn labels_and_blocks_are_pinned() {
        // Recorded from the per-component-Vec implementation: the flat
        // component buffer must not move a single label.
        let cases = [
            (
                generators::rmat(10, 6000, generators::RmatParams::default(), 9).unwrap(),
                0.02,
            ),
            (
                generators::rmat(9, 2500, generators::RmatParams::default(), 5).unwrap(),
                0.2,
            ),
            (generators::erdos_renyi(300, 900, 23).unwrap(), 0.1),
        ];
        let got: Vec<u64> = cases
            .iter()
            .map(|(g, k)| fingerprint(&run(g, *k)))
            .collect();
        assert_eq!(
            got,
            [
                0x2ad4_411e_baaf_d9a5,
                0xa52d_9b0f_1912_fce1,
                0xc807_866b_fa66_f3f2
            ]
        );
    }
}
