//! The directed graph type all RWR methods consume.

use bepi_sparse::{Coo, Csr, MemBytes, Result, SparseError};

/// A directed graph stored as a CSR adjacency matrix.
///
/// Entry `A[u, v] = w` means an edge `u → v` of weight `w` (weight 1.0 for
/// the unweighted graphs of the paper; parallel edges sum their weights).
/// All RWR formulations in this workspace derive from the row-normalized
/// matrix `Ã` ([`Graph::row_normalized`]) per Equation (1) of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj: Csr,
}

impl Graph {
    /// Builds a graph from a (square) adjacency matrix.
    pub fn from_adjacency(adj: Csr) -> Result<Self> {
        if adj.nrows() != adj.ncols() {
            return Err(SparseError::ShapeMismatch {
                left: adj.shape(),
                right: adj.shape(),
                op: "Graph::from_adjacency (matrix must be square)",
            });
        }
        Ok(Self { adj })
    }

    /// Builds an unweighted graph on `n` nodes from directed edges.
    /// Duplicate edges are merged (weights sum).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut coo = Coo::with_capacity(n, n, edges.len())?;
        for &(u, v) in edges {
            coo.push(u, v, 1.0)?;
        }
        Ok(Self { adj: coo.to_csr() })
    }

    /// Builds an unweighted graph treating each pair as an undirected edge
    /// (both directions inserted).
    pub fn from_undirected_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut coo = Coo::with_capacity(n, n, edges.len() * 2)?;
        for &(u, v) in edges {
            coo.push(u, v, 1.0)?;
            if u != v {
                coo.push(v, u, 1.0)?;
            }
        }
        Ok(Self { adj: coo.to_csr() })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.nrows()
    }

    /// Number of stored (merged) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.nnz()
    }

    /// The adjacency matrix.
    #[inline]
    pub fn adjacency(&self) -> &Csr {
        &self.adj
    }

    /// Out-neighbors of `u` (column indices of row `u`).
    pub fn out_neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj.row_iter(u).map(|(v, _)| v)
    }

    /// Out-degree of `u` (number of stored out-edges).
    #[inline]
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj.row_nnz(u)
    }

    /// All out-degrees.
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.n()).map(|u| self.out_degree(u)).collect()
    }

    /// All in-degrees.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n()];
        for &c in self.adj.indices() {
            deg[c as usize] += 1;
        }
        deg
    }

    /// Total degree (in + out) per node — the hub score SlashBurn ranks by.
    pub fn total_degrees(&self) -> Vec<usize> {
        let mut deg = self.in_degrees();
        for (u, d) in deg.iter_mut().enumerate() {
            *d += self.out_degree(u);
        }
        deg
    }

    /// Nodes with no out-edges ("deadends", Section 3.2.1 of the paper).
    pub fn deadends(&self) -> Vec<usize> {
        (0..self.n()).filter(|&u| self.out_degree(u) == 0).collect()
    }

    /// Number of deadend nodes.
    pub fn deadend_count(&self) -> usize {
        (0..self.n()).filter(|&u| self.out_degree(u) == 0).count()
    }

    /// The row-normalized adjacency matrix `Ã` of Equation (1).
    /// Deadend rows stay all-zero.
    pub fn row_normalized(&self) -> Csr {
        let mut a = self.adj.clone();
        a.row_normalize();
        a
    }

    /// Symmetrized adjacency structure `A ∨ A^T` (values = 1.0), used by
    /// SlashBurn's connectivity computations which treat the graph as
    /// undirected.
    pub fn undirected_structure(&self) -> Csr {
        let t = self.adj.transpose();
        let mut sym =
            bepi_sparse::ops::add(&binarize(&self.adj), &binarize(&t)).expect("same shape");
        for v in sym.values_mut() {
            *v = 1.0;
        }
        sym
    }

    /// The transpose graph (every edge reversed). Solving RWR on the
    /// transpose answers *reverse* queries — "which seeds score node `t`
    /// highly?" (the reverse top-k problem of Yu et al., cited in the
    /// paper's related work).
    pub fn transpose(&self) -> Graph {
        Graph {
            adj: self.adj.transpose(),
        }
    }

    /// The induced subgraph on nodes `0..k` of the current labeling — the
    /// "principal submatrix" extraction the paper uses for the scalability
    /// experiment (Section 4.4, Figure 5).
    pub fn principal_subgraph(&self, k: usize) -> Result<Graph> {
        let sub = self.adj.slice_block(0..k, 0..k)?;
        Graph::from_adjacency(sub)
    }
}

fn binarize(a: &Csr) -> Csr {
    let mut b = a.clone();
    for v in b.values_mut() {
        *v = 1.0;
    }
    b
}

impl MemBytes for Graph {
    fn mem_bytes(&self) -> usize {
        self.adj.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_deadend() -> Graph {
        // 0→1, 1→2, 2→0, 3 is a deadend (only incoming).
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_deadend();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn degrees() {
        let g = triangle_plus_deadend();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![1, 1, 1, 1]);
        assert_eq!(g.total_degrees(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn deadends_found() {
        let g = triangle_plus_deadend();
        assert_eq!(g.deadends(), vec![3]);
        assert_eq!(g.deadend_count(), 1);
    }

    #[test]
    fn row_normalized_is_stochastic_except_deadends() {
        let g = triangle_plus_deadend();
        let a = g.row_normalized();
        assert_eq!(a.get(0, 1), 0.5);
        assert_eq!(a.get(0, 3), 0.5);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.row_nnz(3), 0);
    }

    #[test]
    fn undirected_structure_symmetric() {
        let g = triangle_plus_deadend();
        let u = g.undirected_structure();
        for (r, c, v) in u.iter() {
            assert_eq!(v, 1.0);
            assert_eq!(u.get(c, r), 1.0);
        }
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.adjacency().get(0, 1), 2.0);
    }

    #[test]
    fn undirected_constructor_inserts_both() {
        let g = Graph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.adjacency().get(1, 0), 1.0);
        assert_eq!(g.adjacency().get(2, 1), 1.0);
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn self_loop_in_undirected_not_doubled() {
        let g = Graph::from_undirected_edges(2, &[(0, 0)]).unwrap();
        assert_eq!(g.adjacency().get(0, 0), 1.0);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = triangle_plus_deadend();
        let t = g.transpose();
        assert_eq!(t.adjacency().get(1, 0), 1.0); // was 0->1
        assert_eq!(t.adjacency().get(3, 0), 1.0); // was 0->3
        assert_eq!(t.m(), g.m());
        assert_eq!(t.transpose(), g);
        // Node 3 had only in-edges; in the transpose it has only out-edges.
        assert_eq!(t.out_degree(3), 1);
    }

    #[test]
    fn principal_subgraph_keeps_prefix() {
        let g = triangle_plus_deadend();
        let s = g.principal_subgraph(3).unwrap();
        assert_eq!(s.n(), 3);
        assert_eq!(s.m(), 3); // 0→3 edge dropped
    }

    #[test]
    fn from_adjacency_rejects_rectangular() {
        let a = Csr::zeros(2, 3);
        assert!(Graph::from_adjacency(a).is_err());
    }
}
