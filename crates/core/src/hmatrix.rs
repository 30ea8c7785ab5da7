//! Node-reordering pipeline and block partition of `H` (Section 3.2,
//! Figure 3 of the paper).
//!
//! The composite reordering = deadend reordering ∘ hub-and-spoke
//! (SlashBurn) reordering of the non-deadend block. In the resulting
//! order, with `n1` spokes, `n2` hubs, `n3` deadends:
//!
//! ```text
//!       ┌ H11  H12  0 ┐   n1 (block diagonal H11)
//!   H = │ H21  H22  0 │   n2
//!       └ H31  H32  I ┘   n3
//! ```
//!
//! Every BePI variant and the Bear baseline build on this partition.

use crate::rwr::check_restart_prob;
use bepi_graph::Graph;
use bepi_incr::SymbolicPlan;
use bepi_sparse::{Bytes, Csr, MemBytes, Permutation, Result};

/// The reordered, partitioned `H` matrix.
#[derive(Debug, Clone)]
pub struct HPartition {
    /// Composite relabeling original → reordered.
    pub perm: Permutation,
    /// Number of spokes.
    pub n1: usize,
    /// Number of hubs.
    pub n2: usize,
    /// Number of deadends.
    pub n3: usize,
    /// Diagonal block sizes of `H11` (SlashBurn's spoke components).
    pub block_sizes: Vec<usize>,
    /// `(n1 × n1)` block-diagonal spoke block.
    pub h11: Csr,
    /// `(n1 × n2)` spoke→hub coupling.
    pub h12: Csr,
    /// `(n2 × n1)` hub→spoke coupling.
    pub h21: Csr,
    /// `(n2 × n2)` hub block.
    pub h22: Csr,
    /// `(n3 × n1)` deadend rows against spokes.
    pub h31: Csr,
    /// `(n3 × n2)` deadend rows against hubs.
    pub h32: Csr,
    /// SlashBurn iterations performed (Theorem 1 diagnostics).
    pub slashburn_iterations: usize,
    /// Restart probability used to build `H`.
    pub c: f64,
}

impl HPartition {
    /// Runs the full reordering pipeline and partitions `H`.
    ///
    /// `k` is the SlashBurn hub selection ratio (Table 2 column `k`).
    pub fn build(g: &Graph, c: f64, k: f64) -> Result<Self> {
        check_restart_prob(c)?;
        let analysis = bepi_incr::analyze(g, k)?;
        Self::assemble_under(g, c, analysis.plan)
    }

    /// Partitions `H` under a frozen [`SymbolicPlan`] — the numeric half
    /// of [`HPartition::build`]. The reordering phases are skipped
    /// entirely; this is what makes a numeric rebuild cheaper than a full
    /// preprocess.
    pub fn from_plan(g: &Graph, c: f64, plan: &SymbolicPlan) -> Result<Self> {
        check_restart_prob(c)?;
        Self::assemble_under(g, c, plan.clone())
    }

    fn assemble_under(g: &Graph, c: f64, plan: SymbolicPlan) -> Result<Self> {
        let blocks = bepi_incr::assemble(g, c, &plan)?;
        let SymbolicPlan {
            perm,
            n1,
            n2,
            n3,
            block_sizes,
            slashburn_iterations,
        } = plan;
        Ok(Self {
            perm,
            n1,
            n2,
            n3,
            block_sizes,
            h11: blocks.h11,
            h12: blocks.h12,
            h21: blocks.h21,
            h22: blocks.h22,
            h31: blocks.h31,
            h32: blocks.h32,
            slashburn_iterations,
            c,
        })
    }

    /// Total node count.
    pub fn n(&self) -> usize {
        self.n1 + self.n2 + self.n3
    }
}

impl MemBytes for HPartition {
    fn bytes(&self) -> Bytes {
        self.perm.bytes()
            + self.h11.bytes()
            + self.h12.bytes()
            + self.h21.bytes()
            + self.h22.bytes()
            + self.h31.bytes()
            + self.h32.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::generators;

    fn reassemble(p: &HPartition) -> bepi_sparse::Dense {
        // Rebuild full H from the six blocks plus the identity corner.
        let n = p.n();
        let l = p.n1 + p.n2;
        let mut h = bepi_sparse::Dense::zeros(n, n);
        for (r, c, v) in p.h11.iter() {
            h[(r, c)] = v;
        }
        for (r, c, v) in p.h12.iter() {
            h[(r, c + p.n1)] = v;
        }
        for (r, c, v) in p.h21.iter() {
            h[(r + p.n1, c)] = v;
        }
        for (r, c, v) in p.h22.iter() {
            h[(r + p.n1, c + p.n1)] = v;
        }
        for (r, c, v) in p.h31.iter() {
            h[(r + l, c)] = v;
        }
        for (r, c, v) in p.h32.iter() {
            h[(r + l, c + p.n1)] = v;
        }
        for i in l..n {
            h[(i, i)] = 1.0;
        }
        h
    }

    #[test]
    fn partition_reassembles_to_h() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        // Reference: permute graph, build H directly.
        let a = p.perm.permute_symmetric(g.adjacency()).unwrap();
        let g2 = Graph::from_adjacency(a).unwrap();
        let h_ref = crate::rwr::build_h(&g2, 0.05).unwrap().to_dense();
        let h_got = reassemble(&p);
        assert!(h_got.max_abs_diff(&h_ref).unwrap() < 1e-14);
    }

    #[test]
    fn from_plan_matches_build_bit_identically() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let full = HPartition::build(&g, 0.05, 0.2).unwrap();
        let plan = SymbolicPlan {
            perm: full.perm.clone(),
            n1: full.n1,
            n2: full.n2,
            n3: full.n3,
            block_sizes: full.block_sizes.clone(),
            slashburn_iterations: full.slashburn_iterations,
        };
        let frozen = HPartition::from_plan(&g, 0.05, &plan).unwrap();
        assert_eq!(frozen.h11, full.h11);
        assert_eq!(frozen.h12, full.h12);
        assert_eq!(frozen.h21, full.h21);
        assert_eq!(frozen.h22, full.h22);
        assert_eq!(frozen.h31, full.h31);
        assert_eq!(frozen.h32, full.h32);
    }

    #[test]
    fn counts_match_graph() {
        let g = generators::rmat(9, 1500, generators::RmatParams::default(), 7).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 5).unwrap();
        let p = HPartition::build(&g, 0.05, 0.25).unwrap();
        assert_eq!(p.n(), g.n());
        assert_eq!(p.n3, g.deadend_count());
        assert_eq!(p.block_sizes.iter().sum::<usize>(), p.n1);
    }

    #[test]
    fn h11_block_diagonal_and_dominant() {
        let g = generators::rmat(9, 1200, generators::RmatParams::default(), 11).unwrap();
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        assert!(bepi_reorder::blocks::is_block_diagonal(
            &p.h11,
            &p.block_sizes
        ));
        assert!(p.h11.is_column_diagonally_dominant());
    }

    #[test]
    fn all_deadend_graph() {
        let g = Graph::from_edges(4, &[]).unwrap();
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        assert_eq!(p.n1, 0);
        assert_eq!(p.n2, 0);
        assert_eq!(p.n3, 4);
        assert_eq!(p.h11.nnz(), 0);
    }

    #[test]
    fn deadend_free_graph() {
        let g = generators::cycle(20);
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        assert_eq!(p.n3, 0);
        assert_eq!(p.n1 + p.n2, 20);
        assert_eq!(p.h31.nnz(), 0);
        assert_eq!(p.h32.nnz(), 0);
    }
}
