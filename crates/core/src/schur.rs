//! Schur-complement construction and the sparsification diagnostics of
//! Section 3.4 / Figure 4.

use crate::hmatrix::HPartition;
use bepi_solver::BlockLu;
use bepi_sparse::{ops, spgemm, sub_spgemm, Csr, Result};

/// Computes the Schur complement
/// `S = H22 − H21 (U1^{-1} (L1^{-1} H12))` (Algorithm 1, line 6).
///
/// The subtraction happens inside the `H21 X` product's row pass
/// ([`sub_spgemm`]), so the product is never stored.
pub fn schur_complement(p: &HPartition, h11_lu: &BlockLu) -> Result<Csr> {
    let x = h11_lu.solve_matrix(&p.h12)?; // H11^{-1} H12
    sub_spgemm(&p.h22, &p.h21, &x)
}

/// Non-zero accounting behind Figure 4's trade-off: for a given partition,
/// returns `(|S|, |H22|, |H21 H11^{-1} H12|)`.
pub fn schur_nnz_breakdown(p: &HPartition, h11_lu: &BlockLu) -> Result<(usize, usize, usize)> {
    let x = h11_lu.solve_matrix(&p.h12)?;
    let prod = spgemm(&p.h21, &x)?;
    let s = ops::sub(&p.h22, &prod)?;
    Ok((s.nnz(), p.h22.nnz(), prod.nnz()))
}

/// Selects the hub ratio `k` minimizing `|S|` over a grid — the BePI-S
/// selection rule of Section 3.4 ("select k which minimizes |S|",
/// Algorithm 1 line 2). Returns the winning `k` and the per-`k`
/// `(k, |S|)` curve (the data behind Figure 4).
///
/// This runs the full reorder + Schur pipeline once per grid point, so it
/// is a preprocessing-time (not query-time) facility.
pub fn select_hub_ratio(
    g: &bepi_graph::Graph,
    c: f64,
    grid: &[f64],
) -> Result<(f64, Vec<(f64, usize)>)> {
    if grid.is_empty() {
        return Err(bepi_sparse::SparseError::Numerical(
            "hub-ratio grid must be non-empty".into(),
        ));
    }
    let mut curve = Vec::with_capacity(grid.len());
    let mut best = (grid[0], usize::MAX);
    for &k in grid {
        let p = HPartition::build(g, c, k)?;
        let lu = BlockLu::factor(&p.h11, &p.block_sizes)?;
        let s = schur_complement(&p, &lu)?;
        curve.push((k, s.nnz()));
        if s.nnz() < best.1 {
            best = (k, s.nnz());
        }
    }
    Ok((best.0, curve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::generators;
    use bepi_solver::dense_lu::DenseLu;
    use bepi_sparse::Dense;

    fn dense_schur(p: &HPartition) -> Dense {
        // S = H22 − H21 H11^{-1} H12 via dense arithmetic.
        let h11 = p.h11.to_dense();
        let inv = DenseLu::factor(&h11).unwrap().inverse().unwrap();
        let x = inv.mul(&p.h12.to_dense()).unwrap();
        let prod = p.h21.to_dense().mul(&x).unwrap();
        let mut s = p.h22.to_dense();
        for i in 0..s.nrows() {
            for j in 0..s.ncols() {
                s[(i, j)] -= prod[(i, j)];
            }
        }
        s
    }

    #[test]
    fn matches_dense_reference() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 13).unwrap();
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        assert!(p.n1 > 0 && p.n2 > 0, "need a nontrivial partition");
        let lu = BlockLu::factor(&p.h11, &p.block_sizes).unwrap();
        let s = schur_complement(&p, &lu).unwrap();
        let s_ref = dense_schur(&p);
        assert!(s.to_dense().max_abs_diff(&s_ref).unwrap() < 1e-10);
    }

    #[test]
    fn schur_complement_is_bit_identical_to_sub_of_product() {
        let g = generators::rmat(9, 2600, generators::RmatParams::default(), 19).unwrap();
        let g = generators::inject_deadends(&g, 0.1, 4).unwrap();
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        let lu = BlockLu::factor(&p.h11, &p.block_sizes).unwrap();
        let x = lu.solve_matrix(&p.h12).unwrap();
        let want = ops::sub(&p.h22, &spgemm(&p.h21, &x).unwrap()).unwrap();
        let got = schur_complement(&p, &lu).unwrap();
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(want.nnz() > 1000, "a nontrivial S");
        assert_eq!(got.indptr(), want.indptr());
        assert_eq!(got.indices(), want.indices());
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn schur_is_invertible_diagonally_dominantish() {
        // S inherits invertibility from H (Lemma 1 / [50]); check the
        // dense determinant is comfortably non-zero.
        let g = generators::erdos_renyi(120, 600, 3).unwrap();
        let p = HPartition::build(&g, 0.05, 0.2).unwrap();
        let lu = BlockLu::factor(&p.h11, &p.block_sizes).unwrap();
        let s = schur_complement(&p, &lu).unwrap();
        let det = DenseLu::factor(&s.to_dense()).unwrap().determinant();
        assert!(det.abs() > 1e-12, "det(S) = {det}");
    }

    #[test]
    fn select_hub_ratio_returns_grid_minimum() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 41).unwrap();
        let grid = [0.05, 0.2, 0.4];
        let (best, curve) = select_hub_ratio(&g, 0.05, &grid).unwrap();
        assert_eq!(curve.len(), 3);
        let min = curve.iter().min_by_key(|(_, s)| *s).unwrap();
        assert_eq!(best, min.0);
        assert!(grid.contains(&best));
        assert!(select_hub_ratio(&g, 0.05, &[]).is_err());
    }

    #[test]
    fn nnz_breakdown_is_consistent() {
        let g = generators::rmat(8, 800, generators::RmatParams::default(), 23).unwrap();
        let p = HPartition::build(&g, 0.05, 0.25).unwrap();
        let lu = BlockLu::factor(&p.h11, &p.block_sizes).unwrap();
        let (s_nnz, h22_nnz, prod_nnz) = schur_nnz_breakdown(&p, &lu).unwrap();
        let s = schur_complement(&p, &lu).unwrap();
        assert_eq!(s_nnz, s.nnz());
        assert_eq!(h22_nnz, p.h22.nnz());
        // |S| ≤ |H22| + |H21 H11^{-1} H12| (Section 3.4).
        assert!(s_nnz <= h22_nnz + prod_nnz);
    }
}
