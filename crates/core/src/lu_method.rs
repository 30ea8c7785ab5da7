//! The LU-decomposition baseline (Fujiwara et al., VLDB 2012;
//! Section 2.3 of the BePI paper).
//!
//! Preprocessing: reorder `H` (deadends split off, non-deadend block
//! ordered by ascending degree to limit fill-in), sparse-LU-factor `Hnn`,
//! and store the *inverted* factors `L^{-1}`, `U^{-1}` so queries are two
//! SpMVs: `rn = c U^{-1}(L^{-1} qn)`. The inverted factors of a whole
//! connected graph are nearly dense — the scalability wall the paper
//! shows in Figures 1 and 5.

use crate::rwr::{check_restart_prob, check_seed, RwrScores, RwrSolver};
use crate::DEFAULT_RESTART_PROB;
use bepi_graph::Graph;
use bepi_reorder::{degree_order, reorder_deadends, DegreeOrder};
use bepi_sparse::{ops, Csc, Csr, MemBytes, Permutation, Result, SparseError};
use std::time::{Duration, Instant};

/// Which fill-reducing ordering the LU baseline applies to the
/// non-deadend block before factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LuOrdering {
    /// Ascending total degree (Fujiwara et al.'s primary criterion).
    #[default]
    Degree,
    /// Reverse Cuthill–McKee (bandwidth-reducing ablation alternative).
    Rcm,
    /// No reordering beyond the deadend split (ablation control).
    Natural,
}

/// Configuration of the LU-decomposition baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuDecompConfig {
    /// Restart probability.
    pub c: f64,
    /// Refuse when the non-deadend dimension exceeds this bound — the
    /// inverted triangular factors are `O(l²)`; this is the stand-in for
    /// the paper's memory/time gates.
    pub max_dimension: usize,
    /// Fill-reducing ordering of the non-deadend block.
    pub ordering: LuOrdering,
}

impl Default for LuDecompConfig {
    fn default() -> Self {
        Self {
            c: DEFAULT_RESTART_PROB,
            max_dimension: 20_000,
            ordering: LuOrdering::Degree,
        }
    }
}

/// A preprocessed LU-decomposition instance.
#[derive(Debug, Clone)]
pub struct LuDecomp {
    config: LuDecompConfig,
    perm: Permutation,
    n_live: usize,
    n_dead: usize,
    /// Inverted factors of `Hnn` (stored as CSR for fast SpMV).
    l_inv: Csr,
    u_inv: Csr,
    /// `Hdn` block for the deadend part of a query.
    h_dn: Csr,
    /// Preprocessing wall-clock time.
    pub preprocess_time: Duration,
}

impl LuDecomp {
    /// Runs the preprocessing phase: reorder, factor, invert factors.
    pub fn preprocess(g: &Graph, config: &LuDecompConfig) -> Result<Self> {
        check_restart_prob(config.c)?;
        let start = Instant::now();
        let n = g.n();

        let dr = reorder_deadends(g);
        let l = dr.n_non_deadend;
        if l > config.max_dimension {
            return Err(SparseError::Numerical(format!(
                "LU decomposition out of budget: dimension {l} exceeds cap {} \
                 (inverted factors are O(l²))",
                config.max_dimension
            )));
        }
        // Fill-reducing order of the non-deadend nodes (deadends fixed at
        // the end). Nodes are sorted by their label under the chosen
        // ordering, giving a deterministic combined permutation.
        let fill_order: Permutation = match config.ordering {
            LuOrdering::Degree => degree_order(g, DegreeOrder::Ascending),
            LuOrdering::Rcm => bepi_reorder::rcm_order(g),
            LuOrdering::Natural => Permutation::identity(n),
        };
        let mut live: Vec<u32> = (0..n as u32)
            .filter(|&u| g.out_degree(u as usize) > 0)
            .collect();
        live.sort_by_key(|&u| fill_order.apply(u as usize));
        let mut old_of_new: Vec<u32> = live;
        old_of_new.extend((0..n as u32).filter(|&u| g.out_degree(u as usize) == 0));
        let perm = Permutation::from_old_of_new(old_of_new)?;
        let _ = dr;

        let a = perm.permute_symmetric(g.adjacency())?;
        let mut a_norm = a;
        a_norm.row_normalize();
        let at = a_norm.transpose();
        let h = ops::identity_minus_scaled(1.0 - config.c, &at)?;
        let h_nn = h.slice_block(0..l, 0..l)?;
        let h_dn = h.slice_block(l..n, 0..l)?;

        let lu = bepi_solver::SparseLu::factor(&Csc::from_csr(&h_nn))?;
        let (l_inv_csc, u_inv_csc) = lu.invert_factors();
        Ok(Self {
            config: *config,
            perm,
            n_live: l,
            n_dead: n - l,
            l_inv: l_inv_csc.to_csr(),
            u_inv: u_inv_csc.to_csr(),
            h_dn,
            preprocess_time: start.elapsed(),
        })
    }
}

impl RwrSolver for LuDecomp {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn node_count(&self) -> usize {
        self.n_live + self.n_dead
    }

    fn query(&self, seed: usize) -> Result<RwrScores> {
        let n = self.node_count();
        check_seed(seed, n)?;
        let c = self.config.c;
        let seed_new = self.perm.apply(seed);
        let mut qn = vec![0.0; self.n_live];
        let mut qd = vec![0.0; self.n_dead];
        if seed_new < self.n_live {
            qn[seed_new] = c;
        } else {
            qd[seed_new - self.n_live] = c;
        }
        // rn = U^{-1}(L^{-1}(c qn)); rd = c qd − Hdn rn (Equations 3–4).
        let t = self.l_inv.mul_vec(&qn)?;
        let rn = self.u_inv.mul_vec(&t)?;
        let hdn_rn = self.h_dn.mul_vec(&rn)?;
        let rd: Vec<f64> = qd.iter().zip(&hdn_rn).map(|(q, h)| q - h).collect();
        let mut r = rn;
        r.extend_from_slice(&rd);
        Ok(RwrScores {
            scores: self.perm.unpermute_vec(&r)?,
            iterations: 0,
            residual: 0.0,
        })
    }

    fn preprocessed_bytes(&self) -> usize {
        self.l_inv.mem_bytes()
            + self.u_inv.mem_bytes()
            + self.h_dn.mem_bytes()
            + self.perm.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::generators;
    use bepi_solver::power::{power_iteration, PowerConfig};

    /// Non-zeros of the inverted factors (the baseline's memory driver).
    fn factor_nnz(s: &LuDecomp) -> usize {
        s.l_inv.nnz() + s.u_inv.nnz()
    }

    fn power_reference(g: &Graph, c: f64, seed: usize) -> Vec<f64> {
        let a = g.row_normalized();
        let q = crate::rwr::seed_vector(g.n(), seed).unwrap();
        power_iteration(
            &a,
            c,
            &q,
            &PowerConfig {
                tol: 1e-13,
                max_iters: 100_000,
            },
            false,
        )
        .unwrap()
        .r
    }

    #[test]
    fn matches_power_iteration() {
        let g = generators::rmat(7, 450, generators::RmatParams::default(), 3).unwrap();
        let g = generators::inject_deadends(&g, 0.15, 4).unwrap();
        let solver = LuDecomp::preprocess(&g, &LuDecompConfig::default()).unwrap();
        for seed in [0usize, 50, 127] {
            let got = solver.query(seed).unwrap();
            let want = power_reference(&g, 0.05, seed);
            for (a, b) in got.scores.iter().zip(&want) {
                assert!((a - b).abs() < 1e-8, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn deadend_seed_query() {
        let g = generators::path(10);
        let solver = LuDecomp::preprocess(&g, &LuDecompConfig::default()).unwrap();
        // Node 9 is a deadend; its RWR score vector is c at itself.
        let got = solver.query(9).unwrap();
        assert!((got.scores[9] - 0.05).abs() < 1e-12);
        assert!(got.scores[..9].iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn all_orderings_give_identical_scores() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 29).unwrap();
        let reference = LuDecomp::preprocess(&g, &LuDecompConfig::default()).unwrap();
        let want = reference.query(11).unwrap();
        for ordering in [LuOrdering::Rcm, LuOrdering::Natural] {
            let solver = LuDecomp::preprocess(
                &g,
                &LuDecompConfig {
                    ordering,
                    ..LuDecompConfig::default()
                },
            )
            .unwrap();
            let got = solver.query(11).unwrap();
            for (a, b) in got.scores.iter().zip(&want.scores) {
                assert!((a - b).abs() < 1e-9, "{ordering:?}");
            }
        }
    }

    #[test]
    fn fill_reducing_orderings_beat_natural() {
        // On a power-law graph, degree ordering should produce less fill
        // than no ordering at all (the point of Fujiwara's reordering).
        let g = generators::rmat(9, 2500, generators::RmatParams::default(), 37).unwrap();
        let nat = LuDecomp::preprocess(
            &g,
            &LuDecompConfig {
                ordering: LuOrdering::Natural,
                ..LuDecompConfig::default()
            },
        )
        .unwrap();
        let deg = LuDecomp::preprocess(&g, &LuDecompConfig::default()).unwrap();
        let (deg, nat) = (factor_nnz(&deg), factor_nnz(&nat));
        assert!(deg < nat, "degree {deg} vs natural {nat}");
    }

    #[test]
    fn dimension_cap_triggers_out_of_budget() {
        let g = generators::erdos_renyi(100, 400, 1).unwrap();
        let cfg = LuDecompConfig {
            max_dimension: 10,
            ..LuDecompConfig::default()
        };
        assert!(LuDecomp::preprocess(&g, &cfg).is_err());
    }

    #[test]
    fn inverted_factors_fill_in() {
        // A connected graph's inverted factors are denser than H itself.
        let g = generators::erdos_renyi(150, 900, 8).unwrap();
        let solver = LuDecomp::preprocess(&g, &LuDecompConfig::default()).unwrap();
        assert!(factor_nnz(&solver) > g.m());
        assert!(solver.preprocessed_bytes() > 0);
    }
}
