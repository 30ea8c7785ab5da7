//! # bepi-incr
//!
//! Symbolic/numeric split of BePI preprocessing.
//!
//! BePI's preprocessing pipeline (deadend reordering, SlashBurn
//! hub-and-spoke reordering, per-block LU of `H11`, Schur complement,
//! ILU(0) preconditioning) mixes two very different kinds of work:
//!
//! * **Symbolic analysis** — choosing the node ordering and the block
//!   structure. This depends only on the *pattern* of the graph and is
//!   the expensive, hard-to-parallelize part (SlashBurn is iterative
//!   vertex removal).
//! * **Numeric factorization** — assembling `H`, inverting the diagonal
//!   blocks, forming `S = H22 − H21 H11^{-1} H12` and its ILU(0)
//!   factors. This is pure floating-point work against a fixed
//!   structure.
//!
//! This crate captures the symbolic phase in a reusable [`SymbolicPlan`]
//! ([`analyze`]), assembles `H` against a frozen plan ([`assemble`]), and
//! classifies edge-update batches as numeric-only or structural
//! ([`classify`]). A numeric-only batch is rebuilt by the plan-frozen
//! preprocess (`BePi::preprocess_with_plan` in `bepi-core`): the plan's
//! ordering is kept and every numeric phase runs in full, so the paper's
//! batch re-preprocessing (§5) skips only the reordering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops over multiple parallel arrays are the clearest (and
// often fastest) idiom in the numerical kernels here; the iterator
// rewrites clippy suggests obscure the subscript structure of the math.
#![allow(clippy::needless_range_loop)]

use bepi_graph::Graph;
use bepi_reorder::{reorder_deadends, slashburn, SlashBurnConfig};
use bepi_sparse::{Csr, Permutation, Result, SparseError};
use std::time::Instant;

/// The reusable output of the symbolic analysis phase: everything the
/// numeric phase needs that depends only on graph *structure*.
///
/// A plan is fully determined by fields that every persisted index format
/// already stores (`perm`, `n1`/`n2`/`n3`, `block_sizes`,
/// `slashburn_iterations`), so a plan round-trips through index files for
/// free — a restarted server can rebuild under the checkpointed plan
/// without re-running SlashBurn.
#[derive(Debug, Clone)]
pub struct SymbolicPlan {
    /// Composite relabeling original → reordered (deadend ∘ SlashBurn).
    pub perm: Permutation,
    /// Number of spokes.
    pub n1: usize,
    /// Number of hubs.
    pub n2: usize,
    /// Number of deadends.
    pub n3: usize,
    /// Diagonal block sizes of `H11` (SlashBurn's spoke components).
    pub block_sizes: Vec<usize>,
    /// SlashBurn iterations performed (diagnostics only).
    pub slashburn_iterations: usize,
}

impl SymbolicPlan {
    /// Total node count the plan was built for.
    pub fn n(&self) -> usize {
        self.n1 + self.n2 + self.n3
    }

    /// Block id of every spoke slot (length `n1`).
    pub fn block_of_spoke(&self) -> Vec<u32> {
        let mut block_of = vec![0u32; self.n1];
        let mut start = 0usize;
        for (bi, &size) in self.block_sizes.iter().enumerate() {
            for slot in start..start + size {
                block_of[slot] = bi as u32;
            }
            start += size;
        }
        block_of
    }
}

/// Output of [`analyze`]. The wall times of its two phases go to the
/// `preprocess.deadend` and `preprocess.slashburn` spans of `bepi-obs`.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The symbolic plan.
    pub plan: SymbolicPlan,
}

/// Runs the symbolic analysis phase: deadend reordering, SlashBurn
/// hub-and-spoke reordering of the non-deadend block, and composition of
/// the two permutations. `k` is the SlashBurn hub selection ratio.
pub fn analyze(g: &Graph, k: f64) -> Result<Analysis> {
    let n = g.n();

    // 1. Deadend reordering (paper Figure 3(b)).
    let t0 = Instant::now();
    let dr = reorder_deadends(g);
    let l = dr.n_non_deadend;
    let n3 = dr.n_deadend;
    bepi_obs::record_duration("preprocess.deadend", t0.elapsed());

    // 2. Hub-and-spoke reordering of Ann (Figure 3(c)); SlashBurn works
    //    on the symmetrized structure of the non-deadend block.
    let t1 = Instant::now();
    let sym = slashburn_input(g, &dr.perm, l)?;
    let sb = slashburn(&sym, &SlashBurnConfig::with_ratio(k));
    let (n1, n2) = (sb.n_spokes, sb.n_hubs);
    bepi_obs::record_duration("preprocess.slashburn", t1.elapsed());

    // Extend the SlashBurn permutation to all n nodes (deadends fixed).
    let mut ext = vec![0u32; n];
    for old in 0..l {
        ext[old] = sb.perm.apply(old) as u32;
    }
    for (old, e) in ext.iter_mut().enumerate().skip(l) {
        *e = old as u32;
    }
    let perm2 = Permutation::from_new_of_old(ext)?;
    let perm = dr.perm.then(&perm2)?;

    Ok(Analysis {
        plan: SymbolicPlan {
            perm,
            n1,
            n2,
            n3,
            block_sizes: sb.block_sizes,
            slashburn_iterations: sb.iterations,
        },
    })
}

/// The six `H` blocks assembled under a frozen plan. The wall time of the
/// assembly goes to the `preprocess.assemble` span of `bepi-obs`.
#[derive(Debug, Clone)]
pub struct HBlocks {
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
}

/// A distinguishable "the frozen plan no longer fits this graph" error,
/// for callers that fall back to a full preprocess.
fn structural_error(reason: &str) -> SparseError {
    SparseError::Numerical(format!("symbolic plan violated: {reason}"))
}

/// Assembles and partitions `H = I − (1−c)Ã^T` under a frozen plan —
/// the numeric half of what `HPartition::build` does, against a
/// previously captured ordering.
///
/// After one counting pass, `H` is scattered straight from the graph
/// into its six blocks: column `j` of `H` holds source `j`'s out-edges,
/// so visiting sources in new-label order fills every row in column
/// order, the identity diagonal included. A pass over the filled blocks
/// then takes each source's weight sum in the order of its permuted row
/// — the order `Csr::row_normalize` sums in — and a last pass normalises
/// in place and drops entries that round to exactly zero, as
/// `ops::add_scaled` does. The result is bit-identical to permuting,
/// row-normalising, transposing, forming `I − (1−c)·` and slicing the
/// full matrix, without building any of those intermediates.
///
/// The structural invariants the plan promises (zero upper-right block,
/// block-diagonal `H11`, identity deadend corner) are *validated at
/// runtime* here, not just debug-asserted: this is the safety backstop
/// behind the plan-frozen rebuild, so a misclassified batch surfaces as a
/// typed error instead of silently wrong factors.
pub fn assemble(g: &Graph, c: f64, plan: &SymbolicPlan) -> Result<HBlocks> {
    if !(c > 0.0 && c < 1.0) {
        return Err(SparseError::Numerical(format!(
            "restart probability must be in (0, 1), got {c}"
        )));
    }
    let n = g.n();
    if n != plan.n() {
        return Err(structural_error("node count changed"));
    }
    let adj = g.adjacency();
    if plan.perm.len() != n {
        return Err(SparseError::ShapeMismatch {
            left: adj.shape(),
            right: (plan.perm.len(), plan.perm.len()),
            op: "assemble",
        });
    }
    let (n1, n2) = (plan.n1, plan.n2);
    let l = n1 + n2;

    let t0 = Instant::now();
    // H = I + beta·Ã^T, the coefficient `ops::identity_minus_scaled(1 − c, ·)`
    // applies.
    let beta = -(1.0 - c);
    let new_of_old = plan.perm.new_of_old();
    let old_of_new = plan.perm.old_of_new();
    check_deadend_sources(adj, &plan.perm, &old_of_new[l..], beta)?;

    // Row bands of H (spokes, hubs, deadends); the first two are also its
    // column bands — deadend columns hold only the identity corner.
    let bands = [(0, n1), (n1, n2), (l, n - l)];
    let band_of = |k: usize| usize::from(k >= n1) + usize::from(k >= l);

    // Pass 1: entries per row and column band. Every non-deadend row has
    // an identity diagonal; a self-loop merges into it.
    let mut next = [vec![0usize; n], vec![0usize; n]];
    let mut has_loop = vec![false; l];
    for k in 0..l {
        next[band_of(k)][k] = 1;
    }
    for (u, &j) in new_of_old.iter().enumerate() {
        let j = j as usize;
        if j >= l {
            continue;
        }
        let cb = band_of(j);
        for &v in adj.row(u).0 {
            let k = new_of_old[v as usize] as usize;
            if k == j {
                has_loop[j] = true;
            } else {
                next[cb][k] += 1;
            }
        }
    }
    // Blocks in `[H11, H12, H21, H22, H31, H32]` order; `next[cb][k]`
    // becomes row k's write cursor in its block of column band `cb`.
    let mut blocks: Vec<BlockFill> = Vec::with_capacity(6);
    for &(row0, nrows) in &bands {
        for (cb, &(col0, ncols)) in bands[..2].iter().enumerate() {
            let mut indptr = Vec::with_capacity(nrows + 1);
            indptr.push(0usize);
            let mut acc = 0usize;
            for cursor in &mut next[cb][row0..row0 + nrows] {
                let count = *cursor;
                *cursor = acc;
                acc += count;
                indptr.push(acc);
            }
            blocks.push(BlockFill {
                row0,
                col0,
                ncols,
                indptr,
                indices: vec![0; acc],
                values: vec![0.0; acc],
            });
        }
    }

    // Pass 2: raw weights, sources in new-label order.
    for (j, &u) in old_of_new[..l].iter().enumerate() {
        let cb = band_of(j);
        let col = (j - bands[cb].0) as u32;
        // Every earlier source has written its entries of row j and no
        // later one has: the diagonal goes here.
        let diag_block = 3 * cb; // block (cb, cb): H11 or H22
        let diag = next[cb][j];
        blocks[diag_block].indices[diag] = col;
        next[cb][j] += 1;
        let (cols, weights) = adj.row(u as usize);
        for (&v, &w) in cols.iter().zip(weights) {
            let k = new_of_old[v as usize] as usize;
            if k == j {
                blocks[diag_block].values[diag] = w;
                continue;
            }
            let b = &mut blocks[2 * band_of(k) + cb];
            let p = next[cb][k];
            b.indices[p] = col;
            b.values[p] = w;
            next[cb][k] += 1;
        }
    }
    drop(next);

    // Pass 3: each source's weight sum, adding its entries in ascending
    // target label — the order of its row in the permuted adjacency.
    let mut sum = vec![0.0f64; l];
    for (rb, &(row0, nrows)) in bands.iter().enumerate() {
        for r in 0..nrows {
            let k = row0 + r;
            for b in &blocks[2 * rb..2 * rb + 2] {
                for p in b.indptr[r]..b.indptr[r + 1] {
                    let j = b.col0 + b.indices[p] as usize;
                    if j != k || has_loop[j] {
                        sum[j] += b.values[p];
                    }
                }
            }
        }
    }

    // Pass 4: normalise, scale, add the identity and drop exact zeros.
    let finished = blocks
        .into_iter()
        .map(|b| b.finish(&sum, &has_loop, beta))
        .collect::<Result<Vec<Csr>>>()?;
    let [h11, h12, h21, h22, h31, h32]: [Csr; 6] = finished.try_into().expect("six blocks");

    if !bepi_reorder::blocks::is_block_diagonal(&h11, &plan.block_sizes) {
        return Err(structural_error("H11 is no longer block diagonal"));
    }

    bepi_obs::record_duration("preprocess.assemble", t0.elapsed());

    Ok(HBlocks {
        h11,
        h12,
        h21,
        h22,
        h31,
        h32,
    })
}

/// One block of `H` being filled in place: rows `row0..` of `H`, columns
/// `col0..col0 + ncols`. Until [`BlockFill::finish`] the values are raw
/// edge weights (a diagonal slot holds its self-loop weight, or nothing).
struct BlockFill {
    row0: usize,
    col0: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl BlockFill {
    /// Turns raw weights into `H` entries and compacts out exact zeros.
    /// Each value is computed as the reference chain computes it:
    /// `a = w / sum` (or `w` when the sum is zero), then `beta·a` off the
    /// diagonal and `1.0 + beta·a` (or `1.0` without a self-loop) on it.
    fn finish(mut self, sum: &[f64], has_loop: &[bool], beta: f64) -> Result<Csr> {
        let nrows = self.indptr.len() - 1;
        let mut kept = 0usize;
        let mut start = 0usize;
        for r in 0..nrows {
            let k = self.row0 + r;
            let end = self.indptr[r + 1];
            for p in start..end {
                let j = self.col0 + self.indices[p] as usize;
                let normalised = |w: f64| if sum[j] != 0.0 { w / sum[j] } else { w };
                let v = if j != k {
                    beta * normalised(self.values[p])
                } else if has_loop[j] {
                    1.0 + beta * normalised(self.values[p])
                } else {
                    1.0
                };
                if v != 0.0 {
                    self.indices[kept] = self.indices[p];
                    self.values[kept] = v;
                    kept += 1;
                }
            }
            start = end;
            self.indptr[r + 1] = kept;
        }
        self.indices.truncate(kept);
        self.values.truncate(kept);
        Csr::from_parts(nrows, self.ncols, self.indptr, self.indices, self.values)
    }
}

/// A source the plan labels as a deadend may put nothing into `H` but its
/// identity diagonal. For such sources only — none, unless the plan no
/// longer fits — this computes their entries the way [`assemble`] would
/// and reports the same structural errors, upper-right block first.
fn check_deadend_sources(adj: &Csr, perm: &Permutation, deadends: &[u32], beta: f64) -> Result<()> {
    let l = perm.len() - deadends.len();
    let mut upper_right = false;
    let mut corner = false;
    for (j, &u) in (l..).zip(deadends) {
        let (cols, weights) = adj.row(u as usize);
        if cols.is_empty() {
            continue;
        }
        let mut row: Vec<(usize, f64)> = cols
            .iter()
            .zip(weights)
            .map(|(&v, &w)| (perm.apply(v as usize), w))
            .collect();
        row.sort_unstable_by_key(|&(k, _)| k);
        let sum: f64 = row.iter().map(|&(_, w)| w).sum();
        for (k, w) in row {
            let a = if sum != 0.0 { w / sum } else { w };
            if k == j {
                corner |= 1.0 + beta * a != 1.0;
            } else if beta * a != 0.0 {
                if k < l {
                    upper_right = true;
                } else {
                    corner = true;
                }
            }
        }
    }
    if upper_right {
        Err(structural_error("deadend gained out-edges"))
    } else if corner {
        Err(structural_error("deadend corner is not the identity"))
    } else {
        Ok(())
    }
}

/// Verdict of [`classify`] for one update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification {
    /// Every change stays inside the frozen structure: the plan-frozen
    /// preprocess applies.
    NumericOnly(()),
    /// The plan no longer fits (reason attached); fall back to a full
    /// preprocess.
    Structural(String),
}

/// Classifies an applied update batch against a frozen plan.
///
/// `sources` are the source nodes of every update in the batch (targets
/// need not be listed: an edge `u → v` only rewrites row `u` of the
/// adjacency matrix, i.e. column `p(u)` of `H`). The classifier compares
/// each source's adjacency row in `g_old` vs `g_new` and reports
/// **Structural** when the node count changed, a source is out of range,
/// a source flipped deadend status (the deadend ordering would move), or
/// a spoke source has a target in a *different* `H11` block
/// (block-diagonality would break); **NumericOnly** otherwise.
pub fn classify(
    plan: &SymbolicPlan,
    g_old: &Graph,
    g_new: &Graph,
    sources: &[usize],
) -> Classification {
    let n = plan.n();
    if g_old.n() != n || g_new.n() != n {
        return Classification::Structural(format!(
            "node count changed ({} -> {}, plan has {n})",
            g_old.n(),
            g_new.n()
        ));
    }
    let l = plan.n1 + plan.n2;
    let block_of = plan.block_of_spoke();
    for &u in sources {
        if u >= n {
            return Classification::Structural(format!("update source {u} out of range"));
        }
        let (oc, ov) = g_old.adjacency().row(u);
        let (nc, nv) = g_new.adjacency().row(u);
        if oc == nc && ov == nv {
            continue; // the batch was a no-op for this source
        }
        if oc.is_empty() != nc.is_empty() {
            return Classification::Structural(format!("node {u} flipped deadend status"));
        }
        let pu = plan.perm.apply(u);
        if pu >= l {
            // A deadend whose row changed without flipping status cannot
            // happen (both rows would be empty); be defensive anyway.
            return Classification::Structural(format!("deadend node {u} changed out-edges"));
        }
        if pu < plan.n1 {
            let b = block_of[pu];
            for &v in nc {
                let pv = plan.perm.apply(v as usize);
                if pv < plan.n1 && block_of[pv] != b {
                    return Classification::Structural(format!(
                        "edge {u} -> {v} crosses H11 blocks"
                    ));
                }
            }
        }
    }
    Classification::NumericOnly(())
}

/// SlashBurn's input: the 0/1 pattern of `Ann ∨ Annᵀ`, where `Ann` is
/// the graph restricted to its `l` non-deadends in the deadend labels
/// `perm`. That relabelling keeps the non-deadends in their original
/// order, so row `i` of `Ann` is the `i`-th non-deadend's graph row with
/// its deadend targets dropped, already sorted. `Annᵀ` is one counting
/// sort over the graph's rows, and each output row is the merge of the
/// two sorted rows without duplicates.
fn slashburn_input(g: &Graph, perm: &Permutation, l: usize) -> Result<Csr> {
    let adj = g.adjacency();
    let new_of_old = perm.new_of_old();
    // Live sources in ascending original id, which is ascending label.
    let live = || {
        new_of_old
            .iter()
            .enumerate()
            .filter(move |&(_, &i)| (i as usize) < l)
            .map(|(u, &i)| (adj.row(u).0, i))
    };
    let live_target = |v: &u32| {
        let j = new_of_old[*v as usize];
        ((j as usize) < l).then_some(j)
    };

    let mut t_ptr = vec![0usize; l + 1];
    for (cols, _) in live() {
        for j in cols.iter().filter_map(live_target) {
            t_ptr[j as usize + 1] += 1;
        }
    }
    for i in 0..l {
        t_ptr[i + 1] += t_ptr[i];
    }
    let mut t_idx = vec![0u32; t_ptr[l]];
    let mut next = t_ptr[..l].to_vec();
    for (cols, i) in live() {
        for j in cols.iter().filter_map(live_target) {
            t_idx[next[j as usize]] = i;
            next[j as usize] += 1;
        }
    }

    let mut indptr = Vec::with_capacity(l + 1);
    indptr.push(0usize);
    let mut indices: Vec<u32> = Vec::with_capacity(2 * t_idx.len());
    for (cols, i) in live() {
        let mut fwd = cols.iter().filter_map(live_target).peekable();
        let mut bwd = t_idx[t_ptr[i as usize]..t_ptr[i as usize + 1]]
            .iter()
            .copied()
            .peekable();
        loop {
            let col = match (fwd.peek(), bwd.peek()) {
                (None, None) => break,
                (Some(&a), Some(&b)) if a == b => {
                    bwd.next();
                    fwd.next()
                }
                (Some(&a), Some(&b)) if a > b => bwd.next(),
                (Some(_), _) => fwd.next(),
                (None, Some(_)) => bwd.next(),
            };
            indices.extend(col);
        }
        indptr.push(indices.len());
    }
    let values = vec![1.0; indices.len()];
    Csr::from_parts(l, l, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_graph::generators;
    use bepi_sparse::Coo;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const C: f64 = 0.05;
    const K: f64 = 0.2;

    fn plan_and_blocks(g: &Graph) -> (SymbolicPlan, HBlocks) {
        let analysis = analyze(g, K).unwrap();
        let blocks = assemble(g, C, &analysis.plan).unwrap();
        (analysis.plan, blocks)
    }

    /// A numeric-safe update: remove an existing edge whose source keeps
    /// other out-edges (removals never cross blocks or flip deadends).
    fn removable_edge(g: &Graph) -> (usize, usize) {
        for u in 0..g.n() {
            if g.out_degree(u) >= 2 {
                let (cols, _) = g.adjacency().row(u);
                return (u, cols[0] as usize);
            }
        }
        panic!("no removable edge in test graph");
    }

    fn without_edge(g: &Graph, u: usize, v: usize) -> Graph {
        let mut coo = Coo::new(g.n(), g.n()).unwrap();
        for (r, c, w) in g.adjacency().iter() {
            if !(r == u && c == v) {
                coo.push(r, c, w).unwrap();
            }
        }
        Graph::from_adjacency(coo.to_csr()).unwrap()
    }

    #[test]
    fn analyze_partitions_every_node() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 1).unwrap();
        let analysis = analyze(&g, K).unwrap();
        let plan = &analysis.plan;
        assert_eq!(plan.n(), g.n());
        assert_eq!(plan.n3, g.deadend_count());
        assert_eq!(plan.block_sizes.iter().sum::<usize>(), plan.n1);
        assert_eq!(plan.block_of_spoke().len(), plan.n1);
    }

    #[test]
    fn assemble_validates_structure() {
        let g = generators::rmat(8, 700, generators::RmatParams::default(), 5).unwrap();
        let (plan, blocks) = plan_and_blocks(&g);
        assert!(bepi_reorder::blocks::is_block_diagonal(
            &blocks.h11,
            &plan.block_sizes
        ));
        // A different-sized graph is rejected as structural.
        let bigger = generators::cycle(g.n() + 1);
        assert!(assemble(&bigger, C, &plan).is_err());
        assert!(assemble(&g, 1.5, &plan).is_err());
    }

    #[test]
    fn classify_noop_batch_is_numeric_and_empty() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 13).unwrap();
        let (plan, _) = plan_and_blocks(&g);
        assert_eq!(
            classify(&plan, &g, &g, &[0, 1, 2]),
            Classification::NumericOnly(())
        );
    }

    #[test]
    fn classify_detects_node_count_change() {
        let g = generators::cycle(10);
        let (plan, _) = plan_and_blocks(&g);
        let bigger = generators::cycle(11);
        assert!(matches!(
            classify(&plan, &g, &bigger, &[0]),
            Classification::Structural(_)
        ));
    }

    #[test]
    fn classify_detects_deadend_flip() {
        // Removing node u's only out-edge makes it a deadend.
        let g = generators::cycle(12);
        let (plan, _) = plan_and_blocks(&g);
        let g_new = without_edge(&g, 3, 4);
        assert!(matches!(
            classify(&plan, &g, &g_new, &[3]),
            Classification::Structural(_)
        ));
    }

    #[test]
    fn classify_removal_of_redundant_edge_is_numeric() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 7).unwrap();
        let (plan, _) = plan_and_blocks(&g);
        let (u, v) = removable_edge(&g);
        let g_new = without_edge(&g, u, v);
        assert_eq!(
            classify(&plan, &g, &g_new, &[u]),
            Classification::NumericOnly(())
        );
    }

    /// The chain the fused builders replaced, kept as their oracle: every
    /// intermediate matrix materialised, exactly as preprocessing ran it.
    mod reference {
        use super::*;
        use bepi_sparse::ops;

        /// Deadend permute → slice → symmetrize.
        pub fn slashburn_input(g: &Graph) -> Csr {
            let dr = reorder_deadends(g);
            let l = dr.n_non_deadend;
            let a1 = dr.perm.permute_symmetric(g.adjacency()).unwrap();
            symmetrize(&a1.slice_block(0..l, 0..l).unwrap())
        }

        fn symmetrize(a: &Csr) -> Csr {
            let mut b = a.clone();
            b.values_mut().fill(1.0);
            let mut t = a.transpose();
            t.values_mut().fill(1.0);
            let mut s = ops::add(&b, &t).unwrap();
            s.values_mut().fill(1.0);
            s
        }

        pub fn analyze(g: &Graph, k: f64) -> SymbolicPlan {
            let dr = reorder_deadends(g);
            let l = dr.n_non_deadend;
            let sb = slashburn(&slashburn_input(g), &SlashBurnConfig::with_ratio(k));
            let ext: Vec<u32> = (0..g.n())
                .map(|old| if old < l { sb.perm.apply(old) } else { old } as u32)
                .collect();
            let perm = dr
                .perm
                .then(&Permutation::from_new_of_old(ext).unwrap())
                .unwrap();
            SymbolicPlan {
                perm,
                n1: sb.n_spokes,
                n2: sb.n_hubs,
                n3: dr.n_deadend,
                block_sizes: sb.block_sizes,
                slashburn_iterations: sb.iterations,
            }
        }

        /// `permute_symmetric` → `row_normalize` → `transpose` →
        /// `identity_minus_scaled` → `slice_block`, then the three
        /// structural checks.
        pub fn assemble(g: &Graph, c: f64, plan: &SymbolicPlan) -> Result<[Csr; 6]> {
            let n = g.n();
            let (n1, l) = (plan.n1, plan.n1 + plan.n2);
            let mut a = plan.perm.permute_symmetric(g.adjacency())?;
            a.row_normalize();
            let h = ops::identity_minus_scaled(1.0 - c, &a.transpose())?;
            let blocks = [
                h.slice_block(0..n1, 0..n1)?,
                h.slice_block(0..n1, n1..l)?,
                h.slice_block(n1..l, 0..n1)?,
                h.slice_block(n1..l, n1..l)?,
                h.slice_block(l..n, 0..n1)?,
                h.slice_block(l..n, n1..l)?,
            ];
            if h.slice_block(0..l, l..n)?.nnz() != 0 {
                return Err(structural_error("deadend gained out-edges"));
            }
            if h.slice_block(l..n, l..n)? != Csr::identity(n - l) {
                return Err(structural_error("deadend corner is not the identity"));
            }
            if !bepi_reorder::blocks::is_block_diagonal(&blocks[0], &plan.block_sizes) {
                return Err(structural_error("H11 is no longer block diagonal"));
            }
            Ok(blocks)
        }
    }

    fn assert_bits_eq(got: &Csr, want: &Csr, what: &str) {
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        assert_eq!(got.indptr(), want.indptr(), "{what}: indptr");
        assert_eq!(got.indices(), want.indices(), "{what}: indices");
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    /// Fused SlashBurn input, plan and `H` blocks against the reference
    /// chain, bit for bit. Returns the plan for follow-up checks.
    fn assert_matches_reference(g: &Graph, k: f64, c: f64) -> SymbolicPlan {
        let dr = reorder_deadends(g);
        let sym = slashburn_input(g, &dr.perm, dr.n_non_deadend).unwrap();
        assert_bits_eq(&sym, &reference::slashburn_input(g), "slashburn input");
        let plan = analyze(g, k).unwrap().plan;
        let want = reference::analyze(g, k);
        assert_eq!(plan.perm, want.perm, "perm");
        assert_eq!(
            (plan.n1, plan.n2, plan.n3, plan.slashburn_iterations),
            (want.n1, want.n2, want.n3, want.slashburn_iterations)
        );
        assert_eq!(plan.block_sizes, want.block_sizes, "block sizes");
        let got = assemble(g, c, &plan).unwrap();
        let want = reference::assemble(g, c, &plan).unwrap();
        let got = [&got.h11, &got.h12, &got.h21, &got.h22, &got.h31, &got.h32];
        for (name, (g, w)) in ["h11", "h12", "h21", "h22", "h31", "h32"]
            .iter()
            .zip(got.into_iter().zip(&want))
        {
            assert_bits_eq(g, w, name);
        }
        plan
    }

    /// Both builders must agree on success and on every error message.
    fn assert_same_outcome(g: &Graph, plan: &SymbolicPlan) {
        match (assemble(g, C, plan), reference::assemble(g, C, plan)) {
            (Ok(_), Ok(_)) => {}
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("fused {:?}, reference {:?}", got.err(), want.err()),
        }
    }

    fn weighted(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
        let mut coo = Coo::new(n, n).unwrap();
        for &(u, v, w) in edges {
            coo.push(u, v, w).unwrap();
        }
        Graph::from_adjacency(coo.to_csr()).unwrap()
    }

    /// `g`'s edges re-weighted by `weight(edge index)`, on `extra` more
    /// (isolated) nodes, plus `more` edges.
    fn reweighted(
        g: &Graph,
        extra: usize,
        weight: impl Fn(usize) -> f64,
        more: &[(usize, usize, f64)],
    ) -> Graph {
        let mut edges: Vec<(usize, usize, f64)> = g
            .adjacency()
            .iter()
            .enumerate()
            .map(|(i, (u, v, _))| (u, v, weight(i)))
            .collect();
        edges.extend_from_slice(more);
        weighted(g.n() + extra, &edges)
    }

    fn rmat_with_deadends() -> Graph {
        let g = generators::rmat(8, 1400, generators::RmatParams::default(), 41).unwrap();
        generators::inject_deadends(&g, 0.15, 2).unwrap()
    }

    #[test]
    fn fused_builders_match_reference_chain_on_rmat_with_deadends_isolated_nodes_and_loops() {
        let g = rmat_with_deadends();
        let n = g.n();
        // Self-loops on every 9th node, and two nodes whose only edge is
        // a self-loop (isolated nodes follow at n..n + 5).
        let mut loops: Vec<(usize, usize, f64)> = (0..n).step_by(9).map(|u| (u, u, 1.0)).collect();
        loops.extend([(n, n, 2.0), (n + 1, n + 1, 0.5)]);
        let g = reweighted(&g, 5, |_| 1.0, &loops);
        assert!(g.deadend_count() > 3);
        for (k, c) in [(0.2, C), (0.05, 0.5), (0.5, 0.85)] {
            assert_matches_reference(&g, k, c);
        }
    }

    #[test]
    fn fused_builders_match_reference_chain_on_merged_duplicate_edges() {
        let base = generators::rmat(7, 500, generators::RmatParams::default(), 8).unwrap();
        let mut edges: Vec<(usize, usize)> =
            base.adjacency().iter().map(|(u, v, _)| (u, v)).collect();
        // Every 3rd edge twice more, every 7th once more.
        let dups: Vec<(usize, usize)> = (edges.iter().step_by(3))
            .chain(edges.iter().step_by(3))
            .chain(edges.iter().step_by(7))
            .copied()
            .collect();
        edges.extend(dups);
        let g = Graph::from_edges(base.n(), &edges).unwrap();
        assert!(g.adjacency().values().iter().any(|&w| w >= 3.0));
        assert_matches_reference(&g, K, C);
    }

    #[test]
    fn fused_builders_match_reference_chain_on_weights_spanning_24_decades() {
        let g = rmat_with_deadends();
        // Weights 10^e, e ∈ [−12, 12], scattered by a multiplicative hash:
        // sums depend on summation order, so only the reference order
        // reproduces them.
        let g = reweighted(
            &g,
            0,
            |i| {
                10f64.powi((i.wrapping_mul(2_654_435_761) % 25) as i32 - 12)
                    * (1.0 + (i % 7) as f64 / 7.0)
            },
            &[],
        );
        assert_matches_reference(&g, K, C);
        assert_matches_reference(&g, 0.05, 0.3);
    }

    #[test]
    fn fused_builders_match_reference_chain_when_normalised_weights_underflow() {
        let g = rmat_with_deadends();
        let n = g.n();
        let busy = (0..n).max_by_key(|&u| g.out_degree(u)).unwrap();
        // Every edge of the busiest node is 1e-300 except one of 1e300:
        // the small ones normalise to exactly zero and must be dropped
        // from H, like a 1e-300 self-loop whose diagonal stays exactly 1.
        let (cols, _) = g.adjacency().row(busy);
        let heavy = cols
            .iter()
            .map(|&v| v as usize)
            .find(|&v| v != busy)
            .unwrap();
        let mut edges: Vec<(usize, usize, f64)> = g
            .adjacency()
            .iter()
            .filter(|&(u, v, _)| !(u == busy && v == busy))
            .map(|(u, v, _)| {
                let w = match (u == busy, v == heavy) {
                    (false, _) => 1.0,
                    (true, true) => 1e300,
                    (true, false) => 1e-300,
                };
                (u, v, w)
            })
            .collect();
        edges.push((busy, busy, 1e-300));
        let g = weighted(n, &edges);
        let plan = assert_matches_reference(&g, K, C);
        // Column p(busy) of H keeps exactly the heavy edge and the diagonal.
        let blocks = assemble(&g, C, &plan).unwrap();
        let pb = plan.perm.apply(busy);
        let in_column = |m: &Csr, col0: usize| {
            m.indices()
                .iter()
                .filter(|&&c| col0 + c as usize == pb)
                .count()
        };
        let spoke_cols = [&blocks.h11, &blocks.h21, &blocks.h31];
        let hub_cols = [&blocks.h12, &blocks.h22, &blocks.h32];
        let kept: usize = spoke_cols.iter().map(|m| in_column(m, 0)).sum::<usize>()
            + hub_cols
                .iter()
                .map(|m| in_column(m, plan.n1))
                .sum::<usize>();
        assert!(g.out_degree(busy) > 3);
        assert_eq!(kept, 2, "underflowed entries are dropped");
    }

    #[test]
    fn fused_builders_report_the_reference_structural_errors() {
        let g = rmat_with_deadends();
        let plan = analyze(&g, K).unwrap().plan;
        let n = g.n();
        let l = plan.n1 + plan.n2;
        let old_of_new = plan.perm.old_of_new();
        let old = |j: usize| old_of_new[j] as usize;
        let dead: Vec<usize> = (l..n).map(old).collect();
        let live = old(0);
        let spokes: Vec<usize> = (0..plan.n1).map(old).collect();
        let with = |more: &[(usize, usize, f64)]| reweighted(&g, 0, |_| 1.0, more);
        let cases = [
            // A deadend gains an edge into the non-deadend block.
            with(&[(dead[0], live, 1.0)]),
            // ... a self-loop only, or an edge to another deadend.
            with(&[(dead[0], dead[0], 1.0)]),
            with(&[(dead[0], dead[1], 1.0)]),
            // ... both: the upper-right error wins.
            with(&[(dead[0], dead[1], 1.0), (dead[0], live, 1.0)]),
            // ... an upper-right edge that normalises to zero beside a
            // corner edge: only the corner breaks.
            with(&[(dead[0], dead[1], 1e300), (dead[0], live, 1e-300)]),
            // A spoke edge across two H11 blocks.
            with(&[(spokes[0], *spokes.last().unwrap(), 1.0)]),
        ];
        for g in &cases {
            assert_same_outcome(g, &plan);
        }
        assert!(assemble(&cases[0], C, &plan).is_err());
    }

    fn random_graph() -> impl Strategy<Value = Graph> {
        (2usize..40).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, 0usize..6), 0..(n * 4)).prop_map(move |edges| {
                const WEIGHTS: [f64; 6] = [1.0, 0.5, 3.0, 1e-300, 1e300, 7e-3];
                let edges: Vec<(usize, usize, f64)> = edges
                    .into_iter()
                    .map(|(u, v, w)| (u, v, WEIGHTS[w]))
                    .collect();
                weighted(n, &edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn fused_builders_match_reference_chain_on_random_graphs(
            g in random_graph(),
            k_idx in 0usize..3,
            c_idx in 0usize..3,
        ) {
            assert_matches_reference(&g, [0.05, 0.2, 0.5][k_idx], [0.05, 0.5, 0.9][c_idx]);
        }
    }

    /// `g` with `updates` applied in order, as a live rebuild applies a
    /// batch: an insert adds the edge at weight 1 unless it is present, a
    /// remove drops it.
    fn applied(g: &Graph, updates: &[(usize, usize, bool)]) -> Graph {
        let mut edges: BTreeMap<(usize, usize), f64> =
            g.adjacency().iter().map(|(u, v, w)| ((u, v), w)).collect();
        for &(u, v, insert) in updates {
            if insert {
                edges.entry((u, v)).or_insert(1.0);
            } else {
                edges.remove(&(u, v));
            }
        }
        let mut coo = Coo::new(g.n(), g.n()).unwrap();
        for ((u, v), w) in edges {
            coo.push(u, v, w).unwrap();
        }
        Graph::from_adjacency(coo.to_csr()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// What a numeric verdict promises: on R-MAT graphs with dead ends
        /// and random batches, `NumericOnly` means `assemble` under the
        /// plan succeeds, and a cross-block verdict means it fails with a
        /// structural error — the block-diagonality one unless a plan
        /// dead end also gained out-edges. Batches mix removals of present
        /// edges and inserts from a non-dead end to a random node, to a hub
        /// or to a node of its own `H11` block, and from any node to any.
        #[test]
        fn classify_verdicts_match_assemble_on_rmat_with_deadends(
            seed in 0u64..64,
            ops in proptest::collection::vec((0usize..5, 0u32..1 << 20, 0u32..1 << 20), 1..6),
        ) {
            let g = generators::rmat(7, 450, generators::RmatParams::default(), seed).unwrap();
            let g = generators::inject_deadends(&g, 0.15, seed).unwrap();
            let plan = analyze(&g, K).unwrap().plan;
            let (n, n1, l) = (g.n(), plan.n1, plan.n1 + plan.n2);
            let old_of_new = plan.perm.old_of_new();
            let block_of = plan.block_of_spoke();
            let updates: Vec<(usize, usize, bool)> = ops
                .iter()
                .map(|&(kind, a, b)| {
                    // Kind 4 may start at a dead end; the others do not.
                    let (a, b) = (a as usize, b as usize);
                    let u = match kind {
                        4 => a % n,
                        _ => old_of_new[a % l] as usize,
                    };
                    let (cols, _) = g.adjacency().row(u);
                    let pu = plan.perm.apply(u);
                    match kind {
                        0 if cols.len() >= 2 => (u, cols[b % cols.len()] as usize, false),
                        2 if l > n1 => (u, old_of_new[n1 + b % (l - n1)] as usize, true),
                        3 if pu < n1 => {
                            let mates: Vec<usize> =
                                (0..n1).filter(|&j| block_of[j] == block_of[pu]).collect();
                            (u, old_of_new[mates[b % mates.len()]] as usize, true)
                        }
                        _ => (u, b % n, true),
                    }
                })
                .collect();
            let g_new = applied(&g, &updates);
            let sources: Vec<usize> = updates.iter().map(|&(u, _, _)| u).collect();
            let assembled = assemble(&g_new, C, &plan);
            match classify(&plan, &g, &g_new, &sources) {
                Classification::NumericOnly(()) => {
                    let err = assembled.err();
                    prop_assert!(err.is_none(), "numeric verdict, assemble: {:?}", err);
                }
                Classification::Structural(why) if why.contains("crosses H11 blocks") => {
                    let err = assembled
                        .expect_err("a cross-block edge must fail assemble")
                        .to_string();
                    let deadend_gained = old_of_new[l..]
                        .iter()
                        .any(|&d| g_new.out_degree(d as usize) > 0);
                    if deadend_gained {
                        prop_assert!(err.contains("symbolic plan violated"), "{}", err);
                    } else {
                        prop_assert_eq!(
                            err,
                            "numerical error: symbolic plan violated: H11 is no longer block diagonal"
                        );
                    }
                }
                Classification::Structural(_) => {}
            }
        }
    }
}
