//! # bepi-incr
//!
//! Symbolic/numeric split of BePI preprocessing, following the
//! analyze/factor/refactor pattern of KLU-style sparse direct solvers.
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
//! ([`analyze`]), re-runs the numeric phase against a frozen plan
//! ([`assemble`]), classifies edge-update batches as numeric-only or
//! structural ([`classify`]), and recomputes only the `H11` blocks and
//! Schur rows whose inputs changed ([`refactor_schur`], together with
//! `FrozenBlockLu::refactor_blocks` in `bepi-solver`). A numeric-only refactor
//! is bit-identical to a full numeric factorization under the same plan:
//! every recomputed row runs the identical kernel on identical inputs,
//! and every untouched row is copied verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops over multiple parallel arrays are the clearest (and
// often fastest) idiom in the numerical kernels here; the iterator
// rewrites clippy suggests obscure the subscript structure of the math.
#![allow(clippy::needless_range_loop)]

use bepi_graph::Graph;
use bepi_reorder::{reorder_deadends, slashburn, SlashBurnConfig};
use bepi_solver::BlockLu;
use bepi_sparse::{spgemm, sub_spgemm, CodedCsr, Coo, Csr, Permutation, Result, SparseError};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The reusable output of the symbolic analysis phase: everything the
/// numeric phase needs that depends only on graph *structure*.
///
/// A plan is fully determined by fields that every persisted index format
/// already stores (`perm`, `n1`/`n2`/`n3`, `block_sizes`,
/// `slashburn_iterations`), so a plan round-trips through index files for
/// free — a restarted server can refactor against the checkpointed plan
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

    /// Start offset of each `H11` diagonal block.
    pub fn block_starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.block_sizes.len());
        let mut acc = 0usize;
        for &s in &self.block_sizes {
            starts.push(acc);
            acc += s;
        }
        starts
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

/// Output of [`analyze`]: the plan plus the phase wall times the caller
/// folds into its preprocessing statistics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The symbolic plan.
    pub plan: SymbolicPlan,
    /// Wall time of the deadend reordering step.
    pub deadend_time: Duration,
    /// Wall time of the SlashBurn reordering step.
    pub slashburn_time: Duration,
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
    let deadend_time = t0.elapsed();
    bepi_obs::record_duration("preprocess.deadend", deadend_time);

    // 2. Hub-and-spoke reordering of Ann (Figure 3(c)); SlashBurn works
    //    on the symmetrized structure of the non-deadend block.
    let t1 = Instant::now();
    let sym = slashburn_input(g, &dr.perm, l)?;
    let sb = slashburn(&sym, &SlashBurnConfig::with_ratio(k));
    let (n1, n2) = (sb.n_spokes, sb.n_hubs);
    let slashburn_time = t1.elapsed();
    bepi_obs::record_duration("preprocess.slashburn", slashburn_time);

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
        deadend_time,
        slashburn_time,
    })
}

/// The six `H` blocks assembled under a frozen plan.
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
    /// Wall time of the assembly.
    pub assemble_time: Duration,
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
/// behind the refactor fast path, so a misclassified batch surfaces as a
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

    let assemble_time = t0.elapsed();
    bepi_obs::record_duration("preprocess.assemble", assemble_time);

    Ok(HBlocks {
        h11,
        h12,
        h21,
        h22,
        h31,
        h32,
        assemble_time,
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

/// What a numeric-only batch invalidates: which `H11` diagonal blocks
/// must be refactored, and whether any hub column of `H` changed (which
/// dirties whole Schur *columns*, forcing a full Schur recompute — the
/// block LU is still reused).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Sorted, deduplicated ids of `H11` diagonal blocks to refactor.
    pub blocks: Vec<usize>,
    /// True when a hub's out-edges changed: `H12`/`H22` columns moved, so
    /// every Schur row can be affected and `S` is recomputed in full.
    pub hub_columns: bool,
}

impl DirtySet {
    /// True when nothing numeric changed (the batch was a no-op).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && !self.hub_columns
    }
}

/// Verdict of [`classify`] for one update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification {
    /// Every change stays inside the frozen structure; refactor with the
    /// given dirty set.
    NumericOnly(DirtySet),
    /// The plan no longer fits (reason attached); fall back to a full
    /// preprocess.
    Structural(String),
}

/// Classifies an applied update batch against a frozen plan.
///
/// `sources` are the source nodes of every update in the batch (targets
/// need not be listed: an edge `u → v` only rewrites row `u` of the
/// adjacency matrix, i.e. column `p(u)` of `H`). The classifier compares
/// each candidate source's adjacency row in `g_old` vs `g_new` — columns
/// *and* values, so a remove+insert that resets an edge weight is
/// correctly seen as a change — and derives:
///
/// * **Structural** when the node count changed, a source flipped deadend
///   status (the deadend ordering would move), or a spoke source gained a
///   target in a *different* `H11` block (block-diagonality would break).
/// * **NumericOnly** otherwise, with the dirty block set (spoke sources)
///   and the hub-column flag (hub sources).
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
    let mut dirty_blocks: BTreeSet<usize> = BTreeSet::new();
    let mut hub_columns = false;
    let mut seen: BTreeSet<usize> = BTreeSet::new();

    for &u in sources {
        if u >= n {
            return Classification::Structural(format!("update source {u} out of range"));
        }
        if !seen.insert(u) {
            continue;
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
            let b = block_of[pu] as usize;
            for &v in nc {
                let pv = plan.perm.apply(v as usize);
                if pv < plan.n1 && block_of[pv] as usize != b {
                    return Classification::Structural(format!(
                        "edge {u} -> {v} crosses H11 blocks"
                    ));
                }
            }
            dirty_blocks.insert(b);
        } else {
            hub_columns = true;
        }
    }
    Classification::NumericOnly(DirtySet {
        blocks: dirty_blocks.into_iter().collect(),
        hub_columns,
    })
}

/// Recomputes only the Schur rows whose inputs changed and splices them
/// into the previous Schur complement.
///
/// `old_s` and `h21_old` come from the pre-update index; `blocks` and
/// `lu_new` are the freshly assembled `H` blocks and (partially)
/// refactored `H11` factors. Dirty rows are the hub rows whose `H21`
/// entries (old or new) touch a dirty `H11` block; every other row of
/// `S = H22 − H21 (U1^{-1}(L1^{-1} H12))` is unchanged term-for-term and
/// is copied verbatim, so the result is bit-identical to a full Schur
/// recompute under the same plan. `old_s` and `h21_old` are read as
/// stored (plain or value-coded, either pattern width); the result is a
/// plain [`Csr`], which the caller codes once its ILU(0) refresh has read
/// it.
pub fn refactor_schur(
    old_s: &CodedCsr,
    blocks: &HBlocks,
    h21_old: &CodedCsr,
    lu_new: &BlockLu,
    plan: &SymbolicPlan,
    dirty: &DirtySet,
) -> Result<Csr> {
    let n2 = plan.n2;
    if dirty.hub_columns {
        // Hub columns moved: whole Schur columns are dirty, so recompute
        // S in full (the block LU above is still reused — that and the
        // reordering are the dominant preprocessing costs).
        let x = lu_new.solve_matrix(&blocks.h12)?;
        return sub_spgemm(&blocks.h22, &blocks.h21, &x);
    }
    if dirty.blocks.is_empty() {
        return Ok(old_s.to_csr());
    }

    // Spoke slots covered by dirty blocks.
    let starts = plan.block_starts();
    let mut spoke_dirty = vec![false; plan.n1];
    for &b in &dirty.blocks {
        if b >= plan.block_sizes.len() {
            return Err(SparseError::IndexOutOfBounds {
                index: (b, b),
                shape: (plan.block_sizes.len(), plan.block_sizes.len()),
            });
        }
        for slot in starts[b]..starts[b] + plan.block_sizes[b] {
            spoke_dirty[slot] = true;
        }
    }

    // Dirty Schur rows: any H21 row (old or new) with a non-zero in a
    // dirty block's columns. Removed entries dirty a row too, hence the
    // scan over both generations.
    let dirty_rows: Vec<usize> = (0..n2)
        .filter(|&i| {
            h21_old.row_iter(i).any(|(c, _)| spoke_dirty[c])
                || blocks.h21.row_iter(i).any(|(c, _)| spoke_dirty[c])
        })
        .collect();
    if dirty_rows.is_empty() {
        return Ok(old_s.to_csr());
    }

    // Blocks whose X rows the dirty H21 rows reference (a superset of the
    // dirty blocks: a dirty row may also multiply clean-block columns).
    let block_of = plan.block_of_spoke();
    let mut needed: BTreeSet<usize> = BTreeSet::new();
    for &i in &dirty_rows {
        let (cols, _) = blocks.h21.row(i);
        for &c in cols {
            needed.insert(block_of[c as usize] as usize);
        }
    }

    // X = U1^{-1}(L1^{-1} H12), computed per needed block. The factors
    // are block diagonal, so each block's rows of X depend only on that
    // block's factor rows and H12 rows — the per-row kernel is identical
    // to the full product, making the rows bit-identical.
    let mut x_coo = Coo::new(plan.n1, n2)?;
    for &b in &needed {
        let range = starts[b]..starts[b] + plan.block_sizes[b];
        let lb = lu_new.l_inv.slice_block(range.clone(), range.clone())?;
        let ub = lu_new.u_inv.slice_block(range.clone(), range.clone())?;
        let h12b = blocks.h12.slice_block(range.clone(), 0..n2)?;
        let t = spgemm(&lb, &h12b)?;
        let xb = spgemm(&ub, &t)?;
        for (r, c, v) in xb.iter() {
            x_coo.push(starts[b] + r, c, v)?;
        }
    }
    let x = x_coo.to_csr();

    // Compact the dirty rows of H21 and H22, run the identical
    // product/subtract kernels on them, then splice the recomputed rows
    // back over the old S.
    let mut h21_d = Coo::new(dirty_rows.len(), plan.n1)?;
    let mut h22_d = Coo::new(dirty_rows.len(), n2)?;
    for (di, &i) in dirty_rows.iter().enumerate() {
        for (c, v) in blocks.h21.row_iter(i) {
            h21_d.push(di, c, v)?;
        }
        for (c, v) in blocks.h22.row_iter(i) {
            h22_d.push(di, c, v)?;
        }
    }
    let s_d = sub_spgemm(&h22_d.to_csr(), &h21_d.to_csr(), &x)?;

    let mut out = Coo::with_capacity(n2, n2, old_s.nnz() + s_d.nnz())?;
    let mut next_dirty = 0usize;
    for i in 0..n2 {
        if next_dirty < dirty_rows.len() && dirty_rows[next_dirty] == i {
            for (c, v) in s_d.row_iter(next_dirty) {
                out.push(i, c, v)?;
            }
            next_dirty += 1;
        } else {
            for (c, v) in old_s.row_iter(i) {
                out.push(i, c, v)?;
            }
        }
    }
    Ok(out.to_csr())
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
    use proptest::prelude::*;

    const C: f64 = 0.05;
    const K: f64 = 0.2;

    fn plan_and_blocks(g: &Graph) -> (SymbolicPlan, HBlocks) {
        let analysis = analyze(g, K).unwrap();
        let blocks = assemble(g, C, &analysis.plan).unwrap();
        (analysis.plan, blocks)
    }

    /// `lu`'s factors frozen as an index stores them.
    fn frozen(lu: &BlockLu) -> bepi_solver::FrozenBlockLu {
        bepi_solver::FrozenBlockLu::freeze(lu).unwrap()
    }

    fn full_schur(blocks: &HBlocks, lu: &BlockLu) -> Csr {
        let x = lu.solve_matrix(&blocks.h12).unwrap();
        let prod = spgemm(&blocks.h21, &x).unwrap();
        bepi_sparse::ops::sub(&blocks.h22, &prod).unwrap()
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
        assert_eq!(plan.block_starts().len(), plan.block_sizes.len());
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
        match classify(&plan, &g, &g, &[0, 1, 2]) {
            Classification::NumericOnly(d) => assert!(d.is_empty()),
            c => panic!("expected numeric, got {c:?}"),
        }
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
        match classify(&plan, &g, &g_new, &[u]) {
            Classification::NumericOnly(d) => {
                let pu = plan.perm.apply(u);
                if pu < plan.n1 {
                    assert_eq!(d.blocks.len(), 1);
                    assert!(!d.hub_columns);
                } else {
                    assert!(d.hub_columns);
                }
            }
            c => panic!("expected numeric, got {c:?}"),
        }
    }

    #[test]
    fn refactor_schur_is_bit_identical_to_full_recompute() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 17).unwrap();
        let (plan, blocks) = plan_and_blocks(&g);
        let lu = BlockLu::factor(&blocks.h11, &plan.block_sizes).unwrap();
        let old_s = full_schur(&blocks, &lu);

        let (u, v) = removable_edge(&g);
        let g_new = without_edge(&g, u, v);
        let dirty = match classify(&plan, &g, &g_new, &[u]) {
            Classification::NumericOnly(d) => d,
            c => panic!("expected numeric, got {c:?}"),
        };
        let new_blocks = assemble(&g_new, C, &plan).unwrap();
        let lu_new = frozen(&lu)
            .refactor_blocks(&new_blocks.h11, &dirty.blocks)
            .unwrap();
        // Reference: full factor + full Schur on the updated graph.
        let lu_ref = BlockLu::factor(&new_blocks.h11, &plan.block_sizes).unwrap();
        assert_eq!(lu_new.l_inv, lu_ref.l_inv);
        assert_eq!(lu_new.u_inv, lu_ref.u_inv);
        let s_ref = full_schur(&new_blocks, &lu_ref);
        let s_got = refactor_schur(
            &CodedCsr::encode(&old_s),
            &new_blocks,
            &CodedCsr::encode(&blocks.h21),
            &lu_new,
            &plan,
            &dirty,
        )
        .unwrap();
        assert_eq!(s_got, s_ref);
    }

    /// `refactor_schur` reads the old `S` through `row_iter`, so a narrow
    /// old `S` (as preprocessing stores it) and the same `S` on a wide
    /// pattern (as a file from before the narrow form loads it) splice to
    /// the same result: the full recompute's.
    #[test]
    fn narrow_refactor_schur_matches_wide() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 17).unwrap();
        let (plan, blocks) = plan_and_blocks(&g);
        let lu = BlockLu::factor(&blocks.h11, &plan.block_sizes).unwrap();
        let old_s = full_schur(&blocks, &lu);
        let narrow = CodedCsr::encode(&old_s);
        assert!(narrow.pattern().is_narrow());
        let wide = CodedCsr::from_parts_storage_trusted(
            old_s.nrows(),
            old_s.ncols(),
            old_s.pattern(),
            narrow.values().clone(),
        )
        .unwrap();
        assert!(!wide.pattern().is_narrow());

        let (u, v) = removable_edge(&g);
        let g_new = without_edge(&g, u, v);
        let dirty = match classify(&plan, &g, &g_new, &[u]) {
            Classification::NumericOnly(d) => d,
            c => panic!("expected numeric, got {c:?}"),
        };
        let new_blocks = assemble(&g_new, C, &plan).unwrap();
        let lu_new = frozen(&lu)
            .refactor_blocks(&new_blocks.h11, &dirty.blocks)
            .unwrap();
        let h21_old = CodedCsr::encode(&blocks.h21);
        let splice = |old: &CodedCsr, dirty: &DirtySet| {
            refactor_schur(old, &new_blocks, &h21_old, &lu_new, &plan, dirty).unwrap()
        };
        let got = splice(&narrow, &dirty);
        assert_eq!(got, splice(&wide, &dirty));
        assert_eq!(got, full_schur(&new_blocks, &lu_new));
        // With nothing dirty, both copy the old S.
        let clean = DirtySet::default();
        assert_eq!(splice(&narrow, &clean), old_s);
        assert_eq!(splice(&wide, &clean), old_s);
    }

    #[test]
    fn refactor_schur_empty_dirty_set_copies_s() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 23).unwrap();
        let (plan, blocks) = plan_and_blocks(&g);
        let lu = BlockLu::factor(&blocks.h11, &plan.block_sizes).unwrap();
        let s = full_schur(&blocks, &lu);
        let coded = CodedCsr::encode(&s);
        let got = refactor_schur(
            &coded,
            &blocks,
            &CodedCsr::encode(&blocks.h21),
            &lu,
            &plan,
            &DirtySet::default(),
        )
        .unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn refactor_schur_hub_columns_recomputes_in_full() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 29).unwrap();
        let (plan, blocks) = plan_and_blocks(&g);
        let lu = BlockLu::factor(&blocks.h11, &plan.block_sizes).unwrap();
        let s = full_schur(&blocks, &lu);
        let dirty = DirtySet {
            blocks: Vec::new(),
            hub_columns: true,
        };
        let coded = CodedCsr::encode(&s);
        let h21 = CodedCsr::encode(&blocks.h21);
        let got = refactor_schur(&coded, &blocks, &h21, &lu, &plan, &dirty).unwrap();
        assert_eq!(got, s);
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
}
