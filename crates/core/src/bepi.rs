//! BePI — the paper's proposed method, in its three variants
//! (Section 3, Algorithms 1–4).
//!
//! * **BePI-B** — node reordering + block elimination, with GMRES solving
//!   the Schur system at query time (no `S^{-1}`). SlashBurn runs with a
//!   small hub ratio (`k = 0.001`, as Bear uses) to make `n2` small.
//! * **BePI-S** — same pipeline, but the hub ratio is chosen to minimize
//!   `|S|` (Section 3.4; `k ≈ 0.2–0.3` in Table 2), shrinking both the
//!   preprocessing cost and the per-iteration cost of GMRES.
//! * **BePI** — additionally precomputes ILU(0) factors of `S` and runs
//!   *preconditioned* GMRES (Section 3.5), cutting iteration counts
//!   several-fold (Table 4).
//!
//! Every variant solves `S` with restarted GMRES; ILU(0) is the one
//! preconditioner, and only the full variant builds it. A solve that does
//! not reach the tolerance is an error, never an answer.
//!
//! The default ([`BePiConfig::default`]) is **BePI-S**: at the scales this
//! crate is measured on (up to 2²⁰ nodes) plain GMRES converges in 5–8
//! iterations, and the ILU(0) factors cost more per query, per index byte
//! and per preprocess second than the iterations they save. `Full` is the
//! paper's configuration; every paper figure names it explicitly, and an
//! index preprocessed as `Full` keeps its factors when loaded.

use crate::hmatrix::HPartition;
use crate::rwr::{check_restart_prob, check_seed, RwrScores, RwrSolver};
use crate::schur::schur_complement;
use crate::{DEFAULT_RESTART_PROB, DEFAULT_TOLERANCE};
use bepi_graph::Graph;
use bepi_incr::SymbolicPlan;
use bepi_solver::{gmres_block, BlockLu, FrozenBlockLu, GmresConfig, Ilu0, Preconditioner};
use bepi_sparse::{CodedCsr, CodedValues, Csr, Permutation, Result, SparseError, Storage};
use std::time::{Duration, Instant};

/// Which of the three BePI variants to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BePiVariant {
    /// BePI-B: block elimination + iterative Schur solve.
    Basic,
    /// BePI-S: + Schur-complement sparsification via the hub ratio.
    Sparse,
    /// BePI: + ILU(0) preconditioning of the Schur system.
    Full,
}

impl BePiVariant {
    /// Name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BePiVariant::Basic => "BePI-B",
            BePiVariant::Sparse => "BePI-S",
            BePiVariant::Full => "BePI",
        }
    }
}

/// Which Krylov method solves the Schur system at query time: restarted
/// GMRES (Algorithm 4, Appendix B), the only one. The index format keeps
/// a tag for it, always 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InnerSolver {
    /// Restarted GMRES (the paper's choice).
    #[default]
    Gmres,
}

/// Configuration of a BePI preprocessing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BePiConfig {
    /// Variant to run.
    pub variant: BePiVariant,
    /// Restart probability `c` (paper default 0.05).
    pub c: f64,
    /// Error tolerance ε for the iterative Schur solve (paper: 1e-9).
    pub tol: f64,
    /// SlashBurn hub selection ratio; `None` picks the variant default
    /// (0.001 for BePI-B as in Bear, 0.2 for BePI-S/BePI).
    pub hub_ratio: Option<f64>,
    /// GMRES restart length.
    pub gmres_restart: usize,
    /// Iterative-solver total-iteration cap.
    pub max_iters: usize,
    /// Krylov method for the Schur solve.
    pub inner: InnerSolver,
}

impl Default for BePiConfig {
    /// BePI-S (see the module doc for why not the paper's full BePI).
    fn default() -> Self {
        Self {
            variant: BePiVariant::Sparse,
            c: DEFAULT_RESTART_PROB,
            tol: DEFAULT_TOLERANCE,
            hub_ratio: None,
            gmres_restart: 100,
            max_iters: 10_000,
            inner: InnerSolver::Gmres,
        }
    }
}

impl BePiConfig {
    /// Config for a given variant with the other fields defaulted.
    pub fn for_variant(variant: BePiVariant) -> Self {
        Self {
            variant,
            ..Self::default()
        }
    }

    /// The effective hub ratio.
    pub fn effective_hub_ratio(&self) -> f64 {
        self.hub_ratio.unwrap_or(match self.variant {
            BePiVariant::Basic => 0.001,
            BePiVariant::Sparse | BePiVariant::Full => 0.2,
        })
    }

    /// Checks every value preprocessing and querying rely on: `0 < c < 1`,
    /// an effective hub ratio in `(0, 1)`, a finite `tol` in `(0, 1)`, and
    /// a GMRES restart length and iteration cap of at least 1. The error
    /// names the offending field.
    pub fn validate(&self) -> Result<()> {
        check_restart_prob(self.c)?;
        let k = self.effective_hub_ratio();
        if !(k > 0.0 && k < 1.0) {
            return Err(SparseError::Numerical(format!(
                "hub ratio k must satisfy 0 < k < 1, got {k}"
            )));
        }
        if !(self.tol > 0.0 && self.tol < 1.0) {
            return Err(SparseError::Numerical(format!(
                "tolerance tol must satisfy 0 < tol < 1, got {}",
                self.tol
            )));
        }
        if self.gmres_restart == 0 || self.max_iters == 0 {
            return Err(SparseError::Numerical(format!(
                "gmres_restart and max_iters must be at least 1, got {} and {}",
                self.gmres_restart, self.max_iters
            )));
        }
        Ok(())
    }
}

/// Wall time of one named preprocessing phase (Table 3's time breakdown).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (`deadend`, `slashburn`, `assemble`, `block_lu`,
    /// `schur`, `precond`).
    pub name: String,
    /// Wall time of the phase in seconds.
    pub seconds: f64,
}

/// Statistics recorded during preprocessing (Algorithm 1 / 3).
#[derive(Debug, Clone)]
pub struct PreprocessStats {
    /// Wall-clock preprocessing time; zero on an index loaded from a file,
    /// which stores no wall times.
    pub elapsed: Duration,
    /// Spoke count `n1`.
    pub n1: usize,
    /// Hub count `n2`.
    pub n2: usize,
    /// Deadend count `n3`.
    pub n3: usize,
    /// SlashBurn iterations.
    pub slashburn_iterations: usize,
    /// Number of diagonal blocks `b` in `H11`.
    pub num_blocks: usize,
    /// Non-zeros of the Schur complement `|S|`.
    pub s_nnz: usize,
    /// Non-zeros of the inverted block factors `|L1^{-1}| + |U1^{-1}|`.
    pub h11_inv_nnz: usize,
    /// Per-phase wall-time breakdown, in pipeline order; empty on an
    /// index loaded from a file.
    pub phases: Vec<PhaseTiming>,
}

/// One component of an index's physical memory split
/// (see [`BePi::memory_report`]).
#[derive(Debug, Clone)]
pub struct MemorySection {
    /// Component name (`perm`, `l1_inv`, `schur`, …).
    pub name: &'static str,
    /// Bytes held on the process heap.
    pub heap_bytes: usize,
    /// Bytes served zero-copy from a memory-mapped index file (counted
    /// against the shared page cache, not private anonymous memory).
    pub mapped_bytes: usize,
}

/// Everything needed to assemble a [`BePi`] from persisted components —
/// the hand-off type between [`crate::persist`] decoders and the private
/// fields here.
pub(crate) struct RawParts {
    pub config: BePiConfig,
    pub perm: Permutation,
    pub n1: usize,
    pub n2: usize,
    pub n3: usize,
    pub h11_lu: FrozenBlockLu,
    pub s: CodedCsr,
    /// Pre-built ILU(0) factors, when the index persisted them. A full
    /// variant without them re-factors `S`.
    pub ilu: Option<Ilu0>,
    pub h12: CodedCsr,
    pub h21: CodedCsr,
    pub h31: CodedCsr,
    pub h32: CodedCsr,
    pub slashburn_iterations: usize,
}

/// A preprocessed BePI instance, ready to answer RWR queries
/// (Algorithm 2 / 4).
///
/// Every matrix it stores — `L1⁻¹`, `U1⁻¹`, `S` and the four `H` coupling
/// blocks — is a frozen [`CodedCsr`]: on a narrow pattern when it has at
/// most 2¹⁶ columns, and value-coded over one value table shared by all
/// of them (see [`BePi::value_table`]). [`Csr`] stays the builder type
/// that preprocessing works on.
#[derive(Debug, Clone)]
pub struct BePi {
    config: BePiConfig,
    perm: Permutation,
    n1: usize,
    n2: usize,
    n3: usize,
    h11_lu: FrozenBlockLu,
    s: CodedCsr,
    /// ILU(0) factors of `S`: `Some` exactly for the full variant.
    ilu: Option<Ilu0>,
    h12: CodedCsr,
    h21: CodedCsr,
    h31: CodedCsr,
    h32: CodedCsr,
    stats: PreprocessStats,
}

/// What an index stores, frozen from the builders: `S`, the `H11`
/// factors (the rows of blocks larger than 1 × 1 and each 1 × 1 block's
/// `U1⁻¹` value, see [`FrozenBlockLu`]) and the coupling blocks
/// `[H12, H21, H31, H32]`, all coded over one value table. `S` is coded
/// first, so its codes are those it gets alone; the others append their
/// new values.
fn freeze(s: &Csr, lu: BlockLu, h: [&Csr; 4]) -> Result<(CodedCsr, FrozenBlockLu, [CodedCsr; 4])> {
    let (l_inv, u_inv, singletons) = lu.split_singletons()?;
    let parts = [
        s.value_storage(),
        l_inv.value_storage(),
        u_inv.value_storage(),
        singletons.into(),
        h[0].value_storage(),
        h[1].value_storage(),
        h[2].value_storage(),
        h[3].value_storage(),
    ];
    let [s_v, l_v, u_v, singletons, h12_v, h21_v, h31_v, h32_v]: [CodedValues; 8] =
        CodedValues::encode_all(&parts)
            .try_into()
            .expect("eight value arrays in, eight out");
    let lu = FrozenBlockLu::from_parts_trusted(
        CodedCsr::with_values(&l_inv, l_v),
        CodedCsr::with_values(&u_inv, u_v),
        singletons,
        bepi_solver::block_lu::larger_blocks(&lu.block_sizes)?,
    )?;
    let h = [
        CodedCsr::with_values(h[0], h12_v),
        CodedCsr::with_values(h[1], h21_v),
        CodedCsr::with_values(h[2], h31_v),
        CodedCsr::with_values(h[3], h32_v),
    ];
    Ok((CodedCsr::with_values(s, s_v), lu, h))
}

impl BePi {
    /// Runs the preprocessing phase (Algorithm 1 for BePI-B/-S,
    /// Algorithm 3 for full BePI).
    pub fn preprocess(g: &Graph, config: &BePiConfig) -> Result<Self> {
        config.validate()?;
        let start = Instant::now();
        let k = config.effective_hub_ratio();
        let part = HPartition::build(g, config.c, k)?;
        Self::factor_partition(part, config, start)
    }

    /// Runs only the *numeric* half of preprocessing under a frozen
    /// [`SymbolicPlan`]: assemble `H` in the plan's order, factor `H11`,
    /// form `S`, build the preconditioner. Skips deadend reordering and
    /// SlashBurn entirely, so the result is bit-identical to
    /// [`BePi::preprocess`] whenever the plan came from a preprocess of a
    /// graph with the same structure (and [`bepi_incr::assemble`] rejects
    /// graphs that violate the plan). This is the numeric path of
    /// [`BePi::rebuild`].
    pub fn preprocess_with_plan(
        g: &Graph,
        config: &BePiConfig,
        plan: &SymbolicPlan,
    ) -> Result<Self> {
        config.validate()?;
        let start = Instant::now();
        let part = HPartition::from_plan(g, config.c, plan)?;
        Self::factor_partition(part, config, start)
    }

    /// The symbolic plan captured by this instance's preprocessing run —
    /// everything [`BePi::preprocess_with_plan`] needs to rebuild the
    /// numeric factors without re-running the reordering pipeline. Every
    /// field is persisted in the index file, so a plan survives a
    /// save/load round-trip (heap or mapped) for free.
    pub fn symbolic_plan(&self) -> SymbolicPlan {
        SymbolicPlan {
            perm: self.perm.clone(),
            n1: self.n1,
            n2: self.n2,
            n3: self.n3,
            block_sizes: self.h11_lu.block_sizes(),
            slashburn_iterations: self.stats.slashburn_iterations,
        }
    }

    /// [`BePi::preprocess_with_plan`] of `g_new` under this index's plan
    /// and config. Its one caller is the benchmark's oracle chain
    /// (`benchmark/src/oracle.rs`), which passes the payload of
    /// [`bepi_incr::Classification::NumericOnly`]; [`BePi::rebuild`] is
    /// the API.
    #[doc(hidden)]
    pub fn refactor(&self, g_new: &Graph, _numeric: &()) -> Result<Self> {
        Self::preprocess_with_plan(g_new, &self.config, &self.symbolic_plan())
    }

    fn factor_partition(part: HPartition, config: &BePiConfig, start: Instant) -> Result<Self> {
        let t_lu = Instant::now();
        let h11_lu = {
            let _span = bepi_obs::Span::enter("preprocess.block_lu");
            // The diagonal blocks are independent; factor them across the
            // kernel threads (bit-identical to the serial path).
            BlockLu::factor_parallel(&part.h11, &part.block_sizes, bepi_par::get_threads())?
        };
        let block_lu_time = t_lu.elapsed();
        let t_schur = Instant::now();
        let (s_csr, (s, h11_lu, [h12, h21, h31, h32])) = {
            let _span = bepi_obs::Span::enter("preprocess.schur");
            let s = schur_complement(&part, &h11_lu)?;
            let stored = freeze(&s, h11_lu, [&part.h12, &part.h21, &part.h31, &part.h32])?;
            (s, stored)
        };
        let schur_time = t_schur.elapsed();
        let t_precond = Instant::now();
        let ilu = {
            let _span = bepi_obs::Span::enter("preprocess.precond");
            match config.variant {
                BePiVariant::Full => Some(Ilu0::factor(&s_csr)?.rebind(&s)?),
                _ => None,
            }
        };
        drop(s_csr);
        let precond_time = t_precond.elapsed();
        let phases = [
            ("deadend", part.deadend_time),
            ("slashburn", part.slashburn_time),
            ("assemble", part.assemble_time),
            ("block_lu", block_lu_time),
            ("schur", schur_time),
            ("precond", precond_time),
        ]
        .iter()
        .map(|(name, d)| PhaseTiming {
            name: (*name).to_string(),
            seconds: d.as_secs_f64(),
        })
        .collect();
        let stats = PreprocessStats {
            elapsed: start.elapsed(),
            n1: part.n1,
            n2: part.n2,
            n3: part.n3,
            slashburn_iterations: part.slashburn_iterations,
            num_blocks: part.block_sizes.len(),
            s_nnz: s.nnz(),
            h11_inv_nnz: h11_lu.inverse_nnz(),
            phases,
        };
        let HPartition {
            perm, n1, n2, n3, ..
        } = part;
        debug_assert!(ilu.as_ref().map_or(true, |m| m.shares_pattern(s.pattern())));
        Ok(Self {
            config: *config,
            perm,
            n1,
            n2,
            n3,
            h11_lu,
            s,
            ilu,
            h12,
            h21,
            h31,
            h32,
            stats,
        })
    }

    /// Preprocessing statistics.
    pub fn stats(&self) -> &PreprocessStats {
        &self.stats
    }

    /// The configuration used at preprocessing time.
    pub fn config(&self) -> &BePiConfig {
        &self.config
    }

    /// The Schur complement as stored (exposed for the eigenvalue and
    /// accuracy experiments of Figures 7 and 10; [`CodedCsr::to_csr`]
    /// gives it as a [`Csr`]).
    pub fn schur(&self) -> &CodedCsr {
        &self.s
    }

    /// The ILU(0) factors of `S` (None for BePI-B/-S): the query's
    /// preconditioner, the factors an index file persists, and the `M` of
    /// the eigenvalue experiment of Figure 7.
    pub fn preconditioner(&self) -> Option<&Ilu0> {
        self.ilu.as_ref()
    }

    /// [`BePi::preconditioner`] as the trait object GMRES takes.
    pub fn preconditioner_dyn(&self) -> Option<&dyn Preconditioner> {
        self.ilu.as_ref().map(|m| m as &dyn Preconditioner)
    }

    /// The composite node permutation (original → reordered).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// The inverted block factors of `H11`, as stored.
    pub fn h11_factors(&self) -> &FrozenBlockLu {
        &self.h11_lu
    }

    /// The coupling blocks `(H12, H21, H31, H32)` as stored — used by the
    /// accuracy bound of Theorem 4 ([`CodedCsr::to_csr`] gives each as a
    /// [`Csr`]).
    pub fn coupling_blocks(&self) -> (&CodedCsr, &CodedCsr, &CodedCsr, &CodedCsr) {
        (&self.h12, &self.h21, &self.h31, &self.h32)
    }

    /// Every matrix the index stores, named as the memory report names
    /// it, in index-file order. `l1_inv` and `u1_inv` hold the rows of the
    /// `H11` blocks larger than 1 × 1 only; the 1 × 1 blocks' values are
    /// [`FrozenBlockLu::singletons`].
    pub fn stored_matrices(&self) -> [(&'static str, &CodedCsr); 7] {
        [
            ("l1_inv", self.h11_lu.l_inv()),
            ("u1_inv", self.h11_lu.u_inv()),
            ("schur", &self.s),
            ("h12", &self.h12),
            ("h21", &self.h21),
            ("h31", &self.h31),
            ("h32", &self.h32),
        ]
    }

    /// The one value table every value-coded stored matrix indexes, or
    /// `None` when none is coded. All of them hold this same
    /// [`Storage`], so it is stored once and a query thread's widened copy
    /// of it is never refilled between matrices.
    pub fn value_table(&self) -> Option<&Storage<f64>> {
        self.stored_matrices()
            .into_iter()
            .find_map(|(_, m)| m.table())
            .or(self
                .h11_lu
                .singletons()
                .coded_parts()
                .map(|(table, _)| table))
    }

    /// Assembles an instance from persisted components. A full variant
    /// takes its ILU(0) factors from `parts.ilu`; an index without them
    /// fails to load.
    pub(crate) fn from_raw_parts(parts: RawParts) -> Result<Self> {
        let RawParts {
            config,
            perm,
            n1,
            n2,
            n3,
            h11_lu,
            s,
            ilu,
            h12,
            h21,
            h31,
            h32,
            slashburn_iterations,
        } = parts;
        let ilu = match (config.variant, ilu) {
            (BePiVariant::Full, Some(ilu)) => Some(ilu),
            (BePiVariant::Full, None) => {
                return Err(SparseError::Parse(format!(
                    "v6 index: the full variant's ILU(0) factors ({}) are missing: re-run \
                     `bepi preprocess` on the edge list to rebuild it",
                    bepi_map::sections::name(bepi_map::sections::ILU_VALUES_F32)
                )))
            }
            _ => None,
        };
        // The factors read `S`'s pattern; they never hold a copy of it.
        debug_assert!(ilu.as_ref().map_or(true, |m| m.shares_pattern(s.pattern())));
        let stats = PreprocessStats {
            elapsed: Duration::ZERO,
            n1,
            n2,
            n3,
            slashburn_iterations,
            num_blocks: h11_lu.num_blocks(),
            s_nnz: s.nnz(),
            h11_inv_nnz: h11_lu.inverse_nnz(),
            phases: Vec::new(),
        };
        Ok(Self {
            config,
            perm,
            n1,
            n2,
            n3,
            h11_lu,
            s,
            ilu,
            h12,
            h21,
            h31,
            h32,
            stats,
        })
    }

    /// True when any component is served zero-copy from a mapped index.
    pub fn is_mapped(&self) -> bool {
        self.mapped_bytes() > 0
    }

    /// Total bytes of index data held on the process heap.
    pub fn heap_bytes(&self) -> usize {
        self.memory_report().iter().map(|c| c.heap_bytes).sum()
    }

    /// Total bytes of index data served zero-copy from a mapped file.
    pub fn mapped_bytes(&self) -> usize {
        self.memory_report().iter().map(|c| c.mapped_bytes).sum()
    }

    /// Physical memory split of every index component: how many bytes
    /// live on the heap versus borrowed from a memory-mapped v6 file.
    /// Mapped bytes are backed by the kernel page cache and shared
    /// across every process serving the same index file, which is the
    /// point of `--mmap` serving (paper §Memory Efficiency: the
    /// preprocessed data is the dominant cost at scale).
    ///
    /// Each stored matrix is charged its stored row ids, pattern and codes
    /// or values; `u1_inv` also the `H11` block structure — its 1 × 1
    /// blocks' codes or values and the `(start, size)` list of the larger
    /// blocks. The shared value table is counted once, under `schur`,
    /// beside the `s.value_table` section it is written to. So the report
    /// adds up to every section of the index file but META and the
    /// embedded graph.
    pub fn memory_report(&self) -> Vec<MemorySection> {
        let table = |f: fn(&Storage<f64>) -> usize| self.value_table().map_or(0, f);
        let matrix = |name, m: &CodedCsr| MemorySection {
            name,
            heap_bytes: m.heap_bytes() - m.table().map_or(0, Storage::heap_bytes),
            mapped_bytes: m.mapped_bytes() - m.table().map_or(0, Storage::mapped_bytes),
        };
        let mut schur = matrix("schur", &self.s);
        schur.heap_bytes += table(Storage::heap_bytes);
        schur.mapped_bytes += table(Storage::mapped_bytes);
        let mut u1_inv = matrix("u1_inv", self.h11_lu.u_inv());
        let larger = self.h11_lu.larger_blocks();
        u1_inv.heap_bytes += larger.heap_bytes();
        u1_inv.mapped_bytes += larger.mapped_bytes();
        match self.h11_lu.singletons() {
            CodedValues::Plain(v) => {
                u1_inv.heap_bytes += v.heap_bytes();
                u1_inv.mapped_bytes += v.mapped_bytes();
            }
            CodedValues::Coded { codes, .. } => {
                u1_inv.heap_bytes += codes.heap_bytes();
                u1_inv.mapped_bytes += codes.mapped_bytes();
            }
        }
        vec![
            MemorySection {
                name: "perm",
                heap_bytes: self.perm.heap_bytes(),
                mapped_bytes: self.perm.mapped_bytes(),
            },
            matrix("l1_inv", self.h11_lu.l_inv()),
            u1_inv,
            schur,
            MemorySection {
                name: "precond",
                heap_bytes: self.ilu.as_ref().map_or(0, Ilu0::heap_bytes),
                mapped_bytes: self.ilu.as_ref().map_or(0, Ilu0::mapped_bytes),
            },
            matrix("h12", &self.h12),
            matrix("h21", &self.h21),
            matrix("h31", &self.h31),
            matrix("h32", &self.h32),
        ]
    }

    /// The query phase (Algorithm 2 / 4) with full statistics.
    pub fn query_with_stats(&self, seed: usize) -> Result<RwrScores> {
        let n = self.node_count();
        check_seed(seed, n)?;
        let mut q = vec![0.0; n];
        q[seed] = 1.0;
        self.query_vector(&q)
    }

    /// Personalized PageRank: solves `H r = c q` for an arbitrary
    /// preference vector `q` in original node order (RWR is the special
    /// case of an indicator `q`; the paper notes PPR "sets multiple seed
    /// nodes in the starting vector", Section 2.1).
    pub fn query_vector(&self, q: &[f64]) -> Result<RwrScores> {
        let mut answers = self.query_block(&[q])?;
        Ok(answers.pop().expect("one vector in, one answer out"))
    }

    /// The query phase (Algorithm 4) over a block of preference vectors:
    /// the forward stages per vector, one lock-step GMRES solve of `S`
    /// for all of them ([`gmres_block`]), then back-substitution and
    /// unpermute per vector. Every answer is bit-identical to answering
    /// its vector alone.
    ///
    /// Answers come back in input order. On failure the first failing
    /// vector's error is returned, and solver telemetry has recorded each
    /// solve up to and including it — exactly what answering the vectors
    /// one by one would have recorded before stopping.
    pub(crate) fn query_block(&self, qs: &[&[f64]]) -> Result<Vec<RwrScores>> {
        let n = self.node_count();
        let c = self.config.c;
        let l = self.n1 + self.n2;

        // Lines 1–3 per vector: the partitioned starting vector in the
        // reordered space, then q̂2 = c q2 − H21 (U1^{-1}(L1^{-1}(c q1))).
        let mut forward = Vec::with_capacity(qs.len());
        for q in qs {
            if q.len() != n {
                return Err(SparseError::VectorLength {
                    expected: n,
                    actual: q.len(),
                });
            }
            let qr = self.perm.permute_vec(q)?;
            let cq1: Vec<f64> = qr[..self.n1].iter().map(|v| c * v).collect();
            let t = self.h11_lu.solve_vec(&cq1)?;
            let h21t = self.h21.mul_vec(&t)?;
            let q2_hat: Vec<f64> = qr[self.n1..l]
                .iter()
                .zip(&h21t)
                .map(|(qv, hv)| c * qv - hv)
                .collect();
            forward.push((qr, cq1, q2_hat));
        }

        // Line 4: solve S r2 = q̂2 for every vector in lock step
        // (ILU(0)-preconditioned for the full variant).
        let cfg = GmresConfig {
            tol: self.config.tol,
            restart: self.config.gmres_restart,
            max_iters: self.config.max_iters,
        };
        let rhs: Vec<&[f64]> = forward.iter().map(|(_, _, q2_hat)| &q2_hat[..]).collect();
        let solves = gmres_block(&self.s, &rhs, self.preconditioner_dyn(), &cfg)?;
        for gm in &solves {
            // Per-query solver telemetry: every solve is accounted here, so
            // the serve path, batch queries, and the CLI share one registry.
            bepi_obs::telemetry::record_solve(gm.iterations, gm.residual);
            // An unconverged solve (iteration cap hit, or a NaN residual
            // that never passes the test) is an error, not a less accurate
            // answer.
            if !gm.converged {
                return Err(SparseError::Numerical(format!(
                    "GMRES on the Schur system did not converge: relative residual {:e} \
                     after {} iterations, tol {:e}",
                    gm.residual, gm.iterations, self.config.tol
                )));
            }
        }

        forward
            .into_iter()
            .zip(solves)
            .map(|((qr, cq1, _), gm)| {
                let r2 = gm.x;
                // Line 5: r1 = U1^{-1}(L1^{-1}(c q1 − H12 r2)).
                let h12r2 = self.h12.mul_vec(&r2)?;
                let rhs1: Vec<f64> = cq1.iter().zip(&h12r2).map(|(a, b)| a - b).collect();
                let r1 = self.h11_lu.solve_vec(&rhs1)?;

                // Line 6: r3 = c q3 − H31 r1 − H32 r2.
                let h31r1 = self.h31.mul_vec(&r1)?;
                let h32r2 = self.h32.mul_vec(&r2)?;
                let r3 = qr[l..]
                    .iter()
                    .zip(h31r1.iter().zip(&h32r2))
                    .map(|(qv, (a, b))| c * qv - a - b);

                // Line 7: concatenate and map back to original node ids.
                let mut r = Vec::with_capacity(n);
                r.extend_from_slice(&r1);
                r.extend_from_slice(&r2);
                r.extend(r3);
                Ok(RwrScores {
                    scores: self.perm.unpermute_vec(&r)?,
                    iterations: gm.iterations,
                    residual: gm.residual,
                })
            })
            .collect()
    }
}

impl RwrSolver for BePi {
    fn name(&self) -> &'static str {
        self.config.variant.name()
    }

    fn node_count(&self) -> usize {
        self.n1 + self.n2 + self.n3
    }

    fn query(&self, seed: usize) -> Result<RwrScores> {
        self.query_with_stats(seed)
    }

    fn preprocessed_bytes(&self) -> usize {
        // Everything Algorithm 3 returns: L1^{-1}, U1^{-1}, S, (L̂2, Û2),
        // H12, H21, H31, H32 — plus the node relabeling, and the value
        // table once: the memory report, whichever backing holds it.
        self.heap_bytes() + self.mapped_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bepi_graph::generators;
    use bepi_solver::power::{power_iteration, PowerConfig};

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

    fn assert_matches_power(g: &Graph, cfg: &BePiConfig, seeds: &[usize]) {
        let solver = BePi::preprocess(g, cfg).unwrap();
        for &s in seeds {
            let got = solver.query(s).unwrap();
            let want = power_reference(g, cfg.c, s);
            for (i, (a, b)) in got.scores.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6,
                    "{} seed {s} node {i}: {a} vs {b}",
                    cfg.variant.name()
                );
            }
        }
    }

    #[test]
    fn full_variant_matches_power_iteration() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 1).unwrap();
        assert_matches_power(
            &g,
            &BePiConfig::for_variant(BePiVariant::Full),
            &[0, 7, 100, 255],
        );
    }

    #[test]
    fn basic_variant_matches_power_iteration() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 9).unwrap();
        assert_matches_power(
            &g,
            &BePiConfig::for_variant(BePiVariant::Basic),
            &[3, 64, 127],
        );
    }

    #[test]
    fn sparse_variant_matches_power_iteration() {
        let g = generators::erdos_renyi(200, 1000, 17).unwrap();
        assert_matches_power(
            &g,
            &BePiConfig::for_variant(BePiVariant::Sparse),
            &[0, 42, 199],
        );
    }

    #[test]
    fn seed_on_each_partition_kind() {
        // Pick seeds guaranteed to land in spoke / hub / deadend regions.
        let g = generators::rmat(8, 700, generators::RmatParams::default(), 5).unwrap();
        let g = generators::inject_deadends(&g, 0.3, 2).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let inv = solver.permutation().inverse();
        let n1 = solver.stats().n1;
        let n2 = solver.stats().n2;
        let seeds = [
            inv.apply(0),       // a spoke
            inv.apply(n1),      // a hub (if any)
            inv.apply(n1 + n2), // a deadend (if any)
        ];
        for s in seeds {
            let got = solver.query(s).unwrap();
            let want = power_reference(&g, 0.05, s);
            for (a, b) in got.scores.iter().zip(&want) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn preconditioner_reduces_iterations() {
        let g = generators::rmat(10, 6_000, generators::RmatParams::default(), 21).unwrap();
        let plain = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Sparse)).unwrap();
        let precond = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let a = plain.query(5).unwrap();
        let b = precond.query(5).unwrap();
        assert!(
            b.iterations <= a.iterations,
            "precond {} vs plain {}",
            b.iterations,
            a.iterations
        );
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn memory_accounting_is_positive_and_ordered() {
        let g = generators::rmat(9, 2_000, generators::RmatParams::default(), 31).unwrap();
        let b = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Basic)).unwrap();
        let s = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Sparse)).unwrap();
        let f = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        assert!(b.preprocessed_bytes() > 0);
        // Sparsification shrinks S (Table 3) → BePI-S stores less than BePI-B.
        assert!(
            s.preprocessed_bytes() <= b.preprocessed_bytes(),
            "S: {} B: {}",
            s.preprocessed_bytes(),
            b.preprocessed_bytes()
        );
        // Full adds the ILU factors: f32 values in S's pattern plus one
        // diagonal position per row, and no second copy of the pattern.
        assert_eq!(
            f.preprocessed_bytes() - s.preprocessed_bytes(),
            4 * f.stats().s_nnz + 8 * f.stats().n2
        );
        assert_eq!(f.stats().s_nnz, s.stats().s_nnz);
        assert_precond_bytes(&f);
    }

    pub(crate) fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The `precond` entry of `b`'s memory report, as (heap, mapped).
    pub(crate) fn precond_bytes(b: &BePi) -> (usize, usize) {
        let report = b.memory_report();
        let c = report.iter().find(|c| c.name == "precond").unwrap();
        (c.heap_bytes, c.mapped_bytes)
    }

    /// The memory invariant of the ILU(0) preconditioner: it holds its
    /// f32 values and diagonal positions, `4·nnz(S) + 8·n2` bytes, and
    /// shares `S`'s pattern instead of copying it.
    pub(crate) fn assert_precond_bytes(b: &BePi) {
        let (heap, mapped) = precond_bytes(b);
        assert_eq!(heap + mapped, 4 * b.schur().nnz() + 8 * b.stats().n2);
    }

    #[test]
    fn preconditioner_accessors_reflect_config() {
        let g = generators::erdos_renyi(100, 400, 3).unwrap();
        let ilu = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        assert!(ilu.preconditioner().is_some());
        assert!(ilu.preconditioner_dyn().is_some());
        let plain = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Sparse)).unwrap();
        assert!(plain.preconditioner().is_none());
        assert!(plain.preconditioner_dyn().is_none());
    }

    #[test]
    fn unconverged_solve_is_an_error() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let seed = 7;
        let default = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        assert!(default.query(seed).unwrap().iterations > 1);
        let capped = BePi::preprocess(
            &g,
            &BePiConfig {
                max_iters: 1,
                ..BePiConfig::default()
            },
        )
        .unwrap();
        let err = capped.query(seed).unwrap_err().to_string();
        assert!(err.contains("did not converge"), "{err}");
        assert!(err.contains("after 1 iterations"), "{err}");
        assert!(err.contains("tol 1e-9"), "{err}");
    }

    #[test]
    fn default_config_is_bepi_s() {
        let cfg = BePiConfig::default();
        assert_eq!(cfg.variant, BePiVariant::Sparse);
        assert_eq!(cfg.effective_hub_ratio(), 0.2);
        let g = generators::erdos_renyi(100, 400, 3).unwrap();
        assert!(BePi::preprocess(&g, &cfg)
            .unwrap()
            .preconditioner()
            .is_none());
    }

    /// BePI-S and BePI solve the same system to the same tolerance: a
    /// default index answers within `tol` of a full one and of the dense
    /// `H⁻¹`.
    #[test]
    fn default_answers_within_tol_of_full_and_dense_exact() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 5).unwrap();
        let g = generators::inject_deadends(&g, 0.05, 2).unwrap();
        let default = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let full = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let dense = crate::exact::DenseExact::with_defaults(&g).unwrap();
        let tol = BePiConfig::default().tol;
        for seed in [0usize, 40, 101] {
            let got = default.query(seed).unwrap().scores;
            for (name, want) in [
                ("BePI", full.query(seed).unwrap().scores),
                ("dense H^-1", dense.query(seed).unwrap().scores),
            ] {
                let gap = got
                    .iter()
                    .zip(&want)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(gap <= tol, "seed {seed}: |BePI-S - {name}| = {gap:e}");
            }
        }
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        assert!(BePiConfig::default().validate().is_ok());
        type Edit = fn(&mut BePiConfig);
        let bad: [(&str, Edit); 10] = [
            ("restart probability", |c| c.c = 1.0),
            ("hub ratio", |c| c.hub_ratio = Some(0.0)),
            ("hub ratio", |c| c.hub_ratio = Some(2.0)),
            ("hub ratio", |c| c.hub_ratio = Some(f64::NAN)),
            ("tol", |c| c.tol = 0.0),
            ("tol", |c| c.tol = -1.0),
            ("tol", |c| c.tol = f64::NAN),
            ("tol", |c| c.tol = f64::INFINITY),
            ("gmres_restart", |c| c.gmres_restart = 0),
            ("max_iters", |c| c.max_iters = 0),
        ];
        let g = generators::cycle(10);
        for (field, edit) in bad {
            let mut cfg = BePiConfig::default();
            edit(&mut cfg);
            let err = cfg.validate().unwrap_err().to_string();
            assert!(err.contains(field), "{field}: {err}");
            // Preprocessing reports the same error instead of panicking.
            assert_eq!(BePi::preprocess(&g, &cfg).unwrap_err().to_string(), err);
        }
    }

    #[test]
    fn multi_seed_ppr_matches_power_iteration() {
        let g = generators::rmat(8, 700, generators::RmatParams::default(), 13).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        // Preference vector over three seeds.
        let mut q = vec![0.0; g.n()];
        q[3] = 0.5;
        q[100] = 0.3;
        q[200] = 0.2;
        let got = solver.query_vector(&q).unwrap();
        let a = g.row_normalized();
        let want = bepi_solver::power::power_iteration(
            &a,
            0.05,
            &q,
            &bepi_solver::power::PowerConfig {
                tol: 1e-13,
                max_iters: 100_000,
            },
            false,
        )
        .unwrap()
        .r;
        for (x, y) in got.scores.iter().zip(&want) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn ppr_is_linear_in_the_preference_vector() {
        let g = generators::erdos_renyi(120, 600, 21).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let a = solver.query(5).unwrap().scores;
        let b = solver.query(80).unwrap().scores;
        let mut q = vec![0.0; g.n()];
        q[5] = 0.4;
        q[80] = 0.6;
        let mix = solver.query_vector(&q).unwrap().scores;
        for i in 0..g.n() {
            let expect = 0.4 * a[i] + 0.6 * b[i];
            assert!((mix[i] - expect).abs() < 1e-7, "node {i}");
        }
    }

    #[test]
    fn query_vector_rejects_wrong_length() {
        let g = generators::cycle(10);
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        assert!(solver.query_vector(&[1.0; 9]).is_err());
    }

    #[test]
    fn invalid_seed_rejected() {
        let g = generators::cycle(10);
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        assert!(solver.query(10).is_err());
    }

    #[test]
    fn scores_are_nonnegative_and_seed_maximal() {
        let g = generators::erdos_renyi(150, 900, 7).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let res = solver.query(42).unwrap();
        assert!(res.scores.iter().all(|&v| v >= -1e-12));
        let max = res.scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((res.scores[42] - max).abs() < 1e-12, "seed not maximal");
    }

    #[test]
    fn deadend_heavy_graph() {
        let g = generators::path(30); // extreme: chain ending in deadend
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let got = solver.query(0).unwrap();
        let want = power_reference(&g, 0.05, 0);
        for (a, b) in got.scores.iter().zip(&want) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// An edge whose removal is numeric-only: the source keeps at least
    /// one other out-edge, so no deadend flip and no block crossing.
    pub(crate) fn removable_edge(g: &Graph) -> (usize, usize) {
        let u = (0..g.n()).find(|&u| g.out_degree(u) >= 2).unwrap();
        (u, g.out_neighbors(u).next().unwrap())
    }

    /// `index` rebuilt over `g` without the edge `(u, v)`, which must take
    /// the numeric path: the new graph and index.
    pub(crate) fn numeric_rebuild(
        index: &BePi,
        g: &Graph,
        (u, v): (usize, usize),
    ) -> (Graph, BePi) {
        let r = index
            .rebuild(g, &[crate::EdgeUpdate::Remove(u, v)])
            .unwrap();
        assert_eq!(r.kind, crate::RebuildKind::Numeric, "{:?}", r.reason);
        (r.graph, r.index)
    }

    /// Scores, iteration counts and residuals of `got` and `want` agree
    /// bit for bit on `seeds`.
    pub(crate) fn assert_same_answers(got: &BePi, want: &BePi, seeds: &[usize], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &seed in seeds {
            let (a, b) = (got.query(seed).unwrap(), want.query(seed).unwrap());
            assert_eq!(bits(&a.scores), bits(&b.scores), "{what} seed {seed}");
            assert_eq!(a.iterations, b.iterations, "{what} seed {seed}");
            assert_eq!(
                a.residual.to_bits(),
                b.residual.to_bits(),
                "{what} seed {seed}"
            );
        }
    }

    #[test]
    fn preprocess_with_plan_is_bit_identical_to_preprocess() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 1).unwrap();
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let cfg = BePiConfig::for_variant(variant);
            let fresh = BePi::preprocess(&g, &cfg).unwrap();
            let frozen = BePi::preprocess_with_plan(&g, &cfg, &fresh.symbolic_plan()).unwrap();
            for seed in [0usize, 7, 100, 255] {
                assert_eq!(
                    fresh.query(seed).unwrap().scores,
                    frozen.query(seed).unwrap().scores,
                    "{} seed {seed}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn numeric_rebuild_is_bit_identical_to_plan_frozen_preprocess() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let edge = removable_edge(&g);
        // The default (no ILU) and the paper's full BePI (ILU factored).
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let cfg = BePiConfig::for_variant(variant);
            let solver = BePi::preprocess(&g, &cfg).unwrap();
            let plan = solver.symbolic_plan();
            // The rebuild must be bit-exact at every kernel thread count,
            // including against a differently-threaded plan-frozen factor.
            for threads in [1usize, 2, 8] {
                let (g_new, rebuilt) =
                    bepi_par::with_kernel_threads(threads, || numeric_rebuild(&solver, &g, edge));
                let frozen = BePi::preprocess_with_plan(&g_new, &cfg, &plan).unwrap();
                let what = format!("{} threads {threads}", variant.name());
                assert_same_answers(&rebuilt, &frozen, &[0, 50, 200], &what);
            }
        }
    }

    /// Preprocessing narrows `S` inside its Schur phase, and so does a
    /// numeric rebuild: its `S` is narrow, equals the plan-frozen
    /// preprocess's, and its ILU(0) factors read it.
    #[test]
    fn narrow_s_survives_refactor_bit_identically() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 5).unwrap();
        let edge = removable_edge(&g);
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let cfg = BePiConfig::for_variant(variant);
            let solver = BePi::preprocess(&g, &cfg).unwrap();
            assert!(solver.schur().pattern().is_narrow());
            let (g_new, rebuilt) = numeric_rebuild(&solver, &g, edge);
            let frozen = BePi::preprocess_with_plan(&g_new, &cfg, &solver.symbolic_plan()).unwrap();
            for b in [&rebuilt, &frozen] {
                assert!(b.schur().pattern().is_narrow());
                if let Some(ilu) = b.preconditioner() {
                    assert!(ilu.shares_pattern(b.schur().pattern()));
                    assert_precond_bytes(b);
                }
            }
            assert_eq!(rebuilt.schur(), frozen.schur());
            assert_same_answers(&rebuilt, &frozen, &[0, 50, 200], variant.name());
        }
    }

    #[test]
    fn chained_refactors_stay_bit_identical_to_plan_frozen_preprocess() {
        // Each link rebuilds the previous link's index over the previous
        // link's graph, under the first index's plan; every link's ILU(0)
        // must equal the plan-frozen preprocess's.
        let g0 = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let cfg = BePiConfig::for_variant(BePiVariant::Full);
        let mut solver = BePi::preprocess(&g0, &cfg).unwrap();
        let plan = solver.symbolic_plan();
        let mut g = g0;
        for link in 0..3 {
            let (g_new, rebuilt) = numeric_rebuild(&solver, &g, removable_edge(&g));
            let frozen = BePi::preprocess_with_plan(&g_new, &cfg, &plan).unwrap();
            let (got, want) = (
                rebuilt.preconditioner().unwrap(),
                frozen.preconditioner().unwrap(),
            );
            assert_eq!(bits32(got.values()), bits32(want.values()), "link {link}");
            assert_eq!(got.diag_pos(), want.diag_pos(), "link {link}");
            assert_precond_bytes(&rebuilt);
            assert_same_answers(&rebuilt, &frozen, &[0, 50, 200], &format!("link {link}"));
            (g, solver) = (g_new, rebuilt);
        }
    }

    #[test]
    fn refactor_over_mapped_storage_matches_owned() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 11).unwrap();
        let cfg = BePiConfig::for_variant(BePiVariant::Full);
        let owned = BePi::preprocess(&g, &cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("bepi-refactor-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bepi");
        crate::persist::save_file_v6(&owned, Some(&g), &path).unwrap();
        let (mapped, _) = crate::persist::load_mapped_file(&path).unwrap();
        assert!(mapped.is_mapped());
        let edge = removable_edge(&g);
        let plan = owned.symbolic_plan();
        assert_eq!(mapped.symbolic_plan().n1, plan.n1);
        let (g_new, from_owned) = numeric_rebuild(&owned, &g, edge);
        let (_, from_mapped) = numeric_rebuild(&mapped, &g, edge);
        let frozen = BePi::preprocess_with_plan(&g_new, &cfg, &plan).unwrap();
        assert_precond_bytes(&from_owned);
        assert_precond_bytes(&from_mapped);
        assert_same_answers(&from_owned, &frozen, &[0, 17, 99], "owned");
        assert_same_answers(&from_mapped, &frozen, &[0, 17, 99], "mapped");
        drop(mapped);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `edges` both ways, plus a self-loop on each node of `loops`.
    fn undirected_with_loops(n: usize, edges: &[(usize, usize)], loops: &[usize]) -> Graph {
        let mut all: Vec<(usize, usize)> =
            edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        all.extend(loops.iter().map(|&u| (u, u)));
        Graph::from_edges(n, &all).unwrap()
    }

    /// Independent oracle for the stored `H11` factors: on graphs with
    /// self-loops (so 1 × 1 blocks hold `U1⁻¹` values ≠ 1.0), an
    /// all-1 × 1 `H11` and one with no 1 × 1 block, `h11_factors()`
    /// solves like a dense `H11⁻¹` to 1e-12 and bit for bit like the
    /// builder's solve, on an input holding `-0.0` — for a fresh, a
    /// numerically rebuilt, a heap-loaded and a mapped index.
    #[test]
    fn compact_h11_solve_matches_dense_inverse_on_every_index() {
        // Two hubs; leaves 2.. hang off them, and in the paired graph
        // each leaf also links its neighbour (2-node spoke blocks).
        let n = 40;
        let hubs: Vec<(usize, usize)> = (2..n).map(|u| (u, u % 2)).collect();
        let pairs: Vec<(usize, usize)> = (2..n).step_by(2).map(|u| (u, u + 1)).collect();
        let loops: Vec<usize> = (2..n).step_by(3).collect();
        let mixed = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let mixed_loops: Vec<(usize, usize)> = (0..128).step_by(5).map(|u| (u, u)).collect();
        let mut mixed_edges: Vec<(usize, usize)> =
            mixed.adjacency().iter().map(|(r, c, _)| (r, c)).collect();
        mixed_edges.extend(&mixed_loops);
        let cases = [
            (
                "all 1x1",
                undirected_with_loops(n, &hubs, &loops),
                Some(true),
            ),
            (
                "no 1x1",
                undirected_with_loops(n, &[hubs.clone(), pairs].concat(), &loops),
                Some(false),
            ),
            ("mixed", Graph::from_edges(128, &mixed_edges).unwrap(), None),
        ];
        let cfg = BePiConfig {
            hub_ratio: Some(0.05),
            ..BePiConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("bepi-h11-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, g, all_ones) in cases {
            let fresh = BePi::preprocess(&g, &cfg).unwrap();
            let sizes = fresh.h11_factors().block_sizes();
            let ones = sizes.iter().filter(|&&s| s == 1).count();
            match all_ones {
                Some(true) => assert_eq!(ones, sizes.len(), "{name}: {sizes:?}"),
                Some(false) => assert_eq!(ones, 0, "{name}: {sizes:?}"),
                None => assert!(ones > 0 && ones < sizes.len(), "{name}: {sizes:?}"),
            }
            let singletons = fresh.h11_factors().singletons();
            if ones > 0 {
                assert!(
                    (0..ones).any(|k| singletons.get(k) != 1.0),
                    "{name}: no self-loop"
                );
            }
            let path = dir.join("index.bepi");
            crate::persist::save_file_v6(&fresh, None, &path).unwrap();
            let heap = crate::persist::load_file(&path).unwrap();
            let (mapped, _) = crate::persist::load_mapped_file(&path).unwrap();
            assert!(mapped.is_mapped());
            let plan = fresh.symbolic_plan();
            let (g_new, rebuilt) = numeric_rebuild(&fresh, &g, removable_edge(&g));
            for (index, graph, what) in [
                (&fresh, &g, "fresh"),
                (&heap, &g, "heap"),
                (&mapped, &g, "mapped"),
                (&rebuilt, &g_new, "numeric rebuild"),
            ] {
                let h11 = bepi_incr::assemble(graph, cfg.c, &plan).unwrap().h11;
                let n1 = h11.nrows();
                let dense = bepi_solver::DenseLu::factor(&h11.to_dense())
                    .unwrap()
                    .inverse()
                    .unwrap();
                let builder = BlockLu::factor(&h11, &plan.block_sizes).unwrap();
                let x: Vec<f64> = (0..n1)
                    .map(|i| match i % 4 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => 1.0 / (i as f64 + 0.5),
                    })
                    .collect();
                let got = index.h11_factors().solve_vec(&x).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want = builder.solve_vec(&x).unwrap();
                assert_eq!(bits(&got), bits(&want), "{name} {what}");
                for (g, w) in got.iter().zip(dense.mul_vec(&x).unwrap()) {
                    assert!((g - w).abs() < 1e-12, "{name} {what}: {g} vs {w}");
                }
            }
            drop(mapped);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The exact-cold benchmark index (wikilink-like, hub ratio 0.2)
    /// stores no factor rows for its 1 × 1 `H11` blocks, one permutation
    /// map, the larger blocks' `(start, size)` list (8 bytes each), one
    /// code per column of `H12` and `H21`, and the non-empty rows of `H31`
    /// and `H32` only; it still reports the paper's full `|L1⁻¹| +
    /// |U1⁻¹|`. Byte and entry counts are deterministic.
    #[test]
    fn compact_exact_cold_index_counts() {
        let spec = bepi_graph::datasets::Dataset::WikiLink.spec();
        let cfg = BePiConfig {
            hub_ratio: Some(spec.hub_ratio),
            ..BePiConfig::default()
        };
        let index = BePi::preprocess(&spec.generate(), &cfg).unwrap();
        let h11 = index.h11_factors();
        let full = h11.to_builder().unwrap();
        assert_eq!(index.stats().h11_inv_nnz, 50_608);
        assert_eq!(full.l_inv.nnz() + full.u_inv.nnz(), 50_608);
        assert_eq!(
            (h11.block_sizes().len(), h11.singletons().len()),
            (21_839, 20_439)
        );
        assert_eq!(h11.num_blocks(), 21_839);
        assert_eq!(h11.larger_blocks().heap_bytes(), 8 * (21_839 - 20_439));
        assert_eq!(index.permutation().heap_bytes(), 4 * index.node_count());
        let (h12, h21, h31, h32) = index.coupling_blocks();
        assert!(h12.is_per_column() && h21.is_per_column());
        assert!(!h31.is_per_column() && !h32.is_per_column());
        assert!(h12.stored_rows().is_none() && h21.stored_rows().is_none());
        assert_eq!(
            (h31.stored_rows().map(|r| r.len()), h31.nrows()),
            (Some(599), 25_516)
        );
        assert!(h32.stored_rows().is_some());
        assert_eq!(index.preprocessed_bytes(), 5_613_758);
    }
}
