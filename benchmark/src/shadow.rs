//! The shadow pipeline: Algorithm 4 replayed from the crates' public
//! accessors, one span per stage.
//!
//! `BePi::query_with_stats` is one opaque call; until the program records
//! spans of its own, the layer budget is taken by running the *same
//! operations in the same order* out here and timing each. The replay is
//! only trusted because its result must be bit-identical to the real
//! call's — a drift between the two is a failed run, not a footnote.

use crate::spans::Recorder;
use bepi_core::{BePi, InnerSolver};
use bepi_solver::{gmres, GmresConfig};

/// Stage span names, in pipeline order.
pub const STAGES: [&str; 8] = [
    "sparse.permute",
    "solver.h11_fwd",
    "sparse.h21_spmv",
    "solver.gmres",
    "sparse.h12_spmv",
    "solver.h11_back",
    "sparse.h3x_spmv",
    "sparse.unpermute",
];

/// The per-layer metric of each stage, indexed as [`STAGES`].
pub const STAGE_METRICS: [&str; 8] = [
    "sparse.permute_us",
    "solver.h11_fwd_us",
    "sparse.h21_spmv_us",
    "solver.gmres_us",
    "sparse.h12_spmv_us",
    "solver.h11_back_us",
    "sparse.h3x_spmv_us",
    "sparse.unpermute_us",
];

pub struct ShadowAnswer {
    pub scores: Vec<f64>,
    pub iterations: usize,
    /// Nanoseconds per stage, indexed as [`STAGES`].
    pub stage_ns: [u64; 8],
}

/// Replays one seed query. Small vector arithmetic between two kernels is
/// charged to the stage that consumes its result, as a profiler looking
/// at `query_vector` from outside would see it.
pub fn query(
    index: &BePi,
    seed: usize,
    rec: &Recorder,
    parent: Option<usize>,
    request: u64,
) -> Result<ShadowAnswer, String> {
    let config = index.config();
    if config.inner != InnerSolver::Gmres {
        return Err("the shadow pipeline replays the GMRES query path only".into());
    }
    let c = config.c;
    let stats = index.stats();
    let (n1, l) = (stats.n1, stats.n1 + stats.n2);
    let n = l + stats.n3;
    let (h12, h21, h31, h32) = index.coupling_blocks();
    let h11 = index.h11_factors();
    let e = |err: bepi_sparse::SparseError| err.to_string();
    let mut stage_ns = [0u64; 8];
    let mut stage = 0;
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let (out, ns) = rec.time(name, parent, request, f);
        stage_ns[stage] = ns;
        stage += 1;
        out
    };

    let mut qr = Vec::new();
    timed(STAGES[0], &mut || {
        let mut q = vec![0.0; n];
        q[seed] = 1.0;
        qr = index.permutation().permute_vec(&q).map_err(e)?;
        Ok(())
    })?;
    let (q1, q2, q3) = (&qr[..n1], &qr[n1..l], &qr[l..]);

    let (mut cq1, mut t) = (Vec::new(), Vec::new());
    timed(STAGES[1], &mut || {
        cq1 = q1.iter().map(|v| c * v).collect();
        t = h11.solve_vec(&cq1).map_err(e)?;
        Ok(())
    })?;

    let mut q2_hat = Vec::new();
    timed(STAGES[2], &mut || {
        let h21t = h21.mul_vec(&t).map_err(e)?;
        q2_hat = q2.iter().zip(&h21t).map(|(qv, hv)| c * qv - hv).collect();
        Ok(())
    })?;

    let (mut r2, mut iterations) = (Vec::new(), 0);
    timed(STAGES[3], &mut || {
        let cfg = GmresConfig {
            tol: config.tol,
            restart: config.gmres_restart,
            max_iters: config.max_iters,
        };
        let gm = gmres(
            index.schur(),
            &q2_hat,
            None,
            index.preconditioner_dyn(),
            &cfg,
        )
        .map_err(e)?;
        iterations = gm.iterations;
        r2 = gm.x;
        Ok(())
    })?;

    let mut rhs1 = Vec::new();
    timed(STAGES[4], &mut || {
        let h12r2 = h12.mul_vec(&r2).map_err(e)?;
        rhs1 = cq1.iter().zip(&h12r2).map(|(a, b)| a - b).collect();
        Ok(())
    })?;

    let mut r1 = Vec::new();
    timed(STAGES[5], &mut || {
        r1 = h11.solve_vec(&rhs1).map_err(e)?;
        Ok(())
    })?;

    let mut r3 = Vec::new();
    timed(STAGES[6], &mut || {
        let h31r1 = h31.mul_vec(&r1).map_err(e)?;
        let h32r2 = h32.mul_vec(&r2).map_err(e)?;
        r3 = q3
            .iter()
            .zip(h31r1.iter().zip(&h32r2))
            .map(|(qv, (a, b))| c * qv - a - b)
            .collect();
        Ok(())
    })?;

    let mut scores = Vec::new();
    timed(STAGES[7], &mut || {
        let mut r = Vec::with_capacity(n);
        r.extend_from_slice(&r1);
        r.extend_from_slice(&r2);
        r.extend_from_slice(&r3);
        scores = index.permutation().unpermute_vec(&r).map_err(e)?;
        Ok(())
    })?;

    Ok(ShadowAnswer {
        scores,
        iterations,
        stage_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_core::BePiConfig;
    use bepi_graph::generators;

    #[test]
    fn shadow_is_bit_identical_to_the_real_query_on_every_seed_class() {
        let g = generators::rmat(9, 3_000, generators::RmatParams::default(), 5).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 6).unwrap();
        let index = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let classes = crate::sample::SeedClasses::of(&index);
        let rec = Recorder::new();
        for seed in [classes.spokes[0], classes.hubs[0], classes.dead_ends[0]] {
            let real = index.query_with_stats(seed).unwrap();
            let shadow = query(&index, seed, &rec, None, seed as u64).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&real.scores), bits(&shadow.scores), "seed {seed}");
            assert_eq!(real.iterations, shadow.iterations);
        }
        assert_eq!(rec.snapshot().len(), 3 * STAGES.len());
    }
}
