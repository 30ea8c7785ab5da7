//! Batch query execution: lock-step blocks, serial and multi-threaded.
//!
//! The paper's target workload is many queries against one preprocessed
//! instance ("especially when they should serve many query nodes",
//! Section 1). BePI's query phase is read-only over the preprocessed
//! matrices, so a batch is answered in blocks of [`BLOCK_WIDTH`] seeds:
//! each block runs Algorithm 4 once (`BePi::query_block`), with the
//! forward and backward stages per seed and one lock-step GMRES solve
//! (`bepi_solver::gmres_block`) that advances all the block's Schur
//! systems with one pass over `S` per step. That pass is the bulk of a
//! query, and eight vectors cost far less than eight passes: on
//! exact-cold's `S` one 8-wide pass measured 3.97 ms against 1.3–1.5 ms
//! for a single-vector one, about 3× for 8× the work. Every answer is
//! bit-identical to [`BePi::query_with_stats`] on its seed alone.
//!
//! The block width, [`BLOCK_WIDTH`] = 8, is a constant and not a
//! setting: eight `f64` lanes are one 64-byte line per non-zero of `S`,
//! and the `n2 × 8` block (1 MB at `n2` = 16 k) stays in a per-core L2.
//! [`BePi::query_batch_parallel`] splits the seeds across threads and
//! each thread runs blocks of its share.

use crate::bepi::BePi;
use crate::rwr::{check_seed, RwrScores, RwrSolver};
use bepi_sparse::{Result, SparseError, BLOCK_WIDTH};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

impl BePi {
    /// Answers a batch of queries serially, in input order,
    /// [`BLOCK_WIDTH`] seeds per lock-step solve.
    ///
    /// The result is exactly that of answering each seed with
    /// [`BePi::query_with_stats`] in order and stopping at the first
    /// error: the same answers, bit for bit, or the first failing seed's
    /// error.
    pub fn query_batch(&self, seeds: &[usize]) -> Result<Vec<RwrScores>> {
        let mut answers = Vec::with_capacity(seeds.len());
        for block in seeds.chunks(BLOCK_WIDTH) {
            answers.extend(self.query_seed_block(block)?);
        }
        Ok(answers)
    }

    /// Answers a batch of queries on `threads` worker threads, preserving
    /// input order. Each thread takes a contiguous share of the seeds and
    /// answers it in blocks as [`BePi::query_batch`] does, so results are
    /// identical to the serial form — every block runs the same
    /// deterministic solve on shared read-only data.
    ///
    /// On failure the error is deterministic regardless of thread timing:
    /// it is the one [`BePi::query_batch`] returns, the lowest-indexed
    /// failure. A failure also cancels the remaining work — workers skip
    /// every block that starts past the earliest failed one — so a batch
    /// with an early error does not pay for the rest of the batch.
    pub fn query_batch_parallel(&self, seeds: &[usize], threads: usize) -> Result<Vec<RwrScores>> {
        if threads <= 1 || seeds.len() <= 1 {
            return self.query_batch(seeds);
        }
        let threads = threads.min(seeds.len());
        let mut results: Vec<Option<RwrScores>> = Vec::new();
        results.resize_with(seeds.len(), || None);
        let chunk = seeds.len().div_ceil(threads);
        // Start index of the earliest failed block so far. A worker only
        // stops before a block that starts past it, so the worker owning
        // the truly earliest failure always reaches it.
        let first_failed = AtomicUsize::new(usize::MAX);
        let first_error: Mutex<Option<(usize, SparseError)>> = Mutex::new(None);
        crossbeam::thread::scope(|scope| {
            for (chunk_no, (seed_chunk, result_chunk)) in seeds
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .enumerate()
            {
                let first_failed = &first_failed;
                let first_error = &first_error;
                scope.spawn(move |_| {
                    for (block_no, (block, slots)) in seed_chunk
                        .chunks(BLOCK_WIDTH)
                        .zip(result_chunk.chunks_mut(BLOCK_WIDTH))
                        .enumerate()
                    {
                        let start = chunk_no * chunk + block_no * BLOCK_WIDTH;
                        if first_failed.load(Ordering::Relaxed) < start {
                            return;
                        }
                        match self.query_seed_block(block) {
                            Ok(answers) => {
                                for (slot, answer) in slots.iter_mut().zip(answers) {
                                    *slot = Some(answer);
                                }
                            }
                            Err(e) => {
                                first_failed.fetch_min(start, Ordering::Relaxed);
                                let mut guard =
                                    first_error.lock().unwrap_or_else(|p| p.into_inner());
                                if guard.as_ref().map_or(true, |(i, _)| start < *i) {
                                    *guard = Some((start, e));
                                }
                                return;
                            }
                        }
                    }
                });
            }
        })
        .map_err(|_| SparseError::Numerical("query worker thread panicked".into()))?;
        if let Some((_, e)) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        results
            .into_iter()
            .map(|r| Ok(r.expect("no error recorded, so every slot was filled")))
            .collect()
    }

    /// One block of seeds, with the error of answering them one by one:
    /// the seeds before the first out-of-range one are solved, and that
    /// seed's error is returned only if none of them fails first.
    fn query_seed_block(&self, seeds: &[usize]) -> Result<Vec<RwrScores>> {
        let n = self.node_count();
        let valid = seeds
            .iter()
            .position(|&s| check_seed(s, n).is_err())
            .unwrap_or(seeds.len());
        let qs: Vec<Vec<f64>> = seeds[..valid]
            .iter()
            .map(|&s| {
                let mut q = vec![0.0; n];
                q[s] = 1.0;
                q
            })
            .collect();
        let refs: Vec<&[f64]> = qs.iter().map(Vec::as_slice).collect();
        let answers = self.query_block(&refs)?;
        if let Some(&bad) = seeds.get(valid) {
            check_seed(bad, n)?;
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bepi::{BePiConfig, BePiVariant};
    use crate::rwr::RwrSolver;
    use bepi_graph::generators;

    #[test]
    fn serial_batch_matches_individual_queries() {
        let g = generators::erdos_renyi(150, 700, 3).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let seeds = [0usize, 5, 149, 5]; // duplicates allowed
        let batch = solver.query_batch(&seeds).unwrap();
        assert_eq!(batch.len(), 4);
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(batch[i].scores, solver.query(s).unwrap().scores);
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 71).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let seeds: Vec<usize> = (0..24).map(|i| (i * 17) % g.n()).collect();
        let serial = solver.query_batch(&seeds).unwrap();
        for threads in [2usize, 4, 7] {
            let parallel = solver.query_batch_parallel(&seeds, threads).unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in parallel.iter().zip(&serial) {
                assert_eq!(a.scores, b.scores, "threads = {threads}");
                assert_eq!(a.iterations, b.iterations);
            }
        }
    }

    /// A graph with spoke, hub and dead-end nodes, and one seed of each
    /// kind per entry of the returned triples (old node ids).
    fn three_kinds() -> (bepi_graph::Graph, Vec<[usize; 3]>) {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 1).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let (n1, n2) = (solver.stats().n1, solver.stats().n2);
        let old_of_new = solver.permutation().old_of_new();
        let old = |j: usize| old_of_new[j] as usize;
        let kinds = (0..7)
            .map(|i| [old(i * 3), old(n1 + i), old(n1 + n2 + i)])
            .collect();
        (g, kinds)
    }

    fn assert_bit_identical(got: &RwrScores, want: &RwrScores, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.scores), bits(&want.scores), "{what}");
        assert_eq!(got.iterations, want.iterations, "{what}");
        assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{what}");
    }

    #[test]
    fn lockstep_batch_is_bit_identical_to_single_queries() {
        let (g, kinds) = three_kinds();
        // 19 seeds: blocks of 8 + 8 + 3, every kind in every block.
        let seeds: Vec<usize> = kinds.iter().flatten().copied().take(19).collect();
        assert_eq!(seeds.len(), 19);
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let solver = BePi::preprocess(&g, &BePiConfig::for_variant(variant)).unwrap();
            let single: Vec<RwrScores> = seeds
                .iter()
                .map(|&s| solver.query_with_stats(s).unwrap())
                .collect();
            // A dead-end seed's q̂2 is zero, so its solve takes no step.
            assert_eq!(single[2].iterations, 0);
            assert!(single[0].iterations > 0 && single[1].iterations > 0);
            let serial = solver.query_batch(&seeds).unwrap();
            for threads in [1usize, 2, 3] {
                let parallel = solver.query_batch_parallel(&seeds, threads).unwrap();
                for (i, want) in single.iter().enumerate() {
                    let what = format!("{} seed #{i} threads {threads}", variant.name());
                    assert_bit_identical(&serial[i], want, &what);
                    assert_bit_identical(&parallel[i], want, &what);
                }
            }
        }
    }

    #[test]
    fn lockstep_batch_reports_the_first_error_in_seed_order() {
        let (g, kinds) = three_kinds();
        let capped = BePi::preprocess(
            &g,
            &BePiConfig {
                max_iters: 1,
                ..BePiConfig::default()
            },
        )
        .unwrap();
        // Under the cap a dead end still answers (its solve takes no
        // step); a hub or spoke whose solve needs a second step fails.
        let dead = kinds[0][2];
        assert!(capped.query_with_stats(dead).is_ok());
        let failing = |kind: usize| {
            kinds
                .iter()
                .map(|k| k[kind])
                .find(|&s| capped.query_with_stats(s).is_err())
                .expect("some seed of this kind needs more than one step")
        };
        let (spoke, hub) = (failing(0), failing(1));
        let message = |s: usize| capped.query_with_stats(s).unwrap_err().to_string();
        // Distinct messages, so the cases below can tell which one won.
        assert_ne!(message(spoke), message(hub));
        let bad = g.n() + 5;
        let d = dead;
        let cases: [(&str, Vec<usize>); 4] = [
            (
                "unconverged before invalid",
                vec![d, d, d, hub, d, bad, d, d, spoke, d],
            ),
            (
                "invalid before unconverged",
                vec![d, bad, d, hub, d, d, d, d, spoke],
            ),
            (
                "second block",
                vec![d, d, d, d, d, d, d, d, d, d, spoke, d, bad, hub],
            ),
            ("invalid last", vec![d, d, d, d, d, d, d, d, d, d, d, bad]),
        ];
        for (what, seeds) in cases {
            let want = seeds
                .iter()
                .map(|&s| capped.query_with_stats(s))
                .collect::<Result<Vec<_>>>()
                .unwrap_err()
                .to_string();
            let is_seed_error = want.contains(&bad.to_string());
            assert_eq!(is_seed_error, what.starts_with("invalid"), "{what}: {want}");
            assert_eq!(
                capped.query_batch(&seeds).unwrap_err().to_string(),
                want,
                "{what}"
            );
            for threads in [2usize, 3, 4] {
                let got = capped.query_batch_parallel(&seeds, threads).unwrap_err();
                assert_eq!(got.to_string(), want, "{what}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_batch_aggregates_into_shared_telemetry() {
        let g = generators::erdos_renyi(120, 600, 9).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let seeds: Vec<usize> = (0..16).map(|i| (i * 7) % g.n()).collect();
        let before = bepi_obs::telemetry::gmres_iterations().count();
        let results = solver.query_batch_parallel(&seeds, 4).unwrap();
        let after = bepi_obs::telemetry::gmres_iterations().count();
        // Every batch query lands in the process-global registry the serve
        // path reads; other tests in this binary may also record, so the
        // delta is a lower bound.
        assert!(
            after >= before + seeds.len() as u64,
            "expected ≥ {} new solves, got {} → {}",
            seeds.len(),
            before,
            after
        );
        for r in &results {
            assert!(r.iterations > 0);
            assert!(r.residual.is_finite());
        }
    }

    #[test]
    fn parallel_with_one_thread_or_one_seed_degenerates() {
        let g = generators::cycle(20);
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let one = solver.query_batch_parallel(&[3], 8).unwrap();
        assert_eq!(one.len(), 1);
        let single_thread = solver.query_batch_parallel(&[1, 2, 3], 1).unwrap();
        assert_eq!(single_thread.len(), 3);
    }

    #[test]
    fn bad_seed_in_batch_is_an_error() {
        let g = generators::cycle(10);
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        assert!(solver.query_batch(&[1, 99]).is_err());
        assert!(solver.query_batch_parallel(&[1, 99, 2, 3], 2).is_err());
    }

    #[test]
    fn out_of_range_seed_error_is_deterministic_by_input_order() {
        let g = generators::erdos_renyi(50, 200, 9).unwrap();
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        // Two invalid seeds buried in otherwise valid work, placed so they
        // land in different worker chunks. The reported error must always
        // name the first offender in input order (seed 77 at index 2), no
        // matter how threads interleave.
        let seeds = [0usize, 1, 77, 3, 4, 5, 6, 88, 8, 9, 10, 11];
        let expected = solver
            .query_batch_parallel(&seeds, 4)
            .unwrap_err()
            .to_string();
        assert!(
            expected.contains("77"),
            "error should name seed 77: {expected}"
        );
        for _ in 0..20 {
            for threads in [2usize, 3, 4, 6] {
                let err = solver.query_batch_parallel(&seeds, threads).unwrap_err();
                assert_eq!(err.to_string(), expected, "threads = {threads}");
            }
        }
        // And the serial form agrees.
        assert_eq!(
            solver.query_batch(&seeds).unwrap_err().to_string(),
            expected
        );
    }

    #[test]
    fn empty_batch() {
        let g = generators::cycle(5);
        let solver = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        assert!(solver.query_batch(&[]).unwrap().is_empty());
        assert!(solver.query_batch_parallel(&[], 4).unwrap().is_empty());
    }
}
