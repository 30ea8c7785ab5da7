//! Batch query execution, serial and multi-threaded.
//!
//! The paper's target workload is many queries against one preprocessed
//! instance ("especially when they should serve many query nodes",
//! Section 1). BePI's query phase is read-only over the preprocessed
//! matrices, so queries parallelize embarrassingly across threads; this
//! module provides the fan-out on top of `crossbeam`'s scoped threads.

use crate::bepi::BePi;
use crate::rwr::{check_seed, RwrScores, RwrSolver};
use bepi_sparse::{Result, SparseError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

impl BePi {
    /// Answers a batch of queries serially, in input order.
    pub fn query_batch(&self, seeds: &[usize]) -> Result<Vec<RwrScores>> {
        seeds.iter().map(|&s| self.query_with_stats(s)).collect()
    }

    /// Answers a batch of queries on `threads` worker threads, preserving
    /// input order. Results are identical to [`BePi::query_batch`] —
    /// every query runs the same deterministic solve on shared read-only
    /// data.
    ///
    /// On failure the error is deterministic regardless of thread timing:
    /// seeds are validated up front (so an out-of-range seed reports the
    /// first offender in input order), and if a solve fails mid-batch the
    /// lowest-indexed failure wins. A failure also cancels the remaining
    /// work — workers check a shared flag between queries — so a batch
    /// with an early error does not pay for the rest of the batch.
    pub fn query_batch_parallel(&self, seeds: &[usize], threads: usize) -> Result<Vec<RwrScores>> {
        let n = self.node_count();
        for &s in seeds {
            check_seed(s, n)?;
        }
        if threads <= 1 || seeds.len() <= 1 {
            return self.query_batch(seeds);
        }
        let threads = threads.min(seeds.len());
        let mut results: Vec<Option<RwrScores>> = Vec::new();
        results.resize_with(seeds.len(), || None);
        let chunk = seeds.len().div_ceil(threads);
        let cancelled = AtomicBool::new(false);
        // Lowest-indexed failure across all workers; the index makes the
        // winner deterministic even when several chunks fail at once.
        let first_error: Mutex<Option<(usize, SparseError)>> = Mutex::new(None);
        crossbeam::thread::scope(|scope| {
            for (chunk_no, (seed_chunk, result_chunk)) in seeds
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .enumerate()
            {
                let cancelled = &cancelled;
                let first_error = &first_error;
                let base = chunk_no * chunk;
                scope.spawn(move |_| {
                    for (offset, (s, slot)) in
                        seed_chunk.iter().zip(result_chunk.iter_mut()).enumerate()
                    {
                        if cancelled.load(Ordering::Relaxed) {
                            return;
                        }
                        match self.query_with_stats(*s) {
                            Ok(scores) => *slot = Some(scores),
                            Err(e) => {
                                let idx = base + offset;
                                let mut guard =
                                    first_error.lock().unwrap_or_else(|p| p.into_inner());
                                if guard.as_ref().map_or(true, |(i, _)| idx < *i) {
                                    *guard = Some((idx, e));
                                }
                                cancelled.store(true, Ordering::Relaxed);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bepi::BePiConfig;
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
