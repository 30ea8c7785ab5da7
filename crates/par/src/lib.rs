//! # bepi-par
//!
//! A tiny std-only fork/join layer for BePI's preprocessing kernels
//! (block-LU factorisation and SpGEMM), built on the vendored crossbeam
//! shim (which itself is `std::thread::scope`). Queries do not use it:
//! each solve runs single-threaded, and a multi-query caller
//! parallelises across queries instead.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Parallel kernels must be *byte-identical* to the
//!    serial code at any thread count. Everything here is therefore
//!    *partition-and-concatenate*: work is split into ordered ranges,
//!    each range is computed exactly as the serial loop would compute
//!    it, and results are collected into positions fixed by the range
//!    order — never by completion order.
//! 2. **Graceful degradation.** At one thread (the default on a
//!    single-core box) every helper runs inline on the caller with no
//!    spawns and no allocation beyond the serial path.
//! 3. **No pool state.** Threads are scoped and joined before each call
//!    returns; there is no persistent pool to configure, leak, or poison.
//!
//! The fan-out width is the calling thread's pin
//! ([`with_kernel_threads`]) if one is set, else available parallelism.
//!
//! ```
//! // Ordered fork/join: results come back in task order, not
//! // completion order.
//! let squares = bepi_par::par_join((0..4).map(|i| move || i * i).collect::<Vec<_>>());
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//!
//! // Weight-balanced partitions: a CSR `indptr` splits rows by nnz.
//! let ranges = bepi_par::balanced_ranges(&[0, 100, 101, 102, 103], 2);
//! assert_eq!(ranges, vec![0..1, 1..4]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::ops::Range;

thread_local! {
    /// Per-thread fan-out width installed by [`with_kernel_threads`];
    /// `0` = unset.
    static LOCAL_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Available parallelism as reported by the OS (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with this thread's fan-out width pinned to `n` (restored on
/// exit, even on panic). The pin applies only to the calling thread —
/// kernels invoked from *inside* `f` see `get_threads() == n` while
/// every other thread keeps its own setting. This bounds a preprocessing
/// fan-out that runs beside other work, such as a live daemon's rebuild
/// thread next to its query workers.
///
/// `n == 0` is treated as "unset" (`get_threads()` is then
/// [`available`] inside `f` too).
pub fn with_kernel_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_THREADS.with(|c| c.replace(n)));
    f()
}

/// The fan-out width for preprocessing kernels (always ≥ 1): the calling
/// thread's pin ([`with_kernel_threads`]), else [`available`].
pub fn get_threads() -> usize {
    match LOCAL_THREADS.with(|c| c.get()) {
        0 => available(),
        pinned => pinned,
    }
}

/// Splits `0..prefix.len()-1` items into at most `parts` contiguous
/// ranges of near-equal *weight*, where `prefix` is a non-decreasing
/// prefix-sum of per-item weights (`prefix[i+1] - prefix[i]` = weight of
/// item `i`). A CSR `indptr` array is exactly such a prefix sum over row
/// nnz, which is what makes SpGEMM row partitions nnz-balanced rather than
/// row-count-balanced.
///
/// Every range is non-empty and the ranges cover all items in order.
#[allow(clippy::single_range_in_vec_init)] // one-element Vec<Range> intended
pub fn balanced_ranges(prefix: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = prefix.len().saturating_sub(1);
    let total = prefix.last().copied().unwrap_or(0);
    if parts <= 1 || n <= 1 || total == 0 {
        return vec![0..n];
    }
    let parts = parts.min(n);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..=parts {
        // Leave at least one item for each of the remaining parts.
        let remaining = parts - p;
        let end = if remaining == 0 {
            n
        } else {
            let target = (total as u128 * p as u128 / parts as u128) as usize;
            prefix
                .partition_point(|&v| v < target)
                .max(start + 1)
                .min(n - remaining)
        };
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs the tasks concurrently on scoped threads and returns their
/// results **in task order**. Task 0 runs on the calling thread; with a
/// single task nothing is spawned at all. Panics in a task propagate to
/// the caller after all tasks have been joined.
pub fn par_join<R, F>(tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if tasks.len() <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let mut iter = tasks.into_iter();
    let first = iter.next().expect("len checked above");
    let result = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = iter.map(|f| scope.spawn(move |_| f())).collect();
        let head = first();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(head);
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    });
    match result {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_follow_weight_not_count() {
        // One heavy item (row) dominating: it gets its own range.
        let prefix = [0usize, 100, 101, 102, 103];
        let r = balanced_ranges(&prefix, 2);
        assert_eq!(r, vec![0..1, 1..4]);
        // Uniform weights degenerate to near-even splits.
        let prefix: Vec<usize> = (0..=8).map(|i| i * 3).collect();
        let r = balanced_ranges(&prefix, 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.first().unwrap().start, 0);
        assert_eq!(r.last().unwrap().end, 8);
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert!(!w[0].is_empty() && !w[1].is_empty());
        }
    }

    #[test]
    fn balanced_ranges_handle_empty_and_zero_weight() {
        assert_eq!(balanced_ranges(&[0], 4), vec![0..0]);
        assert_eq!(balanced_ranges(&[0, 0, 0], 4), vec![0..2]);
        // All weight in the last item still yields non-empty ranges.
        let prefix = [0usize, 0, 0, 0, 50];
        let r = balanced_ranges(&prefix, 3);
        assert_eq!(r.iter().map(|x| x.len()).sum::<usize>(), 4);
        assert!(r.iter().all(|x| !x.is_empty()));
    }

    #[test]
    fn par_join_preserves_task_order() {
        let tasks: Vec<_> = (0..16)
            .map(|i| {
                move || {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 10
                }
            })
            .collect();
        let out = par_join(tasks);
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn par_join_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            par_join(vec![
                Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
                Box::new(|| panic!("child boom")),
            ]);
        });
        assert!(caught.is_err());
    }

    #[test]
    fn thread_knob_resolution_order() {
        // The calling thread's pin, else the machine's width; a zero pin
        // means "unset".
        assert_eq!(get_threads(), available());
        assert_eq!(with_kernel_threads(3, get_threads), 3);
        assert_eq!(with_kernel_threads(0, get_threads), available());
    }

    #[test]
    fn thread_local_pin_beats_globals_and_restores() {
        // Nested pins restore the outer one.
        assert_eq!(
            with_kernel_threads(4, || (with_kernel_threads(1, get_threads), get_threads())),
            (1, 4)
        );
        // Restored after the closure, including across a panic.
        assert_eq!(get_threads(), available());
        let caught = std::panic::catch_unwind(|| {
            with_kernel_threads(2, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(get_threads(), available());
        // The pin is per-thread: a sibling thread still sees the default.
        let sibling = with_kernel_threads(1, || std::thread::spawn(get_threads).join().unwrap());
        assert_eq!(sibling, available());
    }
}
