//! Dense vector kernels shared by the iterative solvers.
//!
//! GMRES, power iteration, and the accuracy experiments all operate on
//! dense vectors; these free functions keep those hot loops allocation-free.
//!
//! Reductions ([`dot`], [`norm2`]) sum vectors longer than
//! `DETERMINISTIC_CHUNK` as fixed-size chunk partials combined in index
//! order. The floating-point grouping depends only on the length, so a
//! change in how the chunks are computed (say, concurrently) cannot move
//! a score's bits.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Chunk length of the fixed summation order in [`dot`].
const DETERMINISTIC_CHUNK: usize = 8192;

/// Dot product. Panics in debug builds on length mismatch.
///
/// Sums `DETERMINISTIC_CHUNK`-element partials, each a left-to-right
/// fold, then the partials in index order (see module docs).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() <= DETERMINISTIC_CHUNK {
        return dot_chunk(a, b);
    }
    a.chunks(DETERMINISTIC_CHUNK)
        .zip(b.chunks(DETERMINISTIC_CHUNK))
        .map(|(a, b)| dot_chunk(a, b))
        .sum()
}

/// One chunk of [`dot`]: a left-to-right fold.
#[inline]
fn dot_chunk(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 norm.
#[inline]
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Infinity norm.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// `||a - b||_2` without allocating the difference.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Normalizes `x` to unit L2 norm in place; returns the original norm.
/// A zero vector is left unchanged and 0.0 is returned.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// A candidate in [`top_k_indices`], ordered so that `Less` means
/// "ranks first": score descending (incomparable scores tie), then index
/// ascending.
struct Ranked {
    score: f64,
    index: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Indices of the `k` largest entries, descending, ties broken by index.
///
/// This is the "top-k ranking" operation of Figure 2: turn an RWR score
/// vector into a ranked node list. A bounded selection: one pass keeps
/// the best `min(k, n)` candidates in a heap whose top is the worst of
/// them, so a candidate that does not make the cut costs one comparison —
/// `O(n + k log k)` on typical score vectors, `O(n log k)` at worst, and
/// `k` slots of memory instead of `n`.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut best = BinaryHeap::with_capacity(k.min(scores.len()));
    for (index, &score) in scores.iter().enumerate() {
        let candidate = Ranked { score, index };
        if best.len() < k {
            best.push(candidate);
        } else if let Some(mut worst) = best.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }
    best.into_sorted_vec()
        .into_iter()
        .map(|r| r.index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [1.0, 2.0, -2.0];
        let b = [3.0, 0.0, 1.0];
        assert_eq!(dot(&a, &b), 1.0);
        assert_eq!(norm2(&a), 3.0);
        assert_eq!(norm1(&a), 5.0);
        assert_eq!(norm_inf(&a), 2.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn dist2_matches_manual() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(dist2(&a, &b), 5.0);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut x = [3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        let mut z = [0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn dot_sums_fixed_chunks_in_index_order() {
        // Several full chunks and an awkward tail.
        let n = DETERMINISTIC_CHUNK * 3 + 1234;
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 * 1e-3 - 0.5)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 40503) % 997) as f64 * 1e-3 - 0.25)
            .collect();
        let mut partials = [0.0f64; 4];
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            partials[i / DETERMINISTIC_CHUNK] += x * y;
        }
        let mut expected = 0.0f64;
        for p in partials {
            expected += p;
        }
        assert_eq!(dot(&a, &b).to_bits(), expected.to_bits());
    }

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let scores = [0.1, 0.5, 0.5, 0.9, 0.0];
        assert_eq!(top_k_indices(&scores, 3), vec![3, 1, 2]);
        assert_eq!(top_k_indices(&scores, 10), vec![3, 1, 2, 0, 4]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn top_k_survives_nan_scores() {
        // NaN compares equal to everything, so no order is promised —
        // only k distinct in-range indices and no panic.
        let scores = [0.3, f64::NAN, 0.7, f64::NAN, 0.1];
        let mut got = top_k_indices(&scores, 3);
        assert_eq!(got.len(), 3);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&i| i < scores.len()));
    }
}
