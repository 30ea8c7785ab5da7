//! Permutations of node/index sets.
//!
//! Every reordering method in the paper (deadend, hub-and-spoke/SlashBurn,
//! degree) produces a relabeling of the nodes; composing them and applying
//! them symmetrically to `H` (`P H P^T`) is what creates the block
//! structure of Figure 3.

use crate::error::SparseError;
use crate::mem::{Bytes, MemBytes};
use crate::storage::Storage;
use crate::{Csr, Result};

/// A bijection on `0..n`, stored as its forward map `new_of_old` only:
/// a query permutes by scattering through it and unpermutes by gathering
/// through it, so the inverse map is never stored. [`Permutation::old_of_new`]
/// computes it in `O(n)` for the callers that need it (rebuilds,
/// diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Permutation {
    /// `new_of_old[old] = new`
    new_of_old: Storage<u32>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<u32> = (0..n as u32).collect();
        Self {
            new_of_old: v.into(),
        }
    }

    /// Builds a permutation from its forward map — the zero-copy
    /// constructor for mapped indexes — with an `O(1)` check only (the
    /// length fits `u32`). The bijection scan of
    /// [`Permutation::from_new_of_old`] is skipped: the map was validated
    /// when the index was written and is covered by the container's
    /// section CRC; a corrupt map surfaces as a panic on lookup (an entry
    /// out of range) or a wrong answer (a repeated entry), never undefined
    /// behaviour.
    pub fn from_new_of_old_trusted(new_of_old: Storage<u32>) -> Result<Self> {
        if new_of_old.len() > u32::MAX as usize {
            return Err(SparseError::DimensionTooLarge {
                dim: new_of_old.len(),
            });
        }
        Ok(Self { new_of_old })
    }

    /// Builds a permutation from the forward map `new_of_old[old] = new`,
    /// verifying it is a bijection on `0..n`.
    pub fn from_new_of_old(new_of_old: impl Into<Storage<u32>>) -> Result<Self> {
        let new_of_old = new_of_old.into();
        invert(&new_of_old)?;
        Self::from_new_of_old_trusted(new_of_old)
    }

    /// Builds a permutation from the inverse map `old_of_new[new] = old`.
    pub fn from_old_of_new(old_of_new: Vec<u32>) -> Result<Self> {
        // The inverse of a valid bijection is a valid bijection.
        Self::from_new_of_old_trusted(invert(&old_of_new)?.into())
    }

    /// Size of the permuted set.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True for the empty permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// New label of `old`.
    #[inline]
    pub fn apply(&self, old: usize) -> usize {
        self.new_of_old[old] as usize
    }

    /// The forward map slice (`new_of_old`).
    #[inline]
    pub fn new_of_old(&self) -> &[u32] {
        &self.new_of_old
    }

    /// The inverse map (`old_of_new[new] = old`), computed in `O(n)`.
    ///
    /// # Panics
    /// If a trusted map ([`Permutation::from_new_of_old_trusted`]) holds
    /// an entry out of range.
    pub fn old_of_new(&self) -> Vec<u32> {
        let mut old_of_new = vec![0u32; self.len()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            old_of_new[new as usize] = old as u32;
        }
        old_of_new
    }

    /// Returns the inverse permutation.
    pub fn inverse(&self) -> Self {
        Self {
            new_of_old: self.old_of_new().into(),
        }
    }

    /// Composition `other ∘ self`: first relabel by `self`, then by `other`.
    ///
    /// BePI composes the deadend reordering with the hub-and-spoke
    /// reordering this way (Figure 3(d)).
    pub fn then(&self, other: &Permutation) -> Result<Self> {
        if self.len() != other.len() {
            return Err(SparseError::InvalidPermutation(format!(
                "composing permutations of sizes {} and {}",
                self.len(),
                other.len()
            )));
        }
        let new_of_old: Vec<u32> = self
            .new_of_old
            .iter()
            .map(|&mid| other.new_of_old[mid as usize])
            .collect();
        Self::from_new_of_old(new_of_old)
    }

    /// Applies the permutation to a dense vector: `out[new] = v[old]`.
    ///
    /// A scatter stores at random, which costs several times a gather, so
    /// only entries other than `+0.0` — the value the fresh output already
    /// holds — are stored. A query vector is almost all `+0.0`: its runs
    /// of eight are skipped by one test. `-0.0` and NaNs are stored like
    /// any other value, so the output is exactly the permuted input.
    pub fn permute_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        check_len(v, self.len())?;
        let mut out = vec![0.0; v.len()];
        for (run, map) in v.chunks(8).zip(self.new_of_old.chunks(8)) {
            if run.iter().fold(0, |bits, x| bits | x.to_bits()) == 0 {
                continue;
            }
            for (&x, &new) in run.iter().zip(map) {
                if x.to_bits() != 0 {
                    out[new as usize] = x;
                }
            }
        }
        Ok(out)
    }

    /// Inverse application to a dense vector: `out[old] = v[new]`.
    pub fn unpermute_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        check_len(v, self.len())?;
        Ok(self.new_of_old.iter().map(|&i| v[i as usize]).collect())
    }

    /// Symmetric application to a square CSR matrix:
    /// `B[p(i), p(j)] = A[i, j]`, i.e. `B = P A P^T`.
    pub fn permute_symmetric(&self, a: &Csr) -> Result<Csr> {
        if a.nrows() != a.ncols() || a.nrows() != self.len() {
            return Err(SparseError::ShapeMismatch {
                left: a.shape(),
                right: (self.len(), self.len()),
                op: "permute_symmetric",
            });
        }
        let n = a.nrows();
        let old_of_new = self.old_of_new();
        // Build row counts of the output directly.
        let mut indptr = vec![0usize; n + 1];
        for new_row in 0..n {
            let old_row = old_of_new[new_row] as usize;
            indptr[new_row + 1] = indptr[new_row] + a.row_nnz(old_row);
        }
        let nnz = a.nnz();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        for new_row in 0..n {
            let old_row = old_of_new[new_row] as usize;
            let (cols, vals) = a.row(old_row);
            let out_start = indptr[new_row];
            let slot = &mut indices[out_start..out_start + cols.len()];
            let vslot = &mut values[out_start..out_start + cols.len()];
            // Map columns, then sort the row by new column index.
            let mut pairs: Vec<(u32, f64)> = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| (self.new_of_old[c as usize], v))
                .collect();
            pairs.sort_unstable_by_key(|&(c, _)| c);
            for (k, (c, v)) in pairs.into_iter().enumerate() {
                slot[k] = c;
                vslot[k] = v;
            }
        }
        Ok(Csr::from_parts_unchecked(n, n, indptr, indices, values))
    }
}

/// The inverse of `map` (`inverse[map[i]] = i`), verifying that `map` is
/// a bijection on `0..map.len()`.
fn invert(map: &[u32]) -> Result<Vec<u32>> {
    let n = map.len();
    let mut inverse = vec![u32::MAX; n];
    for (i, &image) in map.iter().enumerate() {
        let slot = inverse.get_mut(image as usize).ok_or_else(|| {
            SparseError::InvalidPermutation(format!("image {image} out of range 0..{n}"))
        })?;
        if *slot != u32::MAX {
            return Err(SparseError::InvalidPermutation(format!(
                "image {image} hit twice (by {} and {i})",
                *slot
            )));
        }
        *slot = i as u32;
    }
    Ok(inverse)
}

fn check_len(v: &[f64], n: usize) -> Result<()> {
    if v.len() != n {
        return Err(SparseError::VectorLength {
            expected: n,
            actual: v.len(),
        });
    }
    Ok(())
}

impl MemBytes for Permutation {
    fn bytes(&self) -> Bytes {
        self.new_of_old.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn identity_maps_to_self() {
        let p = Permutation::identity(4);
        for i in 0..4 {
            assert_eq!(p.apply(i), i);
        }
        assert_eq!(p.old_of_new(), [0, 1, 2, 3]);
    }

    #[test]
    fn from_new_of_old_validates_bijection() {
        assert!(Permutation::from_new_of_old(vec![1, 0, 2]).is_ok());
        assert!(Permutation::from_new_of_old(vec![0, 0, 2]).is_err());
        assert!(Permutation::from_new_of_old(vec![0, 3, 1]).is_err());
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        let inv = p.inverse();
        for i in 0..3 {
            assert_eq!(inv.apply(p.apply(i)), i);
            assert_eq!(p.apply(inv.apply(i)), i);
        }
    }

    #[test]
    fn from_old_of_new_matches() {
        let p = Permutation::from_old_of_new(vec![2, 0, 1]).unwrap();
        // old_of_new[0] = 2 means new label 0 holds old node 2.
        assert_eq!(p.apply(2), 0);
        assert_eq!(p.old_of_new(), [2, 0, 1]);
    }

    #[test]
    fn composition_order() {
        // p: 0->1->..., q applied after.
        let p = Permutation::from_new_of_old(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_new_of_old(vec![0, 2, 1]).unwrap();
        let pq = p.then(&q).unwrap();
        for i in 0..3 {
            assert_eq!(pq.apply(i), q.apply(p.apply(i)));
        }
    }

    #[test]
    fn composition_size_mismatch() {
        let p = Permutation::identity(2);
        let q = Permutation::identity(3);
        assert!(p.then(&q).is_err());
    }

    #[test]
    fn vector_permutation_roundtrip() {
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        let v = vec![10.0, 20.0, 30.0];
        let pv = p.permute_vec(&v).unwrap();
        assert_eq!(pv, vec![20.0, 30.0, 10.0]);
        assert_eq!(p.unpermute_vec(&pv).unwrap(), v);
    }

    /// The scatter stores every entry but `+0.0`, so signed zeros, NaN
    /// payloads and entries in every run of eight land exactly.
    #[test]
    fn permute_vec_scatter_is_exact() {
        let n = 21;
        let p =
            Permutation::from_new_of_old((0..n as u32).map(|i| (i * 8) % 21).collect::<Vec<_>>())
                .unwrap();
        let nan = f64::from_bits(0x7ff8_0000_0000_0042);
        let mut v = vec![0.0; n];
        v[0] = -0.0;
        v[9] = nan;
        v[20] = 2.5;
        let got = p.permute_vec(&v).unwrap();
        let old_of_new = p.old_of_new();
        let want: Vec<u64> = old_of_new
            .iter()
            .map(|&o| v[o as usize].to_bits())
            .collect();
        assert_eq!(got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        assert_eq!(p.unpermute_vec(&got).unwrap()[9].to_bits(), nan.to_bits());
        assert_eq!(p.inverse().new_of_old(), &old_of_new[..]);
    }

    #[test]
    fn trusted_map_skips_the_bijection_scan() {
        let map: Storage<u32> = vec![0u32, 0, 1].into();
        assert!(Permutation::from_new_of_old(map.clone()).is_err());
        let p = Permutation::from_new_of_old_trusted(map).unwrap();
        assert_eq!((p.len(), p.mem_bytes()), (3, 12));
    }

    #[test]
    fn symmetric_matrix_permutation() {
        // A[0,1] = 5; p sends 0->2, 1->0 => B[2,0] = 5.
        let mut coo = Coo::new(3, 3).unwrap();
        coo.push(0, 1, 5.0).unwrap();
        coo.push(1, 2, 7.0).unwrap();
        let a = coo.to_csr();
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        let b = p.permute_symmetric(&a).unwrap();
        assert_eq!(b.get(2, 0), 5.0);
        assert_eq!(b.get(0, 1), 7.0);
        assert_eq!(b.nnz(), a.nnz());
        b.check_invariants().unwrap();
    }

    #[test]
    fn symmetric_permutation_preserves_spmv() {
        // (P A P^T)(P x) = P (A x)
        let mut coo = Coo::new(4, 4).unwrap();
        for &(r, c, v) in &[
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 3.0),
            (3, 0, 4.0),
            (1, 1, -1.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        let a = coo.to_csr();
        let p = Permutation::from_new_of_old(vec![3, 1, 0, 2]).unwrap();
        let b = p.permute_symmetric(&a).unwrap();
        let x = vec![1.0, -2.0, 0.5, 4.0];
        let lhs = b.mul_vec(&p.permute_vec(&x).unwrap()).unwrap();
        let rhs = p.permute_vec(&a.mul_vec(&x).unwrap()).unwrap();
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-14);
        }
    }

    #[test]
    fn permute_rejects_wrong_sizes() {
        let p = Permutation::identity(3);
        assert!(p.permute_vec(&[1.0, 2.0]).is_err());
        let a = Csr::zeros(2, 2);
        assert!(p.permute_symmetric(&a).is_err());
    }
}
