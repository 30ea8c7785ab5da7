//! Permutations of node/index sets.
//!
//! Every reordering method in the paper (deadend, hub-and-spoke/SlashBurn,
//! degree) produces a relabeling of the nodes; composing them and applying
//! them symmetrically to `H` (`P H P^T`) is what creates the block
//! structure of Figure 3.

use crate::error::SparseError;
use crate::mem::MemBytes;
use crate::storage::Storage;
use crate::{Csr, Result};

/// A bijection on `0..n`, stored in both directions for O(1) lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct Permutation {
    /// `new_of_old[old] = new`
    new_of_old: Storage<u32>,
    /// `old_of_new[new] = old`
    old_of_new: Storage<u32>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<u32> = (0..n as u32).collect();
        Self {
            new_of_old: v.clone().into(),
            old_of_new: v.into(),
        }
    }

    /// Builds a permutation from both direction maps — the zero-copy
    /// constructor for mapped v6 indexes — with `O(1)` checks only
    /// (equal, in-range lengths). The bijection scan of
    /// [`Permutation::from_new_of_old`] is skipped: the maps were
    /// validated when the index was written and are covered by the
    /// container's section CRCs; a corrupt map surfaces as a panic on
    /// lookup, never undefined behavior. Debug builds still verify that
    /// the two maps are mutual inverses.
    pub fn from_maps_trusted(new_of_old: Storage<u32>, old_of_new: Storage<u32>) -> Result<Self> {
        if new_of_old.len() != old_of_new.len() {
            return Err(SparseError::InvalidPermutation(format!(
                "direction maps disagree on size: {} vs {}",
                new_of_old.len(),
                old_of_new.len()
            )));
        }
        if new_of_old.len() > u32::MAX as usize {
            return Err(SparseError::DimensionTooLarge {
                dim: new_of_old.len(),
            });
        }
        let p = Self {
            new_of_old,
            old_of_new,
        };
        debug_assert!(
            (0..p.len()).all(|old| p.apply_inverse(p.apply(old)) == old),
            "permutation maps are not mutual inverses"
        );
        Ok(p)
    }

    /// True when either direction map is served from a mapped index.
    pub fn is_mapped(&self) -> bool {
        self.new_of_old.is_mapped() || self.old_of_new.is_mapped()
    }

    /// Bytes of heap memory held by the two maps.
    pub fn heap_bytes(&self) -> usize {
        self.new_of_old.heap_bytes() + self.old_of_new.heap_bytes()
    }

    /// Bytes served zero-copy from a mapped index file.
    pub fn mapped_bytes(&self) -> usize {
        self.new_of_old.mapped_bytes() + self.old_of_new.mapped_bytes()
    }

    /// Builds a permutation from the forward map `new_of_old[old] = new`,
    /// verifying it is a bijection on `0..n`.
    pub fn from_new_of_old(new_of_old: Vec<u32>) -> Result<Self> {
        let n = new_of_old.len();
        let mut old_of_new = vec![u32::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            let new_us = new as usize;
            if new_us >= n {
                return Err(SparseError::InvalidPermutation(format!(
                    "image {new} out of range 0..{n}"
                )));
            }
            if old_of_new[new_us] != u32::MAX {
                return Err(SparseError::InvalidPermutation(format!(
                    "image {new} hit twice (by {} and {old})",
                    old_of_new[new_us]
                )));
            }
            old_of_new[new_us] = old as u32;
        }
        Ok(Self {
            new_of_old: new_of_old.into(),
            old_of_new: old_of_new.into(),
        })
    }

    /// Builds a permutation from the inverse map `old_of_new[new] = old`.
    pub fn from_old_of_new(old_of_new: Vec<u32>) -> Result<Self> {
        // The inverse of a valid bijection is a valid bijection.
        let p = Self::from_new_of_old(old_of_new)?;
        Ok(p.inverse())
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

    /// Old label of `new`.
    #[inline]
    pub fn apply_inverse(&self, new: usize) -> usize {
        self.old_of_new[new] as usize
    }

    /// The forward map slice (`new_of_old`).
    #[inline]
    pub fn new_of_old(&self) -> &[u32] {
        &self.new_of_old
    }

    /// The inverse map slice (`old_of_new`).
    #[inline]
    pub fn old_of_new(&self) -> &[u32] {
        &self.old_of_new
    }

    /// Returns the inverse permutation.
    pub fn inverse(&self) -> Self {
        Self {
            new_of_old: self.old_of_new.clone(),
            old_of_new: self.new_of_old.clone(),
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
    pub fn permute_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        gather(v, &self.old_of_new)
    }

    /// Inverse application to a dense vector: `out[old] = v[new]`.
    pub fn unpermute_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        gather(v, &self.new_of_old)
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
        // Build row counts of the output directly.
        let mut indptr = vec![0usize; n + 1];
        for new_row in 0..n {
            let old_row = self.old_of_new[new_row] as usize;
            indptr[new_row + 1] = indptr[new_row] + a.row_nnz(old_row);
        }
        let nnz = a.nnz();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        for new_row in 0..n {
            let old_row = self.old_of_new[new_row] as usize;
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

/// `out[i] = v[from[i]]`. Taking the map as a slice borrows its
/// `Storage` once rather than per entry.
fn gather(v: &[f64], from: &[u32]) -> Result<Vec<f64>> {
    if v.len() != from.len() {
        return Err(SparseError::VectorLength {
            expected: from.len(),
            actual: v.len(),
        });
    }
    Ok(from.iter().map(|&i| v[i as usize]).collect())
}

impl MemBytes for Permutation {
    fn mem_bytes(&self) -> usize {
        self.new_of_old.mem_bytes() + self.old_of_new.mem_bytes()
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
            assert_eq!(p.apply_inverse(i), i);
        }
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
        assert_eq!(p.apply_inverse(0), 2);
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
