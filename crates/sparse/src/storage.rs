//! Array storage abstraction: owned heap vectors or zero-copy views of
//! a memory-mapped index file.
//!
//! Every array inside [`crate::Csr`] and [`crate::Permutation`] is a
//! [`Storage<T>`]. On the owned path nothing changes: storage derefs to
//! the same slices as before, so every kernel (`mul_vec_into`, the
//! triangular solves, the `bepi-par` partitioned SpGEMM) runs unchanged
//! and stays bit-identical. On the mapped path the storage borrows a
//! 64-byte-aligned section of a v6 index file through a
//! [`bepi_map::Section`] handle, which keeps the whole file mapping
//! alive and costs no copy.
//!
//! Cloning shares on both backings (an `Arc` bump), and mutation goes
//! through [`Storage::to_mut`], which is copy-on-write: a mapped array,
//! or an owned one some clone still shares, is copied the first time
//! something writes to it (e.g. [`crate::Csr::row_normalize`]).
//! Read-mostly serving never triggers the copy, and two matrices built
//! on one pattern (`S` and its ILU(0) factors) hold it once.

use crate::mem::{Bytes, MemBytes};
use bepi_map::{Pod, Section};
use std::sync::Arc;

/// An immutable-by-default array that is either heap-owned or a
/// zero-copy view of a mapped index section.
pub enum Storage<T: Pod> {
    /// A heap-owned vector (the default everywhere data is computed),
    /// shared between clones until one of them writes.
    Owned(Arc<Vec<T>>),
    /// A borrowed slice of a memory-mapped v6 index section.
    Mapped(Section<T>),
}

impl<T: Pod> Storage<T> {
    /// The contents as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped(s) => s,
        }
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True when the data lives in a mapped file rather than the heap.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self, Storage::Mapped(_))
    }

    /// Mutable access, copying mapped or shared data to the heap first
    /// (copy-on-write). After this call the storage is `Owned` and
    /// unshared.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Storage::Mapped(s) = self {
            *self = Storage::Owned(Arc::new(s.as_slice().to_vec()));
        }
        match self {
            Storage::Owned(v) => Arc::make_mut(v),
            Storage::Mapped(_) => unreachable!("converted to Owned above"),
        }
    }

    /// Copies the contents into a fresh heap vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Pod> std::ops::Deref for Storage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage::Owned(Arc::new(v))
    }
}

impl<T: Pod> From<Section<T>> for Storage<T> {
    fn from(s: Section<T>) -> Self {
        Storage::Mapped(s)
    }
}

impl<T: Pod> Clone for Storage<T> {
    fn clone(&self) -> Self {
        match self {
            // Either way an Arc bump, not a copy of the data.
            Storage::Owned(v) => Storage::Owned(Arc::clone(v)),
            Storage::Mapped(s) => Storage::Mapped(s.clone()),
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Equal contents print equally, regardless of backing.
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Pod + PartialEq> PartialEq for Storage<T> {
    /// Content equality: an owned array equals a mapped array holding
    /// the same elements (backing is a serving detail, not identity).
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> MemBytes for Storage<T> {
    /// `len · size_of::<T>()` on the heap for an owned array, or from the
    /// mapped file for a mapped one: the logical size is the same for
    /// either backing, so the paper's Table 5 memory numbers are
    /// backing-independent. A clone that shares an owned array reports it
    /// too: an owner that shares another's pattern leaves it out of its
    /// own count.
    fn bytes(&self) -> Bytes {
        match self {
            Storage::Owned(v) => Bytes::heap(std::mem::size_of_val(v.as_slice())),
            Storage::Mapped(s) => Bytes::mapped(s.byte_len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip_and_accounting() {
        let mut s: Storage<u32> = vec![1, 2, 3].into();
        assert!(!s.is_mapped());
        assert_eq!(&*s, &[1, 2, 3]);
        assert_eq!(s.bytes(), Bytes::heap(12));
        s.to_mut().push(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn owned_clone_shares_until_written() {
        let a: Storage<u32> = vec![1, 2, 3].into();
        let mut b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        b.to_mut()[0] = 9;
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(&*b, &[9, 2, 3]);
        // An unshared array is written in place.
        let p = b.as_slice().as_ptr();
        b.to_mut()[1] = 8;
        assert_eq!(b.as_slice().as_ptr(), p);
    }

    #[test]
    fn equality_ignores_backing() {
        let a: Storage<f64> = vec![1.0, 2.0].into();
        let b: Storage<f64> = vec![1.0, 2.0].into();
        let c: Storage<f64> = vec![1.0, 2.5].into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a:?}"), "[1.0, 2.0]");
    }

    #[test]
    fn storage_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Storage<f64>>();
        assert_send_sync::<Storage<usize>>();
    }
}
