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
//! Mutation goes through [`Storage::to_mut`], which is copy-on-write: a
//! mapped array is copied to the heap the first time something writes to
//! it (e.g. [`crate::Csr::row_normalize`]). Read-mostly serving never
//! triggers the copy.

use crate::mem::MemBytes;
use bepi_map::{Pod, Section};

/// An immutable-by-default array that is either heap-owned or a
/// zero-copy view of a mapped index section.
pub enum Storage<T: Pod> {
    /// A heap-owned vector (the default everywhere data is computed).
    Owned(Vec<T>),
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

    /// Mutable access, copying mapped data to the heap first
    /// (copy-on-write). After this call the storage is `Owned`.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Storage::Mapped(s) = self {
            *self = Storage::Owned(s.as_slice().to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Mapped(_) => unreachable!("converted to Owned above"),
        }
    }

    /// Copies the contents into a fresh heap vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// Bytes of heap memory held (zero for mapped storage).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Storage::Owned(v) => std::mem::size_of_val(v.as_slice()),
            Storage::Mapped(_) => 0,
        }
    }

    /// Bytes served from the mapped file (zero for owned storage).
    pub fn mapped_bytes(&self) -> usize {
        match self {
            Storage::Owned(_) => 0,
            Storage::Mapped(s) => s.byte_len(),
        }
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
        Storage::Owned(v)
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
            Storage::Owned(v) => Storage::Owned(v.clone()),
            // Cloning a mapped storage clones the cheap section handle
            // (an Arc bump), not the data.
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
    /// Logical bytes, matching `Vec<T>`'s accounting — mapped storage
    /// reports the same logical size so the paper's Table 5 memory
    /// numbers are backing-independent. Use [`Storage::heap_bytes`] /
    /// [`Storage::mapped_bytes`] for the physical split.
    fn mem_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
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
        assert_eq!(s.heap_bytes(), 12);
        assert_eq!(s.mapped_bytes(), 0);
        assert_eq!(s.mem_bytes(), 12);
        s.to_mut().push(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_vec(), vec![1, 2, 3, 4]);
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
