//! Logical memory accounting.
//!
//! The BePI paper's headline comparison (Figures 1(b), 5(b), 6(b)) is the
//! memory occupied by *preprocessed data*. We report the exact number of
//! bytes held by index and value arrays — the same quantity one would get
//! from serializing the compressed storage — so the harness can reproduce
//! those figures without depending on allocator behaviour.

/// Bytes of stored data, split by where they live: on the process heap,
/// or served zero-copy from a memory-mapped index file (backed by the
/// shared page cache, not private anonymous memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bytes {
    /// Bytes held on the process heap.
    pub heap: usize,
    /// Bytes served from a mapped index file.
    pub mapped: usize,
}

impl Bytes {
    /// Heap bytes.
    pub const fn heap(heap: usize) -> Self {
        Self { heap, mapped: 0 }
    }

    /// Mapped bytes.
    pub const fn mapped(mapped: usize) -> Self {
        Self { heap: 0, mapped }
    }

    /// Heap plus mapped bytes: the logical size, whatever the backing.
    pub const fn total(self) -> usize {
        self.heap + self.mapped
    }
}

impl std::ops::Add for Bytes {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            heap: self.heap + rhs.heap,
            mapped: self.mapped + rhs.mapped,
        }
    }
}

impl std::ops::Sub for Bytes {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self {
            heap: self.heap - rhs.heap,
            mapped: self.mapped - rhs.mapped,
        }
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// Types that can report the logical size in bytes of their payload.
pub trait MemBytes {
    /// Exact number of bytes of index + value storage (not allocator
    /// capacity, not struct overhead), split into heap and mapped bytes.
    fn bytes(&self) -> Bytes;

    /// [`MemBytes::bytes`]' total: the same for a heap-loaded and a
    /// mapped copy of one index.
    fn mem_bytes(&self) -> usize {
        self.bytes().total()
    }
}

impl MemBytes for Vec<f64> {
    fn bytes(&self) -> Bytes {
        Bytes::heap(std::mem::size_of_val(self.as_slice()))
    }
}

impl MemBytes for Vec<u32> {
    fn bytes(&self) -> Bytes {
        Bytes::heap(std::mem::size_of_val(self.as_slice()))
    }
}

impl MemBytes for Vec<usize> {
    fn bytes(&self) -> Bytes {
        Bytes::heap(std::mem::size_of_val(self.as_slice()))
    }
}

impl<T: MemBytes + ?Sized> MemBytes for &T {
    fn bytes(&self) -> Bytes {
        (**self).bytes()
    }
}

impl<T: MemBytes> MemBytes for Option<T> {
    fn bytes(&self) -> Bytes {
        self.as_ref().map_or(Bytes::default(), MemBytes::bytes)
    }
}

impl<T: MemBytes> MemBytes for [T] {
    fn bytes(&self) -> Bytes {
        self.iter().map(MemBytes::bytes).sum()
    }
}

impl<T: MemBytes> MemBytes for Vec<T> {
    fn bytes(&self) -> Bytes {
        self.as_slice().bytes()
    }
}

/// Formats a byte count with binary units, e.g. `"1.50 MiB"`.
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_f64_bytes() {
        let v = vec![0.0f64; 10];
        assert_eq!(v.mem_bytes(), 80);
    }

    #[test]
    fn vec_u32_bytes() {
        let v = vec![0u32; 10];
        assert_eq!(v.mem_bytes(), 40);
    }

    #[test]
    fn option_bytes() {
        let some: Option<Vec<f64>> = Some(vec![0.0; 4]);
        let none: Option<Vec<f64>> = None;
        assert_eq!(some.mem_bytes(), 32);
        assert_eq!(none.mem_bytes(), 0);
    }

    #[test]
    fn nested_vec_bytes() {
        let v: Vec<Vec<u32>> = vec![vec![0; 2], vec![0; 3]];
        assert_eq!(v.mem_bytes(), 20);
    }

    #[test]
    fn format_small_and_large() {
        assert_eq!(format_bytes(12), "12 B");
        assert_eq!(format_bytes(1536), "1.50 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
    }
}
