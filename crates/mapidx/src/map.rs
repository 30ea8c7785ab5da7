//! The `mmap` wrapper: [`Mapping`] (raw read-only file mapping),
//! [`Section`] (typed, owning view of one payload section), and
//! [`MappedIndex`] (an opened, validated v6 container).
//!
//! Every `unsafe` block in the workspace's mapped-index path lives in
//! this module; consumers only ever see safe handles.

use crate::format::{parse_layout, SectionEntry};
use crate::{sections, MapError};
use std::fs::File;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

#[cfg(unix)]
mod sys {
    //! Minimal `extern "C"` declarations for the three syscall wrappers
    //! used here (no libc crate — the workspace vendors all deps).
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// `MAP_FAILED` — the all-ones sentinel, not null.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only, shared memory mapping of an entire file.
///
/// The mapping is `MAP_SHARED` + `PROT_READ`: every process mapping the
/// same index file shares one copy of its pages in the page cache, which
/// is the whole point of serving from a mapped index. Unmapped on drop.
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime (PROT_READ,
// never remapped or written through), so shared references from any
// thread are sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `file` read-only in its entirety.
    #[cfg(unix)]
    pub fn map_file(file: &File) -> Result<Self, MapError> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(MapError::TooSmall { len: 0 });
        }
        if len > usize::MAX as u64 {
            return Err(MapError::Unsupported("file exceeds address space"));
        }
        let len = len as usize;
        // SAFETY: fd is a valid open file descriptor for the lifetime of
        // this call; we request a fresh read-only shared mapping (addr
        // null, offset 0) and check for MAP_FAILED before trusting the
        // result. The kernel guarantees page-aligned placement.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return Err(MapError::Io(format!(
                "mmap failed: {}",
                std::io::Error::last_os_error()
            )));
        }
        Ok(Self {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Mapping is only implemented for unix hosts; elsewhere callers get
    /// a clean [`MapError::Unsupported`] and fall back to heap loading.
    #[cfg(not(unix))]
    pub fn map_file(_file: &File) -> Result<Self, MapError> {
        Err(MapError::Unsupported("mmap requires a unix host"))
    }

    /// Length of the mapped file in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty mapping (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole mapped file as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; the slice's lifetime is tied to &self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Advises the kernel that `offset..offset + len` will be needed
    /// soon (`MADV_WILLNEED`), triggering asynchronous read-ahead for a
    /// hot section. Best-effort: failures are ignored (the advice is an
    /// optimization, not a correctness requirement), and out-of-range
    /// requests are clamped.
    pub fn advise_willneed(&self, offset: usize, len: usize) {
        #[cfg(unix)]
        {
            let offset = offset.min(self.len);
            let len = len.min(self.len - offset);
            if len == 0 {
                return;
            }
            // madvise wants page-aligned addresses: round the start down
            // to the containing page (the kernel rejects unaligned addr).
            let page = 4096usize;
            let start = (offset / page) * page;
            let adj_len = len + (offset - start);
            // SAFETY: start/adj_len lie within our live mapping.
            unsafe {
                sys::madvise(
                    self.ptr.add(start) as *mut std::os::raw::c_void,
                    adj_len,
                    sys::MADV_WILLNEED,
                );
            }
        }
        #[cfg(not(unix))]
        {
            let _ = (offset, len);
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once, here.
        unsafe {
            sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping").field("len", &self.len).finish()
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Element types that can alias the little-endian, 64-byte-aligned
/// payload bytes of a mapped section directly. Sealed: soundness of
/// [`Section`] depends on every implementor being a plain-old-data type
/// with no padding, no invalid bit patterns, and alignment ≤ 64.
pub trait Pod: sealed::Sealed + Copy + 'static {}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Pod for $t {}
    )*};
}

impl_pod!(u8, u16, u32, u64, f32, f64);

// `usize` sections are stored as u64 on disk; aliasing them as usize is
// only valid where the two types agree.
#[cfg(target_pointer_width = "64")]
impl_pod!(usize);

/// A typed, owning view of one payload section of a mapped index.
///
/// Derefs to `&[T]` and keeps the whole file mapping alive through an
/// internal [`Arc`], so a `Section` can outlive the [`MappedIndex`] it
/// came from. Cloning is cheap (an `Arc` bump).
pub struct Section<T: Pod> {
    map: Arc<Mapping>,
    /// Byte offset of the payload within the mapping.
    offset: usize,
    /// Element (not byte) count.
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> Section<T> {
    fn from_entry(map: Arc<Mapping>, entry: &SectionEntry) -> Result<Self, MapError> {
        let elem = std::mem::size_of::<T>();
        if entry.len as usize % elem != 0 {
            return Err(MapError::BadElementSize {
                id: entry.id,
                section: sections::name(entry.id),
                len: entry.len,
                elem,
            });
        }
        if cfg!(target_endian = "big") && elem > 1 {
            return Err(MapError::Unsupported(
                "mapped sections are little-endian; this host is big-endian",
            ));
        }
        Ok(Self {
            map,
            offset: entry.offset as usize,
            len: entry.len as usize / elem,
            _marker: PhantomData,
        })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the section holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }

    /// The section contents as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: parse_layout proved offset..offset+len*size lies inside
        // the mapping and offset is 64-byte aligned (≥ align_of::<T>());
        // T is Pod (sealed), so every bit pattern is a valid T; the
        // mapping is read-only and outlives self via the Arc.
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_slice().as_ptr().add(self.offset) as *const T,
                self.len,
            )
        }
    }

    /// Asks the kernel to read this section's pages ahead of first use.
    pub fn advise_willneed(&self) {
        self.map
            .advise_willneed(self.offset, self.len * std::mem::size_of::<T>());
    }
}

impl<T: Pod> Deref for Section<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for Section<T> {
    fn clone(&self) -> Self {
        Self {
            map: Arc::clone(&self.map),
            offset: self.offset,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Pod> std::fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Section(len={}, offset={})", self.len, self.offset)
    }
}

/// An opened, eagerly validated v6 container file.
///
/// Construction ([`MappedIndex::open`]) maps the file and validates
/// magic, version, footer, and the full section table — `O(#sections)`
/// work, independent of index size. Typed access then borrows payload
/// arrays in place.
#[derive(Debug)]
pub struct MappedIndex {
    map: Arc<Mapping>,
    table: Vec<SectionEntry>,
}

impl MappedIndex {
    /// Opens and validates the container at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, MapError> {
        Self::open_file(&File::open(path)?)
    }

    /// Opens and validates an already open file.
    pub fn open_file(file: &File) -> Result<Self, MapError> {
        let map = Arc::new(Mapping::map_file(file)?);
        let table = parse_layout(map.as_slice())?;
        Ok(Self { map, table })
    }

    /// The parsed section table.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.table
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// True if the container holds a section with this id.
    pub fn has(&self, id: u32) -> bool {
        self.table.iter().any(|e| e.id == id)
    }

    fn entry(&self, id: u32) -> Result<&SectionEntry, MapError> {
        self.table
            .iter()
            .find(|e| e.id == id)
            .ok_or(MapError::MissingSection {
                id,
                section: sections::name(id),
            })
    }

    /// The raw payload bytes of a section.
    pub fn bytes(&self, id: u32) -> Result<&[u8], MapError> {
        let e = self.entry(id)?;
        Ok(&self.map.as_slice()[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// A typed view of a section. The returned handle owns a reference
    /// to the mapping, so it stays valid after this `MappedIndex` drops.
    pub fn section<T: Pod>(&self, id: u32) -> Result<Section<T>, MapError> {
        Section::from_entry(Arc::clone(&self.map), self.entry(id)?)
    }

    /// Verifies one section's payload CRC.
    pub fn verify(&self, id: u32) -> Result<(), MapError> {
        let e = *self.entry(id)?;
        let payload = &self.map.as_slice()[e.offset as usize..(e.offset + e.len) as usize];
        let computed = crate::crc32(payload);
        if computed != e.crc {
            return Err(MapError::SectionCrc {
                id: e.id,
                section: sections::name(e.id),
                stored: e.crc,
                computed,
            });
        }
        Ok(())
    }

    /// Verifies every section's payload CRC (full-file integrity check;
    /// costs a read of the whole file, so it is opt-in rather than part
    /// of the open path).
    pub fn verify_all(&self) -> Result<(), MapError> {
        for e in &self.table {
            self.verify(e.id)?;
        }
        Ok(())
    }

    /// Issues `MADV_WILLNEED` for a section, starting read-ahead for it.
    /// Missing sections are ignored (the advice is best-effort).
    pub fn advise_willneed(&self, id: u32) {
        if let Ok(e) = self.entry(id) {
            self.map.advise_willneed(e.offset as usize, e.len as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ContainerWriter;
    use std::io::Write as _;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bepi_mapidx_{tag}_{}", std::process::id()))
    }

    fn write_sample(path: &std::path::Path) {
        let file = File::create(path).unwrap();
        let mut w = ContainerWriter::new(std::io::BufWriter::new(file)).unwrap();
        w.begin_section(sections::BLOCK_SIZES).unwrap();
        for v in [3u64, 1, 4, 1, 5] {
            w.write_all(&v.to_le_bytes()).unwrap();
        }
        w.end_section().unwrap();
        w.begin_section(sections::S_VALUES).unwrap();
        for v in [0.5f64, -2.0, 1.25] {
            w.write_all(&v.to_le_bytes()).unwrap();
        }
        w.end_section().unwrap();
        w.section_bytes(sections::META, b"cfg").unwrap();
        w.finish().unwrap().into_inner().unwrap();
    }

    #[test]
    fn open_and_read_typed_sections() {
        let path = temp_path("typed");
        write_sample(&path);
        let idx = MappedIndex::open(&path).unwrap();
        assert!(idx.has(sections::META));
        assert!(!idx.has(sections::ILU_DIAG));
        let sizes: Section<u64> = idx.section(sections::BLOCK_SIZES).unwrap();
        assert_eq!(&*sizes, &[3, 1, 4, 1, 5]);
        let vals: Section<f64> = idx.section(sections::S_VALUES).unwrap();
        assert_eq!(&*vals, &[0.5, -2.0, 1.25]);
        assert_eq!(idx.bytes(sections::META).unwrap(), b"cfg");
        idx.verify_all().unwrap();
        // WILLNEED on present and absent sections must both be harmless.
        idx.advise_willneed(sections::S_VALUES);
        idx.advise_willneed(sections::ILU_DIAG);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_outlive_the_index() {
        let path = temp_path("outlive");
        write_sample(&path);
        let sizes: Section<u64> = {
            let idx = MappedIndex::open(&path).unwrap();
            idx.section(sections::BLOCK_SIZES).unwrap()
        };
        // The MappedIndex is gone; the Arc'd mapping keeps the view alive.
        assert_eq!(sizes.len(), 5);
        assert_eq!(sizes[2], 4);
        assert_eq!(sizes.byte_len(), 40);
        let clone = sizes.clone();
        drop(sizes);
        assert_eq!(&*clone, &[3, 1, 4, 1, 5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usize_view_matches_u64_on_64bit() {
        #[cfg(target_pointer_width = "64")]
        {
            let path = temp_path("usize");
            write_sample(&path);
            let idx = MappedIndex::open(&path).unwrap();
            let s: Section<usize> = idx.section(sections::BLOCK_SIZES).unwrap();
            assert_eq!(&*s, &[3usize, 1, 4, 1, 5]);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_section_is_typed_error() {
        let path = temp_path("missing");
        write_sample(&path);
        let idx = MappedIndex::open(&path).unwrap();
        match idx.section::<u64>(sections::ILU_DIAG) {
            Err(MapError::MissingSection { section, .. }) => {
                assert_eq!(section, "ilu.diag_pos");
            }
            other => panic!("expected MissingSection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn element_size_mismatch_is_typed_error() {
        let path = temp_path("elem");
        write_sample(&path);
        let idx = MappedIndex::open(&path).unwrap();
        // META is 3 bytes — not a multiple of 8.
        match idx.section::<u64>(sections::META) {
            Err(MapError::BadElementSize { section, .. }) => assert_eq!(section, "meta"),
            other => panic!("expected BadElementSize, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_sections_alias_and_check_their_length() {
        let path = temp_path("f32");
        let file = File::create(&path).unwrap();
        let mut w = ContainerWriter::new(std::io::BufWriter::new(file)).unwrap();
        w.begin_section(sections::ILU_VALUES_F32).unwrap();
        for v in [0.5f32, -2.0, 1.25] {
            w.write_all(&v.to_le_bytes()).unwrap();
        }
        w.end_section().unwrap();
        w.section_bytes(sections::META, b"cfg").unwrap();
        w.finish().unwrap().into_inner().unwrap();
        let idx = MappedIndex::open(&path).unwrap();
        let vals: Section<f32> = idx.section(sections::ILU_VALUES_F32).unwrap();
        assert_eq!(&*vals, &[0.5, -2.0, 1.25]);
        assert_eq!(vals.byte_len(), 12);
        // META is 3 bytes — not a multiple of 4.
        match idx.section::<f32>(sections::META) {
            Err(MapError::BadElementSize { elem, .. }) => assert_eq!(elem, 4),
            other => panic!("expected BadElementSize, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_corruption_caught_by_verify() {
        let path = temp_path("verify");
        write_sample(&path);
        let mut buf = std::fs::read(&path).unwrap();
        // Flip one payload byte of the first section (offset 64).
        buf[64] ^= 0x80;
        std::fs::write(&path, &buf).unwrap();
        let idx = MappedIndex::open(&path).unwrap(); // open stays O(#sections)
        match idx.verify(sections::BLOCK_SIZES) {
            Err(MapError::SectionCrc { section, .. }) => assert_eq!(section, "block_sizes"),
            other => panic!("expected SectionCrc, got {other:?}"),
        }
        assert!(idx.verify_all().is_err());
        assert!(idx.verify(sections::META).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_rejected() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        assert!(matches!(
            MappedIndex::open(&path),
            Err(MapError::TooSmall { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mapping>();
        assert_send_sync::<Section<f64>>();
        assert_send_sync::<MappedIndex>();
    }
}
