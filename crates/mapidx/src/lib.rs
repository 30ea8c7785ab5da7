//! # bepi-map
//!
//! Zero-copy memory-mapped index container for the BePI library — the
//! on-disk **format v6** and the safe `mmap` wrapper that serves it.
//!
//! The BePI paper's headline claim is *memory* efficiency at billion
//! scale (Table 5: ~130× less memory than Bear). A heap deserializer
//! re-parses the whole index on every process start, doubles transient
//! memory while doing so, and gives every co-located process its own
//! copy. Mapping the index instead makes startup time independent of
//! index size, shares one page-cache copy across processes, and shrinks
//! steady-state RSS to the pages actually touched.
//!
//! ## The v6 container
//!
//! A v6 file is a little-endian container of 64-byte-aligned payload
//! sections, indexed by a section table at the end of the file so the
//! writer can stream in one pass:
//!
//! ```text
//! offset 0     "BEPI", version u32 = 6, flags u32, zero padding .. 64
//! offset 64    payload sections, each starting on a 64-byte boundary
//! table_offset section table: per section { id u32, crc u32,
//!              offset u64, len u64 } (24 bytes each)
//! file end-24  footer: table_offset u64, section_count u64,
//!              table_crc u32, footer magic "BPI6"
//! ```
//!
//! [`MappedIndex::open`] validates the magic, version, footer, and the
//! section *table* (its CRC plus structural checks: in-bounds,
//! non-overlapping, 64-byte-aligned sections) eagerly — all `O(#sections)`
//! work, so open time does not grow with index size. Per-section payload
//! CRCs are verified on demand ([`MappedIndex::verify`] /
//! [`MappedIndex::verify_all`]); heap loaders that copy the payload out
//! verify every section they read.
//!
//! Because payload offsets are 64-byte aligned and the payload is stored
//! little-endian, `u32`/`u64`/`f64` arrays are borrowable in place on
//! little-endian hosts: [`MappedIndex::section`] hands out a typed
//! [`Section<T>`] that derefs to `&[T]` and keeps the mapping alive via
//! an internal [`std::sync::Arc`].
//!
//! All `unsafe` in the workspace's mapping path lives in this crate
//! (`mmap`/`munmap`/`madvise` via `extern "C"` declarations — no
//! crates.io dependencies, consistent with the `shims/` policy); the
//! numeric crates stay `#![forbid(unsafe_code)]` and consume only the
//! safe [`Section`] handles.

#![deny(missing_docs)]

mod format;
mod map;

pub use format::{
    parse_layout, ContainerWriter, SectionEntry, ALIGN, FOOTER_LEN, HEADER_LEN, MAGIC,
    TABLE_ENTRY_LEN, VERSION,
};
pub use map::{MappedIndex, Mapping, Pod, Section};

/// Section identifiers and display names for the BePI v6 container.
///
/// The numeric ids are part of the on-disk format; the names are what
/// error messages and memory reports print.
pub mod sections {
    /// Config scalars, partition sizes, and phase timings (opaque blob).
    pub const META: u32 = 0x01;
    /// Permutation forward map `new_of_old` (`u32`).
    pub const PERM_NEW_OF_OLD: u32 = 0x02;
    /// Permutation inverse map `old_of_new` (`u32`).
    pub const PERM_OLD_OF_NEW: u32 = 0x03;
    /// Diagonal block sizes of `H11` (`u64`).
    pub const BLOCK_SIZES: u32 = 0x04;
    /// `L1^{-1}` row pointers (`u64`).
    pub const L_INV_INDPTR: u32 = 0x10;
    /// `L1^{-1}` column indices (`u32`).
    pub const L_INV_INDICES: u32 = 0x11;
    /// `L1^{-1}` values (`f64`).
    pub const L_INV_VALUES: u32 = 0x12;
    /// `U1^{-1}` row pointers (`u64`).
    pub const U_INV_INDPTR: u32 = 0x20;
    /// `U1^{-1}` column indices (`u32`).
    pub const U_INV_INDICES: u32 = 0x21;
    /// `U1^{-1}` values (`f64`).
    pub const U_INV_VALUES: u32 = 0x22;
    /// Schur complement `S` row pointers (`u64`).
    pub const S_INDPTR: u32 = 0x30;
    /// Schur complement `S` column indices (`u32`).
    pub const S_INDICES: u32 = 0x31;
    /// Schur complement `S` values (`f64`).
    pub const S_VALUES: u32 = 0x32;
    /// `H12` row pointers (`u64`).
    pub const H12_INDPTR: u32 = 0x40;
    /// `H12` column indices (`u32`).
    pub const H12_INDICES: u32 = 0x41;
    /// `H12` values (`f64`).
    pub const H12_VALUES: u32 = 0x42;
    /// `H21` row pointers (`u64`).
    pub const H21_INDPTR: u32 = 0x50;
    /// `H21` column indices (`u32`).
    pub const H21_INDICES: u32 = 0x51;
    /// `H21` values (`f64`).
    pub const H21_VALUES: u32 = 0x52;
    /// `H31` row pointers (`u64`).
    pub const H31_INDPTR: u32 = 0x60;
    /// `H31` column indices (`u32`).
    pub const H31_INDICES: u32 = 0x61;
    /// `H31` values (`f64`).
    pub const H31_VALUES: u32 = 0x62;
    /// `H32` row pointers (`u64`).
    pub const H32_INDPTR: u32 = 0x70;
    /// `H32` column indices (`u32`).
    pub const H32_INDICES: u32 = 0x71;
    /// `H32` values (`f64`).
    pub const H32_VALUES: u32 = 0x72;
    /// ILU(0) factor row pointers (`u64`).
    pub const ILU_INDPTR: u32 = 0x80;
    /// ILU(0) factor column indices (`u32`).
    pub const ILU_INDICES: u32 = 0x81;
    /// ILU(0) factor values (`f64`).
    pub const ILU_VALUES: u32 = 0x82;
    /// ILU(0) per-row diagonal positions (`u64`).
    pub const ILU_DIAG: u32 = 0x83;
    /// Embedded adjacency row pointers (`u64`, live-capable indexes).
    pub const GRAPH_INDPTR: u32 = 0x90;
    /// Embedded adjacency column indices (`u32`).
    pub const GRAPH_INDICES: u32 = 0x91;
    /// Embedded adjacency values (`f64`).
    pub const GRAPH_VALUES: u32 = 0x92;

    /// Human-readable name of a section id, for error messages and the
    /// `bepi stats` memory report.
    pub fn name(id: u32) -> &'static str {
        match id {
            META => "meta",
            PERM_NEW_OF_OLD => "perm.new_of_old",
            PERM_OLD_OF_NEW => "perm.old_of_new",
            BLOCK_SIZES => "block_sizes",
            L_INV_INDPTR => "l_inv.indptr",
            L_INV_INDICES => "l_inv.indices",
            L_INV_VALUES => "l_inv.values",
            U_INV_INDPTR => "u_inv.indptr",
            U_INV_INDICES => "u_inv.indices",
            U_INV_VALUES => "u_inv.values",
            S_INDPTR => "s.indptr",
            S_INDICES => "s.indices",
            S_VALUES => "s.values",
            H12_INDPTR => "h12.indptr",
            H12_INDICES => "h12.indices",
            H12_VALUES => "h12.values",
            H21_INDPTR => "h21.indptr",
            H21_INDICES => "h21.indices",
            H21_VALUES => "h21.values",
            H31_INDPTR => "h31.indptr",
            H31_INDICES => "h31.indices",
            H31_VALUES => "h31.values",
            H32_INDPTR => "h32.indptr",
            H32_INDICES => "h32.indices",
            H32_VALUES => "h32.values",
            ILU_INDPTR => "ilu.indptr",
            ILU_INDICES => "ilu.indices",
            ILU_VALUES => "ilu.values",
            ILU_DIAG => "ilu.diag_pos",
            GRAPH_INDPTR => "graph.indptr",
            GRAPH_INDICES => "graph.indices",
            GRAPH_VALUES => "graph.values",
            _ => "unknown",
        }
    }
}

/// Errors produced while opening, validating, or slicing a v6 container.
///
/// Corruption errors name the offending section (id + human name) so a
/// failed open is attributable to one region of the file, never a panic
/// or a silently wrapped offset.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The underlying IO operation failed (message-only, stays `Clone`).
    Io(String),
    /// The file is too small to hold a header and footer.
    TooSmall {
        /// Actual file length in bytes.
        len: u64,
    },
    /// The leading magic bytes are not `BEPI`.
    BadMagic,
    /// The header version field is not 6.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The trailing footer magic is missing (truncated or foreign file).
    BadFooter,
    /// The footer's table location does not tile the file exactly.
    BadTableBounds {
        /// Claimed table offset.
        table_offset: u64,
        /// Claimed section count.
        section_count: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// The section table bytes fail their CRC-32.
    TableCrc {
        /// Checksum stored in the footer.
        stored: u32,
        /// Checksum computed over the table bytes.
        computed: u32,
    },
    /// The same section id appears twice in the table.
    DuplicateSection {
        /// Offending section id.
        id: u32,
        /// Human name of the section.
        section: &'static str,
    },
    /// A section's payload lies outside `header .. table_offset`.
    SectionOutOfRange {
        /// Offending section id.
        id: u32,
        /// Human name of the section.
        section: &'static str,
        /// Claimed payload offset.
        offset: u64,
        /// Claimed payload length.
        len: u64,
        /// First out-of-bounds byte (the table offset).
        limit: u64,
    },
    /// A section's payload offset is not 64-byte aligned.
    SectionMisaligned {
        /// Offending section id.
        id: u32,
        /// Human name of the section.
        section: &'static str,
        /// Claimed payload offset.
        offset: u64,
    },
    /// Two sections' payload ranges overlap.
    SectionOverlap {
        /// First section id (lower offset).
        id_a: u32,
        /// Human name of the first section.
        section_a: &'static str,
        /// Second section id.
        id_b: u32,
        /// Human name of the second section.
        section_b: &'static str,
    },
    /// A required section is absent from the table.
    MissingSection {
        /// Requested section id.
        id: u32,
        /// Human name of the section.
        section: &'static str,
    },
    /// A section's payload bytes fail their CRC-32.
    SectionCrc {
        /// Offending section id.
        id: u32,
        /// Human name of the section.
        section: &'static str,
        /// Checksum stored in the table.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A section's byte length is not a multiple of the element size.
    BadElementSize {
        /// Offending section id.
        id: u32,
        /// Human name of the section.
        section: &'static str,
        /// Section byte length.
        len: u64,
        /// Requested element size.
        elem: usize,
    },
    /// The host cannot serve mapped sections (non-unix, big-endian, or
    /// a pointer width the `u64`-backed sections cannot alias).
    Unsupported(&'static str),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Io(msg) => write!(f, "io error: {msg}"),
            MapError::TooSmall { len } => {
                write!(f, "file too small for a v6 container ({len} bytes)")
            }
            MapError::BadMagic => write!(f, "not a BePI file (bad magic)"),
            MapError::BadVersion { found } => {
                write!(f, "not a v6 container (header version {found})")
            }
            MapError::BadFooter => write!(f, "missing v6 footer (truncated or foreign file)"),
            MapError::BadTableBounds {
                table_offset,
                section_count,
                file_len,
            } => write!(
                f,
                "section table (offset {table_offset}, {section_count} entries) does not \
                 tile the {file_len}-byte file"
            ),
            MapError::TableCrc { stored, computed } => write!(
                f,
                "section table checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            MapError::DuplicateSection { id, section } => {
                write!(f, "section {section} (id {id:#x}) appears twice")
            }
            MapError::SectionOutOfRange {
                id,
                section,
                offset,
                len,
                limit,
            } => write!(
                f,
                "section {section} (id {id:#x}) at offset {offset} + {len} bytes exceeds \
                 the payload region (limit {limit})"
            ),
            MapError::SectionMisaligned {
                id,
                section,
                offset,
            } => write!(
                f,
                "section {section} (id {id:#x}) offset {offset} is not 64-byte aligned"
            ),
            MapError::SectionOverlap {
                id_a,
                section_a,
                id_b,
                section_b,
            } => write!(
                f,
                "sections {section_a} (id {id_a:#x}) and {section_b} (id {id_b:#x}) overlap"
            ),
            MapError::MissingSection { id, section } => {
                write!(f, "required section {section} (id {id:#x}) is missing")
            }
            MapError::SectionCrc {
                id,
                section,
                stored,
                computed,
            } => write!(
                f,
                "section {section} (id {id:#x}) checksum mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
            MapError::BadElementSize {
                id,
                section,
                len,
                elem,
            } => write!(
                f,
                "section {section} (id {id:#x}) length {len} is not a multiple of the \
                 {elem}-byte element size"
            ),
            MapError::Unsupported(what) => write!(f, "mapped indexes unsupported here: {what}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<std::io::Error> for MapError {
    fn from(e: std::io::Error) -> Self {
        MapError::Io(e.to_string())
    }
}

// --- CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) ---

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental CRC-32 state (IEEE 802.3). This is the workspace's one
/// canonical implementation: the v6 section checksums use it, and the
/// `bepi-live` WAL re-exports it from `bepi_core::persist`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = CRC32_TABLE[idx] ^ (self.state >> 8);
        }
    }

    /// Final checksum value.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the CRC-32 of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finalize(), 0xCBF4_3926);
    }

    #[test]
    fn section_names_cover_known_ids() {
        assert_eq!(sections::name(sections::META), "meta");
        assert_eq!(sections::name(sections::ILU_DIAG), "ilu.diag_pos");
        assert_eq!(sections::name(0xdead), "unknown");
    }

    #[test]
    fn errors_display_section_names() {
        let e = MapError::SectionOutOfRange {
            id: sections::S_VALUES,
            section: sections::name(sections::S_VALUES),
            offset: 128,
            len: 1 << 40,
            limit: 4096,
        };
        let s = e.to_string();
        assert!(s.contains("s.values"), "{s}");
        let e = MapError::SectionOverlap {
            id_a: sections::META,
            section_a: sections::name(sections::META),
            id_b: sections::BLOCK_SIZES,
            section_b: sections::name(sections::BLOCK_SIZES),
        };
        assert!(e.to_string().contains("block_sizes"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MapError>();
    }
}
