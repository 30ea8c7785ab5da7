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
///
/// Every stored matrix owns one block of sixteen ids, and the low
/// nibble says what a section holds, the same for every matrix:
///
/// | offset | section        | element | when                          |
/// |--------|----------------|---------|-------------------------------|
/// | `+0`   | `indptr`       | `u64`   | wide pattern                  |
/// | `+1`   | `indices`      | `u32`   | wide pattern                  |
/// | `+2`   | `values`       | `f64`   | plain values                  |
/// | `+4`   | `value_codes`  | `u16`   | value-coded                   |
/// | `+5`   | `indptr32`     | `u32`   | narrow pattern (≤ 2¹⁶ columns) |
/// | `+6`   | `indices16`    | `u16`   | narrow pattern                |
/// | `+9`   | `column_codes` | `u16`   | value-coded, one per column   |
/// | `+10`  | `row_ids`      | `u32`   | only the non-empty rows stored |
///
/// A matrix carries one pattern pair and one value encoding: `values`,
/// `value_codes` (one per non-zero) or `column_codes` (one per column,
/// every non-zero of a column carrying its column's value). The codes of
/// every value-coded matrix index the one table of the index,
/// `S_VALUE_TABLE` (`+3` of `S`'s block). A matrix with `row_ids`
/// stores only the rows they name, ascending; its row pointers span
/// those rows alone, and every other row is empty.
///
/// `H11`'s block structure is `H11_LARGER_BLOCKS`: a `(start, size)`
/// pair of `u32`s per diagonal block larger than 1 × 1; every other row
/// of `H11` is a 1 × 1 block. `L1⁻¹` and `U1⁻¹` store only the rows of
/// the larger blocks. `U1⁻¹`'s block also holds the one value of each
/// 1 × 1 block, coded (`+7`, `u16`) or plain (`+8`, `f64`).
///
/// Files in the v6 layouts written before `H11_LARGER_BLOCKS` (ids
/// 0x03, 0x04 and 0x80–0x82 are retired with them) are not read: the
/// loader rejects them with an error that says to rebuild the index.
pub mod sections {
    /// Config scalars, partition sizes, and phase timings (opaque blob).
    pub const META: u32 = 0x01;
    /// Permutation forward map `new_of_old` (`u32`).
    pub const PERM_NEW_OF_OLD: u32 = 0x02;
    /// `(start, size)` of each `H11` diagonal block larger than 1 × 1, as
    /// two `u32`s per block in block order. Every index carries it, empty
    /// when `H11` has no larger block.
    pub const H11_LARGER_BLOCKS: u32 = 0x05;
    /// First id of `L1^{-1}`'s block.
    pub const L_INV: u32 = 0x10;
    /// First id of `U1^{-1}`'s block.
    pub const U_INV: u32 = 0x20;
    /// First id of the Schur complement `S`'s block.
    pub const S: u32 = 0x30;
    /// First id of `H12`'s block.
    pub const H12: u32 = 0x40;
    /// First id of `H21`'s block.
    pub const H21: u32 = 0x50;
    /// First id of `H31`'s block.
    pub const H31: u32 = 0x60;
    /// First id of `H32`'s block.
    pub const H32: u32 = 0x70;
    /// Offset of a matrix's wide row pointers (`u64`).
    pub const INDPTR: u32 = 0x0;
    /// Offset of a matrix's wide column indices (`u32`).
    pub const INDICES: u32 = 0x1;
    /// Offset of a matrix's plain values (`f64`, one per non-zero).
    pub const VALUES: u32 = 0x2;
    /// Offset of a matrix's value codes (`u16`, one index into
    /// [`S_VALUE_TABLE`] per non-zero).
    pub const VALUE_CODES: u32 = 0x4;
    /// Offset of a matrix's narrow row pointers (`u32`).
    pub const INDPTR32: u32 = 0x5;
    /// Offset of a matrix's narrow column indices (`u16`).
    pub const INDICES16: u32 = 0x6;
    /// Offset of a matrix's value codes stored one per column (`u16`, an
    /// index into [`S_VALUE_TABLE`] per column).
    pub const COLUMN_CODES: u32 = 0x9;
    /// Offset of the ids of a matrix's stored rows (`u32`, ascending),
    /// for a matrix that stores only its non-empty rows.
    pub const ROW_IDS: u32 = 0xA;
    /// `U1⁻¹`'s value of each 1 × 1 `H11` block as one index into
    /// [`S_VALUE_TABLE`] (`u16`), in block order.
    pub const U_INV_SINGLETON_CODES: u32 = U_INV + 0x7;
    /// `U1⁻¹`'s value of each 1 × 1 `H11` block (`f64`), in block order,
    /// for values that do not fit the value table. A file carries this or
    /// [`U_INV_SINGLETON_CODES`], never both.
    pub const U_INV_SINGLETON_VALUES: u32 = U_INV + 0x8;
    /// Schur complement `S` row pointers (`u64`), for an `S` with more
    /// than 2¹⁶ columns. An index carries either this pair or the narrow
    /// pair [`S_INDPTR32`] + [`S_INDICES16`], never both.
    pub const S_INDPTR: u32 = S + INDPTR;
    /// Schur complement `S` column indices (`u32`).
    pub const S_INDICES: u32 = S + INDICES;
    /// Schur complement `S` values (`f64`, one per non-zero), for an `S`
    /// whose values do not fit the value table. An index carries either
    /// this or [`S_VALUE_CODES`], never both.
    pub const S_VALUES: u32 = S + VALUES;
    /// The index's value table: the distinct values of every value-coded
    /// matrix (`f64`, at most 2¹⁶ entries), `S`'s first in
    /// first-occurrence order, then each later matrix's new ones.
    pub const S_VALUE_TABLE: u32 = S + 0x3;
    /// `S`'s values as one index into [`S_VALUE_TABLE`] per non-zero
    /// (`u16`).
    pub const S_VALUE_CODES: u32 = S + VALUE_CODES;
    /// `S`'s row pointers in the narrow pattern (`u32`), for an `S` with
    /// at most 2¹⁶ columns and `u32::MAX` non-zeros.
    pub const S_INDPTR32: u32 = S + INDPTR32;
    /// `S`'s column indices in the narrow pattern (`u16`).
    pub const S_INDICES16: u32 = S + INDICES16;
    /// ILU(0) per-row diagonal positions (`u64`).
    pub const ILU_DIAG: u32 = 0x83;
    /// ILU(0) factor values in `S`'s pattern (`f32`, the diagonal slots
    /// holding `1 / u_ii`). Every full-variant index carries it.
    pub const ILU_VALUES_F32: u32 = 0x84;
    /// Embedded adjacency row pointers (`u64`, live-capable indexes).
    pub const GRAPH_INDPTR: u32 = 0x90;
    /// Embedded adjacency column indices (`u32`).
    pub const GRAPH_INDICES: u32 = 0x91;
    /// Embedded adjacency values (`f64`).
    pub const GRAPH_VALUES: u32 = 0x92;

    /// Human-readable name of a section id, for error messages and the
    /// `bepi stats` memory report: `<matrix>.<section>` inside a stored
    /// matrix's block (see the module doc).
    pub fn name(id: u32) -> &'static str {
        match id {
            META => "meta",
            PERM_NEW_OF_OLD => "perm.new_of_old",
            H11_LARGER_BLOCKS => "h11.larger_blocks",
            S_VALUE_TABLE => "s.value_table",
            U_INV_SINGLETON_CODES => "u_inv.singleton_codes",
            U_INV_SINGLETON_VALUES => "u_inv.singleton_values",
            ILU_DIAG => "ilu.diag_pos",
            ILU_VALUES_F32 => "ilu.values_f32",
            GRAPH_INDPTR => "graph.indptr",
            GRAPH_INDICES => "graph.indices",
            GRAPH_VALUES => "graph.values",
            _ => matrix_section_name(id).unwrap_or("unknown"),
        }
    }

    /// [`name`] for an id inside one of the stored matrices' blocks.
    fn matrix_section_name(id: u32) -> Option<&'static str> {
        const NAMES: [[&str; 11]; 7] = [
            [
                "l_inv.indptr",
                "l_inv.indices",
                "l_inv.values",
                "",
                "l_inv.value_codes",
                "l_inv.indptr32",
                "l_inv.indices16",
                "",
                "",
                "l_inv.column_codes",
                "l_inv.row_ids",
            ],
            [
                "u_inv.indptr",
                "u_inv.indices",
                "u_inv.values",
                "",
                "u_inv.value_codes",
                "u_inv.indptr32",
                "u_inv.indices16",
                "",
                "",
                "u_inv.column_codes",
                "u_inv.row_ids",
            ],
            [
                "s.indptr",
                "s.indices",
                "s.values",
                "",
                "s.value_codes",
                "s.indptr32",
                "s.indices16",
                "",
                "",
                "s.column_codes",
                "s.row_ids",
            ],
            [
                "h12.indptr",
                "h12.indices",
                "h12.values",
                "",
                "h12.value_codes",
                "h12.indptr32",
                "h12.indices16",
                "",
                "",
                "h12.column_codes",
                "h12.row_ids",
            ],
            [
                "h21.indptr",
                "h21.indices",
                "h21.values",
                "",
                "h21.value_codes",
                "h21.indptr32",
                "h21.indices16",
                "",
                "",
                "h21.column_codes",
                "h21.row_ids",
            ],
            [
                "h31.indptr",
                "h31.indices",
                "h31.values",
                "",
                "h31.value_codes",
                "h31.indptr32",
                "h31.indices16",
                "",
                "",
                "h31.column_codes",
                "h31.row_ids",
            ],
            [
                "h32.indptr",
                "h32.indices",
                "h32.values",
                "",
                "h32.value_codes",
                "h32.indptr32",
                "h32.indices16",
                "",
                "",
                "h32.column_codes",
                "h32.row_ids",
            ],
        ];
        let block = (id >> 4).checked_sub(1)? as usize;
        let name = *NAMES.get(block)?.get((id & 0xf) as usize)?;
        (!name.is_empty()).then_some(name)
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

    /// Every section of a stored matrix's block is named
    /// `<matrix>.<section>`; offsets no matrix uses, and ids past the
    /// blocks, are unknown.
    #[test]
    fn compact_section_names_follow_the_block_layout() {
        use sections::*;
        let cases = [
            (L_INV + INDPTR, "l_inv.indptr"),
            (L_INV + VALUE_CODES, "l_inv.value_codes"),
            (U_INV + INDPTR32, "u_inv.indptr32"),
            (S_INDICES16, "s.indices16"),
            (S_VALUE_TABLE, "s.value_table"),
            (H12 + INDICES16, "h12.indices16"),
            (H21 + VALUES, "h21.values"),
            (H32 + VALUE_CODES, "h32.value_codes"),
            (H12 + COLUMN_CODES, "h12.column_codes"),
            (H31 + ROW_IDS, "h31.row_ids"),
            (H11_LARGER_BLOCKS, "h11.larger_blocks"),
            (H31 + 0x3, "unknown"),
            (H31 + 0xb, "unknown"),
            (L_INV + 0x7, "unknown"),
            (U_INV + 0x7, "u_inv.singleton_codes"),
            (U_INV_SINGLETON_VALUES, "u_inv.singleton_values"),
            (S + 0x8, "unknown"),
            (0x0f, "unknown"),
            (ILU_DIAG, "ilu.diag_pos"),
            (0xff, "unknown"),
        ];
        for (id, want) in cases {
            assert_eq!(name(id), want, "{id:#x}");
        }
    }

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
        assert_eq!(sections::name(sections::ILU_VALUES_F32), "ilu.values_f32");
        assert_eq!(sections::name(sections::S_INDPTR32), "s.indptr32");
        assert_eq!(sections::name(sections::S_INDICES16), "s.indices16");
        // The ids of the retired f64 ILU factor sections name nothing.
        assert_eq!(sections::name(0x80), "unknown");
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
            id_b: sections::ILU_DIAG,
            section_b: sections::name(sections::ILU_DIAG),
        };
        assert!(e.to_string().contains("ilu.diag_pos"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MapError>();
    }
}
