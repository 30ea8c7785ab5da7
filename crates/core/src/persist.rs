//! Saving and loading preprocessed BePI instances.
//!
//! The economics of a preprocessing method (Section 2.3: "preprocessed
//! matrices need to be computed just once, and then can be reused") only
//! materialize if the preprocessed data survives the process. This module
//! persists a [`BePi`] instance in the one index format, v6: the
//! *memory-mappable* section container from `bepi-map` — a section table
//! with per-section CRC-32s and 64-byte-aligned little-endian payloads.
//!
//! * [`save_file_v6`] writes an index atomically and durably (temp
//!   sibling, `fsync`, rename, `fsync` of the directory), so a crash
//!   leaves either the previous file or the complete new one.
//! * [`load_mapped_file`] maps the index and serves queries zero-copy
//!   straight out of the kernel page cache — open time is independent of
//!   index size; [`verify_mapped_file`] runs the payload CRC pass that
//!   the open skips.
//! * [`load`] / [`load_with_graph`] (and their `_file` forms) decode the
//!   same file onto the heap with every section checksum verified.
//!
//! Both load paths share one decoder, which reads the one layout
//! [`save_v6`] writes, and produce bit-identical query results. Files
//! written in the earlier streamed formats (v1–v5) are rejected with an
//! error naming their version, and v6 files in the layouts written before
//! the `h11.larger_blocks` section with an error naming that section:
//! rebuild either from the edge list with `bepi preprocess`.

use crate::bepi::{BePi, BePiConfig, RawParts};
use crate::rwr::RwrSolver;
use bepi_graph::Graph;
use bepi_map::{sections as sec, ContainerWriter, MapError, MappedIndex, SectionEntry};
use bepi_solver::block_lu::check_factor_rows;
use bepi_solver::{FrozenBlockLu, Ilu0};
use bepi_sparse::{
    CodedCsr, CodedValues, Csr, MatrixValues, Pattern, Permutation, Result, SparseError, Storage,
};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// The index format version every save writes and every load accepts.
pub const VERSION_MAPPED: u32 = bepi_map::VERSION;

/// Incremental CRC-32 state (IEEE 802.3). Re-exported from `bepi-map`,
/// which owns the canonical implementation; sibling crates (the
/// `bepi-live` write-ahead log) keep framing their files with the same
/// checksum convention through this path.
pub use bepi_map::Crc32;

/// Computes the CRC-32 of a byte slice in one call.
#[cfg(test)]
pub(crate) use bepi_map::crc32;

/// Converts a `bepi-map` container error into this crate's error type,
/// preserving the section-naming message. A file of any other format
/// version gets the one error every entry point reports for it.
fn from_map_err(e: MapError) -> SparseError {
    match e {
        MapError::Io(msg) => SparseError::Io(msg),
        MapError::BadVersion { found } => SparseError::Parse(format!(
            "index format v{found} is not supported (v6 is the only index format): \
             re-run `bepi preprocess` on the edge list to rebuild it"
        )),
        other => SparseError::Parse(format!("v6 index: {other}")),
    }
}

/// Writes `s` as section `id`, each element as the little-endian bytes
/// `le` gives for it.
fn write_section<W: Write, T: Copy, const N: usize>(
    cw: &mut ContainerWriter<W>,
    id: u32,
    s: &[T],
    le: impl Fn(T) -> [u8; N],
) -> Result<()> {
    cw.begin_section(id)?;
    for &v in s {
        cw.write_all(&le(v))?;
    }
    Ok(())
}

/// A `usize` as the eight little-endian bytes of a `u64`: how every index
/// file stores one.
fn u64_le(v: usize) -> [u8; 8] {
    (v as u64).to_le_bytes()
}

/// Writes the embedded graph's three arrays as three sections.
fn write_graph_sections<W: Write>(cw: &mut ContainerWriter<W>, g: &Graph) -> Result<()> {
    let adj = g.adjacency();
    write_section(cw, sec::GRAPH_INDPTR, adj.indptr(), u64_le)?;
    write_section(cw, sec::GRAPH_INDICES, adj.indices(), u32::to_le_bytes)?;
    write_section(cw, sec::GRAPH_VALUES, adj.values(), f64::to_le_bytes)
}

/// The blocks of section ids of the stored matrices (see
/// [`bepi_map::sections`]), in file order — the order of
/// [`BePi::stored_matrices`] — with the names load errors give them.
const MATRICES: [(u32, &str); 7] = [
    (sec::L_INV, "L1^-1"),
    (sec::U_INV, "U1^-1"),
    (sec::S, "S"),
    (sec::H12, "H12"),
    (sec::H21, "H21"),
    (sec::H31, "H31"),
    (sec::H32, "H32"),
];

/// Writes one stored matrix into its block of ids as it is held: its
/// pattern wide (`indptr`, `indices`) or narrow (`indptr32`,
/// `indices16`), the ids of its stored rows (`row_ids`) when it stores
/// only its non-empty ones, then its plain `values`, its `value_codes`
/// (one per non-zero) or its `column_codes` (one per column). `S`'s
/// block also carries the index's value table (`table`), just before
/// `S`'s codes. Dimensions are not stored: every matrix's shape is
/// derivable from the META partition sizes `(n1, n2, n3)`.
fn write_matrix<W: Write>(
    cw: &mut ContainerWriter<W>,
    base: u32,
    m: &CodedCsr,
    table: Option<&[f64]>,
) -> Result<()> {
    match m.pattern() {
        Pattern::Wide { indptr, indices } => {
            write_section(cw, base + sec::INDPTR, indptr, u64_le)?;
            write_section(cw, base + sec::INDICES, indices, u32::to_le_bytes)?;
        }
        Pattern::Narrow { indptr, indices } => {
            write_section(cw, base + sec::INDPTR32, indptr, u32::to_le_bytes)?;
            write_section(cw, base + sec::INDICES16, indices, u16::to_le_bytes)?;
        }
    }
    if let Some(rows) = m.stored_rows() {
        write_section(cw, base + sec::ROW_IDS, rows, u32::to_le_bytes)?;
    }
    if let MatrixValues::Entries(CodedValues::Plain(values)) = m.values() {
        write_section(cw, base + sec::VALUES, values, f64::to_le_bytes)?;
    }
    if let Some(table) = table {
        write_section(cw, sec::S_VALUE_TABLE, table, f64::to_le_bytes)?;
    }
    match m.values() {
        MatrixValues::Entries(CodedValues::Plain(_)) => Ok(()),
        MatrixValues::Entries(CodedValues::Coded { codes, .. }) => {
            write_section(cw, base + sec::VALUE_CODES, codes, u16::to_le_bytes)
        }
        MatrixValues::Columns { codes, .. } => {
            write_section(cw, base + sec::COLUMN_CODES, codes, u16::to_le_bytes)
        }
    }
}

/// Writes `U1⁻¹`'s value of each 1 × 1 `H11` block as held: codes into
/// the index's value table, or plain values.
fn write_singletons<W: Write>(cw: &mut ContainerWriter<W>, values: &CodedValues) -> Result<()> {
    match values {
        CodedValues::Plain(v) => {
            write_section(cw, sec::U_INV_SINGLETON_VALUES, v, f64::to_le_bytes)
        }
        CodedValues::Coded { codes, .. } => {
            write_section(cw, sec::U_INV_SINGLETON_CODES, codes, u16::to_le_bytes)
        }
    }
}

/// Writes an index (format v6): the `bepi-map` section container with
/// 64-byte-aligned little-endian payloads and per-section CRC-32s. The
/// file:
///
/// * can be served zero-copy via [`load_mapped_file`] (open time does
///   not depend on index size, pages are shared across processes);
/// * stores the node permutation one way, `new_of_old`: a query scatters
///   through it to permute and gathers through it to unpermute;
/// * stores every matrix — `L1⁻¹`, `U1⁻¹`, `S`, `H12`, `H21`, `H31`,
///   `H32` — the way it is held: value-coded (a `u16` code into the
///   index's one value table per non-zero, or per column where every
///   non-zero of a column carries one value, as in the `H` blocks) or
///   plain; on a narrow pattern (`u32` row pointers, `u16` column
///   indices) or a wide one; and over every row, or — where fewer than
///   half the rows are non-empty, as in `H31` and `H32` — over the
///   non-empty rows alone, with their `u32` ids;
/// * stores `L1⁻¹` and `U1⁻¹` only for the `H11` blocks larger than
///   1 × 1, one `U1⁻¹` value per 1 × 1 block (its `L1⁻¹` entry is 1.0),
///   coded like the matrices, and the `H11` block structure as the
///   `(start, size)` of each larger block (`u32` pairs);
/// * persists the ILU(0) factor values (f32, in `S`'s pattern, which is
///   stored once), so loads never re-run the factorization;
/// * embeds the adjacency graph only when `graph` is `Some` (the
///   live-update daemon needs it; query-only serving does not).
///
/// Streams through any `W: Write` in one pass (the section table lands
/// at the end of the file, so no `Seek` is needed).
pub fn save_v6<W: Write>(bepi: &BePi, graph: Option<&Graph>, writer: W) -> Result<()> {
    if let Some(g) = graph {
        if g.n() != bepi.node_count() {
            return Err(SparseError::ShapeMismatch {
                left: (g.n(), g.n()),
                right: (bepi.node_count(), bepi.node_count()),
                op: "persist::save_v6 (graph vs index node count)",
            });
        }
    }
    let mut cw = ContainerWriter::new(BufWriter::new(writer))?;
    let stats = bepi.stats();

    // META: config + partition sizes + SlashBurn's iteration count as
    // little-endian scalars. Small, so the mapped loader verifies its CRC
    // eagerly. No wall time is stored, so two preprocesses of one graph
    // write identical files.
    cw.begin_section(sec::META)?;
    write_config(&mut cw, bepi.config())?;
    write_u64(&mut cw, stats.n1 as u64)?;
    write_u64(&mut cw, stats.n2 as u64)?;
    write_u64(&mut cw, stats.n3 as u64)?;
    write_u64(&mut cw, stats.slashburn_iterations as u64)?;

    // One direction: the query permutes by scattering through the forward
    // map and unpermutes by gathering through it.
    write_section(
        &mut cw,
        sec::PERM_NEW_OF_OLD,
        bepi.permutation().new_of_old(),
        u32::to_le_bytes,
    )?;

    let h11 = bepi.h11_factors();
    write_section(
        &mut cw,
        sec::H11_LARGER_BLOCKS,
        h11.larger_blocks(),
        u32::to_le_bytes,
    )?;
    let table = bepi.value_table().map(Storage::as_slice);
    for ((base, _), (_, m)) in MATRICES.iter().zip(bepi.stored_matrices()) {
        write_matrix(&mut cw, *base, m, table.filter(|_| *base == sec::S))?;
        if *base == sec::U_INV {
            write_singletons(&mut cw, h11.singletons())?;
        }
    }

    // ILU factors, when the instance built them: their values (f32, in
    // `S`'s pattern: 4 bytes per non-zero of `S`) and diagonal positions
    // (8 bytes per row). Persisting them is what makes open time
    // independent of index size — a load never re-runs the elimination.
    if let Some(ilu) = bepi.preconditioner() {
        write_section(&mut cw, sec::ILU_VALUES_F32, ilu.values(), f32::to_le_bytes)?;
        write_section(&mut cw, sec::ILU_DIAG, ilu.diag_pos(), u64_le)?;
    }

    if let Some(g) = graph {
        write_graph_sections(&mut cw, g)?;
    }
    cw.finish()?;
    Ok(())
}

/// Saves an index to `path` atomically and durably — the one way an
/// index file is written. The bytes go to a temp sibling
/// (`<name>.tmp.<pid>`), which is `fsync`ed and renamed over `path`; an
/// `fsync` of the parent directory then makes the rename itself durable.
/// A crash at any instant leaves either the previous file or the
/// complete new one at `path`, never a torn index. On error the temp
/// file is removed and `path` is left as it was.
pub fn save_file_v6<P: AsRef<Path>>(bepi: &BePi, graph: Option<&Graph>, path: P) -> Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| SparseError::Io(format!("{} names no file", path.display())))?
        .to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    if let Err(e) = write_synced_then_rename(bepi, graph, &tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn write_synced_then_rename(
    bepi: &BePi,
    graph: Option<&Graph>,
    tmp: &Path,
    path: &Path,
) -> Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    save_v6(bepi, graph, &mut file)?;
    file.sync_all()?;
    std::fs::rename(tmp, path)?;
    Ok(())
}

/// Where a v6 section's payload comes from: heap copies decoded from an
/// in-memory buffer, or zero-copy [`Storage::Mapped`] views of a live
/// mapping. One decoder ([`decode_v6`]) serves both, which is how the
/// two paths stay bit-identical by construction.
trait SectionSource {
    /// True when every payload byte was read and CRC-checked before
    /// decoding, so content checks that read every element cost no extra
    /// pass over the file.
    const READS_PAYLOADS: bool;
    fn has(&self, id: u32) -> bool;
    /// Raw payload bytes, copied (used only for the small META section).
    fn meta_bytes(&self, id: u32) -> Result<Vec<u8>>;
    fn u16s(&self, id: u32) -> Result<Storage<u16>>;
    fn u32s(&self, id: u32) -> Result<Storage<u32>>;
    fn usizes(&self, id: u32) -> Result<Storage<usize>>;
    fn f32s(&self, id: u32) -> Result<Storage<f32>>;
    fn f64s(&self, id: u32) -> Result<Storage<f64>>;
}

/// Heap-decoding source over a fully read file image. Payload CRCs are
/// verified for every section up front (callers already own the bytes,
/// so the scan is cheap relative to the read), then each array is
/// decoded element-wise — which also makes this path portable to
/// non-little-endian or 32-bit hosts.
struct HeapSource<'a> {
    buf: &'a [u8],
    table: Vec<SectionEntry>,
}

impl<'a> HeapSource<'a> {
    fn new(buf: &'a [u8]) -> Result<Self> {
        let table = bepi_map::parse_layout(buf).map_err(from_map_err)?;
        for e in &table {
            let payload = &buf[e.offset as usize..(e.offset + e.len) as usize];
            let computed = bepi_map::crc32(payload);
            if computed != e.crc {
                return Err(from_map_err(MapError::SectionCrc {
                    id: e.id,
                    section: sec::name(e.id),
                    stored: e.crc,
                    computed,
                }));
            }
        }
        Ok(Self { buf, table })
    }

    fn payload(&self, id: u32) -> Result<&'a [u8]> {
        let e = self.table.iter().find(|e| e.id == id).ok_or_else(|| {
            from_map_err(MapError::MissingSection {
                id,
                section: sec::name(id),
            })
        })?;
        Ok(&self.buf[e.offset as usize..(e.offset + e.len) as usize])
    }

    fn elems<T>(&self, id: u32, elem: usize, f: impl Fn(&[u8]) -> T) -> Result<Vec<T>> {
        let p = self.payload(id)?;
        if p.len() % elem != 0 {
            return Err(from_map_err(MapError::BadElementSize {
                id,
                section: sec::name(id),
                len: p.len() as u64,
                elem,
            }));
        }
        Ok(p.chunks_exact(elem).map(f).collect())
    }
}

impl SectionSource for HeapSource<'_> {
    const READS_PAYLOADS: bool = true;

    fn has(&self, id: u32) -> bool {
        self.table.iter().any(|e| e.id == id)
    }

    fn meta_bytes(&self, id: u32) -> Result<Vec<u8>> {
        Ok(self.payload(id)?.to_vec())
    }

    fn u16s(&self, id: u32) -> Result<Storage<u16>> {
        Ok(self
            .elems(id, 2, |b| u16::from_le_bytes(b.try_into().unwrap()))?
            .into())
    }

    fn u32s(&self, id: u32) -> Result<Storage<u32>> {
        Ok(self
            .elems(id, 4, |b| u32::from_le_bytes(b.try_into().unwrap()))?
            .into())
    }

    fn usizes(&self, id: u32) -> Result<Storage<usize>> {
        let vals = self.elems(id, 8, |b| u64::from_le_bytes(b.try_into().unwrap()))?;
        let mut out = Vec::with_capacity(vals.len());
        for v in vals {
            out.push(usize::try_from(v).map_err(|_| {
                SparseError::Parse(format!(
                    "v6 index: section {} holds value {v} exceeding this host's usize",
                    sec::name(id)
                ))
            })?);
        }
        Ok(out.into())
    }

    fn f32s(&self, id: u32) -> Result<Storage<f32>> {
        Ok(self
            .elems(id, 4, |b| f32::from_le_bytes(b.try_into().unwrap()))?
            .into())
    }

    fn f64s(&self, id: u32) -> Result<Storage<f64>> {
        Ok(self
            .elems(id, 8, |b| f64::from_le_bytes(b.try_into().unwrap()))?
            .into())
    }
}

/// Zero-copy source over a live [`MappedIndex`]: typed sections borrow
/// the mapping directly. Payload CRCs are *not* verified here (only the
/// eagerly checked section table and META) — that is the contract that
/// keeps open time independent of index size; corruption is still
/// detectable on demand via [`MappedIndex::verify_all`].
struct MappedSource<'a> {
    idx: &'a MappedIndex,
}

impl SectionSource for MappedSource<'_> {
    const READS_PAYLOADS: bool = false;

    fn has(&self, id: u32) -> bool {
        self.idx.has(id)
    }

    fn meta_bytes(&self, id: u32) -> Result<Vec<u8>> {
        Ok(self.idx.bytes(id).map_err(from_map_err)?.to_vec())
    }

    fn u16s(&self, id: u32) -> Result<Storage<u16>> {
        Ok(self.idx.section::<u16>(id).map_err(from_map_err)?.into())
    }

    fn u32s(&self, id: u32) -> Result<Storage<u32>> {
        Ok(self.idx.section::<u32>(id).map_err(from_map_err)?.into())
    }

    #[cfg(target_pointer_width = "64")]
    fn usizes(&self, id: u32) -> Result<Storage<usize>> {
        Ok(self.idx.section::<usize>(id).map_err(from_map_err)?.into())
    }

    #[cfg(not(target_pointer_width = "64"))]
    fn usizes(&self, id: u32) -> Result<Storage<usize>> {
        // 32-bit hosts cannot view the on-disk u64 arrays in place.
        Err(from_map_err(MapError::Unsupported(
            "mapped indexes require a 64-bit host (use the heap loader)",
        )))
    }

    fn f32s(&self, id: u32) -> Result<Storage<f32>> {
        Ok(self.idx.section::<f32>(id).map_err(from_map_err)?.into())
    }

    fn f64s(&self, id: u32) -> Result<Storage<f64>> {
        Ok(self.idx.section::<f64>(id).map_err(from_map_err)?.into())
    }
}

/// Checks a decoded pattern whose row pointers and column indices came
/// from sections `ids`: the row pointers start at 0, never decrease and
/// end at nnz, and every column is below `ncols`. `O(nnz)`, so only a
/// source that has read every payload byte runs it: a file with valid
/// CRCs but a crafted pattern then fails to load instead of panicking
/// the first query.
///
/// # Errors
/// [`SparseError::Parse`] naming the section and the bad entry.
fn check_pattern(pattern: &Pattern, ncols: usize, ids: (u32, u32)) -> Result<()> {
    let in_section = |id| move |e| parse_err_in(&format!("section {}", sec::name(id)), e);
    pattern.check_indptr().map_err(in_section(ids.0))?;
    pattern.check_indices(ncols).map_err(in_section(ids.1))
}

/// `e` as a parse error naming where it arose (`what`).
fn parse_err_in(what: &str, e: SparseError) -> SparseError {
    SparseError::Parse(match e {
        SparseError::Parse(msg) => format!("v6 index: {what}: {msg}"),
        other => format!("v6 index: {what}: {other}"),
    })
}

/// Decodes one stored matrix (`nrows × ncols`) from its block of ids
/// (`base`, see [`MATRICES`]), in the form [`write_matrix`] wrote:
/// exactly one pattern encoding — the wide pair `indptr` + `indices`
/// (a matrix with more than 2¹⁶ columns) or the narrow pair `indptr32` +
/// `indices16` — the ids of the stored rows when the block has `row_ids`
/// (else every row is stored), and exactly one value encoding: plain
/// `values` (values that overflow the table), `value_codes` or
/// `column_codes` into the index's value `table`. Both backings get
/// `O(1)` shape checks — one row pointer per stored row and one more, one
/// column code per column, and those of
/// [`CodedCsr::from_parts_storage_trusted`]; a source that has read every
/// payload byte also checks the row ids, the pattern
/// ([`check_pattern`]) and each code against the table.
fn decode_matrix<S: SectionSource>(
    src: &S,
    (base, label): (u32, &str),
    nrows: usize,
    ncols: usize,
    table: Option<&Storage<f64>>,
) -> Result<CodedCsr> {
    let id = |offset| base + offset;
    let name = |offset| sec::name(base + offset);
    let narrow = src.has(id(sec::INDPTR32)) || src.has(id(sec::INDICES16));
    let (pattern, ids) = if narrow {
        if src.has(id(sec::INDPTR)) || src.has(id(sec::INDICES)) {
            return Err(SparseError::Parse(format!(
                "v6 index: {label} carries both a wide pattern ({}) and a narrow one ({})",
                name(sec::INDPTR),
                name(sec::INDPTR32)
            )));
        }
        let pattern = Pattern::Narrow {
            indptr: src.u32s(id(sec::INDPTR32))?,
            indices: src.u16s(id(sec::INDICES16))?,
        };
        (pattern, (id(sec::INDPTR32), id(sec::INDICES16)))
    } else {
        let pattern = Pattern::Wide {
            indptr: src.usizes(id(sec::INDPTR))?,
            indices: src.u32s(id(sec::INDICES))?,
        };
        (pattern, (id(sec::INDPTR), id(sec::INDICES)))
    };
    let in_section = |offset| move |e| parse_err_in(&format!("section {}", name(offset)), e);
    let rows = match src.has(id(sec::ROW_IDS)) {
        true => Some(src.u32s(id(sec::ROW_IDS))?),
        false => None,
    };
    if let Some(rows) = &rows {
        if rows.len() > nrows || pattern.indptr_len() != rows.len() + 1 {
            return Err(in_section(sec::ROW_IDS)(SparseError::Parse(format!(
                "{} row ids for {} row pointers and {nrows} rows: one row pointer more than \
                 row ids, and at most one id per row, expected",
                rows.len(),
                pattern.indptr_len()
            ))));
        }
    }
    if S::READS_PAYLOADS {
        check_pattern(&pattern, ncols, ids)?;
    }
    let columns_id = id(sec::COLUMN_CODES);
    let values = if src.has(columns_id) {
        if src.has(id(sec::VALUES)) || src.has(id(sec::VALUE_CODES)) {
            return Err(SparseError::Parse(format!(
                "v6 index: {label} carries both column codes ({}) and values per non-zero ({} or \
                 {})",
                name(sec::COLUMN_CODES),
                name(sec::VALUES),
                name(sec::VALUE_CODES)
            )));
        }
        let table = value_table_for(table, label, columns_id)?.clone();
        let codes = src.u16s(columns_id)?;
        if codes.len() != ncols {
            return Err(in_section(sec::COLUMN_CODES)(SparseError::Parse(format!(
                "{} column codes for {ncols} columns",
                codes.len()
            ))));
        }
        let values = MatrixValues::Columns { table, codes };
        if S::READS_PAYLOADS {
            values
                .check_codes()
                .map_err(in_section(sec::COLUMN_CODES))?;
        }
        values
    } else {
        let ids = (id(sec::VALUES), id(sec::VALUE_CODES));
        MatrixValues::Entries(decode_values(src, ids, label, table)?.ok_or_else(|| {
            SparseError::Parse(format!(
                "v6 index: {label} has neither plain values ({}) nor value codes ({} or {})",
                name(sec::VALUES),
                name(sec::VALUE_CODES),
                name(sec::COLUMN_CODES)
            ))
        })?)
    };
    let m = CodedCsr::from_parts_storage_trusted(nrows, ncols, rows, pattern, values)
        .map_err(|e| parse_err_in(label, e))?;
    if S::READS_PAYLOADS {
        m.check_rows().map_err(in_section(sec::ROW_IDS))?;
    }
    Ok(m)
}

/// Decodes one value array stored plain (section `ids.0`, `f64`) or as
/// codes into the index's value `table` (section `ids.1`, `u16`), or
/// `None` when the file holds neither. A source that has read every
/// payload byte checks each code against the table.
fn decode_values<S: SectionSource>(
    src: &S,
    (values_id, codes_id): (u32, u32),
    label: &str,
    table: Option<&Storage<f64>>,
) -> Result<Option<CodedValues>> {
    let values = match (src.has(codes_id), src.has(values_id)) {
        (true, true) => {
            return Err(SparseError::Parse(format!(
                "v6 index: {label} carries both plain values ({}) and value codes ({})",
                sec::name(values_id),
                sec::name(codes_id)
            )))
        }
        (false, false) => return Ok(None),
        (false, true) => CodedValues::Plain(src.f64s(values_id)?),
        (true, false) => {
            let values = CodedValues::Coded {
                table: value_table_for(table, label, codes_id)?.clone(),
                codes: src.u16s(codes_id)?,
            };
            if S::READS_PAYLOADS {
                values.check_codes().map_err(|e| parse_err_in(label, e))?;
            }
            values
        }
    };
    Ok(Some(values))
}

/// The index's value table, which the codes in section `codes_id` of
/// `label` index; an error when the index has none.
fn value_table_for<'t>(
    table: Option<&'t Storage<f64>>,
    label: &str,
    codes_id: u32,
) -> Result<&'t Storage<f64>> {
    table.ok_or_else(|| {
        SparseError::Parse(format!(
            "v6 index: {label} has value codes ({}) but the index has no value table ({})",
            sec::name(codes_id),
            sec::name(sec::S_VALUE_TABLE)
        ))
    })
}

/// Checks, in `O(n)`, that the permutation map `fwd` (`new_of_old`) is
/// a bijection on `0..n`, `n = fwd.len()`: a crafted map would otherwise
/// panic the first query's scatter or answer wrongly.
///
/// # Errors
/// [`SparseError::Parse`] naming the section and the bad entry.
fn check_permutation(fwd: &[u32]) -> Result<()> {
    let n = fwd.len();
    let in_section = format!("section {}", sec::name(sec::PERM_NEW_OF_OLD));
    if let Some(old) = fwd.iter().position(|&new| new as usize >= n) {
        return Err(SparseError::Parse(format!(
            "v6 index: {in_section}: entry {old} is {}, out of range for {n} nodes",
            fwd[old]
        )));
    }
    Permutation::from_new_of_old(fwd.to_vec())
        .map(drop)
        .map_err(|e| parse_err_in(&in_section, e))
}

/// Decodes the `H11` factors: the rows of blocks larger than 1 × 1, the
/// 1 × 1 blocks' `U1⁻¹` values and the larger blocks' `(start, size)`
/// list. A source that has read every payload byte also checks the
/// larger blocks and that each stored row keeps inside its own block and
/// triangle.
fn decode_h11<S: SectionSource>(
    src: &S,
    n1: usize,
    table: Option<&Storage<f64>>,
) -> Result<FrozenBlockLu> {
    let [l_ids, u_ids, ..] = MATRICES;
    let larger = src.u32s(sec::H11_LARGER_BLOCKS)?;
    let ids = (sec::U_INV_SINGLETON_VALUES, sec::U_INV_SINGLETON_CODES);
    let singletons = decode_values(src, ids, "U1^-1 1x1 blocks", table)?.ok_or_else(|| {
        SparseError::Parse(format!(
            "v6 index: U1^-1 1x1 blocks have neither plain values ({}) nor value codes ({})",
            sec::name(ids.0),
            sec::name(ids.1)
        ))
    })?;
    let rows = n1.checked_sub(singletons.len()).ok_or_else(|| {
        SparseError::Parse(format!(
            "v6 index: {} 1x1 block values for n1 = {n1} rows",
            singletons.len()
        ))
    })?;
    let l = decode_matrix(src, l_ids, rows, n1, table)?;
    let u = decode_matrix(src, u_ids, rows, n1, table)?;
    let lu = FrozenBlockLu::from_parts_trusted(l, u, singletons, larger)
        .map_err(|e| parse_err_in("H11 factors", e))?;
    if S::READS_PAYLOADS {
        lu.check_larger_blocks().map_err(|e| {
            parse_err_in(&format!("section {}", sec::name(sec::H11_LARGER_BLOCKS)), e)
        })?;
        for (m, base, lower) in [
            (lu.l_inv(), sec::L_INV, true),
            (lu.u_inv(), sec::U_INV, false),
        ] {
            let indices = base
                + if m.pattern().is_narrow() {
                    sec::INDICES16
                } else {
                    sec::INDICES
                };
            check_factor_rows(m, lu.larger_blocks(), lower)
                .map_err(|e| parse_err_in(&format!("section {}", sec::name(indices)), e))?;
        }
    }
    Ok(lu)
}

/// Decodes a v6 container from either backing into an instance plus the
/// embedded graph, if any. Only the layout [`save_v6`] writes is read:
/// every file in it carries `h11.larger_blocks` (empty when `H11` has no
/// block larger than 1 × 1), so a file without that section is in an
/// earlier v6 layout and gets the one error that says how to rebuild it.
fn decode_v6<S: SectionSource>(src: &S) -> Result<(BePi, Option<Graph>)> {
    if !src.has(sec::H11_LARGER_BLOCKS) {
        return Err(SparseError::Parse(format!(
            "v6 index without section {} is in an earlier layout, which is not supported: \
             re-run `bepi preprocess` on the edge list to rebuild it",
            sec::name(sec::H11_LARGER_BLOCKS)
        )));
    }
    let meta = src.meta_bytes(sec::META)?;
    let mut r: &[u8] = &meta;
    let config = read_config(&mut r)?;
    let n1 = read_u64(&mut r)? as usize;
    let n2 = read_u64(&mut r)? as usize;
    let n3 = read_u64(&mut r)? as usize;
    let slashburn_iterations = read_u64(&mut r)? as usize;
    if !r.is_empty() {
        // The preprocess timings earlier files stored after the counts.
        return Err(SparseError::Parse(format!(
            "v6 index: section {} carries {} bytes past its last field, so it is in an \
             earlier layout, which is not supported: re-run `bepi preprocess` on the edge \
             list to rebuild it",
            sec::name(sec::META),
            r.len()
        )));
    }
    let n = n1
        .checked_add(n2)
        .and_then(|n| n.checked_add(n3))
        .ok_or_else(|| {
            SparseError::Parse(format!(
                "v6 index: section {}: partition sizes {n1} + {n2} + {n3} overflow",
                sec::name(sec::META)
            ))
        })?;

    let new_of_old = src.u32s(sec::PERM_NEW_OF_OLD)?;
    if S::READS_PAYLOADS {
        check_permutation(&new_of_old)?;
    }
    let perm = Permutation::from_new_of_old_trusted(new_of_old)?;
    if perm.len() != n {
        return Err(SparseError::Parse(format!(
            "v6 index: permutation covers {} nodes but META declares {n}",
            perm.len()
        )));
    }
    // `S` first: it is the matrix whose block carries the value table.
    let table = if src.has(sec::S_VALUE_TABLE) {
        Some(src.f64s(sec::S_VALUE_TABLE)?)
    } else {
        None
    };
    let matrix = |(base, nrows, ncols)| decode_matrix(src, base, nrows, ncols, table.as_ref());
    let [_, _, s_ids, h12_ids, h21_ids, h31_ids, h32_ids] = MATRICES;
    let s = matrix((s_ids, n2, n2))?;
    let h11_lu = decode_h11(src, n1, table.as_ref())?;
    let h12 = matrix((h12_ids, n1, n2))?;
    let h21 = matrix((h21_ids, n2, n1))?;
    let h31 = matrix((h31_ids, n3, n1))?;
    let h32 = matrix((h32_ids, n3, n2))?;

    // BePI-B/-S files carry no factors; `from_raw_parts` rejects a full
    // variant without them.
    let ilu = if src.has(sec::ILU_VALUES_F32) {
        let ilu = Ilu0::from_parts(
            &s,
            src.f32s(sec::ILU_VALUES_F32)?,
            src.usizes(sec::ILU_DIAG)?,
        )?;
        if S::READS_PAYLOADS {
            ilu.check_diag_pos()
                .map_err(|e| parse_err_in(&format!("section {}", sec::name(sec::ILU_DIAG)), e))?;
        }
        Some(ilu)
    } else {
        None
    };
    let graph = if src.has(sec::GRAPH_INDPTR) {
        let (indptr, indices) = (
            src.usizes(sec::GRAPH_INDPTR)?,
            src.u32s(sec::GRAPH_INDICES)?,
        );
        if S::READS_PAYLOADS {
            let pattern = Pattern::Wide {
                indptr: indptr.clone(),
                indices: indices.clone(),
            };
            check_pattern(&pattern, n, (sec::GRAPH_INDPTR, sec::GRAPH_INDICES))?;
        }
        let values = src.f64s(sec::GRAPH_VALUES)?;
        let adj = Csr::from_parts_storage_trusted(n, n, indptr, indices, values)?;
        Some(Graph::from_adjacency(adj)?)
    } else {
        None
    };

    let bepi = BePi::from_raw_parts(RawParts {
        config,
        perm,
        n1,
        n2,
        n3,
        h11_lu,
        s,
        ilu,
        h12,
        h21,
        h31,
        h32,
        slashburn_iterations,
    })?;
    Ok((bepi, graph))
}

/// Opens a v6 index file as a shared read-only memory mapping and builds
/// an instance whose arrays borrow the mapping zero-copy.
///
/// Open cost is `O(#sections)`: magic/version/footer and the section
/// table (plus the small META section) are CRC-verified eagerly, while
/// array payloads are faulted in lazily by the page cache as queries
/// touch them. `MADV_WILLNEED` is issued for the hot sections (every
/// stored matrix, the value table and the ILU factor values, which every
/// query walks — every GMRES iteration streams `S`'s arrays twice, once
/// for the SpMV and once for the ILU apply) so the kernel starts
/// readahead immediately.
pub fn load_mapped_file<P: AsRef<Path>>(path: P) -> Result<(BePi, Option<Graph>)> {
    let idx = MappedIndex::open(path).map_err(from_map_err)?;
    idx.verify(sec::META).map_err(from_map_err)?;
    let matrix_sections = MATRICES.iter().flat_map(|&(base, _)| {
        [
            sec::INDPTR,
            sec::INDICES,
            sec::VALUES,
            sec::VALUE_CODES,
            sec::INDPTR32,
            sec::INDICES16,
            sec::COLUMN_CODES,
            sec::ROW_IDS,
        ]
        .map(|offset| base + offset)
    });
    let others = [
        sec::H11_LARGER_BLOCKS,
        sec::U_INV_SINGLETON_CODES,
        sec::U_INV_SINGLETON_VALUES,
        sec::S_VALUE_TABLE,
        sec::ILU_VALUES_F32,
        sec::ILU_DIAG,
    ];
    for id in matrix_sections.chain(others) {
        idx.advise_willneed(id);
    }
    decode_v6(&MappedSource { idx: &idx })
}

/// Verifies every section CRC of a mappable v6 file — the payload
/// checks that [`load_mapped_file`] deliberately skips to keep open
/// time independent of index size. Costs one read pass over the whole
/// file; returns the typed per-section error on the first mismatch.
///
/// Use this where a full integrity check is worth a full read: one-shot
/// CLI queries, post-transfer validation, scrubbing. A long-running
/// daemon instead relies on the per-request panic guard — a query
/// that trips over a corrupt payload fails alone, it cannot take the
/// process down.
pub fn verify_mapped_file<P: AsRef<Path>>(path: P) -> Result<()> {
    let idx = MappedIndex::open(path).map_err(from_map_err)?;
    idx.verify_all().map_err(from_map_err)
}

/// The sections of a v6 index file in file order, as (display name,
/// payload bytes). Reads the section table only (`O(#sections)`), so it
/// costs the same for any index size.
pub fn list_sections<P: AsRef<Path>>(path: P) -> Result<Vec<(&'static str, u64)>> {
    let idx = MappedIndex::open(path).map_err(from_map_err)?;
    Ok(idx
        .entries()
        .iter()
        .map(|e| (sec::name(e.id), e.len))
        .collect())
}

/// Reads a preprocessed instance from a v6 byte stream onto the heap,
/// discarding any embedded graph (use [`load_with_graph`] to keep it).
pub fn load<R: Read>(reader: R) -> Result<BePi> {
    load_with_graph(reader).map(|(bepi, _)| bepi)
}

/// Like [`load`], but also returns the embedded adjacency graph when the
/// file embeds one. The whole image is read, every section checksum is
/// verified, then the sections are decoded into owned arrays.
pub fn load_with_graph<R: Read>(mut reader: R) -> Result<(BePi, Option<Graph>)> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    decode_v6(&HeapSource::new(&buf)?)
}

/// Convenience: loads from a file path.
pub fn load_file<P: AsRef<Path>>(path: P) -> Result<BePi> {
    load(std::fs::File::open(path)?)
}

/// Convenience: loads index + optional embedded graph from a file path.
pub fn load_file_with_graph<P: AsRef<Path>>(path: P) -> Result<(BePi, Option<Graph>)> {
    load_with_graph(std::fs::File::open(path)?)
}

// --- scalar readers/writers (little endian) for the META section ---

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_f64<R: Read>(r: &mut R) -> Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// META's config record. The inner-solver tag (u32) and the
/// preconditioner tag + order (u32 + u64) are always written as zeros:
/// GMRES and ILU(0) are the only choices, and the record keeps its byte
/// layout.
fn write_config<W: Write>(w: &mut W, c: &BePiConfig) -> Result<()> {
    use crate::bepi::BePiVariant;
    write_u32(
        w,
        match c.variant {
            BePiVariant::Basic => 0,
            BePiVariant::Sparse => 1,
            BePiVariant::Full => 2,
        },
    )?;
    write_f64(w, c.c)?;
    write_f64(w, c.tol)?;
    write_f64(w, c.hub_ratio.unwrap_or(f64::NAN))?;
    write_u64(w, c.gmres_restart as u64)?;
    write_u64(w, c.max_iters as u64)?;
    write_u32(w, 0)?;
    write_u32(w, 0)?;
    write_u64(w, 0)
}

/// Reads [`write_config`]'s record and validates it, so a hand-edited
/// META fails the load instead of panicking a later preprocess. A
/// non-zero solver or preconditioner tag names a solver this build no
/// longer has.
fn read_config<R: Read>(r: &mut R) -> Result<BePiConfig> {
    use crate::bepi::{BePiVariant, InnerSolver};
    let variant = match read_u32(r)? {
        0 => BePiVariant::Basic,
        1 => BePiVariant::Sparse,
        2 => BePiVariant::Full,
        v => return Err(SparseError::Parse(format!("bad variant tag {v}"))),
    };
    let c = read_f64(r)?;
    let tol = read_f64(r)?;
    let hub = read_f64(r)?;
    let gmres_restart = read_u64(r)? as usize;
    let max_iters = read_u64(r)? as usize;
    let (inner, precond, order) = (read_u32(r)?, read_u32(r)?, read_u64(r)?);
    if (inner, precond, order) != (0, 0, 0) {
        return Err(SparseError::Parse(format!(
            "index was built with a solver this build no longer has (inner-solver tag \
             {inner}, preconditioner tag {precond}, order {order}; only GMRES with ILU(0) \
             is supported): re-run `bepi preprocess` on the edge list to rebuild it"
        )));
    }
    let config = BePiConfig {
        variant,
        c,
        tol,
        hub_ratio: if hub.is_nan() { None } else { Some(hub) },
        gmres_restart,
        max_iters,
        inner: InnerSolver::Gmres,
    };
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bepi::tests::{assert_precond_bytes, bits32, precond_bytes};
    use crate::prelude::*;
    use bepi_graph::generators;
    use bepi_sparse::{Bytes, MemBytes as _};

    fn to_bytes(bepi: &BePi, graph: Option<&Graph>) -> Vec<u8> {
        let mut buf = Vec::new();
        save_v6(bepi, graph, &mut buf).unwrap();
        buf
    }

    fn roundtrip(cfg: &BePiConfig) {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let original = BePi::preprocess(&g, cfg).unwrap();
        let restored = load(&to_bytes(&original, None)[..]).unwrap();
        assert_eq!(restored.preprocessed_bytes(), original.preprocessed_bytes());
        assert_eq!(restored.schur(), original.schur());
        for seed in [0usize, 31, 100] {
            let a = original.query(seed).unwrap();
            let b = restored.query(seed).unwrap();
            assert_eq!(a.scores, b.scores, "queries must be bit-identical");
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn roundtrip_full_variant() {
        roundtrip(&BePiConfig::for_variant(BePiVariant::Full));
    }

    #[test]
    fn roundtrip_basic_variant() {
        roundtrip(&BePiConfig::for_variant(BePiVariant::Basic));
    }

    /// Byte offsets of config fields inside META (see [`write_config`]).
    const META_HUB_RATIO: usize = 20;
    const META_INNER_TAG: usize = 44;
    const META_PRECOND_TAG: usize = 48;

    /// `buf` with `bytes` written at offset `at` of the META payload, and
    /// META's CRC and the table CRC re-stamped, so the edit reaches the
    /// config decoder on both load paths.
    fn patch_meta(buf: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut buf = buf.to_vec();
        let table = bepi_map::parse_layout(&buf).unwrap();
        let i = table
            .iter()
            .position(|e| e.id == bepi_map::sections::META)
            .unwrap();
        let (start, len) = (table[i].offset as usize, table[i].len as usize);
        buf[start + at..start + at + bytes.len()].copy_from_slice(bytes);
        let meta_crc = crc32(&buf[start..start + len]);
        let foot = buf.len() - bepi_map::FOOTER_LEN as usize;
        let table_offset = u64::from_le_bytes(buf[foot..foot + 8].try_into().unwrap()) as usize;
        let entry = table_offset + i * bepi_map::TABLE_ENTRY_LEN as usize;
        buf[entry + 4..entry + 8].copy_from_slice(&meta_crc.to_le_bytes());
        let table_crc = crc32(&buf[table_offset..foot]);
        buf[foot + 16..foot + 20].copy_from_slice(&table_crc.to_le_bytes());
        buf
    }

    /// The errors of the heap and the mapped load of `buf`.
    fn load_errors(buf: &[u8], name: &str) -> [String; 2] {
        let path = temp_path(name);
        std::fs::write(&path, buf).unwrap();
        let heap = load(buf).unwrap_err().to_string();
        let mapped = load_mapped_file(&path).unwrap_err().to_string();
        std::fs::remove_file(&path).ok();
        [heap, mapped]
    }

    #[test]
    fn removed_solver_tags_fail_both_loads() {
        let g = generators::cycle(10);
        let buf = to_bytes(&BePi::preprocess(&g, &BePiConfig::default()).unwrap(), None);
        // Inner tag 1 was BiCGSTAB; preconditioner tags 1 and 2 were
        // Jacobi and Neumann.
        for (at, tag) in [
            (META_INNER_TAG, 1u32),
            (META_PRECOND_TAG, 1),
            (META_PRECOND_TAG, 2),
        ] {
            let bad = patch_meta(&buf, at, &tag.to_le_bytes());
            for err in load_errors(&bad, "solver_tag") {
                assert!(
                    err.contains("solver this build no longer has")
                        && err.contains("re-run `bepi preprocess`"),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn all_zero_solver_tags_read_back_as_the_default_config() {
        let mut meta = Vec::new();
        write_config(&mut meta, &BePiConfig::default()).unwrap();
        assert_eq!(meta.len(), 60);
        assert!(meta[META_INNER_TAG..].iter().all(|&b| b == 0));
        assert_eq!(read_config(&mut &meta[..]).unwrap(), BePiConfig::default());
    }

    #[test]
    fn out_of_range_hub_ratio_fails_read_config_and_both_loads() {
        let mut meta = Vec::new();
        write_config(&mut meta, &BePiConfig::default()).unwrap();
        meta[META_HUB_RATIO..META_HUB_RATIO + 8].copy_from_slice(&1.5f64.to_le_bytes());
        let err = read_config(&mut &meta[..]).unwrap_err().to_string();
        assert!(err.contains("hub ratio"), "{err}");

        let g = generators::cycle(10);
        let buf = to_bytes(&BePi::preprocess(&g, &BePiConfig::default()).unwrap(), None);
        let bad = patch_meta(&buf, META_HUB_RATIO, &1.5f64.to_le_bytes());
        for err in load_errors(&bad, "hub_ratio") {
            assert!(err.contains("hub ratio"), "{err}");
        }
    }

    /// A META whose partition sizes overflow when added (`n1` at offset
    /// 60, just past the config record) fails both loads naming META,
    /// where the sum used to panic a debug build and wrap in release.
    #[test]
    fn overflowing_partition_sizes_fail_both_loads() {
        let g = generators::cycle(10);
        let buf = to_bytes(&BePi::preprocess(&g, &BePiConfig::default()).unwrap(), None);
        let bad = patch_meta(&buf, 60, &u64::MAX.to_le_bytes());
        for err in load_errors(&bad, "overflow") {
            assert!(err.contains("section meta: partition sizes"), "{err}");
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let g = generators::erdos_renyi(100, 400, 5).unwrap();
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let path = std::env::temp_dir().join("bepi_persist_test.bin");
        save_file_v6(&original, None, &path).unwrap();
        let restored = load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            original.query(3).unwrap().scores,
            restored.query(3).unwrap().scores
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(load(&b"NOPE"[..]).is_err());
        let g = generators::cycle(10);
        let mut buf = to_bytes(&BePi::preprocess(&g, &BePiConfig::default()).unwrap(), None);
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = load(&buf[..]).unwrap_err().to_string();
        assert!(err.contains("v99"), "{err}");
    }

    #[test]
    fn rejects_truncated_stream() {
        let g = generators::cycle(10);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let mut buf = to_bytes(&original, None);
        buf.truncate(buf.len() / 2);
        assert!(load(&buf[..]).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental updates must agree with the one-shot form.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finalize(), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_byte_corruption() {
        let g = generators::cycle(10);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let buf = to_bytes(&original, Some(&g));
        let first = bepi_map::parse_layout(&buf)
            .unwrap()
            .into_iter()
            .find(|e| e.len > 0)
            .unwrap();
        // Magic, version, a section payload, the section table and the
        // footer: a flipped bit in any of them must be rejected.
        let table_end = buf.len() - bepi_map::FOOTER_LEN as usize;
        for pos in [0, 4, first.offset as usize, table_end - 1, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(load(&bad[..]).is_err(), "corruption at byte {pos} accepted");
        }
    }

    #[test]
    fn save_v6_rejects_node_count_mismatch() {
        let g = generators::cycle(10);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let other = generators::cycle(11);
        let mut buf = Vec::new();
        assert!(save_v6(&original, Some(&other), &mut buf).is_err());
    }

    /// An index file is a function of the graph and the config: two
    /// preprocesses of one graph write the same bytes, for every variant,
    /// with and without the embedded graph.
    #[test]
    fn two_preprocesses_of_one_graph_save_identical_bytes() {
        let g = generators::rmat(8, 1200, generators::RmatParams::default(), 29).unwrap();
        for variant in [BePiVariant::Sparse, BePiVariant::Full, BePiVariant::Basic] {
            let config = BePiConfig::for_variant(variant);
            let first = BePi::preprocess(&g, &config).unwrap();
            let second = BePi::preprocess(&g, &config).unwrap();
            for graph in [None, Some(&g)] {
                let bytes = to_bytes(&first, graph);
                assert!(bytes == to_bytes(&second, graph), "{variant:?}");
                let restored = load(&bytes[..]).unwrap();
                assert!(to_bytes(&restored, graph) == bytes, "{variant:?} re-save");
            }
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bepi_persist_v6_{name}_{}", std::process::id()))
    }

    #[test]
    fn v6_heap_roundtrip_is_bit_identical() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let mut buf = Vec::new();
        save_v6(&original, Some(&g), &mut buf).unwrap();
        let (restored, graph) = load_with_graph(&buf[..]).unwrap();
        assert_eq!(graph.unwrap().adjacency(), g.adjacency());
        assert_eq!(restored.schur(), original.schur());
        assert_eq!(restored.preprocessed_bytes(), original.preprocessed_bytes());
        for seed in [0usize, 31, 100] {
            let a = original.query(seed).unwrap();
            let b = restored.query(seed).unwrap();
            assert_eq!(a.scores, b.scores, "v6 heap load must be bit-identical");
            assert_eq!(a.iterations, b.iterations);
        }
        assert_eq!(restored.mapped_bytes(), 0);
    }

    #[test]
    fn v6_mapped_load_matches_heap_load() {
        let g = generators::rmat(7, 600, generators::RmatParams::default(), 17).unwrap();
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let path = temp_path("mapped");
        save_file_v6(&original, Some(&g), &path).unwrap();
        let heap = load_file(&path).unwrap();
        let (mapped, graph) = load_mapped_file(&path).unwrap();
        assert_eq!(graph.unwrap().adjacency(), g.adjacency());
        assert!(mapped.mapped_bytes() > 0);
        // The big arrays are all served from the file; only recomputed
        // preconditioners or small owned bits may sit on the heap.
        assert!(mapped.mapped_bytes() > mapped.heap_bytes());
        for seed in [0usize, 5, 99] {
            let a = original.query(seed).unwrap();
            let b = heap.query(seed).unwrap();
            let c = mapped.query(seed).unwrap();
            assert_eq!(a.scores, b.scores);
            assert_eq!(b.scores, c.scores, "mapped serving must be bit-identical");
            assert_eq!(b.iterations, c.iterations);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v6_without_graph_and_without_ilu() {
        let g = generators::erdos_renyi(120, 500, 9).unwrap();
        // BePI-S builds no preconditioner → no ILU sections.
        let original = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Sparse)).unwrap();
        let mut buf = Vec::new();
        save_v6(&original, None, &mut buf).unwrap();
        let table = bepi_map::parse_layout(&buf).unwrap();
        use bepi_map::sections as s;
        for id in [s::ILU_VALUES_F32, s::ILU_DIAG, s::GRAPH_INDPTR] {
            assert!(!table.iter().any(|e| e.id == id), "{}", s::name(id));
        }
        let (restored, graph) = load_with_graph(&buf[..]).unwrap();
        assert!(graph.is_none());
        assert_eq!(
            original.query(7).unwrap().scores,
            restored.query(7).unwrap().scores
        );
    }

    #[test]
    fn v6_persists_ilu_factors() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 41).unwrap();
        let original = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let mut buf = Vec::new();
        save_v6(&original, None, &mut buf).unwrap();
        let table = bepi_map::parse_layout(&buf).unwrap();
        use bepi_map::sections as s;
        for id in [s::ILU_VALUES_F32, s::ILU_DIAG] {
            assert!(table.iter().any(|e| e.id == id), "missing {}", s::name(id));
        }
        // The factors carry no pattern of their own: S's is written once.
        for id in [0x80, 0x81, 0x82] {
            assert!(!table.iter().any(|e| e.id == id), "section {id:#x} written");
        }
        let restored = load(&buf[..]).unwrap();
        let (got, want) = (
            restored.preconditioner().unwrap(),
            original.preconditioner().unwrap(),
        );
        assert_eq!(bits32(got.values()), bits32(want.values()));
        assert_eq!(got.diag_pos(), want.diag_pos());
    }

    /// An index preprocessed as the paper's full BePI keeps its ILU(0)
    /// although new indexes default to BePI-S: META records the variant,
    /// so the heap and the mapped load both bring the factors back, a
    /// numeric rebuild factors them again, and every answer is
    /// bit-identical to a fresh `Full` preprocess of the same graph.
    #[test]
    fn full_index_keeps_its_ilu_on_load_and_refactor() {
        use crate::bepi::tests::{numeric_rebuild, removable_edge};
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let cfg = BePiConfig::for_variant(BePiVariant::Full);
        let path = temp_path("full_index");
        save_file_v6(&BePi::preprocess(&g, &cfg).unwrap(), Some(&g), &path).unwrap();
        let heap = load_file(&path).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        let fresh = BePi::preprocess(&g, &cfg).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let assert_same = |got: &BePi, want: &BePi, what: &str| {
            assert_eq!(got.config().variant, BePiVariant::Full, "{what}");
            assert_precond_bytes(got);
            assert_eq!(
                bits32(got.preconditioner().unwrap().values()),
                bits32(want.preconditioner().unwrap().values()),
                "{what}"
            );
            for seed in [0usize, 31, 100] {
                let (a, b) = (got.query(seed).unwrap(), want.query(seed).unwrap());
                assert_eq!(bits(&a.scores), bits(&b.scores), "{what} seed {seed}");
                assert_eq!(a.iterations, b.iterations, "{what} seed {seed}");
            }
        };
        assert_same(&heap, &fresh, "heap load");
        assert_same(&mapped, &fresh, "mapped load");

        let edge = removable_edge(&g);
        let (g_new, from_heap) = numeric_rebuild(&heap, &g, edge);
        let frozen = BePi::preprocess_with_plan(&g_new, &cfg, &fresh.symbolic_plan()).unwrap();
        assert_same(&from_heap, &frozen, "heap rebuild");
        assert_same(
            &numeric_rebuild(&mapped, &g, edge).1,
            &frozen,
            "mapped rebuild",
        );
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    /// `buf` re-assembled section by section: `edit` writes whatever
    /// stands in for each section, so every edit carries valid CRCs and
    /// reaches the decoder.
    fn rewrite_sections(
        buf: &[u8],
        mut edit: impl FnMut(&mut ContainerWriter<Vec<u8>>, u32, &[u8]),
    ) -> Vec<u8> {
        let mut cw = ContainerWriter::new(Vec::new()).unwrap();
        for e in bepi_map::parse_layout(buf).unwrap() {
            edit(
                &mut cw,
                e.id,
                &buf[e.offset as usize..(e.offset + e.len) as usize],
            );
        }
        cw.finish().unwrap()
    }

    #[test]
    fn v6_heap_load_detects_payload_corruption() {
        let g = generators::cycle(20);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let mut buf = Vec::new();
        save_v6(&original, None, &mut buf).unwrap();
        let table = bepi_map::parse_layout(&buf).unwrap();
        // Flip one byte inside every section payload: the heap loader
        // must reject each corruption with an error naming the section.
        for e in &table {
            if e.len == 0 {
                continue;
            }
            let mut bad = buf.clone();
            bad[(e.offset + e.len / 2) as usize] ^= 0x20;
            let err = load(&bad[..]).unwrap_err().to_string();
            assert!(
                err.contains("checksum") || err.contains(bepi_map::sections::name(e.id)),
                "corruption in {} produced unrelated error: {err}",
                bepi_map::sections::name(e.id)
            );
        }
    }

    #[test]
    fn v6_mapped_open_rejects_old_formats_and_corrupt_tables() {
        // A pre-v6 file (hand-assembled: magic, version 4, junk) fails on
        // both load paths with the one error naming its version and the
        // way to rebuild it.
        let v4 = temp_path("v4");
        let mut bytes = b"BEPI".to_vec();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0xA5; 100]);
        std::fs::write(&v4, &bytes).unwrap();
        for err in [
            load_file(&v4).unwrap_err(),
            load_mapped_file(&v4).unwrap_err(),
        ] {
            let msg = err.to_string();
            assert!(
                msg.contains("format v4") && msg.contains("bepi preprocess"),
                "{msg}"
            );
        }
        // v6 files in the layouts written before `h11.larger_blocks` fail
        // both loads with the one error that says how to rebuild them.
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let full = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let buf = to_bytes(&full, Some(&g));
        for (layout, old) in earlier_layouts(&buf, &full) {
            for err in load_errors(&old, "earlier_layout") {
                assert!(
                    err.contains("without section h11.larger_blocks is in an earlier layout")
                        && err.contains("re-run `bepi preprocess`"),
                    "{layout}: {err}"
                );
            }
        }
        // So does a META that carries the preprocess timings earlier files
        // stored after its last field (elapsed, then a phase count of 0).
        let timed = rewrite_sections(&buf, |cw, id, payload| {
            if id == sec::META {
                let tail = [1.5f64.to_le_bytes(), 0u64.to_le_bytes()].concat();
                cw.section_bytes(id, &[payload, &tail[..]].concat())
                    .unwrap()
            } else {
                cw.section_bytes(id, payload).unwrap()
            }
        });
        for err in load_errors(&timed, "timed_meta") {
            assert!(
                err.contains("section meta carries 16 bytes past its last field")
                    && err.contains("re-run `bepi preprocess`"),
                "{err}"
            );
        }
        // In the current layout, a file without 1 x 1 block values, and a
        // full-variant file without its f32 factors, fail both loads too.
        let drop_section = |target| {
            rewrite_sections(&buf, |cw, id, payload| {
                if id != target {
                    cw.section_bytes(id, payload).unwrap()
                }
            })
        };
        for (target, want) in [
            (
                sec::U_INV_SINGLETON_CODES,
                "nor value codes (u_inv.singleton_codes)",
            ),
            (
                sec::ILU_VALUES_F32,
                "(ilu.values_f32) are missing: re-run `bepi preprocess`",
            ),
        ] {
            for err in load_errors(&drop_section(target), "missing_section") {
                assert!(err.contains(want), "{want}: {err}");
            }
        }
        // A truncated v6 file loses its footer.
        let g = generators::cycle(15);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let v6 = temp_path("trunc");
        save_file_v6(&original, None, &v6).unwrap();
        let bytes = std::fs::read(&v6).unwrap();
        assert_eq!(bytes[4..8], VERSION_MAPPED.to_le_bytes());
        std::fs::write(&v6, &bytes[..bytes.len() - 10]).unwrap();
        assert!(load_mapped_file(&v6).is_err());
        std::fs::remove_file(&v4).ok();
        std::fs::remove_file(&v6).ok();
    }

    /// `bepi`'s index `buf` rewritten in each v6 layout written before
    /// `h11.larger_blocks`, named, with valid CRCs: every `H11` block's
    /// size (`u64`, retired id 0x04) in its place; that and the inverse
    /// permutation map (0x03) without the 1 × 1 blocks' values, as the
    /// full-row layout stored them; and that and f64 ILU(0) factors on a
    /// second copy of `S`'s pattern (0x80–0x82) in place of the f32 ones.
    fn earlier_layouts(buf: &[u8], bepi: &BePi) -> [(&'static str, Vec<u8>); 3] {
        let sizes = bepi.h11_factors().block_sizes();
        let s = bepi.schur().to_csr();
        let layout = |maps: bool, f64_ilu: bool| {
            rewrite_sections(buf, |cw, id, payload| match id {
                sec::H11_LARGER_BLOCKS => write_section(cw, 0x04, &sizes, u64_le).unwrap(),
                sec::PERM_NEW_OF_OLD if maps => {
                    cw.section_bytes(id, payload).unwrap();
                    let old_of_new = bepi.permutation().old_of_new();
                    write_section(cw, 0x03, &old_of_new, u32::to_le_bytes).unwrap();
                }
                sec::U_INV_SINGLETON_CODES if maps => {}
                sec::ILU_VALUES_F32 if f64_ilu => {
                    write_section(cw, 0x80, s.indptr(), u64_le).unwrap();
                    write_section(cw, 0x81, s.indices(), u32::to_le_bytes).unwrap();
                    write_section(cw, 0x82, s.values(), f64::to_le_bytes).unwrap();
                }
                _ => cw.section_bytes(id, payload).unwrap(),
            })
        };
        [
            ("block sizes", layout(false, false)),
            ("two permutation maps", layout(true, false)),
            ("f64 factors", layout(false, true)),
        ]
    }

    /// The file names in `dir`, sorted.
    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn failed_saves_leave_the_destination_untouched() {
        let g = generators::cycle(12);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let dir = temp_path("atomic");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("idx.bepi");
        save_file_v6(&original, None, &dest).unwrap();
        let before = std::fs::read(&dest).unwrap();

        // Target directory missing.
        assert!(save_file_v6(&original, None, dir.join("missing").join("idx.bepi")).is_err());
        // A save that fails after the temp file exists (graph of the
        // wrong size): the temp sibling is cleaned up.
        assert!(save_file_v6(&original, Some(&generators::cycle(13)), &dest).is_err());
        // Target directory read-only. A process that bypasses permission
        // checks (root) can write anyway, so the case is skipped there.
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
            let probe = dir.join("probe");
            if std::fs::File::create(&probe).is_ok() {
                std::fs::remove_file(&probe).unwrap();
            } else {
                assert!(save_file_v6(&original, Some(&g), &dest).is_err());
            }
            std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        assert_eq!(std::fs::read(&dest).unwrap(), before);
        assert_eq!(dir_entries(&dir), ["idx.bepi"]);

        // A successful overwrite replaces the file and leaves no temp.
        save_file_v6(&original, Some(&g), &dest).unwrap();
        assert_eq!(dir_entries(&dir), ["idx.bepi"]);
        assert!(load_file_with_graph(&dest).unwrap().1.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v6_memory_report_accounts_every_component() {
        let g = generators::rmat(7, 400, generators::RmatParams::default(), 3).unwrap();
        let original = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let path = temp_path("report");
        save_file_v6(&original, None, &path).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        // The preconditioner holds f32 values and diagonal positions only
        // (`4·nnz(S) + 8·n2`), after preprocess and after either load; on
        // the mapped load all of it is served from the file.
        let heap = load_file(&path).unwrap();
        for b in [&original, &heap, &mapped] {
            assert_precond_bytes(b);
        }
        assert_eq!(precond_bytes(&heap).1, 0);
        assert_eq!(precond_bytes(&mapped).0, 0);
        let report = mapped.memory_report();
        let names: Vec<&str> = report.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            ["perm", "l1_inv", "u1_inv", "schur", "precond", "h12", "h21", "h31", "h32"]
        );
        for c in &report {
            assert_eq!(c.bytes.heap, 0, "{} should be fully mapped", c.name);
        }
        // Logical accounting is backing-independent.
        assert_eq!(mapped.preprocessed_bytes(), original.preprocessed_bytes());
        std::fs::remove_file(&path).ok();
    }

    /// A matrix's value table and codes (one per non-zero or per
    /// column); panics unless it is value-coded.
    fn coded_parts(s: &CodedCsr) -> (&[f64], &[u16]) {
        match s.values() {
            MatrixValues::Entries(CodedValues::Coded { table, codes }) => (table, codes),
            MatrixValues::Columns { table, codes } => (table, codes),
            plain => panic!("the matrix is coded: {plain:?}"),
        }
    }

    /// `buf` with `S` stored plain, as indexes whose `S` overflows the
    /// value table store it: one f64 per non-zero in `S_VALUES`, where the
    /// codes were. The value table stays, for the other coded matrices.
    fn with_plain_s_values(buf: &[u8], s: &CodedCsr) -> Vec<u8> {
        let values = s.to_csr().values().to_vec();
        rewrite_sections(buf, |cw, id, payload| match id {
            sec::S_VALUE_TABLE => {
                write_section(cw, sec::S_VALUES, &values, f64::to_le_bytes).unwrap();
                cw.section_bytes(id, payload).unwrap();
            }
            sec::S_VALUE_CODES => {}
            id => cw.section_bytes(id, payload).unwrap(),
        })
    }

    /// An index that stores `S` plain loads — on the heap and mapped, for
    /// the default and the full variant — keeps `S` plain,
    /// accounts it at 8 bytes per value instead of a 2-byte code, and
    /// answers bit for bit like a fresh index (whose coded `S` multiplies
    /// exactly as the plain one does). Saved again, it writes the same
    /// bytes.
    #[test]
    fn coded_s_plain_values_file_loads_bit_identical() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(variant)).unwrap();
            let s = fresh.schur();
            let codes = coded_parts(s).1;
            let old = with_plain_s_values(&to_bytes(&fresh, Some(&g)), s);
            let ids: Vec<u32> = bepi_map::parse_layout(&old)
                .unwrap()
                .iter()
                .map(|e| e.id)
                .collect();
            assert!(ids.contains(&sec::S_VALUES) && ids.contains(&sec::S_VALUE_TABLE));
            assert!(!ids.contains(&sec::S_VALUE_CODES));

            let path = temp_path("plain_s");
            std::fs::write(&path, &old).unwrap();
            let (heap, _) = load_with_graph(&old[..]).unwrap();
            let (mapped, _) = load_mapped_file(&path).unwrap();
            verify_mapped_file(&path).unwrap();
            // Plain values cost 8 bytes per non-zero, codes 2; the table
            // is the index's either way.
            let plain_extra = 8 * s.nnz() - 2 * codes.len();
            for (b, what) in [(&heap, "heap"), (&mapped, "mapped")] {
                assert!(!b.schur().is_coded(), "{what}");
                assert_eq!(b.schur(), s, "{what}");
                assert_eq!(
                    b.preprocessed_bytes(),
                    fresh.preprocessed_bytes() + plain_extra,
                    "{what}"
                );
                if variant == BePiVariant::Full {
                    assert_precond_bytes(b);
                    assert_eq!(
                        bits32(b.preconditioner().unwrap().values()),
                        bits32(fresh.preconditioner().unwrap().values())
                    );
                }
                for seed in [0usize, 31, 100] {
                    let (got, want) = (b.query(seed).unwrap(), fresh.query(seed).unwrap());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.scores), bits(&want.scores), "{what} seed {seed}");
                    assert_eq!(got.iterations, want.iterations);
                    assert_eq!(got.residual.to_bits(), want.residual.to_bits());
                }
            }
            assert_eq!(to_bytes(&heap, Some(&g)), old);
            drop(mapped);
            std::fs::remove_file(&path).ok();
        }
    }

    /// A coded `S` costs its pattern, 8 bytes per distinct value and 2 per
    /// non-zero — in the file, in `preprocessed_bytes()` and in the memory
    /// report, after preprocess and after either load.
    #[test]
    fn coded_s_is_accounted_exactly() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let s = fresh.schur();
        let (table, codes) = coded_parts(s);
        assert_eq!(codes.len(), s.nnz());
        assert!(table.len() < s.nnz());
        let n2 = fresh.stats().n2;
        // The narrow pattern, then the table and one code per non-zero.
        let want = 4 * (n2 + 1) + 2 * s.nnz() + 8 * table.len() + 2 * s.nnz();
        assert_eq!(bepi_sparse::MemBytes::mem_bytes(s), want);

        let path = temp_path("coded_bytes");
        save_file_v6(&fresh, None, &path).unwrap();
        let layout = bepi_map::parse_layout(&std::fs::read(&path).unwrap()).unwrap();
        let len_of = |id| layout.iter().find(|e| e.id == id).map(|e| e.len as usize);
        assert_eq!(len_of(sec::S_VALUE_TABLE), Some(8 * table.len()));
        assert_eq!(len_of(sec::S_VALUE_CODES), Some(2 * s.nnz()));
        assert_eq!(len_of(sec::S_VALUES), None);
        let heap = load_file(&path).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        for (b, split) in [
            (&fresh, Bytes::heap(want)),
            (&heap, Bytes::heap(want)),
            (&mapped, Bytes::mapped(want)),
        ] {
            assert_eq!(coded_parts(b.schur()).0.len(), table.len());
            let report = b.memory_report();
            let schur = report.iter().find(|c| c.name == "schur").unwrap();
            assert_eq!(schur.bytes, split);
            assert_eq!(b.preprocessed_bytes(), fresh.preprocessed_bytes());
        }
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    /// Hostile `S` sections with valid CRCs: both value encodings, neither,
    /// half of the coded pair, a table too large for `u16` codes, a code
    /// count that is not `nnz(S)` and a torn code. Every one fails both
    /// loads with an error naming the problem, never a panic. A code past
    /// the end of the table fails the heap load, which reads every byte
    /// anyway; the mapped open checks shapes only.
    #[test]
    fn coded_s_hostile_sections_fail_both_loads_cleanly() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let s = fresh.schur();
        let (table, codes) = coded_parts(s);
        let buf = to_bytes(&fresh, None);
        let plain = s.to_csr().values().to_vec();
        let oversized = vec![0.5; bepi_sparse::coded::MAX_TABLE_LEN + 1];
        type Edit<'a> = Box<dyn Fn(&mut ContainerWriter<Vec<u8>>, u32, &[u8]) + 'a>;
        let keep = |cw: &mut ContainerWriter<Vec<u8>>, id, payload: &[u8]| {
            cw.section_bytes(id, payload).unwrap()
        };
        let cases: Vec<(&str, Edit, String)> = vec![
            (
                "both encodings",
                Box::new(|cw, id, p| {
                    if id == sec::S_VALUE_TABLE {
                        write_section(cw, sec::S_VALUES, &plain, f64::to_le_bytes).unwrap();
                    }
                    keep(cw, id, p)
                }),
                "both plain values (s.values) and value codes (s.value_codes)".into(),
            ),
            (
                "neither encoding",
                Box::new(|cw, id, p| {
                    if id != sec::S_VALUE_TABLE && id != sec::S_VALUE_CODES {
                        keep(cw, id, p)
                    }
                }),
                "s.values".into(),
            ),
            (
                "table only",
                Box::new(|cw, id, p| {
                    if id != sec::S_VALUE_CODES {
                        keep(cw, id, p)
                    }
                }),
                "s.value_codes".into(),
            ),
            (
                "codes only",
                Box::new(|cw, id, p| {
                    if id != sec::S_VALUE_TABLE {
                        keep(cw, id, p)
                    }
                }),
                "s.value_table".into(),
            ),
            (
                "oversized table",
                Box::new(|cw, id, p| match id {
                    sec::S_VALUE_TABLE => {
                        write_section(cw, id, &oversized, f64::to_le_bytes).unwrap();
                    }
                    _ => keep(cw, id, p),
                }),
                "value table holds 65537 entries".into(),
            ),
            (
                "short codes",
                Box::new(|cw, id, p| match id {
                    sec::S_VALUE_CODES => {
                        write_section(cw, id, &codes[..codes.len() - 1], u16::to_le_bytes).unwrap();
                    }
                    _ => keep(cw, id, p),
                }),
                format!(
                    "vector length {}, expected {}",
                    codes.len() - 1,
                    codes.len()
                ),
            ),
            (
                "torn code",
                Box::new(|cw, id, p| match id {
                    sec::S_VALUE_CODES => cw.section_bytes(id, &p[..p.len() - 1]).unwrap(),
                    _ => keep(cw, id, p),
                }),
                "s.value_codes".into(),
            ),
        ];
        for (name, edit, want) in cases {
            let bad = rewrite_sections(&buf, edit);
            for err in load_errors(&bad, "hostile_s") {
                assert!(err.contains(&want), "{name}: {err}");
            }
        }

        let mut past_end = codes.to_vec();
        past_end[codes.len() / 2] = table.len() as u16;
        let bad = rewrite_sections(&buf, |cw, id, p| match id {
            sec::S_VALUE_CODES => write_section(cw, id, &past_end, u16::to_le_bytes).unwrap(),
            _ => keep(cw, id, p),
        });
        let err = load(&bad[..]).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "v6 index: S: value code {} at non-zero {}",
                table.len(),
                codes.len() / 2
            )),
            "{err}"
        );
    }

    /// `buf` as an index whose `S` has more than 2¹⁶ columns stores it: the
    /// wide `S_INDPTR` (u64) and `S_INDICES` (u32) where the narrow
    /// sections were, every other section copied as written.
    fn with_wide_s_pattern(buf: &[u8], s: &CodedCsr) -> Vec<u8> {
        let wide = s.to_csr();
        rewrite_sections(buf, |cw, id, payload| match id {
            sec::S_INDPTR32 => write_section(cw, sec::S_INDPTR, wide.indptr(), u64_le).unwrap(),
            sec::S_INDICES16 => {
                write_section(cw, sec::S_INDICES, wide.indices(), u32::to_le_bytes).unwrap()
            }
            id => cw.section_bytes(id, payload).unwrap(),
        })
    }

    /// An index that stores `S`'s pattern wide, as one whose `S` has more
    /// than 2¹⁶ columns does, loads — on the heap and mapped,
    /// for the default and the full variant — keeps the pattern wide,
    /// accounts it at 8 bytes per row pointer and 4 per column, and
    /// answers bit for bit like a fresh index, with equal iterations and
    /// residuals. Saved again, it writes the same bytes.
    #[test]
    fn narrow_s_wide_pattern_file_loads_bit_identical() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(variant)).unwrap();
            let s = fresh.schur();
            assert!(s.pattern().is_narrow());
            let old = with_wide_s_pattern(&to_bytes(&fresh, Some(&g)), s);
            let ids: Vec<u32> = bepi_map::parse_layout(&old)
                .unwrap()
                .iter()
                .map(|e| e.id)
                .collect();
            assert!(ids.contains(&sec::S_INDPTR) && ids.contains(&sec::S_INDICES));
            assert!(!ids.contains(&sec::S_INDPTR32) && !ids.contains(&sec::S_INDICES16));

            let path = temp_path("wide_s");
            std::fs::write(&path, &old).unwrap();
            let (heap, _) = load_with_graph(&old[..]).unwrap();
            let (mapped, mapped_graph) = load_mapped_file(&path).unwrap();
            verify_mapped_file(&path).unwrap();
            let (n2, nnz) = (fresh.stats().n2, s.nnz());
            let wide_extra = 4 * (n2 + 1) + 2 * nnz;
            for (b, what) in [(&heap, "heap"), (&mapped, "mapped")] {
                assert!(!b.schur().pattern().is_narrow(), "{what}");
                assert_eq!(b.schur(), s, "{what}");
                assert_eq!(
                    b.preprocessed_bytes(),
                    fresh.preprocessed_bytes() + wide_extra,
                    "{what}"
                );
                if variant == BePiVariant::Full {
                    assert_precond_bytes(b);
                    let ilu = b.preconditioner().unwrap();
                    assert!(ilu.shares_pattern(b.schur().pattern()), "{what}");
                    assert_eq!(
                        bits32(ilu.values()),
                        bits32(fresh.preconditioner().unwrap().values())
                    );
                }
                for seed in [0usize, 31, 100] {
                    let (got, want) = (b.query(seed).unwrap(), fresh.query(seed).unwrap());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.scores), bits(&want.scores), "{what} seed {seed}");
                    assert_eq!(got.iterations, want.iterations);
                    assert_eq!(got.residual.to_bits(), want.residual.to_bits());
                }
            }
            assert_eq!(to_bytes(&heap, Some(&g)), old);
            assert_eq!(to_bytes(&mapped, mapped_graph.as_ref()), old);
            drop(mapped);
            std::fs::remove_file(&path).ok();
        }
    }

    /// A narrow `S` pattern costs `4·(n2+1) + 2·nnz` bytes — in the file's
    /// two sections, and in the memory report after preprocess and after
    /// either load.
    #[test]
    fn narrow_s_pattern_is_accounted_exactly() {
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let s = fresh.schur();
        let (n2, nnz) = (fresh.stats().n2, s.nnz());
        let want = 4 * (n2 + 1) + 2 * nnz;
        assert!(s.pattern().is_narrow());
        assert_eq!(bepi_sparse::MemBytes::mem_bytes(s.pattern()), want);

        let path = temp_path("narrow_bytes");
        save_file_v6(&fresh, None, &path).unwrap();
        let layout = bepi_map::parse_layout(&std::fs::read(&path).unwrap()).unwrap();
        let len_of = |id| layout.iter().find(|e| e.id == id).map(|e| e.len as usize);
        assert_eq!(len_of(sec::S_INDPTR32), Some(4 * (n2 + 1)));
        assert_eq!(len_of(sec::S_INDICES16), Some(2 * nnz));
        assert_eq!(
            (len_of(sec::S_INDPTR), len_of(sec::S_INDICES)),
            (None, None)
        );
        let heap = load_file(&path).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        for (b, split) in [
            (&fresh, Bytes::heap(want)),
            (&heap, Bytes::heap(want)),
            (&mapped, Bytes::mapped(want)),
        ] {
            let p = b.schur().pattern();
            assert!(p.is_narrow());
            assert_eq!(p.bytes(), split);
            let values = bepi_sparse::MemBytes::mem_bytes(b.schur().values());
            let report = b.memory_report();
            let schur = report.iter().find(|c| c.name == "schur").unwrap();
            assert_eq!(schur.bytes.total(), want + values);
            // The factors share the narrow pattern: 4 bytes per non-zero
            // and 8 per row, nothing for the pattern.
            assert_precond_bytes(b);
            assert!(b.preconditioner().unwrap().shares_pattern(p));
        }
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    /// Crafted patterns with valid CRCs: a column past the matrix and a
    /// decreasing row pointer, in `S`'s wide sections (as an `S` with more
    /// than 2¹⁶ columns stores them), in its narrow sections (a
    /// column in `n2..2¹⁶`, which a `u16` holds), and in an `H` block's
    /// narrow sections. The
    /// heap load, which reads every byte for its CRCs, fails each one with
    /// an error naming the section, where the first query used to panic.
    #[test]
    fn narrow_and_wide_crafted_patterns_fail_the_heap_load() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let n2 = fresh.stats().n2;
        let narrow = to_bytes(&fresh, None);
        let wide = with_wide_s_pattern(&narrow, fresh.schur());
        let s = fresh.schur().to_csr();
        let h21 = fresh.coupling_blocks().1.to_csr();
        assert!(h21.nnz() > 0 && s.nnz() > 2 && n2 + 1000 < 1 << 16);
        let far = |cols: &[u32], past: usize| {
            let mut cols = cols.to_vec();
            let mid = cols.len() / 2;
            cols[mid] = past as u32;
            cols
        };
        let dip = |ptr: &[usize]| {
            let mut ptr = ptr.to_vec();
            let i = ptr.iter().position(|&p| p > 0).unwrap();
            ptr[i] = ptr[i + 1] + 1;
            ptr
        };
        let (s_cols, s_ptr) = (far(s.indices(), n2 + 1000), dip(s.indptr()));
        let h21_cols = far(h21.indices(), fresh.stats().n1 + 7);
        let narrow16 = |v: &[u32]| v.iter().map(|&c| c as u16).collect::<Vec<u16>>();
        let narrow32 = |v: &[usize]| v.iter().map(|&p| p as u32).collect::<Vec<u32>>();
        type Edit<'a> = Box<dyn Fn(&mut ContainerWriter<Vec<u8>>, u32, &[u8]) -> bool + 'a>;
        let cases: Vec<(&str, &[u8], Edit, &str)> = vec![
            (
                "wide S column",
                &wide,
                Box::new(|cw, id, _| {
                    id == sec::S_INDICES && write_section(cw, id, &s_cols, u32::to_le_bytes).is_ok()
                }),
                "section s.indices: column",
            ),
            (
                "wide S row pointer",
                &wide,
                Box::new(|cw, id, _| {
                    id == sec::S_INDPTR && write_section(cw, id, &s_ptr, u64_le).is_ok()
                }),
                "section s.indptr: row pointers decrease",
            ),
            (
                "narrow S column",
                &narrow,
                Box::new(|cw, id, _| {
                    id == sec::S_INDICES16
                        && write_section(cw, id, &narrow16(&s_cols), u16::to_le_bytes).is_ok()
                }),
                "section s.indices16: column",
            ),
            (
                "narrow S row pointer",
                &narrow,
                Box::new(|cw, id, _| {
                    id == sec::S_INDPTR32
                        && write_section(cw, id, &narrow32(&s_ptr), u32::to_le_bytes).is_ok()
                }),
                "section s.indptr32: row pointers decrease",
            ),
            (
                "H21 column",
                &narrow,
                Box::new(|cw, id, _| {
                    id == sec::H21 + sec::INDICES16
                        && write_section(cw, id, &narrow16(&h21_cols), u16::to_le_bytes).is_ok()
                }),
                "section h21.indices16: column",
            ),
        ];
        for (name, buf, edit, want) in cases {
            let bad = rewrite_sections(buf, |cw, id, payload| {
                if !edit(cw, id, payload) {
                    cw.section_bytes(id, payload).unwrap();
                }
            });
            assert_ne!(bad, *buf, "{name}: the edit must land");
            let err = load(&bad[..]).unwrap_err().to_string();
            assert!(err.contains(want), "{name}: {err}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that every value-coded matrix of `b` holds `b`'s one value
    /// table: the same memory, not an equal copy.
    fn assert_one_table(b: &BePi, what: &str) {
        let table = b.value_table().expect("an index with coded matrices");
        for (name, m) in b.stored_matrices() {
            if let Some(t) = m.table() {
                assert!(
                    std::ptr::eq(t.as_slice(), table.as_slice()),
                    "{what}: {name} holds its own table"
                );
            }
        }
    }

    /// Every matrix of a preprocessed, numerically rebuilt, heap-loaded or mapped
    /// index is narrow and value-coded on these graphs, and all hold one
    /// table. `S` is coded first, so its codes are the ones it gets alone
    /// and the table starts with its values; the others append theirs.
    /// Saved again from either load, the file is byte-stable, and either
    /// load rebuilds like the index it was saved from.
    #[test]
    fn compact_index_matrices_share_one_value_table() {
        use crate::bepi::tests::{numeric_rebuild, removable_edge};
        let g = generators::rmat(8, 900, generators::RmatParams::default(), 5).unwrap();
        let g = generators::inject_deadends(&g, 0.1, 3).unwrap();
        let edge = removable_edge(&g);
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(variant)).unwrap();
            let s_alone = CodedCsr::encode(&fresh.schur().to_csr());
            let (s_table, s_codes) = coded_parts(&s_alone);
            let (table, codes) = coded_parts(fresh.schur());
            assert_eq!(codes, s_codes);
            assert_eq!(bits(&table[..s_table.len()]), bits(s_table));
            assert!(table.len() > s_table.len(), "the H blocks add values");
            for (name, m) in fresh.stored_matrices() {
                assert!(m.is_coded() && m.pattern().is_narrow(), "{name}");
                assert!(m.nnz() > 0, "{name} is empty on this graph");
            }
            assert_one_table(&fresh, "preprocess");

            let plan = fresh.symbolic_plan();
            let (g_new, refac) = numeric_rebuild(&fresh, &g, edge);
            assert_one_table(&refac, "numeric rebuild");
            let frozen = BePi::preprocess_with_plan(&g_new, refac.config(), &plan).unwrap();
            assert_eq!(
                bits(refac.value_table().unwrap()),
                bits(frozen.value_table().unwrap())
            );

            let path = temp_path("one_table");
            save_file_v6(&refac, None, &path).unwrap();
            let heap = load_file(&path).unwrap();
            let (mapped, _) = load_mapped_file(&path).unwrap();
            assert_one_table(&heap, "heap load");
            assert_one_table(&mapped, "mapped load");
            assert!(mapped.value_table().unwrap().is_mapped());
            let saved = std::fs::read(&path).unwrap();
            let edge = removable_edge(&g_new);
            let (_, want) = numeric_rebuild(&refac, &g_new, edge);
            for (b, what) in [(&heap, "heap"), (&mapped, "mapped")] {
                assert_eq!(to_bytes(b, None), saved, "{what} re-save");
                let rebuilt = numeric_rebuild(b, &g_new, edge).1;
                assert_one_table(&rebuilt, what);
                crate::bepi::tests::assert_same_answers(&rebuilt, &want, &[0, 100], what);
            }
            for seed in [0usize, 40, 200] {
                let want = frozen.query(seed).unwrap();
                for b in [&refac, &heap, &mapped] {
                    let got = b.query(seed).unwrap();
                    assert_eq!(bits(&got.scores), bits(&want.scores), "seed {seed}");
                    assert_eq!(got.residual.to_bits(), want.residual.to_bits());
                }
            }
            drop(mapped);
            std::fs::remove_file(&path).ok();
        }
    }

    /// An unweighted graph whose index holds every compact form: 200 nodes
    /// with 1 000 random edges, then 100 dead ends of which only 10 have
    /// an in-link. `H12` and `H21` store one code per column, and `H31`
    /// and `H32` only their few non-empty rows. (The R-MAT generator
    /// merges repeated edges into weights, so its `H` columns mix values.)
    pub(crate) fn compact_forms_graph() -> Graph {
        let er = generators::erdos_renyi(200, 1_000, 17).unwrap();
        let mut edges: Vec<(usize, usize)> = (0..200)
            .flat_map(|u| er.out_neighbors(u).map(move |v| (u, v)))
            .collect();
        edges.extend((0..10).map(|i| (i * 7, 200 + i * 9)));
        Graph::from_edges(300, &edges).unwrap()
    }

    /// The memory report charges each stored matrix exactly the bytes of
    /// its sections in the file — row ids and column codes included —
    /// the value table once, under `schur`, and the larger `H11` blocks'
    /// list under `u1_inv`: after preprocess, heap load and mapped load,
    /// the report adds up to every section of the file but META and the
    /// graph; and the file saved again from either load is byte-stable.
    /// On an R-MAT graph, whose repeated edges weigh its `H` blocks, and
    /// on one whose index holds every compact form
    /// ([`compact_forms_graph`], which must write them).
    #[test]
    fn compact_memory_report_counts_the_table_once() {
        let rmat = generators::rmat(8, 900, generators::RmatParams::default(), 3).unwrap();
        for (g, compact) in [(rmat, false), (compact_forms_graph(), true)] {
            memory_report_counts_every_section(&g, compact);
        }
    }

    /// [`compact_memory_report_counts_the_table_once`] on `g`; `compact`
    /// says `g` is unweighted, so its `H12` and `H21` code per column.
    fn memory_report_counts_every_section(g: &Graph, compact: bool) {
        let fresh = BePi::preprocess(g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let path = temp_path("table_once");
        save_file_v6(&fresh, Some(g), &path).unwrap();
        let layout = bepi_map::parse_layout(&std::fs::read(&path).unwrap()).unwrap();
        let bytes_of = |ids: &dyn Fn(u32) -> bool| -> usize {
            layout
                .iter()
                .filter(|e| ids(e.id))
                .map(|e| e.len as usize)
                .sum()
        };
        let table_bytes = bytes_of(&|id| id == sec::S_VALUE_TABLE);
        assert_eq!(table_bytes, 8 * fresh.value_table().unwrap().len());
        let mut want: Vec<(&str, usize)> = vec![
            ("perm", bytes_of(&|id| id == sec::PERM_NEW_OF_OLD)),
            (
                "precond",
                bytes_of(&|id| id == sec::ILU_VALUES_F32 || id == sec::ILU_DIAG),
            ),
        ];
        for ((base, _), (name, _)) in MATRICES.iter().zip(fresh.stored_matrices()) {
            let own = bytes_of(&|id| id & !0xf == *base && id != sec::S_VALUE_TABLE);
            let extra = match *base {
                sec::S => table_bytes,
                sec::U_INV => bytes_of(&|id| id == sec::H11_LARGER_BLOCKS),
                _ => 0,
            };
            want.push((name, own + extra));
        }
        // The compact forms' sections are in the file, so their bytes are
        // pinned too: `H12` and `H21` store every row, one code per column
        // on the unweighted graph and one per non-zero on the weighted one;
        // `H31` and `H32` store their non-empty rows only, on both.
        let has = |id| layout.iter().any(|e| e.id == id);
        assert!(has(sec::H11_LARGER_BLOCKS));
        for base in [sec::H12, sec::H21, sec::H31, sec::H32] {
            let (columns, rows) = (base + sec::COLUMN_CODES, base + sec::ROW_IDS);
            let coupling_to_s = base < sec::H31;
            assert_eq!(
                has(columns),
                compact && coupling_to_s,
                "{}",
                sec::name(columns)
            );
            assert_eq!(has(rows), !coupling_to_s, "{}", sec::name(rows));
        }
        let total: usize = want.iter().map(|(_, b)| b).sum();
        assert_eq!(
            total,
            bytes_of(&|id| {
                ![
                    sec::META,
                    sec::GRAPH_INDPTR,
                    sec::GRAPH_INDICES,
                    sec::GRAPH_VALUES,
                ]
                .contains(&id)
            })
        );
        let (heap, heap_graph) = load_file_with_graph(&path).unwrap();
        let (mapped, mapped_graph) = load_mapped_file(&path).unwrap();
        // Saved again from either load, the file is byte-stable.
        let saved = std::fs::read(&path).unwrap();
        assert_eq!(to_bytes(&heap, heap_graph.as_ref()), saved, "heap re-save");
        assert_eq!(
            to_bytes(&mapped, mapped_graph.as_ref()),
            saved,
            "mapped re-save"
        );
        for (b, what) in [(&fresh, "fresh"), (&heap, "heap"), (&mapped, "mapped")] {
            let report = b.memory_report();
            for (name, bytes) in &want {
                let c = report.iter().find(|c| c.name == *name).unwrap();
                assert_eq!(c.bytes.total(), *bytes, "{what}: {name}");
            }
            assert_eq!(b.bytes().total(), total, "{what}");
            assert_eq!(b.preprocessed_bytes(), total, "{what}");
        }
        assert_eq!(mapped.heap_bytes(), 0);
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    /// Hostile stored-matrix sections with valid CRCs. The heap load,
    /// which reads every byte, fails each with an error naming the
    /// matrix or section: a code past the table, a column past the
    /// matrix, a decreasing row pointer, codes without a table, and both
    /// value encodings at once. The mapped open keeps its `O(1)` checks:
    /// it fails the last two too; a code past the table there reads NaN,
    /// so the query fails instead of answering.
    #[test]
    fn compact_hostile_matrix_sections_fail_cleanly() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let buf = to_bytes(&fresh, None);
        let table_len = fresh.value_table().unwrap().len();
        let (h12, h21) = (fresh.coupling_blocks().0, fresh.coupling_blocks().1);
        let l_inv = fresh.h11_factors().l_inv();
        assert!(h12.nnz() > 2 && h21.nnz() > 2 && l_inv.nnz() > 2);
        type Edit<'a> = &'a dyn Fn(&mut ContainerWriter<Vec<u8>>, &[u8]);
        let edit = |target: u32, f: Edit| {
            rewrite_sections(&buf, |cw, id, payload| {
                if id == target {
                    f(cw, payload)
                } else {
                    cw.section_bytes(id, payload).unwrap()
                }
            })
        };
        let mut h21_codes = coded_parts(h21).1.to_vec();
        h21_codes[h21.nnz() / 2] = table_len as u16;
        let past_table = edit(sec::H21 + sec::VALUE_CODES, &|cw, _| {
            write_section(
                cw,
                sec::H21 + sec::VALUE_CODES,
                &h21_codes,
                u16::to_le_bytes,
            )
            .unwrap()
        });
        let far_col = edit(sec::H12 + sec::INDICES16, &|cw, p| {
            let mut cols: Vec<u16> = p
                .chunks(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]))
                .collect();
            cols[0] = fresh.stats().n2 as u16;
            write_section(cw, sec::H12 + sec::INDICES16, &cols, u16::to_le_bytes).unwrap()
        });
        let dip = edit(sec::L_INV + sec::INDPTR32, &|cw, p| {
            let mut ptr: Vec<u32> = p
                .chunks(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            let i = ptr.iter().position(|&x| x > 0).unwrap();
            ptr[i] = ptr[i + 1] + 1;
            write_section(cw, sec::L_INV + sec::INDPTR32, &ptr, u32::to_le_bytes).unwrap()
        });
        let heap_only = [
            (
                &past_table,
                format!("v6 index: H21: value code {table_len} at non-zero"),
            ),
            (&far_col, "section h12.indices16: column".to_string()),
            (
                &dip,
                "section l_inv.indptr32: row pointers decrease".to_string(),
            ),
        ];
        for (bad, want) in &heap_only {
            assert_ne!(*bad, &buf);
            let err = load(&bad[..]).unwrap_err().to_string();
            assert!(err.contains(want.as_str()), "{want}: {err}");
        }
        let path = temp_path("hostile_codes");
        std::fs::write(&path, &past_table).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        let err = mapped.query(0).unwrap_err().to_string();
        assert!(err.contains("did not converge"), "{err}");
        drop(mapped);
        std::fs::remove_file(&path).ok();

        let no_table = edit(sec::S_VALUE_TABLE, &|_, _| {});
        let both = edit(sec::H21 + sec::VALUE_CODES, &|cw, p| {
            write_section(
                cw,
                sec::H21 + sec::VALUES,
                h21.to_csr().values(),
                f64::to_le_bytes,
            )
            .unwrap();
            cw.section_bytes(sec::H21 + sec::VALUE_CODES, p).unwrap();
        });
        for (bad, want) in [
            (
                &no_table,
                "has value codes (s.value_codes) but the index has no value table (s.value_table)",
            ),
            (
                &both,
                "H21 carries both plain values (h21.values) and value codes (h21.value_codes)",
            ),
        ] {
            for err in load_errors(bad, "hostile_matrix") {
                assert!(err.contains(want), "{want}: {err}");
            }
        }
        hostile_compact_form_sections_fail_cleanly();
    }

    /// The sections of the compact forms, crafted with valid CRCs on an
    /// index that holds them all ([`compact_forms_graph`]). The heap load
    /// fails each with an error naming the section: a stored row id out
    /// of range, out of order or repeated; a column code past the table;
    /// and a larger `H11` block that overlaps the one before it, overruns
    /// `n1` or is below 2 × 2. Those the mapped open does not read, so it
    /// opens them. A row-id count that does not match the row pointers,
    /// and a column-code array whose length is not the column count, fail
    /// both loads: the mapped open checks those lengths in `O(1)`.
    fn hostile_compact_form_sections_fail_cleanly() {
        let fresh = BePi::preprocess(&compact_forms_graph(), &BePiConfig::default()).unwrap();
        let buf = to_bytes(&fresh, None);
        let table_len = fresh.value_table().unwrap().len() as u32;
        let (n1, n3) = (fresh.stats().n1 as u32, fresh.stats().n3 as u32);
        let (h12, _, h31, _) = fresh.coupling_blocks();
        assert!(h12.is_per_column() && h31.stored_rows().unwrap().len() >= 2);
        let larger = fresh.h11_factors().larger_blocks();
        assert!(larger.len() >= 4 && larger[1] >= 2, "two larger blocks");
        let (rows_id, codes_id) = (sec::H31 + sec::ROW_IDS, sec::H12 + sec::COLUMN_CODES);
        let heap_only = [
            (
                edit_elems(&buf, rows_id, true, |r| *r.last_mut().unwrap() = n3),
                format!("section h31.row_ids: row id {n3} at stored row"),
            ),
            (
                edit_elems(&buf, rows_id, true, |r| r.swap(0, 1)),
                "section h31.row_ids: row ids do not strictly increase at stored row 1".into(),
            ),
            (
                edit_elems(&buf, rows_id, true, |r| r[1] = r[0]),
                "section h31.row_ids: row ids do not strictly increase at stored row 1".into(),
            ),
            (
                edit_elems(&buf, codes_id, false, |c| c[0] = table_len),
                format!("section h12.column_codes: value code {table_len} at column 0 is past"),
            ),
            (
                edit_elems(&buf, sec::H11_LARGER_BLOCKS, true, |b| b[2] = b[0] + 1),
                "section h11.larger_blocks: block 1".to_string() + " (start ",
            ),
            (
                edit_elems(&buf, sec::H11_LARGER_BLOCKS, true, |b| {
                    let last = b.len() - 2;
                    b[last] = n1 - 1;
                }),
                format!("overruns the {n1} rows of H11"),
            ),
            (
                edit_elems(&buf, sec::H11_LARGER_BLOCKS, true, |b| b[1] = 1),
                "section h11.larger_blocks: block 0 (start".to_string(),
            ),
        ];
        let wants_too = [
            "",
            "",
            "",
            "",
            "overlaps the block before it",
            "section h11.larger_blocks: block",
            "is below 2 x 2",
        ];
        for ((bad, want), also) in heap_only.iter().zip(wants_too) {
            assert_ne!(bad, &buf, "{want}");
            let err = load(&bad[..]).unwrap_err().to_string();
            assert!(
                err.contains(want.as_str()) && err.contains(also),
                "{want}: {err}"
            );
            let path = temp_path("hostile_compact");
            std::fs::write(&path, bad).unwrap();
            assert!(load_mapped_file(&path).is_ok(), "{want}");
            std::fs::remove_file(&path).ok();
        }
        let both = [
            (
                edit_elems(&buf, rows_id, true, |r| {
                    r.pop();
                }),
                "section h31.row_ids: ",
            ),
            (
                edit_elems(&buf, codes_id, false, |c| c.push(0)),
                "section h12.column_codes: ",
            ),
        ];
        let ncols = h12.ncols();
        for (bad, want) in both {
            for err in load_errors(&bad, "hostile_lengths") {
                assert!(err.contains(want), "{want}: {err}");
                assert!(
                    err.contains("row pointers") || err.contains(&format!("for {ncols} columns")),
                    "{err}"
                );
            }
        }
    }

    /// A crafted permutation or ILU(0) diagonal position with valid CRCs
    /// fails the heap load, which reads every byte, with an error naming
    /// the section — where the first query's scatter or sweep used to
    /// panic or answer wrongly: a map entry past the node count, a map
    /// that is not a bijection, a diagonal position past its row, and one
    /// on an off-diagonal entry.
    #[test]
    fn heap_load_rejects_crafted_permutation_and_diag_pos() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let buf = to_bytes(&fresh, None);
        let n = fresh.node_count() as u32;
        let perm = fresh.permutation();
        let ilu = fresh.preconditioner().unwrap();
        let s = fresh.schur();
        // A row of S with an off-diagonal entry.
        let row = (0..s.nrows()).find(|&i| s.row_iter(i).count() > 1).unwrap();
        let edit = |target: u32, f: &dyn Fn(&mut ContainerWriter<Vec<u8>>)| {
            rewrite_sections(&buf, |cw, id, payload| {
                if id == target {
                    f(cw)
                } else {
                    cw.section_bytes(id, payload).unwrap()
                }
            })
        };
        let mut fwd = perm.new_of_old().to_vec();
        fwd[3] = n + 5;
        let mut twice = perm.new_of_old().to_vec();
        twice[1] = twice[0];
        let (mut past, mut off) = (ilu.diag_pos().to_vec(), ilu.diag_pos().to_vec());
        past[row] = s.row_iter(row).count();
        off[row] = (off[row] + 1) % s.row_iter(row).count();
        let cases = [
            (
                edit(sec::PERM_NEW_OF_OLD, &|cw| {
                    write_section(cw, sec::PERM_NEW_OF_OLD, &fwd, u32::to_le_bytes).unwrap()
                }),
                format!(
                    "section perm.new_of_old: entry 3 is {}, out of range",
                    n + 5
                ),
            ),
            (
                edit(sec::PERM_NEW_OF_OLD, &|cw| {
                    write_section(cw, sec::PERM_NEW_OF_OLD, &twice, u32::to_le_bytes).unwrap()
                }),
                format!(
                    "section perm.new_of_old: invalid permutation: image {} hit twice (by 0 and 1)",
                    twice[0]
                ),
            ),
            (
                edit(sec::ILU_DIAG, &|cw| {
                    write_section(cw, sec::ILU_DIAG, &past, u64_le).unwrap()
                }),
                format!(
                    "section ilu.diag_pos: diagonal position {} of row {row} is past",
                    past[row]
                ),
            ),
            (
                edit(sec::ILU_DIAG, &|cw| {
                    write_section(cw, sec::ILU_DIAG, &off, u64_le).unwrap()
                }),
                format!(
                    "section ilu.diag_pos: diagonal position {} of row {row} points at column",
                    off[row]
                ),
            ),
        ];
        for (bad, want) in &cases {
            assert_ne!(bad, &buf);
            let err = load(&bad[..]).unwrap_err().to_string();
            assert!(err.contains(want.as_str()), "{want}: {err}");
        }
    }

    /// `buf` with section `target`'s `u16` or `u32` elements (by `wide`)
    /// rewritten by `f`, every other section copied.
    fn edit_elems(buf: &[u8], target: u32, wide: bool, f: impl Fn(&mut Vec<u32>)) -> Vec<u8> {
        rewrite_sections(buf, |cw, id, payload| {
            if id != target {
                return cw.section_bytes(id, payload).unwrap();
            }
            let size = if wide { 4 } else { 2 };
            let mut v: Vec<u32> = payload
                .chunks(size)
                .map(|b| b.iter().rev().fold(0, |acc, &x| (acc << 8) | u32::from(x)))
                .collect();
            f(&mut v);
            if wide {
                write_section(cw, id, &v, u32::to_le_bytes).unwrap()
            } else {
                let v: Vec<u16> = v.iter().map(|&x| x as u16).collect();
                write_section(cw, id, &v, u16::to_le_bytes).unwrap()
            }
        })
    }

    /// Crafted stored rows with valid CRCs and in-range columns: columns
    /// out of order or repeated in a row of any stored matrix, and `H11`
    /// factor entries outside their own diagonal block or triangle. The
    /// heap load, which reads every byte, fails each with an error naming
    /// the section. The mapped open keeps its `O(1)` checks and opens the
    /// out-of-block files without panicking.
    #[test]
    fn heap_load_rejects_unsorted_and_out_of_block_rows() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let buf = to_bytes(&fresh, None);
        let h11 = fresh.h11_factors();
        let h21 = fresh.coupling_blocks().1;
        let s = fresh.schur();
        let long_row = |m: &CodedCsr| (0..m.nrows()).find(|&r| m.row_iter(r).count() > 1).unwrap();
        let (h21_row, s_row) = (long_row(h21), long_row(s));
        let (h21_k, s_k) = (h21.entries(h21_row).start, s.entries(s_row).start);
        // A block larger than 1 × 1 past the first row, and its place
        // among the stored rows.
        let (mut start, mut stored) = (0, 0);
        for size in h11.block_sizes() {
            if size > 1 && start > 0 {
                break;
            }
            stored += if size > 1 { size } else { 0 };
            start += size;
        }
        let l_k = h11.l_inv().pattern().row_ptr(stored);
        assert_eq!(h11.l_inv().pattern().col(l_k), start);
        // U's second row of that block starts on its diagonal.
        let u_k = h11.u_inv().pattern().row_ptr(stored + 1);
        assert_eq!(h11.u_inv().pattern().col(u_k), start + 1);
        let cases = [
            (
                edit_elems(&buf, sec::H21 + sec::INDICES16, false, |c| {
                    c.swap(h21_k, h21_k + 1)
                }),
                format!("section h21.indices16: columns of row {h21_row} do not"),
                false,
            ),
            (
                edit_elems(&buf, sec::S_INDICES16, false, |c| c[s_k + 1] = c[s_k]),
                format!("section s.indices16: columns of row {s_row} do not"),
                false,
            ),
            (
                edit_elems(&buf, sec::L_INV + sec::INDICES16, false, |c| c[l_k] -= 1),
                format!(
                    "section l_inv.indices16: stored row {stored} (row {start} of \
                     the"
                ),
                true,
            ),
            (
                edit_elems(&buf, sec::U_INV + sec::INDICES16, false, |c| c[u_k] -= 1),
                format!("has column {start}, outside the block's upper triangle"),
                true,
            ),
        ];
        for (i, (bad, want, maps)) in cases.iter().enumerate() {
            assert_ne!(bad, &buf, "case {i}");
            let err = load(&bad[..]).unwrap_err().to_string();
            assert!(err.contains(want.as_str()), "{want}: {err}");
            if *maps {
                let path = temp_path("out_of_block");
                std::fs::write(&path, bad).unwrap();
                assert!(load_mapped_file(&path).is_ok(), "case {i}");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// Crafted 1 × 1 block sections with valid CRCs: a code past the
    /// value table fails the heap load and poisons the mapped answer with
    /// NaN instead of answering; factors with a row count other than the
    /// blocks larger than 1 × 1 have, singleton values that do not match
    /// the 1 × 1 block count, and both encodings at once fail both loads.
    #[test]
    fn compact_hostile_singleton_sections_fail_cleanly() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        let buf = to_bytes(&fresh, None);
        let table_len = fresh.value_table().unwrap().len() as u32;
        let h11 = fresh.h11_factors();
        let ones = h11.singletons().len();
        assert!(ones > 1 && h11.l_inv().nrows() > 0);
        let past = edit_elems(&buf, sec::U_INV_SINGLETON_CODES, false, |c| {
            c[0] = table_len
        });
        let err = load(&past[..]).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "U1^-1 1x1 blocks: value code {table_len} at non-zero 0"
            )),
            "{err}"
        );
        let path = temp_path("hostile_singleton");
        std::fs::write(&path, &past).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        // The first 1 × 1 block's node answers NaN, or the solve fails.
        let first = h11
            .block_sizes()
            .iter()
            .take_while(|&&s| s > 1)
            .sum::<usize>();
        let node = fresh.permutation().old_of_new()[first] as usize;
        match mapped.query(node) {
            Ok(r) => assert!(r.scores[node].is_nan(), "{}", r.scores[node]),
            Err(e) => assert!(e.to_string().contains("did not converge"), "{e}"),
        }
        drop(mapped);
        std::fs::remove_file(&path).ok();

        let extra_row = edit_elems(&buf, sec::L_INV + sec::INDPTR32, true, |p| {
            p.push(*p.last().unwrap())
        });
        let short = edit_elems(&buf, sec::U_INV_SINGLETON_CODES, false, |c| {
            c.pop();
        });
        let both = rewrite_sections(&buf, |cw, id, payload| {
            if id == sec::U_INV_SINGLETON_CODES {
                write_section(
                    cw,
                    sec::U_INV_SINGLETON_VALUES,
                    &vec![1.0; ones],
                    f64::to_le_bytes,
                )
                .unwrap();
            }
            cw.section_bytes(id, payload).unwrap()
        });
        let rows = h11.l_inv().nrows();
        for (bad, want) in [
            (
                extra_row,
                format!("L1^-1: vector length {}, expected {}", rows + 2, rows + 1),
            ),
            // One value short leaves one more row to the factors.
            (
                short,
                format!("L1^-1: vector length {}, expected {}", rows + 1, rows + 2),
            ),
            (
                both,
                "U1^-1 1x1 blocks carries both plain values (u_inv.singleton_values) and value \
                 codes (u_inv.singleton_codes)"
                    .to_string(),
            ),
        ] {
            for err in load_errors(&bad, "hostile_singleton") {
                assert!(err.contains(&want), "{want}: {err}");
            }
        }
    }
}
