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
//! Both load paths share one decoder and produce bit-identical query
//! results. Files written in the earlier streamed formats (v1–v5) are
//! rejected with an error naming their version: rebuild them from the
//! edge list with `bepi preprocess`.

use crate::bepi::{BePi, BePiConfig, PhaseTiming, RawParts};
use crate::rwr::RwrSolver;
use bepi_graph::Graph;
use bepi_map::{sections as sec, ContainerWriter, MapError, MappedIndex, SectionEntry};
use bepi_solver::Ilu0;
use bepi_sparse::{CodedCsr, CodedValues, Csr, Pattern, Permutation, Result, SparseError, Storage};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::time::Duration;

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

fn write_u32s_section<W: Write>(cw: &mut ContainerWriter<W>, id: u32, s: &[u32]) -> Result<()> {
    cw.begin_section(id)?;
    for &v in s {
        cw.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u16s_section<W: Write>(cw: &mut ContainerWriter<W>, id: u32, s: &[u16]) -> Result<()> {
    cw.begin_section(id)?;
    for &v in s {
        cw.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u64s_section<W: Write>(cw: &mut ContainerWriter<W>, id: u32, s: &[usize]) -> Result<()> {
    cw.begin_section(id)?;
    for &v in s {
        cw.write_all(&(v as u64).to_le_bytes())?;
    }
    Ok(())
}

fn write_f32s_section<W: Write>(cw: &mut ContainerWriter<W>, id: u32, s: &[f32]) -> Result<()> {
    cw.begin_section(id)?;
    for &v in s {
        cw.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_f64s_section<W: Write>(cw: &mut ContainerWriter<W>, id: u32, s: &[f64]) -> Result<()> {
    cw.begin_section(id)?;
    for &v in s {
        cw.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Writes a CSR's three arrays as three sections. Dimensions are not
/// stored: every persisted matrix's shape is derivable from the META
/// partition sizes `(n1, n2, n3)`.
fn write_csr_sections<W: Write>(
    cw: &mut ContainerWriter<W>,
    ids: (u32, u32, u32),
    m: &Csr,
) -> Result<()> {
    write_u64s_section(cw, ids.0, m.indptr())?;
    write_u32s_section(cw, ids.1, m.indices())?;
    write_f64s_section(cw, ids.2, m.values())
}

/// Writes `S`: its pattern wide ([`sec::S_INDPTR`], [`sec::S_INDICES`])
/// or narrow ([`sec::S_INDPTR32`], [`sec::S_INDICES16`]), then its values
/// plain ([`sec::S_VALUES`]) or as the value table and codes
/// ([`sec::S_VALUE_TABLE`], [`sec::S_VALUE_CODES`]).
fn write_schur_sections<W: Write>(cw: &mut ContainerWriter<W>, s: &CodedCsr) -> Result<()> {
    match s.pattern() {
        Pattern::Wide { indptr, indices } => {
            write_u64s_section(cw, sec::S_INDPTR, indptr)?;
            write_u32s_section(cw, sec::S_INDICES, indices)?;
        }
        Pattern::Narrow { indptr, indices } => {
            write_u32s_section(cw, sec::S_INDPTR32, indptr)?;
            write_u16s_section(cw, sec::S_INDICES16, indices)?;
        }
    }
    match s.values() {
        CodedValues::Plain(values) => write_f64s_section(cw, sec::S_VALUES, values),
        CodedValues::Coded { table, codes } => {
            write_f64s_section(cw, sec::S_VALUE_TABLE, table)?;
            write_u16s_section(cw, sec::S_VALUE_CODES, codes)
        }
    }
}

/// Writes an index (format v6): the `bepi-map` section container with
/// 64-byte-aligned little-endian payloads and per-section CRC-32s. The
/// file:
///
/// * can be served zero-copy via [`load_mapped_file`] (open time does
///   not depend on index size, pages are shared across processes);
/// * stores `S` the way it is held: value-coded (a table of its distinct
///   values plus a `u16` code per non-zero) or plain, on a narrow pattern
///   (`u32` row pointers, `u16` column indices) or a wide one;
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

    // META: config + partition sizes + run statistics as little-endian
    // scalars. Small, so the mapped loader verifies its CRC eagerly.
    cw.begin_section(sec::META)?;
    write_config(&mut cw, bepi.config())?;
    write_u64(&mut cw, stats.n1 as u64)?;
    write_u64(&mut cw, stats.n2 as u64)?;
    write_u64(&mut cw, stats.n3 as u64)?;
    write_u64(&mut cw, stats.slashburn_iterations as u64)?;
    write_f64(&mut cw, stats.elapsed.as_secs_f64())?;
    write_u64(&mut cw, stats.phases.len() as u64)?;
    for phase in &stats.phases {
        let name = phase.name.as_bytes();
        write_u64(&mut cw, name.len() as u64)?;
        cw.write_all(name)?;
        write_f64(&mut cw, phase.seconds)?;
    }

    // Both permutation directions, so the mapped load stays O(1) instead
    // of re-deriving the inverse.
    write_u32s_section(
        &mut cw,
        sec::PERM_NEW_OF_OLD,
        bepi.permutation().new_of_old(),
    )?;
    write_u32s_section(
        &mut cw,
        sec::PERM_OLD_OF_NEW,
        bepi.permutation().old_of_new(),
    )?;

    let lu = bepi.h11_factors();
    write_u64s_section(&mut cw, sec::BLOCK_SIZES, &lu.block_sizes)?;
    write_csr_sections(
        &mut cw,
        (sec::L_INV_INDPTR, sec::L_INV_INDICES, sec::L_INV_VALUES),
        &lu.l_inv,
    )?;
    write_csr_sections(
        &mut cw,
        (sec::U_INV_INDPTR, sec::U_INV_INDICES, sec::U_INV_VALUES),
        &lu.u_inv,
    )?;
    write_schur_sections(&mut cw, bepi.schur())?;
    let (h12, h21, h31, h32) = bepi.coupling_blocks();
    write_csr_sections(
        &mut cw,
        (sec::H12_INDPTR, sec::H12_INDICES, sec::H12_VALUES),
        h12,
    )?;
    write_csr_sections(
        &mut cw,
        (sec::H21_INDPTR, sec::H21_INDICES, sec::H21_VALUES),
        h21,
    )?;
    write_csr_sections(
        &mut cw,
        (sec::H31_INDPTR, sec::H31_INDICES, sec::H31_VALUES),
        h31,
    )?;
    write_csr_sections(
        &mut cw,
        (sec::H32_INDPTR, sec::H32_INDICES, sec::H32_VALUES),
        h32,
    )?;

    // ILU factors, when the instance built them: their values (f32, in
    // `S`'s pattern: 4 bytes per non-zero of `S`) and diagonal positions
    // (8 bytes per row). Persisting them is what makes open time
    // independent of index size — a load never re-runs the elimination.
    if let Some(ilu) = bepi.preconditioner() {
        write_f32s_section(&mut cw, sec::ILU_VALUES_F32, ilu.values())?;
        write_u64s_section(&mut cw, sec::ILU_DIAG, ilu.diag_pos())?;
    }

    if let Some(g) = graph {
        write_csr_sections(
            &mut cw,
            (sec::GRAPH_INDPTR, sec::GRAPH_INDICES, sec::GRAPH_VALUES),
            g.adjacency(),
        )?;
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

/// Parses the phase-timing block of the META section.
fn read_phases<R: Read>(r: &mut R) -> Result<(Duration, Vec<PhaseTiming>)> {
    let elapsed = Duration::from_secs_f64(read_f64(r)?.max(0.0));
    let count = read_u64(r)? as usize;
    let mut phases = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let len = read_u64(r)? as usize;
        if len > 256 {
            return Err(SparseError::Parse(format!(
                "phase name length {len} exceeds limit"
            )));
        }
        let mut name = vec![0u8; len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|_| SparseError::Parse("phase name is not UTF-8".into()))?;
        let seconds = read_f64(r)?;
        phases.push(PhaseTiming { name, seconds });
    }
    Ok((elapsed, phases))
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
    let in_section = |id| {
        move |e: SparseError| {
            SparseError::Parse(match e {
                SparseError::Parse(msg) => format!("v6 index: section {}: {msg}", sec::name(id)),
                other => format!("v6 index: section {}: {other}", sec::name(id)),
            })
        }
    };
    pattern.check_indptr().map_err(in_section(ids.0))?;
    pattern.check_indices(ncols).map_err(in_section(ids.1))
}

fn decode_csr_sections<S: SectionSource>(
    src: &S,
    ids: (u32, u32, u32),
    nrows: usize,
    ncols: usize,
) -> Result<Csr> {
    let (indptr, indices) = (src.usizes(ids.0)?, src.u32s(ids.1)?);
    // Both backings get the O(1) shape checks of the constructor; the
    // heap path, which has read every byte for its CRCs, also checks
    // every entry of the pattern.
    if S::READS_PAYLOADS {
        let pattern = Pattern::Wide {
            indptr: indptr.clone(),
            indices: indices.clone(),
        };
        check_pattern(&pattern, ncols, (ids.0, ids.1))?;
    }
    Csr::from_parts_storage_trusted(nrows, ncols, indptr, indices, src.f64s(ids.2)?)
}

/// Decodes `S` (`n2 × n2`) from exactly one pattern encoding — the wide
/// pair [`sec::S_INDPTR`] and [`sec::S_INDICES`] (as every file written
/// before the narrow form existed) or the narrow pair
/// [`sec::S_INDPTR32`] and [`sec::S_INDICES16`] — and exactly one value
/// encoding: [`sec::S_VALUES`] (plain, as every file written before the
/// coded form existed) or the pair [`sec::S_VALUE_TABLE`] +
/// [`sec::S_VALUE_CODES`]. Both backings get the `O(1)` shape checks of
/// [`CodedCsr::from_parts_storage_trusted`]; a source that has read every
/// payload byte also checks the pattern ([`check_pattern`]) and each code
/// against the table.
fn decode_schur_sections<S: SectionSource>(src: &S, n2: usize) -> Result<CodedCsr> {
    let in_s = |e: SparseError| {
        SparseError::Parse(match e {
            SparseError::Parse(msg) => format!("v6 index: S: {msg}"),
            other => format!("v6 index: S: {other}"),
        })
    };
    let narrow = src.has(sec::S_INDPTR32) || src.has(sec::S_INDICES16);
    let (pattern, ids) = if narrow {
        if src.has(sec::S_INDPTR) || src.has(sec::S_INDICES) {
            return Err(SparseError::Parse(format!(
                "v6 index: S carries both a wide pattern ({}) and a narrow one ({})",
                sec::name(sec::S_INDPTR),
                sec::name(sec::S_INDPTR32)
            )));
        }
        let pattern = Pattern::Narrow {
            indptr: src.u32s(sec::S_INDPTR32)?,
            indices: src.u16s(sec::S_INDICES16)?,
        };
        (pattern, (sec::S_INDPTR32, sec::S_INDICES16))
    } else {
        let pattern = Pattern::Wide {
            indptr: src.usizes(sec::S_INDPTR)?,
            indices: src.u32s(sec::S_INDICES)?,
        };
        (pattern, (sec::S_INDPTR, sec::S_INDICES))
    };
    if S::READS_PAYLOADS {
        check_pattern(&pattern, n2, ids)?;
    }
    let coded = src.has(sec::S_VALUE_TABLE) || src.has(sec::S_VALUE_CODES);
    let values = if coded {
        if src.has(sec::S_VALUES) {
            return Err(SparseError::Parse(format!(
                "v6 index: S carries both plain values ({}) and a value table ({})",
                sec::name(sec::S_VALUES),
                sec::name(sec::S_VALUE_TABLE)
            )));
        }
        let values = CodedValues::Coded {
            table: src.f64s(sec::S_VALUE_TABLE)?,
            codes: src.u16s(sec::S_VALUE_CODES)?,
        };
        if S::READS_PAYLOADS {
            values.check_codes().map_err(in_s)?;
        }
        values
    } else {
        CodedValues::Plain(src.f64s(sec::S_VALUES)?)
    };
    CodedCsr::from_parts_storage_trusted(n2, n2, pattern, values).map_err(in_s)
}

/// Decodes a v6 container from either backing into an instance plus the
/// embedded graph, if any.
fn decode_v6<S: SectionSource>(src: &S) -> Result<(BePi, Option<Graph>)> {
    let meta = src.meta_bytes(sec::META)?;
    let mut r: &[u8] = &meta;
    let config = read_config(&mut r)?;
    let n1 = read_u64(&mut r)? as usize;
    let n2 = read_u64(&mut r)? as usize;
    let n3 = read_u64(&mut r)? as usize;
    let slashburn_iterations = read_u64(&mut r)? as usize;
    let (elapsed, phases) = read_phases(&mut r)?;
    let n = n1 + n2 + n3;

    let perm = Permutation::from_maps_trusted(
        src.u32s(sec::PERM_NEW_OF_OLD)?,
        src.u32s(sec::PERM_OLD_OF_NEW)?,
    )?;
    if perm.len() != n {
        return Err(SparseError::Parse(format!(
            "v6 index: permutation covers {} nodes but META declares {n}",
            perm.len()
        )));
    }
    let block_sizes = src.usizes(sec::BLOCK_SIZES)?.to_vec();
    let l_inv = decode_csr_sections(
        src,
        (sec::L_INV_INDPTR, sec::L_INV_INDICES, sec::L_INV_VALUES),
        n1,
        n1,
    )?;
    let u_inv = decode_csr_sections(
        src,
        (sec::U_INV_INDPTR, sec::U_INV_INDICES, sec::U_INV_VALUES),
        n1,
        n1,
    )?;
    let h11_lu = bepi_solver::BlockLu::from_inverse_factors_trusted(l_inv, u_inv, block_sizes)?;
    let s = decode_schur_sections(src, n2)?;
    let h12 = decode_csr_sections(
        src,
        (sec::H12_INDPTR, sec::H12_INDICES, sec::H12_VALUES),
        n1,
        n2,
    )?;
    let h21 = decode_csr_sections(
        src,
        (sec::H21_INDPTR, sec::H21_INDICES, sec::H21_VALUES),
        n2,
        n1,
    )?;
    let h31 = decode_csr_sections(
        src,
        (sec::H31_INDPTR, sec::H31_INDICES, sec::H31_VALUES),
        n3,
        n1,
    )?;
    let h32 = decode_csr_sections(
        src,
        (sec::H32_INDPTR, sec::H32_INDICES, sec::H32_VALUES),
        n3,
        n2,
    )?;

    // A file without f32 factor values (BePI-B/-S, or one written with
    // the earlier f64 factor sections) leaves `ilu` to `from_raw_parts`,
    // which re-factors `S` for the full variant.
    let ilu = if src.has(sec::ILU_VALUES_F32) {
        Some(Ilu0::from_parts(
            &s,
            src.f32s(sec::ILU_VALUES_F32)?,
            src.usizes(sec::ILU_DIAG)?,
        )?)
    } else {
        None
    };
    let graph = if src.has(sec::GRAPH_INDPTR) {
        let adj = decode_csr_sections(
            src,
            (sec::GRAPH_INDPTR, sec::GRAPH_INDICES, sec::GRAPH_VALUES),
            n,
            n,
        )?;
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
        elapsed,
        phases,
    })?;
    Ok((bepi, graph))
}

/// Opens a v6 index file as a shared read-only memory mapping and builds
/// an instance whose arrays borrow the mapping zero-copy.
///
/// Open cost is `O(#sections)`: magic/version/footer and the section
/// table (plus the small META section) are CRC-verified eagerly, while
/// array payloads are faulted in lazily by the page cache as queries
/// touch them. `MADV_WILLNEED` is issued for the hot sections (the
/// `H11` inverse factors, `S` and the ILU factor values, which every
/// query walks — every GMRES iteration streams `S`'s arrays twice, once
/// for the SpMV and once for the ILU apply) so the kernel starts
/// readahead immediately.
pub fn load_mapped_file<P: AsRef<Path>>(path: P) -> Result<(BePi, Option<Graph>)> {
    let idx = MappedIndex::open(path).map_err(from_map_err)?;
    idx.verify(sec::META).map_err(from_map_err)?;
    for id in [
        sec::L_INV_INDPTR,
        sec::L_INV_INDICES,
        sec::L_INV_VALUES,
        sec::U_INV_INDPTR,
        sec::U_INV_INDICES,
        sec::U_INV_VALUES,
        sec::S_INDPTR,
        sec::S_INDICES,
        sec::S_INDPTR32,
        sec::S_INDICES16,
        sec::S_VALUES,
        sec::S_VALUE_TABLE,
        sec::S_VALUE_CODES,
        sec::ILU_VALUES_F32,
        sec::ILU_DIAG,
    ] {
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
/// daemon instead relies on the per-connection panic guard — a query
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

    #[test]
    fn phase_timings_survive_save_load_round_trip() {
        let g = generators::cycle(10);
        let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
        assert_eq!(original.stats().phases.len(), 6);
        let restored = load(&to_bytes(&original, None)[..]).unwrap();
        assert_eq!(restored.stats().phases, original.stats().phases);
        assert_eq!(restored.stats().elapsed, original.stats().elapsed);
        let names: Vec<&str> = restored
            .stats()
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "deadend",
                "slashburn",
                "assemble",
                "block_lu",
                "schur",
                "precond"
            ]
        );
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
        assert_eq!(restored.stats().phases, original.stats().phases);
        assert_eq!(restored.preprocessed_bytes(), original.preprocessed_bytes());
        for seed in [0usize, 31, 100] {
            let a = original.query(seed).unwrap();
            let b = restored.query(seed).unwrap();
            assert_eq!(a.scores, b.scores, "v6 heap load must be bit-identical");
            assert_eq!(a.iterations, b.iterations);
        }
        assert!(!restored.is_mapped());
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
        assert!(mapped.is_mapped());
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
    /// numeric refactor refreshes them, and every answer is bit-identical
    /// to a fresh `Full` preprocess of the same graph.
    #[test]
    fn full_index_keeps_its_ilu_on_load_and_refactor() {
        use crate::bepi::tests::{removable_edge, without_edge};
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

        let (u, v) = removable_edge(&g);
        let g_new = without_edge(&g, u, v);
        let plan = fresh.symbolic_plan();
        let dirty = match crate::classify(&plan, &g, &g_new, &[u]) {
            crate::Classification::NumericOnly(d) => d,
            crate::Classification::Structural(why) => panic!("expected numeric: {why}"),
        };
        let frozen = BePi::preprocess_with_plan(&g_new, &cfg, &plan).unwrap();
        assert_same(
            &heap.refactor(&g_new, &dirty).unwrap(),
            &frozen,
            "heap refactor",
        );
        assert_same(
            &mapped.refactor(&g_new, &dirty).unwrap(),
            &frozen,
            "mapped refactor",
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

    /// `bepi`'s index `buf` in the layout of the earlier f64 factor
    /// sections: a second copy of `S`'s pattern (0x80, 0x81), f64 factor
    /// values (0x82) and `ILU_DIAG`, but no `ILU_VALUES_F32`. Every other
    /// section is copied as written.
    fn with_f64_factor_sections(buf: &[u8], bepi: &BePi) -> Vec<u8> {
        let s = bepi.schur().to_csr();
        // The loader must ignore these sections: NaN factor values would
        // poison every query that used them.
        let values = vec![f64::NAN; s.nnz()];
        rewrite_sections(buf, |cw, id, payload| match id {
            sec::ILU_VALUES_F32 => {
                write_u64s_section(cw, 0x80, s.indptr()).unwrap();
                write_u32s_section(cw, 0x81, s.indices()).unwrap();
                write_f64s_section(cw, 0x82, &values).unwrap();
            }
            id => cw.section_bytes(id, payload).unwrap(),
        })
    }

    #[test]
    fn v6_with_f64_factor_sections_loads_by_refactoring() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 23).unwrap();
        let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(BePiVariant::Full)).unwrap();
        let old = with_f64_factor_sections(&to_bytes(&fresh, Some(&g)), &fresh);
        let table = bepi_map::parse_layout(&old).unwrap();
        assert!(table.iter().any(|e| e.id == 0x80));
        assert!(!table.iter().any(|e| e.id == sec::ILU_VALUES_F32));
        let path = temp_path("f64_factors");
        std::fs::write(&path, &old).unwrap();
        let (heap, heap_graph) = load_with_graph(&old[..]).unwrap();
        let (mapped, _) = load_mapped_file(&path).unwrap();
        verify_mapped_file(&path).unwrap();
        assert_eq!(heap_graph.unwrap().adjacency(), g.adjacency());
        for b in [&heap, &mapped] {
            assert_precond_bytes(b);
            assert_eq!(
                bits32(b.preconditioner().unwrap().values()),
                bits32(fresh.preconditioner().unwrap().values())
            );
        }
        for seed in [0usize, 31, 100] {
            let want = fresh.query(seed).unwrap();
            for b in [&heap, &mapped] {
                let got = b.query(seed).unwrap();
                assert_eq!(
                    got.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "seed {seed}"
                );
                assert_eq!(got.iterations, want.iterations);
            }
        }
        std::fs::remove_file(&path).ok();
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
            assert_eq!(
                c.heap_bytes, 0,
                "{} should be fully mapped (zero heap)",
                c.name
            );
        }
        assert_eq!(
            report.iter().map(|c| c.mapped_bytes).sum::<usize>(),
            mapped.mapped_bytes()
        );
        // Logical accounting is backing-independent.
        assert_eq!(mapped.preprocessed_bytes(), original.preprocessed_bytes());
        std::fs::remove_file(&path).ok();
    }

    /// `S`'s value table and codes; panics unless `S` is value-coded.
    fn coded_parts(s: &CodedCsr) -> (&[f64], &[u16]) {
        match s.values() {
            CodedValues::Coded { table, codes } => (table, codes),
            CodedValues::Plain(_) => panic!("S is stored plain"),
        }
    }

    /// `buf` as an index written before `S` could be value-coded: one f64
    /// per non-zero in `S_VALUES`, where the table and codes were.
    fn with_plain_s_values(buf: &[u8], s: &CodedCsr) -> Vec<u8> {
        let values = s.to_csr().values().to_vec();
        rewrite_sections(buf, |cw, id, payload| match id {
            sec::S_VALUE_TABLE => write_f64s_section(cw, sec::S_VALUES, &values).unwrap(),
            sec::S_VALUE_CODES => {}
            id => cw.section_bytes(id, payload).unwrap(),
        })
    }

    /// An index that stores `S` plain, as every file written before the
    /// coded form did, still loads — on the heap and mapped, for the
    /// default and the full variant — keeps `S` plain, accounts it at
    /// 8 bytes per value, and answers bit for bit like a fresh index
    /// (whose coded `S` multiplies exactly as the plain one does). Saved
    /// again, it writes the same bytes.
    #[test]
    fn coded_s_plain_values_file_loads_bit_identical() {
        let g = generators::rmat(7, 500, generators::RmatParams::default(), 61).unwrap();
        for variant in [BePiVariant::Sparse, BePiVariant::Full] {
            let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(variant)).unwrap();
            let s = fresh.schur();
            let (table, codes) = coded_parts(s);
            let old = with_plain_s_values(&to_bytes(&fresh, Some(&g)), s);
            let ids: Vec<u32> = bepi_map::parse_layout(&old)
                .unwrap()
                .iter()
                .map(|e| e.id)
                .collect();
            assert!(ids.contains(&sec::S_VALUES));
            assert!(!ids.contains(&sec::S_VALUE_TABLE) && !ids.contains(&sec::S_VALUE_CODES));

            let path = temp_path("plain_s");
            std::fs::write(&path, &old).unwrap();
            let (heap, _) = load_with_graph(&old[..]).unwrap();
            let (mapped, _) = load_mapped_file(&path).unwrap();
            verify_mapped_file(&path).unwrap();
            // Plain values cost 8 bytes per non-zero; codes cost 2, plus
            // the table.
            let plain_extra = 8 * s.nnz() - (8 * table.len() + 2 * codes.len());
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
        for (b, heap_bytes, mapped_bytes) in
            [(&fresh, want, 0), (&heap, want, 0), (&mapped, 0, want)]
        {
            assert_eq!(coded_parts(b.schur()).0.len(), table.len());
            let report = b.memory_report();
            let schur = report.iter().find(|c| c.name == "schur").unwrap();
            assert_eq!(
                (schur.heap_bytes, schur.mapped_bytes),
                (heap_bytes, mapped_bytes)
            );
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
                        write_f64s_section(cw, sec::S_VALUES, &plain).unwrap();
                    }
                    keep(cw, id, p)
                }),
                "both plain values (s.values) and a value table (s.value_table)".into(),
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
                        write_f64s_section(cw, id, &oversized).unwrap();
                    }
                    _ => keep(cw, id, p),
                }),
                "value table holds 65537 entries".into(),
            ),
            (
                "short codes",
                Box::new(|cw, id, p| match id {
                    sec::S_VALUE_CODES => {
                        write_u16s_section(cw, id, &codes[..codes.len() - 1]).unwrap();
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
            sec::S_VALUE_CODES => write_u16s_section(cw, id, &past_end).unwrap(),
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

    /// `buf` as an index written before `S`'s pattern could be narrow: the
    /// wide `S_INDPTR` (u64) and `S_INDICES` (u32) where the narrow
    /// sections were, every other section copied as written.
    fn with_wide_s_pattern(buf: &[u8], s: &CodedCsr) -> Vec<u8> {
        let wide = s.to_csr();
        rewrite_sections(buf, |cw, id, payload| match id {
            sec::S_INDPTR32 => write_u64s_section(cw, sec::S_INDPTR, wide.indptr()).unwrap(),
            sec::S_INDICES16 => write_u32s_section(cw, sec::S_INDICES, wide.indices()).unwrap(),
            id => cw.section_bytes(id, payload).unwrap(),
        })
    }

    /// An index that stores `S`'s pattern wide, as every file written
    /// before the narrow form did, still loads — on the heap and mapped,
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
        for (b, heap_bytes, mapped_bytes) in
            [(&fresh, want, 0), (&heap, want, 0), (&mapped, 0, want)]
        {
            let p = b.schur().pattern();
            assert!(p.is_narrow());
            assert_eq!(
                (p.heap_bytes(), p.mapped_bytes()),
                (heap_bytes, mapped_bytes)
            );
            let values = bepi_sparse::MemBytes::mem_bytes(b.schur().values());
            let report = b.memory_report();
            let schur = report.iter().find(|c| c.name == "schur").unwrap();
            assert_eq!(schur.heap_bytes + schur.mapped_bytes, want + values);
            // The factors share the narrow pattern: 4 bytes per non-zero
            // and 8 per row, nothing for the pattern.
            assert_precond_bytes(b);
            assert!(b.preconditioner().unwrap().shares_pattern(p));
        }
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    /// Crafted patterns with valid CRCs: a column past the matrix and a
    /// decreasing row pointer, in `S`'s wide sections (as a file from
    /// before the narrow form stores them), in its narrow sections (a
    /// column in `n2..2¹⁶`, which a `u16` holds), and in an `H` block. The
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
        let h21 = fresh.coupling_blocks().1.clone();
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
                    id == sec::S_INDICES && write_u32s_section(cw, id, &s_cols).is_ok()
                }),
                "section s.indices: column",
            ),
            (
                "wide S row pointer",
                &wide,
                Box::new(|cw, id, _| {
                    id == sec::S_INDPTR && write_u64s_section(cw, id, &s_ptr).is_ok()
                }),
                "section s.indptr: row pointers decrease",
            ),
            (
                "narrow S column",
                &narrow,
                Box::new(|cw, id, _| {
                    id == sec::S_INDICES16 && write_u16s_section(cw, id, &narrow16(&s_cols)).is_ok()
                }),
                "section s.indices16: column",
            ),
            (
                "narrow S row pointer",
                &narrow,
                Box::new(|cw, id, _| {
                    id == sec::S_INDPTR32 && write_u32s_section(cw, id, &narrow32(&s_ptr)).is_ok()
                }),
                "section s.indptr32: row pointers decrease",
            ),
            (
                "H21 column",
                &narrow,
                Box::new(|cw, id, _| {
                    id == sec::H21_INDICES && write_u32s_section(cw, id, &h21_cols).is_ok()
                }),
                "section h21.indices: column",
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
}
