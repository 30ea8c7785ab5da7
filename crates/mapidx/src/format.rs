//! The v6 container layout: constants, the streaming writer, and the
//! eager layout validator shared by the mapped and heap load paths.

use crate::{sections, Crc32, MapError};
use std::io::{self, Write};

/// Leading magic bytes, shared with every earlier persist format.
pub const MAGIC: &[u8; 4] = b"BEPI";
/// The container format version this crate reads and writes.
pub const VERSION: u32 = 6;
/// Alignment of every payload section, in bytes. 64 covers every element
/// type stored (max 8) with headroom for cache-line- and SIMD-friendly
/// access to the mapped arrays.
pub const ALIGN: u64 = 64;
/// Header length: magic + version + flags + zero padding to [`ALIGN`].
pub const HEADER_LEN: u64 = 64;
/// Bytes per section-table entry: id u32, crc u32, offset u64, len u64.
pub const TABLE_ENTRY_LEN: u64 = 24;
/// Footer length: table_offset u64, section_count u64, table crc u32,
/// footer magic u32.
pub const FOOTER_LEN: u64 = 24;
/// Trailing footer magic (`BPI6`, little-endian).
const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"BPI6");
/// Sanity cap on the section count: the format defines a few dozen ids,
/// so a table claiming more than this is corrupt, not big.
const MAX_SECTIONS: u64 = 4096;

/// One entry of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (see [`crate::sections`]).
    pub id: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
    /// Payload offset from the start of the file (64-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn rd_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Validates a v6 container's header, footer, and section table, and
/// returns the parsed table. This is the *eager* validation run on every
/// open: `O(#sections)` work — it never touches payload bytes, so open
/// cost is independent of index size. Payload CRCs are checked lazily by
/// [`crate::MappedIndex::verify`] or by heap loaders as they copy.
pub fn parse_layout(bytes: &[u8]) -> Result<Vec<SectionEntry>, MapError> {
    let file_len = bytes.len() as u64;
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(MapError::TooSmall { len: file_len });
    }
    if &bytes[..4] != MAGIC {
        return Err(MapError::BadMagic);
    }
    let version = rd_u32(bytes, 4);
    if version != VERSION {
        return Err(MapError::BadVersion { found: version });
    }
    let foot = (file_len - FOOTER_LEN) as usize;
    if rd_u32(bytes, foot + 20) != FOOTER_MAGIC {
        return Err(MapError::BadFooter);
    }
    let table_offset = rd_u64(bytes, foot);
    let section_count = rd_u64(bytes, foot + 8);
    let stored_table_crc = rd_u32(bytes, foot + 16);
    // The table must sit exactly between the payload region and the
    // footer; anything else is an inconsistent (corrupt) layout.
    let bounds_ok = section_count <= MAX_SECTIONS
        && table_offset >= HEADER_LEN
        && table_offset
            .checked_add(section_count * TABLE_ENTRY_LEN)
            .map(|end| end + FOOTER_LEN == file_len)
            .unwrap_or(false);
    if !bounds_ok {
        return Err(MapError::BadTableBounds {
            table_offset,
            section_count,
            file_len,
        });
    }
    let table = &bytes[table_offset as usize..foot];
    let computed_table_crc = crate::crc32(table);
    if computed_table_crc != stored_table_crc {
        return Err(MapError::TableCrc {
            stored: stored_table_crc,
            computed: computed_table_crc,
        });
    }
    let mut entries = Vec::with_capacity(section_count as usize);
    for i in 0..section_count as usize {
        let at = i * TABLE_ENTRY_LEN as usize;
        let entry = SectionEntry {
            id: rd_u32(table, at),
            crc: rd_u32(table, at + 4),
            offset: rd_u64(table, at + 8),
            len: rd_u64(table, at + 16),
        };
        if entry.offset < HEADER_LEN
            || entry
                .offset
                .checked_add(entry.len)
                .map(|end| end > table_offset)
                .unwrap_or(true)
        {
            return Err(MapError::SectionOutOfRange {
                id: entry.id,
                section: sections::name(entry.id),
                offset: entry.offset,
                len: entry.len,
                limit: table_offset,
            });
        }
        if entry.offset % ALIGN != 0 {
            return Err(MapError::SectionMisaligned {
                id: entry.id,
                section: sections::name(entry.id),
                offset: entry.offset,
            });
        }
        if entries.iter().any(|e: &SectionEntry| e.id == entry.id) {
            return Err(MapError::DuplicateSection {
                id: entry.id,
                section: sections::name(entry.id),
            });
        }
        entries.push(entry);
    }
    // Overlap check over the offset-sorted view (ranges are end-exclusive;
    // zero-length sections cannot overlap anything).
    let mut by_offset: Vec<&SectionEntry> = entries.iter().filter(|e| e.len > 0).collect();
    by_offset.sort_by_key(|e| e.offset);
    for pair in by_offset.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.offset + a.len > b.offset {
            return Err(MapError::SectionOverlap {
                id_a: a.id,
                section_a: sections::name(a.id),
                id_b: b.id,
                section_b: sections::name(b.id),
            });
        }
    }
    Ok(entries)
}

/// Streaming v6 writer: call [`ContainerWriter::begin_section`], write
/// the payload through the `Write` impl, repeat, then
/// [`ContainerWriter::finish`]. Works over any `W: Write` (no `Seek`
/// needed — the section table lands at the end of the file), so indexes
/// stream straight to disk in one pass.
pub struct ContainerWriter<W: Write> {
    w: W,
    pos: u64,
    entries: Vec<SectionEntry>,
    open: Option<OpenSection>,
}

struct OpenSection {
    id: u32,
    crc: Crc32,
    start: u64,
}

impl<W: Write> ContainerWriter<W> {
    /// Wraps `w` and writes the 64-byte header.
    pub fn new(mut w: W) -> io::Result<Self> {
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        // Bytes 8..12 are a flags word (currently always zero), the rest
        // reserved padding.
        w.write_all(&header)?;
        Ok(Self {
            w,
            pos: HEADER_LEN,
            entries: Vec::new(),
            open: None,
        })
    }

    /// Starts a new section: pads to the next 64-byte boundary and makes
    /// subsequent `write` calls feed this section's payload and CRC.
    pub fn begin_section(&mut self, id: u32) -> io::Result<()> {
        self.end_section()?;
        if self.entries.iter().any(|e| e.id == id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("duplicate section id {id:#x} ({})", sections::name(id)),
            ));
        }
        let pad = (ALIGN - self.pos % ALIGN) % ALIGN;
        if pad > 0 {
            const ZERO: [u8; ALIGN as usize] = [0; ALIGN as usize];
            self.w.write_all(&ZERO[..pad as usize])?;
            self.pos += pad;
        }
        self.open = Some(OpenSection {
            id,
            crc: Crc32::new(),
            start: self.pos,
        });
        Ok(())
    }

    /// Closes the currently open section, if any, recording its table
    /// entry. Called implicitly by [`ContainerWriter::begin_section`] and
    /// [`ContainerWriter::finish`].
    pub fn end_section(&mut self) -> io::Result<()> {
        if let Some(open) = self.open.take() {
            self.entries.push(SectionEntry {
                id: open.id,
                crc: open.crc.finalize(),
                offset: open.start,
                len: self.pos - open.start,
            });
        }
        Ok(())
    }

    /// Convenience: writes a whole section from a byte slice.
    pub fn section_bytes(&mut self, id: u32, payload: &[u8]) -> io::Result<()> {
        self.begin_section(id)?;
        self.write_all(payload)?;
        self.end_section()
    }

    /// Writes the section table and footer, flushes, and returns the
    /// inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.end_section()?;
        let table_offset = self.pos;
        let mut table = Vec::with_capacity(self.entries.len() * TABLE_ENTRY_LEN as usize);
        for e in &self.entries {
            table.extend_from_slice(&e.id.to_le_bytes());
            table.extend_from_slice(&e.crc.to_le_bytes());
            table.extend_from_slice(&e.offset.to_le_bytes());
            table.extend_from_slice(&e.len.to_le_bytes());
        }
        self.w.write_all(&table)?;
        self.w.write_all(&table_offset.to_le_bytes())?;
        self.w
            .write_all(&(self.entries.len() as u64).to_le_bytes())?;
        self.w.write_all(&crate::crc32(&table).to_le_bytes())?;
        self.w.write_all(&FOOTER_MAGIC.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> Write for ContainerWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let open = self.open.as_mut().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "payload bytes written outside any section",
            )
        })?;
        let n = self.w.write(buf)?;
        open.crc.update(&buf[..n]);
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a small two-section container in memory.
    pub(crate) fn sample_container() -> Vec<u8> {
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.section_bytes(sections::META, b"hello meta").unwrap();
        let nums: Vec<u8> = (0u64..10).flat_map(|v| v.to_le_bytes()).collect();
        w.section_bytes(sections::ILU_DIAG, &nums).unwrap();
        w.section_bytes(sections::S_VALUES, &[]).unwrap();
        w.finish().unwrap()
    }

    fn footer_range(buf: &[u8]) -> usize {
        buf.len() - FOOTER_LEN as usize
    }

    /// Patches the table entry for `id` and re-stamps the table CRC so
    /// the corruption reaches the structural checks.
    fn patch_entry(buf: &mut [u8], id: u32, f: impl Fn(&mut SectionEntry)) {
        let foot = footer_range(buf);
        let table_offset = u64::from_le_bytes(buf[foot..foot + 8].try_into().unwrap()) as usize;
        let count = u64::from_le_bytes(buf[foot + 8..foot + 16].try_into().unwrap()) as usize;
        for i in 0..count {
            let at = table_offset + i * TABLE_ENTRY_LEN as usize;
            let mut e = SectionEntry {
                id: u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()),
                crc: u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap()),
                offset: u64::from_le_bytes(buf[at + 8..at + 16].try_into().unwrap()),
                len: u64::from_le_bytes(buf[at + 16..at + 24].try_into().unwrap()),
            };
            if e.id == id {
                f(&mut e);
                buf[at..at + 4].copy_from_slice(&e.id.to_le_bytes());
                buf[at + 4..at + 8].copy_from_slice(&e.crc.to_le_bytes());
                buf[at + 8..at + 16].copy_from_slice(&e.offset.to_le_bytes());
                buf[at + 16..at + 24].copy_from_slice(&e.len.to_le_bytes());
            }
        }
        let crc = crate::crc32(&buf[table_offset..foot]);
        buf[foot + 16..foot + 20].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_layout_parses() {
        let buf = sample_container();
        let entries = parse_layout(&buf).unwrap();
        assert_eq!(entries.len(), 3);
        let meta = entries.iter().find(|e| e.id == sections::META).unwrap();
        assert_eq!(meta.offset, HEADER_LEN);
        assert_eq!(meta.len, 10);
        assert_eq!(
            crate::crc32(&buf[meta.offset as usize..(meta.offset + meta.len) as usize]),
            meta.crc
        );
        let empty = entries.iter().find(|e| e.id == sections::S_VALUES).unwrap();
        assert_eq!(empty.len, 0);
        assert_eq!(empty.crc, crate::crc32(b""));
    }

    #[test]
    fn sections_are_aligned() {
        let buf = sample_container();
        for e in parse_layout(&buf).unwrap() {
            assert_eq!(e.offset % ALIGN, 0, "section {:#x}", e.id);
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = sample_container();
        buf[0] = b'X';
        assert_eq!(parse_layout(&buf), Err(MapError::BadMagic));
        let mut buf = sample_container();
        buf[4] = 9;
        assert!(matches!(
            parse_layout(&buf),
            Err(MapError::BadVersion { found: 9 })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let buf = sample_container();
        assert!(matches!(
            parse_layout(&buf[..10]),
            Err(MapError::TooSmall { .. })
        ));
        // Cutting the tail destroys the footer magic.
        assert!(parse_layout(&buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn rejects_table_crc_corruption() {
        let mut buf = sample_container();
        let foot = footer_range(&buf);
        let table_offset = u64::from_le_bytes(buf[foot..foot + 8].try_into().unwrap()) as usize;
        buf[table_offset] ^= 0x01; // flip a bit inside the table itself
        assert!(matches!(parse_layout(&buf), Err(MapError::TableCrc { .. })));
    }

    #[test]
    fn rejects_out_of_range_section_naming_it() {
        let mut buf = sample_container();
        patch_entry(&mut buf, sections::ILU_DIAG, |e| e.len = 1 << 40);
        match parse_layout(&buf) {
            Err(MapError::SectionOutOfRange { id, section, .. }) => {
                assert_eq!(id, sections::ILU_DIAG);
                assert_eq!(section, "ilu.diag_pos");
            }
            other => panic!("expected SectionOutOfRange, got {other:?}"),
        }
        // An offset+len that wraps u64 must also be caught, not wrapped.
        let mut buf = sample_container();
        patch_entry(&mut buf, sections::ILU_DIAG, |e| {
            e.offset = u64::MAX - 63;
            e.len = 128;
        });
        assert!(matches!(
            parse_layout(&buf),
            Err(MapError::SectionOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_misaligned_section_naming_it() {
        let mut buf = sample_container();
        patch_entry(&mut buf, sections::META, |e| e.offset += 4);
        match parse_layout(&buf) {
            Err(MapError::SectionMisaligned { section, .. }) => assert_eq!(section, "meta"),
            other => panic!("expected SectionMisaligned, got {other:?}"),
        }
    }

    #[test]
    fn rejects_overlapping_sections_naming_both() {
        let mut buf = sample_container();
        // Slide ilu.diag_pos back onto meta (keeping 64-byte alignment).
        patch_entry(&mut buf, sections::ILU_DIAG, |e| e.offset = HEADER_LEN);
        match parse_layout(&buf) {
            Err(MapError::SectionOverlap {
                section_a,
                section_b,
                ..
            }) => {
                let pair = [section_a, section_b];
                assert!(pair.contains(&"meta") && pair.contains(&"ilu.diag_pos"));
            }
            other => panic!("expected SectionOverlap, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_section_id() {
        let mut buf = sample_container();
        patch_entry(&mut buf, sections::ILU_DIAG, |e| e.id = sections::META);
        assert!(matches!(
            parse_layout(&buf),
            Err(MapError::DuplicateSection { .. })
        ));
    }

    #[test]
    fn rejects_bogus_table_bounds() {
        let mut buf = sample_container();
        let foot = footer_range(&buf);
        // A section count far beyond what the file can hold.
        buf[foot + 8..foot + 16].copy_from_slice(&(1u64 << 50).to_le_bytes());
        assert!(matches!(
            parse_layout(&buf),
            Err(MapError::BadTableBounds { .. })
        ));
    }

    #[test]
    fn writer_rejects_duplicate_ids_and_stray_writes() {
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.section_bytes(sections::META, b"x").unwrap();
        assert!(w.begin_section(sections::META).is_err());
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        assert!(w.write_all(b"stray").is_err());
    }
}
