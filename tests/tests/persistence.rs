//! Persistence robustness: round-trips across configurations and graphs,
//! and corruption never panics — it errors, on the heap loader and on the
//! mapped open alike.

use bepi_core::persist::{load, load_mapped_file, save_v6, verify_mapped_file};
use bepi_core::prelude::*;
use bepi_graph::Dataset;
use bepi_tests::fixture_zoo;
use std::path::PathBuf;

fn to_bytes(bepi: &BePi) -> Vec<u8> {
    let mut buf = Vec::new();
    save_v6(bepi, None, &mut buf).unwrap();
    buf
}

/// A per-test scratch file for the mapped-open checks.
fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bepi_persistence_{name}_{}", std::process::id()))
}

#[test]
fn roundtrip_across_fixture_zoo() {
    for fx in fixture_zoo().into_iter().take(6) {
        let original = BePi::preprocess(&fx.graph, &BePiConfig::default()).unwrap();
        let restored = load(&to_bytes(&original)[..]).unwrap();
        let seed = fx.graph.n() / 2;
        if fx.graph.n() == 0 {
            continue;
        }
        assert_eq!(
            original.query(seed).unwrap().scores,
            restored.query(seed).unwrap().scores,
            "{}",
            fx.name
        );
    }
}

#[test]
fn roundtrip_on_dataset_scale_instance() {
    let g = Dataset::Slashdot.generate();
    let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
    let buf = to_bytes(&original);
    // The file is the logical arrays and container overhead, nothing
    // else: the header, META (the one section the logical count leaves
    // out; no graph is embedded), at most one alignment's padding and one
    // table entry per section, and the footer. An array written twice
    // (say a second copy of S's pattern) breaks the bound.
    use bepi_map::{sections, ALIGN, FOOTER_LEN, HEADER_LEN, TABLE_ENTRY_LEN};
    let table = bepi_map::parse_layout(&buf).unwrap();
    let uncounted: u64 = table
        .iter()
        .filter(|e| e.id == sections::META)
        .map(|e| e.len)
        .sum();
    let logical = original.preprocessed_bytes() as u64;
    let bound = logical
        + uncounted
        + table.len() as u64 * (ALIGN + TABLE_ENTRY_LEN)
        + HEADER_LEN
        + FOOTER_LEN;
    assert!(
        buf.len() as u64 <= bound,
        "file {} vs bound {bound} (logical {logical})",
        buf.len()
    );
    let restored = load(&buf[..]).unwrap();
    assert_eq!(restored.node_count(), g.n());
    assert_eq!(
        original.query(123).unwrap().scores,
        restored.query(123).unwrap().scores
    );
}

#[test]
fn truncation_at_any_cut_point_errors_not_panics() {
    let g = bepi_graph::generators::erdos_renyi(60, 250, 3).unwrap();
    let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
    let buf = to_bytes(&original);
    let path = temp_file("trunc");
    // Sweep truncation points (coarse grid + the first 64 bytes densely).
    let mut cuts: Vec<usize> = (0..64.min(buf.len())).collect();
    cuts.extend((64..buf.len()).step_by(97));
    for cut in cuts {
        assert!(load(&buf[..cut]).is_err(), "truncation at {cut} must error");
        std::fs::write(&path, &buf[..cut]).unwrap();
        assert!(
            load_mapped_file(&path).is_err(),
            "mapped open of a file truncated at {cut} must error"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bitflip_in_header_errors() {
    let g = bepi_graph::generators::cycle(12);
    let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
    let buf = to_bytes(&original);
    let path = temp_file("header");
    // Corrupt magic, then version.
    for pos in [0, 4] {
        let mut bad = buf.clone();
        bad[pos] ^= 0xFF;
        assert!(load(&bad[..]).is_err(), "flip at byte {pos}");
        std::fs::write(&path, &bad).unwrap();
        assert!(
            load_mapped_file(&path).is_err(),
            "mapped flip at byte {pos}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_payload_is_rejected_or_roundtrips_consistently() {
    // A flipped byte inside any section is caught by its CRC: the heap
    // loader rejects it, and so does `verify_mapped_file` (the mapped
    // open checks only the table and META eagerly). A flip that lands in
    // alignment padding or the reserved header bytes is covered by no
    // checksum, so the load may succeed — but then it must answer
    // exactly like the original. Never a panic either way.
    let g = bepi_graph::generators::erdos_renyi(40, 160, 5).unwrap();
    let original = BePi::preprocess(&g, &BePiConfig::default()).unwrap();
    let expected = original.query(7).unwrap().scores;
    let buf = to_bytes(&original);
    let table = bepi_map::parse_layout(&buf).unwrap();
    let in_section = |pos: usize| {
        table
            .iter()
            .any(|e| (e.offset..e.offset + e.len).contains(&(pos as u64)))
    };
    let path = temp_file("garbage");
    let mut flipped_sections = 0;
    for pos in (8..buf.len()).step_by(131) {
        let mut bad = buf.clone();
        bad[pos] = bad[pos].wrapping_add(0x5B);
        let heap = load(&bad[..]);
        std::fs::write(&path, &bad).unwrap();
        let verified = verify_mapped_file(&path);
        if in_section(pos) {
            flipped_sections += 1;
            assert!(heap.is_err(), "heap load accepted a flip at {pos}");
            assert!(verified.is_err(), "verify accepted a flip at {pos}");
        } else if let Ok(restored) = heap {
            assert_eq!(restored.query(7).unwrap().scores, expected, "flip at {pos}");
        }
    }
    assert!(flipped_sections > 0, "the sweep never hit a section");
    std::fs::remove_file(&path).ok();
}
