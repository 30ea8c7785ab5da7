//! Corrupt v6 payloads under `--mmap` must surface as clean typed
//! errors on the one-shot CLI path — the zero-copy open skips payload
//! CRCs by design, so `bepi serve <index> <seed> --mmap` runs the full
//! check before querying instead of letting the solver panic on
//! garbage indices.

use std::path::Path;
use std::process::Command;

fn bepi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bepi"))
}

#[test]
fn one_shot_mmap_query_rejects_corrupt_payload_without_panicking() {
    let dir = std::env::temp_dir().join(format!("bepi-mmap-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("edges.txt");
    let good = dir.join("good.bepi");
    let bad = dir.join("bad.bepi");

    let mut text = String::new();
    for v in 0..120u32 {
        text.push_str(&format!("{} {}\n", v, (v + 1) % 120));
        text.push_str(&format!("{} {}\n", v, (v * 7 + 3) % 120));
    }
    std::fs::write(&edges, text).unwrap();
    let status = bepi()
        .args([
            "preprocess",
            edges.to_str().unwrap(),
            good.to_str().unwrap(),
        ])
        .args(["--format", "v6"])
        .status()
        .expect("run bepi preprocess");
    assert!(status.success(), "preprocess failed");

    // Flip the middle byte of the largest payload section: the mapped
    // open does not CRC payloads eagerly. (A byte in alignment padding is
    // covered by no CRC, so the target comes from the section table, not
    // from the file length.)
    let mut data = std::fs::read(&good).unwrap();
    let largest = bepi_map::parse_layout(&data)
        .unwrap()
        .into_iter()
        .max_by_key(|e| e.len)
        .unwrap();
    let mid = (largest.offset + largest.len / 2) as usize;
    data[mid] ^= 0x40;
    std::fs::write(&bad, &data).unwrap();

    let run = |index: &Path| {
        bepi()
            .args(["serve", index.to_str().unwrap(), "5", "--mmap"])
            .output()
            .expect("run bepi serve one-shot")
    };

    let ok = run(&good);
    assert!(
        ok.status.success(),
        "one-shot query on the intact index failed"
    );

    let corrupt = run(&bad);
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(!corrupt.status.success(), "corrupt index was served");
    assert!(
        !stderr.contains("panicked"),
        "corrupt payload panicked instead of erroring:\n{stderr}"
    );
    assert!(
        stderr.contains("checksum") || stderr.contains("section") || stderr.contains("corrupt"),
        "error does not describe the corruption:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
