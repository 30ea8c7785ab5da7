//! The index file on disk: `bepi preprocess` replaces an index
//! atomically (killing it mid-write leaves the old bytes or a complete
//! new index, never a torn file), and every entry point rejects an index
//! written in a retired format — pre-v6, or a v6 layout from before
//! `h11.larger_blocks` — with one error that names what is wrong and the
//! way to rebuild it.

use bepi_sparse::mem::format_bytes;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn bepi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bepi"))
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bepi-index-file-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn sigkill_during_preprocess_leaves_old_or_new_index() {
    let dir = temp_dir("crash");
    let edges = dir.join("edges.txt");
    let index = dir.join("index.bepi");

    // A graph big enough that preprocessing and writing take a while
    // (about 80 ms and a 3 MB index on a 2-core x86 host).
    let n = 30_000u32;
    let mut text = String::new();
    for v in 0..n {
        text.push_str(&format!("{} {}\n", v, (v + 1) % n));
        text.push_str(&format!("{} {}\n", v, (v * 7 + 3) % n));
        text.push_str(&format!("{} {}\n", v, (v * 13 + 5) % n));
    }
    std::fs::write(&edges, text).unwrap();
    let status = bepi()
        .args(["preprocess", path_str(&edges), path_str(&index)])
        .status()
        .expect("run bepi preprocess");
    assert!(status.success(), "preprocess failed");
    let before = read(&index);

    // Re-preprocess over the good index (with the graph embedded, so the
    // new file differs) and SIGKILL at staggered points: whatever instant
    // the kill lands at, the destination is the old bytes or a complete
    // index.
    for attempt in 0..10u64 {
        let mut child = bepi()
            .args(["preprocess", path_str(&edges), path_str(&index)])
            .arg("--embed-graph")
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn bepi preprocess");
        std::thread::sleep(std::time::Duration::from_millis(attempt * 8));
        child.kill().ok(); // SIGKILL on unix — no cleanup handlers run
        child.wait().unwrap();

        if read(&index) != before {
            let output = bepi()
                .args(["stats", path_str(&index), "--mmap"])
                .output()
                .expect("run bepi stats");
            assert!(
                output.status.success(),
                "attempt {attempt}: the index was replaced by an unreadable file:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
        }
    }

    // An uninterrupted run replaces the index and reports what it wrote.
    let output = bepi()
        .args(["preprocess", path_str(&edges), path_str(&index)])
        .arg("--embed-graph")
        .output()
        .expect("run bepi preprocess");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let summary = stdout.lines().next().unwrap();
    let tail = format!(
        " edges into {} (format v6, {}, graph embedded: live-update capable)",
        index.display(),
        format_bytes(read(&index).len())
    );
    assert!(
        summary.starts_with(&format!("preprocessed {n} nodes / ")) && summary.ends_with(&tail),
        "{summary}"
    );
    assert!(read(&index) != before, "the old index was not replaced");
    std::fs::remove_dir_all(&dir).ok();
}

/// Asserts `output` is a clean failure (an exit code, no panic) whose
/// stderr names what is wrong with the file (`want`) and `bepi
/// preprocess`.
fn assert_rejects_old(what: &str, output: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{what} accepted an old index");
    assert!(
        output.status.code().is_some(),
        "{what} must exit with an error code, not die on a signal"
    );
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
    assert!(
        stderr.contains(want) && stderr.contains("bepi preprocess"),
        "{what} must name {want:?} and the fix, got:\n{stderr}"
    );
}

/// A fresh `bepi preprocess` index of a small graph, rewritten in the
/// layout v6 files had before `h11.larger_blocks`: that section left
/// out, every other section copied with its checksum.
fn earlier_v6_layout(dir: &Path) -> Vec<u8> {
    let edges = dir.join("edges.txt");
    std::fs::write(&edges, "0 1\n1 2\n2 0\n2 3\n3 1\n").unwrap();
    let index = dir.join("fresh.bepi");
    let status = bepi()
        .args(["preprocess", path_str(&edges), path_str(&index)])
        .stdout(Stdio::null())
        .status()
        .expect("run bepi preprocess");
    assert!(status.success(), "preprocess failed");
    let buf = read(&index);
    let mut w = bepi_map::ContainerWriter::new(Vec::new()).unwrap();
    for e in bepi_map::parse_layout(&buf).unwrap() {
        if e.id != bepi_map::sections::H11_LARGER_BLOCKS {
            let payload = &buf[e.offset as usize..(e.offset + e.len) as usize];
            w.section_bytes(e.id, payload).unwrap();
        }
    }
    w.finish().unwrap()
}

#[test]
fn pre_v6_index_is_rejected_at_every_entry_point() {
    let dir = temp_dir("old");
    // A hand-assembled pre-v6 file: the shared magic, version 4, junk.
    let v4 = dir.join("v4.bepi");
    let mut bytes = b"BEPI".to_vec();
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&[0x5A; 100]);
    std::fs::write(&v4, &bytes).unwrap();
    let earlier = dir.join("earlier.bepi");
    std::fs::write(&earlier, earlier_v6_layout(&dir)).unwrap();

    for (old, want) in [
        (path_str(&v4), "index format v4"),
        (path_str(&earlier), "without section h11.larger_blocks"),
    ] {
        let runs: [(&str, &[&str]); 6] = [
            ("serve", &["serve", old, "0"]),
            ("serve --mmap", &["serve", old, "0", "--mmap"]),
            ("serve daemon", &["serve", old, "--listen", "127.0.0.1:0"]),
            (
                "serve daemon --mmap",
                &["serve", old, "--listen", "127.0.0.1:0", "--mmap"],
            ),
            ("stats", &["stats", old]),
            ("stats --mmap", &["stats", old, "--mmap"]),
        ];
        for (what, args) in runs {
            let output = bepi()
                .args(args)
                .stdin(Stdio::null())
                .output()
                .unwrap_or_else(|e| panic!("run bepi {what}: {e}"));
            assert_rejects_old(what, &output, want);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn format_flag_accepts_only_v6() {
    let dir = temp_dir("format");
    let edges = dir.join("edges.txt");
    std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
    let index = dir.join("index.bepi");
    for (format, accepted) in [("v6", true), ("6", true), ("v4", false), ("v5", false)] {
        let output = bepi()
            .args(["preprocess", path_str(&edges), path_str(&index)])
            .args(["--format", format])
            .output()
            .expect("run bepi preprocess");
        assert_eq!(output.status.success(), accepted, "--format {format}");
        if !accepted {
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("v6 is the only index format"),
                "--format {format}: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_index_is_bepi_s_without_ilu_and_full_writes_its_factors() {
    use bepi_map::sections::{ILU_DIAG, ILU_VALUES_F32};
    let dir = temp_dir("variant");
    let edges = dir.join("edges.txt");
    let mut text = String::new();
    for v in 0..120u32 {
        text.push_str(&format!("{} {}\n", v, (v + 1) % 120));
        text.push_str(&format!("{} {}\n", v, (v * 7 + 3) % 120));
    }
    std::fs::write(&edges, text).unwrap();
    for (variant, has_ilu) in [(None, false), (Some("full"), true)] {
        let index = dir.join("index.bepi");
        let mut cmd = bepi();
        cmd.args(["preprocess", path_str(&edges), path_str(&index)]);
        if let Some(v) = variant {
            cmd.args(["--variant", v]);
        }
        let output = cmd.output().expect("run bepi preprocess");
        assert!(output.status.success(), "preprocess --variant {variant:?}");
        // The phase table is read from the process's `preprocess.*` spans:
        // one row per phase, in pipeline order, whichever the variant.
        let stdout = String::from_utf8_lossy(&output.stdout);
        let phases: Vec<&str> = stdout
            .lines()
            .skip_while(|l| *l != "--- preprocessing phases ---")
            .skip(2)
            .take_while(|l| !l.starts_with("total (phased)"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(
            phases,
            [
                "deadend",
                "slashburn",
                "assemble",
                "block_lu",
                "schur",
                "precond"
            ],
            "--variant {variant:?}:\n{stdout}"
        );
        let table = bepi_map::parse_layout(&read(&index)).unwrap();
        for id in [ILU_VALUES_F32, ILU_DIAG] {
            assert_eq!(
                table.iter().any(|e| e.id == id),
                has_ilu,
                "--variant {variant:?}: section {}",
                bepi_map::sections::name(id)
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_config_values_exit_cleanly_naming_the_field() {
    let dir = temp_dir("config");
    let edges = dir.join("edges.txt");
    std::fs::write(&edges, "0 1\n1 2\n2 0\n2 3\n3 1\n").unwrap();
    let index = dir.join("index.bepi");
    let cases: [(&str, &str, &str); 6] = [
        ("--k", "2", "hub ratio"),
        ("--k", "0", "hub ratio"),
        ("--k", "nan", "hub ratio"),
        ("--tol", "0", "tol"),
        ("--tol", "-1", "tol"),
        ("--tol", "nan", "tol"),
    ];
    for (flag, value, field) in cases {
        let output = bepi()
            .args(["preprocess", path_str(&edges), path_str(&index)])
            .args([flag, value])
            .output()
            .expect("run bepi preprocess");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} {value}:\n{stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{flag} {value} panicked:\n{stderr}"
        );
        assert!(
            stderr.lines().next().is_some_and(|l| l.contains(field)),
            "{flag} {value} must name {field}:\n{stderr}"
        );
    }
    assert!(!index.exists(), "a rejected config must write no index");
    std::fs::remove_dir_all(&dir).ok();
}
