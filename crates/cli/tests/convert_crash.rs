//! `bepi convert` crash safety: killing the process mid-convert must
//! leave the source index untouched and never a half-written
//! destination — the output is staged in a temp file and renamed into
//! place only when complete.

use bepi_sparse::mem::format_bytes;
use std::path::Path;
use std::process::Command;

fn bepi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bepi"))
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn sigkill_during_convert_leaves_source_untouched() {
    let dir = std::env::temp_dir().join(format!("bepi-convert-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("edges.txt");
    let src = dir.join("src.bepi");
    let out = dir.join("out.bepi");

    // A graph big enough that conversion does measurable work.
    let mut text = String::new();
    for v in 0..400u32 {
        text.push_str(&format!("{} {}\n", v, (v + 1) % 400));
        text.push_str(&format!("{} {}\n", v, (v * 7 + 3) % 400));
    }
    std::fs::write(&edges, text).unwrap();
    let status = bepi()
        .args(["preprocess", edges.to_str().unwrap(), src.to_str().unwrap()])
        .args(["--embed-graph"])
        .status()
        .expect("run bepi preprocess");
    assert!(status.success(), "preprocess failed");
    let src_before = read(&src);

    // Kill converts at staggered points; whatever instant the SIGKILL
    // lands at, the invariants below must hold.
    for attempt in 0..5u32 {
        std::fs::remove_file(&out).ok();
        let mut child = bepi()
            .args(["convert", src.to_str().unwrap(), out.to_str().unwrap()])
            .spawn()
            .expect("spawn bepi convert");
        std::thread::sleep(std::time::Duration::from_millis(attempt as u64 * 3));
        child.kill().ok(); // SIGKILL on unix — no cleanup handlers run
        child.wait().unwrap();

        assert_eq!(
            read(&src),
            src_before,
            "attempt {attempt}: source index changed"
        );
        // The destination either never appeared or is the complete,
        // loadable v6 result of a finished rename — never a torn file.
        if out.exists() {
            let output = bepi()
                .args(["stats", out.to_str().unwrap(), "--mmap"])
                .output()
                .expect("run bepi stats");
            assert!(
                output.status.success(),
                "attempt {attempt}: destination exists but is not a valid index:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
        }
    }

    // And an uninterrupted convert still succeeds over the same source,
    // reporting what it wrote. A source without an embedded graph takes
    // the message's other arm.
    std::fs::remove_file(&out).ok();
    let plain = dir.join("plain.bepi");
    let status = bepi()
        .args([
            "preprocess",
            edges.to_str().unwrap(),
            plain.to_str().unwrap(),
        ])
        .status()
        .expect("run bepi preprocess");
    assert!(status.success(), "preprocess failed");
    for (input, version, graph_note) in [
        (&src, 5, "graph embedded"),
        (&plain, 4, "no embedded graph"),
    ] {
        let output = bepi()
            .args(["convert", input.to_str().unwrap(), out.to_str().unwrap()])
            .output()
            .expect("run bepi convert");
        assert!(output.status.success());
        assert_eq!(
            String::from_utf8(output.stdout).unwrap(),
            format!(
                "converted {} (v{version}) -> {} (v6, {}, {graph_note})\n",
                input.display(),
                out.display(),
                format_bytes(read(&out).len())
            )
        );
    }
    assert_eq!(read(&src), src_before);
    std::fs::remove_dir_all(&dir).ok();
}
