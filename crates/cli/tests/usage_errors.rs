//! How `bepi` reports a failure: an argument error prints its message and
//! then the usage text; a runtime error (a load, IO or solver failure)
//! prints its one `error:` line alone. Each subcommand takes only the
//! flags its row of the command table names.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bepi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bepi"))
        .args(args)
        .output()
        .expect("run bepi")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bepi-usage-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts `args` fail with an argument error whose message names every
/// one of `names`, followed by the usage text.
fn assert_usage_error(args: &[&str], names: &[&str]) {
    let out = bepi(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: "), "{args:?}:\n{stderr}");
    for name in names {
        assert!(first.contains(name), "{args:?} must name {name}:\n{stderr}");
    }
    assert!(
        stderr.contains("\nusage:\n"),
        "{args:?} printed no usage:\n{stderr}"
    );
}

#[test]
fn a_runtime_error_prints_one_line_without_the_usage() {
    let dir = temp_dir("runtime");
    let index = dir.join("bad-magic.bepi");
    std::fs::write(&index, b"NOPE this is not an index file at all").unwrap();
    let out = bepi(&["serve", index.to_str().unwrap(), "5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a bad index was served:\n{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_argument_prints_the_usage() {
    assert_usage_error(&[], &["missing subcommand"]);
    assert_usage_error(&["query", "g.txt"], &["missing <seed>", "query"]);
    assert_usage_error(&["preprocess", "g.txt"], &["missing <out.bepi>"]);
    assert_usage_error(&["ppr", "g.txt", "--top", "3"], &["missing <seed:weight>"]);
    assert_usage_error(&["serve", "idx.bepi"], &["missing <seed>", "serve"]);
    assert_usage_error(&["query", "g.txt", "0", "--top"], &["--top needs a value"]);
    assert_usage_error(
        &["query", "g.txt", "0", "extra"],
        &["unexpected argument extra"],
    );
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_an_argument_error() {
    for (line, flag, sub) in [
        ("serve idx.bepi 0 --k 0.3", "--k", "serve"),
        ("serve idx.bepi 0 --variant full", "--variant", "serve"),
        ("serve idx.bepi 0 --labels", "--labels", "serve"),
        ("serve idx.bepi 0 --threads 2", "--threads", "serve"),
        (
            "serve idx.bepi --listen 127.0.0.1:0 --top 3",
            "--top",
            "serve",
        ),
        ("preprocess g.txt out.bepi --mmap", "--mmap", "preprocess"),
        (
            "preprocess g.txt out.bepi --labels",
            "--labels",
            "preprocess",
        ),
        ("select-k g.txt --top 3", "--top", "select-k"),
        ("community g.txt 0 --method tpa", "--method", "community"),
        ("stats g.txt --listen 127.0.0.1:0", "--listen", "stats"),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        assert_usage_error(&args, &[&format!("unknown flag: {flag}"), sub]);
    }
}

/// Every flag combination the README, `scripts/ci.sh`, the benchmark and
/// the other tests pass still parses: each of these fails only at run time,
/// on the missing input file, and prints no usage.
#[test]
fn documented_invocations_still_parse() {
    let dir = temp_dir("accepted");
    for line in [
        "query MISSING 42 --top 10 --method tpa --terms 3",
        "query MISSING 42 --labels --c 0.1 --tol 1e-8 --k 0.2",
        "ppr MISSING 3:0.7 9:0.3 --top 5 --variant full",
        "community MISSING 42 --max-size 100",
        "stats MISSING --mmap",
        "select-k MISSING --c 0.05",
        "preprocess MISSING out.bepi --format v6 --k 0.2 --embed-graph",
        "preprocess MISSING out.bepi --variant full --log-level info",
        "serve MISSING 42 --top 3 --mmap",
        "serve MISSING --listen 127.0.0.1:0 --mmap --threads 2",
        "serve MISSING --listen 127.0.0.1:0 --wal updates.wal --auto-flush 16 --log-level info",
        "serve MISSING --listen 127.0.0.1:0 --cache-entries 0 --queue-depth 1 --timeout-ms 5000 \
         --slow-query-ms 0 --pressure 0 --trace-export trace.json --graph g.txt --checkpoint cp.bepi",
    ] {
        let missing = dir.join("missing");
        let args: Vec<&str> = (line.split_whitespace())
            .map(|arg| match arg {
                "MISSING" => missing.to_str().unwrap(),
                arg => arg,
            })
            .collect();
        let out = bepi(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{line}:\n{stderr}");
        assert!(!stderr.contains("usage:"), "{line}:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
