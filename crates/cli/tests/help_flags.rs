//! Audits the CLI usage text against the argument parsers, in both
//! directions.
//!
//! Every `--flag` literal that appears in the parser code of
//! `src/main.rs` (i.e. every flag some parser accepts) must also appear
//! in the output of `bepi help`, and every `--flag` the help prints must
//! appear in that parser code, so the usage text cannot silently drift
//! from the parsers when a flag is added or deleted.

use std::collections::BTreeSet;
use std::process::Command;

/// Extract every distinct `--flag-name` token from `text`.
fn extract_flags(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut flags = BTreeSet::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'-' && bytes[i + 1] == b'-' {
            let start = i;
            i += 2;
            while i < bytes.len() && (bytes[i].is_ascii_lowercase() || bytes[i] == b'-') {
                i += 1;
            }
            // Require at least one letter after the dashes, and skip
            // doc-comment dashes like `// --- section ---`.
            let tok = &text[start..i];
            if tok.len() > 2 && tok[2..].bytes().any(|b| b.is_ascii_lowercase()) {
                flags.insert(tok.trim_end_matches('-').to_string());
            }
        } else {
            i += 1;
        }
    }
    flags
}

/// The flags named in the parser code of `src/main.rs`, and the flags
/// `bepi help` prints.
fn parsed_and_documented_flags() -> (BTreeSet<String>, BTreeSet<String>) {
    let src_path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/main.rs");
    let src = std::fs::read_to_string(src_path).expect("read src/main.rs");

    // Only lines that mention a flag in code (match arms, comparisons,
    // starts_with checks) count as "the parser accepts this" — the USAGE
    // string itself is what we're auditing, so exclude it by extracting
    // flags from string literals in code lines that are not part of the
    // USAGE const. Simplest robust split: USAGE is a single raw string
    // const; everything after its closing delimiter is parser code.
    let after_usage = src.split_once("\";").map(|(_, rest)| rest).unwrap_or(&src);
    let parsed = extract_flags(after_usage);
    assert!(
        parsed.contains("--threads") && parsed.contains("--listen"),
        "flag extraction looks broken: {parsed:?}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
        .arg("help")
        .output()
        .expect("run bepi help");
    assert!(out.status.success(), "bepi help exited nonzero");
    let help = String::from_utf8(out.stdout).expect("utf8 help text");
    (parsed, extract_flags(&help))
}

#[test]
fn every_parsed_flag_is_documented_in_help() {
    let (parsed, documented) = parsed_and_documented_flags();
    let missing: Vec<&String> = parsed.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "flags accepted by a parser but absent from `bepi help`: {missing:?}"
    );
}

#[test]
fn every_documented_flag_is_parsed() {
    let (parsed, documented) = parsed_and_documented_flags();
    let stale: Vec<&String> = documented.difference(&parsed).collect();
    assert!(
        stale.is_empty(),
        "flags in `bepi help` that no parser accepts: {stale:?}"
    );
}

#[test]
fn help_prints_the_real_terms_default() {
    let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
        .arg("help")
        .output()
        .expect("run bepi help");
    let help = String::from_utf8(out.stdout).expect("utf8 help text");
    let line = help
        .lines()
        .find(|l| l.trim_start().starts_with("--terms"))
        .expect("--terms documented");
    let printed: usize = line
        .split_once("(default ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no numeric default on: {line}"));
    assert_eq!(printed, bepi_walk::ApproxConfig::default().max_terms);
}

/// Runs `bepi` with `args` and returns its stderr, asserting it failed.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
        .args(args)
        .output()
        .expect("run bepi");
    assert!(!out.status.success(), "{args:?} must be rejected");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_documents_every_query_method_and_serving_mode() {
    let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
        .arg("help")
        .output()
        .expect("run bepi help");
    let help = String::from_utf8(out.stdout).expect("utf8 help text");
    // `--method` must be documented with all three engines, and the
    // daemon's mode parameter with all three values — these are the
    // user-facing names of the approximate-serving surface.
    assert!(help.contains("--method"), "missing --method");
    for method in ["bepi", "push", "tpa"] {
        assert!(
            help.contains(method),
            "query method `{method}` missing from help output"
        );
    }
    assert!(
        help.contains("mode=exact|approx|auto") || help.contains("mode=M"),
        "daemon mode parameter missing from help output"
    );
    assert!(help.contains("--pressure"), "missing --pressure");

    // The converse for the removed random-walk engine and its knobs: TPA
    // is the one approximate estimator, so there is nothing to choose
    // between and no RNG replicate to select.
    let stderr = rejected(&["query", "g.txt", "0", "--method", "walk"]);
    assert!(
        stderr.contains("bad --method"),
        "unexpected stderr: {stderr}"
    );
    for flag in ["--approx-engine", "--walks", "--epoch"] {
        let stderr = rejected(&["serve", "idx.bepi", "--listen", "127.0.0.1:0", flag, "1"]);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "unexpected stderr: {stderr}"
        );
        let stderr = rejected(&["query", "g.txt", "0", flag, "1"]);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "unexpected stderr: {stderr}"
        );
    }
}

#[test]
fn help_lists_every_subcommand_dispatched() {
    let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
        .arg("help")
        .output()
        .expect("run bepi help");
    let help = String::from_utf8(out.stdout).expect("utf8 help text");
    for sub in [
        "query",
        "ppr",
        "community",
        "stats",
        "select-k",
        "preprocess",
        "serve",
        "route",
        "help",
    ] {
        assert!(
            help.contains(&format!("bepi {sub}")),
            "subcommand `{sub}` missing from help output"
        );
    }

    // The converse for the subcommands that were removed: performance is
    // measured by `benchmark/`, not by the CLI, and v6 is the only index
    // format, so there is nothing to convert.
    for (sub, args) in [("bench", ["--quick"]), ("convert", ["in.bepi"])] {
        let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
            .arg(sub)
            .args(args)
            .output()
            .expect("run the removed subcommand");
        assert!(!out.status.success(), "`{sub}` must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown subcommand: {sub}")),
            "unexpected stderr: {stderr}"
        );
    }
}
