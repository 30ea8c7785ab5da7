//! Audits the CLI usage text against the argument parsers.
//!
//! Every `--flag` literal that appears in `src/main.rs` (i.e. every flag
//! some parser accepts) must also appear in the output of `bepi help`,
//! so the usage text cannot silently drift from the parsers when a flag
//! is added.

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

#[test]
fn every_parsed_flag_is_documented_in_help() {
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
    let documented = extract_flags(&help);

    let missing: Vec<&String> = parsed.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "flags accepted by a parser but absent from `bepi help`: {missing:?}"
    );
}

#[test]
fn help_documents_every_query_method_and_serving_mode() {
    let out = Command::new(env!("CARGO_BIN_EXE_bepi"))
        .arg("help")
        .output()
        .expect("run bepi help");
    let help = String::from_utf8(out.stdout).expect("utf8 help text");
    // `--method` must be documented with all four engines, and the
    // daemon's mode parameter with all three values — these are the
    // user-facing names of the approximate-serving surface.
    assert!(help.contains("--method"), "missing --method");
    for method in ["bepi", "push", "walk", "tpa"] {
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
    assert!(help.contains("--approx-engine"), "missing --approx-engine");
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
