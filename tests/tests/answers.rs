//! The answer corpus: fixed graphs in, exact answers out.
//!
//! Every line of `golden/answers.txt` pins one answer bit for bit: for
//! four graphs × the three BePI variants, one seed per seed class (a dead
//! end, a hub, a spoke in a 1 × 1 `H11` block, a spoke in a larger block)
//! with an FNV-64 of its score bits, its GMRES iteration count, its
//! residual bits and its top-10 ids. Beside them it pins the FNV-64 of
//! the index file with and without the graph, and the heap and mapped
//! bytes of every `memory_report()` section on a fresh, a heap-loaded and
//! a mapped index. The heap-loaded and mapped indexes must give the fresh
//! index's answers bit for bit.
//!
//! Other tests check that the code agrees with itself; this one checks
//! that it agrees with the commit that wrote the corpus, so a change that
//! moves the answers of every path alike fails here. On a mismatch the
//! test writes what it got next to the build's temporary files and names
//! that path. A change that means to move an answer regenerates the
//! corpus with `BEPI_REGENERATE_ANSWERS=1 cargo test --test answers` and
//! says why.

use bepi_core::persist::{load, load_mapped_file, save_v6};
use bepi_core::prelude::*;
use bepi_graph::{generators, Dataset, Graph};
use bepi_sparse::Coo;
use bepi_tests::fixture_zoo;
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a, 64 bit.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An R-MAT graph with a third of its nodes turned into dead ends.
fn rmat_deadends() -> Graph {
    let g = generators::rmat(10, 5_000, generators::RmatParams::default(), 17).unwrap();
    generators::inject_deadends(&g, 0.3, 19).unwrap()
}

/// An R-MAT graph whose edges carry non-integral weights, so `S` holds
/// more distinct values than an unweighted graph gives.
fn weighted() -> Graph {
    let g = generators::rmat(9, 3_000, generators::RmatParams::default(), 23).unwrap();
    let mut coo = Coo::new(g.n(), g.n()).unwrap();
    for (u, v, w) in g.adjacency().iter() {
        let scale = 1.0 + ((u * 31 + v * 17) % 89) as f64 / 8.0;
        coo.push(u, v, w * scale).unwrap();
    }
    Graph::from_adjacency(coo.to_csr()).unwrap()
}

fn zoo_member(name: &str) -> Graph {
    let fx = fixture_zoo().into_iter().find(|fx| fx.name == name);
    fx.expect("a fixture of that name").graph
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("slashdot-like", Dataset::Slashdot.generate()),
        ("rmat-deadends", rmat_deadends()),
        ("weighted", weighted()),
        ("erdos-renyi", zoo_member("erdos-renyi")),
    ]
}

const CLASSES: [&str; 4] = ["deadend", "hub", "spoke-1x1", "spoke-block"];

/// The seed class of original node `old`: where the index puts it.
fn class_of(bepi: &BePi, old: usize) -> &'static str {
    let new = bepi.permutation().apply(old);
    let stats = bepi.stats();
    if new >= stats.n1 + stats.n2 {
        return "deadend";
    }
    if new >= stats.n1 {
        return "hub";
    }
    let mut start = 0;
    for size in bepi.h11_factors().block_sizes() {
        if new < start + size {
            return if size == 1 {
                "spoke-1x1"
            } else {
                "spoke-block"
            };
        }
        start += size;
    }
    unreachable!("spoke {old} lies in no H11 block")
}

/// The node of each seed class with the most out-edges, smallest id
/// first among equals, or `None` for an empty class. The first node of a
/// class by id is often a spoke whose walk never reaches a hub and takes
/// no GMRES iteration.
fn seeds(bepi: &BePi, g: &Graph) -> [Option<usize>; 4] {
    CLASSES.map(|class| {
        (0..g.n())
            .filter(|&u| class_of(bepi, u) == class)
            .min_by_key(|&u| (std::cmp::Reverse(g.out_degree(u)), u))
    })
}

/// One line per seed class: the answer, bit for bit.
fn answer_lines(prefix: &str, bepi: &BePi, g: &Graph) -> String {
    let mut out = String::new();
    for (class, seed) in CLASSES.iter().zip(seeds(bepi, g)) {
        let Some(seed) = seed else {
            writeln!(out, "{prefix} {class} none").unwrap();
            continue;
        };
        let r = bepi.query_with_stats(seed).unwrap();
        let hash = fnv64(r.scores.iter().flat_map(|s| s.to_bits().to_le_bytes()));
        let top: Vec<String> = r.top_k(10).iter().map(usize::to_string).collect();
        writeln!(
            out,
            "{prefix} {class} seed={seed} scores={hash:016x} iters={} residual={:016x} top10={}",
            r.iterations,
            r.residual.to_bits(),
            top.join(",")
        )
        .unwrap();
    }
    out
}

/// One line per `memory_report()` section: its heap and mapped bytes.
/// A section is read through its `Debug` form — its name, then its two
/// counts, heap first — so the corpus pins the figures and not how the
/// section type spells its fields.
fn memory_lines(prefix: &str, form: &str, bepi: &BePi) -> String {
    let mut out = String::new();
    for s in bepi.memory_report() {
        let debug = format!("{s:?}");
        let (_, after_name) = debug.split_once(&format!("{:?}", s.name)).unwrap();
        let counts: Vec<&str> = after_name
            .split(|c: char| !c.is_ascii_digit())
            .filter(|d| !d.is_empty())
            .collect();
        let [heap, mapped] = counts[..] else {
            panic!("section {debug} does not hold exactly two counts");
        };
        writeln!(
            out,
            "{prefix} memory {form} {} heap={heap} mapped={mapped}",
            s.name
        )
        .unwrap();
    }
    out
}

fn file_bytes(bepi: &BePi, graph: Option<&Graph>) -> Vec<u8> {
    let mut buf = Vec::new();
    save_v6(bepi, graph, &mut buf).unwrap();
    buf
}

fn corpus() -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let mut out = String::new();
    for (name, g) in graphs() {
        for variant in [BePiVariant::Basic, BePiVariant::Sparse, BePiVariant::Full] {
            let prefix = format!("{name} {}", variant.name());
            let fresh = BePi::preprocess(&g, &BePiConfig::for_variant(variant)).unwrap();
            let answers = answer_lines(&prefix, &fresh, &g);
            out.push_str(&answers);

            let bare = file_bytes(&fresh, None);
            let with_graph = file_bytes(&fresh, Some(&g));
            writeln!(
                out,
                "{prefix} file bare={:016x} graph={:016x}",
                fnv64(bare.iter().copied()),
                fnv64(with_graph.iter().copied())
            )
            .unwrap();

            let heap = load(&bare[..]).unwrap();
            let path = dir.join(format!("answers-{name}-{}.bepi", variant.name()));
            std::fs::write(&path, &bare).unwrap();
            let (mapped, _) = load_mapped_file(&path).unwrap();
            for (form, bepi) in [("heap", &heap), ("mapped", &mapped)] {
                assert_eq!(
                    answer_lines(&prefix, bepi, &g),
                    answers,
                    "{prefix}: the {form}-loaded index answers differently from the fresh one"
                );
            }
            for (form, bepi) in [("fresh", &fresh), ("heap", &heap), ("mapped", &mapped)] {
                out.push_str(&memory_lines(&prefix, form, bepi));
            }
            drop(mapped);
            std::fs::remove_file(&path).unwrap();
        }
    }
    out
}

#[test]
fn answers_match_the_corpus() {
    let actual = corpus();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/answers.txt");
    if std::env::var_os("BEPI_REGENERATE_ANSWERS").is_some() {
        std::fs::write(&path, &actual).expect("write the regenerated corpus");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let got = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-actual-answers.txt");
        std::fs::write(&got, &actual).expect("write the mismatching corpus");
        panic!(
            "{} differs from the answers got; got {}",
            path.display(),
            got.display()
        );
    }
}
