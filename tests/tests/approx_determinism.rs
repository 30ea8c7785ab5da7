//! Determinism guarantees of the approximate serving tier (`bepi-walk`):
//! for a fixed `(query seed, graph version)` the TPA engine must return
//! *bit-identical* scores at any kernel thread count and over both owned
//! and memory-mapped CSR storage. The daemon's response
//! cache and the `X-Approx` contract lean on exactly this — a cached
//! approximate body must be byte-for-byte what a fresh solve would
//! produce, no matter which worker or storage backing answered.

use bepi_core::prelude::*;
use bepi_graph::Graph;
use bepi_sparse::vecops::top_k_indices;
use bepi_walk::{ApproxConfig, ApproxEngine};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `bepi_par::set_threads` is a process-wide override; serialize every
/// test that flips it so concurrent test threads never observe a
/// mid-flight value. (The determinism property itself makes the thread
/// count invisible in the *scores* — the lock only keeps the tests'
/// base-vs-variant bookkeeping coherent.)
static THREADS: Mutex<()> = Mutex::new(());

fn engine(g: &Graph) -> ApproxEngine {
    ApproxEngine::new(g, 0.05, ApproxConfig::default()).expect("engine build")
}

/// Round-trips `g` through the v6 on-disk format and returns the graph
/// as decoded from the shared read-only memory mapping, so its CSR
/// arrays borrow mapped storage instead of owned `Vec`s.
fn mmap_round_trip(g: &Graph) -> Graph {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let bepi = BePi::preprocess(g, &BePiConfig::default()).expect("preprocess");
    let path = std::env::temp_dir().join(format!(
        "bepi_approx_det_{}_{}.v6",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    bepi_core::persist::save_file_v6(&bepi, Some(g), &path).expect("save v6");
    let (_, mapped) = bepi_core::persist::load_mapped_file(&path).expect("mmap open");
    std::fs::remove_file(&path).ok();
    mapped.expect("v6 file saved with graph must reload it")
}

/// The full determinism matrix for one graph: each thread count ×
/// storage backing must reproduce the thread-1 owned-storage scores
/// bit-for-bit for `seed`.
fn assert_bit_identical_everywhere(g: &Graph, seed: usize) {
    let _guard = THREADS.lock().unwrap();
    let mapped = mmap_round_trip(g);
    bepi_par::set_threads(1);
    let base = engine(g).query(seed, 0).unwrap();
    // Sanity on the base itself: a probability-mass vector.
    let total: f64 = base.scores.iter().sum();
    assert!((0.0..=1.0 + 1e-9).contains(&total), "mass {total}");
    assert!(base.scores[seed] > 0.0, "seed got no mass");
    for threads in [1usize, 2, 4, 8] {
        bepi_par::set_threads(threads);
        let o = engine(g).query(seed, 0).unwrap();
        assert_eq!(
            o.scores, base.scores,
            "owned storage drifted at {threads} threads"
        );
        let m = engine(&mapped).query(seed, 0).unwrap();
        assert_eq!(
            m.scores, base.scores,
            "mapped storage drifted at {threads} threads"
        );
    }
    bepi_par::set_threads(1);
}

/// Random directed graphs with deadends allowed (self-loop-free, like
/// the pipeline proptests). Kept small: each case preprocesses an exact
/// index to produce the v6 mapping.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (5usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 1..(n * 3)).prop_map(move |pairs| {
            let edges: Vec<(usize, usize)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn approx_scores_identical_across_threads_and_storage(
        g in graph_strategy(),
        seed_frac in 0.0f64..1.0,
    ) {
        let seed = ((g.n() - 1) as f64 * seed_frac) as usize;
        assert_bit_identical_everywhere(&g, seed);
    }
}

/// Every walk dies on its first step: the seed's only neighbors are
/// deadends, so TPA's iterate loses all mass after two products and the
/// survival ratio of its tail correction hits zero. The degenerate case
/// must still be deterministic everywhere.
#[test]
fn deadend_only_neighborhood_is_deterministic() {
    let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
    assert_bit_identical_everywhere(&g, 0);
    // Starting *on* a deadend: all mass stays at the seed.
    assert_bit_identical_everywhere(&g, 3);
}

/// A single hub both emits and absorbs every edge: `Ã^T` has one dense
/// row and one dense column, and no mass leaks, so the tail correction
/// runs at survival ρ = 1.
#[test]
fn single_hub_star_is_deterministic() {
    let n = 32;
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((0, v));
        edges.push((v, 0));
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    assert_bit_identical_everywhere(&g, 0);
    assert_bit_identical_everywhere(&g, 7);
}

/// The approximate lane's quality gate: on the slashdot-like anchor,
/// the top-20 (score desc, id asc) of the default-configured TPA engine
/// must overlap the exact solver's top-20 by at least 0.9 on average (the
/// precision TPA is deployed for — Yoon et al., PAPERS.md). The engine is
/// thread-count deterministic (above), so the measured value is one fixed
/// number — 0.97 on these five seeds — and the gate cannot flake.
#[test]
fn default_engines_reach_precision_at_20_on_the_slashdot_anchor() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const K: usize = 20;
    let spec = bepi_graph::Dataset::Slashdot.spec();
    let g = spec.generate();
    let mut rng = StdRng::seed_from_u64(0xBE9C4);
    let seeds: Vec<usize> = (0..5).map(|_| rng.random_range(0..g.n())).collect();
    let cfg = BePiConfig {
        hub_ratio: Some(spec.hub_ratio),
        ..BePiConfig::default()
    };
    let exact = BePi::preprocess(&g, &cfg).unwrap();
    let exact_tops: Vec<Vec<usize>> = seeds
        .iter()
        .map(|&s| top_k_indices(&exact.query(s).unwrap().scores, K))
        .collect();

    let engine = ApproxEngine::new(&g, cfg.c, ApproxConfig::default()).unwrap();
    let hits: usize = seeds
        .iter()
        .zip(&exact_tops)
        .map(|(&s, want)| {
            let got = top_k_indices(&engine.query(s, 0).unwrap().scores, K);
            got.iter().filter(|n| want.contains(n)).count()
        })
        .sum();
    let precision = hits as f64 / (K * seeds.len()) as f64;
    assert!(
        precision >= 0.9,
        "precision@{K} {precision:.3} below the 0.9 gate"
    );
}
