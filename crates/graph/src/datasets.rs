//! The synthetic dataset suite.
//!
//! The paper evaluates on eight real graphs (Table 2) plus four appendix
//! graphs (Table 5) and the tiny Physicians network (Appendix I). Those
//! range up to 2.6 B edges and require a 500 GB machine; per the
//! substitution rule in `DESIGN.md` §4 we generate R-MAT / Erdős–Rényi
//! stand-ins with matched *shape*: power-law hubs, the paper's per-dataset
//! deadend fractions, and geometrically increasing sizes, scaled so the
//! whole evaluation runs on a laptop. Names keep a `-like` suffix honest.
//!
//! Every spec is deterministic (fixed seed), so experiment tables are
//! reproducible bit-for-bit.

use crate::generators::{self, RmatParams};
use crate::graph::Graph;

/// How a dataset's underlying graph is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// R-MAT with `2^scale` nodes and `m` sampled edges.
    Rmat {
        /// log2 of the node count.
        scale: u32,
        /// Number of edge samples (final m is slightly lower after dedup).
        m: usize,
    },
    /// Erdős–Rényi with exactly `m` distinct directed edges.
    ErdosRenyi {
        /// Node count.
        n: usize,
        /// Edge count.
        m: usize,
    },
}

/// A named synthetic dataset standing in for one of the paper's graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Short name used in tables, e.g. `"slashdot-like"`.
    pub name: &'static str,
    /// The paper dataset this stands in for.
    pub paper_name: &'static str,
    /// Generator and size.
    pub kind: GraphKind,
    /// Fraction of nodes turned into deadends (Table 2's n3/n, approx).
    pub deadend_fraction: f64,
    /// Hub selection ratio `k` used by BePI-S / BePI (Table 2's k column).
    pub hub_ratio: f64,
    /// RNG seed (generation is deterministic).
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the graph (deterministic for a given spec).
    pub fn generate(&self) -> Graph {
        let base = match self.kind {
            GraphKind::Rmat { scale, m } => {
                generators::rmat(scale, m, RmatParams::default(), self.seed)
                    .expect("static spec is valid")
            }
            GraphKind::ErdosRenyi { n, m } => {
                generators::erdos_renyi(n, m, self.seed).expect("static spec is valid")
            }
        };
        if self.deadend_fraction > 0.0 {
            generators::inject_deadends(&base, self.deadend_fraction, self.seed ^ 0xDEAD)
                .expect("fraction in range")
        } else {
            base
        }
    }
}

/// The main evaluation suite — one entry per Table 2 dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Stand-in for Slashdot (79 K nodes, 516 K edges, 42 % deadends).
    Slashdot,
    /// Stand-in for Wikipedia (100 K nodes, 1.6 M edges).
    Wikipedia,
    /// Stand-in for Baidu (416 K nodes, 3.3 M edges).
    Baidu,
    /// Stand-in for Flickr (2.3 M nodes, 33 M edges).
    Flickr,
    /// Stand-in for LiveJournal (4.8 M nodes, 68 M edges).
    LiveJournal,
    /// Stand-in for WikiLink (11 M nodes, 340 M edges).
    WikiLink,
    /// Stand-in for Twitter (42 M nodes, 1.5 B edges).
    Twitter,
    /// Stand-in for Friendster (68 M nodes, 2.6 B edges).
    Friendster,
}

impl Dataset {
    /// All eight datasets in the paper's size order.
    pub fn all() -> [Dataset; 8] {
        [
            Dataset::Slashdot,
            Dataset::Wikipedia,
            Dataset::Baidu,
            Dataset::Flickr,
            Dataset::LiveJournal,
            Dataset::WikiLink,
            Dataset::Twitter,
            Dataset::Friendster,
        ]
    }

    /// The smaller datasets on which the Bear and LU baselines are
    /// feasible (the paper reports both failing beyond the two smallest).
    pub fn small() -> [Dataset; 3] {
        [Dataset::Slashdot, Dataset::Wikipedia, Dataset::Baidu]
    }

    /// The four datasets of Figures 4 and 8 (hub-ratio sweeps).
    pub fn sweep() -> [Dataset; 4] {
        [
            Dataset::Slashdot,
            Dataset::Wikipedia,
            Dataset::Flickr,
            Dataset::WikiLink,
        ]
    }

    /// The spec (generator parameters, deadend fraction, hub ratio `k`).
    ///
    /// Sizes are geometrically scaled-down versions of Table 2; deadend
    /// fractions and the `k` column follow the paper.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Slashdot => DatasetSpec {
                name: "slashdot-like",
                paper_name: "Slashdot",
                kind: GraphKind::Rmat {
                    scale: 11,
                    m: 14_000,
                },
                deadend_fraction: 0.42,
                hub_ratio: 0.30,
                seed: 0xBE9101,
            },
            Dataset::Wikipedia => DatasetSpec {
                name: "wikipedia-like",
                paper_name: "Wikipedia",
                kind: GraphKind::Rmat {
                    scale: 12,
                    m: 42_000,
                },
                deadend_fraction: 0.04,
                hub_ratio: 0.25,
                seed: 0xBE9102,
            },
            Dataset::Baidu => DatasetSpec {
                name: "baidu-like",
                paper_name: "Baidu",
                kind: GraphKind::Rmat {
                    scale: 13,
                    m: 70_000,
                },
                deadend_fraction: 0.05,
                hub_ratio: 0.20,
                seed: 0xBE9103,
            },
            Dataset::Flickr => DatasetSpec {
                name: "flickr-like",
                paper_name: "Flickr",
                kind: GraphKind::Rmat {
                    scale: 14,
                    m: 240_000,
                },
                deadend_fraction: 0.156,
                hub_ratio: 0.20,
                seed: 0xBE9104,
            },
            Dataset::LiveJournal => DatasetSpec {
                name: "livejournal-like",
                paper_name: "LiveJournal",
                kind: GraphKind::Rmat {
                    scale: 15,
                    m: 470_000,
                },
                deadend_fraction: 0.114,
                hub_ratio: 0.30,
                seed: 0xBE9105,
            },
            Dataset::WikiLink => DatasetSpec {
                name: "wikilink-like",
                paper_name: "WikiLink",
                kind: GraphKind::Rmat {
                    scale: 16,
                    m: 1_000_000,
                },
                deadend_fraction: 0.002,
                hub_ratio: 0.20,
                seed: 0xBE9106,
            },
            Dataset::Twitter => DatasetSpec {
                name: "twitter-like",
                paper_name: "Twitter",
                kind: GraphKind::Rmat {
                    scale: 18,
                    m: 3_200_000,
                },
                deadend_fraction: 0.037,
                hub_ratio: 0.20,
                seed: 0xBE9107,
            },
            Dataset::Friendster => DatasetSpec {
                name: "friendster-like",
                paper_name: "Friendster",
                kind: GraphKind::Rmat {
                    scale: 18,
                    m: 4_600_000,
                },
                deadend_fraction: 0.179,
                hub_ratio: 0.20,
                seed: 0xBE9108,
            },
        }
    }

    /// Generates the dataset's graph.
    pub fn generate(self) -> Graph {
        self.spec().generate()
    }
}

/// The appendix-J suite (Table 5: Gnutella, HepPH, Facebook, Digg) used for
/// the BePI-vs-Bear head-to-head of Figure 11: sizes where Bear succeeds.
pub fn appendix_suite() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "gnutella-like",
            paper_name: "Gnutella",
            kind: GraphKind::ErdosRenyi { n: 3_000, m: 7_200 },
            deadend_fraction: 0.10,
            hub_ratio: 0.20,
            seed: 0xA9901,
        },
        DatasetSpec {
            name: "hepph-like",
            paper_name: "HepPH",
            kind: GraphKind::Rmat {
                scale: 11,
                m: 26_000,
            },
            deadend_fraction: 0.02,
            hub_ratio: 0.20,
            seed: 0xA9902,
        },
        DatasetSpec {
            name: "facebook-like",
            paper_name: "Facebook",
            kind: GraphKind::Rmat {
                scale: 12,
                m: 76_000,
            },
            deadend_fraction: 0.01,
            hub_ratio: 0.20,
            seed: 0xA9903,
        },
        DatasetSpec {
            name: "digg-like",
            paper_name: "Digg",
            kind: GraphKind::Rmat {
                scale: 13,
                m: 50_000,
            },
            deadend_fraction: 0.05,
            hub_ratio: 0.20,
            seed: 0xA9904,
        },
    ]
}

/// Stand-in for the 241-node Physicians network of Appendix I (exact-
/// solution accuracy experiment, Figure 10).
pub fn physicians_like() -> Graph {
    generators::erdos_renyi(241, 1_098, 0xF151C1A5).expect("static spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;

    #[test]
    fn all_specs_have_distinct_names_and_seeds() {
        let mut names = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for d in Dataset::all() {
            let s = d.spec();
            assert!(names.insert(s.name));
            assert!(seeds.insert(s.seed));
        }
    }

    #[test]
    fn sizes_are_monotonically_increasing() {
        let ms: Vec<usize> = Dataset::all()
            .iter()
            .map(|d| match d.spec().kind {
                GraphKind::Rmat { m, .. } | GraphKind::ErdosRenyi { m, .. } => m,
            })
            .collect();
        for w in ms.windows(2) {
            assert!(w[0] < w[1], "suite sizes must increase: {ms:?}");
        }
    }

    #[test]
    fn slashdot_like_matches_spec() {
        let g = Dataset::Slashdot.generate();
        assert_eq!(g.n(), 2048);
        assert!(g.m() > 5_000, "m = {}", g.m());
        // ~42% of nodes should be deadends (isolated R-MAT nodes add more).
        let frac = g.deadend_count() as f64 / g.n() as f64;
        assert!(frac > 0.35, "deadend fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Dataset::Wikipedia.generate(), Dataset::Wikipedia.generate());
    }

    #[test]
    fn hub_ratios_match_paper_table2() {
        assert_eq!(Dataset::Slashdot.spec().hub_ratio, 0.30);
        assert_eq!(Dataset::Wikipedia.spec().hub_ratio, 0.25);
        assert_eq!(Dataset::Baidu.spec().hub_ratio, 0.20);
        assert_eq!(Dataset::LiveJournal.spec().hub_ratio, 0.30);
    }

    #[test]
    fn suite_has_power_law_structure() {
        let g = Dataset::Baidu.generate();
        let s = graph_stats(&g);
        assert!(s.max_degree as f64 > 10.0 * s.mean_degree);
        assert!(s.power_law_alpha.is_some());
    }

    #[test]
    fn appendix_suite_is_small_enough_for_bear() {
        for spec in appendix_suite() {
            let g = spec.generate();
            assert!(g.n() <= 10_000, "{} too big", spec.name);
            assert!(g.n() >= 1_000);
        }
    }

    #[test]
    fn physicians_like_matches_paper_scale() {
        let g = physicians_like();
        assert_eq!(g.n(), 241);
        assert_eq!(g.m(), 1_098);
    }
}
