//! Graph IO with arbitrary node labels.
//!
//! Real-world edge lists (SNAP, KONECT — the sources of the paper's
//! datasets, Appendix H) use arbitrary, non-contiguous, sometimes
//! non-numeric node identifiers. [`NodeIndexer`] maps labels to the
//! compact `0..n` ids the solvers need and back again for presenting
//! results.

use crate::graph::Graph;
use bepi_sparse::{Coo, Result, SparseError};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};

/// A bijective mapping between external node labels and compact ids.
#[derive(Debug, Clone, Default)]
pub struct NodeIndexer {
    id_of_label: HashMap<String, u32>,
    label_of_id: Vec<String>,
}

impl NodeIndexer {
    /// Creates an empty indexer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for a label, assigning the next free id on first
    /// sight.
    pub fn intern(&mut self, label: &str) -> usize {
        if let Some(&id) = self.id_of_label.get(label) {
            return id as usize;
        }
        let id = self.label_of_id.len() as u32;
        self.id_of_label.insert(label.to_string(), id);
        self.label_of_id.push(label.to_string());
        id as usize
    }

    /// Looks up an existing label's id.
    pub fn id(&self, label: &str) -> Option<usize> {
        self.id_of_label.get(label).map(|&v| v as usize)
    }

    /// The label for an id.
    pub fn label(&self, id: usize) -> Option<&str> {
        self.label_of_id.get(id).map(String::as_str)
    }

    /// Number of distinct labels seen.
    pub fn len(&self) -> usize {
        self.label_of_id.len()
    }

    /// True when no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.label_of_id.is_empty()
    }

    /// Iterates over `(id, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.label_of_id
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.as_str()))
    }
}

/// Reads a labeled edge list (`src dst [weight]` per line, labels are
/// arbitrary whitespace-free strings, `#`/`%` comments) and returns the
/// graph plus the label mapping. A weight must be finite and positive;
/// any other line is a parse error that quotes it.
pub fn read_labeled_edge_list<R: Read>(reader: R) -> Result<(Graph, NodeIndexer)> {
    let mut indexer = NodeIndexer::new();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let s = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing src label".into()))?;
        let d = it
            .next()
            .ok_or_else(|| SparseError::Parse(format!("missing dst label on line {trimmed:?}")))?;
        let w: f64 = match it.next() {
            Some(f) => f
                .parse()
                .map_err(|_| SparseError::Parse(format!("invalid weight {f:?}")))?,
            None => 1.0,
        };
        bepi_sparse::io::check_weight(w, trimmed)?;
        let si = indexer.intern(s) as u32;
        let di = indexer.intern(d) as u32;
        edges.push((si, di, w));
    }
    let n = indexer.len();
    let mut coo = Coo::with_capacity(n, n, edges.len())?;
    for (s, d, w) in edges {
        coo.push(s as usize, d as usize, w)?;
    }
    Ok((Graph::from_adjacency(coo.to_csr())?, indexer))
}

/// Convenience: reads a labeled edge list from a file path.
pub fn read_labeled_edge_list_file<P: AsRef<std::path::Path>>(
    path: P,
) -> Result<(Graph, NodeIndexer)> {
    read_labeled_edge_list(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_bijective() {
        let mut ix = NodeIndexer::new();
        assert_eq!(ix.intern("alice"), 0);
        assert_eq!(ix.intern("bob"), 1);
        assert_eq!(ix.intern("alice"), 0);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.label(1), Some("bob"));
        assert_eq!(ix.id("bob"), Some(1));
        assert_eq!(ix.id("carol"), None);
        assert_eq!(ix.label(5), None);
    }

    #[test]
    fn labeled_edge_list_with_string_ids() {
        let text = "# social graph\nalice bob\nbob carol 2.5\ncarol alice\n";
        let (g, ix) = read_labeled_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        let a = ix.id("alice").unwrap();
        let b = ix.id("bob").unwrap();
        let c = ix.id("carol").unwrap();
        assert_eq!(g.adjacency().get(a, b), 1.0);
        assert_eq!(g.adjacency().get(b, c), 2.5);
        assert_eq!(g.adjacency().get(c, a), 1.0);
    }

    #[test]
    fn non_contiguous_numeric_ids() {
        // Sparse numeric ids (the usual SNAP situation) compact to 0..n.
        let text = "1000000 42\n42 7\n";
        let (g, ix) = read_labeled_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(ix.id("1000000"), Some(0));
        assert_eq!(ix.id("42"), Some(1));
        assert_eq!(ix.id("7"), Some(2));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let (_, ix) = read_labeled_edge_list("x y\ny z\n".as_bytes()).unwrap();
        let pairs: Vec<(usize, &str)> = ix.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y"), (2, "z")]);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(read_labeled_edge_list("only_one_token\n".as_bytes()).is_err());
        assert!(read_labeled_edge_list("a b not_a_number\n".as_bytes()).is_err());
    }

    #[test]
    fn non_finite_and_non_positive_weights_rejected() {
        for line in ["a b NaN", "a b inf", "a b -inf", "a b 0", "a b -1"] {
            let err = read_labeled_edge_list(format!("x y\n{line}\n").as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains(&format!("{line:?}")),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let (g, ix) = read_labeled_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.n(), 0);
        assert!(ix.is_empty());
    }

    #[test]
    fn end_to_end_with_rwr() {
        // Labeled graph through the full pipeline: ranking by label.
        let text = "hub a\nhub b\na hub\nb hub\na b\n";
        let (g, ix) = read_labeled_edge_list(text.as_bytes()).unwrap();
        let a_norm = g.row_normalized();
        let mut q = vec![0.0; g.n()];
        q[ix.id("hub").unwrap()] = 1.0;
        // One power step suffices for a structural sanity check.
        let r = a_norm.mul_vec_transposed(&q).unwrap();
        assert!(r[ix.id("a").unwrap()] > 0.0);
        assert!(r[ix.id("b").unwrap()] > 0.0);
    }
}
