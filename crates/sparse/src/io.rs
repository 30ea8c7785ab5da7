//! Whitespace edge-list IO: the paper's datasets ship as edge lists.

use crate::error::SparseError;
use crate::{Coo, Csr, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

fn parse_field<T: std::str::FromStr>(field: Option<&str>, name: &str) -> Result<T> {
    field
        .ok_or_else(|| SparseError::Parse(format!("missing field {name}")))?
        .parse()
        .map_err(|_| SparseError::Parse(format!("invalid {name}: {field:?}")))
}

/// Reads a whitespace-separated edge list (`src dst` or `src dst weight`
/// per line, `#`/`%` comments) into COO; unweighted lines get value 1.0.
/// Node count is `max(id) + 1` unless `n` is given.
///
/// A node id must be below `u32::MAX` and a weight must be finite and
/// positive; any other line is a parse error that quotes it.
pub fn read_edge_list<R: Read>(reader: R, n: Option<usize>) -> Result<Coo> {
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut max_id = 0usize;
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let s: usize = parse_field(it.next(), "src")?;
        let d: usize = parse_field(it.next(), "dst")?;
        let w: f64 = match it.next() {
            Some(field) => field
                .parse()
                .map_err(|_| SparseError::Parse(format!("invalid weight: {field:?}")))?,
            None => 1.0,
        };
        if s.max(d) >= u32::MAX as usize {
            return Err(SparseError::Parse(format!(
                "node id does not fit the u32 index space in line {trimmed:?}"
            )));
        }
        check_weight(w, trimmed)?;
        max_id = max_id.max(s).max(d);
        edges.push((s as u32, d as u32, w));
    }
    let n = n.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    let mut coo = Coo::with_capacity(n, n, edges.len())?;
    for (s, d, w) in edges {
        coo.push(s as usize, d as usize, w)?;
    }
    Ok(coo)
}

/// Rejects an edge-list weight that is not finite and positive, quoting
/// its `line`. Such a weight would turn scores into NaN, leave a row
/// passing on no mass, or flip its sign under row normalisation.
pub fn check_weight(weight: f64, line: &str) -> Result<()> {
    if weight.is_finite() && weight > 0.0 {
        return Ok(());
    }
    Err(SparseError::Parse(format!(
        "weight {weight} is not finite and positive in line {line:?}"
    )))
}

/// Writes a graph adjacency matrix as a whitespace edge list (`src dst`
/// per line, entries with weight ≠ 1 as `src dst weight`).
pub fn write_edge_list<W: Write>(writer: W, a: &Csr) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# {} nodes, {} edges", a.nrows().max(a.ncols()), a.nnz())?;
    for (r, c, v) in a.iter() {
        if v == 1.0 {
            writeln!(w, "{r} {c}")?;
        } else {
            writeln!(w, "{r} {c} {v}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Convenience: reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P, n: Option<usize>) -> Result<Coo> {
    read_edge_list(std::fs::File::open(path)?, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_with_comments_and_explicit_n() {
        let text = "# comment\n0 1\n1 2\n\n2 0\n";
        let coo = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(coo.nrows(), 3);
        assert_eq!(coo.nnz(), 3);
        let coo5 = read_edge_list(text.as_bytes(), Some(5)).unwrap();
        assert_eq!(coo5.nrows(), 5);
    }

    #[test]
    fn empty_edge_list() {
        let coo = read_edge_list("".as_bytes(), None).unwrap();
        assert_eq!(coo.nrows(), 0);
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    fn edge_list_malformed_line() {
        assert!(read_edge_list("0\n".as_bytes(), None).is_err());
        assert!(read_edge_list("a b\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0 1 abc\n".as_bytes(), None).is_err());
    }

    #[test]
    fn edge_list_rejects_wide_ids_and_bad_weights() {
        for line in [
            "4294967301 0",
            "0 4294967295",
            "0 1 NaN",
            "0 1 inf",
            "0 1 -inf",
            "0 1 0",
            "0 1 -1",
        ] {
            for n in [None, Some(6)] {
                let err = read_edge_list(format!("{line}\n").as_bytes(), n).unwrap_err();
                assert!(
                    err.to_string().contains(&format!("{line:?}")),
                    "{line}: {err}"
                );
            }
        }
        // Tiny and huge weights are still finite and positive.
        assert!(read_edge_list("0 1 1e-300\n2 0 1e300\n".as_bytes(), None).is_ok());
    }

    #[test]
    fn weighted_edge_list_roundtrip() {
        let mut coo = Coo::new(3, 3).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 2, 2.5).unwrap();
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &a).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("0 1\n"), "{text}");
        assert!(text.contains("1 2 2.5"), "{text}");
        let back = read_edge_list(&buf[..], Some(3)).unwrap().to_csr();
        assert_eq!(back, a);
    }
}
