//! `metrics_check` — validates a running daemon's
//! `/metrics` endpoint against the Prometheus text exposition format
//! (version 0.0.4).
//!
//! Used by `scripts/ci.sh` as the end-to-end observability gate: it
//! optionally warms the target with a few `/query` requests, scrapes
//! `/metrics`, and exits non-zero if the exposition is malformed in any
//! way a real scraper would reject:
//!
//! * a sample line whose metric family has no `# TYPE` header
//!   (`_bucket` / `_sum` / `_count` suffixes map back to their family),
//! * an unparsable sample value,
//! * an `le` label that is not a plain decimal float or `+Inf`
//!   (exponent forms like `1e-05` break some scrapers),
//! * histogram bucket counts that are not cumulative (non-decreasing in
//!   `le` order) — checked per label set, so a family with several
//!   labelled series is validated as that many independent series, or
//! * a histogram series whose `_count` disagrees with its `+Inf` bucket.
//!
//! Usage: `metrics_check <host:port> [--warm-queries N]`
//!
//! The HTTP client is a raw `TcpStream` speaking HTTP/1.0 — this binary
//! must not depend on `bepi-server` internals, since its whole point is
//! to check the wire format an external scraper sees.

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("metrics_check: OK ({summary})");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("metrics_check: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, rest) = args
        .split_first()
        .ok_or("usage: metrics_check <host:port> [--warm-queries N]")?;
    let mut warm = 0usize;
    let mut rest = rest;
    while let Some((flag, tail)) = rest.split_first() {
        let (value, tail) = tail
            .split_first()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--warm-queries" => {
                warm = value
                    .parse()
                    .map_err(|_| format!("bad --warm-queries: {value}"))?;
            }
            f => return Err(format!("unknown flag: {f}")),
        }
        rest = tail;
    }

    // Warm-up: drive some solves (distinct seeds → cache misses) so the
    // GMRES histograms and latency buckets have real observations, plus
    // one traced request and a slow-log scrape so those paths render too.
    for seed in 0..warm {
        let _ = http_get(addr, &format!("/query?seed={seed}&trace=1"))?;
    }
    if warm > 0 {
        let slow = http_get(addr, "/debug/slow")?;
        if !slow.starts_with('{') {
            return Err(format!("/debug/slow did not return JSON: {slow:.40?}"));
        }
    }

    let body = http_get(addr, "/metrics")?;
    let report = validate_exposition(&body)?;
    Ok(format!("{addr}: {report}"))
}

/// Checks the whole exposition; returns a one-line summary on success.
fn validate_exposition(body: &str) -> Result<String, String> {
    let mut typed: HashSet<String> = HashSet::new();
    // series key (family + non-le labels) → le-ordered bucket counts
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    // series key → _count value
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut samples = 0usize;

    for (lineno, line) in body.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let family = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: # TYPE without a metric name"))?;
                    typed.insert(family.to_string());
                }
                Some("HELP") | Some("EOF") => {}
                other => {
                    return Err(format!("line {n}: unknown comment {other:?}"));
                }
            }
            continue;
        }

        let (name_and_labels, value_s) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no space-separated value: {line:?}"))?;
        let value: f64 = value_s
            .parse()
            .map_err(|_| format!("line {n}: sample value is not a float: {value_s:?}"))?;
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set: {line:?}"))?;
                (name, Some(labels))
            }
            None => (name_and_labels, None),
        };
        let family = family_of(name);
        if !typed.contains(family) {
            return Err(format!(
                "line {n}: sample {name:?} has no preceding # TYPE {family}"
            ));
        }
        samples += 1;

        if name.ends_with("_bucket") {
            let labels =
                labels.ok_or_else(|| format!("line {n}: _bucket sample without labels"))?;
            let le = label_value(labels, "le")
                .ok_or_else(|| format!("line {n}: _bucket sample without le label"))?;
            let bound = parse_le(&le).map_err(|e| format!("line {n}: {e}"))?;
            if value < 0.0 || value.fract() != 0.0 {
                return Err(format!("line {n}: bucket count is not a whole number"));
            }
            buckets
                .entry(series_key(family, Some(labels)))
                .or_default()
                .push((bound, value as u64));
        } else if name.ends_with("_count") {
            counts.insert(series_key(family, labels), value as u64);
        }
    }

    let mut histograms = 0usize;
    for (series, points) in &buckets {
        histograms += 1;
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = 0u64;
        for &(bound, count) in points {
            if bound <= prev_bound {
                return Err(format!(
                    "{series}: le bounds not strictly increasing ({prev_bound} then {bound})"
                ));
            }
            if count < prev_count {
                return Err(format!(
                    "{series}: bucket counts not cumulative ({prev_count} then {count} at le={bound})"
                ));
            }
            prev_bound = bound;
            prev_count = count;
        }
        let (last_bound, last_count) = *points.last().expect("non-empty by construction");
        if last_bound != f64::INFINITY {
            return Err(format!("{series}: final bucket is not le=\"+Inf\""));
        }
        match counts.get(series) {
            Some(&c) if c == last_count => {}
            Some(&c) => {
                return Err(format!("{series}: _count {c} != +Inf bucket {last_count}"));
            }
            None => return Err(format!("{series}: histogram without a _count sample")),
        }
    }

    if samples == 0 {
        return Err("exposition contained no samples".into());
    }
    Ok(format!(
        "{samples} samples, {histograms} histogram series, {} typed families",
        typed.len()
    ))
}

/// One histogram series per label set: the key is the family name plus
/// every label except `le`, sorted so label order cannot split a series.
fn series_key(family: &str, labels: Option<&str>) -> String {
    let mut pairs: Vec<&str> = labels
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("le="))
        .collect();
    pairs.sort_unstable();
    if pairs.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{}}}", pairs.join(","))
    }
}

/// Maps a sample name to its metric family (`x_bucket`/`x_sum`/`x_count`
/// all belong to family `x`, which is what `# TYPE` names).
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            return stem;
        }
    }
    name
}

/// Extracts one label value from a rendered label set. Label values in
/// this codebase never contain escaped quotes, so a simple scan suffices.
fn label_value(labels: &str, key: &str) -> Option<String> {
    let needle = format!("{key}=\"");
    let start = labels.find(&needle)? + needle.len();
    let end = labels[start..].find('"')?;
    Some(labels[start..start + end].to_string())
}

/// An `le` value must be `+Inf` or a plain decimal float — exponent
/// notation is rejected because real-world scrapers reject it.
fn parse_le(le: &str) -> Result<f64, String> {
    if le == "+Inf" {
        return Ok(f64::INFINITY);
    }
    if le.contains(['e', 'E']) {
        return Err(format!("le={le:?} uses exponent notation"));
    }
    le.parse()
        .map_err(|_| format!("le={le:?} is not a decimal float"))
}

/// Minimal HTTP/1.0 GET returning the response body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response to {path}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("GET {path}: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_exposition() {
        let body = "\
# HELP bepi_query_latency_seconds Latency.
# TYPE bepi_query_latency_seconds histogram
bepi_query_latency_seconds_bucket{le=\"0.001\"} 1
bepi_query_latency_seconds_bucket{le=\"0.01\"} 3
bepi_query_latency_seconds_bucket{le=\"+Inf\"} 4
bepi_query_latency_seconds_sum 0.5
bepi_query_latency_seconds_count 4
# HELP bepi_queries_total Queries.
# TYPE bepi_queries_total counter
bepi_queries_total 4
";
        validate_exposition(body).unwrap();
    }

    #[test]
    fn shard_labeled_histograms_are_independent_series() {
        // The same family carries one series per label value, each
        // cumulative on its own but interleaved such that a label-blind
        // checker would see counts go backwards.
        let body = "\
# TYPE h histogram
h_bucket{shard=\"0\",le=\"0.1\"} 5
h_bucket{shard=\"0\",le=\"+Inf\"} 9
h_sum{shard=\"0\"} 0.5
h_count{shard=\"0\"} 9
h_bucket{shard=\"1\",le=\"0.1\"} 1
h_bucket{shard=\"1\",le=\"+Inf\"} 2
h_sum{shard=\"1\"} 0.1
h_count{shard=\"1\"} 2
";
        let report = validate_exposition(body).unwrap();
        assert!(report.contains("2 histogram series"), "{report}");
    }

    #[test]
    fn per_series_count_mismatch_is_still_caught() {
        let body = "\
# TYPE h histogram
h_bucket{shard=\"0\",le=\"+Inf\"} 9
h_count{shard=\"0\"} 9
h_bucket{shard=\"1\",le=\"+Inf\"} 2
h_count{shard=\"1\"} 3
";
        let err = validate_exposition(body).unwrap_err();
        assert!(err.contains("shard=\"1\""), "{err}");
        assert!(err.contains("_count 3 != +Inf bucket 2"), "{err}");
    }

    #[test]
    fn rejects_exponent_le_missing_type_and_broken_cumulative() {
        let exponent =
            "# TYPE h histogram\nh_bucket{le=\"1e-05\"} 0\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n";
        assert!(validate_exposition(exponent)
            .unwrap_err()
            .contains("exponent"));

        let untyped = "bepi_queries_total 4\n";
        assert!(validate_exposition(untyped).unwrap_err().contains("# TYPE"));

        let shrinking =
            "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n";
        assert!(validate_exposition(shrinking)
            .unwrap_err()
            .contains("cumulative"));

        let count_mismatch =
            "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_count 4\n";
        assert!(validate_exposition(count_mismatch)
            .unwrap_err()
            .contains("+Inf bucket"));
    }
}
