//! `compare A.json B.json`: two sets of runs of the suite, judged metric
//! by metric against the bounds `BENCHMARK.json` fixes.
//!
//! Per workload × end-to-end metric, both medians and quartiles and one
//! of three verdicts: `worse` (B's median is worse than A's by more than
//! the bound), `unresolved` (either set's spread is wider than the bound,
//! so neither "worse" nor "same" can be told) or `same`.

use crate::json::{self, Value};
use crate::spec::{MetricDecl, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, traced, metric)` → the value in every result of the set.
pub type Samples = BTreeMap<(String, bool, String), Vec<f64>>;

/// Reads a `repeat` set (or a single suite result, as a set of one).
pub fn load_set(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let single = [doc.clone()];
    let results = doc
        .get("results")
        .and_then(Value::as_arr)
        .unwrap_or(&single);
    let mut samples = Samples::new();
    for result in results {
        if result.get("smoke").and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{} holds a smoke run (or no run at all): smoke numbers are not for comparing",
                path.display()
            ));
        }
        for run in result.get("runs").and_then(Value::as_arr).unwrap_or(&[]) {
            let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
            let traced = run.get("traced").and_then(Value::as_bool).unwrap_or(false);
            if run.get("correct").and_then(Value::as_bool) != Some(true) {
                return Err(format!(
                    "{}: a {workload} run failed its correctness gate",
                    path.display()
                ));
            }
            for (name, m) in run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    samples
                        .entry((workload.to_string(), traced, name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(samples)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// The rule, on raw values (each set needs at least two).
pub fn verdict(a: &[f64], b: &[f64], decl: &MetricDecl) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    if stats::spread(a) > bound || stats::spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worsening = if decl.higher_is_better {
        ma - mb
    } else {
        mb - ma
    };
    if worsening > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Counts must repeat exactly on one commit and seed.
fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = Spec::load();
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    println!(
        "{:<11} {:<14} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>6} verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound"
    );
    let mut all_same = true;
    for workload in &spec.workloads {
        for decl in &spec.end_to_end {
            let key = (workload.clone(), false, decl.name.clone());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                return Err(format!("{workload} {} is missing from a set", decl.name));
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err("each set needs at least two runs (benchmark repeat --runs N)".into());
            }
            let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
            let v = verdict(va, vb, decl);
            all_same &= v == Verdict::Same;
            println!(
                "{:<11} {:<14} {:>12.5} {:>12.5} {:>12.5} | {:>12.5} {:>12.5} {:>12.5} | {:>5.1}% {}",
                workload,
                decl.name,
                qa.0,
                stats::median(va),
                qa.2,
                qb.0,
                stats::median(vb),
                qb.2,
                decl.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    // Counts: one value across both sets, or the run was not repeatable.
    for ((workload, traced, name), va) in &sa {
        if !spec.unit_of(name).is_some_and(is_count) {
            continue;
        }
        let vb = sb.get(&(workload.clone(), *traced, name.clone()));
        let mut all: Vec<f64> = va.iter().chain(vb.into_iter().flatten()).copied().collect();
        all.dedup();
        if all.len() > 1 {
            all_same = false;
            println!("count {workload} {name} does not repeat: {all:?}");
        }
    }
    println!(
        "{}",
        if all_same {
            "every end-to-end metric is the same within its bound; counts repeat exactly"
        } else {
            "the sets differ (see above)"
        }
    );
    Ok(all_same)
}

/// Spread of every end-to-end metric of one set, beside its bound.
pub fn print_spread(set: &Samples) {
    let spec = Spec::load();
    println!(
        "{:<11} {:<14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in &spec.workloads {
        for decl in &spec.end_to_end {
            let Some(v) = set.get(&(workload.clone(), false, decl.name.clone())) else {
                continue;
            };
            println!(
                "{:<11} {:<14} {:>14.5} {:>8.2}% {:>6.1}%",
                workload,
                decl.name,
                stats::median(v),
                stats::spread(v) * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher_is_better: bool) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [10.0, 10.1, 10.2, 9.9, 10.0];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.7];
        let slightly = [10.5, 10.6, 10.4, 10.5, 10.7];
        let noisy = [8.0, 10.0, 12.5, 9.0, 11.5];
        assert_eq!(verdict(&base, &slower, &decl(false)), Verdict::Worse);
        assert_eq!(verdict(&base, &slightly, &decl(false)), Verdict::Same);
        // An improvement is not a regression.
        assert_eq!(verdict(&slower, &base, &decl(false)), Verdict::Same);
        // The same numbers as a throughput read the other way round.
        assert_eq!(verdict(&slower, &base, &decl(true)), Verdict::Worse);
        assert_eq!(verdict(&base, &slower, &decl(true)), Verdict::Same);
        // Spread wider than the bound: cannot tell.
        assert_eq!(verdict(&base, &noisy, &decl(false)), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &base, &decl(false)), Verdict::Unresolved);
    }
}
