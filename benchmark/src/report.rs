//! Turning a run into output: the contract's one-line JSON, the suite's
//! result file, a table for people, and the host fingerprint.

use crate::json::{self, Value};
use crate::spec::{MetricDecl, Spec};
use crate::workload::{RunConfig, RunOutput};
use std::process::Command;

/// The declared metrics of a run's mode, each with the value measured.
/// An emitted name that is not declared, an end-to-end metric that was
/// not emitted, or a traced run whose names differ from the workload's
/// declared set is an error: the dictionary and the code cannot drift.
pub fn declared_values<'a>(
    spec: &'a Spec,
    cfg: &RunConfig,
    out: &RunOutput,
) -> Result<Vec<(&'a MetricDecl, f64)>, String> {
    let declared = if cfg.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = out
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|d| d.name == **k))
    {
        return Err(format!("metric {stray} is emitted but not declared"));
    }
    if cfg.traced {
        let expected = cfg.workload.traced_names();
        let emitted: Vec<&str> = out.metrics.keys().copied().collect();
        if let Some(missing) = expected.iter().find(|n| !emitted.contains(n)) {
            return Err(format!("{} did not emit {missing}", cfg.workload.name()));
        }
        if let Some(extra) = emitted.iter().find(|n| !expected.contains(n)) {
            return Err(format!(
                "{} emitted {extra} unannounced",
                cfg.workload.name()
            ));
        }
    }
    declared
        .iter()
        .map(|d| match out.metrics.get(d.name.as_str()) {
            Some(&v) => Ok((d, v)),
            // A layer this workload never enters reads zero on it.
            None if cfg.traced => Ok((d, 0.0)),
            None => Err(format!("end-to-end metric {} was not measured", d.name)),
        })
        .collect()
}

fn metrics_object(values: &[(&MetricDecl, f64)]) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(d, v)| {
                (
                    d.name.clone(),
                    json::obj(vec![
                        ("value", Value::Num(*v)),
                        ("unit", json::str(&d.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output the driver reads.
pub fn contract_line(values: &[(&MetricDecl, f64)], out: &RunOutput) -> String {
    json::obj(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num((out.failed + out.wrong) as f64)),
        ("metrics", metrics_object(values)),
    ])
    .render()
}

/// One run as an entry of the suite's result file.
pub fn run_entry(cfg: &RunConfig, values: &[(&MetricDecl, f64)], out: &RunOutput) -> Value {
    json::obj(vec![
        ("workload", json::str(cfg.workload.name())),
        ("traced", Value::Bool(cfg.traced)),
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("wrong", Value::Num(out.wrong as f64)),
        (
            "problems",
            Value::Arr(out.problems.iter().map(|p| json::str(p)).collect()),
        ),
        (
            "daemon_flags",
            Value::Arr(out.daemon_flags.iter().map(|f| json::str(f)).collect()),
        ),
        ("metrics", metrics_object(values)),
    ])
}

/// Every metric by name with its unit, for people (standard error, so the
/// contract's last line of standard output stays the JSON).
pub fn print_table(cfg: &RunConfig, values: &[(&MetricDecl, f64)], out: &RunOutput) {
    eprintln!(
        "== {} ({}, seed {}, {} s) attempted {} failed {} wrong {}",
        cfg.workload.name(),
        if cfg.traced { "traced" } else { "untraced" },
        cfg.seed,
        cfg.seconds,
        out.attempted,
        out.failed,
        out.wrong
    );
    for (d, v) in values {
        // Zero on a traced run marks a layer the workload never enters.
        if cfg.traced && *v == 0.0 && !out.metrics.contains_key(d.name.as_str()) {
            continue;
        }
        if v.abs() >= 1e-3 || *v == 0.0 {
            eprintln!("  {:<32} {:>16.6} {}", d.name, v, d.unit);
        } else {
            eprintln!("  {:<32} {:>16.3e} {}", d.name, v, d.unit);
        }
    }
    for p in &out.problems {
        eprintln!("  PROBLEM: {p}");
    }
}

/// What the numbers were taken on.
pub fn host_fingerprint() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or("unreadable".to_string(), |s| s.trim().to_string());
    let tool = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    json::obj(vec![
        ("nproc", Value::Num(crate::openloop::nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("governor", Value::Str(governor)),
        ("kernel_threads", Value::Num(bepi_par::get_threads() as f64)),
        ("rustc", Value::Str(tool("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(tool("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
