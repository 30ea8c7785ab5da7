//! Command line: one contract run, the whole suite, `repeat`, `compare`.

use crate::json::{self, Value};
use crate::report;
use crate::spans::Recorder;
use crate::spec::Spec;
use crate::workload::{RunConfig, Workload};
use crate::{compare, exact_cold, serve};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       benchmark repeat --runs N [--workload W] [--seed N] [--seconds S] [--smoke] [--out DIR]
       benchmark compare A.json B.json

With --trace, runs one workload once and prints the contract's JSON object
as the last line of standard output (--trace 0: end-to-end metrics from an
untraced run; --trace 1: per-layer metrics from a traced run). Without it,
runs every selected workload both ways, prints every metric by name and
writes DIR/result.json plus one span file per workload.
Workloads: exact-cold serve-cold serve-hot live-mixed. --smoke runs small
graphs and 2 s windows, stamps the result, and is refused by compare.";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: None,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        runs: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                o.workloads = vec![Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload {value} (see --help)"))?]
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => o.out_dir = PathBuf::from(value),
            "--runs" => o.runs = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        Some("repeat") => parse(&args[1..]).and_then(|o| repeat(&o)),
        _ => parse(&args).and_then(|o| match o.trace {
            Some(traced) => contract_run(&o, traced),
            None => suite(&o).map(|(_, correct)| correct),
        }),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("benchmark: {why}");
            2
        }
    }
}

fn config(o: &Options, spec: &Spec, workload: Workload, traced: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: o.seed,
        seconds: o
            .seconds
            .unwrap_or(if o.smoke { 2.0 } else { spec.run_seconds }),
        traced,
        smoke: o.smoke,
        out_dir: o.out_dir.clone(),
    }
}

/// Runs one workload one way; a traced run also writes its span file.
fn run_one(spec: &Spec, cfg: &RunConfig) -> Result<(Value, String, bool), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let recorder = cfg.traced.then(Recorder::new);
    let out = match cfg.workload {
        Workload::ExactCold => exact_cold::run(cfg, recorder.as_ref()),
        _ => serve::run(cfg, recorder.as_ref()),
    }?;
    if let Some(rec) = &recorder {
        let path = cfg
            .out_dir
            .join(format!("{}.trace.json", cfg.workload.name()));
        std::fs::write(&path, rec.to_chrome_trace(cfg.workload.name()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let values = report::declared_values(spec, cfg, &out)?;
    report::print_table(cfg, &values, &out);
    Ok((
        report::run_entry(cfg, &values, &out),
        report::contract_line(&values, &out),
        out.correct(),
    ))
}

/// The driver's form: one run, the JSON object as the last line of stdout.
fn contract_run(o: &Options, traced: bool) -> Result<bool, String> {
    let [workload] = o.workloads[..] else {
        return Err("--trace needs --workload".into());
    };
    let spec = Spec::load();
    let (_, line, correct) = run_one(&spec, &config(o, &spec, workload, traced))?;
    println!("{line}");
    Ok(correct)
}

/// Every selected workload, untraced then traced, into one result.
fn suite(o: &Options) -> Result<(Value, bool), String> {
    let spec = Spec::load();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &workload in &o.workloads {
        for traced in [false, true] {
            let cfg = config(o, &spec, workload, traced);
            let (entry, _, correct) = run_one(&spec, &cfg)?;
            all_correct &= correct;
            runs.push(entry);
        }
    }
    let seconds = config(o, &spec, o.workloads[0], false).seconds;
    let result = json::obj(vec![
        ("schema", json::str("bepi-benchmark/1")),
        ("smoke", Value::Bool(o.smoke)),
        ("seed", Value::Num(o.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("host", report::host_fingerprint()),
        ("runs", Value::Arr(runs)),
    ]);
    let path = o.out_dir.join("result.json");
    std::fs::write(&path, result.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok((result, all_correct))
}

/// `repeat --runs N`: the suite N times into one set file, with the
/// spread of every end-to-end metric.
fn repeat(o: &Options) -> Result<bool, String> {
    if o.runs < 2 {
        return Err("repeat needs --runs of at least 2 (quartiles of one run do not exist)".into());
    }
    let mut results = Vec::new();
    let mut all_correct = true;
    for i in 0..o.runs {
        eprintln!("-- repeat {}/{}", i + 1, o.runs);
        let (result, correct) = suite(o)?;
        all_correct &= correct;
        results.push(result);
    }
    let set = json::obj(vec![
        ("schema", json::str("bepi-benchmark-set/1")),
        ("results", Value::Arr(results)),
    ]);
    let path = o.out_dir.join("set.json");
    std::fs::write(&path, set.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::print_spread(&compare::load_set(&path)?);
    println!("wrote {}", path.display());
    Ok(all_correct)
}
