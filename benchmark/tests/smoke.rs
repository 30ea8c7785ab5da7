//! End to end on the smoke preset: each workload runs, passes its own
//! correctness gate, and reports exactly the declared names. The HTTP
//! workloads need the `bepi` binary (`BEPI_BIN`, or built beside the test
//! by `benchmark/run.sh`) and say so when it is missing.

use bepi_benchmark::report::{contract_line, declared_values};
use bepi_benchmark::spans::Recorder;
use bepi_benchmark::spec::Spec;
use bepi_benchmark::workload::{RunConfig, Workload};
use bepi_benchmark::{daemon, exact_cold, json, serve};

#[global_allocator]
static ALLOCATOR: bepi_benchmark::alloc::Counting = bepi_benchmark::alloc::Counting;

fn smoke(workload: Workload, traced: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 1,
        seconds: 2.0,
        traced,
        smoke: true,
        out_dir: std::env::temp_dir().join(format!("bepi-benchmark-test-{}", std::process::id())),
    }
}

fn run_and_check(workload: Workload) {
    let spec = Spec::load();
    for traced in [false, true] {
        let cfg = smoke(workload, traced);
        std::fs::create_dir_all(&cfg.out_dir).unwrap();
        let recorder = traced.then(Recorder::new);
        let out = match workload {
            Workload::ExactCold => exact_cold::run(&cfg, recorder.as_ref()),
            _ => serve::run(&cfg, recorder.as_ref()),
        }
        .unwrap();
        assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
        assert!(out.attempted > 0);
        let values = declared_values(&spec, &cfg, &out).unwrap();
        let line = json::parse(&contract_line(&values, &out)).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let declared = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        assert_eq!(metrics.len(), declared.len());
        for ((name, m), d) in metrics.iter().zip(declared) {
            assert_eq!(name, &d.name);
            assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit.as_str()));
            let v = m.get("value").unwrap().as_f64().unwrap();
            assert!(traced || v > 0.0, "end-to-end metric {name} reads {v}");
        }
        if let Some(rec) = &recorder {
            assert!(!rec.snapshot().is_empty(), "a traced run records spans");
        }
    }
}

#[test]
fn exact_cold_smoke() {
    run_and_check(Workload::ExactCold);
}

#[test]
fn http_workloads_smoke() {
    if let Err(why) = daemon::bepi_bin() {
        eprintln!("skipping the HTTP workloads: {why}");
        return;
    }
    for workload in [Workload::ServeCold, Workload::ServeHot, Workload::LiveMixed] {
        run_and_check(workload);
    }
}
