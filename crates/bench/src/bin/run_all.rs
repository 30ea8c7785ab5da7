//! Runs every experiment in sequence and writes each report to
//! `experiments/<id>.txt` (plus stdout). This regenerates the data behind
//! every table and figure of the paper; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.

use bepi_bench::experiments as ex;
use std::fs;
use std::path::Path;
use std::time::Instant;

type Job = (&'static str, fn() -> String);

fn main() -> std::io::Result<()> {
    let out_dir = Path::new("experiments");
    fs::create_dir_all(out_dir)?;
    let jobs: Vec<Job> = vec![
        ("table2_datasets", ex::table2::run),
        ("fig3_reorder_structure", ex::fig3::run),
        ("fig4_schur_tradeoff", ex::fig4::run),
        ("fig10_accuracy", ex::fig10::run),
        ("fig7_eigenvalues", ex::fig7::run),
        ("table3_table4", ex::table34::run),
        ("fig11_bear_comparison", ex::fig11::run),
        ("fig8_hub_ratio", ex::fig8::run),
        ("fig6_optimizations", ex::fig6::run),
        ("fig5_scalability", ex::fig5::run),
        ("fig1_overall", ex::fig1::run),
        ("fig12_total_time", ex::fig12::run),
    ];
    let total = Instant::now();
    for (name, f) in jobs {
        eprintln!("=== running {name} ===");
        let t = Instant::now();
        let report = f();
        let elapsed = t.elapsed();
        println!("{report}");
        println!("[{name} completed in {elapsed:?}]\n");
        fs::write(out_dir.join(format!("{name}.txt")), &report)?;
    }
    eprintln!("all experiments completed in {:?}", total.elapsed());
    Ok(())
}
