//! Experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Usage:
//!   cargo run -p flogic-bench --bin harness --release              # all experiments
//!   cargo run -p flogic-bench --bin harness --release -- e3 e5     # a subset
//!   cargo run -p flogic-bench --bin harness --release -- --quick   # smaller workloads
//!
//! `--quick` shrinks the workloads; any other flag is an error. Tables are printed to stdout
//! and exported as CSV under `bench_results/`; each experiment is followed
//! by the engine metrics it accumulated (chase and hom wall-clock, cache
//! hits/misses, and the static-analysis fast-path counters, which are also
//! exported as `bench_results/analysis_counters.csv`). Resource-governor
//! stops (deadline hits, budget hits, cancellations) are tracked per
//! experiment and exported as `bench_results/governor_counters.csv`.
//! E10 additionally exports its aggregate chase profile as
//! `bench_results/rule_profile.csv` and `bench_results/level_growth.csv`.

use std::path::PathBuf;

use flogic_bench::experiments::{self, ExperimentOutput};
use flogic_bench::table::Table;
use flogic_term::Metrics;

fn out_dir() -> PathBuf {
    // Relative to the invocation directory (usually the workspace root).
    PathBuf::from("bench_results")
}

fn run(id: &str, quick: bool) -> Option<ExperimentOutput> {
    let out = match id {
        "e1" => experiments::e1(),
        "e2" => experiments::e2(),
        "e3" => experiments::e3(),
        "e4" => {
            if quick {
                experiments::e4(15, 2)
            } else {
                experiments::e4(60, 5)
            }
        }
        "e5" => experiments::e5(if quick { 3 } else { 11 }),
        "e6" => experiments::e6(if quick { 20 } else { 100 }),
        "e7" => experiments::e7(),
        "e8" => experiments::e8(if quick { 5 } else { 15 }),
        "e9" => {
            if quick {
                experiments::e9(3, 4)
            } else {
                experiments::e9(5, 8)
            }
        }
        "e10" => {
            if quick {
                experiments::e10(10, 3)
            } else {
                experiments::e10(40, 5)
            }
        }
        "e11" => {
            if quick {
                experiments::e11(6, 2)
            } else {
                experiments::e11(16, 4)
            }
        }
        "e12" => {
            if quick {
                experiments::e12(6, 2)
            } else {
                experiments::e12(16, 4)
            }
        }
        "e13" => {
            if quick {
                experiments::e13(40, 3)
            } else {
                experiments::e13(150, 5)
            }
        }
        "e14" => {
            if quick {
                experiments::e14(6, 2)
            } else {
                experiments::e14(12, 4)
            }
        }
        "e15" => {
            if quick {
                experiments::e15(6, 120)
            } else {
                experiments::e15(12, 400)
            }
        }
        "e16" => {
            if quick {
                experiments::e16(6, 2)
            } else {
                experiments::e16(12, 3)
            }
        }
        _ => return None,
    };
    Some(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut ids: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => quick = true,
            s if s.starts_with("--") => {
                eprintln!("unknown flag `{s}` (expected --quick)");
                std::process::exit(2);
            }
            _ => ids.push(a.to_lowercase()),
        }
    }
    if ids.is_empty() {
        ids = (1..=16).map(|i| format!("e{i}")).collect();
    }

    let dir = out_dir();
    let mut counters = Table::new(
        "Static-analysis fast-path counters per experiment",
        &["experiment", "early_false", "early_true", "chased"],
    );
    let mut governor = Table::new(
        "Resource-governor stops per experiment",
        &[
            "experiment",
            "deadline_hits",
            "budget_hits",
            "cancellations",
        ],
    );
    for id in &ids {
        let before = Metrics::global().snapshot();
        let Some(output) = run(id, quick) else {
            eprintln!("unknown experiment `{id}` (expected e1..e16)");
            std::process::exit(2);
        };
        for (i, table) in output.tables.iter().enumerate() {
            println!("{table}");
            let name = if output.tables.len() == 1 {
                format!("{id}.csv")
            } else {
                format!("{id}_{}.csv", (b'a' + i as u8) as char)
            };
            if let Err(e) = table.write_csv(&dir.join(&name)) {
                eprintln!("warning: could not write {name}: {e}");
            }
        }
        for note in &output.notes {
            println!("{note}");
        }
        for (name, contents) in &output.files {
            let path = dir.join(name);
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents));
            if let Err(e) = written {
                eprintln!("warning: could not write {name}: {e}");
            }
        }
        let delta = Metrics::global().snapshot().since(&before);
        println!("[{id} metrics] {delta}\n");
        counters.push(vec![
            id.clone(),
            delta.analysis_early_false.to_string(),
            delta.analysis_early_true.to_string(),
            delta.analysis_chased.to_string(),
        ]);
        governor.push(vec![
            id.clone(),
            delta.governor_deadline_hits.to_string(),
            delta.governor_budget_hits.to_string(),
            delta.governor_cancellations.to_string(),
        ]);
    }
    if let Err(e) = counters.write_csv(&dir.join("analysis_counters.csv")) {
        eprintln!("warning: could not write analysis_counters.csv: {e}");
    }
    if let Err(e) = governor.write_csv(&dir.join("governor_counters.csv")) {
        eprintln!("warning: could not write governor_counters.csv: {e}");
    }
    println!("CSV exports written to {}/", dir.display());
}
