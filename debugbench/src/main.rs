//! `debugbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit and direction, the
//! diagnostics, and, as the last line, one JSON result object.
//! `debugbench --list` prints the metric catalogue and exits.

use debugbench::{end_to_end_metrics, per_layer_metrics, run_workload, RunConfig, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: debugbench --workload <zipf-runs|zipf-session|products-serve> \
                     --seed <n> --seconds <s> --trace <0|1>   |   debugbench --list";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        println!("workloads: {}", WORKLOADS.join(", "));
        println!("end-to-end metrics (untraced runs, --trace 0):");
        for m in end_to_end_metrics() {
            println!("  {:28} {:6} {} is better", m.name, m.unit, m.better);
        }
        println!("per-layer metrics (traced runs, --trace 1):");
        for m in per_layer_metrics() {
            println!("  {:40} {:6} {} is better", m.name, m.unit, m.better);
        }
        return ExitCode::SUCCESS;
    }
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let parsed = (|| -> Result<(String, RunConfig), String> {
        let workload = flag("--workload").ok_or("missing --workload")?.to_string();
        let num = |name: &str| -> Result<f64, String> {
            flag(name)
                .ok_or(format!("missing {name}"))?
                .parse::<f64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        let seed = flag("--seed")
            .ok_or("missing --seed")?
            .parse::<u64>()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds = num("--seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match flag("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok((
            workload,
            RunConfig {
                seed,
                seconds,
                trace,
                tiny: false,
                work_dir: PathBuf::from(".bench_work"),
            },
        ))
    })();
    let (workload, cfg) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("debugbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("debugbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {workload}, seed {}, {} s per phase, {}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (m, v) in &outcome.metrics {
        println!(
            "  {:40} {:>14.4} {:6} ({} is better)",
            m.name, v, m.unit, m.better
        );
    }
    println!(
        "  attempted {}, failed {}, error_frac {:.4}, correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.correct
    );
    println!("{}", outcome.result_json().to_json_string());
    ExitCode::SUCCESS
}
