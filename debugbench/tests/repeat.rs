//! Exact-repeat self-test: every workload, run twice at a tiny size with
//! the same seed, must repeat its recall and effort metrics, its error
//! share and the per-layer work counts the program documents as
//! deterministic (single-threaded joins and verifier).
//!
//! `cargo test --release --manifest-path debugbench/Cargo.toml`

use debugbench::{run_workload, Outcome, RunConfig, WORKLOADS};
use std::path::PathBuf;

/// Per-layer metrics that are pure functions of the inputs and the op
/// sequence (work counts and the ratios built from them).
const DETERMINISTIC: [&str; 13] = [
    "strsim.tokens",
    "joint.scored",
    "joint.union_pairs",
    "store.hit_frac",
    "store.bytes_written",
    "incr.pairs_rescored",
    "incr.full_rejoins",
    "verify.iterations",
    "verify.rows_built",
    "explain.cache_hit_frac",
    "explain.values_interned",
    "serve.refused",
    "bench.error_frac",
];

fn tiny(workload: &str, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed: 7,
        // Zero-length phases: each loop runs its minimum of four ops, so
        // both runs execute exactly the same op sequence.
        seconds: 0.0,
        trace,
        tiny: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("debugbench"),
    };
    let out = run_workload(workload, &cfg).expect("the workload runs");
    assert!(out.correct, "{workload}: {:#?}", out.notes);
    assert_eq!(out.failed, 0, "{workload}");
    out
}

// One test, run sequentially: the allocation counter is process-wide.
#[test]
fn every_workload_repeats_exactly() {
    for workload in WORKLOADS {
        let (a, b) = (tiny(workload, false), tiny(workload, false));
        for name in ["found_frac", "labels_per_op"] {
            let (x, y) = (a.metric(name), b.metric(name));
            assert!(x.is_some(), "{workload}: {name} missing");
            assert_eq!(x, y, "{workload}: {name} did not repeat");
        }
        assert_eq!(a.attempted, b.attempted, "{workload}: op count");

        let (a, b) = (tiny(workload, true), tiny(workload, true));
        for base in DETERMINISTIC {
            for class in ["write", "read"] {
                let name = format!("{base}.{class}");
                let (x, y) = (a.metric(&name), b.metric(&name));
                assert!(x.is_some(), "{workload}: {name} missing");
                assert_eq!(x, y, "{workload}: {name} did not repeat");
            }
        }
    }
}

#[test]
fn catalogue_names_are_unique_and_well_formed() {
    let mut names: Vec<String> = debugbench::end_to_end_metrics()
        .into_iter()
        .chain(debugbench::per_layer_metrics())
        .map(|m| m.name)
        .collect();
    for n in &names {
        assert!(n.len() <= 64, "{n}");
        assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
    assert!(debugbench::per_layer_metrics().len() <= 128);
    names.sort();
    let len = names.len();
    names.dedup();
    assert_eq!(names.len(), len, "duplicate metric names");
}

/// `BENCHMARK.json` at the repository root lists exactly the workloads
/// and metrics the benchmark reports, in order, with the same units and
/// directions.
#[test]
fn benchmark_json_matches_the_catalogue() {
    use mc_obs::JsonValue;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<JsonValue> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .to_vec()
    };
    let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_string();
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, catalogue) in [
        ("end_to_end", debugbench::end_to_end_metrics()),
        ("per_layer", debugbench::per_layer_metrics()),
    ] {
        let listed: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = catalogue
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
}
