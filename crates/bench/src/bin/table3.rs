//! Regenerates **Table 3** — accuracy of MatchCatcher in retrieving
//! killed-off matches, for every Table 2 blocker on the first six
//! datasets (as in the paper; Papers has no gold and appears in §6.2).
//!
//! Columns: `|C|` (blocker output), `MD` (matches killed), `|E|` (union
//! of top-k lists, k = 1000), `ME` (matches in E, % of MD), `F` (matches
//! the verifier retrieves by its natural stop, % of ME), `I` (verifier
//! iterations).
//!
//! `cargo run --release -p mc-bench --bin table3 [--scale X] [--k N] [--only prefix] [--out PATH]`
//! Default scale 0.05 for Music1, 0.02 for Music2 (full-size runs take
//! tens of minutes on a single core; pass `--scale 1` to match the
//! paper's sizes). `--only music` restricts to matching dataset names.
//!
//! `--out PATH` also writes the rows as JSON (`mc-bench-table3/v1`). Per
//! blocker it reports `md`, `me`, `f` and `missed_e = MD − ME`; per
//! dataset `missed_f = Σ(MD − F)`. Both misses are lower-is-better work
//! counters, so `mc bench-compare --bench table3` gates them per blocker
//! (a refactor that loses matches on one blocker cannot hide behind a
//! gain on another). `MC_BENCH_SMOKE=1` runs the CI recall guard:
//! fodors-zagats ×1 and amazon-google ×0.25 at k = 200 by default.

use mc_bench::blockers::table2_suite;
use mc_bench::env::BenchEnv;
use mc_bench::harness::{table3_cell, CliArgs, Table3Row};
use mc_datagen::profiles::DatasetProfile;
use std::fmt::Write as _;

fn main() {
    let env = BenchEnv::parse();
    let mut args = CliArgs::parse(0.0);
    let sets: &[(DatasetProfile, f64)] = if env.smoke {
        if env.flag("--k").is_none() {
            args.k = 200;
        }
        &[
            (DatasetProfile::FodorsZagats, 1.0),
            (DatasetProfile::AmazonGoogle, 0.25),
        ]
    } else {
        &[
            (DatasetProfile::AmazonGoogle, 1.0),
            (DatasetProfile::WalmartAmazon, 1.0),
            (DatasetProfile::AcmDblp, 1.0),
            (DatasetProfile::FodorsZagats, 1.0),
            (DatasetProfile::Music1, 0.05),
            (DatasetProfile::Music2, 0.02),
        ]
    };
    println!("{}", Table3Row::header());
    let mut datasets: Vec<(String, f64, Vec<Table3Row>)> = Vec::new();
    for &(profile, default_scale) in sets {
        if let Some(prefix) = env.flag("--only") {
            if !profile.name().starts_with(prefix) {
                continue;
            }
        }
        let scale = if args.scale > 0.0 {
            args.scale.min(1.0)
        } else {
            default_scale
        };
        let ds = profile.generate_scaled(args.seed, scale);
        // Print the blocker definitions once per dataset (Table 2).
        eprintln!("# {} (scale {scale}):", ds.name);
        let mut rows = Vec::new();
        for nb in table2_suite(profile, ds.a.schema()) {
            eprintln!("#   ({}) {}", nb.label, nb.blocker.describe(ds.a.schema()));
            let row = table3_cell(&ds, nb.label, &nb.blocker, args.params());
            println!("{row}");
            rows.push(row);
        }
        datasets.push((ds.name.clone(), scale, rows));
    }
    if let Some(path) = env.flag("--out") {
        std::fs::write(path, to_json(&args, &datasets)).expect("write table3 JSON");
        eprintln!("wrote {path}");
    }
    args.obs_report();
}

/// The rows as `mc-bench-table3/v1`. Only deterministic counts — no
/// wall-clock — so a regenerated baseline is byte-identical unless the
/// pipeline's output changed.
fn to_json(args: &CliArgs, datasets: &[(String, f64, Vec<Table3Row>)]) -> String {
    let mut json = format!(
        "{{\n  \"schema\": \"mc-bench-table3/v1\",\n  \"seed\": {},\n  \"k\": {},\n  \"datasets\": [",
        args.seed, args.k
    );
    for (di, (name, scale, rows)) in datasets.iter().enumerate() {
        let missed_f: usize = rows.iter().map(|r| r.md - r.f).sum();
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{name}\", \"scale\": {scale}, \"missed_f\": {missed_f}, \"blockers\": [",
            if di == 0 { "" } else { "," }
        );
        for (ri, r) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n      {{\"name\": \"{}\", \"c\": {}, \"md\": {}, \"e\": {}, \"me\": {}, \
                 \"f\": {}, \"i\": {}, \"missed_e\": {}}}",
                if ri == 0 { "" } else { "," },
                r.blocker,
                r.c,
                r.md,
                r.e,
                r.me,
                r.f,
                r.i,
                r.md - r.me
            );
        }
        json.push_str("\n    ]}");
    }
    json.push_str("\n  ]\n}\n");
    json
}
