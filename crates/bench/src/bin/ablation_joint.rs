//! **§6.5 ablation: one worker vs one config per core.**
//!
//! The paper reports that its joint strategy (overlap reuse + top-k
//! seeding + one config per core) outperforms executing each config
//! independently by up to 3.5× with 6 cores. This implementation keeps
//! only the schedule — EXPERIMENTS.md §6.5 records why the two reuse
//! mechanisms were removed — so executing the configs independently is
//! the same computation on one worker. The binary times it both ways on
//! the first Table 2 blocker of each dataset:
//!
//! * `1 worker` — every config in turn on one thread;
//! * `N workers` — one config per core (`--threads`, default all cores).
//!
//! Each time is the best of `--runs` (default 3) repetitions, the two
//! variants alternating, so neither pays all the cold-cache cost. Every
//! run must produce bit-identical lists; the binary asserts it.
//!
//! `cargo run --release -p mc-bench --bin ablation_joint [--scale X] [--k N] [--threads N] [--runs N]`

use matchcatcher::debugger::MatchCatcher;
use matchcatcher::joint::{run_joint, CandidateUnion, JointOutput, JointParams};
use mc_bench::blockers::table2_suite;
use mc_bench::env::BenchEnv;
use mc_bench::harness::CliArgs;
use mc_datagen::profiles::DatasetProfile;
use std::time::{Duration, Instant};

/// The union as comparable bits: pairs plus per-config score bits.
fn union_bits(out: &JointOutput) -> (Vec<u64>, Vec<Vec<Option<u64>>>) {
    let u = CandidateUnion::build(&out.lists);
    let scores = u
        .scores
        .iter()
        .map(|row| row.iter().map(|s| s.map(f64::to_bits)).collect())
        .collect();
    (u.pairs, scores)
}

fn main() {
    let args = CliArgs::parse(0.0);
    let runs = BenchEnv::parse().runs(3);
    let workers = args.params().joint.threads;
    let sets = [
        (DatasetProfile::AmazonGoogle, 1.0),
        (DatasetProfile::WalmartAmazon, 0.5),
        (DatasetProfile::Music1, 0.05),
    ];
    println!(
        "{:<16} {:<6} {:>7} {:>7} {:>13} {:>13} {:>9}",
        "dataset",
        "Q",
        "configs",
        "|E|",
        "1 worker (s)",
        format!("{workers} workers (s)"),
        "speedup"
    );
    for (profile, default_scale) in sets {
        let scale = if args.scale > 0.0 {
            args.scale.min(1.0)
        } else {
            default_scale
        };
        let ds = profile.generate_scaled(args.seed, scale);
        let suite = table2_suite(profile, ds.a.schema());
        let nb = &suite[0];
        let c = nb.blocker.apply(&ds.a, &ds.b);
        let mc = MatchCatcher::new(args.params());
        let prepared = mc.prepare(&ds.a, &ds.b);

        let timed = |threads: usize| -> (Duration, JointOutput) {
            let t = Instant::now();
            let out = run_joint(
                &prepared.tok_a,
                &prepared.tok_b,
                &c,
                &prepared.tree,
                JointParams {
                    k: args.k,
                    threads,
                    ..Default::default()
                },
            );
            (t.elapsed(), out)
        };
        let (mut t_one, one) = timed(1);
        let bits = union_bits(&one);
        let mut t_many = Duration::MAX;
        for rep in 0..runs {
            for threads in [workers, 1] {
                if rep == 0 && threads == 1 {
                    continue; // the reference run above
                }
                let (t, out) = timed(threads);
                assert!(
                    bits == union_bits(&out),
                    "{}: lists differ between 1 and {threads} workers",
                    ds.name
                );
                let best = if threads == 1 {
                    &mut t_one
                } else {
                    &mut t_many
                };
                *best = (*best).min(t);
            }
        }
        println!(
            "{:<16} {:<6} {:>7} {:>7} {:>13.2} {:>13.2} {:>8.2}x",
            ds.name,
            nb.label,
            one.configs.len(),
            bits.0.len(),
            t_one.as_secs_f64(),
            t_many.as_secs_f64(),
            t_one.as_secs_f64() / t_many.as_secs_f64().max(1e-9)
        );
    }
    args.obs_report();
}
