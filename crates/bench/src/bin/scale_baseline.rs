//! Scale SSJ baseline: runs the joint top-k execution on the synthetic
//! `zipf-scale` profile (60K × 60K records at scale 1.0, heavy-tailed
//! token distribution) and writes `BENCH_scale.json` with one variant:
//!
//! * `single_scalar` — the paper's one-config-per-core schedule, where
//!   the root config's join runs on a single thread through the one
//!   event-loop kernel.
//!
//! Every score comes from the exact merge kernel this profile measures.
//! Timings are best-of-`--runs`; the work counters are identical in
//! every repetition, and the allocation count comes from the first
//! (cold) one, deterministic under pinned threads.
//!
//! A `measures` section pins the join's work for every measure and
//! `q ∈ {1, 2, 3}`: events, candidates, scored and |E| of one joint run
//! on one worker, always on `zipf-scale` ×0.02 (whatever `--scale`
//! says), where even the Overlap join at `q = 1` takes well under a
//! second. Work counters do not depend on the machine, so CI gates them
//! exactly.
//!
//! `MC_BENCH_SMOKE=1` shrinks the defaults to `--scale 0.02 --runs 1`
//! for CI; explicit flags still override.
//!
//! `cargo run --release -p mc-bench --bin scale_baseline [--scale X]
//!  [--runs N] [--threads N] [--k N] [--out PATH]`

use matchcatcher::config::ConfigGenerator;
use matchcatcher::joint::{
    build_arenas, run_joint, run_joint_with_arenas, CandidateUnion, JointParams, QStrategy,
};
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::SetMeasure;
use mc_strsim::tokenize::Tokenizer;
use mc_table::PairSet;

fn main() {
    let env = BenchEnv::parse();
    let scale = env.scale(1.0, 0.02);
    let k: usize = env.value_or("--k", 200);
    let seed = env.seed(7);
    let runs = env.runs(3);
    let threads = env.threads();
    let out_path = env.out("BENCH_scale.json");

    let ds = DatasetProfile::ZipfScale.generate_scaled(seed, scale);
    let generator = ConfigGenerator::default();
    let promising = generator.promising(&ds.a, &ds.b);
    let tree = generator.build_tree(&promising);

    let tok_base = MetricsSnapshot::capture();
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let tokenize_us = MetricsSnapshot::capture()
        .since(&tok_base)
        .span("mc.strsim.dict.build")
        .total_us;

    let mut params = JointParams {
        k,
        ..Default::default()
    };
    if threads != 0 {
        params.threads = threads;
    }
    let killed = PairSet::new();
    let mut best: Option<(u64, MetricsSnapshot, usize)> = None;
    let mut allocs = AllocStats::capture();
    for rep in 0..runs.max(1) {
        let alloc_base = AllocStats::capture();
        let base = MetricsSnapshot::capture();
        let out = run_joint(&ta, &tb, &killed, &tree, params);
        let delta = MetricsSnapshot::capture().since(&base);
        if rep == 0 {
            allocs = AllocStats::capture().since(&alloc_base);
        }
        let joint_us = delta.span("mc.core.joint.run").total_us;
        let candidates = CandidateUnion::build(&out.lists).len();
        if best.as_ref().is_none_or(|(b, _, _)| joint_us < *b) {
            best = Some((joint_us, delta, candidates));
        }
    }
    let (joint_us, delta, candidates) = best.expect("at least one run");
    if std::env::var("MC_BENCH_DUMP").is_ok_and(|v| v == "1") {
        eprintln!("--- best-run metrics ---\n{}", delta.render());
    }
    let config_us = delta.span("mc.core.joint.config").total_us;
    let events = delta.counter("mc.core.ssj.events");
    let scored = delta.counter("mc.core.ssj.scored");
    let measures = measure_sweep(seed, k);

    let json = format!(
        "{{\n  \"schema\": \"mc-bench-scale/v3\",\n  \"dataset\": {{\"name\": \"{}\", \
         \"scale\": {}, \"records_a\": {}, \"records_b\": {}, \"k\": {}, \
         \"configs\": {}, \"tokenize_us\": {}}},\n  \"variants\": [\
         \n    {{\"name\": \"single_scalar\", \"candidates\": {}, \
         \"stages\": {{\"joint_us\": {}, \"config_us\": {}}}, \
         \"counters\": {{\"events\": {}, \"scored\": {}}}, \
         \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}\n  ],\n  \"measures\": [\n{}\n  ]\n}}\n",
        ds.name,
        scale,
        ds.a.len(),
        ds.b.len(),
        k,
        tree.len(),
        tokenize_us,
        candidates,
        joint_us,
        config_us,
        events,
        scored,
        allocs.allocations,
        allocs.bytes,
        measures.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");

    println!(
        "single_scalar: joint {:.2}ms, events {events}, scored {scored}, \
         allocs {}, |E| {candidates}",
        joint_us as f64 / 1e3,
        allocs.allocations
    );
    println!("wrote {out_path}");
}

/// Scale of the `measures` sweep's dataset.
const SWEEP_SCALE: f64 = 0.02;

/// One JSON row per measure × `q ∈ {1, 2, 3}`: the work counters and |E|
/// of a one-worker joint run on `zipf-scale` ×[`SWEEP_SCALE`].
fn measure_sweep(seed: u64, k: usize) -> Vec<String> {
    let ds = DatasetProfile::ZipfScale.generate_scaled(seed, SWEEP_SCALE);
    let generator = ConfigGenerator::default();
    let promising = generator.promising(&ds.a, &ds.b);
    let tree = generator.build_tree(&promising);
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let arenas = build_arenas(&ta, &tb, &tree.configs(), 1);
    let killed = PairSet::new();
    let mut rows = Vec::new();
    for measure in SetMeasure::ALL {
        for q in 1..=3 {
            let params = JointParams {
                k,
                measure,
                q: QStrategy::Fixed(q),
                threads: 1,
                ..Default::default()
            };
            let base = MetricsSnapshot::capture();
            let out = run_joint_with_arenas(&ta, &tb, &killed, &tree, params, &arenas);
            let delta = MetricsSnapshot::capture().since(&base);
            let name = format!("{}_q{q}", measure.label());
            let (events, candidates, scored) = (
                delta.counter("mc.core.ssj.events"),
                delta.counter("mc.core.ssj.candidates"),
                delta.counter("mc.core.ssj.scored"),
            );
            let union = CandidateUnion::build(&out.lists).len();
            println!(
                "{name}: events {events}, candidates {candidates}, scored {scored}, |E| {union}"
            );
            rows.push(format!(
                "    {{\"name\": \"{name}\", \"events\": {events}, \"candidates\": {candidates}, \
                 \"scored\": {scored}, \"union\": {union}}}"
            ));
        }
    }
    rows
}
