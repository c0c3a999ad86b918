//! SSJ perf baseline: runs the **joint top-k execution** on two datagen
//! profiles and writes per-stage wall-clock numbers (derived from the
//! `mc-obs` snapshot delta) to `BENCH_ssj.json`, establishing the perf
//! trajectory future PRs must not regress.
//!
//! Stages per profile:
//!
//! * `tokenize_us` — dictionary build + rank assignment
//!   (`mc.strsim.dict.build` span total);
//! * `joint_us` — the joint execution proper (`mc.core.joint.run` span
//!   total, best of `--runs` repetitions);
//! * `config_us` — sum of per-config join spans in the best run.
//!
//! Its `counters` are that run's `mc.core.ssj.{events, scored,
//! merge_aborts, position_pruned}` (the last counts the partners the
//! positional prefilter skipped before any scoring work).
//!
//! The main numbers run with a fixed `q = 1` so the candidate sets stay
//! comparable across versions; a separate `auto_q` section per profile
//! runs empirical q selection and reports its work (`events` and
//! `scored` include the preludes). `ci/bench_budgets.json` gates both
//! sections' `events` and `scored`: the counters are deterministic and
//! machine-independent, so an overrun is an algorithmic regression, not
//! timing noise.
//!
//! `MC_BENCH_SMOKE=1` switches the defaults to a quick configuration
//! (`--scale 0.1 --runs 1`) for CI; explicit flags still override. The
//! JSON also carries the first (cold) repetition's allocation count from
//! the counting global allocator — with `--threads` pinned it is a
//! deterministic work counter `mc bench-compare` can budget — and the
//! tokenization's own count (`allocs.tokenize_count`), which its fixed
//! chunk split keeps deterministic up to the few allocations each
//! tokenization worker thread costs.
//!
//! `cargo run --release -p mc-bench --bin ssj_baseline [--scale X]
//!  [--runs N] [--threads N] [--out PATH]`

use matchcatcher::config::ConfigGenerator;
use matchcatcher::joint::{run_joint, CandidateUnion, JointParams, QStrategy};
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_table::PairSet;
use std::fmt::Write as _;

struct ProfileReport {
    name: String,
    scale: f64,
    k: usize,
    configs: usize,
    candidates: usize,
    tokenize_us: u64,
    joint_us: u64,
    config_us: u64,
    events: u64,
    scored: u64,
    merge_aborts: u64,
    position_pruned: u64,
    allocs: AllocStats,
    tokenize_allocs: AllocStats,
    auto_q: AutoQReport,
}

/// One run with `QStrategy::Auto`: all preludes execute to completion
/// (deterministic q selection), then the winning q's main run.
struct AutoQReport {
    q_used: usize,
    select_q_us: u64,
    joint_us: u64,
    events: u64,
    scored: u64,
}

fn run_profile(
    profile: DatasetProfile,
    scale: f64,
    k: usize,
    seed: u64,
    runs: usize,
    threads: usize,
) -> ProfileReport {
    let ds = profile.generate_scaled(seed, scale);
    let generator = ConfigGenerator::default();
    let promising = generator.promising(&ds.a, &ds.b);
    let tree = generator.build_tree(&promising);

    let tok_base = MetricsSnapshot::capture();
    let tok_allocs = AllocStats::capture();
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let tokenize_allocs = AllocStats::capture().since(&tok_allocs);
    let tokenize_us = MetricsSnapshot::capture()
        .since(&tok_base)
        .span("mc.strsim.dict.build")
        .total_us;

    let killed = PairSet::new();
    let mut params = JointParams {
        k,
        ..Default::default()
    };
    if threads != 0 {
        params.threads = threads;
    }

    // Best-of-N joint executions (first run also warms allocators/caches).
    // The allocation counter comes from the first (cold) repetition: with
    // pinned threads it is deterministic, while warm repetitions depend
    // on what the previous ones left cached.
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
        eprintln!("--- {} best-run metrics ---\n{}", ds.name, delta.render());
    }

    // Auto-q run (measured separately so the main numbers stay
    // on the fixed-q configuration with version-comparable candidates).
    let auto_base = MetricsSnapshot::capture();
    let auto_out = run_joint(
        &ta,
        &tb,
        &killed,
        &tree,
        JointParams {
            k,
            q: QStrategy::Auto {
                max_q: 4,
                prelude_k: 50,
            },
            ..Default::default()
        },
    );
    let auto_delta = MetricsSnapshot::capture().since(&auto_base);
    let auto_q = AutoQReport {
        q_used: auto_out.q_used,
        select_q_us: auto_delta.span("mc.core.ssj.select_q").total_us,
        joint_us: auto_delta.span("mc.core.joint.run").total_us,
        events: auto_delta.counter("mc.core.ssj.events"),
        scored: auto_delta.counter("mc.core.ssj.scored"),
    };

    ProfileReport {
        name: ds.name.clone(),
        scale,
        k,
        configs: tree.len(),
        candidates,
        tokenize_us,
        joint_us,
        config_us: delta.span("mc.core.joint.config").total_us,
        events: delta.counter("mc.core.ssj.events"),
        scored: delta.counter("mc.core.ssj.scored"),
        merge_aborts: delta.counter("mc.core.ssj.merge_aborts"),
        position_pruned: delta.counter("mc.core.ssj.position_pruned"),
        allocs,
        tokenize_allocs,
        auto_q,
    }
}

fn main() {
    let env = BenchEnv::parse();
    let scale = env.scale(1.0, 0.1);
    let k: usize = env.value_or("--k", 200);
    let seed = env.seed(3);
    let runs = env.runs(3);
    let threads = env.threads();
    let out_path = env.out("BENCH_ssj.json");

    // Two contrasting profiles: long product records (reuse-friendly) and
    // short restaurant records (index-overhead-bound).
    let reports = [
        run_profile(
            DatasetProfile::AmazonGoogle,
            0.25 * scale,
            k,
            seed,
            runs,
            threads,
        ),
        run_profile(
            DatasetProfile::FodorsZagats,
            scale.min(1.0),
            k,
            seed,
            runs,
            threads,
        ),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mc-bench-ssj/v4\",\n  \"profiles\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"name\": \"{}\", \"scale\": {}, \"k\": {}, \"configs\": {}, \
             \"candidates\": {}, \"stages\": {{\"tokenize_us\": {}, \"joint_us\": {}, \
             \"config_us\": {}}}, \"counters\": {{\"events\": {}, \"scored\": {}, \
             \"merge_aborts\": {}, \"position_pruned\": {}}}, \
             \"allocs\": {{\"count\": {}, \"bytes\": {}, \"tokenize_count\": {}}}, \
             \"auto_q\": {{\"q_used\": {}, \"select_q_us\": {}, \"joint_us\": {}, \
             \"events\": {}, \"scored\": {}}}}}",
            r.name,
            r.scale,
            r.k,
            r.configs,
            r.candidates,
            r.tokenize_us,
            r.joint_us,
            r.config_us,
            r.events,
            r.scored,
            r.merge_aborts,
            r.position_pruned,
            r.allocs.allocations,
            r.allocs.bytes,
            r.tokenize_allocs.allocations,
            r.auto_q.q_used,
            r.auto_q.select_q_us,
            r.auto_q.joint_us,
            r.auto_q.events,
            r.auto_q.scored
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_ssj.json");

    println!(
        "{:<16} {:>8} {:>6} {:>12} {:>12} {:>10} {:>8}",
        "dataset", "scale", "cfgs", "joint", "scored", "aborts", "|E|"
    );
    for r in &reports {
        println!(
            "{:<16} {:>8.2} {:>6} {:>10.2}ms {:>12} {:>10} {:>8}",
            r.name,
            r.scale,
            r.configs,
            r.joint_us as f64 / 1e3,
            r.scored,
            r.merge_aborts,
            r.candidates
        );
        println!(
            "  auto-q: q={} select_q {:.2}ms, joint {:.2}ms, events {}, scored {}",
            r.auto_q.q_used,
            r.auto_q.select_q_us as f64 / 1e3,
            r.auto_q.joint_us as f64 / 1e3,
            r.auto_q.events,
            r.auto_q.scored
        );
    }
    println!("wrote {out_path}");
}
