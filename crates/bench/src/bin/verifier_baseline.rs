//! Verifier perf baseline: runs the **§5 Match Verifier** end-to-end on
//! datagen profiles (a hash blocker, exact gold oracle as the synthetic
//! user) and writes per-stage wall-clock numbers — derived from the
//! `mc-obs` snapshot delta — to `BENCH_verifier.json`, establishing the
//! perf trajectory future PRs must not regress.
//!
//! Three profiles: fodors-zagats under the paper's running-example
//! blocker and amazon-google ×0.25 under its best hash blocker, both
//! with the paper's parameters, stop after a few rounds; `products-session`
//! is shaped like one `mcd` session of the products-serve benchmark
//! (amazon-google, hash blocker on attribute 0, `DebuggerParams::small`
//! with k = 200, n = 20, q = 1) and runs past round 20, so `fit_us`
//! measures a long refit loop.
//!
//! Stages per profile (best of `--runs` repetitions of the verify stage):
//!
//! * `feature_build_us` — flat feature-matrix materialization
//!   (`mc.core.verify.feature_matrix.build` span total);
//! * `rank_us` — ranking the matrix for training, once per run
//!   (`mc.core.verify.rank_matrix` span total);
//! * `fit_us` — forest (re)fits across all iterations
//!   (`mc.core.verify.forest_fit` span total);
//! * `predict_us` — candidate scoring across all iterations
//!   (`mc.core.verify.forest_predict` span total);
//! * `verify_us` — the whole verifier (`mc.core.verify.run` span total);
//! * `per_iter_us` — `verify_us / iterations`, the interactive latency the
//!   user sees between labeling rounds.
//!
//! Set `MC_BENCH_SMOKE=1` for a shrunk CI smoke run. The JSON also
//! carries the first (cold) run's allocation count — deterministic with
//! `--threads` pinned, budgeted by `mc bench-compare`.
//!
//! `cargo run --release -p mc-bench --bin verifier_baseline [--scale X]
//!  [--runs N] [--threads N] [--out PATH]`

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::features::FeatureExtractor;
use matchcatcher::joint::{CandidateUnion, QStrategy};
use matchcatcher::oracle::GoldOracle;
use matchcatcher::verify::run_verifier;
use mc_bench::alloc::AllocStats;
use mc_bench::blockers::best_hash_blocker;
use mc_bench::env::BenchEnv;
use mc_bench::harness::paper_params;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_table::AttrId;
use std::fmt::Write as _;

/// One verification workload.
struct Workload {
    /// Report name; the dataset's own name when `None`.
    name: Option<&'static str>,
    profile: DatasetProfile,
    scale: f64,
    /// A hash blocker on this attribute (an `mcd open`'s
    /// `blocker_attr`); the profile's paper blocker when `None`.
    blocker_attr: Option<AttrId>,
    params: DebuggerParams,
}

/// The parameters an `mcd open` of a products-serve session resolves to.
fn session_params() -> DebuggerParams {
    let mut p = DebuggerParams::small();
    p.joint.k = 200;
    p.joint.q = QStrategy::Fixed(1);
    p.verifier.n_per_iter = 20;
    p
}

struct ProfileReport {
    name: String,
    scale: f64,
    candidates: usize,
    iterations: usize,
    labeled: usize,
    matches: usize,
    threads: usize,
    feature_build_us: u64,
    rank_us: u64,
    fit_us: u64,
    predict_us: u64,
    verify_us: u64,
    per_iter_us: u64,
    allocs: AllocStats,
}

fn run_profile(w: Workload, seed: u64, runs: usize, threads: usize) -> ProfileReport {
    let ds = w.profile.generate_scaled(seed, w.scale);
    let blocker = match w.blocker_attr {
        Some(attr) => Blocker::Hash(KeyFunc::Attr(attr)),
        // Fodors-Zagats uses the paper's running-example blocker (hash
        // on city), which kills many matches and drives a long learning
        // run; the other paper profile uses its §6.2 best-hash blocker.
        None if w.profile == DatasetProfile::FodorsZagats => {
            Blocker::Hash(KeyFunc::Attr(ds.a.schema().expect_id("city")))
        }
        None => best_hash_blocker(w.profile, ds.a.schema()),
    };
    let c = blocker.apply(&ds.a, &ds.b);

    let mut params = w.params;
    if threads != 0 {
        params.joint.threads = threads;
        params.verifier.forest.threads = threads;
    }
    let mc = MatchCatcher::new(params.clone());
    let prepared = mc.prepare(&ds.a, &ds.b);
    let joint = mc.topk(&prepared, &c);
    let union = CandidateUnion::build(&joint.lists);
    let fx = FeatureExtractor::new(
        &ds.a,
        &ds.b,
        &prepared.promising.attrs,
        &prepared.tok_a,
        &prepared.tok_b,
    );

    // Best-of-N verifier runs (first run also warms allocators/caches);
    // the oracle is rebuilt per run so every repetition labels the same
    // pairs and the measured work is identical. The allocation counter
    // comes from the first (cold) repetition, which is deterministic
    // with pinned threads.
    let mut best: Option<(u64, MetricsSnapshot, usize, usize, usize)> = None;
    let mut allocs = AllocStats::capture();
    for rep in 0..runs.max(1) {
        let mut oracle = GoldOracle::exact(&ds.gold);
        let alloc_base = AllocStats::capture();
        let base = MetricsSnapshot::capture();
        let out = run_verifier(&union, &fx, &mut oracle, &params.verifier);
        let delta = MetricsSnapshot::capture().since(&base);
        if rep == 0 {
            allocs = AllocStats::capture().since(&alloc_base);
        }
        let verify_us = delta.span("mc.core.verify.run").total_us;
        if best.as_ref().is_none_or(|(b, ..)| verify_us < *b) {
            best = Some((
                verify_us,
                delta,
                out.iterations.len(),
                out.labeled,
                out.matches.len(),
            ));
        }
    }
    let (verify_us, delta, iterations, labeled, matches) = best.expect("at least one run");

    ProfileReport {
        name: w.name.map_or_else(|| ds.name.clone(), str::to_string),
        scale: w.scale,
        candidates: union.len(),
        iterations,
        labeled,
        matches,
        threads: mc_ml_threads(params.verifier.forest.threads),
        feature_build_us: delta.span("mc.core.verify.feature_matrix.build").total_us,
        rank_us: delta.span("mc.core.verify.rank_matrix").total_us,
        fit_us: delta.span("mc.core.verify.forest_fit").total_us,
        predict_us: delta.span("mc.core.verify.forest_predict").total_us,
        verify_us,
        per_iter_us: verify_us / iterations.max(1) as u64,
        allocs,
    }
}

/// The worker count `mc-ml` resolves `forest.threads` to (`0` = all
/// cores), reported in the JSON so runs on different machines compare
/// honestly.
fn mc_ml_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

fn main() {
    let env = BenchEnv::parse();
    let scale = env.scale(1.0, 0.2);
    let seed = env.seed(7);
    let runs = env.runs(3);
    let threads = env.threads();
    let out_path = env.out("BENCH_verifier.json");

    // Two contrasting paper workloads — short restaurant records (many
    // near-ties) and long product records — and one long refit loop.
    let reports = [
        Workload {
            name: None,
            profile: DatasetProfile::FodorsZagats,
            scale: scale.min(1.0),
            blocker_attr: None,
            params: paper_params(),
        },
        Workload {
            name: None,
            profile: DatasetProfile::AmazonGoogle,
            scale: 0.25 * scale,
            blocker_attr: None,
            params: paper_params(),
        },
        Workload {
            name: Some("products-session"),
            profile: DatasetProfile::AmazonGoogle,
            scale,
            blocker_attr: Some(AttrId(0)),
            params: session_params(),
        },
    ]
    .map(|w| run_profile(w, seed, runs, threads));

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mc-bench-verifier/v2\",\n  \"profiles\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"name\": \"{}\", \"scale\": {}, \"candidates\": {}, \
             \"iterations\": {}, \"labeled\": {}, \"matches\": {}, \"threads\": {}, \
             \"stages\": {{\"feature_build_us\": {}, \"rank_us\": {}, \"fit_us\": {}, \
             \"predict_us\": {}, \"verify_us\": {}, \"per_iter_us\": {}}}, \
             \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}",
            r.name,
            r.scale,
            r.candidates,
            r.iterations,
            r.labeled,
            r.matches,
            r.threads,
            r.feature_build_us,
            r.rank_us,
            r.fit_us,
            r.predict_us,
            r.verify_us,
            r.per_iter_us,
            r.allocs.allocations,
            r.allocs.bytes
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_verifier.json");

    println!(
        "{:<16} {:>8} {:>8} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "scale", "|E|", "iters", "feat-build", "rank", "fit", "predict", "verify"
    );
    for r in &reports {
        println!(
            "{:<16} {:>8.2} {:>8} {:>6} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>10.2}ms",
            r.name,
            r.scale,
            r.candidates,
            r.iterations,
            r.feature_build_us as f64 / 1e3,
            r.rank_us as f64 / 1e3,
            r.fit_us as f64 / 1e3,
            r.predict_us as f64 / 1e3,
            r.verify_us as f64 / 1e3,
        );
    }
    println!("wrote {out_path}");
}
