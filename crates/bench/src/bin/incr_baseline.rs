//! Incremental-debugging baseline: cold pipeline refresh vs.
//! delta-patched reruns, writing `BENCH_incr.json`.
//!
//! Four scenarios per dataset, all through [`MatchCatcher::start_session`]:
//!
//! * `cold` — a fresh session on the current tables: full tokenization,
//!   arena build, and one joint top-K execution. Its *refresh* time is
//!   the prepare + topk stage spans — the work a user pays today for
//!   every blocker tweak or data fix.
//! * `delta` — a 1% random [`TableDelta`] against each table (splice
//!   updates, tombstone deletes, appended inserts) plus a small
//!   killed-set diff, replayed through `DebugSession::rerun`. Refresh
//!   time is the rerun span minus the verify/explain stages.
//! * `killed_only` — unchanged tables, killed-set diff only: the fast
//!   path that reuses every join verbatim.
//! * `aged` — one fresh session through 50 consecutive 1% table deltas
//!   (20 in smoke mode), as a long debugging session sees them; it runs
//!   after every other scenario. `first_refresh_us` is the refresh at
//!   delta 1, `refresh_us` the one at the last delta; `pairs_rescored`,
//!   `records_patched`, `full_rejoins`, `compactions` and the allocation
//!   stats sum over every delta, and `pairs_reused` is the last delta's.
//!   A session that ages shows as a last refresh far above the first,
//!   or as full rejoins.
//!
//! Verification and explanation run identically in every scenario, so
//! they are excluded from the refresh times — the comparison isolates
//! exactly the work the incremental path avoids. The identity gate runs
//! on every scenario: each incremental report must match a cold session
//! on the patched state field for field (metrics aside); a mismatch
//! aborts with a panic, so the CI smoke run doubles as an exactness
//! gate.
//!
//! `MC_BENCH_SMOKE=1` shrinks the datasets for CI. `--min-speedup-delta`
//! / `--min-speedup-killed` make the run exit non-zero below the given
//! refresh-speedup floors (used when regenerating the committed
//! full-scale baseline, not in smoke CI).
//!
//! `cargo run --release -p mc-bench --bin incr_baseline [--scale X]
//!  [--k N] [--runs N] [--out PATH] [--min-speedup-delta X]
//!  [--min-speedup-killed X]`

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_table::{AttrId, GoldMatches, PairSet, Table, TableDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Dataset name suffix for a scale factor. Dots would split into extra
/// segments in `bench-compare`'s flattened metric paths, so `0.25`
/// becomes `0_25`.
fn scale_tag(scale: f64) -> String {
    format!("{scale}").replace('.', "_")
}

/// The result-bearing report fields, metrics excluded.
fn summarize(r: &DebugReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.confirmed_matches.clone(),
        r.e_size,
        r.q_used,
        r.labeled,
        r.iterations.clone(),
        r.problems.clone(),
    )
}

#[derive(Default)]
struct ScenarioReport {
    name: &'static str,
    refresh_us: u64,
    /// The `aged` scenario's refresh at its first delta.
    first_refresh_us: Option<u64>,
    records_patched: u64,
    pairs_rescored: u64,
    pairs_reused: u64,
    full_rejoins: u64,
    compactions: u64,
    allocs: AllocStats,
}

/// Cold refresh cost: prepare (promising + tokenization) plus topk
/// (arenas + joint K-execution) stage time of a fresh session.
fn cold_refresh_us(delta: &MetricsSnapshot) -> u64 {
    delta.span("mc.core.debug.prepare").total_us + delta.span("mc.core.debug.topk").total_us
}

/// Incremental refresh cost: everything the rerun did except the
/// verify/explain stages, which run identically in every scenario.
fn rerun_refresh_us(delta: &MetricsSnapshot) -> u64 {
    let rerun = delta.span("mc.core.incr.rerun").total_us;
    let excluded =
        delta.span("mc.core.debug.verify").total_us + delta.span("mc.core.debug.explain").total_us;
    rerun - excluded.min(rerun)
}

fn scenario_counters(
    name: &'static str,
    delta: &MetricsSnapshot,
    refresh_us: u64,
    allocs: AllocStats,
) -> ScenarioReport {
    ScenarioReport {
        name,
        refresh_us,
        first_refresh_us: None,
        records_patched: delta.counter("mc.core.incr.records_patched"),
        pairs_rescored: delta.counter("mc.core.incr.pairs_rescored"),
        pairs_reused: delta.counter("mc.core.incr.pairs_reused"),
        full_rejoins: delta.counter("mc.core.incr.full_rejoins"),
        compactions: delta.counter("mc.core.incr.compactions"),
        allocs,
    }
}

struct DatasetRun {
    name: String,
    rows_a: usize,
    rows_b: usize,
    configs: usize,
    scenarios: Vec<ScenarioReport>,
    speedup_delta: f64,
    speedup_killed: f64,
}

/// The debugger every scenario runs: the paper's defaults at `k`, with
/// a fixed `q` of 1 as sessions require.
fn debugger(k: usize, threads: usize) -> MatchCatcher {
    let mut params = DebuggerParams::default();
    params.joint.k = k;
    params.joint.q = QStrategy::Fixed(1);
    if threads != 0 {
        params.joint.threads = threads;
    }
    MatchCatcher::new(params)
}

/// One dataset's inputs.
struct Dataset {
    name: String,
    a: Table,
    b: Table,
    killed: PairSet,
    gold: GoldMatches,
    /// Seed of the dataset's random deltas.
    seed: u64,
}

/// The `cold`, `delta` and `killed_only` scenarios.
fn bench_dataset(mc: &MatchCatcher, d: &Dataset, runs: usize, delta_frac: f64) -> DatasetRun {
    let Dataset {
        name,
        a,
        b,
        killed,
        gold,
        seed,
    } = d;

    // Cold session: refresh cost is best-of-N fresh starts (the first
    // also becomes the live session for the incremental scenarios).
    // Every allocation window holds only the call it measures, not the
    // metric snapshots around it, which copy the process-wide flight
    // recorder.
    let mut oracle = GoldOracle::exact(gold);
    let mut best_cold: Option<u64> = None;
    let mut cold_allocs = AllocStats::default();
    let mut live = None;
    for rep in 0..runs.max(1) {
        let base = MetricsSnapshot::capture();
        let alloc_base = AllocStats::capture();
        let started = mc.start_session(a.clone(), b.clone(), killed.clone(), &mut oracle);
        let allocs = AllocStats::capture().since(&alloc_base);
        let delta = MetricsSnapshot::capture().since(&base);
        if rep == 0 {
            cold_allocs = allocs;
            live = Some(started);
        }
        let us = cold_refresh_us(&delta);
        if best_cold.is_none_or(|b| us < b) {
            best_cold = Some(us);
        }
    }
    let (mut session, start_report) = live.expect("at least one run");
    let cold_us = best_cold.expect("at least one run");
    let configs = start_report.configs.len();

    // 1% table delta + small killed diff.
    let mut rng = StdRng::seed_from_u64(*seed);
    let da = random_delta(
        session.table_a(),
        DeltaSpec::fraction_of(a.len(), delta_frac),
        &mut rng,
    );
    let db = random_delta(
        session.table_b(),
        DeltaSpec::fraction_of(b.len(), delta_frac),
        &mut rng,
    );
    let nk = perturb_killed(
        session.killed(),
        (session.table_a().len() + da.inserts.len()) as u32,
        (session.table_b().len() + db.inserts.len()) as u32,
        0.01,
        killed.len() / 100 + 1,
        &mut rng,
    );
    let base = MetricsSnapshot::capture();
    let alloc_base = AllocStats::capture();
    let incr_report = session
        .rerun(&da, &db, Some(nk), &mut oracle)
        .expect("generated delta is valid");
    let delta_allocs = AllocStats::capture().since(&alloc_base);
    let delta_metrics = MetricsSnapshot::capture().since(&base);
    let delta_us = rerun_refresh_us(&delta_metrics);
    if std::env::var("MC_BENCH_DUMP").is_ok_and(|v| v == "1") {
        eprintln!(
            "--- {name} delta-rerun metrics ---\n{}",
            delta_metrics.render()
        );
    }

    // Identity gate: the incremental report must match a cold session on
    // the patched state.
    let (_, cold_check) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(gold),
    );
    assert!(
        summarize(&cold_check) == summarize(&incr_report),
        "{name}: delta rerun diverged from the cold run on the patched tables"
    );

    // Killed-set-only diff on the patched state.
    let nk2 = perturb_killed(
        session.killed(),
        session.table_a().len() as u32,
        session.table_b().len() as u32,
        0.02,
        killed.len() / 50 + 1,
        &mut rng,
    );
    let base = MetricsSnapshot::capture();
    let alloc_base = AllocStats::capture();
    let killed_report = session
        .rerun(
            &TableDelta::new(),
            &TableDelta::new(),
            Some(nk2),
            &mut oracle,
        )
        .expect("killed-only rerun");
    let killed_allocs = AllocStats::capture().since(&alloc_base);
    let killed_metrics = MetricsSnapshot::capture().since(&base);
    let killed_us = rerun_refresh_us(&killed_metrics);

    let (_, cold_check2) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(gold),
    );
    assert!(
        summarize(&cold_check2) == summarize(&killed_report),
        "{name}: killed-only rerun diverged from the cold run"
    );

    let rows_a = session.table_a().len();
    let rows_b = session.table_b().len();
    DatasetRun {
        name: name.clone(),
        rows_a,
        rows_b,
        configs,
        speedup_delta: cold_us as f64 / delta_us.max(1) as f64,
        speedup_killed: cold_us as f64 / killed_us.max(1) as f64,
        scenarios: vec![
            ScenarioReport {
                name: "cold",
                refresh_us: cold_us,
                allocs: cold_allocs,
                ..ScenarioReport::default()
            },
            scenario_counters("delta", &delta_metrics, delta_us, delta_allocs),
            scenario_counters("killed_only", &killed_metrics, killed_us, killed_allocs),
        ],
    }
}

/// The `aged` scenario: `deltas` consecutive `delta_frac` table deltas
/// through one fresh session, every rerun checked against a cold
/// session on the patched tables.
fn aged_scenario(mc: &MatchCatcher, d: &Dataset, deltas: usize, delta_frac: f64) -> ScenarioReport {
    let Dataset {
        name,
        a,
        b,
        killed,
        gold,
        seed,
    } = d;
    let mut oracle = GoldOracle::exact(gold);
    let (mut session, _) = mc.start_session(a.clone(), b.clone(), killed.clone(), &mut oracle);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa9ed);
    let mut report = ScenarioReport {
        name: "aged",
        ..ScenarioReport::default()
    };
    for i in 1..=deltas {
        let mut delta =
            |t: &Table| random_delta(t, DeltaSpec::fraction_of(t.len(), delta_frac), &mut rng);
        let (da, db) = (delta(session.table_a()), delta(session.table_b()));
        // The allocation window holds only the rerun, not the metric
        // snapshots, which copy the process-wide flight recorder.
        let base = MetricsSnapshot::capture();
        let alloc_base = AllocStats::capture();
        let rerun = session
            .rerun(&da, &db, None, &mut oracle)
            .expect("generated delta is valid");
        let allocs = AllocStats::capture().since(&alloc_base);
        let metrics = MetricsSnapshot::capture().since(&base);
        let step = scenario_counters("aged", &metrics, rerun_refresh_us(&metrics), allocs);
        if std::env::var("MC_BENCH_DUMP").is_ok_and(|v| v == "1") {
            eprintln!(
                "{name} aged delta {i}: refresh {:.2}ms rescored {} reused {} rejoins {} \
                 valid_min {}",
                step.refresh_us as f64 / 1e3,
                step.pairs_rescored,
                step.pairs_reused,
                step.full_rejoins,
                metrics.gauge("mc.core.incr.valid_min")
            );
        }
        report.first_refresh_us.get_or_insert(step.refresh_us);
        report.refresh_us = step.refresh_us;
        report.records_patched += step.records_patched;
        report.pairs_rescored += step.pairs_rescored;
        report.pairs_reused = step.pairs_reused;
        report.full_rejoins += step.full_rejoins;
        report.compactions += step.compactions;
        report.allocs.allocations += allocs.allocations;
        report.allocs.bytes += allocs.bytes;

        let (_, cold_check) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            session.killed().clone(),
            &mut GoldOracle::exact(gold),
        );
        assert!(
            summarize(&cold_check) == summarize(&rerun),
            "{name}: aged rerun {i} diverged from the cold run on the patched tables"
        );
    }
    report
}

fn main() {
    let env = BenchEnv::parse();
    let k: usize = env.value_or("--k", 200);
    let runs = env.runs(3);
    let out_path = env.out("BENCH_incr.json");
    let min_delta: f64 = env.value_or("--min-speedup-delta", 0.0);
    let min_killed: f64 = env.value_or("--min-speedup-killed", 0.0);
    let threads = env.threads();
    let aged_deltas = if env.smoke { 20 } else { 50 };

    // Full mode: 60K×60K zipf + amazon-google ×0.25 (the paper's
    // software-products workload). Smoke shrinks both.
    let zipf_scale = env.scale(1.0, 0.01);
    let ag_scale = if env.smoke { 0.05 } else { 0.25 };

    let inputs: Vec<Dataset> = [
        (DatasetProfile::ZipfScale, zipf_scale, 41),
        (DatasetProfile::AmazonGoogle, ag_scale, 43),
    ]
    .into_iter()
    .map(|(profile, scale, seed)| {
        let ds = profile.generate_scaled(7, scale);
        Dataset {
            name: format!("{}-{}", ds.name, scale_tag(scale)),
            killed: Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b),
            a: ds.a,
            b: ds.b,
            gold: ds.gold,
            seed,
        }
    })
    .collect();
    let mc = debugger(k, threads);
    let mut datasets: Vec<DatasetRun> = inputs
        .iter()
        .map(|d| bench_dataset(&mc, d, runs, 0.01))
        .collect();
    // The aged scenarios run last: their many sessions fill the
    // process-wide flight recorder, which every session call copies
    // into its report's metrics.
    for (run, d) in datasets.iter_mut().zip(&inputs) {
        run.scenarios.push(aged_scenario(&mc, d, aged_deltas, 0.01));
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mc-bench-incr/v1\",\n  \"datasets\": [");
    for (i, d) in datasets.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"name\": \"{}\", \"rows_a\": {}, \"rows_b\": {}, \"k\": {k}, \
             \"configs\": {}, \"scenarios\": [",
            d.name, d.rows_a, d.rows_b, d.configs
        );
        for (j, s) in d.scenarios.iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            let first = s
                .first_refresh_us
                .map_or(String::new(), |us| format!("\"first_refresh_us\": {us}, "));
            let _ = write!(
                json,
                "\n      {{\"name\": \"{}\", {first}\"refresh_us\": {}, \
                 \"counters\": {{\"records_patched\": {}, \"pairs_rescored\": {}, \
                 \"pairs_reused\": {}, \"full_rejoins\": {}, \"compactions\": {}}}, \
                 \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}",
                s.name,
                s.refresh_us,
                s.records_patched,
                s.pairs_rescored,
                s.pairs_reused,
                s.full_rejoins,
                s.compactions,
                s.allocs.allocations,
                s.allocs.bytes
            );
        }
        let _ = write!(
            json,
            "\n    ], \"identity\": true, \"speedup\": {{\"delta\": {:.4}, \
             \"killed_only\": {:.4}}}}}",
            d.speedup_delta, d.speedup_killed
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_incr.json");

    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "scenario", "refresh", "rescored", "reused", "allocs"
    );
    for d in &datasets {
        for s in &d.scenarios {
            println!(
                "{:<22} {:<12} {:>10.2}ms {:>12} {:>12} {:>10}",
                d.name,
                s.name,
                s.refresh_us as f64 / 1e3,
                s.pairs_rescored,
                s.pairs_reused,
                s.allocs.allocations
            );
        }
        println!(
            "{:<22} identity ok; speedup {:.1}x (1% delta), {:.1}x (killed-only)",
            d.name, d.speedup_delta, d.speedup_killed
        );
        if let Some(aged) = d.scenarios.iter().find(|s| s.name == "aged") {
            println!(
                "{:<22} aged over {aged_deltas} deltas: refresh {:.2}ms -> {:.2}ms, \
                 {} full rejoins",
                d.name,
                aged.first_refresh_us.unwrap_or(0) as f64 / 1e3,
                aged.refresh_us as f64 / 1e3,
                aged.full_rejoins
            );
        }
    }
    println!("wrote {out_path}");

    for d in &datasets {
        assert!(
            d.speedup_delta >= min_delta,
            "{}: delta speedup {:.2}x below the {min_delta:.2}x floor",
            d.name,
            d.speedup_delta
        );
        assert!(
            d.speedup_killed >= min_killed,
            "{}: killed-only speedup {:.2}x below the {min_killed:.2}x floor",
            d.name,
            d.speedup_killed
        );
    }
}
