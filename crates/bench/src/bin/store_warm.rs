//! Warm-start bench: measures the end-to-end debugging pipeline cold
//! (empty artifact store, everything computed and published) versus warm
//! (same store, tokenization and the whole joint top-k stage loaded from
//! disk), and writes `BENCH_store.json` (`mc-bench-store/v4`).
//!
//! Per profile the bin opens a store directory, runs the full pipeline
//! once (the *cold* leg on a fresh directory), then runs it `--runs`
//! more times and keeps the best repetition as the *warm* leg. Both legs
//! must produce identical debug reports — the bin asserts the ranked
//! confirmed-match list and recall numbers match bit for bit.
//!
//! The *tok* leg then runs `--runs` times on the same tables with a
//! second killed set (the blocker output minus every tenth pair): the
//! tokenization hits, the candidate union misses, nothing else is looked
//! up, and the arenas are built once from the loaded tokenization; the
//! bin asserts all four. Each repetition removes the union it
//! published, so every repetition, and every later process over a
//! shared `--store`, misses the union again.
//!
//! Flags:
//!
//! * `--store DIR` — use (and keep) a shared store directory instead of
//!   a fresh temp dir. Running the bin twice with the same `DIR` makes
//!   the second process's first leg warm too — CI uses this for its
//!   cross-process warm-start smoke;
//! * `--assert-warm` — require that the *first* leg already hits the
//!   store (only meaningful on the second run over a shared `--store`);
//! * `--scale X`, `--seed N`, `--runs N`, `--threads N`, `--out PATH` —
//!   as in the other bench bins. Set `MC_BENCH_SMOKE=1` for a shrunk CI
//!   smoke run. Allocation counts of the cold leg and of the first warm
//!   and tok repetitions ride along in the JSON for the
//!   `mc bench-compare` gate.
//!
//! Every leg asserts that no stored artifact failed to decode
//! (`mc.store.decode_failed`), so a store another build filled must
//! load in full.
//!
//! `cargo run --release -p mc-bench --bin store_warm [--scale X]
//!  [--runs N] [--store DIR] [--assert-warm] [--out PATH]`

use matchcatcher::debugger::{DebugReport, MatchCatcher};
use matchcatcher::oracle::GoldOracle;
use mc_bench::alloc::AllocStats;
use mc_bench::blockers::best_hash_blocker;
use mc_bench::env::BenchEnv;
use mc_bench::harness::paper_params;
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_store::StoreConfig;
use mc_table::PairSet;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct ProfileReport {
    name: String,
    scale: f64,
    cold_us: u64,
    warm_us: u64,
    cold_hits: u64,
    cold_publishes: u64,
    warm_hits: u64,
    warm_misses: u64,
    tok_us: u64,
    tok_hits: u64,
    tok_misses: u64,
    cold_allocs: AllocStats,
    warm_allocs: AllocStats,
    tok_allocs: AllocStats,
}

/// The result-bearing fields both legs must agree on.
fn fingerprint(r: &DebugReport) -> (Vec<(u32, u32)>, usize, usize, usize) {
    (r.confirmed_matches.clone(), r.e_size, r.q_used, r.labeled)
}

fn run_profile(
    profile: DatasetProfile,
    scale: f64,
    seed: u64,
    runs: usize,
    threads: usize,
    store_dir: &Path,
    assert_warm: bool,
) -> ProfileReport {
    let ds = profile.generate_scaled(seed, scale);
    let blocker = match profile {
        DatasetProfile::FodorsZagats => {
            mc_blocking::Blocker::Hash(mc_blocking::KeyFunc::Attr(ds.a.schema().expect_id("city")))
        }
        _ => best_hash_blocker(profile, ds.a.schema()),
    };
    let c = blocker.apply(&ds.a, &ds.b);

    let mut params = paper_params();
    params.store = Some(StoreConfig::at(store_dir));
    if threads != 0 {
        params.joint.threads = threads;
        params.verifier.forest.threads = threads;
    }
    let mc = MatchCatcher::new(params);

    let leg = |c: &PairSet| {
        let mut oracle = GoldOracle::exact(&ds.gold);
        let alloc_base = AllocStats::capture();
        let base = MetricsSnapshot::capture();
        let start = Instant::now();
        let report = mc.run(&ds.a, &ds.b, c, &mut oracle);
        let us = start.elapsed().as_micros() as u64;
        let delta = MetricsSnapshot::capture().since(&base);
        let allocs = AllocStats::capture().since(&alloc_base);
        assert_eq!(
            delta.counter("mc.store.decode_failed"),
            0,
            "{}: a stored artifact failed to decode",
            ds.name
        );
        (us, report, delta, allocs)
    };

    let (cold_us, cold_report, cold_delta, cold_allocs) = leg(&c);
    let cold_hits = cold_delta.counter("mc.store.hits");
    if assert_warm {
        assert!(
            cold_hits > 0,
            "{}: --assert-warm but the first leg hit the store 0 times \
             (is --store pointing at the directory of a previous run?)",
            ds.name
        );
    }

    // The warm allocation counter comes from the first warm leg: later
    // repetitions see progressively warmer process caches, the first one
    // is deterministic with pinned threads.
    let mut best: Option<(u64, MetricsSnapshot)> = None;
    let mut warm_allocs = AllocStats::capture();
    for rep in 0..runs.max(1) {
        let (us, report, delta, allocs) = leg(&c);
        if rep == 0 {
            warm_allocs = allocs;
        }
        assert_eq!(
            fingerprint(&cold_report),
            fingerprint(&report),
            "{}: warm report diverged from cold",
            ds.name
        );
        assert!(
            delta.counter("mc.store.hits") > 0,
            "{}: warm leg hit the store 0 times",
            ds.name
        );
        if best.as_ref().is_none_or(|(b, _)| us < *b) {
            best = Some((us, delta));
        }
    }
    let (warm_us, warm_delta) = best.expect("at least one warm run");

    // The tok leg: a killed set no earlier leg used, so its union misses
    // while the tokenization hits.
    let mut pairs: Vec<(u32, u32)> = c.iter().collect();
    pairs.sort_unstable();
    let mut c_tok = PairSet::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        if i % 10 != 0 {
            c_tok.insert(a, b);
        }
    }
    let union_dir = store_dir.join("objects").join("union");
    let unions = || -> BTreeSet<PathBuf> {
        std::fs::read_dir(&union_dir)
            .expect("union dir")
            .map(|e| e.expect("union entry").path())
            .collect()
    };
    let mut tok_best: Option<(u64, MetricsSnapshot)> = None;
    let mut tok_allocs = AllocStats::capture();
    let mut tok_report = None;
    for rep in 0..runs.max(1) {
        let before = unions();
        let (us, report, delta, allocs) = leg(&c_tok);
        for published in unions().difference(&before) {
            std::fs::remove_file(published).expect("remove the tok leg's union");
        }
        assert_eq!(
            delta.span("mc.strsim.dict.build").count,
            0,
            "{}: the tok leg must hit the tokenization",
            ds.name
        );
        assert!(
            delta.span("mc.core.joint.run").count > 0,
            "{}: the tok leg must miss the union",
            ds.name
        );
        assert_eq!(
            (
                delta.counter("mc.store.hits"),
                delta.counter("mc.store.misses")
            ),
            (1, 1),
            "{}: the tok leg may look up the tokenization and the union only",
            ds.name
        );
        assert_eq!(
            delta.span("mc.core.joint.build_arenas").count,
            1,
            "{}: the tok leg must build the arenas once",
            ds.name
        );
        let fp = fingerprint(&report);
        assert_eq!(
            tok_report.get_or_insert_with(|| fp.clone()),
            &fp,
            "{}: tok repetitions diverged",
            ds.name
        );
        if rep == 0 {
            tok_allocs = allocs;
        }
        if tok_best.as_ref().is_none_or(|(b, _)| us < *b) {
            tok_best = Some((us, delta));
        }
    }
    let (tok_us, tok_delta) = tok_best.expect("at least one tok run");

    ProfileReport {
        name: ds.name.clone(),
        scale,
        cold_us,
        warm_us,
        cold_hits,
        cold_publishes: cold_delta.counter("mc.store.publishes"),
        warm_hits: warm_delta.counter("mc.store.hits"),
        warm_misses: warm_delta.counter("mc.store.misses"),
        tok_us,
        tok_hits: tok_delta.counter("mc.store.hits"),
        tok_misses: tok_delta.counter("mc.store.misses"),
        cold_allocs,
        warm_allocs,
        tok_allocs,
    }
}

fn main() {
    let env = BenchEnv::parse();
    let scale = env.scale(1.0, 0.2);
    let seed = env.seed(7);
    let runs = env.runs(3);
    let threads = env.threads();
    let out_path = env.out("BENCH_store.json");
    let assert_warm = env.has("--assert-warm");
    // A shared --store dir persists across invocations; the default is a
    // fresh per-process temp dir, removed on exit.
    let (store_dir, ephemeral) = match env.flag("--store") {
        Some(dir) => (PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("mc-store-bench-{}", std::process::id())),
            true,
        ),
    };

    let reports = [
        run_profile(
            DatasetProfile::FodorsZagats,
            scale.min(1.0),
            seed,
            runs,
            threads,
            &store_dir,
            assert_warm,
        ),
        run_profile(
            DatasetProfile::AmazonGoogle,
            0.25 * scale,
            seed,
            runs,
            threads,
            &store_dir,
            assert_warm,
        ),
    ];
    if ephemeral {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mc-bench-store/v4\",\n  \"profiles\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"name\": \"{}\", \"scale\": {}, \"cold_us\": {}, \"warm_us\": {}, \
             \"tok_us\": {}, \"speedup\": {:.2}, \
             \"store\": {{\"cold_hits\": {}, \
             \"cold_publishes\": {}, \"warm_hits\": {}, \"warm_misses\": {}, \
             \"tok_hits\": {}, \"tok_misses\": {}}}, \
             \"allocs\": {{\"cold_count\": {}, \"cold_bytes\": {}, \
             \"warm_count\": {}, \"warm_bytes\": {}, \
             \"tok_count\": {}, \"tok_bytes\": {}}}}}",
            r.name,
            r.scale,
            r.cold_us,
            r.warm_us,
            r.tok_us,
            r.cold_us as f64 / r.warm_us.max(1) as f64,
            r.cold_hits,
            r.cold_publishes,
            r.warm_hits,
            r.warm_misses,
            r.tok_hits,
            r.tok_misses,
            r.cold_allocs.allocations,
            r.cold_allocs.bytes,
            r.warm_allocs.allocations,
            r.warm_allocs.bytes,
            r.tok_allocs.allocations,
            r.tok_allocs.bytes
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_store.json");

    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "dataset", "scale", "cold", "warm", "tok", "speedup", "warm-hits", "publishes"
    );
    for r in &reports {
        println!(
            "{:<16} {:>8.2} {:>10.2}ms {:>10.2}ms {:>10.2}ms {:>7.2}x {:>10} {:>10}",
            r.name,
            r.scale,
            r.cold_us as f64 / 1e3,
            r.warm_us as f64 / 1e3,
            r.tok_us as f64 / 1e3,
            r.cold_us as f64 / r.warm_us.max(1) as f64,
            r.warm_hits,
            r.cold_publishes
        );
    }
    println!("wrote {out_path}");
}
