//! Daemon load benchmark: concurrent scripted sessions against an
//! in-process `mc-serve` daemon, writing `BENCH_serve.json`.
//!
//! Each scripted session is a real client over TCP speaking the frame
//! protocol — the same path `mcd` serves: `open` (profile fixture) →
//! N scripted delta `rerun`s → `page` → `metrics` → `close`. All
//! sessions run concurrently from their own client threads, so the
//! daemon's accept loop, reader threads, worker pool, and LRU budgets
//! are all under load at once. The run records:
//!
//! * per-verb latency (p50 / p99, measured client-side, queue wait
//!   included) and whole-run throughput in sessions per second;
//! * peak resident sessions / estimated resident bytes, sampled from
//!   the daemon handle while the storm runs;
//! * the warm-vs-cold ratio: an *uncontended* session's delta `rerun`
//!   (round-trip, warm resident state) against the best-of-N cold
//!   `MatchCatcher::run` on the same patched tables. The floor for a
//!   committed baseline is `--min-speedup` (the store warm-start gate
//!   ships 3.1×; resident delta reruns clear it with margin).
//!
//! The uncontended session doubles as the identity gate: every warm
//! `rerun` response must serialize byte-identically to the cold run's
//! summary on the locally patched tables, and the whole run must finish
//! with **zero protocol errors** — both abort the binary, so the CI
//! smoke run is also a correctness gate.
//!
//! `MC_BENCH_SMOKE=1` shrinks the fleet for CI.
//!
//! `cargo run --release -p mc-bench --bin serve_load [--sessions N]
//!  [--reruns N] [--scale X] [--runs N] [--out PATH] [--min-speedup X]`

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::JsonValue;
use mc_serve::proto::report_summary;
use mc_serve::{Client, Daemon, ServeParams};
use mc_table::{AttrId, TableDelta, Tuple};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 11;
const PROFILE: &str = "fodors-zagats";

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn open_request(scale: f64) -> JsonValue {
    obj(vec![
        ("verb", "open".into()),
        ("profile", PROFILE.into()),
        ("scale", JsonValue::Num(scale)),
        ("seed", SEED.into()),
        ("blocker_attr", 0u64.into()),
        ("q", 1u64.into()),
    ])
}

/// Serializes a concrete [`TableDelta`] as the wire's explicit form.
fn delta_json(d: &TableDelta, width: usize) -> JsonValue {
    let row = |t: &Tuple| {
        JsonValue::Arr(
            (0..width)
                .map(|i| match t.value(AttrId(i as u16)) {
                    Some(s) => JsonValue::Str(s.to_string()),
                    None => JsonValue::Null,
                })
                .collect(),
        )
    };
    obj(vec![
        (
            "updates",
            JsonValue::Arr(
                d.updates
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("id", (e.id as u64).into()),
                            ("values", row(&e.tuple)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "deletes",
            JsonValue::Arr(d.deletes.iter().map(|&id| (id as u64).into()).collect()),
        ),
        (
            "inserts",
            JsonValue::Arr(d.inserts.iter().map(row).collect()),
        ),
    ])
}

/// What a daemon session's parameters resolve to, minus the serve-side
/// obs/store wiring — the cold reference for identity and speedup.
fn reference_params() -> DebuggerParams {
    let mut p = DebuggerParams::small();
    p.joint.q = QStrategy::Fixed(1);
    p
}

#[derive(Clone, Copy)]
struct Sample {
    verb: &'static str,
    us: u64,
}

fn timed(
    client: &mut Client,
    verb: &'static str,
    req: &JsonValue,
    out: &mut Vec<Sample>,
) -> JsonValue {
    let t = Instant::now();
    let resp = client
        .call_ok(req)
        .unwrap_or_else(|(code, msg)| panic!("{verb} failed: {code}: {msg}"));
    out.push(Sample {
        verb,
        us: t.elapsed().as_micros() as u64,
    });
    resp
}

/// One scripted session: open → reruns → page → explain → pervade →
/// metrics → close.
fn run_script(
    addr: std::net::SocketAddr,
    scale: f64,
    reruns: u64,
    script_seed: u64,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut client = Client::connect(addr, Duration::from_secs(300)).expect("connect");
    let resp = timed(&mut client, "open", &open_request(scale), &mut samples);
    let session = resp.get("session").unwrap().as_u64().expect("session id");
    for i in 0..reruns {
        let req = obj(vec![
            ("verb", "rerun".into()),
            ("session", session.into()),
            (
                "delta_a",
                obj(vec![(
                    "spec",
                    obj(vec![
                        ("frac", JsonValue::Num(0.03)),
                        ("seed", (script_seed * 1000 + i).into()),
                    ]),
                )]),
            ),
        ]);
        timed(&mut client, "rerun", &req, &mut samples);
    }
    timed(
        &mut client,
        "page",
        &obj(vec![
            ("verb", "page".into()),
            ("session", session.into()),
            ("limit", 5u64.into()),
        ]),
        &mut samples,
    );
    let resp = timed(
        &mut client,
        "explain",
        &obj(vec![
            ("verb", "explain".into()),
            ("session", session.into()),
            ("limit", 5u64.into()),
        ]),
        &mut samples,
    );
    assert_eq!(
        resp.get("schema").and_then(|v| v.as_str()),
        Some("mc-explain/v1"),
        "explain schema tag"
    );
    let resp = timed(
        &mut client,
        "pervade",
        &obj(vec![
            ("verb", "pervade".into()),
            ("session", session.into()),
            ("limit", 10u64.into()),
        ]),
        &mut samples,
    );
    assert!(
        resp.get("union_size").and_then(|v| v.as_u64()).is_some(),
        "pervade reports union size"
    );
    timed(
        &mut client,
        "metrics",
        &obj(vec![
            ("verb", "metrics".into()),
            ("session", session.into()),
        ]),
        &mut samples,
    );
    timed(
        &mut client,
        "close",
        &obj(vec![("verb", "close".into()), ("session", session.into())]),
        &mut samples,
    );
    samples
}

/// Uncontended warm session over the daemon: explicit deltas, each warm
/// rerun response checked byte-for-byte against a cold run on the same
/// patched tables. Returns (best warm rerun us, best cold run us).
fn identity_and_warm(daemon: &Daemon, scale: f64, rounds: usize, cold_runs: usize) -> (u64, u64) {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(SEED, scale);
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    let (mut a, mut b) = (ds.a, ds.b);
    let mc = MatchCatcher::new(reference_params());

    let mut samples = Vec::new();
    let mut client = Client::connect(daemon.addr(), Duration::from_secs(300)).expect("connect");
    let resp = timed(&mut client, "open", &open_request(scale), &mut samples);
    let session = resp.get("session").unwrap().as_u64().unwrap();
    {
        let cold = mc.run(&a, &b, &killed, &mut GoldOracle::exact(&ds.gold));
        assert_eq!(
            resp.get("report").unwrap().to_json_string(),
            report_summary(&cold).to_json_string(),
            "open report diverged from the cold reference run"
        );
    }

    let mut rng = StdRng::seed_from_u64(0xbeef);
    let mut best_warm = u64::MAX;
    let mut best_cold = u64::MAX;
    for round in 0..rounds {
        let da = random_delta(&a, DeltaSpec::fraction_of(a.len(), 0.03), &mut rng);
        let db = random_delta(&b, DeltaSpec::fraction_of(b.len(), 0.03), &mut rng);
        let width = a.schema().len();
        let req = obj(vec![
            ("verb", "rerun".into()),
            ("session", session.into()),
            ("delta_a", delta_json(&da, width)),
            ("delta_b", delta_json(&db, width)),
        ]);
        let t = Instant::now();
        let resp = client
            .call_ok(&req)
            .unwrap_or_else(|e| panic!("identity rerun {round}: {e:?}"));
        best_warm = best_warm.min(t.elapsed().as_micros() as u64);

        da.apply(&mut a).expect("delta A applies");
        db.apply(&mut b).expect("delta B applies");
        for _ in 0..cold_runs.max(1) {
            let t = Instant::now();
            let cold = mc.run(&a, &b, &killed, &mut GoldOracle::exact(&ds.gold));
            best_cold = best_cold.min(t.elapsed().as_micros() as u64);
            assert_eq!(
                resp.get("report").unwrap().to_json_string(),
                report_summary(&cold).to_json_string(),
                "round {round}: warm rerun diverged from the cold run on patched tables"
            );
        }
    }
    let _ = client.call_ok(&obj(vec![
        ("verb", "close".into()),
        ("session", session.into()),
    ]));
    (best_warm, best_cold)
}

struct VerbStats {
    verb: &'static str,
    count: usize,
    p50_us: u64,
    p99_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn verb_stats(samples: &[Sample]) -> Vec<VerbStats> {
    [
        "open", "rerun", "page", "explain", "pervade", "metrics", "close",
    ]
    .iter()
    .map(|&verb| {
        let mut us: Vec<u64> = samples
            .iter()
            .filter(|s| s.verb == verb)
            .map(|s| s.us)
            .collect();
        us.sort_unstable();
        VerbStats {
            verb,
            count: us.len(),
            p50_us: percentile(&us, 0.50),
            p99_us: percentile(&us, 0.99),
        }
    })
    .collect()
}

fn main() {
    let env = BenchEnv::parse();
    // Full mode: ≥100 concurrent sessions, the acceptance floor for a
    // single daemon process. Smoke shrinks the fleet, not the protocol.
    let sessions: u64 = env.value_or("--sessions", if env.smoke { 6 } else { 120 });
    let reruns: u64 = env.value_or("--reruns", if env.smoke { 2 } else { 3 });
    let scale = env.scale(0.35, 0.2);
    let cold_runs = env.runs(3);
    let identity_rounds: usize = env.value_or("--identity-rounds", 2);
    // The warm-vs-cold leg runs uncontended at a larger scale than the
    // storm: at storm scale the fixture is so small that the TCP round
    // trip, not the pipeline, dominates the warm number.
    let identity_scale: f64 = env.value_or("--identity-scale", if env.smoke { 0.2 } else { 1.0 });
    let min_speedup: f64 = env.value_or("--min-speedup", 0.0);
    let out_path = env.out("BENCH_serve.json");

    let store_root = std::env::temp_dir().join(format!("mc-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let mut params = ServeParams {
        // Every client keeps at most one request in flight, so the fleet
        // size bounds the queue; size it to never answer `busy`.
        queue_depth: ((sessions as usize + 2) * 2).clamp(64, 4096),
        max_sessions: (sessions as usize + 2).max(8),
        max_resident_bytes: 8 << 30,
        request_timeout_ms: 300_000,
        store_root: Some(store_root.clone()),
        ..ServeParams::default()
    };
    if env.threads() != 0 {
        params.workers = env.threads();
    }
    let workers = params.workers;
    let daemon = Daemon::spawn(params).expect("spawn daemon");
    let addr = daemon.addr();
    let handle = daemon.handle();

    // Resident-footprint sampler: polls the handle while the storm runs.
    let stop = AtomicBool::new(false);
    let peak_sessions = AtomicU64::new(0);
    let peak_bytes = AtomicU64::new(0);

    let alloc_base = AllocStats::capture();
    let storm = Instant::now();
    let all_samples: Vec<Sample> = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak_sessions.fetch_max(handle.resident_sessions() as u64, Ordering::Relaxed);
                peak_bytes.fetch_max(handle.resident_bytes() as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let clients: Vec<_> = (0..sessions)
            .map(|t| scope.spawn(move || run_script(addr, scale, reruns, t)))
            .collect();
        let samples: Vec<Sample> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler");
        samples
    });
    let wall_us = storm.elapsed().as_micros() as u64;

    // Warm-vs-cold on a quiet daemon, doubling as the identity gate.
    let (warm_us, cold_us) = identity_and_warm(&daemon, identity_scale, identity_rounds, cold_runs);
    let allocs = AllocStats::capture().since(&alloc_base);

    let (requests, protocol_errors) = daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store_root);
    assert_eq!(
        protocol_errors, 0,
        "scripted sessions must not trip protocol errors"
    );

    let stats = verb_stats(&all_samples);
    let sessions_per_sec = sessions as f64 / (wall_us.max(1) as f64 / 1e6);
    let speedup = cold_us as f64 / warm_us.max(1) as f64;

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"mc-bench-serve/v1\",\n  \
         \"sessions\": {sessions},\n  \"reruns_per_session\": {reruns},\n  \
         \"workers\": {workers},\n  \"requests\": {requests},\n  \
         \"protocol_errors\": {protocol_errors},\n  \"identity\": true,\n  \
         \"throughput\": {{\"wall_us\": {wall_us}, \"sessions_per_sec\": {sessions_per_sec:.2}}},\n  \
         \"resident\": {{\"peak_sessions\": {}, \"peak_bytes\": {}}},\n  \"latency\": {{",
        peak_sessions.load(Ordering::Relaxed),
        peak_bytes.load(Ordering::Relaxed),
    );
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    \"{}\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
            s.verb, s.count, s.p50_us, s.p99_us
        );
    }
    let _ = write!(
        json,
        "\n  }},\n  \"warm\": {{\"cold_run_us\": {cold_us}, \"warm_rerun_us\": {warm_us}, \
         \"speedup\": {speedup:.4}}},\n  \
         \"allocs\": {{\"count\": {}, \"bytes\": {}}}\n}}\n",
        allocs.allocations, allocs.bytes
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");

    println!(
        "{sessions} sessions × ({} reruns + page + metrics) on {workers} workers: \
         {requests} requests in {:.2}s ({sessions_per_sec:.1} sessions/s), 0 protocol errors",
        reruns,
        wall_us as f64 / 1e6
    );
    println!("{:<10} {:>8} {:>12} {:>12}", "verb", "count", "p50", "p99");
    for s in &stats {
        println!(
            "{:<10} {:>8} {:>10.2}ms {:>10.2}ms",
            s.verb,
            s.count,
            s.p50_us as f64 / 1e3,
            s.p99_us as f64 / 1e3
        );
    }
    println!(
        "peak resident: {} sessions, {:.1} MiB (estimated)",
        peak_sessions.load(Ordering::Relaxed),
        peak_bytes.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
    );
    println!(
        "identity ok; warm rerun {:.2}ms vs cold run {:.2}ms = {speedup:.1}x",
        warm_us as f64 / 1e3,
        cold_us as f64 / 1e3
    );
    println!("wrote {out_path}");

    assert!(
        speedup >= min_speedup,
        "warm rerun speedup {speedup:.2}x below the {min_speedup:.2}x floor"
    );
}
