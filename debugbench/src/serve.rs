//! `products-serve`: an in-process `mcd` daemon with default
//! [`ServeParams`], driven over TCP by two client connections that each
//! own four `amazon-google` sessions.
//!
//! One op is one step: `rerun` → `page` → `explain` → `pervade`. The
//! rerun is a **write** (a scripted 1% `delta_a`) or a **read** (a
//! `perturb_killed` blocker tweak). Each client runs a closed loop over
//! its own sessions.
//!
//! After the timed phase every session's op log is replayed locally: the
//! same scripted deltas and killed-set perturbations on freshly
//! generated tables give the patched tables, and a cold
//! `MatchCatcher::run` on them must summarize exactly like the session's
//! last rerun. In a traced run the same requests are also replayed, one
//! session at a time, through a local `SessionManager::execute`, which
//! gives each verb's execution time and allocations without frame I/O or
//! queueing, and the layer split of every rerun from the session's own
//! metrics snapshot.

use crate::trace::{Span, Tracer};
use crate::{
    add_counts, add_rerun_values, alloc, derive_rerun_layers, timed, Class, Measured, OpSample,
    RunConfig, STEP_VERBS,
};
use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::GoldOracle;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{JsonValue, MetricsSnapshot};
use mc_serve::proto::{parse_request, report_summary};
use mc_serve::{Client, Daemon, ServeParams, SessionManager};
use mc_table::{AttrId, PairSet, Table};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const SESSIONS_PER_CLIENT: usize = 4;
const PROFILE: &str = "amazon-google";
/// Share of table A's rows a write edits.
const DELTA_FRAC: f64 = 0.01;
/// Share of killed pairs a read un-kills.
const UNKILL_RATE: f64 = 0.01;
/// Fresh pairs a read kills.
const KILLS: usize = 20;
/// Matches, explanations and groups each read-back verb asks for.
const PAGE: u64 = 20;
/// The daemon salts a scripted `delta_a` seed with this before drawing
/// the delta (`mc_serve::session`), so local replays must too.
const DELTA_A_SALT: u64 = 0x0a;

struct Sizes {
    scale: f64,
    k: usize,
    n_per_iter: usize,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    if cfg.tiny {
        Sizes {
            scale: 0.05,
            k: 20,
            n_per_iter: 10,
        }
    } else {
        Sizes {
            scale: 1.0,
            k: 200,
            n_per_iter: 20,
        }
    }
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Dataset seed of session `s` (sessions are numbered across clients).
fn dataset_seed(s: usize) -> u64 {
    crate::DATASET_SEED + s as u64
}

fn open_request(cfg: &RunConfig, s: usize) -> JsonValue {
    let z = sizes(cfg);
    let mut req = vec![
        ("verb", "open".into()),
        ("profile", PROFILE.into()),
        ("scale", JsonValue::Num(z.scale)),
        ("seed", dataset_seed(s).into()),
        ("blocker_attr", 0u64.into()),
        ("k", (z.k as u64).into()),
        ("n_per_iter", (z.n_per_iter as u64).into()),
    ];
    if cfg.tiny {
        // Pinned to one join thread so work counters repeat exactly.
        req.push(("threads", 1u64.into()));
    }
    obj(req)
}

/// Script seed of step `step` of client `client` in a run seeded with
/// `run_seed`. Requests carry numbers as JSON doubles, so the seed stays
/// below 2^53 to reach the daemon exactly: 21 bits drawn from the run
/// seed above the client and step bits.
fn op_seed(run_seed: u64, client: usize, step: u64) -> u64 {
    let stream = StdRng::seed_from_u64(run_seed).next_u64() & ((1 << 21) - 1);
    (stream << 32) ^ ((client as u64) << 24) ^ step
}

/// One logged op: which session, which class, which script seed.
#[derive(Debug, Clone, Copy)]
struct Op {
    session: usize,
    class: Class,
    seed: u64,
}

/// The four requests of one step against daemon session `id`.
fn step_requests(id: u64, op: Op) -> [JsonValue; 4] {
    let rerun = match op.class {
        Class::Write => obj(vec![
            ("verb", "rerun".into()),
            ("session", id.into()),
            (
                "delta_a",
                obj(vec![(
                    "spec",
                    obj(vec![
                        ("frac", JsonValue::Num(DELTA_FRAC)),
                        ("seed", op.seed.into()),
                    ]),
                )]),
            ),
        ]),
        Class::Read => obj(vec![
            ("verb", "rerun".into()),
            ("session", id.into()),
            (
                "perturb_killed",
                obj(vec![
                    ("unkill_rate", JsonValue::Num(UNKILL_RATE)),
                    ("kills", (KILLS as u64).into()),
                    ("seed", op.seed.into()),
                ]),
            ),
        ]),
    };
    let read = |verb: &str| {
        obj(vec![
            ("verb", verb.into()),
            ("session", id.into()),
            ("limit", PAGE.into()),
        ])
    };
    [rerun, read("page"), read("explain"), read("pervade")]
}

fn is_ok(resp: &JsonValue) -> bool {
    resp.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// Error codes that mean the daemon refused the request.
fn refused(resp: &JsonValue) -> bool {
    let code = resp
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str);
    matches!(
        code,
        Some("busy" | "timeout" | "session_evicted" | "unknown_session" | "shutting_down")
    )
}

/// One step of a session's log: its op, the rerun's report summary, and
/// for untraced steps the `(client, step)` index of its op sample.
#[derive(Clone)]
struct Step {
    op: Op,
    summary: Option<String>,
    sample: Option<(usize, usize)>,
}

/// One traced step as the client saw it.
struct TracedStep {
    /// Op id of the step's spans.
    id: u64,
    class: Class,
    wall_us: f64,
    /// Round trip per verb of [`STEP_VERBS`], milliseconds.
    rtts: [f64; 4],
    refusals: usize,
    /// Transport failures and error responses other than refusals.
    errors: usize,
}

/// One client's share of a timed phase.
#[derive(Default)]
struct ClientLog {
    samples: Vec<OpSample>,
    /// Per step: its op and the rerun's report summary.
    steps: Vec<(Op, Option<String>)>,
    traced: Vec<TracedStep>,
    spans: Vec<Span>,
}

/// Runs client `client`'s closed loop for `seconds` over its daemon
/// sessions `ids`.
fn client_loop(
    cfg: &RunConfig,
    addr: std::net::SocketAddr,
    ids: &[u64],
    client: usize,
    seconds: f64,
    step0: u64,
    tracer: Option<&mut Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = Client::connect(addr, Duration::from_secs(120)).expect("the daemon accepts");
    let mut tracer = tracer;
    let start = Instant::now();
    let mut i = 0usize;
    // At least one write and one read per session.
    while start.elapsed().as_secs_f64() < seconds || i < 2 * ids.len() {
        let class = Class::of_step(i);
        let local = (i / 2) % ids.len();
        let op = Op {
            session: client * SESSIONS_PER_CLIENT + local,
            class,
            seed: op_seed(cfg.seed, client, step0 + i as u64),
        };
        let op_id = tracer.as_deref_mut().map(Tracer::begin_op);
        // Only client 0 restarts the process-wide resident high-water
        // mark, so each of its readings covers exactly its own step.
        if client == 0 {
            alloc::reset_peak_rss();
        }
        let t = Instant::now();
        let reqs = match tracer.as_deref_mut() {
            Some(tr) => tr.span("bench", "build requests", || step_requests(ids[local], op)),
            None => step_requests(ids[local], op),
        };
        let mut rtts = [0.0f64; 4];
        let mut failed = 0usize;
        let mut refusals = 0usize;
        let mut first_page_ms = None;
        let mut summary = None;
        let mut labels = 0;
        let mut found = 0;
        for (v, req) in reqs.iter().enumerate() {
            let rt = Instant::now();
            let resp = conn.call(req);
            let rtt_us = rt.elapsed().as_secs_f64() * 1e6;
            rtts[v] = rtt_us / 1e3;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.record("serve", &format!("rtt {}", STEP_VERBS[v]), rt, rtt_us);
            }
            let mut check = || match &resp {
                Ok(r) if is_ok(r) => {
                    if v == 0 {
                        let report = r.get("report").cloned().unwrap_or(JsonValue::Null);
                        labels = report
                            .get("labeled")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0);
                        found = report
                            .get("confirmed")
                            .and_then(JsonValue::as_array)
                            .map_or(0, |c| c.len());
                        summary = Some(report.to_json_string());
                    }
                }
                Ok(r) => {
                    failed += 1;
                    refusals += usize::from(refused(r));
                }
                Err(_) => failed += 1,
            };
            match tracer.as_deref_mut() {
                Some(tr) => tr.span("bench", "check response", check),
                None => check(),
            }
            if v == 1 {
                first_page_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        log.samples.push(OpSample {
            write: class == Class::Write,
            wall_ms,
            first_page_ms,
            labels: labels as usize,
            peak_mib: (client == 0).then(alloc::peak_rss_mib),
            found,
            killed_gold: 0,
            failed: failed > 0,
        });
        if let Some(id) = op_id {
            log.traced.push(TracedStep {
                id,
                class,
                wall_us: wall_ms * 1e3,
                rtts,
                refusals,
                errors: failed - refusals,
            });
        }
        log.steps.push((op, summary));
        i += 1;
    }
    if let Some(tr) = tracer {
        log.spans = std::mem::take(&mut tr.spans);
    }
    log
}

/// A daemon with every session opened, as in set-up.
struct Fleet {
    daemon: Daemon,
    /// Daemon session ids per client.
    ids: Vec<Vec<u64>>,
}

fn open_fleet(cfg: &RunConfig) -> Result<Fleet, String> {
    let daemon = Daemon::spawn(ServeParams::default())?;
    let addr = daemon.addr();
    let ids = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<Vec<u64>, String> {
                    let mut conn = Client::connect(addr, Duration::from_secs(120))?;
                    (0..SESSIONS_PER_CLIENT)
                        .map(|j| {
                            let resp = conn
                                .call_ok(&open_request(cfg, c * SESSIONS_PER_CLIENT + j))
                                .map_err(|(code, msg)| format!("open: {code}: {msg}"))?;
                            resp.get("session")
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| "open returned no session id".to_string())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(Fleet { daemon, ids })
}

/// Runs both clients concurrently for one phase.
fn phase(cfg: &RunConfig, fleet: &Fleet, seconds: f64, step0: u64, traced: bool) -> Vec<ClientLog> {
    let addr = fleet.daemon.addr();
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ids = &fleet.ids[c];
                s.spawn(move || {
                    let mut tr = Tracer::new(epoch, (c as u64) << 40);
                    client_loop(cfg, addr, ids, c, seconds, step0, traced.then_some(&mut tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub(crate) fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let setups = if cfg.trace || cfg.tiny { 1 } else { 3 };
    let mut fleet = None;
    for _ in 0..setups {
        if let Some(f) = fleet.take() {
            let f: Fleet = f;
            f.daemon.shutdown();
        }
        let (f, ms) = timed(|| open_fleet(cfg));
        match f {
            Ok(f) => fleet = Some(f),
            Err(e) => {
                m.problems.push(format!("set-up failed: {e}"));
                m.extra_failed += 1;
                m.extra_attempted += 1;
                return m;
            }
        }
        m.setups_s.push(ms / 1e3);
    }
    let fleet = fleet.expect("at least one set-up");
    let handle = fleet.daemon.handle();

    // A traced run traces first, so the local replay of its requests
    // starts from freshly opened sessions.
    let mut traced_logs = Vec::new();
    if cfg.trace {
        alloc::set_counting(true);
        traced_logs = phase(cfg, &fleet, cfg.seconds / 2.0, 1 << 20, true);
        alloc::set_counting(false);
    }
    let start = Instant::now();
    let mut logs = phase(cfg, &fleet, cfg.seconds, 0, false);
    m.phase_s = start.elapsed().as_secs_f64();
    if handle.protocol_errors() != 0 {
        m.problems.push(format!(
            "the daemon counted {} protocol errors",
            handle.protocol_errors()
        ));
    }
    if handle.resident_sessions() != CLIENTS * SESSIONS_PER_CLIENT {
        m.problems.push(format!(
            "{} of {} sessions still resident: the daemon evicted some",
            handle.resident_sessions(),
            CLIENTS * SESSIONS_PER_CLIENT
        ));
    }
    fleet.daemon.shutdown();

    // Per session, in order: every step of both phases.
    let mut per_session: Vec<Vec<Step>> = vec![Vec::new(); CLIENTS * SESSIONS_PER_CLIENT];
    for log in &traced_logs {
        for (op, summary) in &log.steps {
            per_session[op.session].push(Step {
                op: *op,
                summary: summary.clone(),
                sample: None,
            });
        }
    }
    for (c, log) in logs.iter().enumerate() {
        for (i, (op, summary)) in log.steps.iter().enumerate() {
            per_session[op.session].push(Step {
                op: *op,
                summary: summary.clone(),
                sample: Some((c, i)),
            });
        }
    }
    let checks = std::thread::scope(|s| {
        let handles: Vec<_> = per_session
            .chunks(SESSIONS_PER_CLIENT)
            .enumerate()
            .map(|(c, chunk)| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, steps)| check_session(cfg, c * SESSIONS_PER_CLIENT + j, steps))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect::<Vec<_>>()
    });
    for check in checks {
        for ((c, i), killed_gold) in check.killed_gold {
            logs[c].samples[i].killed_gold = killed_gold;
        }
        m.problems.extend(check.problems);
    }
    m.extra_attempted += (CLIENTS * SESSIONS_PER_CLIENT) as u64;
    for log in &mut logs {
        m.samples.append(&mut log.samples);
    }
    if cfg.trace {
        traced(cfg, &per_session, traced_logs, &mut m);
    }
    m
}

struct Check {
    /// `(client, step)` of each timed step and the gold matches killed
    /// after it.
    killed_gold: Vec<((usize, usize), usize)>,
    problems: Vec<String>,
}

/// Local replay of one session's op log on freshly generated tables,
/// ending in a cold run that must match the last rerun.
fn check_session(cfg: &RunConfig, s: usize, steps: &[Step]) -> Check {
    let z = sizes(cfg);
    let ds = DatasetProfile::AmazonGoogle.generate_scaled(dataset_seed(s), z.scale);
    let mut killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    let (mut a, b) = (ds.a, ds.b);
    let mut out = Check {
        killed_gold: Vec::new(),
        problems: Vec::new(),
    };
    for step in steps {
        apply(&mut a, &b, &mut killed, step.op);
        if let Some(at) = step.sample {
            out.killed_gold.push((at, ds.gold.killed(&killed)));
        }
    }
    let Some(last) = steps.last().and_then(|step| step.summary.clone()) else {
        out.problems
            .push(format!("session {s}: no successful rerun to check"));
        return out;
    };
    let cold = MatchCatcher::new(reference_params(cfg)).run(
        &a,
        &b,
        &killed,
        &mut GoldOracle::exact(&ds.gold),
    );
    if report_summary(&cold).to_json_string() != last {
        out.problems.push(format!(
            "session {s}: last rerun differs from a cold run on its patched tables"
        ));
    }
    out
}

/// Applies one op's edit as the daemon materializes it.
fn apply(a: &mut Table, b: &Table, killed: &mut PairSet, op: Op) {
    match op.class {
        Class::Write => {
            let spec = DeltaSpec::fraction_of(a.len(), DELTA_FRAC);
            let delta = random_delta(a, spec, &mut StdRng::seed_from_u64(op.seed ^ DELTA_A_SALT));
            delta.apply(a).expect("scripted deltas validate");
        }
        Class::Read => {
            *killed = perturb_killed(
                killed,
                a.len() as u32,
                b.len() as u32,
                UNKILL_RATE,
                KILLS,
                &mut StdRng::seed_from_u64(op.seed),
            );
        }
    }
}

/// The parameters a served session runs with (`open` overrides applied
/// over `DebuggerParams::small()`, normalized for sessions).
fn reference_params(cfg: &RunConfig) -> DebuggerParams {
    let z = sizes(cfg);
    let mut p = DebuggerParams::small();
    p.joint.k = z.k;
    p.verifier.n_per_iter = z.n_per_iter;
    p.joint.q = QStrategy::Fixed(1);
    p.joint.reuse_overlaps = false;
    p.joint.reuse_topk = false;
    p
}

/// Per-verb execution time, allocations and the rerun's layer split
/// from replaying every traced-phase request through a local
/// `SessionManager`, folded into one traced op per step.
fn traced(cfg: &RunConfig, per_session: &[Vec<Step>], logs: Vec<ClientLog>, m: &mut Measured) {
    alloc::set_counting(true);
    let manager = SessionManager::new(64, 512 << 20, None);
    let execute = |req: &JsonValue| -> JsonValue {
        let parsed = parse_request(req).expect("the benchmark's requests parse");
        manager.execute(&parsed)
    };
    // Open each session afresh, then replay and measure its traced steps
    // (they precede the untraced ones) in order.
    let mut measured: Vec<std::collections::VecDeque<Replayed>> = Vec::new();
    for (s, steps) in per_session.iter().enumerate() {
        let resp = execute(&open_request(cfg, s));
        let id = resp.get("session").and_then(JsonValue::as_u64).unwrap_or(0);
        let mut prev = session_metrics(&execute, id);
        let mut out = std::collections::VecDeque::new();
        for step in steps.iter().take_while(|step| step.sample.is_none()) {
            let reqs = step_requests(id, step.op);
            let mut r = Replayed::default();
            for (v, req) in reqs.iter().enumerate() {
                let before = alloc::count();
                let (resp, ms) = timed(|| execute(req));
                r.execute_ms[v] = ms;
                r.allocs[v] = alloc::count() - before;
                if v == 0 {
                    let report = resp.get("report").map(JsonValue::to_json_string);
                    if report != step.summary {
                        m.problems.push(format!(
                            "session {s}: SessionManager::execute replay differs from the daemon"
                        ));
                    }
                    r.iterations = resp
                        .get("report")
                        .and_then(|x| x.get("iterations"))
                        .and_then(JsonValue::as_array)
                        .map_or(0, |a| a.len());
                    r.e_size = resp
                        .get("report")
                        .and_then(|x| x.get("e_size"))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0) as usize;
                }
            }
            let now = session_metrics(&execute, id);
            r.metrics = now.since(&prev);
            prev = now;
            out.push_back(r);
        }
        measured.push(out);
    }

    // Fold each traced step's client-side spans and its replay into one
    // op, in each session's order.
    let mut spans: Vec<Span> = Vec::new();
    for log in logs {
        let offset = spans.len();
        let mut tr = Tracer::new(Instant::now(), 0);
        tr.spans = log.spans;
        for (step, ts) in log.traced.iter().enumerate() {
            let op = log.steps[step].0;
            let Some(r) = measured[op.session].pop_front() else {
                continue;
            };
            let mm = &r.metrics;
            let us = |span: &str| mm.span(span).total_us as f64;
            if let Some(idx) = tr
                .spans
                .iter()
                .position(|s| s.op == ts.id && s.name == "rtt rerun")
            {
                derive_rerun_layers(&mut tr, idx, mm);
                let incr = us("mc.core.incr.rerun")
                    - us("mc.core.incr.promising")
                    - us("mc.core.debug.verify")
                    - us("mc.core.debug.explain");
                tr.derive(idx, "incr", "mc.core.incr.rerun (self)", incr);
            }
            let mut t = tr.summarize(ts.id, ts.class, ts.wall_us);
            // Client-side spans carry no allocation counts; use the
            // replay's, split between the rerun and the read-back verbs.
            t.values.retain(|k, _| !k.ends_with(".allocs"));
            t.add("incr.allocs", r.allocs[0] as f64);
            t.add("serve.allocs", r.allocs[1..].iter().sum::<u64>() as f64);
            t.add("serve.requests", 3.0);
            let mut overhead = 0.0;
            for (v, verb) in STEP_VERBS.iter().enumerate() {
                t.add(&format!("serve.rtt_ms.{verb}"), ts.rtts[v]);
                t.add(&format!("serve.execute_ms.{verb}"), r.execute_ms[v]);
                overhead += ts.rtts[v] - r.execute_ms[v];
            }
            t.add("serve.overhead_ms", overhead);
            t.add("serve.refused", ts.refusals as f64);
            t.add("serve.protocol_errors", ts.errors as f64);
            add_counts(&mut t, mm, r.iterations, r.e_size);
            add_rerun_values(&mut t, mm, us("mc.core.incr.rerun") / 1e3);
            if ts.errors + ts.refusals > 0 {
                t.add("bench.failed", 1.0);
            }
            m.traced.push(t);
        }
        for mut s in tr.spans {
            s.parent = s.parent.map(|p| p + offset);
            spans.push(s);
        }
    }
    alloc::set_counting(false);
    m.extra_attempted += m.traced.len() as u64;
    m.extra_failed += m
        .traced
        .iter()
        .filter(|t| t.values.contains_key("bench.failed"))
        .count() as u64;
    m.spans = spans;
}

#[derive(Default)]
struct Replayed {
    execute_ms: [f64; 4],
    allocs: [u64; 4],
    metrics: MetricsSnapshot,
    iterations: usize,
    e_size: usize,
}

/// The session's cumulative metrics, through the `metrics` verb.
fn session_metrics(execute: &dyn Fn(&JsonValue) -> JsonValue, id: u64) -> MetricsSnapshot {
    let resp = execute(&obj(vec![
        ("verb", "metrics".into()),
        ("session", id.into()),
    ]));
    resp.get("metrics")
        .map(JsonValue::to_json_string)
        .and_then(|text| MetricsSnapshot::from_json(&text).ok())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::op_seed;
    use mc_obs::JsonValue;

    /// Script seeds survive the JSON double a request carries them in,
    /// whatever the run seed.
    #[test]
    fn op_seeds_reach_the_daemon_exactly() {
        for run_seed in [0, 7, 1_609_679_215, u64::MAX] {
            for (client, step) in [(0, 0), (1, 5), (1, (1 << 20) + 999)] {
                let seed = op_seed(run_seed, client, step);
                assert_eq!(JsonValue::from(seed).as_u64(), Some(seed));
            }
        }
        assert_ne!(op_seed(1, 0, 0), op_seed(2, 0, 0));
    }
}
