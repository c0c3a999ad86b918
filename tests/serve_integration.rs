//! End-to-end acceptance tests for the `mc-serve` daemon.
//!
//! A real daemon is spawned on an ephemeral port and spoken to over TCP
//! with the frame codec — the same path `mcd` serves. The core
//! contract: a warm session `rerun` response must be **byte-identical**
//! (as serialized JSON) to the summary of a cold `MatchCatcher::run` on
//! the patched tables, and concurrent sessions must not bleed into each
//! other's metrics or reports.

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::JsonValue;
use mc_serve::frame::{read_frame, write_frame, FrameError};
use mc_serve::proto::report_summary;
use mc_serve::{Client, Daemon, ServeParams};
use mc_table::{AttrId, GoldMatches, PairSet, Table, TableDelta, Tuple};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mc-serve-test-{}-{}-{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 11;
const SCALE: f64 = 0.35;

fn fixture() -> (Table, Table, PairSet, GoldMatches) {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(SEED, SCALE);
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    (ds.a, ds.b, killed, ds.gold)
}

/// The parameters an `open {profile, q: 1}` request resolves to, minus
/// serve-side obs/store wiring: what a cold reference run must use for
/// byte-identity.
fn reference_params() -> DebuggerParams {
    let mut p = DebuggerParams::small();
    p.joint.q = QStrategy::Fixed(1);
    p
}

fn connect(daemon: &Daemon) -> Client {
    Client::connect(daemon.addr(), Duration::from_secs(60)).expect("connect")
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn open_profile_request() -> JsonValue {
    obj(vec![
        ("verb", "open".into()),
        ("profile", "fodors-zagats".into()),
        ("scale", JsonValue::Num(SCALE)),
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

#[test]
fn warm_rerun_is_byte_identical_to_cold_run_on_patched_tables() {
    let daemon = Daemon::spawn(ServeParams {
        store_root: Some(temp_dir("identity")),
        ..ServeParams::default()
    })
    .expect("spawn");
    let mut client = connect(&daemon);

    // Open: response must equal a cold run on the unpatched fixture.
    let resp = client.call_ok(&open_profile_request()).expect("open");
    let session = resp.get("session").unwrap().as_u64().expect("session id");
    let (a, b, killed, gold) = fixture();
    let mc = MatchCatcher::new(reference_params());
    let cold_open = mc.run(&a, &b, &killed, &mut GoldOracle::exact(&gold));
    assert_eq!(
        resp.get("report").unwrap().to_json_string(),
        report_summary(&cold_open).to_json_string(),
        "open report differs from the cold reference run"
    );
    assert!(resp.get("resident_bytes").unwrap().as_u64().unwrap() > 0);

    // Three rounds of explicit deltas: each warm rerun must match a cold
    // run on the locally patched tables, byte for byte.
    let (mut a, mut b) = (a, b);
    let mut rng = StdRng::seed_from_u64(0xd0_0d);
    for round in 0..3 {
        let da = random_delta(&a, DeltaSpec::fraction_of(a.len(), 0.04), &mut rng);
        let db = random_delta(&b, DeltaSpec::fraction_of(b.len(), 0.04), &mut rng);
        let width = a.schema().len();
        let req = obj(vec![
            ("verb", "rerun".into()),
            ("session", session.into()),
            ("delta_a", delta_json(&da, width)),
            ("delta_b", delta_json(&db, width)),
        ]);
        let resp = client
            .call_ok(&req)
            .unwrap_or_else(|e| panic!("rerun {round}: {e:?}"));
        da.apply(&mut a).expect("delta A applies");
        db.apply(&mut b).expect("delta B applies");
        let cold = mc.run(&a, &b, &killed, &mut GoldOracle::exact(&gold));
        assert_eq!(
            resp.get("report").unwrap().to_json_string(),
            report_summary(&cold).to_json_string(),
            "round {round}: warm rerun differs from the cold reference"
        );
    }

    // Page through the explanations of the last report.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "page".into()),
            ("session", session.into()),
            ("offset", 0u64.into()),
            ("limit", 5u64.into()),
        ]))
        .expect("page");
    let total = resp.get("total").unwrap().as_u64().unwrap();
    let items = resp.get("items").unwrap().as_array().unwrap();
    assert_eq!(items.len() as u64, total.min(5));
    if let Some(first) = items.first() {
        let attrs = first.get("attrs").unwrap().as_array().unwrap();
        assert_eq!(attrs.len(), a.schema().len());
        assert!(attrs[0].get("diagnosis").unwrap().as_str().is_some());
    }

    // Metrics are the session's own scope and include incremental work.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "metrics".into()),
            ("session", session.into()),
        ]))
        .expect("metrics");
    let counters = resp.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        counters
            .get("mc.core.incr.reruns")
            .and_then(JsonValue::as_u64),
        Some(3),
        "session metrics must count exactly this session's reruns"
    );

    client
        .call_ok(&obj(vec![
            ("verb", "close".into()),
            ("session", session.into()),
        ]))
        .expect("close");

    let handle = daemon.handle();
    assert_eq!(handle.resident_sessions(), 0);
    client.shutdown().expect("shutdown frame");
    let (requests, protocol_errors) = daemon.shutdown();
    assert!(requests >= 6, "served {requests} requests");
    assert_eq!(
        protocol_errors, 0,
        "clean scripts must not trip protocol errors"
    );
}

#[test]
fn rerun_round_trip_splits_into_queue_wait_service_and_encode() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut client = connect(&daemon);
    let resp = client.call_ok(&open_profile_request()).expect("open");
    let session = resp.get("session").unwrap().as_u64().expect("session id");

    let start = std::time::Instant::now();
    client
        .call_ok(&obj(vec![
            ("verb", "rerun".into()),
            ("session", session.into()),
        ]))
        .expect("rerun");
    let rtt_us = start.elapsed().as_micros() as u64;
    // One connection is served in request order, so once this reply
    // arrives the rerun's reply frame has been written and timed.
    client
        .call_ok(&obj(vec![
            ("verb", "page".into()),
            ("session", session.into()),
        ]))
        .expect("page");

    let snap = daemon.handle().metrics();
    let parts = ["queue_wait_us", "service_us", "encode_us"].map(|part| {
        let h = snap.histogram(&format!("mc.serve.rerun.{part}"));
        assert_eq!(h.count, 1, "one rerun fills mc.serve.rerun.{part} once");
        h.sum
    });
    assert!(parts[1] > 0, "a rerun runs the pipeline: {parts:?}");
    assert!(
        parts.iter().sum::<u64>() <= rtt_us,
        "split {parts:?} exceeds the client's {rtt_us} us round trip"
    );
    assert_eq!(snap.histogram("mc.serve.open.service_us").count, 1);
    client.shutdown().expect("shutdown frame");
    daemon.shutdown();
}

#[test]
fn concurrent_sessions_do_not_bleed() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let addr = daemon.addr();

    // Each thread runs its own session script with a distinct number of
    // reruns; session metrics must report exactly that many.
    let reports: Vec<(u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(120)).expect("connect");
                    let resp = client.call_ok(&open_profile_request()).expect("open");
                    let session = resp.get("session").unwrap().as_u64().unwrap();
                    let reruns = t + 1;
                    let mut last = resp.get("report").unwrap().to_json_string();
                    for i in 0..reruns {
                        let resp = client
                            .call_ok(&obj(vec![
                                ("verb", "rerun".into()),
                                ("session", session.into()),
                                (
                                    "delta_a",
                                    obj(vec![(
                                        "spec",
                                        obj(vec![
                                            ("frac", JsonValue::Num(0.03)),
                                            ("seed", (t * 100 + i).into()),
                                        ]),
                                    )]),
                                ),
                            ]))
                            .expect("rerun");
                        last = resp.get("report").unwrap().to_json_string();
                    }
                    let resp = client
                        .call_ok(&obj(vec![
                            ("verb", "metrics".into()),
                            ("session", session.into()),
                        ]))
                        .expect("metrics");
                    let counted = resp
                        .get("metrics")
                        .unwrap()
                        .get("counters")
                        .unwrap()
                        .get("mc.core.incr.reruns")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0);
                    assert_eq!(
                        counted, reruns,
                        "session {session} metrics bled in another session's reruns"
                    );
                    (session, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    // Distinct sessions, and every script got a real report.
    let mut ids: Vec<u64> = reports.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "session ids must be unique");
    for (_, report) in &reports {
        assert!(report.contains("\"e_size\""));
    }

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 0);
}

#[test]
fn error_codes_are_precise() {
    let daemon = Daemon::spawn(ServeParams {
        max_sessions: 1,
        ..ServeParams::default()
    })
    .expect("spawn");
    let mut client = connect(&daemon);

    // Unknown session: never issued.
    let err = client
        .call_ok(&obj(vec![
            ("verb", "metrics".into()),
            ("session", 999u64.into()),
        ]))
        .expect_err("unknown session must fail");
    assert_eq!(err.0, "unknown_session");

    // Unknown verb and malformed requests are protocol errors but keep
    // the connection usable.
    let resp = client
        .call(&obj(vec![("verb", "frobnicate".into())]))
        .expect("transport survives");
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("code").unwrap().as_str(),
        Some("bad_request")
    );

    // Validation: a zero-row inline table is rejected up front.
    let err = client
        .call_ok(&obj(vec![
            ("verb", "open".into()),
            (
                "tables",
                obj(vec![
                    ("schema", JsonValue::Arr(vec!["name".into()])),
                    ("a", JsonValue::Arr(vec![])),
                    ("b", JsonValue::Arr(vec![])),
                ]),
            ),
            ("killed", JsonValue::Arr(vec![])),
        ]))
        .expect_err("empty tables must fail");
    assert_eq!(err.0, "bad_request");

    // Eviction: with max_sessions = 1, a second open evicts the first,
    // and the first's id reports `session_evicted` (not unknown).
    let first = client.call_ok(&open_profile_request()).expect("open 1");
    let first_id = first.get("session").unwrap().as_u64().unwrap();
    client.call_ok(&open_profile_request()).expect("open 2");
    let err = client
        .call_ok(&obj(vec![
            ("verb", "metrics".into()),
            ("session", first_id.into()),
        ]))
        .expect_err("evicted session must fail");
    assert_eq!(err.0, "session_evicted");

    let handle = daemon.handle();
    assert_eq!(handle.resident_sessions(), 1);
    // Only the unparseable verb counts as a protocol error; the empty
    // tables parsed fine and failed session validation instead.
    assert_eq!(handle.protocol_errors(), 1);
    drop(daemon);
}

#[test]
fn gc_verb_requires_a_store_and_collects_the_warm_tier() {
    // Without a store root, gc is a precise bad_request, not a panic.
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut client = connect(&daemon);
    let err = client
        .call_ok(&obj(vec![
            ("verb", "gc".into()),
            ("max_bytes", 0u64.into()),
        ]))
        .expect_err("gc without a store must fail");
    assert_eq!(err.0, "bad_request");
    drop(daemon);

    // With a store root: opening a session persists warm artifacts;
    // gc(0) then sweeps every unpinned byte and reports what it removed.
    let root = temp_dir("gc");
    let daemon = Daemon::spawn(ServeParams {
        store_root: Some(root.clone()),
        ..ServeParams::default()
    })
    .expect("spawn");
    let mut client = connect(&daemon);
    let resp = client.call_ok(&open_profile_request()).expect("open");
    let session = resp.get("session").unwrap().as_u64().unwrap();
    client
        .call_ok(&obj(vec![
            ("verb", "close".into()),
            ("session", session.into()),
        ]))
        .expect("close");
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "gc".into()),
            ("max_bytes", 0u64.into()),
        ]))
        .expect("gc with a store");
    let removed_files = resp.get("removed_files").unwrap().as_u64().unwrap();
    let removed_bytes = resp.get("removed_bytes").unwrap().as_u64().unwrap();
    assert!(removed_files > 0, "open must have persisted warm artifacts");
    assert!(removed_bytes > 0);
    assert_eq!(resp.get("kept_bytes").unwrap().as_u64(), Some(0));

    // Idempotent: a second sweep finds an already-empty tier.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "gc".into()),
            ("max_bytes", 0u64.into()),
        ]))
        .expect("second gc");
    assert_eq!(resp.get("removed_files").unwrap().as_u64(), Some(0));

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Blocks for the next reply frame on a raw connection.
fn read_reply(stream: &mut TcpStream) -> JsonValue {
    loop {
        match read_frame(stream, 64 << 20, 10_000) {
            Ok(v) => return v,
            Err(FrameError::Idle) => continue,
            Err(e) => panic!("recv: {e}"),
        }
    }
}

#[test]
fn deeply_nested_frame_is_a_bad_request() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");

    // 100 KB of `[`: far below the frame cap, and deep enough to
    // overflow the connection thread's stack under unbounded recursion.
    let body = "[".repeat(100_000);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    stream.write_all(&frame).expect("send nested frame");
    let resp = read_reply(&mut stream);
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(JsonValue::as_str),
        Some("bad_request")
    );

    // The connection stays usable for a normal request.
    write_frame(&mut stream, &open_profile_request()).expect("send open");
    let resp = read_reply(&mut stream);
    assert_eq!(resp.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert!(resp.get("session").and_then(JsonValue::as_u64).is_some());

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 1, "only the nested frame is malformed");
}

#[test]
fn hostile_thread_count_matches_one_thread() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut client = connect(&daemon);
    let open_with_threads = |client: &mut Client, threads: u64| {
        let mut req = open_profile_request();
        if let JsonValue::Obj(members) = &mut req {
            members.push(("threads".into(), threads.into()));
        }
        let resp = client.call_ok(&req).expect("open");
        resp.get("report").unwrap().to_json_string()
    };
    let one = open_with_threads(&mut client, 1);
    // 2^40 workers: the thread count may only size worker pools already
    // capped by config, attribute or pair counts — never an allocation.
    let hostile = open_with_threads(&mut client, 1 << 40);
    assert_eq!(one, hostile);

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 0);
}

#[test]
fn explain_with_the_largest_limit_pages_to_the_end() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut client = connect(&daemon);
    let resp = client.call_ok(&open_profile_request()).expect("open");
    let session = resp.get("session").unwrap().as_u64().expect("session id");
    let explain = |client: &mut Client, offset: u64, limit: u64| {
        client
            .call_ok(&obj(vec![
                ("verb", "explain".into()),
                ("session", session.into()),
                ("offset", offset.into()),
                ("limit", limit.into()),
            ]))
            .expect("explain")
    };
    let all = explain(&mut client, 0, 1 << 20);
    let total = all.get("total").unwrap().as_u64().unwrap();
    assert!(total >= 2, "the fixture explains {total} matches");
    // `offset + limit` overflows `usize` here: the page must still run
    // to the last item.
    let rest = explain(&mut client, 1, u64::MAX);
    let items = rest.get("items").unwrap().as_array().unwrap();
    assert_eq!(items.len() as u64, total - 1);
    let tail = &all.get("items").unwrap().as_array().unwrap()[1..];
    assert_eq!(
        JsonValue::Arr(items.to_vec()),
        JsonValue::Arr(tail.to_vec())
    );

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 0);
}

/// A `rerun` on a freshly opened fixture session: returns the error code
/// of `request` (built from the session id), or `"ok"`.
fn rerun_code(params: ServeParams, request: impl Fn(u64) -> JsonValue) -> String {
    let daemon = Daemon::spawn(params).expect("spawn");
    let mut client = connect(&daemon);
    let resp = client.call_ok(&open_profile_request()).expect("open");
    let session = resp.get("session").unwrap().as_u64().expect("session id");
    let code = match client.call_ok(&request(session)) {
        Ok(_) => "ok".to_string(),
        Err((code, _)) => code,
    };
    // The session survives a refused rerun.
    client
        .call_ok(&obj(vec![
            ("verb", "rerun".into()),
            ("session", session.into()),
        ]))
        .expect("a plain rerun after the refused one");
    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(
        protocol_errors, 0,
        "the requests parse; only their values are refused"
    );
    code
}

#[test]
fn scripted_delta_frac_outside_the_unit_interval_is_a_bad_request() {
    let scripted = |frac: f64| {
        move |session: u64| {
            obj(vec![
                ("verb", "rerun".into()),
                ("session", session.into()),
                (
                    "delta_b",
                    obj(vec![(
                        "spec",
                        obj(vec![("frac", JsonValue::Num(frac)), ("seed", 1u64.into())]),
                    )]),
                ),
            ])
        }
    };
    // 1e9 of a table's rows would ask for rows * 2.5e8 inserted tuples.
    for frac in [1e9, 1.5, -0.25] {
        assert_eq!(
            rerun_code(ServeParams::default(), scripted(frac)),
            "bad_request",
            "frac {frac}"
        );
    }
    assert_eq!(rerun_code(ServeParams::default(), scripted(0.02)), "ok");
}

#[test]
fn perturbed_kills_past_the_resident_budget_are_a_bad_request() {
    let perturb = |kills: u64| {
        move |session: u64| {
            obj(vec![
                ("verb", "rerun".into()),
                ("session", session.into()),
                (
                    "perturb_killed",
                    obj(vec![
                        ("unkill_rate", JsonValue::Num(0.1)),
                        ("kills", kills.into()),
                        ("seed", 3u64.into()),
                    ]),
                ),
            ])
        }
    };
    // 10^12 pair keys is 8 TB: sizing the set for them would abort the
    // daemon, not just fail the request.
    assert_eq!(
        rerun_code(ServeParams::default(), perturb(1_000_000_000_000)),
        "bad_request"
    );
    // The bound is the daemon's own budget: 1 MiB holds fewer than
    // 131,072 pair keys, the killed set included.
    let small = || ServeParams {
        max_resident_bytes: 1 << 20,
        ..ServeParams::default()
    };
    assert_eq!(rerun_code(small(), perturb(1 << 17)), "bad_request");
    assert_eq!(rerun_code(small(), perturb(100)), "ok");
}
