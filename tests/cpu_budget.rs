//! The CPU budget (`mc_obs::par`) changes timing only. A
//! `MatchCatcher::run` and a `DebugSession::rerun` made while other
//! threads hold every slot run each fan-out inline, and their reports
//! and work counters equal those of the same calls made with free slots.
//! A session whose reruns alternate between held and free slots, so
//! that its pooled join scratches move between the caller and helpers,
//! stays equal to a session whose every rerun had free slots.
//!
//! This file holds a single test: the budget is process-wide, so no
//! other test may hold or free slots while it runs.

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use matchcatcher::DebugReport;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{par, ObsContext};
use mc_serve::proto::report_summary;
use mc_table::{AttrId, TableDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{mpsc, Barrier, Mutex};

/// Runs `f` while one parked thread per core holds a slot.
fn with_every_slot_held<R>(f: impl FnOnce() -> R) -> R {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let held = Barrier::new(par::cores() + 1);
    std::thread::scope(|s| {
        for _ in 0..par::cores() {
            s.spawn(|| {
                let _slot = par::hold();
                held.wait();
                let _ = release_rx.lock().unwrap().recv();
            });
        }
        held.wait();
        assert!(par::in_use() >= par::cores());
        let out = f();
        drop(release_tx);
        out
    })
}

fn params() -> DebuggerParams {
    let mut p = DebuggerParams::small();
    p.joint.q = QStrategy::Fixed(1);
    p.obs = ObsContext::session();
    p
}

/// Every counter but the budget's own: the work the call did.
fn work_counters(report: &DebugReport) -> Vec<(String, u64)> {
    report
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| !name.starts_with("mc.obs.par."))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

/// `other` equals `free` in summary and work.
fn assert_same_report(what: &str, free: &DebugReport, other: &DebugReport) {
    assert_eq!(
        report_summary(other).to_json_string(),
        report_summary(free).to_json_string(),
        "{what}: report differs"
    );
    assert_eq!(
        work_counters(other),
        work_counters(free),
        "{what}: work counters differ"
    );
}

/// `held` equals `free` in summary and work, and ran every fan-out
/// inline.
fn assert_same_work(what: &str, free: &DebugReport, held: &DebugReport) {
    assert_same_report(&format!("{what} with every slot held"), free, held);
    assert!(held.metrics.counter("mc.obs.par.fanouts") > 0, "{what}");
    assert_eq!(held.metrics.counter("mc.obs.par.helpers"), 0, "{what}");
    if par::cores() > 1 {
        assert!(
            free.metrics.counter("mc.obs.par.helpers") > 0,
            "{what}: a lone call with free slots starts helpers"
        );
    }
}

#[test]
fn calls_made_while_every_slot_is_held_equal_calls_with_free_slots() {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(11, 0.35);
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    let run =
        || MatchCatcher::new(params()).run(&ds.a, &ds.b, &killed, &mut GoldOracle::exact(&ds.gold));
    let free = run();
    let held = with_every_slot_held(run);
    assert_same_work("run", &free, &held);

    let start = || {
        MatchCatcher::new(params())
            .start_session(
                ds.a.clone(),
                ds.b.clone(),
                killed.clone(),
                &mut GoldOracle::exact(&ds.gold),
            )
            .0
    };
    let (mut free_session, mut held_session) = (start(), start());
    let delta = random_delta(
        &ds.a,
        DeltaSpec::fraction_of(ds.a.len(), 0.04),
        &mut StdRng::seed_from_u64(0xb0d9e7),
    );
    let rerun = |session: &mut matchcatcher::DebugSession| {
        session
            .rerun(
                &delta,
                &TableDelta::new(),
                None,
                &mut GoldOracle::exact(&ds.gold),
            )
            .expect("valid delta")
    };
    let free = rerun(&mut free_session);
    let held = with_every_slot_held(|| rerun(&mut held_session));
    assert_same_work("rerun", &free, &held);

    // Consecutive reruns, each with deltas on both tables and a
    // killed-set diff, alternate free and held slots on the second
    // session: its pooled join scratches move between helpers and the
    // caller from one rerun to the next.
    let mut rng = StdRng::seed_from_u64(0x5e55);
    for round in 0..6 {
        let s = &free_session;
        let delta_a = random_delta(
            s.table_a(),
            DeltaSpec::fraction_of(s.table_a().len(), 0.03),
            &mut rng,
        );
        let delta_b = random_delta(
            s.table_b(),
            DeltaSpec::fraction_of(s.table_b().len(), 0.03),
            &mut rng,
        );
        let nk = perturb_killed(
            s.killed(),
            (s.table_a().len() + delta_a.inserts.len()) as u32,
            (s.table_b().len() + delta_b.inserts.len()) as u32,
            0.05,
            8,
            &mut rng,
        );
        let rerun = |session: &mut matchcatcher::DebugSession| {
            session
                .rerun(
                    &delta_a,
                    &delta_b,
                    Some(nk.clone()),
                    &mut GoldOracle::exact(&ds.gold),
                )
                .expect("valid delta")
        };
        let free = rerun(&mut free_session);
        let what = format!("rerun {round}");
        assert_eq!(
            free.metrics.counter("mc.core.incr.full_rebuilds"),
            0,
            "{what}: the deltas must keep the config tree, or no list is maintained"
        );
        if round % 2 == 0 {
            assert_same_report(&what, &free, &rerun(&mut held_session));
        } else {
            let held = with_every_slot_held(|| rerun(&mut held_session));
            assert_same_work(&what, &free, &held);
        }
    }
    assert_eq!(par::in_use(), 0, "every slot came back");
}
