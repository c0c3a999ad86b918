//! Two racing `DebugSession`s sharing one artifact store directory —
//! the contention pattern `mc-serve` creates the moment two clients
//! open the same dataset.
//!
//! Contracts:
//!
//! * both sessions produce **byte-identical** result-bearing reports
//!   while both publish their candidate unions to the shared store
//!   (the same bytes under the same keys, so first-to-publish wins is
//!   invisible in results);
//! * each session's `ObsContext` snapshot counts only its **own**
//!   incremental work — `mc.core.incr.*` metrics must not bleed across
//!   concurrently attached sessions on different threads.

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use matchcatcher::verify::IterationRecord;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::ObsContext;
use mc_store::StoreConfig;
use mc_table::{AttrId, TupleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Barrier;

fn temp_store_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-racing-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type ReportSummary = (
    Vec<(TupleId, TupleId)>,
    usize,
    usize,
    usize,
    Vec<IterationRecord>,
    Vec<(String, usize)>,
);

fn summarize(r: &DebugReport) -> ReportSummary {
    (
        r.confirmed_matches.clone(),
        r.e_size,
        r.q_used,
        r.labeled,
        r.iterations.clone(),
        r.problems.clone(),
    )
}

#[test]
fn racing_sessions_share_a_store_without_bleeding() {
    let dir = temp_store_dir();
    let barrier = Barrier::new(2);

    // Each thread: cold-open a session over the shared store, then run a
    // distinct number of delta reruns (1 vs 2) inside its own obs scope.
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let dir = dir.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let ds = DatasetProfile::FodorsZagats.generate_scaled(7, 0.3);
                    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
                    let mut params = DebuggerParams::small();
                    params.joint.q = QStrategy::Fixed(1);
                    params.store = Some(StoreConfig::at(&dir));
                    let ctx = ObsContext::session();
                    params.obs = ctx.clone();
                    let mc = MatchCatcher::new(params);
                    let mut oracle = GoldOracle::exact(&ds.gold);
                    // Race the opens and reruns: both publish unions to
                    // the shared store concurrently.
                    barrier.wait();
                    let (mut session, start) = mc.start_session(ds.a, ds.b, killed, &mut oracle);
                    let reruns = t as usize + 1;
                    let mut rng = StdRng::seed_from_u64(99); // same deltas on both threads
                    let mut last = summarize(&start);
                    for _ in 0..reruns {
                        let da = random_delta(
                            session.table_a(),
                            DeltaSpec::fraction_of(session.table_a().len(), 0.03),
                            &mut rng,
                        );
                        let db = random_delta(
                            session.table_b(),
                            DeltaSpec::fraction_of(session.table_b().len(), 0.03),
                            &mut rng,
                        );
                        let report = session
                            .rerun(&da, &db, None, &mut oracle)
                            .expect("valid delta");
                        last = summarize(&report);
                    }
                    let snap = ctx.snapshot();
                    (summarize(&start), last, reruns, snap)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    // Identical fixture + identical deltas → byte-identical reports,
    // regardless of who won the store publish race.
    let (start_a, _, _, snap_a) = &results[0];
    let (start_b, _, _, snap_b) = &results[1];
    assert_eq!(start_a, start_b, "cold/warm opens must agree");

    // Metrics non-bleed: each scope counted exactly its own reruns.
    for (i, (_, _, reruns, snap)) in results.iter().enumerate() {
        assert_eq!(
            snap.counter("mc.core.incr.reruns"),
            *reruns as u64,
            "session {i} counted another session's reruns"
        );
    }
    // The two scopes saw different amounts of work — bleeding would have
    // equalized them.
    assert_ne!(
        snap_a.counter("mc.core.incr.reruns"),
        snap_b.counter("mc.core.incr.reruns")
    );

    // Store artifacts were produced under the race (publishes from at
    // least one session; hits whenever the loser warm-loaded).
    let published: u64 = results
        .iter()
        .map(|(_, _, _, s)| s.counter("mc.store.publishes"))
        .sum();
    assert!(published > 0, "someone must have published arenas");

    let _ = std::fs::remove_dir_all(&dir);
}
