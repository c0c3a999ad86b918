//! `zipf-session`: one incremental `DebugSession` on 30K×30K records.
//!
//! A **write** reruns with a 1% random delta on both tables; a **read**
//! reruns with only a perturbed killed set, like a blocker tweak. Traced
//! ops split each `DebugSession::rerun` call into layers using the spans
//! the program records in `DebugReport::metrics`.

use crate::trace::Tracer;
use crate::{
    add_report_counts, add_rerun_values, derive_rerun_layers, found_gold, timed, Class, Measured,
    OpSample, RunConfig, TimedOracle,
};
use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::{DebugSession, GoldOracle};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::ObsContext;
use mc_serve::proto::report_summary;
use mc_table::{AttrId, GoldMatches, PairSet, TableDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Share of rows each write edits, per table.
const DELTA_FRAC: f64 = 0.01;
/// Share of killed pairs each read un-kills; it kills as many fresh ones.
const PERTURB_FRAC: f64 = 0.01;

fn params(cfg: &RunConfig) -> DebuggerParams {
    let mut p = if cfg.tiny {
        // Pinned to one thread so work counters repeat exactly.
        let mut p = DebuggerParams::small();
        p.joint.threads = 1;
        p.verifier.forest.threads = 1;
        p
    } else {
        DebuggerParams::default()
    };
    p.joint.k = if cfg.tiny { 20 } else { 200 };
    p.joint.q = QStrategy::Fixed(1);
    p.obs = ObsContext::session();
    p
}

struct Live {
    session: DebugSession,
    gold: GoldMatches,
    rng: StdRng,
}

fn open(cfg: &RunConfig) -> Live {
    let scale = if cfg.tiny { 0.01 } else { 0.5 };
    let ds = DatasetProfile::ZipfScale.generate_scaled(crate::DATASET_SEED, scale);
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    let mc = MatchCatcher::new(params(cfg));
    let (session, _) = mc.start_session(ds.a, ds.b, killed, &mut GoldOracle::exact(&ds.gold));
    Live {
        session,
        gold: ds.gold,
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed_0002),
    }
}

/// The next op's inputs (untimed): table deltas for a write, a new
/// killed set for a read.
fn edit(live: &mut Live, class: Class) -> (TableDelta, TableDelta, Option<PairSet>) {
    let s = &live.session;
    match class {
        Class::Write => {
            let mut delta = |t: &mc_table::Table| {
                random_delta(
                    t,
                    DeltaSpec::fraction_of(t.len(), DELTA_FRAC),
                    &mut live.rng,
                )
            };
            let da = delta(s.table_a());
            let db = delta(s.table_b());
            (da, db, None)
        }
        Class::Read => {
            let kills = ((s.killed().len() as f64 * PERTURB_FRAC) as usize).max(1);
            let killed = perturb_killed(
                s.killed(),
                s.table_a().len() as u32,
                s.table_b().len() as u32,
                PERTURB_FRAC,
                kills,
                &mut live.rng,
            );
            (TableDelta::default(), TableDelta::default(), Some(killed))
        }
    }
}

pub(crate) fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let setups = if cfg.trace || cfg.tiny { 1 } else { 3 };
    let mut live = None;
    for _ in 0..setups {
        drop(live.take());
        let (l, ms) = timed(|| open(cfg));
        m.setups_s.push(ms / 1e3);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let mut last = None;
    let mut tr = Tracer::new(Instant::now(), 0);

    // A traced run alternates untraced and traced write/read pairs over
    // twice the phase, so both see the same session state (reruns get
    // dearer as deltas accumulate) and the same machine conditions.
    let (seconds, min_ops) = if cfg.trace {
        (2.0 * cfg.seconds, 8)
    } else {
        (cfg.seconds, 4)
    };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || i < min_ops {
        let class = Class::of_step(i);
        let traced = cfg.trace && (i / 2) % 2 == 1;
        let (da, db, killed) = edit(&mut live, class);
        let mut oracle = TimedOracle::new(&live.gold);
        crate::alloc::set_counting(traced);
        tr.begin_op();
        let t = Instant::now();
        let ((result, idx), peak) = crate::alloc::with_peak_rss(|| {
            if traced {
                tr.span_indexed("incr", "DebugSession::rerun", || {
                    live.session.rerun(&da, &db, killed, &mut oracle)
                })
            } else {
                (live.session.rerun(&da, &db, killed, &mut oracle), 0)
            }
        });
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        crate::alloc::set_counting(false);
        match result {
            Ok(r) if traced => {
                let mm = &r.metrics;
                derive_rerun_layers(&mut tr, idx, mm);
                let mut op = tr.end_op(class, wall_ms * 1e3);
                add_report_counts(&mut op, &r);
                // The program's `mc.core.incr.rerun` span closes after the
                // report's metrics are captured; time the call itself.
                add_rerun_values(&mut op, mm, tr.dur_us(idx) / 1e3);
                m.traced.push(op);
                m.extra_attempted += 1;
                last = Some(r);
            }
            Ok(r) => {
                m.samples.push(OpSample {
                    write: class == Class::Write,
                    wall_ms,
                    first_page_ms: oracle.first.map(|f| (f - t).as_secs_f64() * 1e3),
                    labels: r.labeled,
                    peak_mib: Some(peak),
                    found: found_gold(&r, &live.gold),
                    killed_gold: live.gold.killed(live.session.killed()),
                    failed: false,
                });
                last = Some(r);
            }
            Err(e) => {
                m.problems.push(format!("rerun {i} refused its delta: {e}"));
                m.samples.push(OpSample {
                    write: class == Class::Write,
                    failed: true,
                    ..OpSample::default()
                });
            }
        }
        i += 1;
    }
    m.phase_s = start.elapsed().as_secs_f64();
    m.spans = tr.spans;

    // The last rerun must equal a cold session on the patched tables.
    m.extra_attempted += 1;
    let s = &live.session;
    let mc = MatchCatcher::new(s.params().clone());
    let (_, cold) = mc.start_session(
        s.table_a().clone(),
        s.table_b().clone(),
        s.killed().clone(),
        &mut GoldOracle::exact(&live.gold),
    );
    let warm = last.map(|r| report_summary(&r).to_json_string());
    if warm.as_deref() != Some(report_summary(&cold).to_json_string().as_str()) {
        m.extra_failed += 1;
        m.problems.push(
            "final rerun report differs from a cold start_session on the patched tables".into(),
        );
    }
    m
}
