//! Acceptance tests for the `mc-obs` pipeline instrumentation: a
//! [`MetricsSnapshot`] captured around [`MatchCatcher::run`] on a datagen
//! profile must cover every layer — SSJ candidate/pruning counters,
//! joint-stage scheduling, per-stage spans, and per-iteration verifier
//! statistics.
//!
//! The registry is process-global and tests in this binary run in
//! parallel, so cross-run contamination can only *inflate* deltas; every
//! assertion is therefore `> 0` / `>=`, never an exact equality.

use matchcatcher::debugger::{DebuggerParams, MatchCatcher, Stage};
use matchcatcher::oracle::GoldOracle;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{MetricsSnapshot, ObsContext};
use mc_strsim::tokenize::Tokenizer;
use mc_strsim::SetMeasure;

#[test]
fn metrics_snapshot_covers_the_whole_pipeline() {
    let baseline = MetricsSnapshot::capture();
    let ds = DatasetProfile::FodorsZagats.generate(7);
    let name = ds.a.schema().expect_id("name");
    // A SIM blocker so the prefix-filter join counters fire too.
    let blocker = Blocker::Sim {
        attr: name,
        tokenizer: Tokenizer::Word,
        measure: SetMeasure::Jaccard,
        threshold: 0.6,
    };
    let c = blocker.apply(&ds.a, &ds.b);

    let mut params = DebuggerParams::small();
    params.joint.k = 100;
    params.joint.threads = 1;
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&ds.gold);
    let report = mc.run(&ds.a, &ds.b, &c, &mut oracle);
    assert!(report.e_size > 0, "debugger must retrieve candidates");

    // ── Prefix-filter threshold join (the SIM blocker) ──────────────────
    let outer = MetricsSnapshot::capture().since(&baseline);
    assert!(
        outer.counter("mc.strsim.join.candidates") > 0,
        "SSJ candidates generated"
    );
    assert!(
        outer.counter("mc.strsim.join.length_pruned")
            + outer.counter("mc.strsim.join.verify_pruned")
            > 0,
        "prefix-filter pruned pairs"
    );
    assert!(
        outer.counter("mc.strsim.dict.builds") > 0,
        "dictionary builds recorded"
    );

    // ── The debugger's own top-k SSJ ────────────────────────────────────
    let m = &report.metrics;
    assert!(
        m.counter("mc.core.ssj.events") > 0,
        "prefix-extension events"
    );
    assert!(
        m.counter("mc.core.ssj.candidates") > 0,
        "top-k SSJ candidates discovered"
    );
    assert!(m.counter("mc.core.ssj.scored") > 0, "pairs scored");
    assert!(
        m.counter("mc.core.ssj.bound_pruned") > 0,
        "bound-based pruning fired"
    );

    // ── Joint execution, one config per core (§4.2) ─────────────────────
    assert!(m.counter("mc.core.joint.configs_executed") > 0);

    // ── Per-stage span durations ────────────────────────────────────────
    for stage in [Stage::Prepare, Stage::TopK, Stage::Verify] {
        let stat = m.span(stage.span_name());
        assert!(stat.count >= 1, "{stage:?} span recorded");
        assert!(stat.total_us > 0, "{stage:?} span has nonzero duration");
    }
    assert!(
        m.span("mc.core.joint.run").count >= 1,
        "joint execution span"
    );
    assert!(
        m.span("mc.core.joint.config").count >= 1,
        "per-config spans"
    );

    // ── Per-iteration verifier statistics ───────────────────────────────
    assert!(m.counter("mc.core.verify.iterations") >= 1);
    assert!(
        m.counter("mc.core.verify.labeled") >= report.labeled as u64,
        "labeled counter covers this run's {} labels",
        report.labeled
    );
    let iteration_events = m.events_named("mc.core.verify.iteration");
    assert!(
        !iteration_events.is_empty(),
        "per-iteration events in the flight recorder"
    );
}

#[test]
fn every_stage_reports_a_nonzero_span() {
    // Smoke test for the `obs_report` example path: a small end-to-end
    // run must record a span for every pipeline stage and render a report
    // that mentions each of them.
    let ds = DatasetProfile::FodorsZagats.generate_scaled(13, 0.5);
    let city = ds.a.schema().expect_id("city");
    let c = Blocker::Hash(KeyFunc::Attr(city)).apply(&ds.a, &ds.b);
    let mc = MatchCatcher::new(DebuggerParams::small());
    let mut oracle = GoldOracle::exact(&ds.gold);
    let report = mc.run(&ds.a, &ds.b, &c, &mut oracle);

    for stage in Stage::ALL {
        assert!(
            report.metrics.span(stage.span_name()).count >= 1,
            "{stage:?} reported no span"
        );
    }
    let rendered = report.metrics.render();
    for stage in Stage::ALL {
        assert!(
            rendered.contains(stage.span_name()),
            "render omits {stage:?}"
        );
    }
    let json = report.metrics.to_json();
    assert!(json.contains("\"schema\": \"mc-obs/v2\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // The v2 schema is self-describing: it must read back losslessly.
    let back = mc_obs::MetricsSnapshot::from_json(&json).unwrap();
    for stage in Stage::ALL {
        assert_eq!(
            back.span(stage.span_name()),
            report.metrics.span(stage.span_name()),
            "{stage:?} must survive the JSON round-trip"
        );
    }
}

/// The acceptance test for the session-scoped observability plane: two
/// concurrent [`MatchCatcher::run`] calls with distinct session
/// [`ObsContext`]s must produce *exactly* attributed snapshots — every
/// assertion here is an equality, which was impossible when the registry
/// was process-global — while the merged global view accounts for both.
#[test]
fn concurrent_sessions_do_not_bleed() {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(21, 0.5);
    let city = ds.a.schema().expect_id("city");
    let c = Blocker::Hash(KeyFunc::Attr(city)).apply(&ds.a, &ds.b);
    let global_before = MetricsSnapshot::capture_from(ObsContext::global());

    let run_one = || {
        let mut params = DebuggerParams::small();
        params.obs = ObsContext::session();
        let obs = params.obs.clone();
        let mc = MatchCatcher::new(params);
        let mut oracle = GoldOracle::exact(&ds.gold);
        (mc.run(&ds.a, &ds.b, &c, &mut oracle), obs)
    };
    let ((r1, obs1), (r2, obs2)) = std::thread::scope(|s| {
        let h1 = s.spawn(run_one);
        let h2 = s.spawn(run_one);
        (h1.join().unwrap(), h2.join().unwrap())
    });

    for (r, obs) in [(&r1, &obs1), (&r2, &obs2)] {
        let m = &r.metrics;
        // One pipeline per session: stage spans appear exactly once.
        for stage in Stage::ALL {
            assert_eq!(m.span(stage.span_name()).count, 1, "{stage:?}");
        }
        // Work counters match this run's own report exactly.
        assert_eq!(
            m.counter("mc.core.joint.configs_executed"),
            r.configs.len() as u64
        );
        assert_eq!(m.counter("mc.core.verify.labeled"), r.labeled as u64);
        assert_eq!(
            m.counter("mc.core.verify.iterations"),
            r.iteration_count() as u64
        );
        // Flight-recorder attribution: the session recorder holds this
        // run's per-iteration events, nothing more.
        assert_eq!(
            m.events_named("mc.core.verify.iteration").len(),
            r.iteration_count()
        );
        // The session context's live registry agrees with the delta (the
        // baseline was empty — nothing ran in this context before).
        assert_eq!(
            obs.registry()
                .counter("mc.core.joint.configs_executed")
                .get(),
            r.configs.len() as u64
        );
    }

    // The merged process-global view accounts for both sessions (>= in
    // case other tests in this binary ran concurrently).
    let g = MetricsSnapshot::capture_from(ObsContext::global()).since(&global_before);
    assert!(
        g.counter("mc.core.joint.configs_executed") >= (r1.configs.len() + r2.configs.len()) as u64
    );
    assert!(g.counter("mc.core.verify.labeled") >= (r1.labeled + r2.labeled) as u64);
    assert!(g.span(Stage::TopK.span_name()).count >= 2);
}
