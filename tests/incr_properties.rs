//! Randomized exactness oracle for the incremental debugging path.
//!
//! The contract under test ([`matchcatcher::incr`]): after any sequence
//! of table deltas and killed-set diffs, `DebugSession::rerun` produces a
//! `DebugReport` **byte-identical** (metrics aside) to a cold
//! `start_session` on the patched tables with the same killed set and
//! parameters — for every similarity measure, for `q > 1`, and through
//! the full-rejoin fallback. The comparison covers every result-bearing
//! field: ranked candidates (via `e_size`), confirmed matches in
//! discovery order, per-iteration verifier records, label counts, and
//! the problem summary.

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use matchcatcher::verify::IterationRecord;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_strsim::measures::SetMeasure;
use mc_table::{
    split_pair_key, AttrId, GoldMatches, PairSet, RowEdit, Table, TableDelta, Tuple, TupleId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The result-bearing fields of a [`DebugReport`] — everything the user
/// sees, minus the metrics snapshot.
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

fn fixture(seed: u64) -> (Table, Table, PairSet, GoldMatches) {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(seed, 0.35);
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    (ds.a, ds.b, killed, ds.gold)
}

fn session_params(measure: SetMeasure, q: usize) -> DebuggerParams {
    let mut p = DebuggerParams::small();
    p.joint.measure = measure;
    p.joint.q = QStrategy::Fixed(q);
    p.incr.margin = 32;
    p
}

/// Runs `rounds` random deltas through one live session, checking each
/// report against a cold session on the patched state; returns the
/// reruns' reports.
fn check_incremental_exactness(
    params: DebuggerParams,
    seed: u64,
    rounds: usize,
) -> Vec<DebugReport> {
    let (a, b, killed, gold) = fixture(seed);
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, start) = mc.start_session(a, b, killed, &mut oracle);
    assert!(start.e_size > 0, "fixture produces candidates");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut reports = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let spec_a = DeltaSpec::fraction_of(session.table_a().len(), 0.03);
        let spec_b = DeltaSpec::fraction_of(session.table_b().len(), 0.03);
        let delta_a = random_delta(session.table_a(), spec_a, &mut rng);
        let delta_b = random_delta(session.table_b(), spec_b, &mut rng);
        let nk = perturb_killed(
            session.killed(),
            (session.table_a().len() + delta_a.inserts.len()) as u32,
            (session.table_b().len() + delta_b.inserts.len()) as u32,
            0.05,
            8,
            &mut rng,
        );
        let incr = session
            .rerun(&delta_a, &delta_b, Some(nk), &mut oracle)
            .expect("generated deltas are valid");

        let (_, cold) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            session.killed().clone(),
            &mut GoldOracle::exact(&gold),
        );
        assert_eq!(
            summarize(&cold),
            summarize(&incr),
            "incremental report diverged from cold run at round {round}"
        );
        reports.push(incr);
    }
    reports
}

#[test]
fn incremental_matches_cold_jaccard() {
    check_incremental_exactness(session_params(SetMeasure::Jaccard, 1), 3, 3);
}

#[test]
fn incremental_matches_cold_cosine() {
    check_incremental_exactness(session_params(SetMeasure::Cosine, 1), 4, 3);
}

#[test]
fn incremental_matches_cold_dice() {
    check_incremental_exactness(session_params(SetMeasure::Dice, 1), 5, 3);
}

#[test]
fn incremental_matches_cold_overlap() {
    check_incremental_exactness(session_params(SetMeasure::Overlap, 1), 6, 3);
}

#[test]
fn incremental_matches_cold_q2() {
    check_incremental_exactness(session_params(SetMeasure::Jaccard, 2), 8, 3);
}

/// The per-config maintenance jobs fan out at most `joint.threads`
/// wide. One worker and four give the same reports and the same
/// incremental work, rerun by rerun.
#[test]
fn incremental_matches_cold_at_one_and_four_threads() {
    let runs = [1, 4].map(|threads| {
        let mut params = session_params(SetMeasure::Jaccard, 1);
        params.joint.threads = threads;
        // Session-scoped metrics, so the counters compared below are
        // this session's alone.
        params.obs = mc_obs::ObsContext::session();
        check_incremental_exactness(params, 17, 3)
    });
    for (round, (one, four)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(summarize(one), summarize(four), "round {round}");
        for counter in [
            "mc.core.incr.pairs_rescored",
            "mc.core.incr.pairs_reused",
            "mc.core.incr.full_rejoins",
            "mc.core.incr.valid_extended",
        ] {
            assert_eq!(
                one.metrics.counter(counter),
                four.metrics.counter(counter),
                "round {round}: {counter} differs between 1 and 4 threads"
            );
        }
    }
}

/// A list that holds its config's whole candidate universe (its full
/// join returned fewer than `K` entries) is *complete*: every merged
/// entry is exact, so the config never rejoins, even when fewer than
/// `k` entries survive a rerun. At Cosine q 3 the fixture has configs
/// whose whole universe is smaller than `k`; every rerun must equal a
/// cold session without a single rejoin, and the `valid_min` gauge,
/// which counts only lists that can rejoin, must stay at `k` or above.
#[test]
fn complete_lists_never_rejoin() {
    let mut params = session_params(SetMeasure::Cosine, 3);
    params.obs = mc_obs::ObsContext::session();
    let k = params.joint.k;
    let (a, b, killed, _) = fixture(21);
    let short = listed_pairs(&MatchCatcher::new(params.clone()), &a, &b, &killed)
        .iter()
        .filter(|list| list.len() < k)
        .count();
    assert!(
        short > 0,
        "the fixture has a config with fewer than k candidates"
    );
    for (round, incr) in check_incremental_exactness(params, 21, 6)
        .iter()
        .enumerate()
    {
        assert_eq!(
            incr.metrics.counter("mc.core.incr.full_rebuilds"),
            0,
            "round {round}: the deltas must keep the config tree, or no list is maintained"
        );
        assert_eq!(
            incr.metrics.counter("mc.core.incr.full_rejoins"),
            0,
            "round {round}: a config rejoined"
        );
        assert!(
            incr.metrics.gauge("mc.core.incr.valid_min") >= k as i64,
            "round {round}: valid_min reports a rejoin that never comes"
        );
    }
}

/// With no margin, editing the row behind a reported candidate leaves
/// fewer than `k` survivors in every config that listed it, which forces
/// the full seeded rejoin; the rerun must still equal a cold session.
#[test]
fn full_rejoin_fallback_matches_cold() {
    let (a, b, killed, gold) = fixture(7);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    params.incr.margin = 0;
    // Session-scoped metrics: concurrent tests must not bleed into the
    // counters asserted below.
    params.obs = mc_obs::ObsContext::session();
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, start) = mc.start_session(a, b, killed, &mut oracle);
    let &(x, _) = start
        .confirmed_matches
        .first()
        .expect("fixture recovers matches");

    // A confirmed match is a union pair, so row `x` holds an entry of
    // some config's top-k list. Swapping it with its neighbour changes
    // both rows but keeps every column's value multiset, so the table
    // statistics — and with them the config tree — stay as they were.
    let y = (x + 1) % session.table_a().len() as TupleId;
    let delta_a = TableDelta {
        updates: vec![
            RowEdit {
                id: x,
                tuple: session.table_a().tuple(y).clone(),
            },
            RowEdit {
                id: y,
                tuple: session.table_a().tuple(x).clone(),
            },
        ],
        deletes: Vec::new(),
        inserts: Vec::new(),
    };
    let incr = session
        .rerun(&delta_a, &TableDelta::new(), None, &mut oracle)
        .unwrap();
    assert_eq!(
        incr.metrics.counter("mc.core.incr.full_rebuilds"),
        0,
        "the delta must keep the config tree, or no list is maintained"
    );
    assert!(
        incr.metrics.counter("mc.core.incr.full_rejoins") > 0,
        "dropping listed entries with no margin must force a full rejoin"
    );

    let (_, cold) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(&gold),
    );
    assert_eq!(summarize(&cold), summarize(&incr));
}

/// The killed-only fast path must reuse every join: zero pairs rescored
/// by delta joins beyond the direct re-scores, and an identical report.
#[test]
fn killed_only_diff_reuses_joins() {
    let (a, b, killed, gold) = fixture(9);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    // Session-scoped metrics: concurrent tests patch records too, and
    // the exact `records_patched == 0` check below must not see them.
    params.obs = mc_obs::ObsContext::session();
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, _) = mc.start_session(a, b, killed, &mut oracle);

    let mut rng = StdRng::seed_from_u64(99);
    let nk = perturb_killed(
        session.killed(),
        session.table_a().len() as u32,
        session.table_b().len() as u32,
        0.2,
        10,
        &mut rng,
    );
    let incr = session
        .rerun(
            &TableDelta::new(),
            &TableDelta::new(),
            Some(nk),
            &mut oracle,
        )
        .unwrap();
    let delta = &incr.metrics;
    assert!(
        delta.counter("mc.core.incr.killed_fast_path") > 0,
        "killed-only diff must take the fast path"
    );
    assert!(
        delta.counter("mc.core.incr.pairs_reused") > 0,
        "fast path must reuse maintained entries"
    );
    assert_eq!(
        delta.counter("mc.core.incr.records_patched"),
        0,
        "no records may be patched on a killed-only diff"
    );

    let (_, cold) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(&gold),
    );
    assert_eq!(summarize(&cold), summarize(&incr));
}

/// Rewriting every row of A each round must trip arena compaction, and
/// the session must stay exact across it.
#[test]
fn compaction_preserves_exactness() {
    let (a, b, killed, gold) = fixture(10);
    let mc = MatchCatcher::new(session_params(SetMeasure::Jaccard, 1));
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, _) = mc.start_session(a, b, killed, &mut oracle);

    let mut rng = StdRng::seed_from_u64(1010);
    let before = MetricsSnapshot::capture();
    for _ in 0..4 {
        let spec = DeltaSpec {
            updates: session.table_a().len(),
            deletes: 0,
            inserts: 2,
        };
        let delta_a = random_delta(session.table_a(), spec, &mut rng);
        session
            .rerun(&delta_a, &TableDelta::new(), None, &mut oracle)
            .unwrap();
    }
    let delta = MetricsSnapshot::capture().since(&before);
    assert!(
        delta.counter("mc.core.incr.compactions") > 0,
        "rewriting every row must trigger compaction"
    );

    let (_, cold) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(&gold),
    );
    let replay = session
        .rerun(&TableDelta::new(), &TableDelta::new(), None, &mut oracle)
        .unwrap();
    assert_eq!(summarize(&cold), summarize(&replay));
}

/// A session must not age. Over many rounds of small random deltas, each
/// dropping the list entries it touches, the exact prefixes stay full:
/// no config falls back to a full rejoin, and the last round re-scores
/// about as many pairs as the same delta costs a session that has just
/// started — the cost of a first round, measured on the same delta
/// because one delta's cost alone varies several-fold with which rows
/// it edits.
#[test]
fn aged_session_stays_exact_and_cheap() {
    const ROUNDS: usize = 32;
    let (a, b, killed, gold) = fixture(14);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    params.incr.margin = 48;
    params.obs = mc_obs::ObsContext::session();
    let k = params.joint.k as i64;
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, _) = mc.start_session(a, b, killed, &mut oracle);

    let mut rng = StdRng::seed_from_u64(14 ^ 0xa9ed);
    let mut young = None;
    let mut extended = 0;
    for round in 0..ROUNDS {
        let spec_a = DeltaSpec::fraction_of(session.table_a().len(), 0.015);
        let spec_b = DeltaSpec::fraction_of(session.table_b().len(), 0.015);
        let delta_a = random_delta(session.table_a(), spec_a, &mut rng);
        let delta_b = random_delta(session.table_b(), spec_b, &mut rng);
        let incr = session
            .rerun(&delta_a, &delta_b, None, &mut oracle)
            .expect("generated deltas are valid");
        let m = &incr.metrics;
        assert_eq!(
            m.counter("mc.core.incr.full_rebuilds"),
            0,
            "round {round}: the deltas must keep the config tree, or the session restarts young"
        );
        assert_eq!(
            m.counter("mc.core.incr.full_rejoins"),
            0,
            "round {round}: an aged session fell back to a full rejoin"
        );
        assert!(
            m.gauge("mc.core.incr.valid_min") >= k,
            "round {round}: an exact prefix fell below k"
        );
        extended += m.counter("mc.core.incr.valid_extended");
        if round + 1 == ROUNDS {
            let mut first: matchcatcher::DebugSession = young.take().expect("earlier round");
            let first = first
                .rerun(&delta_a, &delta_b, None, &mut GoldOracle::exact(&gold))
                .unwrap();
            let aged_cost = m.counter("mc.core.incr.pairs_rescored");
            let first_cost = first.metrics.counter("mc.core.incr.pairs_rescored");
            assert!(
                aged_cost * 2 <= first_cost * 3,
                "round {round} re-scored {aged_cost} pairs, a first round {first_cost}"
            );
        }

        let (fresh, cold) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            session.killed().clone(),
            &mut GoldOracle::exact(&gold),
        );
        assert_eq!(
            summarize(&cold),
            summarize(&incr),
            "aged session diverged from a cold run at round {round}"
        );
        young = Some(fresh);
    }
    assert!(extended > 0, "refills must extend the exact prefixes");
}

/// Applies one delta to a fresh session and checks the rerun against a
/// cold session on the patched tables; returns the rerun's report.
fn rerun_matches_cold(
    mc: &MatchCatcher,
    (a, b, killed, gold): (Table, Table, PairSet, GoldMatches),
    delta_a: &TableDelta,
    delta_b: &TableDelta,
) -> DebugReport {
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, _) = mc.start_session(a, b, killed, &mut oracle);
    let incr = session.rerun(delta_a, delta_b, None, &mut oracle).unwrap();
    let (_, cold) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(&gold),
    );
    assert_eq!(summarize(&cold), summarize(&incr));
    incr
}

/// The pairs of each config's cold top-k list, best first.
fn listed_pairs(mc: &MatchCatcher, a: &Table, b: &Table, killed: &PairSet) -> Vec<Vec<u64>> {
    let out = mc.topk(&mc.prepare(a, b), killed);
    out.lists
        .iter()
        .map(|l| l.sorted_entries().iter().map(|&(_, p)| p).collect())
        .collect()
}

/// Deleting every A row behind one config's list leaves that config no
/// exact survivor: it rejoins, seeded with whatever its unproven tail
/// kept, and the rerun still equals a cold session.
#[test]
fn deleting_every_row_behind_a_list_matches_cold() {
    let (a, b, killed, gold) = fixture(14);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    params.obs = mc_obs::ObsContext::session();
    let mc = MatchCatcher::new(params);
    let mut rows: Vec<TupleId> = listed_pairs(&mc, &a, &b, &killed)[0]
        .iter()
        .map(|&p| split_pair_key(p).0)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let delta_a = TableDelta {
        updates: Vec::new(),
        deletes: rows,
        inserts: Vec::new(),
    };
    let incr = rerun_matches_cold(&mc, (a, b, killed, gold), &delta_a, &TableDelta::new());
    assert_eq!(
        incr.metrics.counter("mc.core.incr.full_rebuilds"),
        0,
        "the deletes must keep the config tree, or no list is maintained"
    );
    assert!(
        incr.metrics.counter("mc.core.incr.full_rejoins") > 0,
        "a list whose every row is gone must rejoin"
    );
}

/// An insert-only delta drops no list entry; copies of the rows behind
/// a config's best pair tie that pair's score and rank right below it
/// (higher ids), pushing the exact prefix's last entries out of a full
/// list.
#[test]
fn insert_only_delta_matches_cold() {
    let (a, b, killed, gold) = fixture(15);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    params.obs = mc_obs::ObsContext::session();
    let mc = MatchCatcher::new(params);
    let (x, y) = split_pair_key(listed_pairs(&mc, &a, &b, &killed)[0][0]);
    let delta_a = TableDelta {
        updates: Vec::new(),
        deletes: Vec::new(),
        inserts: vec![a.tuple(x).clone(), a.tuple(x).clone()],
    };
    let delta_b = TableDelta {
        updates: Vec::new(),
        deletes: Vec::new(),
        inserts: vec![b.tuple(y).clone()],
    };
    let incr = rerun_matches_cold(&mc, (a, b, killed, gold), &delta_a, &delta_b);
    assert_eq!(incr.metrics.counter("mc.core.incr.full_rebuilds"), 0);
    assert_eq!(incr.metrics.counter("mc.core.incr.full_rejoins"), 0);
}

/// Blanking a listed row to all-`None` empties its records in every
/// arena: its pairs leave the lists and nothing can replace them from
/// that row.
#[test]
fn blanking_a_listed_row_matches_cold() {
    let (a, b, killed, gold) = fixture(16);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    params.obs = mc_obs::ObsContext::session();
    let mc = MatchCatcher::new(params);
    let (_, y) = split_pair_key(listed_pairs(&mc, &a, &b, &killed)[0][0]);
    let delta_b = TableDelta {
        updates: vec![RowEdit {
            id: y,
            tuple: Tuple::new(vec![None; b.schema().len()]),
        }],
        deletes: Vec::new(),
        inserts: Vec::new(),
    };
    let incr = rerun_matches_cold(&mc, (a, b, killed, gold), &TableDelta::new(), &delta_b);
    assert_eq!(incr.metrics.counter("mc.core.incr.records_patched"), 1);
}

/// Blanking one promising attribute in every row of both tables drops it
/// from the promising set, so the config tree changes and the rerun
/// rebuilds the session cold: tokenization, dictionary, arenas and
/// lists. The report must equal a cold session over the patched tables,
/// and the rebuilt state must keep patching exactly.
#[test]
fn config_tree_change_rebuilds_the_session_exactly() {
    let (a, b, killed, gold) = fixture(17);
    let mut params = session_params(SetMeasure::Jaccard, 1);
    params.obs = mc_obs::ObsContext::session();
    let mc = MatchCatcher::new(params);
    let blanked = *mc
        .prepare(&a, &b)
        .promising
        .attrs
        .first()
        .expect("promising attributes");
    let blank_everywhere = |t: &Table| TableDelta {
        updates: (0..t.len() as TupleId)
            .map(|id| RowEdit {
                id,
                tuple: Tuple::new(
                    (0..t.schema().len())
                        .map(|i| {
                            let attr = AttrId(i as u16);
                            (attr != blanked)
                                .then(|| t.value(id, attr).map(str::to_owned))
                                .flatten()
                        })
                        .collect(),
                ),
            })
            .collect(),
        deletes: Vec::new(),
        inserts: Vec::new(),
    };
    let mut oracle = GoldOracle::exact(&gold);
    let (mut session, _) = mc.start_session(a, b, killed, &mut oracle);
    let cold = |session: &matchcatcher::DebugSession| {
        let (_, cold) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            session.killed().clone(),
            &mut GoldOracle::exact(&gold),
        );
        cold
    };

    let (delta_a, delta_b) = (
        blank_everywhere(session.table_a()),
        blank_everywhere(session.table_b()),
    );
    let rebuilt = session
        .rerun(&delta_a, &delta_b, None, &mut oracle)
        .unwrap();
    assert_eq!(rebuilt.metrics.counter("mc.core.incr.full_rebuilds"), 1);
    assert!(
        !rebuilt.promising.contains(&blanked),
        "the blanked attribute left the promising set"
    );
    assert_eq!(summarize(&cold(&session)), summarize(&rebuilt));

    // Rows copied from the patched table keep the attribute blank, so
    // the tree stays and this rerun patches the rebuilt state.
    let a = session.table_a();
    let delta_a = TableDelta {
        updates: vec![RowEdit {
            id: 3,
            tuple: a.tuple(4).clone(),
        }],
        deletes: vec![1, 2],
        inserts: vec![a.tuple(0).clone()],
    };
    let incr = session
        .rerun(&delta_a, &TableDelta::new(), None, &mut oracle)
        .unwrap();
    assert_eq!(incr.metrics.counter("mc.core.incr.full_rebuilds"), 0);
    assert_eq!(summarize(&cold(&session)), summarize(&incr));
}
