//! Asserted version of `examples/pervasiveness.rs`.
//!
//! The example prints pervasiveness groups for a hash blocker on the
//! restaurants dataset; this test runs the same pipeline (at a reduced
//! scale so it stays tier-1 fast) and pins down every claim the example
//! makes, so the demo can't silently rot: the debugger confirms killed
//! matches, the batch kernel's groups equal the per-pair slow path, the
//! ordering is most-pervasive-first, and the similar-pairs drill-down is
//! consistent with the group containing the killed match.

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::CandidateUnion;
use matchcatcher::oracle::GoldOracle;
use matchcatcher::{pervasive, DiagnosisKernel};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;

#[test]
fn pervasiveness_example_scenario_holds() {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(42, 0.5);
    let schema = ds.a.schema().clone();
    let blocker = Blocker::Hash(KeyFunc::Attr(schema.expect_id("city")));
    let c = blocker.apply(&ds.a, &ds.b);

    let mut params = DebuggerParams::default();
    params.joint.k = 500;
    let mc = MatchCatcher::new(params);
    let prepared = mc.prepare(&ds.a, &ds.b);
    let joint = mc.topk(&prepared, &c);
    let mut oracle = GoldOracle::exact(&ds.gold);
    let (_, outcome) = mc.verify(&ds.a, &ds.b, &prepared, &joint.lists, &mut oracle);
    let confirmed: Vec<(u32, u32)> = outcome
        .matches
        .iter()
        .map(|&k| mc_table::split_pair_key(k))
        .collect();
    assert!(ds.gold.killed(&c) > 0, "the city blocker must be lossy");
    assert!(
        !confirmed.is_empty(),
        "the debugger must confirm killed-off matches"
    );

    let union = CandidateUnion::build(&joint.lists);
    let kernel = DiagnosisKernel::build(&ds.a, &ds.b, 0);
    let groups = kernel.pervasiveness(&union, &confirmed);
    assert!(!groups.is_empty(), "a lossy blocker must surface problems");

    // The example's table is the batch kernel's output; it must equal
    // the per-pair slow path exactly.
    let slow = pervasive::pervasiveness(&ds.a, &ds.b, &union, &confirmed);
    assert_eq!(groups.len(), slow.len());
    for (f, s) in groups.iter().zip(&slow) {
        assert_eq!(f.signature, s.signature);
        assert_eq!(f.pairs, s.pairs);
        assert_eq!(f.confirmed, s.confirmed);
    }

    // Most-pervasive-first ordering, and kill counts bounded by both the
    // group population and the confirmed total.
    for w in groups.windows(2) {
        assert!(
            (w[0].confirmed, w[0].pairs.len()) >= (w[1].confirmed, w[1].pairs.len()),
            "groups must be sorted most pervasive first"
        );
    }
    for g in &groups {
        assert!(g.confirmed <= g.pairs.len());
        assert!(!g.signature.problems().is_empty());
        assert!(!g.signature.describe(&schema).is_empty());
    }
    let attributed: usize = groups.iter().map(|g| g.confirmed).sum();
    assert!(attributed <= confirmed.len());
    // Every confirmed match the blocker killed shows up in some group
    // (a killed match with no blocker problem would be unexplainable).
    assert!(attributed > 0, "killed matches must land in problem groups");

    // The sweep diagnoses every union cell with both values present,
    // and restaurant data repeats values, so interning prepares fewer
    // values than the tables hold cells.
    let stats = kernel.stats();
    let present = |t: &mc_table::Table, id: u32, attr| t.value(id, attr).is_some();
    let expected_lookups: usize = union
        .pairs
        .iter()
        .map(|&k| {
            let (x, y) = mc_table::split_pair_key(k);
            schema
                .attr_ids()
                .filter(|&f| present(&ds.a, x, f) && present(&ds.b, y, f))
                .count()
        })
        .sum();
    assert_eq!(stats.lookups, expected_lookups as u64);
    let cells = (ds.a.len() + ds.b.len()) * schema.len();
    assert!(
        stats.distinct_values < cells as u64,
        "restaurant data repeats values; interning must dedupe them"
    );

    // Drill-down: similar pairs of a killed match equal the slow path
    // and share the match's problem signature group membership.
    let m = confirmed[0];
    let sim = kernel.similar_pairs(&union, m);
    assert_eq!(sim, pervasive::similar_pairs(&ds.a, &ds.b, &union, m));
    assert!(
        !sim.contains(&m),
        "a match is not similar to itself by definition"
    );
    if let Some(home) = groups.iter().find(|g| g.pairs.contains(&m)) {
        // Everything in the match's own group shares its exact
        // signature, hence is a subset of the similar-pair list.
        for &p in home.pairs.iter().filter(|&&p| p != m) {
            assert!(
                sim.contains(&p),
                "{p:?} shares {m:?}'s signature but is missing from similar_pairs"
            );
        }
    }
}
