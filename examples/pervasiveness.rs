//! Pervasiveness analysis — the paper's §8 future work in action.
//!
//! After a debugging session finds killed-off matches, the user wants to
//! fix the *most pervasive* problems first. This example debugs a hash
//! blocker on the restaurants dataset, groups the candidate pairs by
//! problem signature with the batch [`DiagnosisKernel`], and for one
//! confirmed killed match lists the other pairs suffering from the same
//! problem. The same scenario is asserted in
//! `tests/pervasiveness_example.rs`, so this output can't silently rot.
//!
//! Run with: `cargo run --release --example pervasiveness`

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::CandidateUnion;
use matchcatcher::oracle::GoldOracle;
use matchcatcher::DiagnosisKernel;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;

fn main() {
    let ds = DatasetProfile::FodorsZagats.generate(42);
    let schema = ds.a.schema().clone();
    let blocker = Blocker::Hash(KeyFunc::Attr(schema.expect_id("city")));
    let c = blocker.apply(&ds.a, &ds.b);

    let mut params = DebuggerParams::default();
    params.joint.k = 500;
    let mc = MatchCatcher::new(params);
    let prepared = mc.prepare(&ds.a, &ds.b);
    let joint = mc.topk(&prepared, &c);
    let mut oracle = GoldOracle::exact(&ds.gold);
    let (union, outcome) = mc.verify(&ds.a, &ds.b, &prepared, &joint.lists, &mut oracle);
    let confirmed: Vec<(u32, u32)> = outcome
        .matches
        .iter()
        .map(|&k| mc_table::split_pair_key(k))
        .collect();
    println!(
        "blocker {} killed {} matches; debugger confirmed {}\n",
        blocker.describe(&schema),
        ds.gold.killed(&c),
        confirmed.len()
    );

    // Group all candidates by problem signature, most pervasive first —
    // one columnar pass over the whole union via the batch kernel.
    let union2 = CandidateUnion::build(&joint.lists);
    let kernel = DiagnosisKernel::build(&ds.a, &ds.b, 0);
    let groups = kernel.pervasiveness(&union2, &confirmed);
    assert!(!groups.is_empty(), "a lossy blocker must surface problems");
    println!("top problem groups across E = {} candidates:", union.len());
    for g in groups.iter().take(6) {
        println!(
            "  {:>5} pairs ({} confirmed matches): {}",
            g.pairs.len(),
            g.confirmed,
            g.signature.describe(&schema)
        );
    }
    let stats = kernel.stats();
    println!(
        "\nkernel: {} diagnoses over {} distinct values",
        stats.lookups, stats.distinct_values
    );

    // Drill into the first confirmed match.
    if let Some(&m) = confirmed.first() {
        let sim = kernel.similar_pairs(&union2, m);
        let name = schema.expect_id("name");
        println!(
            "\nkilled match (a{}, b{}) = {:?} / {:?}",
            m.0,
            m.1,
            ds.a.value(m.0, name).unwrap_or("-"),
            ds.b.value(m.1, name).unwrap_or("-")
        );
        println!(
            "{} candidate pairs share (at least) its problems, e.g.:",
            sim.len()
        );
        for (x, y) in sim.iter().take(4) {
            println!(
                "  (a{x}, b{y}): {:?} / {:?}",
                ds.a.value(*x, name).unwrap_or("-"),
                ds.b.value(*y, name).unwrap_or("-")
            );
        }
    }
}
