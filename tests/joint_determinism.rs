//! Thread-count invariance of the *joint* stage, in the style of
//! `verifier_parallel.rs`: with no cross-config waits and deterministic
//! empirical `q` selection, `run_joint` must produce a bit-identical
//! candidate union — same `q_used`, same pairs, same `f64` score bit
//! patterns — at every worker-thread count, on a realistic datagen
//! profile with `q` chosen by Auto-q's preludes.

use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::{run_joint, CandidateUnion, JointParams, QStrategy};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_table::AttrId;

/// The union projected to comparable bits: pairs plus per-config score
/// bit patterns.
fn union_bits(u: &CandidateUnion) -> (Vec<u64>, Vec<Vec<Option<u64>>>) {
    (
        u.pairs.clone(),
        u.scores
            .iter()
            .map(|row| row.iter().map(|s| s.map(f64::to_bits)).collect())
            .collect(),
    )
}

#[test]
fn joint_union_is_bit_identical_across_thread_counts() {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(11, 0.5);
    let blocker = Blocker::Hash(KeyFunc::Attr(AttrId(0)));
    let c = blocker.apply(&ds.a, &ds.b);
    let mc = MatchCatcher::new(DebuggerParams::small());
    let prepared = mc.prepare(&ds.a, &ds.b);

    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let out = run_joint(
                &prepared.tok_a,
                &prepared.tok_b,
                &c,
                &prepared.tree,
                JointParams {
                    k: 60,
                    threads,
                    q: QStrategy::Auto {
                        max_q: 3,
                        prelude_k: 20,
                    },
                    ..Default::default()
                },
            );
            let union = CandidateUnion::build(&out.lists);
            (out.q_used, union_bits(&union))
        })
        .collect();

    assert!(
        !runs[0].1 .0.is_empty(),
        "fixture must produce candidates for the comparison to mean anything"
    );
    for (threads, run) in [2usize, 4].iter().zip(&runs[1..]) {
        assert_eq!(runs[0].0, run.0, "q_used diverged at {threads} threads");
        assert_eq!(
            runs[0].1, run.1,
            "candidate union not bit-identical at {threads} threads"
        );
    }
}
