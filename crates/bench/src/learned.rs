//! A greedy union-of-predicates blocker learner (§6.2's "learned
//! blockers" stand-in).
//!
//! The paper debugged blockers learned by Falcon \[8\] from crowdsourced
//! labels. We reproduce the *failure mode* — a blocker that looks perfect
//! on its labeled sample yet kills matches in the full tables — with a
//! greedy set-cover learner: from a candidate pool of hash / similarity
//! predicates, repeatedly add the predicate covering the most uncovered
//! positive sample pairs, subject to a candidate-set budget, until the
//! sample is fully covered or nothing helps.

use mc_blocking::{Blocker, KeyFunc};
use mc_strsim::measures::SetMeasure;
use mc_strsim::tokenize::Tokenizer;
use mc_table::stats::TableStats;
use mc_table::{AttrType, GoldMatches, PairSet, Table, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// A labeled training sample of tuple pairs.
#[derive(Debug, Clone)]
pub struct LabeledSample {
    /// Pairs labeled as matches.
    pub positives: Vec<(TupleId, TupleId)>,
    /// Pairs labeled as non-matches.
    pub negatives: Vec<(TupleId, TupleId)>,
}

/// Draws a sample: `n_pos` gold matches and `n_neg` random non-matches.
pub fn sample_pairs(
    a: &Table,
    b: &Table,
    gold: &GoldMatches,
    n_pos: usize,
    n_neg: usize,
    seed: u64,
) -> LabeledSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all_gold: Vec<(TupleId, TupleId)> = gold.iter().collect();
    all_gold.sort_unstable();
    // Deterministic subsample of positives.
    let step = (all_gold.len() / n_pos.max(1)).max(1);
    let positives: Vec<(TupleId, TupleId)> =
        all_gold.iter().copied().step_by(step).take(n_pos).collect();
    let mut negatives = Vec::with_capacity(n_neg);
    while negatives.len() < n_neg {
        let x = rng.random_range(0..a.len()) as TupleId;
        let y = rng.random_range(0..b.len()) as TupleId;
        if !gold.is_match(x, y) {
            negatives.push((x, y));
        }
    }
    LabeledSample {
        positives,
        negatives,
    }
}

/// Builds the candidate predicate pool from the schema: hash blockers on
/// every non-numeric attribute (plus first/last-word variants for text),
/// SIM blockers at a few thresholds, and numeric bands.
pub fn candidate_pool(a: &Table, b: &Table) -> Vec<Blocker> {
    let (stats_a, stats_b) = TableStats::compute_pair(a, b);
    let mut pool = Vec::new();
    for (attr, _) in a.schema().iter() {
        let ty = stats_a.attr(attr).attr_type;
        let ty_b = stats_b.attr(attr).attr_type;
        if ty == AttrType::Numeric || ty_b == AttrType::Numeric {
            // Numeric bands alone keep enormous candidate sets (a ±1-year
            // band pairs ~10% of the cross product); real learners only
            // use them as conjuncts, so they are excluded from the pool.
            continue;
        }
        // Low-cardinality hashes (genre, venue) also blow the budget.
        if stats_a.attr(attr).distinct * 50 >= a.len() {
            pool.push(Blocker::Hash(KeyFunc::Attr(attr)));
        }
        if ty == AttrType::Text {
            pool.push(Blocker::Hash(KeyFunc::LastWord(attr)));
            pool.push(Blocker::Hash(KeyFunc::FirstWord(attr)));
            for t in [0.6, 0.8] {
                pool.push(Blocker::Sim {
                    attr,
                    tokenizer: Tokenizer::Word,
                    measure: SetMeasure::Jaccard,
                    threshold: t,
                });
            }
        }
    }
    pool
}

/// Result of learning.
pub struct LearnedBlocker {
    /// The learned union blocker.
    pub blocker: Blocker,
    /// Recall on the training sample (usually 1.0 — that is the trap).
    pub sample_recall: f64,
    /// Number of predicates selected.
    pub predicates: usize,
}

/// Greedily learns a union blocker from the sample.
///
/// `budget` caps the candidate-set size `|C|` on the full tables (the
/// selectivity constraint every practical learner has); predicates whose
/// marginal candidates would blow the budget are skipped.
pub fn learn_blocker(
    a: &Table,
    b: &Table,
    sample: &LabeledSample,
    budget: usize,
) -> LearnedBlocker {
    let pool = candidate_pool(a, b);
    // Precompute coverage of each candidate over the sample and its |C|.
    struct Cand {
        blocker: Blocker,
        covers: Vec<bool>,
        c: PairSet,
    }
    let cands: Vec<Cand> = pool
        .into_iter()
        .filter_map(|blocker| {
            let covers: Vec<bool> = sample
                .positives
                .iter()
                .map(|&(x, y)| pairwise_keeps(&blocker, a, b, x, y))
                .collect();
            if !covers.iter().any(|&c| c) {
                return None;
            }
            let c = blocker.apply(a, b);
            Some(Cand { blocker, covers, c })
        })
        .collect();

    let mut covered = vec![false; sample.positives.len()];
    let mut chosen: Vec<Blocker> = Vec::new();
    let mut union = PairSet::new();
    loop {
        let mut best: Option<(usize, usize)> = None; // (candidate, gain)
        for (ci, cand) in cands.iter().enumerate() {
            let gain = cand
                .covers
                .iter()
                .zip(&covered)
                .filter(|(c, done)| **c && !**done)
                .count();
            if gain == 0 {
                continue;
            }
            // Budget check: |union ∪ cand.c| ≤ budget.
            let added = cand.c.len() - cand.c.intersection_len(&union);
            if union.len() + added > budget {
                continue;
            }
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((ci, gain));
            }
        }
        let Some((ci, _)) = best else { break };
        union.union_with(&cands[ci].c);
        for (done, c) in covered.iter_mut().zip(&cands[ci].covers) {
            *done = *done || *c;
        }
        chosen.push(cands[ci].blocker.clone());
        if covered.iter().all(|&c| c) {
            break;
        }
    }
    let sample_recall = if sample.positives.is_empty() {
        1.0
    } else {
        covered.iter().filter(|&&c| c).count() as f64 / covered.len() as f64
    };
    let predicates = chosen.len();
    let blocker = if chosen.is_empty() {
        Blocker::Union(vec![])
    } else {
        Blocker::Union(chosen)
    };
    LearnedBlocker {
        blocker,
        sample_recall,
        predicates,
    }
}

/// `Blocker::keeps` that tolerates sorted-neighborhood members (absent
/// from the learner's pool anyway).
fn pairwise_keeps(b: &Blocker, ta: &Table, tb: &Table, x: TupleId, y: TupleId) -> bool {
    b.keeps(ta, tb, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_datagen::profiles::DatasetProfile;

    #[test]
    fn learner_covers_its_sample() {
        let ds = DatasetProfile::FodorsZagats.generate(5);
        let sample = sample_pairs(&ds.a, &ds.b, &ds.gold, 30, 60, 7);
        assert_eq!(sample.positives.len(), 30);
        assert_eq!(sample.negatives.len(), 60);
        let learned = learn_blocker(&ds.a, &ds.b, &sample, 100_000);
        assert!(
            learned.sample_recall >= 0.95,
            "sample recall {}",
            learned.sample_recall
        );
        assert!(learned.predicates >= 1);
    }

    #[test]
    fn learned_blocker_can_still_lose_full_recall() {
        // The §6.2 premise: perfect on the sample ≠ perfect on the data.
        let ds = DatasetProfile::AmazonGoogle.generate_scaled(5, 0.15);
        let sample = sample_pairs(&ds.a, &ds.b, &ds.gold, 20, 40, 7);
        let learned = learn_blocker(&ds.a, &ds.b, &sample, 200_000);
        let c = learned.blocker.apply(&ds.a, &ds.b);
        let recall = ds.gold.recall(&c);
        assert!(recall > 0.3, "learned blocker useless: recall {recall}");
        // Not asserting recall < 1.0 (it could get lucky), but report it.
        println!(
            "sample recall {} full recall {recall}",
            learned.sample_recall
        );
    }

    #[test]
    fn pool_is_schema_driven() {
        let ds = DatasetProfile::AcmDblp.generate_scaled(1, 0.05);
        let pool = candidate_pool(&ds.a, &ds.b);
        assert!(pool.len() >= 5);
    }
}
