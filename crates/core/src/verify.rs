//! The Match Verifier (§5): interactive identification of true matches.
//!
//! Given the candidate union `E`, the verifier iteratively shows the user
//! `n` pairs and uses the feedback to re-rank the rest:
//!
//! 1. **Seeding** — pairs are shown in MedRank order until at least one
//!    match and one non-match are labeled (a classifier needs both).
//! 2. **Hybrid active learning** — for [`VerifierParams::al_iters`]
//!    iterations (the paper uses 3), each round shows `n/4` most
//!    *controversial* pairs (forest confidence nearest 0.5, helping the
//!    learner) plus `3n/4` highest-confidence pairs (helping the user
//!    find matches fast) from a random forest trained on all labels.
//! 3. **Online learning** — subsequent rounds show the top `n` pairs by
//!    positive confidence and retrain after each round.
//!
//! The natural stopping point is
//! [`VerifierParams::stop_after_empty`] = 2 consecutive iterations with
//! no new matches. [`RankStrategy::Wmr`] and [`RankStrategy::MedRank`]
//! are the §6.5 ablation baselines.

use crate::features::{FeatureExtractor, FeatureMatrix};
use crate::joint::CandidateUnion;
use crate::oracle::Oracle;
use crate::rank::{medrank_order, wmr_order, RankedLists, WmrWeights};
use mc_ml::{ForestParams, RandomForest, RankMatrix};
use mc_table::split_pair_key;

/// Which re-ranking machinery the verifier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStrategy {
    /// MedRank seeding + hybrid active/online learning (the paper's
    /// solution).
    Learning,
    /// Weighted median ranking with feedback updates (ablation baseline).
    Wmr,
    /// Static MedRank order, no feedback (ablation baseline).
    MedRank,
}

/// Verifier tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct VerifierParams {
    /// Pairs shown per iteration (the paper's `n = 20`).
    pub n_per_iter: usize,
    /// Hybrid active-learning iterations before pure online learning.
    pub al_iters: usize,
    /// Stop after this many consecutive iterations with no new matches.
    pub stop_after_empty: usize,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Ranking strategy.
    pub strategy: RankStrategy,
    /// Random-forest hyperparameters.
    pub forest: ForestParams,
}

impl Default for VerifierParams {
    fn default() -> Self {
        VerifierParams {
            n_per_iter: 20,
            al_iters: 3,
            stop_after_empty: 2,
            max_iters: 10_000,
            strategy: RankStrategy::Learning,
            forest: ForestParams::default(),
        }
    }
}

/// Per-iteration bookkeeping (drives Tables 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Pairs shown this iteration.
    pub shown: usize,
    /// Of those, confirmed matches.
    pub matches_found: usize,
}

/// Verifier output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Confirmed match pair-keys in discovery order.
    pub matches: Vec<u64>,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Total labels requested from the oracle.
    pub labeled: usize,
}

impl VerifyOutcome {
    /// Number of iterations run (column I of Table 3).
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Matches found within the first `n` iterations (Table 4).
    pub fn matches_in_first(&self, n: usize) -> usize {
        self.iterations
            .iter()
            .take(n)
            .map(|r| r.matches_found)
            .sum()
    }
}

/// Runs the verifier over the candidate union.
pub fn run_verifier(
    union: &CandidateUnion,
    fx: &FeatureExtractor<'_>,
    oracle: &mut dyn Oracle,
    params: &VerifierParams,
) -> VerifyOutcome {
    let _span = mc_obs::span!("mc.core.verify.run");
    let items = union.len();
    let mut outcome = VerifyOutcome {
        matches: Vec::new(),
        iterations: Vec::new(),
        labeled: 0,
    };
    if items == 0 {
        return outcome;
    }
    let ranked = RankedLists::from_union(union);
    let base_order = medrank_order(&ranked);
    // How much the two aggregation baselines agree on the head of the
    // ranking (overlap of the top-n prefixes, in percent) — a cheap
    // diagnostic for whether WMR's weighting can matter on this input.
    {
        let head = params.n_per_iter.clamp(1, items);
        let wmr_head: Vec<usize> = wmr_order(&ranked, &WmrWeights::uniform(ranked.lists().max(1)))
            .into_iter()
            .take(head)
            .collect();
        let agree = base_order
            .iter()
            .take(head)
            .filter(|i| wmr_head.contains(i))
            .count();
        mc_obs::gauge!("mc.core.verify.rank_agreement_pct").set((agree * 100 / head) as i64);
    }
    let mut labels: Vec<Option<bool>> = vec![None; items];
    let mut wmr = WmrWeights::uniform(ranked.lists().max(1));
    let mut al_rounds_done = 0usize;
    let mut empty_streak = 0usize;
    let n = params.n_per_iter.max(1);
    let threads = params.forest.threads;

    // The flat feature matrix replaces the former per-candidate
    // `Option<Vec<f64>>` cache: the union head (where MedRank seeding and
    // the first training rounds concentrate) is materialized eagerly in
    // parallel; tail chunks are built lazily, and only if the learning
    // phase is actually reached.
    let mut matrix = FeatureMatrix::new(items, fx.n_features());
    if params.strategy == RankStrategy::Learning {
        matrix.ensure_upto(n.saturating_mul(4).min(items), &union.pairs, fx, threads);
    }
    // The training copy of the whole matrix, ranked at the first training
    // round; every refit gathers its labeled rows from it.
    let mut ranks: Option<RankMatrix> = None;

    // Incrementally maintained state: indexes still unlabeled (union
    // order), and the labeled training set sorted by candidate index.
    let mut unlabeled: Vec<usize> = (0..items).collect();
    let mut labeled_pairs: Vec<(usize, bool)> = Vec::new();
    // Reusable per-iteration buffers — the steady-state refit loop
    // allocates nothing beyond what the forest itself needs.
    let mut train_idx: Vec<usize> = Vec::new();
    let mut train_y: Vec<bool> = Vec::new();
    let mut scores: Vec<(f64, f64)> = Vec::new();
    let mut scored: Vec<(usize, f64, f64)> = Vec::new();
    // Cursor into the MedRank order: labels are never retracted, so the
    // seeding walk never needs to rescan its prefix.
    let mut medrank_cursor = 0usize;

    while outcome.iterations.len() < params.max_iters {
        if unlabeled.is_empty() {
            break;
        }
        let _iter_span = mc_obs::span!("mc.core.verify.iter");
        let have_pos = labeled_pairs.iter().any(|&(_, l)| l);
        let have_neg = labeled_pairs.iter().any(|&(_, l)| !l);

        // ── Select the batch to show ────────────────────────────────────
        let batch: Vec<usize> = match params.strategy {
            RankStrategy::MedRank => next_unlabeled(&base_order, &mut medrank_cursor, &labels, n),
            RankStrategy::Wmr => wmr_order(&ranked, &wmr)
                .into_iter()
                .filter(|&i| labels[i].is_none())
                .take(n)
                .collect(),
            RankStrategy::Learning => {
                if !(have_pos && have_neg) {
                    // Seeding phase: walk the MedRank order.
                    next_unlabeled(&base_order, &mut medrank_cursor, &labels, n)
                } else {
                    // (Re)train on everything labeled so far. Training
                    // samples are indexes into the ranked matrix — no
                    // value is sorted again, here or inside the forest.
                    matrix.ensure_all(&union.pairs, fx, threads);
                    let ranks = ranks.get_or_insert_with(|| {
                        let _rank = mc_obs::span!("mc.core.verify.rank_matrix");
                        RankMatrix::new(matrix.view())
                    });
                    train_idx.clear();
                    train_y.clear();
                    train_idx.extend(labeled_pairs.iter().map(|&(i, _)| i));
                    train_y.extend(labeled_pairs.iter().map(|&(_, l)| l));
                    let f = {
                        let _fit = mc_obs::span!("mc.core.verify.forest_fit");
                        RandomForest::fit_matrix(ranks, &train_idx, &train_y, &params.forest)
                    };
                    {
                        let _predict = mc_obs::span!("mc.core.verify.forest_predict");
                        scores.resize(unlabeled.len(), (0.0, 0.0));
                        f.score_batch_into(matrix.view(), &unlabeled, threads, &mut scores);
                    }
                    scored.clear();
                    scored.extend(unlabeled.iter().zip(&scores).map(|(&i, &(c, p))| (i, c, p)));
                    if al_rounds_done < params.al_iters {
                        al_rounds_done += 1;
                        hybrid_batch(&scored, n)
                    } else {
                        // Pure online phase: top-n by confidence.
                        top_by_confidence(&scored, n)
                    }
                }
            }
        };
        if batch.is_empty() {
            break;
        }

        // ── Ask the user ────────────────────────────────────────────────
        let mut found = 0usize;
        let mut matches_per_list = vec![0usize; ranked.lists()];
        for &i in &batch {
            let (a, b) = split_pair_key(union.pairs[i]);
            let is_match = oracle.is_match(a, b);
            labels[i] = Some(is_match);
            labeled_pairs.push((i, is_match));
            outcome.labeled += 1;
            if is_match {
                found += 1;
                outcome.matches.push(union.pairs[i]);
                for (c, col) in union.scores.iter().enumerate() {
                    if col[i].is_some() {
                        matches_per_list[c] += 1;
                    }
                }
            }
        }
        mc_obs::counter!("mc.core.verify.iterations").inc();
        mc_obs::counter!("mc.core.verify.labeled").add(batch.len() as u64);
        mc_obs::counter!("mc.core.verify.matches").add(found as u64);
        mc_obs::event(
            "mc.core.verify.iteration",
            outcome.iterations.len() as u64,
            found as u64,
        );
        outcome.iterations.push(IterationRecord {
            shown: batch.len(),
            matches_found: found,
        });
        // Keep the training set in ascending candidate order (the batch
        // arrives in ranking order) and drop the batch from the unlabeled
        // set — no per-iteration re-filter of `0..items`.
        labeled_pairs.sort_unstable_by_key(|&(i, _)| i);
        unlabeled.retain(|&i| labels[i].is_none());
        if params.strategy == RankStrategy::Wmr {
            wmr.update(&matches_per_list);
        }

        // ── Natural stopping point ──────────────────────────────────────
        if found == 0 {
            empty_streak += 1;
            if empty_streak >= params.stop_after_empty {
                break;
            }
        } else {
            empty_streak = 0;
        }
    }
    outcome
}

/// The next up-to-`n` unlabeled entries of `order`, advancing `cursor`
/// past everything examined (valid because labels are never retracted).
/// The batch is sized by what is left of the order, never by `n` alone,
/// which a request may set to anything.
fn next_unlabeled(
    order: &[usize],
    cursor: &mut usize,
    labels: &[Option<bool>],
    n: usize,
) -> Vec<usize> {
    let mut batch = Vec::with_capacity(n.min(order.len() - *cursor));
    while *cursor < order.len() && batch.len() < n {
        let i = order[*cursor];
        *cursor += 1;
        if labels[i].is_none() {
            batch.push(i);
        }
    }
    batch
}

/// Total-order comparator for "most confident first" (confidence desc,
/// proba desc, index asc — a strict total order, so partial selection
/// yields exactly the prefix a full sort would).
fn conf_cmp(a: &(usize, f64, f64), b: &(usize, f64, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1)
        .then(b.2.total_cmp(&a.2))
        .then(a.0.cmp(&b.0))
}

/// The first `lim` positions of `scored` under `cmp`, in order, without
/// sorting the tail: `select_nth_unstable` partitions around the boundary
/// (the comparator is a strict total order, so the prefix *set* equals a
/// full sort's prefix), then only the head is sorted.
fn select_head_positions(
    scored: &[(usize, f64, f64)],
    lim: usize,
    cmp: impl Fn(&(usize, f64, f64), &(usize, f64, f64)) -> std::cmp::Ordering,
) -> Vec<u32> {
    let mut order: Vec<u32> = (0..scored.len() as u32).collect();
    let lim = lim.min(order.len());
    if lim == 0 {
        return Vec::new();
    }
    if lim < order.len() {
        order.select_nth_unstable_by(lim - 1, |&a, &b| {
            cmp(&scored[a as usize], &scored[b as usize])
        });
        order.truncate(lim);
    }
    order.sort_unstable_by(|&a, &b| cmp(&scored[a as usize], &scored[b as usize]));
    order
}

/// Top-`n` candidate indexes by positive confidence.
fn top_by_confidence(scored: &[(usize, f64, f64)], n: usize) -> Vec<usize> {
    select_head_positions(scored, n, conf_cmp)
        .into_iter()
        .map(|p| scored[p as usize].0)
        .collect()
}

/// The hybrid batch: `n/4` most controversial + `3n/4` most confident.
///
/// Both rankings use partial selection instead of full sorts, and the
/// dedup between them is a positional bitset instead of the former
/// O(n·batch) `batch.contains` scan. The confidence scan never needs more
/// than the top `n` entries: at most `n_controversial` of them are
/// already taken, and the scan stops once the batch holds `n`.
fn hybrid_batch(scored: &[(usize, f64, f64)], n: usize) -> Vec<usize> {
    let n_controversial = (n / 4).max(1);
    let head = select_head_positions(scored, n_controversial, |a, b| {
        let ua = (a.1 - 0.5).abs();
        let ub = (b.1 - 0.5).abs();
        ua.total_cmp(&ub).then(a.0.cmp(&b.0))
    });
    let mut taken = vec![false; scored.len()];
    let mut batch: Vec<usize> = Vec::with_capacity(n.min(scored.len()));
    for &p in &head {
        taken[p as usize] = true;
        batch.push(scored[p as usize].0);
    }
    for p in select_head_positions(scored, n, conf_cmp) {
        if batch.len() >= n {
            break;
        }
        if !taken[p as usize] {
            taken[p as usize] = true;
            batch.push(scored[p as usize].0);
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GoldOracle;
    use crate::ssj::TopKList;
    use mc_strsim::dict::TokenizedTable;
    use mc_strsim::tokenize::Tokenizer;
    use mc_table::{pair_key, AttrId, GoldMatches, Schema, Table, Tuple};
    use std::sync::Arc;

    /// Builds a verification scenario: 40 A-tuples, 40 B-tuples where
    /// (i, i) are matches for i < n_matches; candidates are all (i, i)
    /// plus decoys (i, i+1).
    fn scenario(n_matches: u32) -> (Table, Table, GoldMatches, CandidateUnion) {
        let schema = Arc::new(Schema::from_names(["name", "city"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", schema);
        for i in 0..40u32 {
            a.push(Tuple::from_present([
                format!("person{} smith{}", i, i),
                format!("city{}", i % 5),
            ]));
            b.push(Tuple::from_present([
                format!("person{} smith{}", i, i),
                format!("city{}", i % 5),
            ]));
        }
        let gold = GoldMatches::from_pairs((0..n_matches).map(|i| (i, i)));
        let mut l = TopKList::new(200);
        for i in 0..40u32 {
            l.insert(0.9 - i as f64 * 0.001, pair_key(i, i));
            l.insert(0.5 - i as f64 * 0.001, pair_key(i, (i + 1) % 40));
        }
        let union = CandidateUnion::build(&[l]);
        (a, b, gold, union)
    }

    fn extractor_parts(a: &Table, b: &Table) -> (Vec<AttrId>, TokenizedTable, TokenizedTable) {
        let attrs = vec![AttrId(0), AttrId(1)];
        let (ta, tb, _) = TokenizedTable::build_pair(a, b, &attrs, Tokenizer::Word);
        (attrs, ta, tb)
    }

    #[test]
    fn finds_most_matches_before_stopping() {
        let (a, b, gold, union) = scenario(25);
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let mut oracle = GoldOracle::exact(&gold);
        let params = VerifierParams {
            n_per_iter: 10,
            ..Default::default()
        };
        let out = run_verifier(&union, &fx, &mut oracle, &params);
        assert!(
            out.matches.len() >= 20,
            "verifier found only {}/25 matches",
            out.matches.len()
        );
        assert_eq!(
            out.labeled,
            out.iterations.iter().map(|r| r.shown).sum::<usize>()
        );
    }

    #[test]
    fn stops_after_consecutive_empty_iterations() {
        let (a, b, _, union) = scenario(0);
        let gold = GoldMatches::new(); // nothing is a match
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let mut oracle = GoldOracle::exact(&gold);
        let params = VerifierParams {
            n_per_iter: 10,
            stop_after_empty: 2,
            ..Default::default()
        };
        let out = run_verifier(&union, &fx, &mut oracle, &params);
        assert_eq!(out.iterations.len(), 2);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn empty_union_returns_immediately() {
        let (a, b, gold, _) = scenario(1);
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let union = CandidateUnion::build(&[]);
        let mut oracle = GoldOracle::exact(&gold);
        let out = run_verifier(&union, &fx, &mut oracle, &VerifierParams::default());
        assert!(out.iterations.is_empty());
        assert_eq!(oracle.labels_given(), 0);
    }

    #[test]
    fn all_strategies_find_the_obvious_matches() {
        for strategy in [
            RankStrategy::Learning,
            RankStrategy::Wmr,
            RankStrategy::MedRank,
        ] {
            let (a, b, gold, union) = scenario(10);
            let (attrs, ta, tb) = extractor_parts(&a, &b);
            let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
            let mut oracle = GoldOracle::exact(&gold);
            let params = VerifierParams {
                n_per_iter: 10,
                strategy,
                ..Default::default()
            };
            let out = run_verifier(&union, &fx, &mut oracle, &params);
            assert!(
                out.matches.len() >= 8,
                "{strategy:?} found only {}",
                out.matches.len()
            );
        }
    }

    #[test]
    fn never_labels_a_pair_twice() {
        let (a, b, gold, union) = scenario(15);
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let mut oracle = GoldOracle::exact(&gold);
        let params = VerifierParams {
            n_per_iter: 7,
            ..Default::default()
        };
        let out = run_verifier(&union, &fx, &mut oracle, &params);
        assert!(out.labeled <= union.len());
        // matches are unique
        let mut m = out.matches.clone();
        m.sort_unstable();
        m.dedup();
        assert_eq!(m.len(), out.matches.len());
    }

    #[test]
    fn a_batch_size_past_the_union_labels_it_once() {
        // `n_per_iter` comes from requests; only the union may size a
        // batch (a batch sized by n alone would abort on allocation).
        let (a, b, gold, union) = scenario(25);
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        for strategy in [
            RankStrategy::Learning,
            RankStrategy::Wmr,
            RankStrategy::MedRank,
        ] {
            let mut oracle = GoldOracle::exact(&gold);
            let params = VerifierParams {
                n_per_iter: usize::MAX / 2,
                strategy,
                ..Default::default()
            };
            let out = run_verifier(&union, &fx, &mut oracle, &params);
            assert_eq!(out.iterations.len(), 1, "{strategy:?}");
            assert_eq!(out.labeled, union.len(), "{strategy:?}");
            assert_eq!(out.matches.len(), 25, "{strategy:?}");
        }
    }

    #[test]
    fn matches_in_first_counts_prefix() {
        let out = VerifyOutcome {
            matches: vec![],
            iterations: vec![
                IterationRecord {
                    shown: 10,
                    matches_found: 4,
                },
                IterationRecord {
                    shown: 10,
                    matches_found: 2,
                },
                IterationRecord {
                    shown: 10,
                    matches_found: 1,
                },
            ],
            labeled: 30,
        };
        assert_eq!(out.matches_in_first(2), 6);
        assert_eq!(out.matches_in_first(10), 7);
        assert_eq!(out.iteration_count(), 3);
    }
}
