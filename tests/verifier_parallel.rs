//! Determinism guarantees of the parallel verifier stack: the flat
//! feature matrix, the per-tree-seeded random forest, and `run_verifier`
//! itself must produce identical results at any worker-thread count —
//! and the whole new pipeline must reproduce the pre-change serial
//! implementation (replicated here from the seed revision as a reference
//! oracle) on the standard `scenario()` fixtures.

// The per-node-sort tree grower the rank-encoded core replaced, shared
// with mc-ml's own equivalence tests.
#[path = "../crates/ml/src/reference.rs"]
mod reference;

use matchcatcher::features::{FeatureExtractor, FeatureMatrix};
use matchcatcher::joint::CandidateUnion;
use matchcatcher::oracle::{GoldOracle, Oracle};
use matchcatcher::rank::{medrank_order, RankedLists};
use matchcatcher::ssj::TopKList;
use matchcatcher::verify::{run_verifier, RankStrategy, VerifierParams, VerifyOutcome};
use mc_ml::{ForestParams, RandomForest, RankMatrix, RowsView};
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_table::{pair_key, split_pair_key, AttrId, GoldMatches, Schema, Table, Tuple};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use reference::{RefParams, RefTree};
use std::sync::Arc;

/// The verification scenario from `verify.rs`'s unit tests: 40 A/B
/// tuples where (i, i) are matches for i < n_matches, with (i, i+1)
/// decoys.
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

fn run_with_threads(
    union: &CandidateUnion,
    fx: &FeatureExtractor<'_>,
    gold: &GoldMatches,
    strategy: RankStrategy,
    threads: usize,
) -> VerifyOutcome {
    let mut oracle = GoldOracle::exact(gold);
    let params = VerifierParams {
        n_per_iter: 10,
        strategy,
        forest: ForestParams {
            threads,
            ..ForestParams::default()
        },
        ..Default::default()
    };
    run_verifier(union, fx, &mut oracle, &params)
}

#[test]
fn verify_outcome_is_thread_count_invariant() {
    for n_matches in [0, 10, 25] {
        let (a, b, gold, union) = scenario(n_matches);
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        for strategy in [
            RankStrategy::Learning,
            RankStrategy::Wmr,
            RankStrategy::MedRank,
        ] {
            let serial = run_with_threads(&union, &fx, &gold, strategy, 1);
            for threads in [2, 8] {
                let parallel = run_with_threads(&union, &fx, &gold, strategy, threads);
                assert_eq!(
                    serial, parallel,
                    "{strategy:?} with {n_matches} matches diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn feature_matrix_equals_extractor_on_randomized_pairs() {
    let (a, b, _, _) = scenario(12);
    let (attrs, ta, tb) = extractor_parts(&a, &b);
    let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for trial in 0..5 {
        let n_pairs = rng.random_range(1usize..400);
        let pairs: Vec<u64> = (0..n_pairs)
            .map(|_| pair_key(rng.random_range(0..40), rng.random_range(0..40)))
            .collect();
        let mut m = FeatureMatrix::new(pairs.len(), fx.n_features());
        // Build in randomized increments with randomized thread counts;
        // chunks must come out identical to direct extraction.
        let mut built_to = 0usize;
        while built_to < pairs.len() {
            built_to += rng.random_range(1..=pairs.len());
            m.ensure_upto(
                built_to.min(pairs.len()),
                &pairs,
                &fx,
                rng.random_range(1..5),
            );
        }
        for (i, &key) in pairs.iter().enumerate() {
            let (x, y) = split_pair_key(key);
            assert_eq!(
                m.row(i),
                fx.features(x, y).as_slice(),
                "trial {trial}, row {i}"
            );
        }
    }
}

#[test]
fn forest_fit_is_bit_identical_across_thread_counts_on_scenario_features() {
    let (a, b, gold, union) = scenario(20);
    let (attrs, ta, tb) = extractor_parts(&a, &b);
    let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
    let x: Vec<Vec<f64>> = union
        .pairs
        .iter()
        .map(|&k| {
            let (i, j) = split_pair_key(k);
            fx.features(i, j)
        })
        .collect();
    let y: Vec<bool> = union
        .pairs
        .iter()
        .map(|&k| {
            let (i, j) = split_pair_key(k);
            gold.is_match(i, j)
        })
        .collect();
    let serial = RandomForest::fit(
        &x,
        &y,
        &ForestParams {
            threads: 1,
            ..ForestParams::default()
        },
    );
    for threads in [2, 8] {
        let parallel = RandomForest::fit(
            &x,
            &y,
            &ForestParams {
                threads,
                ..ForestParams::default()
            },
        );
        assert_eq!(serial, parallel, "forest diverged at {threads} threads");
    }
    // The flat-matrix path must grow the same trees as the owned-row path.
    let buf: Vec<f64> = x.iter().flatten().copied().collect();
    let rows = RankMatrix::new(RowsView::new(&buf, fx.n_features()));
    let idx: Vec<usize> = (0..x.len()).collect();
    let matrix_fit = RandomForest::fit_matrix(
        &rows,
        &idx,
        &y,
        &ForestParams {
            threads: 4,
            ..ForestParams::default()
        },
    );
    assert_eq!(serial, matrix_fit);
}

// ─── Pre-change reference implementation ────────────────────────────────
//
// A faithful replica of the seed revision's serial verifier: the shared
// sequential forest rng (bootstrap rows cloned per tree from one
// `StdRng` stream, each tree grown by the per-node-sort reference
// grower), lazily extracted per-candidate feature vectors, and full-sort
// batch selection. The new pipeline must reproduce its exact
// `VerifyOutcome` on the scenario fixtures.

struct OldForest {
    trees: Vec<RefTree>,
}

impl OldForest {
    fn fit(x: &[Vec<f64>], y: &[bool], params: &ForestParams) -> Self {
        let n_features = x[0].len();
        let per_split = if params.features_per_split == 0 {
            (n_features as f64).sqrt().ceil() as usize
        } else {
            params.features_per_split
        };
        let tree_params = RefParams {
            max_depth: params.max_depth,
            min_samples_split: params.min_samples_split,
            features_per_split: per_split.max(1),
        };
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut bx: Vec<Vec<f64>> = Vec::with_capacity(x.len());
        let mut by: Vec<bool> = Vec::with_capacity(x.len());
        for _ in 0..params.n_trees {
            bx.clear();
            by.clear();
            for _ in 0..x.len() {
                let i = rng.random_range(0..x.len());
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            let all = (0..bx.len()).collect();
            trees.push(RefTree::fit(&bx, &by, all, tree_params, &mut rng));
        }
        OldForest { trees }
    }

    fn confidence(&self, sample: &[f64]) -> f64 {
        let votes = self
            .trees
            .iter()
            .filter(|t| t.predict_proba(sample) > 0.5)
            .count();
        votes as f64 / self.trees.len() as f64
    }

    fn mean_proba(&self, sample: &[f64]) -> f64 {
        self.trees
            .iter()
            .map(|t| t.predict_proba(sample))
            .sum::<f64>()
            / self.trees.len() as f64
    }
}

fn old_hybrid_batch(scored: &[(usize, f64, f64)], n: usize) -> Vec<usize> {
    let n_controversial = (n / 4).max(1);
    let mut by_uncertainty: Vec<&(usize, f64, f64)> = scored.iter().collect();
    by_uncertainty.sort_by(|a, b| {
        let ua = (a.1 - 0.5).abs();
        let ub = (b.1 - 0.5).abs();
        ua.total_cmp(&ub).then(a.0.cmp(&b.0))
    });
    let mut batch: Vec<usize> = by_uncertainty
        .iter()
        .take(n_controversial)
        .map(|t| t.0)
        .collect();
    let mut by_conf: Vec<&(usize, f64, f64)> = scored.iter().collect();
    by_conf.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(b.2.total_cmp(&a.2))
            .then(a.0.cmp(&b.0))
    });
    for t in by_conf {
        if batch.len() >= n {
            break;
        }
        if !batch.contains(&t.0) {
            batch.push(t.0);
        }
    }
    batch
}

/// The seed revision's `run_verifier` for the Learning strategy,
/// returning `(matches, (shown, found) per iteration, labeled)`.
fn old_run_verifier_learning(
    union: &CandidateUnion,
    fx: &FeatureExtractor<'_>,
    oracle: &mut dyn Oracle,
    params: &VerifierParams,
) -> (Vec<u64>, Vec<(usize, usize)>, usize) {
    let items = union.len();
    let mut matches = Vec::new();
    let mut iterations = Vec::new();
    let mut labeled = 0usize;
    if items == 0 {
        return (matches, iterations, labeled);
    }
    let ranked = RankedLists::from_union(union);
    let base_order = medrank_order(&ranked);
    let mut labels: Vec<Option<bool>> = vec![None; items];
    let mut features: Vec<Option<Vec<f64>>> = vec![None; items];
    let mut al_rounds_done = 0usize;
    let mut empty_streak = 0usize;
    let n = params.n_per_iter.max(1);

    let feature_of = |i: usize, cache: &mut Vec<Option<Vec<f64>>>| -> Vec<f64> {
        if cache[i].is_none() {
            let (a, b) = split_pair_key(union.pairs[i]);
            cache[i] = Some(fx.features(a, b));
        }
        cache[i].clone().unwrap()
    };

    while iterations.len() < params.max_iters {
        let unlabeled: Vec<usize> = (0..items).filter(|&i| labels[i].is_none()).collect();
        if unlabeled.is_empty() {
            break;
        }
        let have_pos = labels.contains(&Some(true));
        let have_neg = labels.contains(&Some(false));
        let batch: Vec<usize> = if !(have_pos && have_neg) {
            base_order
                .iter()
                .copied()
                .filter(|&i| labels[i].is_none())
                .take(n)
                .collect()
        } else {
            let (x, y): (Vec<Vec<f64>>, Vec<bool>) = (0..items)
                .filter_map(|i| labels[i].map(|l| (feature_of(i, &mut features), l)))
                .unzip();
            let f = OldForest::fit(&x, &y, &params.forest);
            let scored: Vec<(usize, f64, f64)> = unlabeled
                .iter()
                .map(|&i| {
                    let feats = feature_of(i, &mut features);
                    (i, f.confidence(&feats), f.mean_proba(&feats))
                })
                .collect();
            if al_rounds_done < params.al_iters {
                al_rounds_done += 1;
                old_hybrid_batch(&scored, n)
            } else {
                let mut by_conf = scored;
                by_conf.sort_by(|a, b| {
                    b.1.total_cmp(&a.1)
                        .then(b.2.total_cmp(&a.2))
                        .then(a.0.cmp(&b.0))
                });
                by_conf.into_iter().take(n).map(|(i, _, _)| i).collect()
            }
        };
        if batch.is_empty() {
            break;
        }
        let mut found = 0usize;
        for &i in &batch {
            let (a, b) = split_pair_key(union.pairs[i]);
            let is_match = oracle.is_match(a, b);
            labels[i] = Some(is_match);
            labeled += 1;
            if is_match {
                found += 1;
                matches.push(union.pairs[i]);
            }
        }
        iterations.push((batch.len(), found));
        if found == 0 {
            empty_streak += 1;
            if empty_streak >= params.stop_after_empty {
                break;
            }
        } else {
            empty_streak = 0;
        }
    }
    (matches, iterations, labeled)
}

#[test]
fn new_verifier_reproduces_prechange_serial_outcomes() {
    for n_matches in [0, 10, 25] {
        let (a, b, gold, union) = scenario(n_matches);
        let (attrs, ta, tb) = extractor_parts(&a, &b);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let params = VerifierParams {
            n_per_iter: 10,
            ..Default::default()
        };

        let mut old_oracle = GoldOracle::exact(&gold);
        let (old_matches, old_iters, old_labeled) =
            old_run_verifier_learning(&union, &fx, &mut old_oracle, &params);

        for threads in [1, 4] {
            let mut p = params;
            p.forest.threads = threads;
            let mut oracle = GoldOracle::exact(&gold);
            let new = run_verifier(&union, &fx, &mut oracle, &p);
            assert_eq!(
                new.matches, old_matches,
                "matches diverged from the pre-change implementation \
                 ({n_matches} matches, {threads} threads)"
            );
            let new_iters: Vec<(usize, usize)> = new
                .iterations
                .iter()
                .map(|r| (r.shown, r.matches_found))
                .collect();
            assert_eq!(new_iters, old_iters, "iteration records diverged");
            assert_eq!(new.labeled, old_labeled, "label count diverged");
        }
    }
}
