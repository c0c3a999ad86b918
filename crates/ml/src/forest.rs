//! Random forests: bagged CART trees with feature subsampling.
//!
//! The verifier's signal is [`RandomForest::confidence`] — the fraction of
//! trees voting "match" — exactly the paper's definition of positive
//! prediction confidence (§5, "the fraction of decision trees in F that
//! predict the item as a match").
//!
//! Fitting and batch scoring fan out over the CPU budget
//! ([`mc_obs::par`]) and are
//! **bit-identical at any thread count**: tree `t` is grown from its own
//! `StdRng` seeded by a per-tree derivation of the base seed, so no tree's
//! randomness depends on how work was scheduled, and batch scores are
//! written into disjoint per-chunk output slices. Bootstrap samples are
//! index lists into shared training data ([`RowsView`]) — resampling
//! never clones a row.

use crate::data::{MatrixSamples, RowsView, Samples, VecSamples};
use crate::tree::{DecisionTree, TreeParams, TreeScratch};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rows scored per unit of parallel predict work (and per
/// `mc.ml.forest.predict_chunk_us` histogram observation).
const PREDICT_CHUNK: usize = 256;

/// One unit of batch-scoring work: input row ids and their output slots.
type ScoreJob<'i, 'o> = (&'i [usize], &'o mut [(f64, f64)]);

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Features per split; `0` = `ceil(sqrt(n_features))`.
    pub features_per_split: usize,
    /// Seed for bagging and feature sampling (the forest is fully
    /// deterministic given this seed and the training data, regardless
    /// of `threads`).
    pub seed: u64,
    /// Upper bound on the workers of fitting and batch scoring; `0` =
    /// all cores. The CPU budget may grant fewer. Never affects results,
    /// only wall-clock.
    pub threads: usize,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 10,
            max_depth: 8,
            min_samples_split: 2,
            features_per_split: 0,
            seed: 0x5eed,
            threads: 0,
        }
    }
}

/// The seed for tree `t`'s private rng. XOR with an odd multiplier of the
/// (1-based) tree index spreads consecutive trees across the seed space;
/// `StdRng::seed_from_u64` then runs it through SplitMix64, so even
/// adjacent derived seeds yield unrelated streams.
fn tree_seed(base: u64, t: usize) -> u64 {
    base ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A trained random forest for binary classification.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Fits a forest on row-major features `x` and labels `y`.
    ///
    /// Each tree sees a bootstrap sample (with replacement) of the training
    /// rows; splits consider a random feature subset of size
    /// `features_per_split` (default `ceil(sqrt(n_features))`).
    pub fn fit(x: &[Vec<f64>], y: &[bool], params: &ForestParams) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot fit a forest on zero samples");
        Self::fit_impl(&VecSamples { x, y }, params)
    }

    /// Fits a forest where training sample `s` is row `idx[s]` of the flat
    /// matrix `rows`, labeled `y[s]`. This is the verifier's refit path:
    /// the matrix is built once and every refit only touches index lists.
    pub fn fit_matrix(
        rows: RowsView<'_>,
        idx: &[usize],
        y: &[bool],
        params: &ForestParams,
    ) -> Self {
        assert_eq!(idx.len(), y.len(), "index/label length mismatch");
        assert!(!idx.is_empty(), "cannot fit a forest on zero samples");
        Self::fit_impl(&MatrixSamples { rows, idx, y }, params)
    }

    fn fit_impl<S: Samples + Sync>(samples: &S, params: &ForestParams) -> Self {
        let _span = mc_obs::span!("mc.ml.forest.fit_par");
        let n_features = samples.n_features();
        let per_split = if params.features_per_split == 0 {
            (n_features as f64).sqrt().ceil() as usize
        } else {
            params.features_per_split
        };
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_split: params.min_samples_split,
            features_per_split: per_split.max(1),
        };
        let m = samples.n_samples();

        let fit_one = |t: usize, scratch: &mut TreeScratch| -> DecisionTree {
            let mut rng = StdRng::seed_from_u64(tree_seed(params.seed, t));
            let picks: Vec<usize> = (0..m).map(|_| rng.random_range(0..m)).collect();
            // Single-class bootstrap samples still produce a valid
            // (leaf-only) tree, so no stratification is needed.
            DecisionTree::fit_samples(samples, picks, &tree_params, &mut rng, scratch)
        };

        // Deterministic parallel fit: slot t only ever receives tree t,
        // so the assembled forest is independent of scheduling.
        let slots: Vec<OnceLock<DecisionTree>> =
            (0..params.n_trees).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        mc_obs::par::fan_out(params.threads, params.n_trees, || {
            let mut scratch = TreeScratch::default();
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= params.n_trees {
                    break;
                }
                let _ = slots[t].set(fit_one(t, &mut scratch));
            }
        });
        let trees = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every tree slot filled"))
            .collect();
        RandomForest { trees }
    }

    /// One pass over the trees computing `(confidence, mean_proba)` —
    /// half the tree walks of calling [`RandomForest::confidence`] and
    /// [`RandomForest::mean_proba`] separately.
    pub fn score(&self, sample: &[f64]) -> (f64, f64) {
        let mut votes = 0usize;
        let mut proba_sum = 0f64;
        for t in &self.trees {
            let p = t.predict_proba(sample);
            if p > 0.5 {
                votes += 1;
            }
            proba_sum += p;
        }
        let n = self.trees.len() as f64;
        (votes as f64 / n, proba_sum / n)
    }

    /// `(confidence, mean_proba)` for each row of `rows` selected by
    /// `idx`, scored in parallel chunks of `PREDICT_CHUNK` rows across
    /// up to `threads` workers (`0` = all cores). Row order is preserved and
    /// results are identical at any thread count.
    pub fn score_batch(
        &self,
        rows: RowsView<'_>,
        idx: &[usize],
        threads: usize,
    ) -> Vec<(f64, f64)> {
        let mut out = vec![(0.0, 0.0); idx.len()];
        self.score_batch_into(rows, idx, threads, &mut out);
        out
    }

    /// [`RandomForest::score_batch`] writing into a caller-owned buffer,
    /// for allocation-free steady-state loops. `out.len()` must equal
    /// `idx.len()`.
    pub fn score_batch_into(
        &self,
        rows: RowsView<'_>,
        idx: &[usize],
        threads: usize,
        out: &mut [(f64, f64)],
    ) {
        assert_eq!(idx.len(), out.len(), "index/output length mismatch");
        if idx.is_empty() {
            return;
        }
        let score_chunk = |ids: &[usize], outs: &mut [(f64, f64)]| {
            let start = std::time::Instant::now();
            for (o, &i) in outs.iter_mut().zip(ids) {
                *o = self.score(rows.row(i));
            }
            mc_obs::histogram!("mc.ml.forest.predict_chunk_us")
                .record(start.elapsed().as_micros() as u64);
        };

        let mut jobs: Vec<ScoreJob<'_, '_>> = idx
            .chunks(PREDICT_CHUNK)
            .zip(out.chunks_mut(PREDICT_CHUNK))
            .collect();
        let per = mc_obs::par::share_len(jobs.len(), threads);
        let mut shares: Vec<_> = jobs.chunks_mut(per).collect();
        mc_obs::par::for_each(&mut shares, threads, |share| {
            for (ids, outs) in share.iter_mut() {
                score_chunk(ids, outs);
            }
        });
    }

    /// Confidence for each selected row; see [`RandomForest::score_batch`].
    pub fn confidence_batch(&self, rows: RowsView<'_>, idx: &[usize], threads: usize) -> Vec<f64> {
        self.score_batch(rows, idx, threads)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// Mean leaf probability for each selected row; see
    /// [`RandomForest::score_batch`].
    pub fn proba_batch(&self, rows: RowsView<'_>, idx: &[usize], threads: usize) -> Vec<f64> {
        self.score_batch(rows, idx, threads)
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    /// Fraction of trees classifying `sample` as positive — the verifier's
    /// "positive prediction confidence".
    pub fn confidence(&self, sample: &[f64]) -> f64 {
        let votes = self.trees.iter().filter(|t| t.predict(sample)).count();
        votes as f64 / self.trees.len() as f64
    }

    /// Mean leaf probability across trees (a smoother score than
    /// [`RandomForest::confidence`], useful for tie-breaking).
    pub fn mean_proba(&self, sample: &[f64]) -> f64 {
        self.trees
            .iter()
            .map(|t| t.predict_proba(sample))
            .sum::<f64>()
            / self.trees.len() as f64
    }

    /// Hard classification by majority vote.
    pub fn predict(&self, sample: &[f64]) -> bool {
        self.confidence(sample) > 0.5
    }

    /// Uncertainty of a sample: distance of confidence from 0.5, negated
    /// so that *higher = more controversial*. Active learning asks for the
    /// samples with the highest uncertainty.
    pub fn uncertainty(&self, sample: &[f64]) -> f64 {
        0.5 - (self.confidence(sample) - 0.5).abs()
    }

    /// Split-frequency feature importance: the fraction of split nodes
    /// across the forest that test each feature (sums to 1 when any
    /// splits exist). A cheap, monotone proxy for impurity-decrease
    /// importance, used to tell the user which attributes drive the
    /// match/non-match decision.
    pub fn feature_importance(&self) -> Vec<f64> {
        let n_features = self.trees.first().map_or(0, |t| t.n_features());
        let mut totals = vec![0usize; n_features];
        for t in &self.trees {
            for (f, c) in t.split_counts().into_iter().enumerate() {
                totals[f] += c;
            }
        }
        let sum: usize = totals.iter().sum();
        if sum == 0 {
            return vec![0.0; n_features];
        }
        totals.into_iter().map(|c| c as f64 / sum as f64).collect()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 10) as f64, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<bool> = x.iter().map(|r| r[0] >= 5.0).collect();
        (x, y)
    }

    fn flat(x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().flatten().copied().collect()
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = separable(200);
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, yi)| f.predict(xi) == **yi)
            .count();
        assert!(
            correct as f64 / x.len() as f64 > 0.95,
            "accuracy {correct}/{}",
            x.len()
        );
    }

    #[test]
    fn confidence_in_unit_interval() {
        let (x, y) = separable(50);
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        for s in &x {
            let c = f.confidence(s);
            assert!((0.0..=1.0).contains(&c));
            let p = f.mean_proba(s);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn uncertainty_peaks_at_half() {
        let (x, y) = separable(100);
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        for s in &x {
            let u = f.uncertainty(s);
            assert!((0.0..=0.5).contains(&u));
            assert!((u - (0.5 - (f.confidence(s) - 0.5).abs())).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = separable(80);
        let p = ForestParams {
            seed: 42,
            ..ForestParams::default()
        };
        let f1 = RandomForest::fit(&x, &y, &p);
        let f2 = RandomForest::fit(&x, &y, &p);
        assert_eq!(f1, f2);
        for s in &x {
            assert_eq!(f1.confidence(s), f2.confidence(s));
        }
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = separable(120);
        for threads in [2, 3, 8] {
            let serial = RandomForest::fit(
                &x,
                &y,
                &ForestParams {
                    threads: 1,
                    ..ForestParams::default()
                },
            );
            let parallel = RandomForest::fit(
                &x,
                &y,
                &ForestParams {
                    threads,
                    ..ForestParams::default()
                },
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn matrix_fit_matches_vec_fit() {
        let (x, y) = separable(90);
        let buf = flat(&x);
        let rows = RowsView::new(&buf, 2);
        let idx: Vec<usize> = (0..x.len()).collect();
        let p = ForestParams::default();
        let owned = RandomForest::fit(&x, &y, &p);
        let matrix = RandomForest::fit_matrix(rows, &idx, &y, &p);
        assert_eq!(owned, matrix);
    }

    #[test]
    fn score_matches_confidence_and_proba() {
        let (x, y) = separable(60);
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        for s in &x {
            let (c, p) = f.score(s);
            assert_eq!(c, f.confidence(s));
            assert_eq!(p, f.mean_proba(s));
        }
    }

    #[test]
    fn batch_scores_match_single_sample_apis_at_any_thread_count() {
        let (x, y) = separable(700); // > PREDICT_CHUNK rows
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        let buf = flat(&x);
        let rows = RowsView::new(&buf, 2);
        let idx: Vec<usize> = (0..x.len()).rev().collect();
        let expected: Vec<(f64, f64)> = idx.iter().map(|&i| f.score(&x[i])).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                f.score_batch(rows, &idx, threads),
                expected,
                "threads = {threads}"
            );
        }
        let conf: Vec<f64> = expected.iter().map(|&(c, _)| c).collect();
        let proba: Vec<f64> = expected.iter().map(|&(_, p)| p).collect();
        assert_eq!(f.confidence_batch(rows, &idx, 2), conf);
        assert_eq!(f.proba_batch(rows, &idx, 2), proba);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (x, y) = separable(20);
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        let buf = flat(&x);
        let rows = RowsView::new(&buf, 2);
        assert!(f.score_batch(rows, &[], 4).is_empty());
    }

    #[test]
    fn single_class_training_is_stable() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![true, true, true];
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        assert_eq!(f.confidence(&[2.0]), 1.0);
        assert!(f.predict(&[99.0]));
    }

    #[test]
    fn feature_importance_finds_the_signal() {
        // Only feature 0 carries label information.
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i % 10) as f64, ((i * 13 + 5) % 7) as f64])
            .collect();
        let y: Vec<bool> = x.iter().map(|r| r[0] >= 5.0).collect();
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        let imp = f.feature_importance();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(imp[0] > imp[1], "importances {imp:?}");
    }

    #[test]
    fn importance_of_stump_forest_is_zero() {
        let x = vec![vec![1.0], vec![1.0]];
        let y = vec![true, true];
        let f = RandomForest::fit(&x, &y, &ForestParams::default());
        assert_eq!(f.feature_importance(), vec![0.0]);
    }

    #[test]
    fn forest_len() {
        let (x, y) = separable(20);
        let f = RandomForest::fit(
            &x,
            &y,
            &ForestParams {
                n_trees: 5,
                ..Default::default()
            },
        );
        assert_eq!(f.len(), 5);
        assert!(!f.is_empty());
    }
}
