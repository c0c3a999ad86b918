//! CART decision trees for binary classification.
//!
//! Trees split on `feature ≤ threshold` minimizing weighted Gini impurity.
//! At each split a random subset of features is considered (the random
//! forest's decorrelation device); single trees can pass
//! `features_per_split = all`.
//!
//! Training is generic over [`Samples`](crate::data::Samples): the same
//! growing core fits owned `Vec<f64>` rows and index slices into a shared
//! flat matrix (the forest's clone-free bootstrap path). Because splits
//! are only placed between *distinct* sorted feature values, a node's
//! subtree depends on the multiset of its samples, not their order — so
//! passing bootstrap picks directly as the root index list yields the
//! same tree as materializing the resampled rows.

use crate::data::{Samples, VecSamples};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Training hyperparameters for a single tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features considered per split; `0` means all.
    pub features_per_split: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 8,
            min_samples_split: 2,
            features_per_split: 0,
        }
    }
}

/// Reusable per-worker buffers for tree growth: the feature-subset list
/// and the sorted `(value, label)` column. One scratch per fitting thread
/// keeps the hot refit loop allocation-free across nodes and trees.
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    features: Vec<usize>,
    column: Vec<(f64, bool)>,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Fraction of positive training samples reaching this leaf.
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child (`feature ≤ threshold`) in `nodes`.
        left: usize,
        /// Index of the right child in `nodes`.
        right: usize,
    },
}

/// A trained binary decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on row-major features `x` and boolean labels `y`.
    ///
    /// `rng` drives feature subsampling. Panics if `x` and `y` have
    /// different lengths or `x` is empty.
    pub fn fit(x: &[Vec<f64>], y: &[bool], params: &TreeParams, rng: &mut StdRng) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot fit a tree on zero samples");
        let idx: Vec<usize> = (0..x.len()).collect();
        Self::fit_samples(
            &VecSamples { x, y },
            idx,
            params,
            rng,
            &mut TreeScratch::default(),
        )
    }

    /// Fits a tree on the samples selected by `idx` (duplicates allowed —
    /// this is how bootstrap resampling enters without cloning rows).
    pub(crate) fn fit_samples<S: Samples>(
        samples: &S,
        mut idx: Vec<usize>,
        params: &TreeParams,
        rng: &mut StdRng,
        scratch: &mut TreeScratch,
    ) -> Self {
        assert!(!idx.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features: samples.n_features(),
        };
        tree.grow(samples, &mut idx, 0, params, rng, scratch);
        tree
    }

    /// Probability estimate that `sample` is positive (the positive
    /// fraction of its leaf).
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        debug_assert_eq!(sample.len(), self.n_features);
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if sample[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Hard classification: leaf probability > 0.5.
    pub fn predict(&self, sample: &[f64]) -> bool {
        self.predict_proba(sample) > 0.5
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// How many internal nodes split on each feature (a cheap
    /// split-frequency importance signal; see
    /// [`crate::forest::RandomForest::feature_importance`]).
    pub fn split_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_features];
        for n in &self.nodes {
            if let Node::Split { feature, .. } = n {
                counts[*feature] += 1;
            }
        }
        counts
    }

    /// Grows the subtree for `idx`, returning its node index. A split
    /// partitions `idx` in place into its two children's runs; the order
    /// inside a run is arbitrary, which is safe because a subtree depends
    /// only on the multiset of its samples (see the module docs).
    fn grow<S: Samples>(
        &mut self,
        samples: &S,
        idx: &mut [usize],
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
        scratch: &mut TreeScratch,
    ) -> usize {
        let positives = idx.iter().filter(|&&i| samples.label(i)).count();
        let prob = positives as f64 / idx.len() as f64;
        let pure = positives == 0 || positives == idx.len();
        if pure || depth >= params.max_depth || idx.len() < params.min_samples_split {
            self.nodes.push(Node::Leaf { prob });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = self.best_split(samples, idx, params, rng, scratch) else {
            self.nodes.push(Node::Leaf { prob });
            return self.nodes.len() - 1;
        };
        let mut n_left = 0;
        for k in 0..idx.len() {
            if samples.feature(idx[k], feature) <= threshold {
                idx.swap(n_left, k);
                n_left += 1;
            }
        }
        let (li, ri) = idx.split_at_mut(n_left);
        debug_assert!(!li.is_empty() && !ri.is_empty());
        // Reserve a slot for this split node before growing children.
        let at = self.nodes.len();
        self.nodes.push(Node::Leaf { prob }); // placeholder
        let left = self.grow(samples, li, depth + 1, params, rng, scratch);
        let right = self.grow(samples, ri, depth + 1, params, rng, scratch);
        self.nodes[at] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    /// The `(feature, threshold)` minimizing weighted Gini impurity over a
    /// random feature subset; `None` if no split separates the samples.
    fn best_split<S: Samples>(
        &self,
        samples: &S,
        idx: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
        scratch: &mut TreeScratch,
    ) -> Option<(usize, f64)> {
        let TreeScratch { features, column } = scratch;
        features.clear();
        features.extend(0..self.n_features);
        let take = if params.features_per_split == 0 {
            self.n_features
        } else {
            params.features_per_split.min(self.n_features)
        };
        if take < self.n_features {
            features.shuffle(rng);
            features.truncate(take);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gini)
        let total = idx.len() as f64;
        for &f in features.iter() {
            column.clear();
            column.extend(
                idx.iter()
                    .map(|&i| (samples.feature(i, f), samples.label(i))),
            );
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let total_pos = column.iter().filter(|(_, l)| *l).count() as f64;
            let mut left_n = 0f64;
            let mut left_pos = 0f64;
            for w in 0..column.len() - 1 {
                left_n += 1.0;
                if column[w].1 {
                    left_pos += 1.0;
                }
                // Only split between distinct values.
                if column[w].0 == column[w + 1].0 {
                    continue;
                }
                let right_n = total - left_n;
                let right_pos = total_pos - left_pos;
                let gini = |n: f64, pos: f64| {
                    if n == 0.0 {
                        0.0
                    } else {
                        let p = pos / n;
                        2.0 * p * (1.0 - p)
                    }
                };
                let weighted = left_n / total * gini(left_n, left_pos)
                    + right_n / total * gini(right_n, right_pos);
                let threshold = (column[w].0 + column[w + 1].0) / 2.0;
                if best.as_ref().is_none_or(|&(_, _, g)| weighted < g - 1e-12) {
                    best = Some((f, threshold, weighted));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn fits_a_linearly_separable_problem() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let t = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng());
        assert!(!t.predict(&[3.0]));
        assert!(t.predict(&[33.0]));
        assert_eq!(t.predict_proba(&[0.0]), 0.0);
        assert_eq!(t.predict_proba(&[39.0]), 1.0);
    }

    #[test]
    fn pure_node_is_a_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![true, true, true];
        let t = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_proba(&[0.0]), 1.0);
    }

    #[test]
    fn respects_max_depth() {
        // Alternating labels on one feature need many splits; depth 1
        // allows at most 3 nodes.
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let t = DecisionTree::fit(&x, &y, &params, &mut rng());
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn xor_needs_depth_two() {
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![false, true, true, false];
        let t = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng());
        for (xi, yi) in x.iter().zip(&y) {
            assert_eq!(t.predict(xi), *yi, "sample {xi:?}");
        }
    }

    #[test]
    fn identical_features_yield_leaf() {
        let x = vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]];
        let y = vec![true, false, true, false];
        let t = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng());
        assert_eq!(t.node_count(), 1);
        assert!((t.predict_proba(&[5.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_training_set_panics() {
        let _ = DecisionTree::fit(&[], &[], &TreeParams::default(), &mut rng());
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<bool> = (0..30).map(|i| i % 7 > 3).collect();
        let p = TreeParams {
            features_per_split: 1,
            ..TreeParams::default()
        };
        let t1 = DecisionTree::fit(&x, &y, &p, &mut StdRng::seed_from_u64(3));
        let t2 = DecisionTree::fit(&x, &y, &p, &mut StdRng::seed_from_u64(3));
        assert_eq!(t1, t2);
        for s in &x {
            assert_eq!(t1.predict_proba(s), t2.predict_proba(s));
        }
    }

    #[test]
    fn tree_depends_only_on_the_sample_multiset() {
        // `grow` partitions its index slice in place, so children see
        // their samples in an arbitrary order; any order of the same
        // bootstrap multiset must grow the same tree.
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64, ((i * 5) % 11) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<bool> = (0..40).map(|i| (i % 7) * 2 + (i % 3) > 6).collect();
        let samples = VecSamples { x: &x, y: &y };
        let params = TreeParams {
            features_per_split: 2,
            ..TreeParams::default()
        };
        let mut picks: Vec<usize> = (0..60).map(|i| (i * 17 + 3) % 40).collect();
        let fit = |idx: Vec<usize>| {
            let mut rng = StdRng::seed_from_u64(5);
            DecisionTree::fit_samples(
                &samples,
                idx,
                &params,
                &mut rng,
                &mut TreeScratch::default(),
            )
        };
        let want = fit(picks.clone());
        assert!(want.node_count() > 3, "the fixture must split");
        for round in 0..5u64 {
            picks.shuffle(&mut StdRng::seed_from_u64(round));
            assert_eq!(fit(picks.clone()), want, "order {round}");
        }
    }

    #[test]
    fn matrix_samples_match_owned_rows() {
        // The same data through the flat-matrix path (with an index
        // mapping that shuffles row storage order) must grow the same
        // tree as the owned-row path.
        use crate::data::{MatrixSamples, RowsView};
        let x: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![(i % 5) as f64, ((i * 3) % 7) as f64])
            .collect();
        let y: Vec<bool> = (0..24).map(|i| (i % 5) >= 2).collect();
        let owned = DecisionTree::fit(&x, &y, &TreeParams::default(), &mut rng());

        // Store rows back-to-front in the flat buffer; idx maps sample
        // position to its storage row.
        let n = x.len();
        let mut buf = vec![0.0; n * 2];
        for (i, row) in x.iter().enumerate() {
            buf[(n - 1 - i) * 2..(n - i) * 2].copy_from_slice(row);
        }
        let idx: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let samples = MatrixSamples {
            rows: RowsView::new(&buf, 2),
            idx: &idx,
            y: &y,
        };
        let flat = DecisionTree::fit_samples(
            &samples,
            (0..n).collect(),
            &TreeParams::default(),
            &mut rng(),
            &mut TreeScratch::default(),
        );
        assert_eq!(owned, flat);
    }
}
