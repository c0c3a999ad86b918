//! CART decision trees for binary classification.
//!
//! Trees split on `feature ≤ threshold` minimizing weighted Gini impurity.
//! At each split a random subset of features is considered (the random
//! forest's decorrelation device); single trees can pass
//! `features_per_split = all`.
//!
//! Every fit runs one core on integer ranks. A fit's rows come as a
//! [`RankMatrix`] whose ranks span only the fit's own distinct values
//! (`RankMatrix::gather`), and a tree weighs each row by how often its
//! bootstrap drew it. A node searches a feature with one counting pass:
//! it tallies its rows' weights per rank, then walks the ranks upward,
//! visiting the boundaries between the node's distinct values in
//! ascending order with the integer counts a per-node sort of the
//! duplicated `(value, label)` samples would hold. So the grown tree is
//! the same, and the search never depends on the order of a node's rows,
//! only on their weighted multiset.

use crate::data::RankMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt as _;

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

/// Reusable per-worker buffers for tree growth: the bootstrap weights,
/// the node row list, the feature subset and the rank tallies. One
/// scratch per fitting thread keeps the refit loop allocation-free across
/// nodes and trees.
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    /// How often the tree's bootstrap drew each row.
    weights: Vec<u32>,
    rows: Vec<u32>,
    features: Vec<usize>,
    /// Per rank (a fit has at most one per row): `[weight, positive
    /// weight]` of the node's rows; all zero between counting passes.
    counts: Vec<[u32; 2]>,
}

impl TreeScratch {
    /// Draws a bootstrap of `n` samples from `0..n` with the same
    /// `random_range` calls a pick list would make, keeping counts.
    pub(crate) fn bootstrap(&mut self, n: usize, rng: &mut StdRng) {
        self.weights.clear();
        self.weights.resize(n, 0);
        for _ in 0..n {
            self.weights[rng.random_range(0..n)] += 1;
        }
    }
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
    /// different lengths, `x` is empty or holds a NaN.
    pub fn fit(x: &[Vec<f64>], y: &[bool], params: &TreeParams, rng: &mut StdRng) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        assert!(!x.is_empty(), "cannot fit a tree on zero samples");
        let mut scratch = TreeScratch {
            weights: vec![1; x.len()],
            ..TreeScratch::default()
        };
        Self::fit_weighted(&RankMatrix::from_rows(x), y, params, rng, &mut scratch)
    }

    /// Fits a tree on the rows of `fit`, labeled `labels`, each counted
    /// `scratch.weights[s]` times (a bootstrap's draws, without the
    /// duplicated pick list). `fit` must hold ranks below its row count,
    /// as [`RankMatrix::gather`] and [`RankMatrix::from_rows`] do.
    pub(crate) fn fit_weighted(
        fit: &RankMatrix,
        labels: &[bool],
        params: &TreeParams,
        rng: &mut StdRng,
        scratch: &mut TreeScratch,
    ) -> Self {
        let TreeScratch {
            weights,
            rows,
            features,
            counts,
        } = scratch;
        assert_eq!(labels.len(), fit.n_rows(), "one label per row");
        assert_eq!(weights.len(), fit.n_rows(), "one weight per row");
        rows.clear();
        rows.extend((0..fit.n_rows() as u32).filter(|&s| weights[s as usize] > 0));
        assert!(!rows.is_empty(), "cannot fit a tree on zero samples");
        if counts.len() < fit.n_rows() {
            counts.resize(fit.n_rows(), [0; 2]);
        }
        let mut grower = Grower {
            fit,
            labels,
            weights,
            params,
            rng,
            features,
            counts,
            nodes: Vec::new(),
        };
        grower.grow(rows, 0);
        DecisionTree {
            nodes: grower.nodes,
            n_features: fit.n_features(),
        }
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
}

/// The split a node keeps: the first best boundary in search order.
struct Best {
    feature: usize,
    /// The fit rank of the boundary's lower value `a`; rows at or below
    /// it go left.
    rank: u32,
    threshold: f64,
    gini: f64,
}

/// One tree's growth over a fit.
struct Grower<'a> {
    fit: &'a RankMatrix,
    labels: &'a [bool],
    weights: &'a [u32],
    params: &'a TreeParams,
    rng: &'a mut StdRng,
    features: &'a mut Vec<usize>,
    counts: &'a mut [[u32; 2]],
    nodes: Vec<Node>,
}

impl Grower<'_> {
    /// Grows the subtree for the distinct sample rows `rows`, returning
    /// its node index. A split partitions `rows` in place into its two
    /// children's runs; the order inside a run is arbitrary, which is safe
    /// because a subtree depends only on its weighted multiset (see the
    /// module docs).
    fn grow(&mut self, rows: &mut [u32], depth: usize) -> usize {
        let (mut n, mut positives) = (0usize, 0usize);
        for &s in rows.iter() {
            let w = self.weights[s as usize] as usize;
            n += w;
            if self.labels[s as usize] {
                positives += w;
            }
        }
        let prob = positives as f64 / n as f64;
        let pure = positives == 0 || positives == n;
        if pure || depth >= self.params.max_depth || n < self.params.min_samples_split {
            self.nodes.push(Node::Leaf { prob });
            return self.nodes.len() - 1;
        }
        let Some(best) = self.best_split(rows, n, positives) else {
            self.nodes.push(Node::Leaf { prob });
            return self.nodes.len() - 1;
        };
        // Rank order is value order and `a <= threshold < b` for the
        // boundary's values, so this is the `value <= threshold` test.
        let ranks = self.fit.ranks(best.feature);
        let mut n_left = 0;
        for k in 0..rows.len() {
            if ranks[rows[k] as usize] <= best.rank {
                rows.swap(n_left, k);
                n_left += 1;
            }
        }
        let (li, ri) = rows.split_at_mut(n_left);
        debug_assert!(!li.is_empty() && !ri.is_empty());
        // Reserve a slot for this split node before growing children.
        let at = self.nodes.len();
        self.nodes.push(Node::Leaf { prob }); // placeholder
        let left = self.grow(li, depth + 1);
        let right = self.grow(ri, depth + 1);
        self.nodes[at] = Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left,
            right,
        };
        at
    }

    /// The boundary minimizing weighted Gini impurity over a random
    /// feature subset; `None` if no boundary separates the rows. `n` and
    /// `positives` are the rows' weighted totals.
    fn best_split(&mut self, rows: &[u32], n: usize, positives: usize) -> Option<Best> {
        let n_features = self.fit.n_features();
        let features = &mut *self.features;
        features.clear();
        features.extend(0..n_features);
        let take = if self.params.features_per_split == 0 {
            n_features
        } else {
            self.params.features_per_split.min(n_features)
        };
        if take < n_features {
            features.shuffle(self.rng);
            features.truncate(take);
        }

        let gini = |n: f64, pos: f64| {
            if n == 0.0 {
                0.0
            } else {
                let p = pos / n;
                2.0 * p * (1.0 - p)
            }
        };
        let (total, total_pos) = (n as f64, positives as f64);
        let mut best: Option<Best> = None;
        for &f in features.iter() {
            let ranks = self.fit.ranks(f);
            let values = self.fit.values(f);
            for &s in rows {
                let w = self.weights[s as usize];
                let c = &mut self.counts[ranks[s as usize] as usize];
                c[0] += w;
                if self.labels[s as usize] {
                    c[1] += w;
                }
            }
            // Walk the ranks upward, zeroing the tallies, and score the
            // boundary between each two consecutive ranks the node holds;
            // only a strict improvement beyond 1e-12 replaces `best`, so
            // the first best boundary in search order wins.
            let (mut left_n, mut left_pos) = (0usize, 0usize);
            let mut prev: Option<usize> = None;
            for (rank, c) in self.counts[..values.len()].iter_mut().enumerate() {
                let [w, pos] = std::mem::take(c);
                if w == 0 {
                    continue;
                }
                if let Some(a) = prev {
                    // Integer counts in f64 hold the values a per-sample
                    // `+= 1.0` scan reaches, so these are its exact floats.
                    let (ln, lp) = (left_n as f64, left_pos as f64);
                    let (rn, rp) = (total - ln, total_pos - lp);
                    let weighted = ln / total * gini(ln, lp) + rn / total * gini(rn, rp);
                    if best.as_ref().is_none_or(|b| weighted < b.gini - 1e-12) {
                        best = Some(Best {
                            feature: f,
                            rank: a as u32,
                            threshold: threshold(values[a], values[rank]),
                            gini: weighted,
                        });
                    }
                }
                left_n += w as usize;
                left_pos += pos as usize;
                prev = Some(rank);
            }
        }
        best
    }
}

/// A threshold `t` with `a <= t < b` for adjacent distinct values
/// `a < b`: their midpoint, or `a` where the midpoint rounds up to `b`
/// (neighbouring doubles) or overflows to infinity. A threshold equal to
/// `b` would send every sample left.
fn threshold(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if a <= mid && mid < b {
        mid
    } else {
        a
    }
}

#[cfg(test)]
impl DecisionTree {
    /// The nodes in the reference grower's form, for exact comparison.
    pub(crate) fn reference_nodes(&self) -> Vec<crate::reference::RefNode> {
        use crate::reference::RefNode;
        self.nodes
            .iter()
            .map(|n| match *n {
                Node::Leaf { prob } => RefNode::Leaf {
                    prob_bits: prob.to_bits(),
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => RefNode::Split {
                    feature,
                    threshold_bits: threshold.to_bits(),
                    left,
                    right,
                },
            })
            .collect()
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
    #[should_panic(expected = "is NaN")]
    fn nan_feature_panics() {
        let x = vec![vec![0.0], vec![f64::NAN]];
        let _ = DecisionTree::fit(&x, &[true, false], &TreeParams::default(), &mut rng());
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

    /// Two samples on adjacent distinct values must split into two pure
    /// leaves that classify both sides of the threshold.
    fn assert_splits_cleanly(a: f64, b: f64) {
        let x = vec![vec![a], vec![b]];
        let t = DecisionTree::fit(&x, &[false, true], &TreeParams::default(), &mut rng());
        assert_eq!(t.node_count(), 3, "{a:e} | {b:e}");
        assert_eq!(t.predict_proba(&[a]), 0.0);
        assert_eq!(t.predict_proba(&[b]), 1.0);
        assert_eq!(t.predict_proba(&[f64::INFINITY]), 1.0);
    }

    #[test]
    fn a_midpoint_rounding_up_to_the_upper_value_falls_back() {
        // (1+ε + 1+2ε) / 2 rounds to 1+2ε: every sample would go left.
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 + 2.0 * f64::EPSILON;
        assert_eq!((a + b) / 2.0, b);
        assert_splits_cleanly(a, b);
    }

    #[test]
    fn a_midpoint_overflowing_to_infinity_falls_back() {
        assert_eq!((1e308 + 1.5e308) / 2.0, f64::INFINITY);
        assert_splits_cleanly(1e308, 1.5e308);
        assert_splits_cleanly(-f64::MAX, f64::MAX);
    }

    #[test]
    fn weights_equal_duplicated_rows() {
        // A bootstrap's weights must grow the tree its duplicated pick
        // list grows, in any order of the picks.
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64, ((i * 5) % 11) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<bool> = (0..40).map(|i| (i % 7) * 2 + (i % 3) > 6).collect();
        let params = TreeParams {
            features_per_split: 2,
            ..TreeParams::default()
        };
        let fit = RankMatrix::from_rows(&x);
        let mut draw = StdRng::seed_from_u64(11);
        let mut scratch = TreeScratch::default();
        scratch.bootstrap(x.len(), &mut draw);
        let weighted = DecisionTree::fit_weighted(&fit, &y, &params, &mut rng(), &mut scratch);
        assert!(weighted.node_count() > 3, "the fixture must split");
        let mut picks: Vec<usize> = (0..x.len())
            .flat_map(|s| std::iter::repeat_n(s, scratch.weights[s] as usize))
            .collect();
        for round in 0..5u64 {
            picks.shuffle(&mut StdRng::seed_from_u64(round));
            let xs: Vec<Vec<f64>> = picks.iter().map(|&s| x[s].clone()).collect();
            let ys: Vec<bool> = picks.iter().map(|&s| y[s]).collect();
            assert_eq!(
                DecisionTree::fit(&xs, &ys, &params, &mut rng()),
                weighted,
                "order {round}"
            );
        }
    }
}
