//! The per-node-sort CART grower, kept as a test oracle for the
//! rank-encoded core in [`crate::tree`].
//!
//! Every node collects its samples' `(value, label)` pairs for each
//! candidate feature, sorts them by `f64::total_cmp`, and scans the
//! boundaries between distinct values with `f64` counts, exactly as the
//! trees were grown before rank encoding (with the threshold fix: a
//! midpoint that rounds out of `[a, b)` falls back to `a`). Samples are
//! an index list with duplicates, the way a bootstrap draws them. The
//! file is self-contained so integration tests can include it by path.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// One node, with `f64`s as bits so trees compare exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefNode {
    /// Positive fraction of the leaf's samples.
    Leaf { prob_bits: u64 },
    /// `feature <= threshold` goes left.
    Split {
        feature: usize,
        threshold_bits: u64,
        left: usize,
        right: usize,
    },
}

/// Growth limits, as in `TreeParams` (`features_per_split = 0` is all).
#[derive(Debug, Clone, Copy)]
pub struct RefParams {
    pub max_depth: usize,
    pub min_samples_split: usize,
    pub features_per_split: usize,
}

/// A tree grown by the reference grower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefTree {
    pub nodes: Vec<RefNode>,
}

impl RefTree {
    /// Grows a tree on the samples `picks` (row indexes into `x`/`y`,
    /// duplicates allowed), drawing feature subsets from `rng`.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[bool],
        mut picks: Vec<usize>,
        params: RefParams,
        rng: &mut StdRng,
    ) -> RefTree {
        assert!(!picks.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = RefTree { nodes: Vec::new() };
        tree.grow(x, y, &mut picks, 0, params, rng);
        tree
    }

    /// Leaf probability of `sample`.
    pub fn predict_proba(&self, sample: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                RefNode::Leaf { prob_bits } => return f64::from_bits(prob_bits),
                RefNode::Split {
                    feature,
                    threshold_bits,
                    left,
                    right,
                } => {
                    at = if sample[feature] <= f64::from_bits(threshold_bits) {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[bool],
        idx: &mut [usize],
        depth: usize,
        params: RefParams,
        rng: &mut StdRng,
    ) -> usize {
        let positives = idx.iter().filter(|&&i| y[i]).count();
        let prob = positives as f64 / idx.len() as f64;
        let leaf = RefNode::Leaf {
            prob_bits: prob.to_bits(),
        };
        let pure = positives == 0 || positives == idx.len();
        if pure || depth >= params.max_depth || idx.len() < params.min_samples_split {
            self.nodes.push(leaf);
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = best_split(x, y, idx, params, rng) else {
            self.nodes.push(leaf);
            return self.nodes.len() - 1;
        };
        let mut n_left = 0;
        for k in 0..idx.len() {
            if x[idx[k]][feature] <= threshold {
                idx.swap(n_left, k);
                n_left += 1;
            }
        }
        let (li, ri) = idx.split_at_mut(n_left);
        assert!(
            !li.is_empty() && !ri.is_empty(),
            "a split left a child empty"
        );
        let at = self.nodes.len();
        self.nodes.push(leaf);
        let left = self.grow(x, y, li, depth + 1, params, rng);
        let right = self.grow(x, y, ri, depth + 1, params, rng);
        self.nodes[at] = RefNode::Split {
            feature,
            threshold_bits: threshold.to_bits(),
            left,
            right,
        };
        at
    }
}

fn best_split(
    x: &[Vec<f64>],
    y: &[bool],
    idx: &[usize],
    params: RefParams,
    rng: &mut StdRng,
) -> Option<(usize, f64)> {
    let n_features = x[0].len();
    let mut features: Vec<usize> = (0..n_features).collect();
    let take = if params.features_per_split == 0 {
        n_features
    } else {
        params.features_per_split.min(n_features)
    };
    if take < n_features {
        features.shuffle(rng);
        features.truncate(take);
    }
    let mut best: Option<(usize, f64, f64)> = None;
    let total = idx.len() as f64;
    for &f in &features {
        let mut column: Vec<(f64, bool)> = idx.iter().map(|&i| (x[i][f], y[i])).collect();
        column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let total_pos = column.iter().filter(|(_, l)| *l).count() as f64;
        let mut left_n = 0f64;
        let mut left_pos = 0f64;
        for w in 0..column.len() - 1 {
            left_n += 1.0;
            if column[w].1 {
                left_pos += 1.0;
            }
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
            let (a, b) = (column[w].0, column[w + 1].0);
            let mid = (a + b) / 2.0;
            let threshold = if a <= mid && mid < b { mid } else { a };
            if best.as_ref().is_none_or(|&(_, _, g)| weighted < g - 1e-12) {
                best = Some((f, threshold, weighted));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}
