#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mc-ml
//!
//! A small, dependency-light machine-learning substrate: CART decision
//! trees and random forests with bootstrap aggregation and per-split
//! feature subsampling.
//!
//! MatchCatcher's Match Verifier (§5 of the paper) trains a **random
//! forest** on user-labeled tuple pairs and ranks the remaining candidates
//! by *positive prediction confidence* — the fraction of trees voting
//! "match". Active learning additionally asks for the most *controversial*
//! candidates (confidence closest to 0.5). Both signals come from
//! [`RandomForest::confidence`].
//!
//! Everything is deterministic given a seed — including the parallel
//! paths. [`RandomForest::fit`] grows each tree from its own
//! [`StdRng`](rand::rngs::StdRng) seeded by a per-tree derivation of the
//! base seed, so the forest is bit-identical at any worker-thread count;
//! [`RandomForest::score_batch`] preserves row order across parallel
//! chunks.
//!
//! Training runs on ranks, not floats. A [`RankMatrix`] stores each
//! feature column once as every row's rank among the column's distinct
//! values, plus one value per rank. [`RandomForest::fit_matrix`] gathers
//! a fit's rows from it, each tree weighs rows by its bootstrap draws,
//! and a node finds its split with integer counts: no value is sorted
//! after the matrix is built. Owned `Vec<f64>` rows
//! ([`RandomForest::fit`], [`DecisionTree::fit`]) are ranked first and
//! take the same path. Scoring reads a borrowed flat row-major matrix
//! ([`RowsView`]).

pub mod data;
pub mod forest;
pub mod tree;

pub use data::{RankMatrix, RowsView};
pub use forest::{ForestParams, RandomForest};
pub use tree::{DecisionTree, TreeParams};

#[cfg(test)]
mod reference;
