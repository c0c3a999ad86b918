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
//! chunks. Training data can be owned `Vec<f64>` rows or a borrowed flat
//! row-major matrix ([`RowsView`]), into which bootstrap samples are
//! index lists rather than cloned rows.

pub mod data;
pub mod forest;
pub mod tree;

pub use data::RowsView;
pub use forest::{ForestParams, RandomForest};
pub use tree::{DecisionTree, TreeParams};
