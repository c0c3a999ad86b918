#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mc-strsim
//!
//! String-similarity substrate for MatchCatcher:
//!
//! * [`tokenize`] — word and q-gram tokenizers;
//! * [`dict`] — token interning, document frequencies, and the global token
//!   order used by prefix-filtering joins (rare tokens first);
//! * [`arena`] — flat record storage (one contiguous token buffer +
//!   per-record bounds) that the top-k join hot loops operate on;
//! * [`measures`] — set-based similarity (Jaccard, cosine, Dice, overlap)
//!   on sorted token multisets, plus edit distance, with the per-measure
//!   prefix upper bounds the top-k join relies on;
//! * [`prefix`] — prefix lengths and length filters for threshold joins;
//! * [`join`] — prefix-filtering threshold similarity joins (the execution
//!   engine behind SIM blockers, §2 of the paper).
//!
//! Tokens are interned to dense `u32` ranks ordered by ascending document
//! frequency, so a record is a sorted `u32` slice and every similarity
//! computation is a linear merge.

pub mod arena;
pub mod dict;
pub mod join;
pub mod measures;
pub mod prefix;
pub mod tokenize;

pub use arena::RecordArena;
pub use dict::{TokenDict, TokenizedTable};
pub use measures::{
    bounded_edit_distance, edit_distance, edit_similarity, multiset_overlap, overlap_bound_key,
    overlap_with_bound, required_overlap, required_overlap_keyed, within_edit_distance, SetMeasure,
};
pub use tokenize::{qgram_tokens, word_tokens, Tokenizer};
