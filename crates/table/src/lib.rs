#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mc-table
//!
//! Tabular data model used throughout the MatchCatcher workspace.
//!
//! Entity matching (EM) operates on two tables `A` and `B` that share a
//! schema. This crate provides:
//!
//! * [`Schema`] / [`Attribute`] — named attributes with an optional declared
//!   [`AttrType`];
//! * [`Table`] / [`Tuple`] — row-major string tables with missing values;
//! * [`stats`] — per-attribute statistics (missing ratio, uniqueness,
//!   average token length) feeding MatchCatcher's config generator;
//! * [`gold`] — gold match sets and recall computation;
//! * [`pair`] — compact `(a, b)` tuple-pair keys and pair sets;
//! * [`hash`] — a fast FxHash-style hasher used for hot hash maps;
//! * [`digest`] — stable 128-bit content digests for cache keys (the
//!   artifact store's key material);
//! * [`csv`] — minimal CSV import/export for datasets, including a
//!   path-based loader that records the file's byte digest.
//!
//! The crate is deliberately free of heavy dependencies: every downstream
//! crate (string similarity, blocking, the debugger itself) builds on these
//! types.

pub mod csv;
pub mod delta;
pub mod digest;
pub mod gold;
pub mod hash;
pub mod pair;
pub mod schema;
pub mod stats;
pub mod table;

pub use delta::{DeltaError, RowEdit, TableDelta};
pub use digest::{digest_bytes, Digest, DigestWriter};
pub use gold::GoldMatches;
pub use pair::{pair_key, split_pair_key, PairSet};
pub use schema::{AttrId, AttrType, Attribute, Schema};
pub use stats::{AttrStats, IncrTableStats, TableStats};
pub use table::{Table, Tuple, TupleId};
