#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mc-blocking
//!
//! A blocking framework for entity matching, covering every blocker type
//! surveyed in §2 of the MatchCatcher paper:
//!
//! * **attribute equivalence / hash** — share a blocking key ([`key`]);
//! * **sorted neighborhood** — keys within a window of the sorted order;
//! * **overlap** — share at least `c` tokens;
//! * **similarity (SIM)** — set-similarity or edit-distance predicates,
//!   executed with prefix-filter / q-gram indexes from `mc-strsim`;
//! * **numeric band** — values within an absolute difference;
//! * **rule-based** — boolean combinations (unions/intersections) of the
//!   above.
//!
//! A [`Blocker`] is a *keep* predicate: applying it to tables `A`, `B`
//! yields the candidate set `C ⊆ A × B` that survives blocking
//! ([`Blocker::apply`]). MatchCatcher itself never sees the blocker — only
//! `C` — which this crate produces.
//!
//! [`recall`] computes the paper's accuracy metrics against gold matches.

pub mod blocker;
pub mod canopy;
pub mod key;
pub mod recall;
pub mod soundex;

pub use blocker::Blocker;
pub use key::KeyFunc;
pub use recall::BlockerReport;
