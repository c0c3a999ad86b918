#![forbid(unsafe_code)]

//! Umbrella crate for the MatchCatcher workspace: re-exports every
//! sub-crate so examples and integration tests can use one import root.
//! (The `mc-core` package's library is named `matchcatcher`.)

pub use matchcatcher;
pub use mc_blocking as blocking;
pub use mc_datagen as datagen;
pub use mc_ml as ml;
pub use mc_obs as obs;
pub use mc_strsim as strsim;
pub use mc_table as table;
