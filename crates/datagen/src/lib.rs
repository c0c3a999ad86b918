#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mc-datagen
//!
//! Synthetic entity-matching datasets with **known gold matches** and
//! **controlled dirtiness**.
//!
//! The MatchCatcher paper evaluates on seven real datasets (Table 1:
//! Amazon-Google, Walmart-Amazon, ACM-DBLP, Fodors-Zagats, Music1, Music2,
//! Papers). Those datasets are not redistributable, so this crate
//! synthesizes structurally equivalent table pairs:
//!
//! * [`entity`] — clean entity factories per domain (software products,
//!   electronics, papers, restaurants, songs);
//! * [`noise`] — the error classes the paper blames for low blocker recall
//!   (misspellings, abbreviations, missing values, synonyms/brand variants,
//!   attribute "sprinkling", subtitles, numeric jitter, case noise);
//! * [`perturb`] — per-attribute perturbation plans applied independently
//!   to the A-side and B-side projections of each entity;
//! * [`profiles`] — one [`profiles::DatasetProfile`] per paper dataset,
//!   matching its schema, table sizes, match count and average string
//!   lengths (scaled by a `scale` knob for the big ones);
//! * [`vocab`] — deterministic word pools and synthetic word generation.
//!
//! Every generated [`EmDataset`] carries an error log recording exactly
//! which perturbations were applied where, so experiments can check the
//! debugger's *explanations* (Table 4) against ground truth.

pub mod delta;
pub mod entity;
pub mod noise;
pub mod perturb;
pub mod profiles;
pub mod vocab;

use mc_table::{GoldMatches, Table};

/// A generated entity-matching task: two tables, the gold matches between
/// them, and the ground-truth error log.
#[derive(Debug)]
pub struct EmDataset {
    /// Left table.
    pub a: Table,
    /// Right table.
    pub b: Table,
    /// True matches between `a` and `b`.
    pub gold: GoldMatches,
    /// Every perturbation applied during generation, for explanation
    /// validation.
    pub errors: Vec<noise::AppliedError>,
    /// Profile name ("amazon-google", ...).
    pub name: String,
}

impl EmDataset {
    /// Summary statistics in the shape of the paper's Table 1 row:
    /// `(|A|, |B|, #matches, #attrs, avg_len_a, avg_len_b)` where the
    /// average lengths are mean characters per tuple (all attributes
    /// concatenated), matching the paper's "average length" column.
    pub fn table1_row(&self) -> (usize, usize, usize, usize, f64, f64) {
        (
            self.a.len(),
            self.b.len(),
            self.gold.len(),
            self.a.schema().len(),
            avg_tuple_chars(&self.a),
            avg_tuple_chars(&self.b),
        )
    }
}

fn avg_tuple_chars(t: &Table) -> f64 {
    if t.is_empty() {
        return 0.0;
    }
    let total: usize = t
        .iter()
        .map(|(_, tup)| {
            tup.iter()
                .map(|v| v.map_or(0, |s| s.len() + 1))
                .sum::<usize>()
        })
        .sum();
    total as f64 / t.len() as f64
}
