//! Dataset profiles mirroring Table 1 of the paper.
//!
//! Each profile fixes a domain factory, table sizes, a gold match count,
//! and per-side perturbation plans whose error channels are the ones the
//! paper's experiments diagnose (Table 4's "blocker problems" column).
//! The big profiles (Music1/2, Papers) accept a `scale` factor so tests
//! can run small while benches sweep to the paper's sizes.

use crate::entity::{
    BigPaperFactory, ElectronicsFactory, EntityFactory, PaperFactory, RestaurantFactory,
    SoftwareProductFactory, SongFactory, ZipfFactory,
};
use crate::noise::{AppliedError, ErrorKind, Side};
use crate::perturb::{
    brand_variants, city_variants, cuisine_variants, street_variants, venue_variants, NoiseRule,
    PerturbPlan,
};
use crate::EmDataset;
use mc_table::{AttrId, GoldMatches, Table, Tuple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// The seven evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// Software products; table A has long descriptions (1363 × 3226,
    /// 1300 matches, 5 attributes, avg lengths 205 / 38).
    AmazonGoogle,
    /// Electronics (2554 × 22074, 1154 matches, 7 attributes).
    WalmartAmazon,
    /// Bibliographic records, clean (2294 × 2616, 2224 matches, 5 attrs).
    AcmDblp,
    /// Restaurants (533 × 331, 112 matches, 7 attributes).
    FodorsZagats,
    /// Songs, 100K per table, 2978 matches, 8 attributes.
    Music1,
    /// Songs, 500K per table, 73646 matches.
    Music2,
    /// Large bibliographic records (456K × 628K, gold "unknown" in the
    /// paper; we generate it but experiments may ignore it).
    Papers,
    /// Synthetic scale profile: short records drawn from a Zipfian token
    /// distribution (60K × 60K at scale 1.0, and `generate_scaled` may go
    /// above 1.0). Not in the paper's Table 1 — it exists so scale
    /// benches can stress the joint SSJ stage with realistic token skew
    /// at 10⁵–10⁶ records.
    ZipfScale,
}

impl DatasetProfile {
    /// All profiles: Table 1 order, then the synthetic scale profile.
    pub const ALL: [DatasetProfile; 8] = [
        DatasetProfile::AmazonGoogle,
        DatasetProfile::WalmartAmazon,
        DatasetProfile::AcmDblp,
        DatasetProfile::FodorsZagats,
        DatasetProfile::Music1,
        DatasetProfile::Music2,
        DatasetProfile::Papers,
        DatasetProfile::ZipfScale,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::AmazonGoogle => "amazon-google",
            DatasetProfile::WalmartAmazon => "walmart-amazon",
            DatasetProfile::AcmDblp => "acm-dblp",
            DatasetProfile::FodorsZagats => "fodors-zagats",
            DatasetProfile::Music1 => "music1",
            DatasetProfile::Music2 => "music2",
            DatasetProfile::Papers => "papers",
            DatasetProfile::ZipfScale => "zipf-scale",
        }
    }

    /// Paper table sizes `(|A|, |B|, #matches)` at scale 1.0.
    pub fn paper_sizes(self) -> (usize, usize, usize) {
        match self {
            DatasetProfile::AmazonGoogle => (1363, 3226, 1300),
            DatasetProfile::WalmartAmazon => (2554, 22074, 1154),
            DatasetProfile::AcmDblp => (2294, 2616, 2224),
            DatasetProfile::FodorsZagats => (533, 331, 112),
            DatasetProfile::Music1 => (100_000, 100_000, 2978),
            DatasetProfile::Music2 => (500_000, 500_000, 73_646),
            DatasetProfile::Papers => (455_996, 628_231, 60_000),
            DatasetProfile::ZipfScale => (60_000, 60_000, 6_000),
        }
    }

    /// Generates the dataset at full paper scale.
    pub fn generate(self, seed: u64) -> EmDataset {
        self.generate_scaled(seed, 1.0)
    }

    /// Generates the dataset with table sizes multiplied by `scale`
    /// (match count scales proportionally; minimums keep tiny scales
    /// usable). Scales above 1.0 grow the tables past the paper sizes —
    /// the match count keeps scaling proportionally, so scale benches can
    /// sweep the same profile from test-size to beyond-paper-size inputs.
    pub fn generate_scaled(self, seed: u64, scale: f64) -> EmDataset {
        assert!(scale > 0.0, "scale must be positive");
        let (na, nb, nm) = self.paper_sizes();
        let na = ((na as f64 * scale) as usize).max(20);
        let nb = ((nb as f64 * scale) as usize).max(20);
        let nm = ((nm as f64 * scale) as usize).max(10).min(na.min(nb));
        let mut rng = StdRng::seed_from_u64(seed ^ fx_mix(self as u64));
        let mut factory = self.factory(&mut rng, na + nb);
        let (plan_a, plan_b) = self.plans(&factory.schema());
        build_dataset(
            self.name(),
            factory.as_mut(),
            &plan_a,
            &plan_b,
            na,
            nb,
            nm,
            &mut rng,
        )
    }

    fn factory(self, rng: &mut StdRng, approx_rows: usize) -> Box<dyn EntityFactory> {
        match self {
            DatasetProfile::AmazonGoogle => Box::new(SoftwareProductFactory),
            DatasetProfile::WalmartAmazon => Box::new(ElectronicsFactory),
            DatasetProfile::AcmDblp => Box::new(PaperFactory::new(rng, 400)),
            DatasetProfile::FodorsZagats => Box::new(RestaurantFactory),
            DatasetProfile::Music1 | DatasetProfile::Music2 => {
                let artists = (approx_rows / 40).clamp(200, 20_000);
                let albums = (approx_rows / 25).clamp(200, 30_000);
                Box::new(SongFactory::new(rng, artists, albums))
            }
            DatasetProfile::Papers => {
                let extra = (approx_rows / 50).clamp(500, 20_000);
                Box::new(BigPaperFactory::new(rng, extra))
            }
            DatasetProfile::ZipfScale => {
                // Vocabulary grows with the table so up-scaling does not
                // collapse every record onto the same few tokens; the
                // exponent keeps the head heavy enough that the frequent
                // ranks matter (they are what the prefix filter defers).
                let vocab = (approx_rows / 4).clamp(1_000, 50_000);
                Box::new(ZipfFactory::new(rng, vocab, 1.07))
            }
        }
    }

    /// Per-side perturbation plans; attribute ids resolved by name so the
    /// plans stay readable.
    fn plans(self, schema: &mc_table::Schema) -> (PerturbPlan, PerturbPlan) {
        let id = |n: &str| schema.expect_id(n);
        match self {
            DatasetProfile::AmazonGoogle => {
                let a = PerturbPlan::new()
                    .rule(NoiseRule::new(id("title"), ErrorKind::ExtraTokens, 0.25))
                    .rule(NoiseRule::new(id("title"), ErrorKind::CaseNoise, 0.10))
                    .rule(
                        NoiseRule::new(id("manufacturer"), ErrorKind::Sprinkle, 0.15)
                            .with_aux(id("title")),
                    );
                let b = PerturbPlan::new()
                    .rule(
                        NoiseRule::new(id("title"), ErrorKind::TokenDrop, 0.30).with_magnitude(2.0),
                    )
                    .rule(NoiseRule::new(id("title"), ErrorKind::Misspelling, 0.08))
                    .rule(
                        NoiseRule::new(id("manufacturer"), ErrorKind::Synonym, 0.35)
                            .with_variants(brand_variants()),
                    )
                    .rule(NoiseRule::new(
                        id("manufacturer"),
                        ErrorKind::MissingValue,
                        0.25,
                    ))
                    .rule(
                        NoiseRule::new(id("price"), ErrorKind::NumericJitter, 0.50)
                            .with_magnitude(0.15),
                    )
                    .rule(NoiseRule::new(
                        id("description"),
                        ErrorKind::MissingValue,
                        0.55,
                    ))
                    .rule(
                        NoiseRule::new(id("description"), ErrorKind::TokenDrop, 0.40)
                            .with_magnitude(18.0),
                    );
                (a, b)
            }
            DatasetProfile::WalmartAmazon => {
                let a = PerturbPlan::new()
                    .rule(NoiseRule::new(
                        id("longdescr"),
                        ErrorKind::MissingValue,
                        0.70,
                    ))
                    .rule(
                        NoiseRule::new(id("brand"), ErrorKind::Synonym, 0.30)
                            .with_variants(brand_variants()),
                    )
                    .rule(NoiseRule::new(id("brand"), ErrorKind::MissingValue, 0.15))
                    .rule(
                        NoiseRule::new(id("title"), ErrorKind::TokenDrop, 0.25).with_magnitude(1.0),
                    )
                    .rule(NoiseRule::new(id("title"), ErrorKind::Misspelling, 0.05))
                    .rule(
                        NoiseRule::new(id("price"), ErrorKind::NumericJitter, 0.30)
                            .with_magnitude(0.20),
                    );
                let b = PerturbPlan::new()
                    .rule(NoiseRule::new(id("title"), ErrorKind::ExtraTokens, 0.30))
                    .rule(NoiseRule::new(id("title"), ErrorKind::CaseNoise, 0.10))
                    .rule(NoiseRule::new(id("modelno"), ErrorKind::Misspelling, 0.10));
                (a, b)
            }
            DatasetProfile::AcmDblp => {
                let a = PerturbPlan::new()
                    .rule(
                        NoiseRule::new(id("venue"), ErrorKind::Synonym, 0.50)
                            .with_variants(venue_variants()),
                    )
                    .rule(NoiseRule::new(id("authors"), ErrorKind::NameVariant, 0.30));
                let b = PerturbPlan::new()
                    .rule(NoiseRule::new(id("title"), ErrorKind::ExtraTokens, 0.15))
                    .rule(NoiseRule::new(id("title"), ErrorKind::Misspelling, 0.05))
                    .rule(
                        NoiseRule::new(id("authors"), ErrorKind::TokenDrop, 0.20)
                            .with_magnitude(1.0),
                    )
                    .rule(
                        NoiseRule::new(id("year"), ErrorKind::NumericJitter, 0.10)
                            .with_magnitude(1.0),
                    )
                    .rule(NoiseRule::new(id("pages"), ErrorKind::MissingValue, 0.30));
                (a, b)
            }
            DatasetProfile::FodorsZagats => {
                let a = PerturbPlan::new()
                    .rule(
                        NoiseRule::new(id("addr"), ErrorKind::Synonym, 0.40)
                            .with_variants(street_variants()),
                    )
                    .rule(
                        NoiseRule::new(id("type"), ErrorKind::Synonym, 0.30)
                            .with_variants(cuisine_variants()),
                    );
                let b = PerturbPlan::new()
                    .rule(
                        NoiseRule::new(id("city"), ErrorKind::Abbreviation, 0.20)
                            .with_variants(city_variants()),
                    )
                    .rule(
                        NoiseRule::new(id("name"), ErrorKind::Sprinkle, 0.10).with_aux(id("city")),
                    )
                    .rule(NoiseRule::new(id("name"), ErrorKind::Misspelling, 0.08))
                    .rule(NoiseRule::new(id("phone"), ErrorKind::Misspelling, 0.15));
                (a, b)
            }
            DatasetProfile::Music1 | DatasetProfile::Music2 => {
                let a = PerturbPlan::new()
                    .rule(NoiseRule::new(id("title"), ErrorKind::CaseNoise, 0.30))
                    .rule(NoiseRule::new(id("artist"), ErrorKind::CaseNoise, 0.20));
                let b = PerturbPlan::new()
                    .rule(NoiseRule::new(id("year"), ErrorKind::MissingValue, 0.30))
                    .rule(NoiseRule::new(id("title"), ErrorKind::Misspelling, 0.10))
                    .rule(NoiseRule::new(id("artist"), ErrorKind::Misspelling, 0.08))
                    .rule(
                        NoiseRule::new(id("album"), ErrorKind::TokenDrop, 0.15).with_magnitude(1.0),
                    )
                    .rule(
                        NoiseRule::new(id("year"), ErrorKind::NumericJitter, 0.10)
                            .with_magnitude(1.0),
                    );
                (a, b)
            }
            DatasetProfile::Papers => {
                let a = PerturbPlan::new()
                    .rule(NoiseRule::new(id("authors"), ErrorKind::NameVariant, 0.30))
                    .rule(
                        NoiseRule::new(id("venue"), ErrorKind::Synonym, 0.40)
                            .with_variants(venue_variants()),
                    );
                let b = PerturbPlan::new()
                    .rule(NoiseRule::new(id("title"), ErrorKind::ExtraTokens, 0.15))
                    .rule(NoiseRule::new(id("title"), ErrorKind::Misspelling, 0.07))
                    .rule(
                        NoiseRule::new(id("authors"), ErrorKind::TokenDrop, 0.25)
                            .with_magnitude(2.0),
                    )
                    .rule(
                        NoiseRule::new(id("year"), ErrorKind::NumericJitter, 0.10)
                            .with_magnitude(1.0),
                    )
                    .rule(NoiseRule::new(id("volume"), ErrorKind::MissingValue, 0.40))
                    .rule(NoiseRule::new(id("pages"), ErrorKind::MissingValue, 0.30));
                (a, b)
            }
            DatasetProfile::ZipfScale => {
                let a = PerturbPlan::new()
                    .rule(NoiseRule::new(id("name"), ErrorKind::CaseNoise, 0.15))
                    .rule(NoiseRule::new(id("tags"), ErrorKind::ExtraTokens, 0.20));
                let b = PerturbPlan::new()
                    .rule(
                        NoiseRule::new(id("name"), ErrorKind::TokenDrop, 0.25).with_magnitude(1.0),
                    )
                    .rule(NoiseRule::new(id("name"), ErrorKind::Misspelling, 0.08))
                    .rule(NoiseRule::new(
                        id("category"),
                        ErrorKind::MissingValue,
                        0.20,
                    ));
                (a, b)
            }
        }
    }
}

fn fx_mix(x: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// Assembles the dataset: generates `na + nb − nm` clean entities, the
/// first `nm` shared between both tables; projects each side through its
/// plan; shuffles row orders; records gold matches and the error log.
#[allow(clippy::too_many_arguments)]
fn build_dataset(
    name: &str,
    factory: &mut dyn EntityFactory,
    plan_a: &PerturbPlan,
    plan_b: &PerturbPlan,
    na: usize,
    nb: usize,
    nm: usize,
    rng: &mut StdRng,
) -> EmDataset {
    assert!(nm <= na && nm <= nb);
    let schema = Arc::new(factory.schema());
    let n_entities = na + nb - nm;
    let mut entities = Vec::with_capacity(n_entities);
    for _ in 0..n_entities {
        entities.push(factory.generate(rng));
    }

    // Row position permutations decouple tuple ids from entity order.
    let mut pos_a: Vec<u32> = (0..na as u32).collect();
    let mut pos_b: Vec<u32> = (0..nb as u32).collect();
    pos_a.shuffle(rng);
    pos_b.shuffle(rng);

    let mut rows_a: Vec<Option<Tuple>> = vec![None; na];
    let mut rows_b: Vec<Option<Tuple>> = vec![None; nb];
    let mut errors = Vec::new();

    // Table A holds entities [0, na); the first nm of those are matched.
    for (i, ent) in entities.iter().take(na).enumerate() {
        let mut fields = ent.fields.clone();
        let log = plan_a.apply(&mut fields, rng);
        let at = pos_a[i];
        for (attr, kind) in log {
            errors.push(AppliedError {
                side: Side::A,
                tuple: at,
                attr,
                kind,
            });
        }
        rows_a[at as usize] = Some(Tuple::new(fields));
    }
    // Table B holds the matched entities [0, nm) plus entities [na, …).
    let b_entity_indexes = (0..nm).chain(na..n_entities);
    for (j, ei) in b_entity_indexes.enumerate() {
        let mut fields = entities[ei].fields.clone();
        let log = plan_b.apply(&mut fields, rng);
        let at = pos_b[j];
        for (attr, kind) in log {
            errors.push(AppliedError {
                side: Side::B,
                tuple: at,
                attr,
                kind,
            });
        }
        rows_b[at as usize] = Some(Tuple::new(fields));
    }

    let table_a = Table::from_rows(
        format!("{name}-A"),
        Arc::clone(&schema),
        rows_a
            .into_iter()
            .map(|r| r.expect("all A rows filled"))
            .collect(),
    );
    let table_b = Table::from_rows(
        format!("{name}-B"),
        schema,
        rows_b
            .into_iter()
            .map(|r| r.expect("all B rows filled"))
            .collect(),
    );

    let mut gold = GoldMatches::new();
    for i in 0..nm {
        gold.insert(pos_a[i], pos_b[i]);
    }

    EmDataset {
        a: table_a,
        b: table_b,
        gold,
        errors,
        name: name.to_string(),
    }
}

/// Convenience accessor: the error kinds injected at a given tuple of a
/// given side (used to validate explanations).
pub fn errors_for(errors: &[AppliedError], side: Side, tuple: u32) -> Vec<(AttrId, ErrorKind)> {
    errors
        .iter()
        .filter(|e| e.side == side && e.tuple == tuple)
        .map(|e| (e.attr, e.kind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_profiles_match_paper_sizes() {
        let ds = DatasetProfile::FodorsZagats.generate(1);
        let (a, b, m, attrs, _, _) = ds.table1_row();
        assert_eq!((a, b, m, attrs), (533, 331, 112, 7));
    }

    #[test]
    fn scaled_generation_shrinks() {
        let ds = DatasetProfile::Music1.generate_scaled(1, 0.01);
        assert_eq!(ds.a.len(), 1000);
        assert_eq!(ds.b.len(), 1000);
        assert!(ds.gold.len() >= 10);
    }

    #[test]
    fn scaled_generation_grows_past_paper_sizes() {
        let ds = DatasetProfile::FodorsZagats.generate_scaled(1, 2.0);
        assert_eq!(ds.a.len(), 1066);
        assert_eq!(ds.b.len(), 662);
        // Match count scales proportionally (clamped by min(|A|, |B|)).
        assert_eq!(ds.gold.len(), 224);
        for (a, b) in ds.gold.iter() {
            assert!((a as usize) < ds.a.len());
            assert!((b as usize) < ds.b.len());
        }
    }

    #[test]
    fn zipf_scale_tokens_are_skewed() {
        // The scale profile's whole point is a heavy-tailed token
        // distribution: the most frequent token should appear in far more
        // records than a uniform draw over the vocabulary would allow.
        let ds = DatasetProfile::ZipfScale.generate_scaled(4, 0.02);
        let mut df = std::collections::HashMap::new();
        let schema = ds.a.schema().clone();
        for id in ds.a.ids() {
            let mut seen = std::collections::HashSet::new();
            for attr in schema.attr_ids() {
                if let Some(v) = ds.a.value(id, attr) {
                    for w in v.split_whitespace() {
                        if seen.insert(w.to_string()) {
                            *df.entry(w.to_string()).or_insert(0usize) += 1;
                        }
                    }
                }
            }
        }
        let max_df = df.values().copied().max().unwrap_or(0);
        let n = ds.a.len();
        assert!(
            max_df * 20 >= n,
            "head token df {max_df} too small for {n} records"
        );
        assert!(df.len() > 100, "vocabulary collapsed: {} tokens", df.len());
    }

    #[test]
    fn gold_pairs_are_within_bounds() {
        let ds = DatasetProfile::AcmDblp.generate_scaled(3, 0.1);
        for (a, b) in ds.gold.iter() {
            assert!((a as usize) < ds.a.len());
            assert!((b as usize) < ds.b.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let d1 = DatasetProfile::FodorsZagats.generate(7);
        let d2 = DatasetProfile::FodorsZagats.generate(7);
        assert_eq!(d1.gold.len(), d2.gold.len());
        for id in d1.a.ids() {
            assert_eq!(d1.a.tuple(id), d2.a.tuple(id));
        }
        assert_eq!(d1.errors.len(), d2.errors.len());
    }

    #[test]
    fn different_seeds_differ() {
        let d1 = DatasetProfile::FodorsZagats.generate(7);
        let d2 = DatasetProfile::FodorsZagats.generate(8);
        let same =
            d1.a.ids()
                .filter(|&i| d1.a.tuple(i) == d2.a.tuple(i))
                .count();
        assert!(same < d1.a.len() / 2, "seeds should change most rows");
    }

    #[test]
    fn matched_pairs_share_tokens() {
        // Matched tuples are dirty projections of one entity: their
        // concatenated strings should still overlap substantially more
        // often than random pairs.
        let ds = DatasetProfile::FodorsZagats.generate(11);
        let schema = ds.a.schema().clone();
        let concat = |t: &Table, id: u32| {
            schema
                .attr_ids()
                .filter_map(|attr| t.value(id, attr))
                .collect::<Vec<_>>()
                .join(" ")
                .to_lowercase()
        };
        let mut similar = 0;
        let mut total = 0;
        for (a, b) in ds.gold.iter() {
            let sa = concat(&ds.a, a);
            let sb = concat(&ds.b, b);
            let wa: std::collections::HashSet<&str> = sa.split_whitespace().collect();
            let wb: std::collections::HashSet<&str> = sb.split_whitespace().collect();
            let inter = wa.intersection(&wb).count();
            if inter * 2 >= wa.len().min(wb.len()) {
                similar += 1;
            }
            total += 1;
        }
        assert!(
            similar as f64 / total as f64 > 0.8,
            "only {similar}/{total} matched pairs look similar"
        );
    }

    #[test]
    fn error_log_references_valid_tuples() {
        let ds = DatasetProfile::AmazonGoogle.generate_scaled(5, 0.2);
        assert!(!ds.errors.is_empty());
        for e in &ds.errors {
            let t = match e.side {
                Side::A => &ds.a,
                Side::B => &ds.b,
            };
            assert!((e.tuple as usize) < t.len());
            assert!(e.attr.index() < t.schema().len());
        }
    }

    #[test]
    fn errors_for_filters() {
        let ds = DatasetProfile::AmazonGoogle.generate_scaled(5, 0.2);
        let e0 = &ds.errors[0];
        let found = errors_for(&ds.errors, e0.side, e0.tuple);
        assert!(found.contains(&(e0.attr, e0.kind)));
    }

    #[test]
    fn all_profiles_generate_small() {
        for p in DatasetProfile::ALL {
            let ds = p.generate_scaled(2, 0.02);
            assert!(!ds.a.is_empty(), "{}", p.name());
            assert!(!ds.b.is_empty());
            assert!(ds.gold.len() >= 10);
            assert_eq!(ds.a.schema().len(), ds.b.schema().len());
        }
    }

    #[test]
    fn amazon_google_asymmetry() {
        // Table A keeps long descriptions; B mostly loses them, so A's
        // average tuple length should be clearly larger (205 vs 38 in the
        // paper).
        let ds = DatasetProfile::AmazonGoogle.generate_scaled(9, 0.3);
        let (_, _, _, _, la, lb) = ds.table1_row();
        assert!(la > lb * 1.5, "A avg {la:.0} should exceed B avg {lb:.0}");
    }
}
