//! Clean entity factories, one per domain.
//!
//! A factory generates *clean* entities over a fixed schema; the
//! [`crate::perturb`] layer then projects each entity into a (possibly
//! dirty) A-side and B-side tuple. Pools are shared across entities so
//! that non-matching tuples collide on realistic tokens (two different
//! people named "smith", two restaurants in "atlanta"), which is what
//! makes blocking decisions non-trivial.

use crate::vocab;
use mc_table::Schema;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::RngExt as _;

/// A clean entity: one optional string per schema attribute.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Values aligned with the factory's schema.
    pub fields: Vec<Option<String>>,
}

/// A domain-specific generator of clean entities.
pub trait EntityFactory {
    /// The schema shared by tables A and B.
    fn schema(&self) -> Schema;
    /// Generates the next clean entity.
    fn generate(&mut self, rng: &mut StdRng) -> Entity;
}

fn join_some(parts: &[&str]) -> Option<String> {
    let s = parts.join(" ");
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// Software products (the Amazon-Google profile): `title, manufacturer,
/// price, category, description`, with a *long* free-text description —
/// the attribute that exercises `FindLongAttr` (§3.2).
pub struct SoftwareProductFactory;

impl EntityFactory for SoftwareProductFactory {
    fn schema(&self) -> Schema {
        Schema::from_names(["title", "manufacturer", "price", "category", "description"])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let (brand, _) = vocab::BRANDS.choose(rng).unwrap();
        let noun = vocab::SOFTWARE_NOUNS.choose(rng).unwrap();
        let q1 = vocab::PRODUCT_QUALIFIERS.choose(rng).unwrap();
        let q2 = vocab::PRODUCT_QUALIFIERS.choose(rng).unwrap();
        let title = if rng.random_bool(0.5) {
            format!("{brand} {noun} {q1} {q2}")
        } else {
            format!("{brand} {noun} {q1}")
        };
        let price = format!("{:.2}", rng.random_range(9.0..400.0f64));
        let category = format!(
            "{} software",
            [
                "business",
                "education",
                "utilities",
                "security",
                "media",
                "games"
            ]
            .choose(rng)
            .unwrap()
        );
        let description = long_description(rng, &title);
        Entity {
            fields: vec![
                Some(title),
                Some(brand.to_string()),
                Some(price),
                Some(category),
                Some(description),
            ],
        }
    }
}

/// A multi-sentence product description (~25–40 words).
fn long_description(rng: &mut StdRng, title: &str) -> String {
    const OPENERS: &[&str] = &[
        "the complete solution for",
        "everything you need for",
        "an award winning tool for",
        "the industry standard for",
        "a powerful new way to handle",
    ];
    const TASKS: &[&str] = &[
        "managing your documents and media",
        "protecting your computer from threats",
        "organizing photos music and video",
        "creating professional publications",
        "tracking finances and budgets",
        "learning at your own pace",
        "editing and sharing creative projects",
    ];
    const CLOSERS: &[&str] = &[
        "includes step by step tutorials and templates",
        "features automatic updates and premium support",
        "compatible with all major operating systems",
        "ships with bonus content and sample projects",
        "designed for both beginners and professionals",
    ];
    let mut parts = vec![format!(
        "{} {} {}",
        OPENERS.choose(rng).unwrap(),
        TASKS.choose(rng).unwrap(),
        CLOSERS.choose(rng).unwrap()
    )];
    for _ in 0..rng.random_range(1..=2usize) {
        parts.push(format!(
            "{} {}",
            TASKS.choose(rng).unwrap(),
            CLOSERS.choose(rng).unwrap()
        ));
    }
    format!("{title} {}", parts.join(" "))
}

/// Electronics (the Walmart-Amazon profile): `title, brand, modelno,
/// price, category, shortdescr, longdescr`.
pub struct ElectronicsFactory;

impl EntityFactory for ElectronicsFactory {
    fn schema(&self) -> Schema {
        Schema::from_names([
            "title",
            "brand",
            "modelno",
            "price",
            "category",
            "shortdescr",
            "longdescr",
        ])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let (brand, _) = vocab::BRANDS.choose(rng).unwrap();
        let noun = vocab::ELECTRONICS_NOUNS.choose(rng).unwrap();
        let q = vocab::PRODUCT_QUALIFIERS.choose(rng).unwrap();
        let model = format!(
            "{}{}{}",
            (b'a' + rng.random_range(0..26u8)) as char,
            (b'a' + rng.random_range(0..26u8)) as char,
            rng.random_range(100..9999u32)
        );
        let title = format!("{brand} {q} {noun} {model}");
        let price = format!("{:.2}", rng.random_range(15.0..1500.0f64));
        let category = noun.to_string();
        let shortdescr = format!("{q} {noun} by {brand}");
        let longdescr = long_description(rng, &title);
        Entity {
            fields: vec![
                Some(title),
                Some(brand.to_string()),
                Some(model),
                Some(price),
                Some(category),
                Some(shortdescr),
                Some(longdescr),
            ],
        }
    }
}

/// Academic papers (the ACM-DBLP profile): `title, authors, venue, year,
/// pages`.
pub struct PaperFactory {
    /// Extra synthetic surnames so big instances do not exhaust the pool.
    extra_surnames: Vec<String>,
}

impl PaperFactory {
    /// A factory with `extra` synthetic surnames appended to the built-in
    /// pool (pass 0 for the small ACM-DBLP profile).
    pub fn new(rng: &mut StdRng, extra: usize) -> Self {
        PaperFactory {
            extra_surnames: vocab::synth_pool(rng, extra),
        }
    }

    fn surname<'a>(&'a self, rng: &mut StdRng) -> &'a str {
        let total = vocab::LAST_NAMES.len() + self.extra_surnames.len();
        let i = rng.random_range(0..total);
        if i < vocab::LAST_NAMES.len() {
            vocab::LAST_NAMES[i]
        } else {
            &self.extra_surnames[i - vocab::LAST_NAMES.len()]
        }
    }
}

impl EntityFactory for PaperFactory {
    fn schema(&self) -> Schema {
        Schema::from_names(["title", "authors", "venue", "year", "pages"])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let w1 = vocab::PAPER_TOPIC_WORDS.choose(rng).unwrap();
        let mut w2 = vocab::PAPER_TOPIC_WORDS.choose(rng).unwrap();
        while w2 == w1 {
            w2 = vocab::PAPER_TOPIC_WORDS.choose(rng).unwrap();
        }
        let glue = vocab::PAPER_GLUE_WORDS.choose(rng).unwrap();
        let w3 = vocab::PAPER_TOPIC_WORDS.choose(rng).unwrap();
        let title = format!("{w1} {w2} {glue} {w3} queries");
        let n_authors = rng.random_range(1..=4usize);
        let mut authors = Vec::with_capacity(n_authors);
        for _ in 0..n_authors {
            let first = vocab::FIRST_NAMES.choose(rng).unwrap();
            let last = self.surname(rng).to_string();
            authors.push(format!("{first} {last}"));
        }
        let venue = vocab::VENUES.choose(rng).unwrap();
        let year = format!("{}", rng.random_range(1995..2018u32));
        let start = rng.random_range(1..900u32);
        let pages = format!("{start}-{}", start + rng.random_range(8..15u32));
        Entity {
            fields: vec![
                Some(title),
                join_some(&[&authors.join(" , ")]),
                Some(venue.to_string()),
                Some(year),
                Some(pages),
            ],
        }
    }
}

/// Large bibliographic records (the Papers profile): `title, authors,
/// venue, year, volume, pages, publisher`.
pub struct BigPaperFactory {
    inner: PaperFactory,
}

impl BigPaperFactory {
    /// A factory with an extended surname pool of size `extra`.
    pub fn new(rng: &mut StdRng, extra: usize) -> Self {
        BigPaperFactory {
            inner: PaperFactory::new(rng, extra),
        }
    }
}

impl EntityFactory for BigPaperFactory {
    fn schema(&self) -> Schema {
        Schema::from_names([
            "title",
            "authors",
            "venue",
            "year",
            "volume",
            "pages",
            "publisher",
        ])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let base = self.inner.generate(rng);
        let [title, authors, venue, year, pages]: [Option<String>; 5] =
            base.fields.try_into().unwrap();
        let volume = Some(format!("{}", rng.random_range(1..60u32)));
        let publisher = Some(
            [
                "acm",
                "ieee",
                "springer",
                "elsevier",
                "vldb endowment",
                "usenix",
            ]
            .choose(rng)
            .unwrap()
            .to_string(),
        );
        Entity {
            fields: vec![title, authors, venue, year, volume, pages, publisher],
        }
    }
}

/// Restaurants (the Fodors-Zagats profile): `name, addr, city, state,
/// phone, type, review`.
pub struct RestaurantFactory;

impl EntityFactory for RestaurantFactory {
    fn schema(&self) -> Schema {
        Schema::from_names(["name", "addr", "city", "state", "phone", "type", "review"])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let w1 = vocab::RESTAURANT_WORDS.choose(rng).unwrap();
        let w2 = vocab::RESTAURANT_WORDS.choose(rng).unwrap();
        let cuisine = vocab::CUISINES.choose(rng).unwrap();
        let name = if rng.random_bool(0.4) {
            format!("the {w1} {w2}")
        } else {
            format!("{w1} {w2} {cuisine}")
        };
        let (city, _) = vocab::CITIES.choose(rng).unwrap();
        let (state, _) = vocab::STATES.choose(rng).unwrap();
        let num = rng.random_range(1..9999u32);
        let street = vocab::RESTAURANT_WORDS.choose(rng).unwrap();
        let suffix = vocab::STREET_SUFFIXES.choose(rng).unwrap();
        let addr = format!("{num} {street} {suffix}");
        let phone = format!(
            "{}-{}-{:04}",
            rng.random_range(200..999u32),
            rng.random_range(200..999u32),
            rng.random_range(0..9999u32)
        );
        let review = format!("{}", rng.random_range(20..30u32) as f64 / 10.0);
        Entity {
            fields: vec![
                Some(name),
                Some(addr),
                Some(city.to_string()),
                Some(state.to_string()),
                Some(phone),
                Some(cuisine.to_string()),
                Some(review),
            ],
        }
    }
}

/// Songs (the Music1/Music2 profiles): `title, artist, album, year,
/// genre, duration, track, label`. Very short values (avg ~9 chars per
/// attribute in the paper).
pub struct SongFactory {
    artists: Vec<String>,
    albums: Vec<String>,
    labels: Vec<String>,
}

impl SongFactory {
    /// A factory with `n_artists` synthetic artist names (two-word),
    /// `n_albums` album titles, and a small label pool. Larger pools make
    /// larger datasets without degenerate token collisions.
    pub fn new(rng: &mut StdRng, n_artists: usize, n_albums: usize) -> Self {
        let raw = vocab::synth_pool(rng, n_artists + n_albums + 40);
        let (artist_words, rest) = raw.split_at(n_artists);
        let (album_words, label_words) = rest.split_at(n_albums);
        let artists = artist_words
            .iter()
            .map(|w| {
                let sw = vocab::SONG_WORDS[(w.len() * 7) % vocab::SONG_WORDS.len()];
                format!("{sw} {w}")
            })
            .collect();
        let albums = album_words
            .iter()
            .map(|w| {
                let sw = vocab::SONG_WORDS[(w.len() * 13) % vocab::SONG_WORDS.len()];
                format!("{w} {sw}")
            })
            .collect();
        let labels = label_words.iter().map(|w| format!("{w} records")).collect();
        SongFactory {
            artists,
            albums,
            labels,
        }
    }
}

impl EntityFactory for SongFactory {
    fn schema(&self) -> Schema {
        Schema::from_names([
            "title", "artist", "album", "year", "genre", "duration", "track", "label",
        ])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let w1 = vocab::SONG_WORDS.choose(rng).unwrap();
        let w2 = vocab::SONG_WORDS.choose(rng).unwrap();
        let w3 = vocab::SONG_WORDS.choose(rng).unwrap();
        let title = match rng.random_range(0..3u8) {
            0 => format!("{w1} {w2}"),
            1 => format!("{w1} {w2} {w3}"),
            _ => format!("the {w1} {w2}"),
        };
        let artist = self.artists.choose(rng).unwrap().clone();
        let album = self.albums.choose(rng).unwrap().clone();
        let year = format!("{}", rng.random_range(1960..2017u32));
        let genre = vocab::GENRES.choose(rng).unwrap().to_string();
        let duration = format!(
            "{}:{:02}",
            rng.random_range(1..9u32),
            rng.random_range(0..60u32)
        );
        let track = format!("{}", rng.random_range(1..20u32));
        let label = self.labels.choose(rng).unwrap().clone();
        Entity {
            fields: vec![
                Some(title),
                Some(artist),
                Some(album),
                Some(year),
                Some(genre),
                Some(duration),
                Some(track),
                Some(label),
            ],
        }
    }
}

/// Synthetic scale-profile entities (the ZipfScale profile): `name,
/// tags, category`, every token drawn from one shared vocabulary with a
/// Zipfian rank-frequency law. The resulting document frequencies mirror
/// real text (a handful of stopword-like tokens in most records, a long
/// tail of rare ones), which is exactly the regime the SSJ prefix filter
/// is designed around.
pub struct ZipfFactory {
    pool: Vec<String>,
    /// Cumulative (unnormalized) Zipf weights over `pool` ranks.
    cum: Vec<f64>,
}

impl ZipfFactory {
    /// A factory over `vocab` distinct words where rank `r` (0-based) is
    /// drawn with weight `1 / (r + 1)^s`.
    pub fn new(rng: &mut StdRng, vocab: usize, s: f64) -> Self {
        assert!(vocab > 0);
        let pool = vocab::synth_pool(rng, vocab);
        let mut cum = Vec::with_capacity(vocab);
        let mut total = 0.0;
        for r in 0..vocab {
            total += ((r + 1) as f64).powf(-s);
            cum.push(total);
        }
        ZipfFactory { pool, cum }
    }

    fn word(&self, rng: &mut StdRng) -> &str {
        let total = *self.cum.last().expect("non-empty vocabulary");
        let x = rng.random_range(0.0..total);
        let i = self.cum.partition_point(|&c| c <= x);
        &self.pool[i.min(self.pool.len() - 1)]
    }

    fn phrase(&self, rng: &mut StdRng, lo: usize, hi: usize) -> String {
        let n = rng.random_range(lo..=hi);
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.word(rng));
        }
        words.join(" ")
    }
}

impl EntityFactory for ZipfFactory {
    fn schema(&self) -> Schema {
        Schema::from_names(["name", "tags", "category"])
    }

    fn generate(&mut self, rng: &mut StdRng) -> Entity {
        let name = self.phrase(rng, 3, 7);
        let tags = self.phrase(rng, 2, 5);
        let category = self.phrase(rng, 1, 2);
        Entity {
            fields: vec![Some(name), Some(tags), Some(category)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn check_factory(f: &mut dyn EntityFactory, n: usize) {
        let schema = f.schema();
        let mut r = rng();
        for _ in 0..n {
            let e = f.generate(&mut r);
            assert_eq!(e.fields.len(), schema.len());
            // Clean entities have no missing values in these factories.
            assert!(e.fields.iter().all(|v| v.is_some()));
        }
    }

    #[test]
    fn all_factories_respect_their_schema() {
        check_factory(&mut SoftwareProductFactory, 50);
        check_factory(&mut ElectronicsFactory, 50);
        check_factory(&mut PaperFactory::new(&mut rng(), 0), 50);
        check_factory(&mut BigPaperFactory::new(&mut rng(), 100), 50);
        check_factory(&mut RestaurantFactory, 50);
        check_factory(&mut SongFactory::new(&mut rng(), 100, 100), 50);
    }

    #[test]
    fn software_descriptions_are_long() {
        let mut f = SoftwareProductFactory;
        let mut r = rng();
        let mut total = 0usize;
        for _ in 0..30 {
            let e = f.generate(&mut r);
            total += e.fields[4].as_ref().unwrap().len();
        }
        assert!(total / 30 > 100, "descriptions should average >100 chars");
    }

    #[test]
    fn songs_are_short() {
        let mut r = rng();
        let mut f = SongFactory::new(&mut r, 200, 200);
        let e = f.generate(&mut r);
        for v in e.fields.iter().flatten() {
            assert!(v.len() < 40, "song field too long: {v}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut f1 = RestaurantFactory;
        let mut f2 = RestaurantFactory;
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..10 {
            assert_eq!(f1.generate(&mut r1).fields, f2.generate(&mut r2).fields);
        }
    }

    #[test]
    fn paper_years_parse() {
        let mut r = rng();
        let mut f = PaperFactory::new(&mut r, 0);
        for _ in 0..20 {
            let e = f.generate(&mut r);
            let y: u32 = e.fields[3].as_ref().unwrap().parse().unwrap();
            assert!((1995..2018).contains(&y));
        }
    }
}
