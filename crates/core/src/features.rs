//! Feature extraction for candidate pairs.
//!
//! The verifier's random forest needs a feature vector per tuple pair.
//! Per promising attribute we emit word-level Jaccard, normalized edit
//! similarity, and a both-present indicator; globally we add the
//! concatenated Jaccard and a length-ratio feature. These mirror the
//! similarity features Magellan-style EM systems generate.

use mc_ml::RowsView;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::{edit_similarity, SetMeasure};
use mc_table::{split_pair_key, AttrId, Table, TupleId};
use std::cell::RefCell;

/// Truncation bound for edit-distance features (edit distance is
/// quadratic; long descriptions would dominate verification time).
const EDIT_FEATURE_MAX_CHARS: usize = 48;

/// Rows materialized per unit of parallel feature-build work (and per
/// `built` bookkeeping bit in [`FeatureMatrix`]).
const MATRIX_CHUNK_ROWS: usize = 128;

/// Extracts feature vectors for `(a, b)` tuple pairs.
pub struct FeatureExtractor<'t> {
    a: &'t Table,
    b: &'t Table,
    attrs: &'t [AttrId],
    tok_a: &'t TokenizedTable,
    tok_b: &'t TokenizedTable,
    /// All attribute indices (`0..attrs.len()`), precomputed once for the
    /// concatenated-Jaccard merge instead of per feature row.
    all_idx: Vec<usize>,
}

impl<'t> FeatureExtractor<'t> {
    /// A new extractor over the promising attributes and their word
    /// tokenizations (shared rank space).
    pub fn new(
        a: &'t Table,
        b: &'t Table,
        attrs: &'t [AttrId],
        tok_a: &'t TokenizedTable,
        tok_b: &'t TokenizedTable,
    ) -> Self {
        FeatureExtractor {
            a,
            b,
            attrs,
            tok_a,
            tok_b,
            all_idx: (0..attrs.len()).collect(),
        }
    }

    /// Length of the produced feature vectors.
    pub fn n_features(&self) -> usize {
        self.attrs.len() * 3 + 2
    }

    /// The feature vector for pair `(aid, bid)`.
    pub fn features(&self, aid: TupleId, bid: TupleId) -> Vec<f64> {
        let mut out = vec![0.0; self.n_features()];
        self.features_into(aid, bid, &mut out);
        out
    }

    /// Writes the feature vector for `(aid, bid)` into `out`, which must
    /// be exactly [`FeatureExtractor::n_features`] long. This is the
    /// matrix-fill path: one row slot of a shared flat buffer. On ASCII
    /// data it allocates nothing: lowercased cells and the concatenated
    /// rank vectors are built in per-thread scratch.
    pub fn features_into(&self, aid: TupleId, bid: TupleId, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_features(), "feature slot width mismatch");
        ROW_SCRATCH.with(|s| {
            let RowScratch {
                lower_a,
                lower_b,
                merged_a,
                merged_b,
            } = &mut *s.borrow_mut();
            let mut total_a = 0usize;
            let mut total_b = 0usize;
            for (i, &attr) in self.attrs.iter().enumerate() {
                let ra = self.tok_a.ranks(i, aid);
                let rb = self.tok_b.ranks(i, bid);
                total_a += ra.len();
                total_b += rb.len();
                out[i * 3] = SetMeasure::Jaccard.score(ra, rb);
                let va = self.a.value(aid, attr).unwrap_or("");
                let vb = self.b.value(bid, attr).unwrap_or("");
                out[i * 3 + 1] = edit_similarity(edit_form(va, lower_a), edit_form(vb, lower_b));
                out[i * 3 + 2] = f64::from(!va.is_empty() && !vb.is_empty());
            }
            // Concatenated Jaccard over all promising attributes.
            self.tok_a.merged_into(&self.all_idx, aid, merged_a);
            self.tok_b.merged_into(&self.all_idx, bid, merged_b);
            out[self.attrs.len() * 3] = SetMeasure::Jaccard.score(merged_a, merged_b);
            // Token-length ratio (1 = same length).
            let m = total_a.max(total_b);
            out[self.attrs.len() * 3 + 1] = if m == 0 {
                1.0
            } else {
                total_a.min(total_b) as f64 / m as f64
            };
        });
    }
}

/// Per-thread buffers behind [`FeatureExtractor::features_into`]: the
/// matrix fill runs on scoped workers, so a thread-local keeps every
/// worker allocation-free without threading scratch through the caller.
#[derive(Default)]
struct RowScratch {
    lower_a: String,
    lower_b: String,
    merged_a: Vec<u32>,
    merged_b: Vec<u32>,
}

thread_local! {
    static ROW_SCRATCH: RefCell<RowScratch> = RefCell::new(RowScratch::default());
}

/// The form a cell's edit feature compares: its first
/// [`EDIT_FEATURE_MAX_CHARS`] chars, lowercased. When those chars are all
/// ASCII they are one byte each, and `str::to_lowercase` maps exactly
/// `A..=Z` to `a..=z` on ASCII, so the form is the byte prefix lowercased
/// in `buf`. Anything else goes through [`truncate`], whose
/// `to_lowercase` knows the context- and length-changing Unicode cases
/// ('İ', final 'Σ').
fn edit_form<'b>(v: &str, buf: &'b mut String) -> &'b str {
    let n = v.len().min(EDIT_FEATURE_MAX_CHARS);
    if v.as_bytes()[..n].is_ascii() {
        buf.clear();
        buf.push_str(&v[..n]);
        buf.make_ascii_lowercase();
    } else {
        *buf = truncate(v);
    }
    buf
}

/// A row-major flat feature matrix over a fixed list of candidate pairs:
/// one contiguous `f64` buffer, row `i` holding the features of packed
/// pair key `pairs[i]`. Rows are materialized chunk-at-a-time across
/// scoped worker threads — eagerly for the head the verifier is sure to
/// score, lazily for the tail — and each chunk is built exactly once.
///
/// This replaces the verifier's former `Vec<Option<Vec<f64>>>` cache:
/// same lazy semantics, but no per-row allocation, no per-access clone,
/// and the buffer doubles as zero-copy training/scoring input for
/// `mc-ml` via [`FeatureMatrix::view`].
pub struct FeatureMatrix {
    buf: Vec<f64>,
    stride: usize,
    /// One flag per [`MATRIX_CHUNK_ROWS`]-row chunk.
    built: Vec<bool>,
}

impl FeatureMatrix {
    /// An empty (nothing built) matrix with `n_rows` row slots of width
    /// `stride`.
    pub fn new(n_rows: usize, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        FeatureMatrix {
            buf: vec![0.0; n_rows * stride],
            stride,
            built: vec![false; n_rows.div_ceil(MATRIX_CHUNK_ROWS)],
        }
    }

    /// Number of row slots.
    pub fn len(&self) -> usize {
        self.buf.len() / self.stride
    }

    /// True if the matrix has no row slots.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Row `i` as a feature slice. The covering chunk must have been
    /// materialized by a prior `ensure_*` call.
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(
            self.built[i / MATRIX_CHUNK_ROWS],
            "row {i} read before its chunk was built"
        );
        &self.buf[i * self.stride..(i + 1) * self.stride]
    }

    /// The whole buffer as an `mc-ml` scoring/training view. Callers must
    /// only index rows they have ensured.
    pub fn view(&self) -> RowsView<'_> {
        RowsView::new(&self.buf, self.stride)
    }

    /// Materializes every not-yet-built chunk overlapping rows
    /// `0..rows`, splitting the missing chunks across up to `threads`
    /// workers of the CPU budget (`0` = all cores). `pairs` must be the
    /// matrix's full pair list; already-built chunks are skipped, so
    /// repeated calls only pay for new rows.
    pub fn ensure_upto(
        &mut self,
        rows: usize,
        pairs: &[u64],
        fx: &FeatureExtractor<'_>,
        threads: usize,
    ) {
        assert_eq!(pairs.len(), self.len(), "pair list / matrix size mismatch");
        let chunk_len = MATRIX_CHUNK_ROWS * self.stride;
        let n_chunks = rows.min(self.len()).div_ceil(MATRIX_CHUNK_ROWS);
        let built = &mut self.built;
        let stride = self.stride;
        let mut jobs: Vec<(usize, &mut [f64])> = self
            .buf
            .chunks_mut(chunk_len)
            .take(n_chunks)
            .enumerate()
            .filter(|(c, _)| !built[*c])
            .collect();
        if jobs.is_empty() {
            return;
        }
        let _span = mc_obs::span!("mc.core.verify.feature_matrix.build");
        let fill = |c: usize, out: &mut [f64]| {
            let start_row = c * MATRIX_CHUNK_ROWS;
            for (r, slot) in out.chunks_mut(stride).enumerate() {
                let (a, b) = split_pair_key(pairs[start_row + r]);
                fx.features_into(a, b, slot);
            }
        };
        let per = mc_obs::par::share_len(jobs.len(), threads);
        let mut shares: Vec<_> = jobs.chunks_mut(per).collect();
        mc_obs::par::for_each(&mut shares, threads, |share| {
            for (c, chunk) in share.iter_mut() {
                fill(*c, chunk);
            }
        });
        let mut rows_built = 0usize;
        for (c, chunk) in &jobs {
            built[*c] = true;
            rows_built += chunk.len() / stride;
        }
        mc_obs::counter!("mc.core.verify.feature_matrix.rows_built").add(rows_built as u64);
    }

    /// Materializes every remaining chunk; see
    /// [`FeatureMatrix::ensure_upto`].
    pub fn ensure_all(&mut self, pairs: &[u64], fx: &FeatureExtractor<'_>, threads: usize) {
        self.ensure_upto(self.len(), pairs, fx, threads);
    }
}

fn truncate(s: &str) -> String {
    s.chars()
        .take(EDIT_FEATURE_MAX_CHARS)
        .collect::<String>()
        .to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_strsim::tokenize::Tokenizer;
    use mc_table::{Schema, Tuple};
    use std::sync::Arc;

    fn setup() -> (Table, Table, Vec<AttrId>) {
        let schema = Arc::new(Schema::from_names(["name", "city"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::from_present(["dave smith", "atlanta"]));
        a.push(Tuple::new(vec![Some("joe welson".into()), None]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["david smith", "atlanta"]));
        b.push(Tuple::from_present(["joe wilson", "new york"]));
        (a, b, vec![AttrId(0), AttrId(1)])
    }

    #[test]
    fn feature_vector_shape_and_ranges() {
        let (a, b, attrs) = setup();
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        assert_eq!(fx.n_features(), 2 * 3 + 2);
        for aid in 0..2 {
            for bid in 0..2 {
                let f = fx.features(aid, bid);
                assert_eq!(f.len(), fx.n_features());
                for (i, v) in f.iter().enumerate() {
                    assert!((0.0..=1.0).contains(v), "feature {i} = {v}");
                }
            }
        }
    }

    #[test]
    fn matching_pair_scores_higher_than_random() {
        let (a, b, attrs) = setup();
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let same = fx.features(0, 0); // dave smith/atlanta vs david smith/atlanta
        let diff = fx.features(0, 1); // vs joe wilson/new york
                                      // Concatenated jaccard (second-to-last feature) should separate.
        let cj = fx.n_features() - 2;
        assert!(same[cj] > diff[cj]);
        // City jaccard (attr 1, feature 3) is 1.0 vs 0.0.
        assert_eq!(same[3], 1.0);
        assert_eq!(diff[3], 0.0);
    }

    #[test]
    fn missing_values_zero_presence_flag() {
        let (a, b, attrs) = setup();
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let f = fx.features(1, 0); // a1 has no city
                                   // presence flag for city = features[5]
        assert_eq!(f[5], 0.0);
        assert_eq!(f[2], 1.0); // name present on both sides
    }

    #[test]
    fn matrix_rows_equal_extractor_features() {
        use mc_table::pair_key;
        let (a, b, attrs) = setup();
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let pairs: Vec<u64> = (0..2)
            .flat_map(|x| (0..2).map(move |y| pair_key(x, y)))
            .collect();
        for threads in [1, 3] {
            let mut m = FeatureMatrix::new(pairs.len(), fx.n_features());
            assert_eq!(m.len(), pairs.len());
            m.ensure_upto(1, &pairs, &fx, threads);
            m.ensure_all(&pairs, &fx, threads);
            for (i, &key) in pairs.iter().enumerate() {
                let (x, y) = mc_table::split_pair_key(key);
                assert_eq!(m.row(i), fx.features(x, y).as_slice(), "row {i}");
                assert_eq!(m.view().row(i), m.row(i));
            }
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let (a, b, attrs) = setup();
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let mut m = FeatureMatrix::new(0, fx.n_features());
        m.ensure_all(&[], &fx, 2);
        assert!(m.is_empty());
    }

    /// The row builder as it was before the scratch kernel: an owned
    /// lowercased `truncate` per cell, the full-table edit distance, and
    /// an owned concatenated rank vector per side.
    fn reference_row(fx: &FeatureExtractor<'_>, aid: TupleId, bid: TupleId) -> Vec<f64> {
        fn dp(a: &str, b: &str) -> usize {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            let mut prev: Vec<usize> = (0..=b.len()).collect();
            for (i, ca) in a.iter().enumerate() {
                let mut cur = vec![i + 1; b.len() + 1];
                for (j, cb) in b.iter().enumerate() {
                    let cost = usize::from(ca != cb);
                    cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
                }
                prev = cur;
            }
            prev[b.len()]
        }
        fn similarity(a: &str, b: &str) -> f64 {
            let m = a.chars().count().max(b.chars().count());
            if m == 0 {
                return 1.0;
            }
            1.0 - dp(a, b) as f64 / m as f64
        }
        let mut out = vec![0.0; fx.n_features()];
        let (mut total_a, mut total_b) = (0usize, 0usize);
        for (i, &attr) in fx.attrs.iter().enumerate() {
            let ra = fx.tok_a.ranks(i, aid);
            let rb = fx.tok_b.ranks(i, bid);
            total_a += ra.len();
            total_b += rb.len();
            out[i * 3] = SetMeasure::Jaccard.score(ra, rb);
            let va = fx.a.value(aid, attr).unwrap_or("");
            let vb = fx.b.value(bid, attr).unwrap_or("");
            out[i * 3 + 1] = similarity(&truncate(va), &truncate(vb));
            out[i * 3 + 2] = f64::from(!va.is_empty() && !vb.is_empty());
        }
        let merged_a = fx.tok_a.merged(&fx.all_idx, aid);
        let merged_b = fx.tok_b.merged(&fx.all_idx, bid);
        out[fx.attrs.len() * 3] = SetMeasure::Jaccard.score(&merged_a, &merged_b);
        let m = total_a.max(total_b);
        out[fx.attrs.len() * 3 + 1] = if m == 0 {
            1.0
        } else {
            total_a.min(total_b) as f64 / m as f64
        };
        out
    }

    #[test]
    fn scratch_rows_are_bit_equal_to_the_reference_builder() {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        let words: Vec<&str> = "Dave SMITH atlanta İstanbul ΟΔΟΣ Σίσυφος café CAFÉ \
                                new York x straße the and ΣΑΣ ok"
            .split_whitespace()
            .collect();
        let mut rng = StdRng::seed_from_u64(17);
        let cell = |rng: &mut StdRng| -> Option<String> {
            match rng.random_range(0..8usize) {
                0 => None,
                1 => Some(String::new()),
                n => {
                    // n == 7 builds values well past the 48-char cut.
                    let len = if n == 7 {
                        rng.random_range(8..20usize)
                    } else {
                        rng.random_range(1..5usize)
                    };
                    let v: Vec<&str> = (0..len)
                        .map(|_| words[rng.random_range(0..words.len())])
                        .collect();
                    Some(v.join(" "))
                }
            }
        };
        let schema = Arc::new(Schema::from_names(["name", "city", "desc"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", schema);
        for _ in 0..60 {
            a.push(Tuple::new((0..3).map(|_| cell(&mut rng)).collect()));
            b.push(Tuple::new((0..3).map(|_| cell(&mut rng)).collect()));
        }
        let attrs = vec![AttrId(0), AttrId(1), AttrId(2)];
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let mut row = vec![0.0; fx.n_features()];
        for aid in 0..a.len() as TupleId {
            for bid in 0..b.len() as TupleId {
                fx.features_into(aid, bid, &mut row);
                let want = reference_row(&fx, aid, bid);
                let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&row), bits(&want), "pair ({aid}, {bid})");
            }
        }
    }

    #[test]
    fn edit_feature_handles_misspelling() {
        let (a, b, attrs) = setup();
        let (ta, tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let fx = FeatureExtractor::new(&a, &b, &attrs, &ta, &tb);
        let f = fx.features(1, 1); // joe welson vs joe wilson
                                   // name edit similarity = features[1]; 1 char differs out of 10.
        assert!(f[1] > 0.85);
    }
}
