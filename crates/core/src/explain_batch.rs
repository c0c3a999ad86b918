//! Batch explain engine: columnar, parallel diagnosis over the whole
//! candidate union.
//!
//! [`crate::explain::diagnose_values`] is the per-pair slow path: every
//! call re-tokenizes both raw strings, re-sorts the word multisets and
//! re-derives the abbreviation forms. Running it over the full candidate
//! union (`|E|` pairs × all schema attributes) for pervasiveness is
//! quadratic in exactly the work the rest of the pipeline already
//! amortizes. The [`DiagnosisKernel`] flips the loop inside out:
//!
//! 1. **Columnar value interning** — per attribute, one [`ValueDict`]
//!    shared across tables A and B maps every raw value to a dense id,
//!    so byte-equality becomes id-equality and each *distinct* value is
//!    prepared (tokenized, normalized, sorted, abbreviation forms,
//!    numeric parse) exactly once. On Zipfian data the distinct count is
//!    a small fraction of the row count.
//! 2. **Direct, header-driven diagnosis** — every cell with both values
//!    present runs the cascade on its two value ids; each value's
//!    one-cache-line fingerprint (`ValueHeader`) rejects most checks
//!    before the deep forms load. There is no value-pair memo: on the
//!    committed explain profile one served under 5% of lookups, and the
//!    sweep ran faster without it.
//! 3. **Pair sharding** — batch entry points split the pair list into
//!    one contiguous share per allowed worker, claimed by the workers of
//!    the CPU budget ([`mc_obs::par`]), each with its own scratch,
//!    writing disjoint output slots; results come back in input order.
//!
//! The kernel is **bit-identical** to the per-pair path by construction
//! (the prepared cascade mirrors `diagnose_values` branch for branch,
//! reusing the same
//! [`bounded_edit_distance`](mc_strsim::measures::bounded_edit_distance)
//! early-exit kernel) and by proof (`tests/explain_properties.rs` drives
//! a randomized oracle over every diagnosis class; the
//! `explain_baseline` bench asserts equality again at zipf scale).

use crate::explain::{summarize_problems, Diagnosis, MatchExplanation};
use crate::joint::CandidateUnion;
use crate::pervasive::{ProblemClass, ProblemGroup, Signature};
use mc_strsim::dict::{is_strict_sorted_subset, ValueDict};
use mc_strsim::measures::{bounded_edit_distance_chars, EditScratch};
use mc_table::hash::{FxHashMap, FxHashSet};
use mc_table::{split_pair_key, AttrId, Table, TupleId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

std::thread_local! {
    /// Per-thread edit-distance buffers (two char operands + DP rows):
    /// the diagnosis hot loop runs on fan-out workers, so a
    /// thread-local keeps every worker allocation-free without
    /// threading scratch through the sweeps.
    static EDIT_SCRATCH: RefCell<(Vec<char>, Vec<char>, EditScratch)> =
        RefCell::new((Vec::new(), Vec::new(), EditScratch::default()));
}

/// Histogram bins in [`ValueHeader::hist`].
const HIST_BINS: usize = 16;

/// A distinct value's hot fingerprint — everything the diagnosis
/// cascade needs to *reject* a check, packed into exactly one cache
/// line so the ~95%-miss full-union sweep touches two lines per value
/// pair instead of chasing the [`PreparedValue`] heap structures.
///
/// Every field is a *necessary* condition for its check: a fingerprint
/// mismatch is a sound skip, a match falls through to the exact compare
/// on the cold [`PreparedValue`].
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct ValueHeader {
    /// Bit 0: `raw.trim().is_empty()`; bit 1: `raw` parses as `f64`.
    flags: u8,
    /// Saturating character histogram of `norm`, binned by
    /// `char % HIST_BINS`. Each edit operation moves the L1 distance
    /// between two histograms by at most 2, so
    /// `edit(a, b) ≥ L1(hist_a, hist_b) / 2` — a sound lower bound that
    /// rejects most pairs before the banded DP runs (saturation and bin
    /// collisions only shrink L1, never inflate it).
    hist: [u8; HIST_BINS],
    /// `norm.chars().count()` — the *char* length the edit-distance
    /// cutoffs are defined over (byte length differs under non-ASCII).
    norm_chars: u32,
    /// Byte length of [`PreparedValue::compact`].
    compact_len: u32,
    /// Byte length of [`PreparedValue::full`].
    full_len: u32,
    /// Byte length of [`PreparedValue::initials`].
    initials_len: u32,
    /// FNV-1a over `toks` — inequality proves sequence inequality.
    toks_hash: u64,
    /// FNV-1a over `sorted` — same trick for the multiset compare.
    sorted_hash: u64,
    /// Bloom of token ids (`bit id % 64`): `a ⊆ b` requires
    /// `mask_a & !mask_b == 0`, pruning the subset merges.
    tok_mask: u64,
}

impl ValueHeader {
    const TRIM_EMPTY: u8 = 1;
    const NUMERIC: u8 = 2;

    fn trim_empty(&self) -> bool {
        self.flags & Self::TRIM_EMPTY != 0
    }

    fn has_numeric(&self) -> bool {
        self.flags & Self::NUMERIC != 0
    }
}

/// A raw value's precomputed deep comparison forms — the cold half of
/// the split; loaded only when a [`ValueHeader`] fingerprint matches.
///
/// All variable-length data lives in the owning column's shared arenas
/// ([`AttrColumn::text`], [`AttrColumn::tok_arena`]); this struct holds
/// only `(start, end)` ranges, so preparing a column performs O(1)
/// allocations total and a value's deep forms sit in one 64-byte slot.
#[derive(Debug, Clone, Copy)]
struct PreparedValue {
    /// Word token ids in appearance order (per-attribute interner), so
    /// id-sequence equality ⟺ normalized-string equality. Range into
    /// `tok_arena`.
    toks: (u32, u32),
    /// The same ids sorted — the word multiset. Range into `tok_arena`.
    sorted: (u32, u32),
    /// `word_tokens(raw).join(" ")` — the edit-distance operand
    /// (decoded into thread-local char buffers only when the DP
    /// actually runs, which the histogram bound makes rare). Byte range
    /// into `text`.
    norm: (u32, u32),
    /// Alphanumeric chars of `norm` — the "short" side of the
    /// abbreviation check. Byte range into `text`.
    compact: (u32, u32),
    /// `words.join("")` — the "full" side of the abbreviation check.
    /// Byte range into `text`.
    full: (u32, u32),
    /// First char of each word — the initialism. Byte range into `text`.
    initials: (u32, u32),
    /// `raw.trim().parse::<f64>()`.
    numeric: Option<f64>,
}

/// Resolves a byte range into the text arena.
#[inline]
fn text_at(arena: &str, r: (u32, u32)) -> &str {
    &arena[r.0 as usize..r.1 as usize]
}

/// Resolves a range into the token-id arena.
#[inline]
fn toks_at(arena: &[u32], r: (u32, u32)) -> &[u32] {
    &arena[r.0 as usize..r.1 as usize]
}

/// Reused per-column scratch for [`prepare`] — cleared per value, so the
/// per-value cost is copying a few dozen bytes into the arenas.
#[derive(Default)]
struct PrepScratch {
    norm: String,
    compact: String,
    full: String,
    initials: String,
    toks: Vec<u32>,
    sorted: Vec<u32>,
}

/// FNV-1a over a token-id sequence. Equal sequences hash equal, so a
/// hash mismatch is a sound fast reject; a hash match still falls back
/// to the exact compare.
#[inline]
fn tok_seq_hash(toks: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in toks {
        h = (h ^ t as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Expands every non-zero nibble of `x` to `0xF` — the "attribute has a
/// problem" mask for packed-signature subset tests.
#[inline]
fn nibble_mask(x: u64) -> u64 {
    let mut m = x | (x >> 1);
    m |= m >> 2;
    m &= 0x1111_1111_1111_1111;
    m.wrapping_mul(0xF)
}

/// L1 distance between two character histograms.
#[inline]
fn hist_l1(a: &[u8; HIST_BINS], b: &[u8; HIST_BINS]) -> usize {
    let mut d = 0usize;
    for i in 0..HIST_BINS {
        d += a[i].abs_diff(b[i]) as usize;
    }
    d
}

/// One pass over `raw` mirroring `word_tokens` + `join(" ")`: lowercased
/// maximal alphanumeric runs (lowercase may expand, e.g. 'İ' → "i" +
/// combining dot) separated by single spaces. Every derived form —
/// compact, full, initials, char count, histogram — is built during the
/// same scan, ASCII chars skip the Unicode lowercase machinery, and
/// tokens intern as `&str` slices of the normalized string, so a token
/// already in the interner costs no allocation.
fn prepare(
    raw: &str,
    interner: &mut FxHashMap<String, u32>,
    scratch: &mut PrepScratch,
    text: &mut String,
    tok_arena: &mut Vec<u32>,
) -> (ValueHeader, PreparedValue) {
    scratch.norm.clear();
    scratch.compact.clear();
    scratch.full.clear();
    scratch.initials.clear();
    scratch.toks.clear();
    scratch.sorted.clear();
    let norm = &mut scratch.norm;
    let compact = &mut scratch.compact;
    let full = &mut scratch.full;
    let initials = &mut scratch.initials;
    let mut norm_chars = 0u32;
    let mut hist = [0u8; HIST_BINS];
    let mut start = 0usize;
    let mut in_tok = false;
    let mut intern = |word: &str, toks: &mut Vec<u32>| {
        toks.push(match interner.get(word) {
            Some(&id) => id,
            None => {
                let next = interner.len() as u32;
                interner.insert(word.to_string(), next);
                next
            }
        });
    };
    for c in raw.chars() {
        let alnum = if c.is_ascii() {
            c.is_ascii_alphanumeric()
        } else {
            c.is_alphanumeric()
        };
        if alnum {
            let first = !in_tok;
            if first {
                if !norm.is_empty() {
                    norm.push(' ');
                    norm_chars += 1;
                    let sp = b' ' as usize % HIST_BINS;
                    hist[sp] = hist[sp].saturating_add(1);
                }
                start = norm.len();
                in_tok = true;
            }
            if c.is_ascii() {
                // ASCII alphanumerics lowercase to exactly one ASCII
                // alphanumeric — no expansion, no Unicode tables.
                let lc = c.to_ascii_lowercase();
                norm.push(lc);
                norm_chars += 1;
                let bin = lc as usize % HIST_BINS;
                hist[bin] = hist[bin].saturating_add(1);
                full.push(lc);
                compact.push(lc);
                if first {
                    initials.push(lc);
                }
            } else {
                let mut fst = first;
                for lc in c.to_lowercase() {
                    norm.push(lc);
                    norm_chars += 1;
                    let bin = (lc as u32 as usize) % HIST_BINS;
                    hist[bin] = hist[bin].saturating_add(1);
                    full.push(lc);
                    if lc.is_alphanumeric() {
                        compact.push(lc);
                    }
                    if fst {
                        initials.push(lc);
                        fst = false;
                    }
                }
            }
        } else if in_tok {
            intern(&norm[start..], &mut scratch.toks);
            in_tok = false;
        }
    }
    if in_tok {
        intern(&norm[start..], &mut scratch.toks);
    }
    scratch.sorted.extend_from_slice(&scratch.toks);
    scratch.sorted.sort_unstable();
    let tok_mask = scratch.toks.iter().fold(0u64, |m, &t| m | 1u64 << (t & 63));
    let toks_hash = tok_seq_hash(&scratch.toks);
    let sorted_hash = tok_seq_hash(&scratch.sorted);
    let numeric = raw.trim().parse::<f64>().ok();
    let mut flags = 0u8;
    if raw.trim().is_empty() {
        flags |= ValueHeader::TRIM_EMPTY;
    }
    if numeric.is_some() {
        flags |= ValueHeader::NUMERIC;
    }
    let header = ValueHeader {
        flags,
        hist,
        norm_chars,
        compact_len: compact.len() as u32,
        full_len: full.len() as u32,
        initials_len: initials.len() as u32,
        toks_hash,
        sorted_hash,
        tok_mask,
    };
    let mut push_text = |piece: &str| -> (u32, u32) {
        let st = text.len() as u32;
        text.push_str(piece);
        (st, text.len() as u32)
    };
    let norm_r = push_text(&scratch.norm);
    let compact_r = push_text(&scratch.compact);
    let full_r = push_text(&scratch.full);
    let initials_r = push_text(&scratch.initials);
    let mut push_toks = |piece: &[u32]| -> (u32, u32) {
        let st = tok_arena.len() as u32;
        tok_arena.extend_from_slice(piece);
        (st, tok_arena.len() as u32)
    };
    let toks_r = push_toks(&scratch.toks);
    let sorted_r = push_toks(&scratch.sorted);
    let value = PreparedValue {
        toks: toks_r,
        sorted: sorted_r,
        norm: norm_r,
        compact: compact_r,
        full: full_r,
        initials: initials_r,
        numeric,
    };
    (header, value)
}

/// `pa` (as the multi-word form) is abbreviated by `pb` (as the short
/// form) — the prepared mirror of `explain::is_abbreviation(words_a,
/// norm_b)`: the original's `compact` is the alphanumeric filter of the
/// short side's *normalized* string, and its `full`/`initials` come
/// from the word side's token list.
fn abbreviates(text: &str, pa: &PreparedValue, pb: &PreparedValue) -> bool {
    let compact = text_at(text, pb.compact);
    if compact.is_empty() {
        return false;
    }
    let n_toks = pa.toks.1 - pa.toks.0;
    if n_toks >= 2 && text_at(text, pa.initials) == compact {
        return true;
    }
    let full = text_at(text, pa.full);
    compact.len() >= 2 && compact.len() * 2 <= full.len() && full.starts_with(compact)
}

/// Header-only necessary condition for [`abbreviates`]`(a, b)`: either
/// arm requires its byte-length equation to hold, so a length mismatch
/// is a sound skip of the string compares.
#[inline]
fn abbrev_possible(ha: &ValueHeader, hb: &ValueHeader) -> bool {
    hb.compact_len > 0
        && (ha.initials_len == hb.compact_len
            || (hb.compact_len >= 2 && hb.compact_len * 2 <= ha.full_len))
}

/// The diagnosis cascade — branch-for-branch identical to
/// [`crate::explain::diagnose_values`] on two present values, driven by
/// the one-cache-line [`ValueHeader`] fingerprints: each deep compare
/// (and its [`PreparedValue`] load) runs only when the headers say it
/// *could* succeed, so the common all-checks-fail pair touches exactly
/// two cache lines. `va == vb` is the interned byte-equality bit.
impl AttrColumn {
    fn diagnose_ids(&self, va: u32, vb: u32) -> Diagnosis {
        let ha = &self.headers[va as usize];
        let hb = &self.headers[vb as usize];
        if ha.trim_empty() && hb.trim_empty() {
            return Diagnosis::MissingBoth;
        }
        if ha.trim_empty() || hb.trim_empty() {
            return Diagnosis::MissingOneSide;
        }
        if va == vb {
            return Diagnosis::Exact;
        }
        let pa = &self.values[va as usize];
        let pb = &self.values[vb as usize];
        let text = self.text.as_str();
        let toks = self.tok_arena.as_slice();
        if ha.toks_hash == hb.toks_hash && toks_at(toks, pa.toks) == toks_at(toks, pb.toks) {
            return Diagnosis::CaseOrPunct;
        }
        if ha.sorted_hash == hb.sorted_hash && toks_at(toks, pa.sorted) == toks_at(toks, pb.sorted)
        {
            return Diagnosis::WordReorder;
        }
        if (ha.tok_mask & !hb.tok_mask == 0
            && is_strict_sorted_subset(toks_at(toks, pa.sorted), toks_at(toks, pb.sorted)))
            || (hb.tok_mask & !ha.tok_mask == 0
                && is_strict_sorted_subset(toks_at(toks, pb.sorted), toks_at(toks, pa.sorted)))
        {
            return Diagnosis::TokenSubset;
        }
        if (abbrev_possible(ha, hb) && abbreviates(text, pa, pb))
            || (abbrev_possible(hb, ha) && abbreviates(text, pb, pa))
        {
            return Diagnosis::Abbreviation;
        }
        let max_len = ha.norm_chars.max(hb.norm_chars) as usize;
        if max_len >= 3 {
            let cutoff = 3.min(max_len / 3);
            // Two header-only rejects before touching the scratch: the
            // banded program returns None whenever the length gap alone
            // exceeds the cutoff, and whenever the histogram lower bound
            // does (each edit op moves the char-multiset L1 distance by
            // at most 2).
            if (ha.norm_chars.abs_diff(hb.norm_chars) as usize) <= cutoff
                && hist_l1(&ha.hist, &hb.hist) <= 2 * cutoff
            {
                let d = EDIT_SCRATCH.with(|s| {
                    let (ca, cb, scratch) = &mut *s.borrow_mut();
                    ca.clear();
                    ca.extend(text_at(text, pa.norm).chars());
                    cb.clear();
                    cb.extend(text_at(text, pb.norm).chars());
                    bounded_edit_distance_chars(ca, cb, cutoff, scratch)
                });
                if let Some(d) = d {
                    return Diagnosis::SmallEdit(d as u8);
                }
            }
        }
        if ha.has_numeric() && hb.has_numeric() {
            if let (Some(x), Some(y)) = (pa.numeric, pb.numeric) {
                let m = x.abs().max(y.abs());
                if m > 0.0 && (x - y).abs() / m <= 0.3 {
                    return Diagnosis::NumericClose;
                }
            }
        }
        Diagnosis::Different
    }
}

/// One attribute's columnar state: value-id columns for both tables and
/// the prepared forms of every distinct value.
struct AttrColumn {
    /// Row → value id for table A ([`ValueDict::MISSING`] = `None`).
    col_a: Vec<u32>,
    /// Row → value id for table B.
    col_b: Vec<u32>,
    /// Hot fingerprints, indexed by value id — one cache line each.
    headers: Vec<ValueHeader>,
    /// Cold prepared forms, indexed by value id.
    values: Vec<PreparedValue>,
    /// Shared byte arena for all prepared string forms.
    text: String,
    /// Shared id arena for all token sequences (appearance + sorted).
    tok_arena: Vec<u32>,
}

impl AttrColumn {
    fn build<'t>(a: &'t Table, b: &'t Table, attr: AttrId) -> AttrColumn {
        let mut vd = ValueDict::new();
        let mut raws: Vec<&'t str> = Vec::new();
        let mut intern_cell = |v: Option<&'t str>| -> u32 {
            let before = vd.len();
            let vid = vd.intern_opt(v);
            if vid != ValueDict::MISSING && vd.len() > before {
                raws.push(v.unwrap());
            }
            vid
        };
        let mut col_a = Vec::with_capacity(a.len());
        for id in 0..a.len() as TupleId {
            col_a.push(intern_cell(a.value(id, attr)));
        }
        let mut col_b = Vec::with_capacity(b.len());
        for id in 0..b.len() as TupleId {
            col_b.push(intern_cell(b.value(id, attr)));
        }
        let mut interner: FxHashMap<String, u32> = FxHashMap::default();
        let mut scratch = PrepScratch::default();
        let mut text = String::new();
        let mut tok_arena: Vec<u32> = Vec::new();
        let mut headers = Vec::with_capacity(raws.len());
        let mut values = Vec::with_capacity(raws.len());
        for r in &raws {
            let (h, v) = prepare(r, &mut interner, &mut scratch, &mut text, &mut tok_arena);
            headers.push(h);
            values.push(v);
        }
        AttrColumn {
            col_a,
            col_b,
            headers,
            values,
            text,
            tok_arena,
        }
    }
}

/// Deterministic work statistics for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Distinct values interned across all attributes (both tables).
    pub distinct_values: u64,
    /// Cell diagnoses run with both sides present. Deterministic: a
    /// pure function of the tables and the pair lists.
    pub lookups: u64,
}

/// Attributes per packed signature word: one nibble each (class count
/// is 6 < 15).
const ATTRS_PER_WORD: usize = 16;

/// The batch diagnosis engine. Build once per `(A, B)` table pair, then
/// run any number of batch explain / signature / pervasiveness passes
/// against it; the prepared columns are shared by every call.
pub struct DiagnosisKernel {
    attrs: Vec<AttrId>,
    cols: Vec<AttrColumn>,
    threads: usize,
    lookups: AtomicU64,
}

impl DiagnosisKernel {
    /// Interns and prepares every attribute column of `a` and `b`
    /// (attributes split across up to `threads` workers of the CPU
    /// budget; `0` = all cores). Later sweeps use the same bound.
    pub fn build(a: &Table, b: &Table, threads: usize) -> DiagnosisKernel {
        let _span = mc_obs::span!("mc.core.explain.build");
        let attrs: Vec<AttrId> = a.schema().attr_ids().collect();
        let shares: Vec<&[AttrId]> = attrs
            .chunks(mc_obs::par::share_len(attrs.len(), threads))
            .collect();
        let cols: Vec<AttrColumn> = mc_obs::par::map(&shares, threads, |share| {
            share
                .iter()
                .map(|&attr| AttrColumn::build(a, b, attr))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let distinct: u64 = cols.iter().map(|c| c.values.len() as u64).sum();
        mc_obs::counter!("mc.core.explain.values_interned").add(distinct);
        DiagnosisKernel {
            attrs,
            cols,
            threads,
            lookups: AtomicU64::new(0),
        }
    }

    /// Diagnoses one pair across every schema attribute — the batch
    /// equivalent of [`crate::explain::explain_match`]'s body.
    pub fn diagnose_pair(&self, aid: TupleId, bid: TupleId) -> Vec<(AttrId, Diagnosis)> {
        let mut lookups = 0u64;
        let out = self
            .attrs
            .iter()
            .zip(&self.cols)
            .map(|(&attr, col)| (attr, Self::cell(col, aid, bid, &mut lookups)))
            .collect();
        self.lookups.fetch_add(lookups, Ordering::Relaxed);
        out
    }

    fn cell(col: &AttrColumn, aid: TupleId, bid: TupleId, lookups: &mut u64) -> Diagnosis {
        let va = col.col_a[aid as usize];
        let vb = col.col_b[bid as usize];
        match (va == ValueDict::MISSING, vb == ValueDict::MISSING) {
            (true, true) => return Diagnosis::MissingBoth,
            (true, false) | (false, true) => return Diagnosis::MissingOneSide,
            _ => {}
        }
        *lookups += 1;
        col.diagnose_ids(va, vb)
    }

    /// Explains every pair (one [`MatchExplanation`] each, in input
    /// order), sharding the list across fan-out workers.
    pub fn explain_pairs(&self, pairs: &[(TupleId, TupleId)]) -> Vec<MatchExplanation> {
        self.par_map(pairs, |(x, y)| MatchExplanation {
            pair: (x, y),
            per_attr: self.diagnose_pair(x, y),
        })
    }

    /// `u64` words per packed signature: enough nibbles for every
    /// attribute, and at least one, so a pair always owns a slot.
    fn sig_words(&self) -> usize {
        self.attrs.len().div_ceil(ATTRS_PER_WORD).max(1)
    }

    /// Writes the packed signatures of `pairs` into `out` (zeroed,
    /// [`Self::sig_words`] words per pair): nibble `i % 16` of word
    /// `i / 16` holds `class + 1` for the `i`-th kernel attribute (`0` =
    /// no problem), so a clean pair is all zeros and no per-pair
    /// allocation ever happens. The sweep is *columnar*: one full pass
    /// over `pairs` per attribute, so a pass's working set is a single
    /// column's headers instead of every attribute's interleaved.
    /// Returns the lookups made.
    fn sweep(&self, pairs: &[(TupleId, TupleId)], out: &mut [u64]) -> u64 {
        let words = self.sig_words();
        let mut lookups = 0u64;
        for (i, col) in self.cols.iter().enumerate() {
            let word = i / ATTRS_PER_WORD;
            let shift = 4 * (i % ATTRS_PER_WORD) as u32;
            for (&(x, y), sig) in pairs.iter().zip(out.chunks_exact_mut(words)) {
                let d = Self::cell(col, x, y, &mut lookups);
                if let Some(c) = ProblemClass::from_diagnosis(d) {
                    sig[word] |= (c as u64 + 1) << shift;
                }
            }
        }
        lookups
    }

    /// Packed signatures for every pair, in input order, [`Self::sweep`]
    /// run over one contiguous share of the pairs per worker. Lookup
    /// counts are batched per share.
    fn packed_signatures(&self, pairs: &[(TupleId, TupleId)]) -> Vec<u64> {
        let words = self.sig_words();
        let mut out = vec![0u64; pairs.len() * words];
        let per = mc_obs::par::share_len(pairs.len(), self.threads);
        let mut jobs: Vec<_> = pairs.chunks(per).zip(out.chunks_mut(per * words)).collect();
        mc_obs::par::for_each(&mut jobs, self.threads, |(chunk_in, chunk_out)| {
            let lookups = self.sweep(chunk_in, chunk_out);
            self.lookups.fetch_add(lookups, Ordering::Relaxed);
        });
        out
    }

    /// Expands a packed signature back into the [`Signature`] the
    /// per-pair oracle would have produced.
    fn unpack_signature(&self, packed: &[u64]) -> Signature {
        let problems = self
            .attrs
            .iter()
            .enumerate()
            .filter_map(|(i, &attr)| {
                let nib = (packed[i / ATTRS_PER_WORD] >> (4 * (i % ATTRS_PER_WORD))) & 0xF;
                if nib == 0 {
                    return None;
                }
                let class = match nib - 1 {
                    0 => ProblemClass::Missing,
                    1 => ProblemClass::Abbreviation,
                    2 => ProblemClass::Misspelling,
                    3 => ProblemClass::TokenNoise,
                    4 => ProblemClass::Numeric,
                    _ => ProblemClass::Different,
                };
                Some((attr, class))
            })
            .collect();
        Signature::from_problems(problems)
    }

    /// Groups the candidate union by problem signature, most pervasive
    /// first — output-identical to [`crate::pervasive::pervasiveness`]
    /// (signatures computed in parallel, aggregation in union order).
    pub fn pervasiveness(
        &self,
        union: &CandidateUnion,
        confirmed: &[(TupleId, TupleId)],
    ) -> Vec<ProblemGroup> {
        let _span = mc_obs::span!("mc.core.explain.pervasiveness");
        let pairs: Vec<(TupleId, TupleId)> =
            union.pairs.iter().map(|&k| split_pair_key(k)).collect();
        let confirmed_set: FxHashSet<(TupleId, TupleId)> = confirmed.iter().copied().collect();
        // Group by the packed word slice — the full `Signature`
        // materializes once per *group*, never per pair.
        let sigs = self.packed_signatures(&pairs);
        let mut groups: FxHashMap<&[u64], ProblemGroup> = FxHashMap::default();
        for (&(x, y), packed) in pairs.iter().zip(sigs.chunks_exact(self.sig_words())) {
            if packed.iter().all(|&w| w == 0) {
                continue;
            }
            let g = groups.entry(packed).or_insert_with(|| ProblemGroup {
                signature: self.unpack_signature(packed),
                pairs: Vec::new(),
                confirmed: 0,
            });
            if confirmed_set.contains(&(x, y)) {
                g.confirmed += 1;
            }
            g.pairs.push((x, y));
        }
        let mut out: Vec<ProblemGroup> = groups.into_values().collect();
        out.sort_by(|x, y| {
            y.confirmed
                .cmp(&x.confirmed)
                .then(y.pairs.len().cmp(&x.pairs.len()))
                .then(x.signature.cmp(&y.signature))
        });
        out
    }

    /// Candidate pairs sharing (at least) a killed match's problems —
    /// output-identical to [`crate::pervasive::similar_pairs`].
    pub fn similar_pairs(
        &self,
        union: &CandidateUnion,
        killed_match: (TupleId, TupleId),
    ) -> Vec<(TupleId, TupleId)> {
        let pairs: Vec<(TupleId, TupleId)> =
            union.pairs.iter().map(|&k| split_pair_key(k)).collect();
        // Packed subsignature test: at most one problem class per
        // attribute, so "other exhibits every problem in target" means
        // every non-zero target nibble matches exactly, word by word.
        let words = self.sig_words();
        let mut target = vec![0u64; words];
        let lookups = self.sweep(&[killed_match], &mut target);
        self.lookups.fetch_add(lookups, Ordering::Relaxed);
        let mask: Vec<u64> = target.iter().map(|&w| nibble_mask(w)).collect();
        let sigs = self.packed_signatures(&pairs);
        pairs
            .into_iter()
            .zip(sigs.chunks_exact(words))
            .filter(|&((x, y), sig)| {
                (x, y) != killed_match
                    && sig
                        .iter()
                        .zip(&mask)
                        .zip(&target)
                        .all(|((&s, &m), &t)| s & m == t)
            })
            .map(|(p, _)| p)
            .collect()
    }

    /// Deterministic work statistics (see [`KernelStats`]).
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            distinct_values: self.cols.iter().map(|c| c.values.len() as u64).sum(),
            lookups: self.lookups.load(Ordering::Relaxed),
        }
    }

    /// Records the kernel's diagnosis count into the attached metrics
    /// context (`mc.core.explain.diagnosed`).
    pub fn publish_counters(&self) {
        mc_obs::counter!("mc.core.explain.diagnosed").add(self.stats().lookups);
    }

    /// Maps `f` over `pairs` preserving order, one contiguous share per
    /// allowed worker, claimed by the workers of the CPU budget.
    fn par_map<T, F>(&self, pairs: &[(TupleId, TupleId)], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn((TupleId, TupleId)) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = (0..pairs.len()).map(|_| None).collect();
        let per = mc_obs::par::share_len(pairs.len(), self.threads);
        let mut jobs: Vec<_> = pairs.chunks(per).zip(out.chunks_mut(per)).collect();
        mc_obs::par::for_each(&mut jobs, self.threads, |(chunk_in, chunk_out)| {
            for (&p, slot) in chunk_in.iter().zip(chunk_out.iter_mut()) {
                *slot = Some(f(p));
            }
        });
        out.into_iter()
            .map(|x| x.expect("every chunk was mapped"))
            .collect()
    }
}

/// Everything the pipeline's explain stage produces, built in one batch
/// pass: per-match explanations, the problems summary, pervasiveness
/// clustering over the *full* union, and per-config score context for
/// the `mc-explain/v1` wire schema.
#[derive(Debug, Default)]
pub struct ExplainOutput {
    /// Confirmed killed-off matches, in discovery order.
    pub confirmed: Vec<(TupleId, TupleId)>,
    /// One explanation per confirmed match.
    pub explanations: Vec<MatchExplanation>,
    /// Aggregated "blocker problems" summary.
    pub problems: Vec<(String, usize)>,
    /// Pervasiveness groups over the full candidate union.
    pub pervasive: Vec<ProblemGroup>,
    /// Per explanation, that pair's score in each config's top-k list
    /// (aligned with `explanations`; `None` = not on that list).
    pub explanation_scores: Vec<Vec<Option<f64>>>,
    /// Per config, the lowest score still on its top-k list — the floor
    /// a pair's score is measured against ("threshold gap").
    pub config_floors: Vec<Option<f64>>,
}

/// Runs the full batch explain stage: builds a [`DiagnosisKernel`],
/// explains every confirmed match, summarizes problems, clusters the
/// union by pervasiveness and extracts per-config score context.
/// `matches` are pair keys from the verifier, `threads` as in
/// [`DiagnosisKernel::build`].
pub fn explain_stage(
    a: &Table,
    b: &Table,
    union: &CandidateUnion,
    matches: &[u64],
    threads: usize,
) -> ExplainOutput {
    let kernel = DiagnosisKernel::build(a, b, threads);
    let confirmed: Vec<(TupleId, TupleId)> = matches.iter().map(|&k| split_pair_key(k)).collect();
    let explanations = kernel.explain_pairs(&confirmed);
    let problems = summarize_problems(&explanations, a.schema());
    let pervasive = kernel.pervasiveness(union, &confirmed);
    let index: FxHashMap<u64, usize> = union
        .pairs
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    let explanation_scores: Vec<Vec<Option<f64>>> = matches
        .iter()
        .map(|k| match index.get(k) {
            Some(&i) => union.scores.iter().map(|s| s[i]).collect(),
            None => vec![None; union.scores.len()],
        })
        .collect();
    let config_floors: Vec<Option<f64>> = union
        .scores
        .iter()
        .map(|s| {
            let floor = s.iter().flatten().copied().fold(f64::INFINITY, f64::min);
            floor.is_finite().then_some(floor)
        })
        .collect();
    kernel.publish_counters();
    mc_obs::counter!("mc.core.explain.pairs").add((confirmed.len() + union.len()) as u64);
    ExplainOutput {
        confirmed,
        explanations,
        problems,
        pervasive,
        explanation_scores,
        config_floors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::explain_match;
    use crate::pervasive;
    use crate::ssj::TopKList;
    use mc_table::{pair_key, Schema, Tuple};
    use std::sync::Arc;

    fn tables() -> (Table, Table) {
        let schema = Arc::new(Schema::from_names(["name", "city", "age"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::from_present(["Dave Smith", "Altanta", "18"]));
        a.push(Tuple::from_present(["Joe Welson", "new york", "25"]));
        a.push(Tuple::new(vec![
            Some("Ann Cole".into()),
            None,
            Some("100".into()),
        ]));
        a.push(Tuple::from_present(["smith dave", " ", "40"]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["David Smith", "Atlanta", "18"]));
        b.push(Tuple::from_present(["Joe Welson", "NY", "95"]));
        b.push(Tuple::new(vec![Some("Ann Cole".into()), None, None]));
        b.push(Tuple::from_present(["dave smith", "chicago", "seattle"]));
        (a, b)
    }

    fn union_of(pairs: &[(u32, u32)]) -> CandidateUnion {
        let mut l = TopKList::new(16);
        for (i, &(x, y)) in pairs.iter().enumerate() {
            l.insert(0.9 - i as f64 * 0.01, pair_key(x, y));
        }
        CandidateUnion::build(&[l])
    }

    #[test]
    fn kernel_matches_per_pair_oracle_on_all_cells() {
        let (a, b) = tables();
        for threads in [1, 3] {
            let kernel = DiagnosisKernel::build(&a, &b, threads);
            for x in 0..a.len() as TupleId {
                for y in 0..b.len() as TupleId {
                    let batch = kernel.diagnose_pair(x, y);
                    let oracle = explain_match(&a, &b, x, y);
                    assert_eq!(batch, oracle.per_attr, "pair ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn pervasiveness_and_similar_pairs_match_slow_path() {
        let (a, b) = tables();
        let union = union_of(&[(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (2, 1)]);
        let confirmed = vec![(0u32, 0u32), (1, 1)];
        let kernel = DiagnosisKernel::build(&a, &b, 2);
        let fast = kernel.pervasiveness(&union, &confirmed);
        let slow = pervasive::pervasiveness(&a, &b, &union, &confirmed);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.signature, s.signature);
            assert_eq!(f.pairs, s.pairs);
            assert_eq!(f.confirmed, s.confirmed);
        }
        assert_eq!(
            kernel.similar_pairs(&union, (0, 0)),
            pervasive::similar_pairs(&a, &b, &union, (0, 0))
        );
    }

    #[test]
    fn repeated_values_intern_once_and_every_cell_counts_a_lookup() {
        let schema = Arc::new(Schema::from_names(["city"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", schema);
        for _ in 0..50 {
            a.push(Tuple::from_present(["new york"]));
            b.push(Tuple::from_present(["ny"]));
        }
        let kernel = DiagnosisKernel::build(&a, &b, 1);
        let pairs: Vec<(TupleId, TupleId)> = (0..50).map(|i| (i, i)).collect();
        let out = kernel.explain_pairs(&pairs);
        assert!(out
            .iter()
            .all(|e| e.per_attr[0].1 == Diagnosis::Abbreviation));
        let stats = kernel.stats();
        assert_eq!(stats.distinct_values, 2);
        assert_eq!(stats.lookups, 50);
    }

    #[test]
    fn explain_stage_bundles_scores_and_floors() {
        let (a, b) = tables();
        let union = union_of(&[(0, 0), (1, 1), (2, 2)]);
        let matches = vec![pair_key(0, 0), pair_key(1, 1)];
        let out = explain_stage(&a, &b, &union, &matches, 1);
        assert_eq!(out.confirmed, vec![(0, 0), (1, 1)]);
        assert_eq!(out.explanations.len(), 2);
        assert_eq!(out.explanation_scores.len(), 2);
        assert_eq!(out.explanation_scores[0].len(), union.scores.len());
        assert!(out.explanation_scores[0][0].is_some());
        assert_eq!(out.config_floors.len(), union.scores.len());
        let floor = out.config_floors[0].unwrap();
        assert!(union.scores[0].iter().flatten().all(|&s| s >= floor));
        assert!(!out.pervasive.is_empty());
    }
}
