//! Similarity measures.
//!
//! Set-based measures operate on **sorted rank vectors** (multisets) from
//! [`crate::dict`]; the overlap of two records is a linear merge. Each
//! measure also exposes the *prefix upper bound* used by the top-k join
//! (§4.1 of the paper): when a record `w` of length `|w|` has had its
//! prefix extended to 1-indexed position `p`, any **new** pair discovered
//! through later tokens shares at most `rem = |w| − p + 1` tokens with `w`,
//! which caps the achievable score.

/// Multiset intersection size of two sorted rank vectors.
///
/// Duplicates count up to their minimum multiplicity, e.g.
/// `[1,1,2] ∩ [1,1,1] = 2`.
#[inline]
pub fn multiset_overlap(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                o += 1;
                i += 1;
                j += 1;
            }
        }
    }
    o
}

/// Mismatch advances on one side before the merge switches from linear
/// stepping to galloping (exponential + binary search) — tuned for the
/// length-skewed pairs where one record's tokens cluster far apart in
/// the other's rank range.
const GALLOP_AFTER: u32 = 7;

/// First index `>= lo` with `v[idx] >= target` (exponential search from
/// `lo`, then binary search over the bracketed range).
#[inline]
fn gallop_to(v: &[u32], lo: usize, target: u32) -> usize {
    let n = v.len();
    if lo >= n || v[lo] >= target {
        return lo;
    }
    // Invariant: v[prev] < target.
    let mut prev = lo;
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < n && v[hi] < target {
        prev = hi;
        hi += step;
        step <<= 1;
    }
    let (mut l, mut r) = (prev + 1, hi.min(n));
    while l < r {
        let m = l + (r - l) / 2;
        if v[m] < target {
            l = m + 1;
        } else {
            r = m;
        }
    }
    l
}

/// Threshold-aware multiset merge: returns `Some(o)` — with `o` the exact
/// [`multiset_overlap`] — **iff** `o >= o_min`, and `None` as soon as the
/// remaining tokens cannot reach `o_min` (`o + min(rem_a, rem_b) < o_min`,
/// checked on mismatch advances; equal steps keep the bound invariant).
///
/// With `o_min = 0` this is a plain exact merge that always returns
/// `Some`. Long runs of one-sided mismatches switch to a galloping
/// advance, so length-skewed pairs abort in far fewer comparisons than
/// the linear merge would need.
#[inline]
pub fn overlap_with_bound(a: &[u32], b: &[u32], o_min: usize) -> Option<usize> {
    // PPJoin-style length filter: the overlap never exceeds the shorter
    // side, so an unreachable bound refutes the pair with zero merge work.
    if a.len().min(b.len()) < o_min {
        return None;
    }
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    let (mut run_a, mut run_b) = (0u32, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                o += 1;
                i += 1;
                j += 1;
                run_a = 0;
                run_b = 0;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                run_a += 1;
                if run_a >= GALLOP_AFTER {
                    i = gallop_to(a, i, b[j]);
                    run_a = 0;
                }
                if o + (a.len() - i).min(b.len() - j) < o_min {
                    return None;
                }
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                run_b += 1;
                if run_b >= GALLOP_AFTER {
                    j = gallop_to(b, j, a[i]);
                    run_b = 0;
                }
                if o + (a.len() - i).min(b.len() - j) < o_min {
                    return None;
                }
            }
        }
    }
    (o >= o_min).then_some(o)
}

/// The minimal integer overlap `o` with
/// `measure.from_overlap(o, la, lb) > t` (**strictly**), or
/// `min(la, lb) + 1` when no reachable overlap beats `t` — the
/// measure-specific *required overlap* the top-k join derives from its
/// heap minimum.
///
/// The closed-form inversion of each measure gives an estimate within a
/// unit of the boundary; the final answer is then settled by comparing
/// against [`SetMeasure::from_overlap`] itself (monotone in `o`), so the
/// result is exact regardless of floating-point rounding in the estimate.
pub fn required_overlap(measure: SetMeasure, t: f64, la: usize, lb: usize) -> usize {
    if t < 0.0 {
        return 0;
    }
    let min_len = la.min(lb);
    if la == 0 || lb == 0 {
        // from_overlap is 0 on empty sides: never strictly above t >= 0.
        return min_len + 1;
    }
    let (la_f, lb_f) = (la as f64, lb as f64);
    let est = match measure {
        // o/(la+lb-o) > t  ⇔  o > t(la+lb)/(1+t)
        SetMeasure::Jaccard => t * (la_f + lb_f) / (1.0 + t),
        // o > t·sqrt(la·lb)
        SetMeasure::Cosine => t * (la_f * lb_f).sqrt(),
        // 2o/(la+lb) > t  ⇔  o > t(la+lb)/2
        SetMeasure::Dice => t * (la_f + lb_f) / 2.0,
        // o > t·min(la,lb)
        SetMeasure::Overlap => t * min_len as f64,
    };
    let mut o = (est.max(0.0).floor() as usize).min(min_len + 1);
    while o > 0 && measure.from_overlap(o - 1, la, lb) > t {
        o -= 1;
    }
    while o <= min_len && measure.from_overlap(o, la, lb) <= t {
        o += 1;
    }
    o
}

/// The measure-specific scalar [`required_overlap`] actually depends on:
/// Jaccard's and Dice's bounds are functions of `la + lb` alone,
/// Overlap's of `min(la, lb)`, Cosine's of `la · lb`. Callers can
/// therefore memoize [`required_overlap_keyed`] per gate in a tiny dense
/// table instead of re-deriving the bound for every pair.
#[inline]
pub fn overlap_bound_key(measure: SetMeasure, la: usize, lb: usize) -> usize {
    match measure {
        SetMeasure::Jaccard | SetMeasure::Dice => la + lb,
        SetMeasure::Overlap => la.min(lb),
        SetMeasure::Cosine => la * lb,
    }
}

/// Exact integer square root (monotone; no floating-point edge cases).
fn isqrt(n: usize) -> usize {
    let mut c = (n as f64).sqrt() as usize;
    while (c + 1).checked_mul(c + 1).is_some_and(|s| s <= n) {
        c += 1;
    }
    while c.checked_mul(c).is_none_or(|s| s > n) {
        c -= 1;
    }
    c
}

/// [`required_overlap`] as a function of [`overlap_bound_key`] alone.
///
/// Outcome-equivalent under [`overlap_with_bound`]'s contract: for every
/// `(la, lb)` with this key, the result equals
/// `required_overlap(measure, t, la, lb)` whenever that bound is
/// reachable (`≤ min(la, lb)`), and exceeds `min(la, lb)` whenever the
/// exact bound does — the two may then differ in value, but both refute
/// the pair through the length filter. The score comparisons reuse the
/// exact [`SetMeasure::from_overlap`] float expressions (integer sums
/// and products below 2⁵³ are exact in `f64`), so the boundary is
/// bit-for-bit the same.
pub fn required_overlap_keyed(measure: SetMeasure, t: f64, key: usize) -> usize {
    if t < 0.0 {
        return 0;
    }
    if key == 0 {
        // Only empty-sided pairs have key 0: nothing beats t ≥ 0.
        return 1;
    }
    // The largest min(la, lb) any pair with this key can have — the walk
    // cap that keeps unreachable results above every such pair's length
    // filter.
    let cap = match measure {
        SetMeasure::Jaccard | SetMeasure::Dice => key / 2,
        SetMeasure::Overlap => key,
        SetMeasure::Cosine => isqrt(key),
    };
    let key_f = key as f64;
    let f = |o: usize| -> f64 {
        let of = o as f64;
        match measure {
            SetMeasure::Jaccard => of / (key_f - of),
            SetMeasure::Cosine => of / key_f.sqrt(),
            SetMeasure::Dice => 2.0 * of / key_f,
            SetMeasure::Overlap => of / key_f,
        }
    };
    let est = match measure {
        SetMeasure::Jaccard => t * key_f / (1.0 + t),
        SetMeasure::Cosine => t * key_f.sqrt(),
        SetMeasure::Dice => t * key_f / 2.0,
        SetMeasure::Overlap => t * key_f,
    };
    let mut o = (est.max(0.0).floor() as usize).min(cap + 1);
    while o > 0 && f(o - 1) > t {
        o -= 1;
    }
    while o <= cap && f(o) <= t {
        o += 1;
    }
    o
}

/// The set-based similarity measures supported by the debugger's joins
/// (Theorem 4.2: Jaccard, cosine, overlap, Dice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetMeasure {
    /// `|x ∩ y| / |x ∪ y|` — MatchCatcher's default.
    Jaccard,
    /// `|x ∩ y| / sqrt(|x|·|y|)`.
    Cosine,
    /// `2·|x ∩ y| / (|x| + |y|)`.
    Dice,
    /// Overlap coefficient `|x ∩ y| / min(|x|, |y|)`.
    Overlap,
}

impl SetMeasure {
    /// Score from a precomputed overlap `o` and multiset cardinalities.
    /// Returns 0 when either side is empty.
    #[inline]
    pub fn from_overlap(self, o: usize, la: usize, lb: usize) -> f64 {
        if la == 0 || lb == 0 {
            return 0.0;
        }
        let o = o as f64;
        match self {
            SetMeasure::Jaccard => o / (la as f64 + lb as f64 - o),
            SetMeasure::Cosine => o / ((la as f64) * (lb as f64)).sqrt(),
            SetMeasure::Dice => 2.0 * o / (la as f64 + lb as f64),
            SetMeasure::Overlap => o / la.min(lb) as f64,
        }
    }

    /// Score of two sorted rank vectors.
    pub fn score(self, a: &[u32], b: &[u32]) -> f64 {
        self.from_overlap(multiset_overlap(a, b), a.len(), b.len())
    }

    /// Threshold-gated score: `Some(s)` **iff** `score(a, b) > t`
    /// (strictly), with `s` bit-identical to [`SetMeasure::score`]; `None`
    /// means the score is provably `<= t`, established with as little
    /// merge work as possible ([`required_overlap`] length filter, then
    /// [`overlap_with_bound`]). `t < 0` never refutes, so
    /// `score_above(a, b, -1.0)` is an exact scoring path.
    #[inline]
    pub fn score_above(self, a: &[u32], b: &[u32], t: f64) -> Option<f64> {
        let o_min = required_overlap(self, t, a.len(), b.len());
        let o = overlap_with_bound(a, b, o_min)?;
        Some(self.from_overlap(o, a.len(), b.len()))
    }

    /// Upper bound on the score of any **new** pair discovered when the
    /// prefix of a record of length `la` is extended to 1-indexed position
    /// `p` (§4.1). `min_other` is a lower bound on the other side's record
    /// length (used only by `Overlap`, whose bound is otherwise vacuous);
    /// pass 1 when unknown.
    ///
    /// Derivations (with `rem = la − p + 1`, the current token plus the
    /// unseen suffix):
    /// * Jaccard: `o ≤ rem`, `|x ∪ y| ≥ la` ⇒ `rem / la`;
    /// * Cosine: `o ≤ min(rem, lb)`; maximizing over `lb` gives
    ///   `sqrt(rem / la)`;
    /// * Dice: maximized at `lb = rem` ⇒ `2·rem / (la + rem)`;
    /// * Overlap: `o ≤ rem` and `min(la, lb) ≥ min(la, min_other)` ⇒
    ///   `min(1, rem / min(la, min_other))`.
    #[inline]
    pub fn prefix_ubound(self, la: usize, p: usize, min_other: usize) -> f64 {
        debug_assert!(p >= 1 && p <= la);
        let rem = (la - p + 1) as f64;
        let la_f = la as f64;
        match self {
            SetMeasure::Jaccard => rem / la_f,
            SetMeasure::Cosine => (rem / la_f).sqrt(),
            SetMeasure::Dice => 2.0 * rem / (la_f + rem),
            SetMeasure::Overlap => (rem / la.min(min_other.max(1)) as f64).min(1.0),
        }
    }

    /// A short label ("jac", "cos", "dice", "ovl") used in blocker names.
    pub fn label(self) -> &'static str {
        match self {
            SetMeasure::Jaccard => "jac",
            SetMeasure::Cosine => "cos",
            SetMeasure::Dice => "dice",
            SetMeasure::Overlap => "ovl",
        }
    }

    /// All four measures (for sweeps/tests).
    pub const ALL: [SetMeasure; 4] = [
        SetMeasure::Jaccard,
        SetMeasure::Cosine,
        SetMeasure::Dice,
        SetMeasure::Overlap,
    ];
}

/// Levenshtein edit distance between two strings (character-level).
///
/// When the shorter string has at most 64 chars this is Myers'
/// bit-vector algorithm in Hyyrö's formulation (Myers, J. ACM 46(3),
/// 1999; Hyyrö 2001): one column of the DP table is packed into a pair
/// of `u64` delta vectors, so each char of the longer string costs a
/// constant number of word operations and nothing is allocated. Longer
/// pairs run the banded program of [`bounded_edit_distance`] once with a
/// band as wide as the longer string, which always holds the distance.
pub fn edit_distance(a: &str, b: &str) -> usize {
    edit_distance_counted(a, a.chars().count(), b, b.chars().count())
}

/// [`edit_distance`] given both strings' char counts.
fn edit_distance_counted(a: &str, la: usize, b: &str, lb: usize) -> usize {
    let (pattern, m, text) = if la <= lb { (a, la, b) } else { (b, lb, a) };
    if m == 0 {
        return la.max(lb);
    }
    if m <= 64 {
        return myers64(&PatternMasks::new(pattern), m, text);
    }
    let max = la.max(lb);
    bounded_edit_distance(a, b, max).expect("the distance never exceeds the longer length")
}

/// Per-char match masks of a pattern of at most 64 chars: bit `i` of a
/// char's mask is set iff the pattern's `i`-th char is that char. ASCII
/// chars index a table; the few others sit in a fixed-size list, so
/// building and probing never allocate.
struct PatternMasks {
    ascii: [u64; 128],
    other: [(char, u64); 64],
    n_other: usize,
}

impl PatternMasks {
    fn new(pattern: &str) -> Self {
        let mut masks = PatternMasks {
            ascii: [0; 128],
            other: [('\0', 0); 64],
            n_other: 0,
        };
        for (i, c) in pattern.chars().enumerate() {
            let bit = 1u64 << i;
            if c.is_ascii() {
                masks.ascii[c as usize] |= bit;
            } else if let Some(slot) = masks.other[..masks.n_other]
                .iter_mut()
                .find(|(oc, _)| *oc == c)
            {
                slot.1 |= bit;
            } else {
                masks.other[masks.n_other] = (c, bit);
                masks.n_other += 1;
            }
        }
        masks
    }

    #[inline]
    fn get(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other[..self.n_other]
                .iter()
                .find(|(oc, _)| *oc == c)
                .map_or(0, |&(_, m)| m)
        }
    }
}

/// Global Levenshtein distance between a pattern of `m` chars
/// (`1 ≤ m ≤ 64`, given by its masks) and `text`. `pv`/`mv` hold the
/// vertical +1/−1 deltas of the current DP column; `d0` marks the cells
/// whose diagonal delta is zero. The score follows the bottom row
/// `D[m][j]`, starting from `D[m][0] = m`; the `| 1` on the horizontal
/// +1 vector is the top row `D[0][j] = j` of a global alignment.
fn myers64(masks: &PatternMasks, m: usize, text: &str) -> usize {
    debug_assert!((1..=64).contains(&m));
    let last = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for c in text.chars() {
        let eq = masks.get(c);
        let d0 = (((eq & pv).wrapping_add(pv)) ^ pv) | eq | mv;
        let ph = mv | !(d0 | pv);
        let mh = d0 & pv;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(d0 | ph);
        mv = ph & d0;
    }
    score
}

/// The exact edit distance when it is `<= k`, else `None` — a banded
/// dynamic program over the `|i − j| <= k` diagonal strip in
/// O(k·min(|a|,|b|)). Cells with a true distance `<= k` never route
/// through the strip's exterior (any such path costs more than `k`), so
/// every returned value is exact.
pub fn bounded_edit_distance(a: &str, b: &str, k: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut scratch = EditScratch::default();
    bounded_edit_distance_chars(&a, &b, k, &mut scratch)
}

/// Reusable row buffers for [`bounded_edit_distance_chars`], so batch
/// callers diagnosing millions of pairs pay zero allocations per call
/// after the first.
#[derive(Debug, Default)]
pub struct EditScratch {
    prev: Vec<usize>,
    cur: Vec<usize>,
}

/// [`bounded_edit_distance`] over pre-collected char slices with
/// caller-owned scratch — the allocation-free kernel batch engines call
/// in their hot loop. Semantics are identical to the string version
/// (which delegates here).
pub fn bounded_edit_distance_chars(
    a: &[char],
    b: &[char],
    k: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if a.len() - b.len() > k {
        return None;
    }
    if b.is_empty() {
        return (a.len() <= k).then_some(a.len());
    }
    let inf = k + 1;
    scratch.prev.clear();
    scratch.prev.resize(b.len() + 1, inf);
    scratch.cur.clear();
    scratch.cur.resize(b.len() + 1, inf);
    let (mut prev, mut cur) = (&mut scratch.prev, &mut scratch.cur);
    for (j, p) in prev.iter_mut().enumerate().take(k.min(b.len()) + 1) {
        *p = j;
    }
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(k);
        let hi = (i + k).min(b.len() - 1);
        if lo > hi {
            return None;
        }
        cur[lo] = if lo == 0 { i + 1 } else { inf };
        let mut row_min = cur[lo];
        for j in lo..=hi {
            let cost = usize::from(*ca != b[j]);
            let mut best = prev[j] + cost;
            if prev[j + 1] < inf {
                best = best.min(prev[j + 1] + 1);
            }
            if cur[j] < inf {
                best = best.min(cur[j] + 1);
            }
            cur[j + 1] = best.min(inf);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > k {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
        for c in cur.iter_mut() {
            *c = inf;
        }
    }
    (prev[b.len()] <= k).then_some(prev[b.len()])
}

/// True iff `edit_distance(a, b) ≤ k` — the hot path of `ed(…) ≤ k`
/// blockers, sharing the banded program of [`bounded_edit_distance`].
pub fn within_edit_distance(a: &str, b: &str, k: usize) -> bool {
    bounded_edit_distance(a, b, k).is_some()
}

/// Normalized edit similarity `1 − ed(a,b) / max(|a|,|b|)` ∈ [0, 1];
/// returns 1 for two empty strings.
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let m = la.max(lb);
    if m == 0 {
        return 1.0;
    }
    1.0 - edit_distance_counted(a, la, b, lb) as f64 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic full-table two-row DP — the reference the banded/bit-vector
    /// paths are checked against.
    fn edit_distance_dp(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
        if b.is_empty() {
            return a.len();
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    #[test]
    fn overlap_with_bound_matches_exact_merge() {
        let cases: [(&[u32], &[u32]); 6] = [
            (&[1, 1, 2], &[1, 1, 1]),
            (&[1, 2, 3], &[4, 5]),
            (&[], &[1]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 5, 9, 13], &[2, 5, 9, 20, 21, 22]),
            (&[7], &[1, 2, 3, 4, 5, 6, 7]),
        ];
        for (a, b) in cases {
            let o = multiset_overlap(a, b);
            for o_min in 0..=(a.len().min(b.len()) + 2) {
                let got = overlap_with_bound(a, b, o_min);
                if o >= o_min {
                    assert_eq!(got, Some(o), "a={a:?} b={b:?} o_min={o_min}");
                } else {
                    assert_eq!(got, None, "a={a:?} b={b:?} o_min={o_min}");
                }
            }
        }
    }

    #[test]
    fn overlap_with_bound_gallops_through_skew() {
        // One short record against a long run that forces galloping.
        let a: Vec<u32> = vec![500, 1000, 2000];
        let b: Vec<u32> = (0..1500u32).collect();
        assert_eq!(overlap_with_bound(&a, &b, 0), Some(2));
        assert_eq!(overlap_with_bound(&a, &b, 2), Some(2));
        assert_eq!(overlap_with_bound(&a, &b, 3), None);
        // Duplicates across a gallop boundary keep multiset semantics.
        let c: Vec<u32> = vec![9, 9, 9];
        let mut d: Vec<u32> = (0..100u32).collect();
        d.extend([9, 9].iter());
        d.sort_unstable();
        assert_eq!(overlap_with_bound(&c, &d, 0), Some(3));
    }

    #[test]
    fn required_overlap_is_minimal_and_strict() {
        for m in SetMeasure::ALL {
            for la in 1..=12usize {
                for lb in 1..=12usize {
                    for t10 in 0..=10 {
                        let t = t10 as f64 / 10.0;
                        let o_min = required_overlap(m, t, la, lb);
                        let min_len = la.min(lb);
                        assert!(o_min <= min_len + 1);
                        if o_min > 0 {
                            assert!(
                                m.from_overlap(o_min - 1, la, lb) <= t,
                                "{m:?} t={t} la={la} lb={lb}: o_min {o_min} not minimal"
                            );
                        }
                        if o_min <= min_len {
                            assert!(
                                m.from_overlap(o_min, la, lb) > t,
                                "{m:?} t={t} la={la} lb={lb}: o_min {o_min} not sufficient"
                            );
                        }
                    }
                }
            }
        }
        // Negative gate never refutes; empty sides always refute.
        assert_eq!(required_overlap(SetMeasure::Jaccard, -1.0, 4, 4), 0);
        assert_eq!(required_overlap(SetMeasure::Jaccard, 0.0, 0, 4), 1);
    }

    #[test]
    fn required_overlap_keyed_is_outcome_equivalent() {
        // The keyed bound must equal the exact one whenever it is
        // reachable, and both must exceed min(la, lb) whenever either is
        // unreachable — the only distinction `overlap_with_bound` can
        // observe.
        for m in SetMeasure::ALL {
            for la in 0..=14usize {
                for lb in 0..=14usize {
                    for t10 in -1..=10 {
                        let t = t10 as f64 / 10.0;
                        let exact = required_overlap(m, t, la, lb);
                        let keyed = required_overlap_keyed(m, t, overlap_bound_key(m, la, lb));
                        let min_len = la.min(lb);
                        if exact <= min_len {
                            assert_eq!(
                                keyed, exact,
                                "{m:?} t={t} la={la} lb={lb}: keyed diverges on reachable bound"
                            );
                        } else {
                            assert!(
                                keyed > min_len,
                                "{m:?} t={t} la={la} lb={lb}: keyed {keyed} lets an \
                                 unreachable bound ({exact}) through the length filter"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn score_above_agrees_bitwise_with_score() {
        let recs: [&[u32]; 5] = [
            &[1, 2, 3, 4],
            &[1, 1, 2],
            &[3, 4, 5, 6, 7],
            &[9],
            &[1, 2, 3, 4, 5, 6, 7, 8],
        ];
        for m in SetMeasure::ALL {
            for a in recs {
                for b in recs {
                    let s = m.score(a, b);
                    for t in [-1.0, 0.0, 0.2, s, 0.99, 1.0] {
                        match m.score_above(a, b, t) {
                            Some(got) => {
                                assert!(s > t, "{m:?} a={a:?} b={b:?} t={t}");
                                assert_eq!(got.to_bits(), s.to_bits());
                            }
                            None => assert!(s <= t, "{m:?} a={a:?} b={b:?} t={t}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_edit_distance_agrees_with_full_dp() {
        let words = ["smith", "smyth", "schmidt", "welson", "wilson", "", "w"];
        for a in words {
            for b in words {
                let d = edit_distance_dp(a, b);
                assert_eq!(edit_distance(a, b), d, "a={a:?} b={b:?}");
                for k in 0..8 {
                    let got = bounded_edit_distance(a, b, k);
                    assert_eq!(got, (d <= k).then_some(d), "a={a:?} b={b:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn bit_vector_edit_distance_equals_full_dp_on_random_strings() {
        // Alphabets: lowercase, mixed case, and non-ASCII (case pairs,
        // multi-byte chars, a char whose lowercase is two chars). Small
        // alphabets force many matches; lengths straddle the 64-char
        // boundary between the bit-vector and the banded program.
        let alphabets: [&[char]; 4] = [
            &['a', 'b', 'c', 'd'],
            &['a', 'A', 'b', 'B', ' ', 'z'],
            &['é', 'É', 'e', 'İ', 'Σ', 'σ', 'ς', '字', ' '],
            &['x', 'y', 'ß', '\u{a0}', '\u{3000}', '😀'],
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for case in 0..3000 {
            let alphabet = alphabets[case % alphabets.len()];
            let (la, lb) = if case % 3 == 0 {
                // Around the boundary on both sides.
                (60 + next(10), 60 + next(10))
            } else {
                (next(81), next(81))
            };
            let a: String = (0..la).map(|_| alphabet[next(alphabet.len())]).collect();
            let mut b: String = (0..lb).map(|_| alphabet[next(alphabet.len())]).collect();
            if case % 5 == 0 {
                // Near-duplicates: a few deletions from `a`.
                let mut chars: Vec<char> = a.chars().collect();
                for _ in 0..next(4) {
                    if !chars.is_empty() {
                        chars.remove(next(chars.len()));
                    }
                }
                b = chars.into_iter().collect();
            }
            let d = edit_distance_dp(&a, &b);
            assert_eq!(edit_distance(&a, &b), d, "case {case}: a={a:?} b={b:?}");
            assert_eq!(edit_distance(&b, &a), d, "case {case}: swapped");
        }
    }

    #[test]
    fn overlap_multiset_semantics() {
        assert_eq!(multiset_overlap(&[1, 1, 2], &[1, 1, 1]), 2);
        assert_eq!(multiset_overlap(&[1, 2, 3], &[4, 5]), 0);
        assert_eq!(multiset_overlap(&[], &[1]), 0);
        assert_eq!(multiset_overlap(&[1, 2, 3], &[1, 2, 3]), 3);
    }

    #[test]
    fn jaccard_matches_paper_example() {
        // Figure 6: w = [a b c e f], x = [a b c e f...]: s(x, w) = 0.8 for
        // two 4-token strings sharing... reconstructed small case:
        let a = [1, 2, 3, 4];
        let b = [1, 2, 3, 5];
        assert!((SetMeasure::Jaccard.score(&a, &b) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn measure_values_agree_with_formulas() {
        let a = [1, 2, 3, 4];
        let b = [3, 4, 5];
        let o = multiset_overlap(&a, &b) as f64; // 2
        assert!((SetMeasure::Jaccard.score(&a, &b) - o / 5.0).abs() < 1e-12);
        assert!((SetMeasure::Cosine.score(&a, &b) - o / 12f64.sqrt()).abs() < 1e-12);
        assert!((SetMeasure::Dice.score(&a, &b) - 2.0 * o / 7.0).abs() < 1e-12);
        assert!((SetMeasure::Overlap.score(&a, &b) - o / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sides_score_zero() {
        for m in SetMeasure::ALL {
            assert_eq!(m.score(&[], &[1, 2]), 0.0);
            assert_eq!(m.score(&[1, 2], &[]), 0.0);
        }
    }

    #[test]
    fn prefix_ubound_from_figure_6() {
        // Extending the prefix of a 4-token string to position 2 caps new
        // Jaccard pairs at 3/4 = 0.75 (paper §4.1 walkthrough).
        assert!((SetMeasure::Jaccard.prefix_ubound(4, 2, 1) - 0.75).abs() < 1e-12);
        // First position caps at 1.0.
        assert_eq!(SetMeasure::Jaccard.prefix_ubound(4, 1, 1), 1.0);
        // Last position caps at 1/|w|.
        assert_eq!(SetMeasure::Jaccard.prefix_ubound(4, 4, 1), 0.25);
    }

    #[test]
    fn prefix_ubound_is_admissible() {
        // For every measure and every split point, no pair sharing only
        // tokens at or after position p can beat the bound.
        let a: Vec<u32> = (0..8).collect();
        for m in SetMeasure::ALL {
            for p in 1..=a.len() {
                // Adversarial partner: exactly the suffix starting at p-1.
                let b: Vec<u32> = a[p - 1..].to_vec();
                let bound = m.prefix_ubound(a.len(), p, 1);
                let score = m.score(&a, &b);
                assert!(
                    score <= bound + 1e-12,
                    "{m:?} p={p}: score {score} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn bounds_decrease_with_position() {
        for m in SetMeasure::ALL {
            let mut prev = f64::INFINITY;
            for p in 1..=10 {
                let u = m.prefix_ubound(10, p, 2);
                assert!(u <= prev + 1e-12);
                prev = u;
            }
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("welson", "wilson"), 1);
        assert_eq!(edit_distance("altanta", "atlanta"), 2);
    }

    #[test]
    fn banded_check_agrees_with_full_dp() {
        let words = ["smith", "smyth", "schmidt", "welson", "wilson", "", "w"];
        for a in words {
            for b in words {
                let d = edit_distance(a, b);
                for k in 0..5 {
                    assert_eq!(
                        within_edit_distance(a, b, k),
                        d <= k,
                        "a={a:?} b={b:?} k={k} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn edit_similarity_range() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
        assert_eq!(edit_similarity("abc", "xyz"), 0.0);
        let s = edit_similarity("welson", "wilson");
        assert!((s - (1.0 - 1.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(SetMeasure::Jaccard.label(), "jac");
        assert_eq!(SetMeasure::Cosine.label(), "cos");
        assert_eq!(SetMeasure::Dice.label(), "dice");
        assert_eq!(SetMeasure::Overlap.label(), "ovl");
    }
}
