//! Top-k string similarity joins (§4.1 of the paper).
//!
//! Given two collections of token-rank records, find the `k` cross-table
//! pairs with the highest set-similarity score **that are not in the
//! blocker output `C`** — without a threshold, in a branch-and-bound
//! fashion:
//!
//! * every record exposes a *prefix* that is extended one token at a time;
//! * extending record `w` to 1-indexed position `p` caps any newly
//!   discovered pair at `ubound(|w|, p)` (see
//!   [`mc_strsim::measures::SetMeasure::prefix_ubound`]);
//! * a priority queue of per-record caps drives extension order ("extend
//!   the prefix whose next token has the highest cap");
//! * the join stops when the best remaining cap cannot beat the current
//!   k-th score.
//!
//! **TopKJoin** \[34\] scores a pair the moment its prefixes first
//! intersect. The paper's **QJoin** defers scoring until a pair has
//! accumulated `q` common prefix tokens — score computation is the
//! dominant cost for long strings, and pairs sharing few tokens rarely
//! reach the top-k. `q = 1` reproduces TopKJoin exactly; `q > 1`
//! intentionally never scores pairs with fewer than `q` common tokens (a
//! documented approximation). To keep early termination admissible for
//! scored pairs, bounds carry a `q − 1` token *credit* for
//! discovered-but-unscored pairs.
//!
//! ## Data layout
//!
//! Records live in a flat [`RecordArena`] (one contiguous token buffer +
//! per-record bounds) and tokens are dense dictionary ranks, so the inverted index
//! is a **`Vec`-indexed postings array** rather than a hash map, and
//! each posting carries the number of copies of its token the posting
//! record's prefix holds and the 0-indexed position of the first copy
//! (see "Positional prefilter"). Together with a per-record *current-token run
//! counter* this removes the two per-event `partition_point` binary
//! searches the occurrence check used to need: a record's own occurrence
//! count is maintained incrementally as its prefix extends, and a
//! partner's count is read straight off its posting. All per-join state
//! (positions, run counters, postings, the event queue, the accumulator,
//! the bound memo) lives in a reusable [`JoinScratch`] so that consecutive joins on one
//! worker allocate nothing in steady state. Every buffer is
//! `O(|A| + |B| + postings)`: nothing is kept per discovered pair.
//!
//! ## The event queue
//!
//! Events pop in descending bound order (`total_cmp`), ties by
//! ascending `(side, record)`. The queue keeps one bucket per distinct
//! bound value: equal `to_bits()` is exactly a `total_cmp` tie, and
//! bounds are tabulated per (record length, position) when the join
//! starts. Two facts make that order exact without a heap:
//!
//! * `bound_with_credit` is non-increasing in the position for all four
//!   measures, with or without credit. Every push therefore lands at or
//!   below the open (highest) bucket, and a bucket's contents are final
//!   when it opens; sorting it by key once then gives its pop order.
//! * A push at the open bucket's own bound can only come from the record
//!   just popped, which was the smallest key left at that bound, so it
//!   is the next event in that order; the loop processes it at once.
//!
//! A prune counts every still-queued event plus the popped one in
//! `bound_pruned`.
//!
//! For the Overlap measure the prefix bound needs a lower bound on the
//! partner's length (its score divides by the shorter record): the join
//! passes the shortest non-empty record over both arenas, which is sound
//! for either side, so one bucket table serves both.
//!
//! ## Positional prefilter
//!
//! Take the prober `r` at 0-indexed position `p` with token `t`, its
//! `occ`-th copy, and a partner `o` whose prefix holds at least `occ`
//! copies of `t`, the first at `o`'s position `pos_o`. Whatever the pair
//! shares below `t` is in both prefixes already; what it can still
//! share lies after this copy of `t` in both records, so its overlap is
//! at most `common + min(|r| − p − 1, |o| − pos_o − occ)`, where
//! `common` counts this incidence. The loop only acts on pairs whose
//! count is at most `q` here (a discovery at 1, a score at `q`), so it
//! caps the overlap at `q + min(|r| − p − 1, |o| − pos_o − occ)` (and at
//! the shorter record) and tests the cap against the overlap the list's
//! gate requires (served by the scratch's bound memo). A partner below it is
//! skipped before anything else happens, counted in
//! `mc.core.ssj.position_pruned`: its score cannot pass the gate now,
//! and the gate only rises, so it would have been refuted whenever it
//! reached `q`. Lists, `events`, `scored` and `bound_pruned` are
//! therefore those of the unfiltered loop; `candidates`, `merge_aborts`
//! and `killed_skipped` count only pairs that passed the test.
//! [`topk_semi_join`] applies the same test at each pair's first
//! incidence.
//!
//! ## Pair counts without pair states
//!
//! A pair is *discovered* at its first common prefix token and scored
//! at its `q`-th. Both need the pair's common count, which the loop
//! derives instead of storing. With `r`, `t`, `occ` and `o` as above,
//! records are sorted, so `o`'s prefix holds every token of `o` below
//! `t`, and `r`'s prefix holds every token of `r` below `t` plus `occ −
//! 1` copies of `t`. Their common count before this incidence is thus
//! `Σ_{u<t} min(copies_r(u), copies_o(u)) + occ − 1`. The sum is what a
//! walk of the partner-side postings of `r`'s completed token runs
//! accumulates, with `copies_o(u)` read off `o`'s posting. The loop
//! keeps it in a generation-stamped per-partner array, the same shape as
//! [`topk_semi_join`]'s per-probe pair states, and builds or extends it
//! only once some partner of the event survives the positional
//! prefilter. It extends the array in place while `r`'s events run back
//! to back (no partner prefix changes in between) and rebuilds it on any
//! other event. Records put their rarest tokens first, so the walk
//! covers the shortest postings lists, and at `p = 0` there is nothing
//! to walk. A count of 1 is a discovery, a count of `q` is scored, and
//! any other count was handled at an earlier incidence. Seeded pairs sit
//! in a small sorted set consulted only at those two counts, so they are
//! never discovered and never rescored.
//!
//! ## One scoring path
//!
//! Both kernels, and so the joint stage, [`select_q`]'s preludes and a
//! session's semi-joins and seeded rejoins, score a pair the same way:
//! the threshold-aware merge [`overlap_with_bound`] against the overlap
//! the list's gate requires, which the scratch's memo serves per gate
//! and length key ([`required_overlap_keyed`]). A completed merge counts
//! as `mc.core.ssj.scored`, a refuted one as `mc.core.ssj.merge_aborts`.

use mc_strsim::arena::RecordArena;
use mc_strsim::measures::{
    overlap_bound_key, overlap_with_bound, required_overlap_keyed, SetMeasure,
};
use mc_table::{pair_key, split_pair_key, PairSet, TupleId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};

/// A totally ordered f64 wrapper (scores are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score(pub f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bounded top-k list of `(score, pair)` entries.
///
/// Maintains the k highest-scoring pairs seen so far; the *threshold* is
/// the k-th best score once full (0 before), the join's pruning bar.
///
/// The kept set is **canonical**: entries are totally ordered by
/// `(score descending, pair key ascending)` — the same tie-break
/// [`select_q`] uses — and the list always holds the top k of everything
/// ever offered under that order, regardless of offer order. The list is
/// therefore a pure function of the offered pair set, not of event
/// interleaving, which is what lets [`topk_semi_join`] and the
/// incremental debugger's merges reproduce the event loop bit for bit.
#[derive(Debug, Clone)]
pub struct TopKList {
    k: usize,
    /// Min-heap whose root is the *worst* entry under the canonical
    /// order: lowest score, and among equal scores the largest pair key
    /// (hence the inner `Reverse`). Eviction therefore removes the
    /// canonical minimum, independent of arrival order.
    heap: BinaryHeap<Reverse<(Score, Reverse<u64>)>>,
}

impl TopKList {
    /// An empty list with capacity `k`.
    pub fn new(k: usize) -> Self {
        TopKList::with_capacity_hint(k, 0)
    }

    /// An empty list with capacity `k`, pre-sized to hold at least
    /// `hint` entries up front (e.g. a seed list) so early inserts never
    /// reallocate.
    pub fn with_capacity_hint(k: usize, hint: usize) -> Self {
        assert!(k > 0, "k must be positive");
        // Pre-allocation is capped: callers may pass an effectively
        // unbounded k (e.g. brute-force references), and the heap grows
        // on demand anyway. The list never holds more than k entries, so
        // a hint beyond k is clamped.
        TopKList {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 16).max(hint.min(k)) + 1),
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current pruning threshold: the k-th best score when full,
    /// otherwise 0.
    pub fn threshold(&self) -> f64 {
        if self.heap.len() == self.k {
            self.heap.peek().map_or(0.0, |Reverse((s, _))| s.0)
        } else {
            0.0
        }
    }

    /// The scoring gate: an offer can enter the list **iff** its score is
    /// strictly above this value. One ulp below [`TopKList::threshold`]
    /// once full, because a score exactly equal to the k-th best can
    /// still displace a larger pair key under the canonical tie-break —
    /// so `score > gate() ⟺ score ≥ threshold()`, and refuting at the
    /// gate never drops a tie the canonical order would have kept.
    pub fn gate(&self) -> f64 {
        if self.heap.len() == self.k {
            f64::next_down(self.threshold())
        } else {
            0.0
        }
    }

    /// Offers an entry; keeps it only if it canonically beats the worst
    /// held entry (or the list is not yet full). Scores ≤ 0 are never
    /// kept. At equal scores the smaller pair key wins, so the kept set
    /// never depends on offer order.
    pub fn insert(&mut self, score: f64, pair: u64) {
        if score <= 0.0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Reverse((Score(score), Reverse(pair))));
        } else if let Some(&Reverse((worst, Reverse(worst_pair)))) = self.heap.peek() {
            if score > worst.0 || (score == worst.0 && pair < worst_pair) {
                self.heap.pop();
                self.heap.push(Reverse((Score(score), Reverse(pair))));
            }
        }
    }

    /// Entries sorted by descending score (ties by ascending pair key, so
    /// output order is deterministic).
    pub fn sorted_entries(&self) -> Vec<(f64, u64)> {
        let mut v: Vec<(f64, u64)> = self
            .heap
            .iter()
            .map(|Reverse((s, Reverse(p)))| (s.0, *p))
            .collect();
        v.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        v
    }

    /// The scores only, descending.
    pub fn sorted_scores(&self) -> Vec<f64> {
        self.sorted_entries().into_iter().map(|(s, _)| s).collect()
    }
}

/// Parameters of a single top-k join.
#[derive(Debug, Clone, Copy)]
pub struct SsjParams {
    /// Number of pairs to retrieve.
    pub k: usize,
    /// Minimum common prefix tokens before a pair is scored. `1` =
    /// TopKJoin; the paper's QJoin selects `q` empirically (see
    /// [`select_q`]).
    pub q: usize,
    /// Similarity measure (Theorem 4.2: Jaccard, cosine, Dice, overlap).
    pub measure: SetMeasure,
}

impl Default for SsjParams {
    fn default() -> Self {
        SsjParams {
            k: 1000,
            q: 1,
            measure: SetMeasure::Jaccard,
        }
    }
}

/// The input of a join: both tables' records in flat arenas (sorted rank
/// slices) and the blocker output to exclude.
#[derive(Clone, Copy)]
pub struct SsjInstance<'a> {
    /// Records of table A (sorted rank slices in a flat arena).
    pub records_a: &'a RecordArena,
    /// Records of table B.
    pub records_b: &'a RecordArena,
    /// The blocker output `C`: pairs to exclude from the top-k list.
    pub killed: &'a PairSet,
}

/// Per-gate memo of [`required_overlap_keyed`]: the bound collapses to a
/// function of one small scalar per measure (see [`overlap_bound_key`]),
/// and the gate — the list's top-k threshold — changes only when the
/// list improves, orders of magnitude more rarely than pairs are scored.
/// An empty table is valid at any gate, so preparing a join for another
/// measure only clears it.
#[derive(Default)]
struct BoundMemo {
    /// The gate `by_key` holds bounds for.
    gate: f64,
    /// `by_key[key]`: the required overlap at `gate` (`u32::MAX` = not
    /// yet computed).
    by_key: Vec<u32>,
}

/// Keys above this fall back to the direct computation (the table would
/// stop being "tiny"); record-length sums and products in practice sit
/// far below it.
const BOUND_MEMO_MAX: usize = 1 << 12;

impl BoundMemo {
    /// The overlap a pair of records of lengths `la` and `lb` needs to
    /// score strictly above `gate` ([`required_overlap_keyed`]: equal to
    /// the exact bound when it is reachable, above `min(la, lb)` when it
    /// is not).
    #[inline]
    fn required(&mut self, measure: SetMeasure, la: usize, lb: usize, gate: f64) -> usize {
        let key = overlap_bound_key(measure, la, lb);
        if key >= BOUND_MEMO_MAX {
            return required_overlap_keyed(measure, gate, key);
        }
        if self.gate != gate {
            self.gate = gate;
            self.by_key.clear();
        }
        if self.by_key.len() <= key {
            self.by_key.resize(key + 1, u32::MAX);
        }
        let slot = &mut self.by_key[key];
        if *slot == u32::MAX {
            *slot = required_overlap_keyed(measure, gate, key) as u32;
        }
        *slot as usize
    }

    /// Threshold-gated score: `Some(s)` **iff** `measure.score(ra, rb)`
    /// is strictly above `gate`, with `s` bit-identical to it. This is
    /// [`SetMeasure::score_above`] with the required overlap served from
    /// the memo (outcome-equivalent; see [`required_overlap_keyed`]).
    #[inline]
    fn score_above(
        &mut self,
        measure: SetMeasure,
        ra: &[u32],
        rb: &[u32],
        gate: f64,
    ) -> Option<f64> {
        let o_min = self.required(measure, ra.len(), rb.len(), gate);
        let o = merge(ra, rb, o_min)?;
        Some(measure.from_overlap(o, ra.len(), rb.len()))
    }

    /// The positional prefilter's test (module docs): true if a pair of
    /// records of lengths `la` and `lb` whose overlap is at most `cap`
    /// provably scores at or below `gate`. Capping at the shorter record
    /// keeps the outcome equal to the exact bound's, also where that
    /// bound is unreachable.
    #[inline]
    fn prunes(&mut self, measure: SetMeasure, la: usize, lb: usize, cap: usize, gate: f64) -> bool {
        cap.min(la.min(lb)) < self.required(measure, la, lb, gate)
    }
}

/// [`overlap_with_bound`], kept out of line. With the merge inlined into
/// an out-of-line `offer`, the fixed-q joint stage on amazon-google ×0.25
/// (records of up to 57 tokens) ran about 8% slower than with this call
/// (2 vCPUs, 1 worker, 16 alternating runs).
#[inline(never)]
fn merge(ra: &[u32], rb: &[u32], o_min: usize) -> Option<usize> {
    overlap_with_bound(ra, rb, o_min)
}

/// One join's work counters. The kernels count in a local and flush it
/// to the `mc.core.ssj.*` registry once per join, so their loops pay no
/// atomic ops.
#[derive(Default)]
struct Work {
    /// Queue events (the event loop) or prefix tokens (the semi-join).
    events: u64,
    /// Pairs discovered at their first common prefix token that passed
    /// the positional prefilter there.
    candidates: u64,
    /// Completed merges.
    scored: u64,
    /// Merges refuted by the gate before completion.
    merge_aborts: u64,
    /// `Σ |ra| + |rb|` over scoring attempts, aborted merges included: a
    /// machine-independent proxy for scoring cost that merge gating does
    /// not change, so [`select_q`]'s cost model is stable across kernels.
    /// A partner the positional prefilter skips makes no attempt.
    scored_tokens: u64,
    /// Pairs that reached `q` common tokens and passed the positional
    /// prefilter but are in the blocker output.
    killed_skipped: u64,
    /// Events (or prefix tokens) the prefix bound pruned.
    bound_pruned: u64,
    /// Partners the positional prefilter skipped.
    position_pruned: u64,
}

impl Work {
    /// Adds this join's work to the registry.
    fn flush(&self) {
        mc_obs::counter!("mc.core.ssj.events").add(self.events);
        mc_obs::counter!("mc.core.ssj.candidates").add(self.candidates);
        mc_obs::counter!("mc.core.ssj.scored").add(self.scored);
        mc_obs::counter!("mc.core.ssj.merge_aborts").add(self.merge_aborts);
        mc_obs::counter!("mc.core.ssj.killed_skipped").add(self.killed_skipped);
        mc_obs::counter!("mc.core.ssj.bound_pruned").add(self.bound_pruned);
        mc_obs::counter!("mc.core.ssj.position_pruned").add(self.position_pruned);
    }
}

/// The one scoring path of both kernels: offers a pair that reached `q`
/// common prefix tokens to the list. A pair in the blocker output is
/// skipped (checked here, once per pair, not per incidence); any other
/// is merged against the list's gate, one ulp below its k-th score (see
/// [`TopKList::gate`]). A refuted merge has `score < threshold` and
/// could never enter the list, while exact threshold ties come through
/// for the canonical key tie-break, so gating never changes the list.
///
/// Always inlined, so the kernels keep their work counters in registers
/// and pay one call per attempt, into [`merge`].
#[inline(always)]
fn offer(
    inst: SsjInstance<'_>,
    measure: SetMeasure,
    pair: u64,
    list: &mut TopKList,
    memo: &mut BoundMemo,
    work: &mut Work,
) {
    if !inst.killed.is_empty() && inst.killed.contains_key(pair) {
        work.killed_skipped += 1;
        return;
    }
    let (a, b) = split_pair_key(pair);
    let (ra, rb) = (inst.records_a.record(a), inst.records_b.record(b));
    work.scored_tokens += (ra.len() + rb.len()) as u64;
    match memo.score_above(measure, ra, rb, list.gate()) {
        Some(s) => {
            work.scored += 1;
            list.insert(s, pair);
        }
        None => work.merge_aborts += 1,
    }
}

/// Prefix bound with a token *credit* for QJoin's deferred pairs: an
/// unscored pair may already hold up to `credit = q − 1` common tokens,
/// so its achievable overlap is `min(la, rem + credit)`. `min_other` is
/// a lower bound on the partner's length (see [`shortest_record`]),
/// which only the Overlap measure reads.
#[inline]
fn bound_with_credit(
    measure: SetMeasure,
    la: usize,
    p: usize,
    credit: usize,
    min_other: usize,
) -> f64 {
    if credit == 0 {
        return measure.prefix_ubound(la, p, min_other);
    }
    let rem = (la - p + 1 + credit).min(la) as f64;
    let la_f = la as f64;
    match measure {
        SetMeasure::Jaccard => rem / la_f,
        SetMeasure::Cosine => (rem / la_f).sqrt(),
        SetMeasure::Dice => 2.0 * rem / (la_f + rem),
        SetMeasure::Overlap => (rem / la.min(min_other.max(1)) as f64).min(1.0),
    }
}

/// The shortest non-empty record over both arenas (1 if there is none):
/// a lower bound on any partner's length on either side, and so the
/// `min_other` of [`bound_with_credit`].
fn shortest_record(arenas: [&RecordArena; 2]) -> usize {
    arenas
        .iter()
        .flat_map(|arena| arena.iter().map(<[u32]>::len))
        .filter(|&len| len > 0)
        .min()
        .unwrap_or(1)
}

/// Empty-link sentinel of [`BucketQueue`]'s lists and "no owner" for the
/// join's accumulator.
const NIL: u64 = u64::MAX;

/// An event's queue key, `(side << 32) | rec`. Ascending keys are the
/// event order among equal bounds: side A first, then ascending record.
#[inline]
fn event_key(side: usize, rec: TupleId) -> u64 {
    ((side as u64) << 32) | rec as u64
}

/// Scored flag of [`topk_semi_join`]'s per-probe-record pair states
/// (low bits hold the pair's common-token count).
const SEMI_SCORED: u32 = 1 << 31;

/// The event loop's exact priority queue: a monotone bucket queue with
/// one bucket per distinct prefix-bound value.
///
/// An event's bound is `bound_with_credit(measure, len, p, credit,
/// min_other)` of its record's length and next 1-indexed position, so
/// [`BucketQueue::reset`] tabulates it for every (length, position) the
/// instance can produce, numbers the distinct bit patterns by descending
/// value and maps every (length, position) to its bucket. Buckets open
/// in id order and each is sorted by event key once, when it opens; the
/// module docs show why that gives the exact event order.
/// Each record has at most one queued event, so a bucket is an intrusive
/// list threaded through per-record links and a push never allocates.
#[derive(Default)]
struct BucketQueue {
    /// `row[len]`: where length `len`'s row starts in `ids` (set only for
    /// lengths some record has).
    row: Vec<u32>,
    /// `ids[row[len] + p − 1]`: the bucket of a length-`len` record's
    /// bound at 1-indexed position `p`.
    ids: Vec<u32>,
    /// Bound bits of each bucket, strictly descending (id = index).
    bits: Vec<u64>,
    /// First event key of each bucket's list (`NIL` = empty).
    heads: Vec<u64>,
    /// Per-side, per-record link to the next event of the same bucket.
    next: [Vec<u64>; 2],
    /// The open bucket's events in ascending key order; `open[at..]` are
    /// still queued.
    open: Vec<u64>,
    at: usize,
    /// The open bucket: the highest one holding events.
    cur: usize,
    /// Queued events: the unopened buckets plus `open[at..]`.
    live: u64,
}

impl BucketQueue {
    /// Empties the queue and tabulates the buckets of one join.
    fn reset(&mut self, measure: SetMeasure, credit: usize, arenas: [&RecordArena; 2]) {
        const ABSENT: u32 = u32::MAX;
        // Every buffer is sized before it fills, so a join allocates at
        // most once per buffer and a reused queue not at all.
        let max_len = arenas
            .iter()
            .flat_map(|arena| arena.iter().map(<[u32]>::len))
            .max()
            .unwrap_or(0);
        self.row.clear();
        self.row.resize(max_len + 1, ABSENT);
        for arena in arenas {
            for rec in arena.iter() {
                self.row[rec.len()] = 0;
            }
        }
        // The shortest length present is `shortest_record` of the arenas.
        let min_other = (1..self.row.len())
            .find(|&len| self.row[len] != ABSENT)
            .unwrap_or(1);
        let mut total = 0u32;
        for (len, row) in self.row.iter_mut().enumerate().skip(1) {
            if *row != ABSENT {
                *row = total;
                total += len as u32;
            }
        }
        let bound =
            |len: usize, p: usize| bound_with_credit(measure, len, p, credit, min_other).to_bits();
        self.bits.clear();
        self.bits.reserve(total as usize);
        for len in 1..self.row.len() {
            if self.row[len] != ABSENT {
                self.bits.extend((1..=len).map(|p| bound(len, p)));
            }
        }
        // Bounds are positive, so bit order is value order.
        self.bits.sort_unstable_by(|x, y| y.cmp(x));
        self.bits.dedup();
        self.ids.clear();
        self.ids.reserve(total as usize);
        for len in 1..self.row.len() {
            if self.row[len] != ABSENT {
                for p in 1..=len {
                    let b = bound(len, p);
                    self.ids.push(self.bits.partition_point(|&x| x > b) as u32);
                }
            }
        }
        self.heads.clear();
        self.heads.resize(self.bits.len(), NIL);
        for (next, arena) in self.next.iter_mut().zip(arenas) {
            if next.len() < arena.len() {
                next.resize(arena.len(), NIL);
            }
        }
        // A bucket never holds more than one event per record.
        self.open.clear();
        self.open.reserve(arenas[0].len() + arenas[1].len());
        self.at = 0;
        self.cur = 0;
        self.live = 0;
    }

    /// The bucket of a length-`len` record's event at 1-indexed `p`.
    #[inline]
    fn bucket(&self, len: usize, p: usize) -> usize {
        self.ids[self.row[len] as usize + p - 1] as usize
    }

    /// The bound every event of `bucket` carries.
    #[inline]
    fn bound(&self, bucket: usize) -> f64 {
        f64::from_bits(self.bits[bucket])
    }

    /// Queues record `rec`'s next event. Only buckets below the open one
    /// take pushes; the caller handles a push at the open bucket's bound.
    #[inline]
    fn push(&mut self, side: usize, rec: TupleId, bucket: usize) {
        debug_assert!(bucket > self.cur || self.open.is_empty());
        self.next[side][rec as usize] = self.heads[bucket];
        self.heads[bucket] = event_key(side, rec);
        self.live += 1;
    }

    /// Pops the next event key: highest bound first, ascending key among
    /// equal bounds. Its bound is `self.bound(self.cur)`.
    #[inline]
    fn pop(&mut self) -> Option<u64> {
        if self.at == self.open.len() {
            while self.cur < self.heads.len() && self.heads[self.cur] == NIL {
                self.cur += 1;
            }
            if self.cur == self.heads.len() {
                return None;
            }
            // No push can reach this bucket any more (bounds never rise
            // along a prefix), so its contents are final.
            self.open.clear();
            let mut key = std::mem::replace(&mut self.heads[self.cur], NIL);
            while key != NIL {
                self.open.push(key);
                key = self.next[(key >> 32) as usize][key as u32 as usize];
            }
            self.open.sort_unstable();
            self.at = 0;
        }
        let key = self.open[self.at];
        self.at += 1;
        self.live -= 1;
        Some(key)
    }
}

/// One entry of a token's postings list: a record whose prefix holds
/// the token.
#[derive(Clone, Copy)]
struct Posting {
    rec: TupleId,
    /// Copies of the token the record's prefix holds (a duplicate bumps
    /// the entry its first copy made).
    copies: u32,
    /// 0-indexed position of the record's first copy of the token.
    pos: u32,
}

/// A dense (rank-indexed) inverted index over the records' prefixes.
///
/// `lists[rank]` holds one [`Posting`] per record whose prefix contains
/// `rank`. Reset clears only the lists touched by the previous join.
#[derive(Default)]
struct DensePostings {
    lists: Vec<Vec<Posting>>,
    touched: Vec<u32>,
}

impl DensePostings {
    fn reset(&mut self, rank_bound: usize) {
        for &t in &self.touched {
            self.lists[t as usize].clear();
        }
        self.touched.clear();
        if self.lists.len() < rank_bound {
            self.lists.resize_with(rank_bound, Vec::new);
        }
    }
}

/// Reusable per-worker state of [`topk_join_with_scratch`] and
/// [`topk_semi_join`]: prefix positions, run counters, postings, the
/// event queue, the per-partner accumulator, the live seeds and the
/// bound memo. Every buffer is `O(|A| + |B| + postings)`, and a worker
/// that keeps one scratch across consecutive joins (as the joint
/// executor does per thread) allocates nothing in steady state.
#[derive(Default)]
pub struct JoinScratch {
    /// Per-side prefix positions (next 0-indexed token to process).
    pos: [Vec<u32>; 2],
    /// Per-side current-token run counters: copies of the record's most
    /// recently processed token within its own prefix.
    run: [Vec<u32>; 2],
    /// Last token each record posted (sentinel `u32::MAX` = none), so a
    /// record's duplicated tokens share a single posting.
    last_posted: [Vec<u32>; 2],
    /// Index of each record's live posting within its last token's list.
    slot: [Vec<u32>; 2],
    /// Per-side dense inverted indexes.
    postings: [DensePostings; 2],
    /// The event loop's bucket queue.
    queue: BucketQueue,
    /// Per-partner accumulator, indexed by the other side's record id.
    /// The event loop keeps there the prober's common-token count with
    /// each partner over its completed token runs; [`topk_semi_join`]
    /// keeps the probe record's pair states (high bit = scored). An
    /// entry is live only while its stamp is the current `acc_gen`.
    acc: Vec<AccSlot>,
    /// Current accumulator generation (bumped per rebuild; wrapping
    /// clears the stamps).
    acc_gen: u32,
    /// The event loop's live (not killed) seeded pair keys, sorted.
    seeds: Vec<u64>,
    /// Required overlaps per gate, shared by every pair both kernels
    /// score.
    memo: BoundMemo,
    /// The most recent join's work.
    work: Work,
}

impl JoinScratch {
    /// An empty scratch; buffers grow to fit the first join and are
    /// reused afterwards.
    pub fn new() -> Self {
        JoinScratch::default()
    }

    /// Clears all state and sizes the buffers for one event-loop join.
    fn prepare(&mut self, inst: SsjInstance<'_>, measure: SetMeasure, credit: usize) {
        let arenas = [inst.records_a, inst.records_b];
        let rank_bound = inst.records_a.rank_bound().max(inst.records_b.rank_bound()) as usize;
        for (side, arena) in arenas.into_iter().enumerate() {
            let n = arena.len();
            self.pos[side].clear();
            self.pos[side].resize(n, 0);
            self.run[side].clear();
            self.run[side].resize(n, 0);
            self.last_posted[side].clear();
            self.last_posted[side].resize(n, u32::MAX);
            self.slot[side].clear();
            self.slot[side].resize(n, 0);
            self.postings[side].reset(rank_bound);
        }
        self.size_acc(inst.records_a.len().max(inst.records_b.len()));
        self.queue.reset(measure, credit, arenas);
        self.memo.by_key.clear();
    }

    /// Clears the subset of the scratch [`topk_semi_join`] uses: the
    /// post side's postings, the accumulator (by generation bump, per
    /// probe record) and the bound memo. The event loop's per-record
    /// arrays and queue stay untouched — the semi-join never reads them,
    /// so delta joins skip megabytes of memsets per call.
    fn prepare_semi(&mut self, post: usize, n_post: usize, rank_bound: usize) {
        self.postings[post].reset(rank_bound);
        self.size_acc(n_post);
        self.memo.by_key.clear();
    }

    /// Grows the accumulator to index `n` partners.
    fn size_acc(&mut self, n: usize) {
        if self.acc.len() < n {
            self.acc.resize(n, AccSlot::default());
        }
    }

    /// Queue events the most recent join on this scratch processed — a
    /// deterministic, machine-independent cost measure (used by
    /// [`select_q`]).
    pub fn last_events(&self) -> u64 {
        self.work.events
    }

    /// Tokens fed to the scorer by the most recent join (`Σ |ra| + |rb|`
    /// over scoring attempts, aborted merges included).
    pub fn last_scored_tokens(&self) -> u64 {
        self.work.scored_tokens
    }

    /// Pairs the most recent join scored with a completed merge (refuted
    /// merges excluded). The incremental debugger reads this to account
    /// re-scoring work.
    pub fn last_scored(&self) -> u64 {
        self.work.scored
    }

    /// Heap bytes the scratch's buffers hold (their capacities), for a
    /// session's footprint estimate.
    pub fn resident_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let q = &self.queue;
        let mut total = bytes(&self.acc)
            + bytes(&self.seeds)
            + bytes(&self.memo.by_key)
            + bytes(&q.row)
            + bytes(&q.ids)
            + bytes(&q.bits)
            + bytes(&q.heads)
            + bytes(&q.open);
        for side in 0..2 {
            let postings = &self.postings[side];
            total += bytes(&self.pos[side])
                + bytes(&self.run[side])
                + bytes(&self.last_posted[side])
                + bytes(&self.slot[side])
                + bytes(&q.next[side])
                + bytes(&postings.lists)
                + postings.lists.iter().map(bytes).sum::<usize>()
                + bytes(&postings.touched);
        }
        total
    }
}

/// One accumulator entry: a count, live while `stamp` is the current
/// generation (stamp and count share a cache line).
#[derive(Clone, Copy, Default)]
struct AccSlot {
    stamp: u32,
    count: u32,
}

/// Opens a fresh accumulator generation: every entry reads as stale
/// until stamped again.
#[inline]
fn next_acc_gen(gen: &mut u32, acc: &mut [AccSlot]) -> u32 {
    *gen = gen.wrapping_add(1);
    if *gen == 0 {
        acc.fill(AccSlot::default());
        *gen = 1;
    }
    *gen
}

/// Extends the event loop's accumulator over the prober's completed
/// token runs from `*upto` to `run_start`: every partner posted under a
/// run's token `u` gains `min(copies_r(u), copies_o(u))`. Records are
/// ordered rarest token first, so these are the shortest postings lists.
#[inline]
fn extend_acc(
    rec: &[u32],
    upto: &mut usize,
    run_start: usize,
    lists: &[Vec<Posting>],
    acc: &mut [AccSlot],
    gen: u32,
) {
    while *upto < run_start {
        let u = rec[*upto];
        let mut end = *upto + 1;
        while rec[end] == u {
            end += 1;
        }
        let copies = (end - *upto) as u32;
        for posting in &lists[u as usize] {
            let slot = &mut acc[posting.rec as usize];
            if slot.stamp != gen {
                *slot = AccSlot {
                    stamp: gen,
                    count: 0,
                };
            }
            slot.count += posting.copies.min(copies);
        }
        *upto = end;
    }
}

/// Slack for comparisons between a *prefix bound* and the list
/// threshold. Bounds and scores are computed by different floating-point
/// expression trees, so a bound that equals a later score in exact
/// arithmetic can land one ulp below it after rounding (cosine's
/// `o / sqrt(la·lb)` vs `sqrt(rem / la)`). Distinct rational
/// score/bound values on integer token counts differ by far more than
/// 1e-12 while rounding error stays below 1e-15, so the slack separates
/// "really below" from "equal up to rounding" exactly. Score-vs-gate
/// comparisons need no slack: both sides are the same expression.
const BOUND_SLACK: f64 = 1e-12;

/// Runs the top-k join with a fresh scratch. Prefer
/// [`topk_join_with_scratch`] when executing many joins on one thread.
///
/// * `seed` — optional initial entries with their exact scores (a
///   session's surviving list entries); seeded pairs are marked scored
///   and never recomputed.
/// * `cancel` — optional cooperative cancellation flag; a cancelled
///   join returns its partial list.
pub fn topk_join(
    inst: SsjInstance<'_>,
    params: SsjParams,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
) -> TopKList {
    let mut scratch = JoinScratch::new();
    topk_join_with_scratch(inst, params, seed, cancel, &mut scratch)
}

/// Runs the top-k join, reusing `scratch` buffers from previous joins.
/// See [`topk_join`] for the parameter contract.
pub fn topk_join_with_scratch(
    inst: SsjInstance<'_>,
    params: SsjParams,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    scratch: &mut JoinScratch,
) -> TopKList {
    assert!(params.q >= 1, "q must be at least 1");
    let q = params.q;
    let credit = q - 1;
    scratch.prepare(inst, params.measure, credit);
    let JoinScratch {
        pos,
        run,
        last_posted,
        slot,
        postings,
        queue,
        acc,
        acc_gen,
        seeds,
        memo,
        work: last_work,
    } = scratch;

    let mut k_list = TopKList::with_capacity_hint(params.k, seed.len());
    seeds.clear();
    seeds.reserve(seed.len());
    for &(score, pair) in seed {
        if !inst.killed.contains_key(pair) {
            k_list.insert(score, pair);
            seeds.push(pair);
        }
    }
    seeds.sort_unstable();
    let has_seeds = !seeds.is_empty();

    for (side, arena) in [inst.records_a, inst.records_b].into_iter().enumerate() {
        for (r, rec) in arena.iter().enumerate() {
            if !rec.is_empty() {
                queue.push(side, r as TupleId, queue.bucket(rec.len(), 1));
            }
        }
    }

    let mut work = Work::default();
    // The accumulator holds, for the record `acc_owner`, each partner's
    // common count over the owner's token runs before `acc_upto`. It
    // stays valid only while the owner's events run back to back.
    let mut acc_owner = NIL;
    let mut acc_upto = 0usize;
    // An event re-queued at the open bucket's bound: it is next.
    let mut reentry = NIL;
    let mut since_cancel_check = 0u32;
    loop {
        let key = if reentry != NIL {
            std::mem::replace(&mut reentry, NIL)
        } else if let Some(key) = queue.pop() {
            key
        } else {
            break;
        };
        let threshold = k_list.threshold();
        if threshold > 0.0 && queue.bound(queue.cur) < threshold - BOUND_SLACK {
            // Everything still queued is pruned by the prefix bound.
            // Strictly below the threshold only: an event whose bound
            // *equals* the threshold can still yield a tie that displaces
            // a larger pair key under the canonical order, so it must be
            // processed for the list to stay canonical.
            work.bound_pruned += queue.live + 1;
            break;
        }
        work.events += 1;
        if let Some(flag) = cancel {
            since_cancel_check += 1;
            if since_cancel_check >= 256 {
                since_cancel_check = 0;
                if flag.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        let side = (key >> 32) as usize;
        let other = 1 - side;
        let r = key as TupleId;
        let idx = r as usize;
        let rec = if side == 0 {
            inst.records_a.record(r)
        } else {
            inst.records_b.record(r)
        };
        let p = pos[side][idx] as usize; // 0-indexed token to process
        let tok = rec[p];

        // This is the `occ`-th occurrence of `tok` within our own prefix:
        // records are sorted, so occurrences are contiguous and the run
        // counter extends by one whenever the previous token repeats.
        let occ = if p > 0 && rec[p - 1] == tok {
            run[side][idx] + 1
        } else {
            1
        };
        run[side][idx] = occ;

        if acc_owner != key {
            acc_owner = NIL;
        }
        let partners = &postings[other].lists[tok as usize];
        // A partner holding ≥ `occ` copies of `tok` shares this
        // incidence, and the pair's prefixes then share `acc + occ`
        // tokens: the partner's prefix holds `tok`, hence every one of
        // its smaller tokens, so their overlap over those is exactly the
        // accumulator's sum. The count is at least `occ`, so beyond `q`
        // no pair can be discovered or reach `q`.
        if !partners.is_empty() && occ as usize <= q {
            let len = rec.len();
            // Tokens after this one in our own record.
            let rest = len - p - 1;
            let other_arena = if side == 0 {
                inst.records_b
            } else {
                inst.records_a
            };
            let mut gate = k_list.gate();
            for &Posting {
                rec: o,
                copies: o_count,
                pos: o_pos,
            } in partners
            {
                // The pair's prefix multiset overlap grows by one exactly
                // when the partner's prefix already holds ≥ occ copies of
                // this token (its posting counts them).
                if o_count < occ {
                    continue;
                }
                // Positional prefilter: decided before the accumulator
                // is touched (module docs).
                let o_len = other_arena.record_len(o);
                let o_rest = o_len - o_pos as usize - occ as usize;
                if memo.prunes(params.measure, len, o_len, q + rest.min(o_rest), gate) {
                    work.position_pruned += 1;
                    continue;
                }
                if acc_owner == NIL {
                    next_acc_gen(acc_gen, acc);
                    acc_owner = key;
                    acc_upto = 0;
                }
                let gen = *acc_gen;
                extend_acc(
                    rec,
                    &mut acc_upto,
                    p + 1 - occ as usize,
                    &postings[other].lists,
                    acc,
                    gen,
                );
                let slot = acc[o as usize];
                let before = if slot.stamp == gen { slot.count } else { 0 };
                let common = (before + occ) as usize;
                if common != 1 && common != q {
                    continue;
                }
                let pair = if side == 0 {
                    pair_key(r, o)
                } else {
                    pair_key(o, r)
                };
                // A seeded pair is never discovered and never rescored.
                if has_seeds && seeds.binary_search(&pair).is_ok() {
                    continue;
                }
                if common == 1 {
                    work.candidates += 1;
                }
                if common == q {
                    offer(inst, params.measure, pair, &mut k_list, memo, &mut work);
                    gate = k_list.gate();
                }
            }
        }
        // Register this token in our own prefix index: a record posts
        // each distinct token once, at its first copy's position, and
        // bumps its posting's copy count for duplicates (the slot stays
        // valid because lists only grow).
        if last_posted[side][idx] != tok {
            last_posted[side][idx] = tok;
            let list = &mut postings[side].lists[tok as usize];
            if list.is_empty() {
                postings[side].touched.push(tok);
            }
            slot[side][idx] = list.len() as u32;
            list.push(Posting {
                rec: r,
                copies: 1,
                pos: p as u32,
            });
        } else {
            let s = slot[side][idx] as usize;
            postings[side].lists[tok as usize][s].copies += 1;
        }

        pos[side][idx] += 1;
        let next_p = p + 1;
        if next_p < rec.len() {
            let bucket = queue.bucket(rec.len(), next_p + 1);
            // Mirror the pop-side prune: re-enqueue while the bound can
            // still reach the threshold, ties included.
            let threshold = k_list.threshold();
            if threshold == 0.0 || queue.bound(bucket) >= threshold - BOUND_SLACK {
                if bucket == queue.cur {
                    // Every other queued event at this bound has a
                    // larger key, so this one pops next.
                    reentry = key;
                } else {
                    queue.push(side, r, bucket);
                }
            } else {
                work.bound_pruned += 1;
            }
        }
    }
    work.flush();
    *last_work = work;
    k_list
}

/// Queue-free one-directional variant of the top-k join for asymmetric
/// instances: one side is tiny (the incremental debugger's changed set),
/// the other is a full table.
///
/// The event queue exists to interleave both sides' prefix tokens in
/// global bound order so the list threshold rises as early as possible.
/// A delta join starts with a threshold that is already near-final — its
/// seed list is the surviving top-K of the previous run — so the global
/// ordering buys almost nothing while charging a queue operation per
/// token. This variant drops the queue entirely and runs two flat
/// passes:
///
/// 1. the **post** side (the small changed set) streams each record's
///    prefix into the postings index, probing nothing;
/// 2. the **probe** side (the full table) streams each record's prefix
///    against the completed postings, advancing pair states and scoring
///    at the `q`-th common token exactly like the event loop.
///
/// Every common-prefix incidence is counted exactly once — by the probe
/// side against the post side's *final* copy counts, which equals the
/// event loop's "whichever side posts the occurrence level second"
/// accounting because `min(copies, copies)` is order-free. Both passes
/// stop each record once its credit-adjusted prefix bound falls below
/// `threshold − BOUND_SLACK`; the threshold only rises, so any pair
/// skipped by a stopped prefix provably cannot beat the final threshold
/// (the same soundness argument as the event loop's prune, applied
/// per-record instead of globally). Seeds, killed-pair handling and
/// threshold gating are identical to [`topk_join_with_scratch`], so the
/// returned `sorted_entries()` is **bit-identical** to it: both produce
/// the canonical top-k of the same pair universe.
///
/// `post_side` picks which side's prefixes are indexed: `0` posts A and
/// probes with B, `1` posts B and probes with A. Always post the small
/// side — partner lists stay short and the probe pass degenerates to a
/// streaming scan with almost-always-empty postings lookups. The scratch
/// counters record probed + posted prefix tokens as this join's events.
pub fn topk_semi_join(
    inst: SsjInstance<'_>,
    params: SsjParams,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    scratch: &mut JoinScratch,
    post_side: u8,
) -> TopKList {
    assert!(params.q >= 1, "q must be at least 1");
    assert!(post_side <= 1, "post_side is 0 (A) or 1 (B)");
    let credit = params.q - 1;
    let measure = params.measure;
    let rank_bound = inst.records_a.rank_bound().max(inst.records_b.rank_bound()) as usize;
    let post = post_side as usize;
    let post_arena = if post == 0 {
        inst.records_a
    } else {
        inst.records_b
    };
    scratch.prepare_semi(post, post_arena.len(), rank_bound);
    // Only the Overlap bound reads the partner-length bound, so the
    // other measures skip the scan over both tables.
    let min_other = if measure == SetMeasure::Overlap {
        shortest_record([inst.records_a, inst.records_b])
    } else {
        1
    };
    let JoinScratch {
        postings,
        acc,
        acc_gen,
        memo,
        work: last_work,
        ..
    } = scratch;

    // Seeds are never rescored. The per-record pair state is rebuilt per
    // probe record, so the live seeds are indexed by their probe-side
    // endpoint and pre-stamped as scored when that record's scan opens.
    let mut k_list = TopKList::with_capacity_hint(params.k, seed.len());
    let mut seed_pairs: Vec<(TupleId, TupleId)> = Vec::with_capacity(seed.len());
    for &(score, pair) in seed {
        if !inst.killed.contains_key(pair) {
            k_list.insert(score, pair);
            let (a, b) = split_pair_key(pair);
            let (probe_rec, post_rec) = if post == 0 { (b, a) } else { (a, b) };
            if (post_rec as usize) < post_arena.len() {
                seed_pairs.push((probe_rec, post_rec));
            }
        }
    }
    seed_pairs.sort_unstable();

    let mut work = Work::default();
    // Pass 1: index the post side's prefixes. No insert happens here, so
    // the threshold is fixed for the whole pass; each record posts until
    // its bound falls below it. Records are processed contiguously, so
    // the kernel's per-record posting arrays collapse to two locals.
    let threshold = k_list.threshold();
    for r in 0..post_arena.len() as TupleId {
        let rec = post_arena.record(r);
        let len = rec.len();
        let mut last_tok = u32::MAX;
        let mut slot_idx = 0usize;
        for (p, &tok) in rec.iter().enumerate() {
            if threshold > 0.0
                && bound_with_credit(measure, len, p + 1, credit, min_other)
                    < threshold - BOUND_SLACK
            {
                work.bound_pruned += (len - p) as u64;
                break;
            }
            work.events += 1;
            if last_tok != tok {
                last_tok = tok;
                let list = &mut postings[post].lists[tok as usize];
                if list.is_empty() {
                    postings[post].touched.push(tok);
                }
                slot_idx = list.len();
                list.push(Posting {
                    rec: r,
                    copies: 1,
                    pos: p as u32,
                });
            } else {
                postings[post].lists[tok as usize][slot_idx].copies += 1;
            }
        }
    }

    // Pass 2: stream the probe side against the completed index. The
    // threshold can rise mid-pass as contributions land, so it is
    // re-read per token like the event loop does per event.
    let probe_arena = if post == 0 {
        inst.records_b
    } else {
        inst.records_a
    };
    let mut seed_cursor = 0usize;
    let mut since_cancel_check = 0u32;
    'probe: for r in 0..probe_arena.len() as TupleId {
        // Open this record's pair-state generation and pre-stamp its
        // seeds as scored.
        let gen = next_acc_gen(acc_gen, acc);
        while seed_cursor < seed_pairs.len() && seed_pairs[seed_cursor].0 == r {
            let o = seed_pairs[seed_cursor].1 as usize;
            acc[o] = AccSlot {
                stamp: gen,
                count: SEMI_SCORED,
            };
            seed_cursor += 1;
        }
        let rec = probe_arena.record(r);
        let len = rec.len();
        let mut occ = 0u32;
        for (p, &tok) in rec.iter().enumerate() {
            let threshold = k_list.threshold();
            if threshold > 0.0
                && bound_with_credit(measure, len, p + 1, credit, min_other)
                    < threshold - BOUND_SLACK
            {
                work.bound_pruned += (len - p) as u64;
                break;
            }
            work.events += 1;
            if let Some(flag) = cancel {
                since_cancel_check += 1;
                if since_cancel_check >= 1024 {
                    since_cancel_check = 0;
                    if flag.load(Ordering::Relaxed) {
                        break 'probe;
                    }
                }
            }
            // `occ`-th copy of `tok` within our own prefix (records are
            // sorted, so copies are contiguous).
            occ = if p > 0 && rec[p - 1] == tok {
                occ + 1
            } else {
                1
            };
            let partners = &postings[post].lists[tok as usize];
            if partners.is_empty() {
                continue;
            }
            let mut gate = k_list.gate();
            for &Posting {
                rec: o,
                copies: o_count,
                pos: o_pos,
            } in partners
            {
                // Same multiset accounting as the event loop: this
                // incidence advances the pair iff the partner's prefix
                // holds at least `occ` copies.
                if o_count < occ {
                    continue;
                }
                let oi = o as usize;
                if acc[oi].stamp != gen {
                    acc[oi].stamp = gen;
                    // The event loop's positional prefilter, applied once
                    // at the pair's first incidence. A pair it refutes
                    // can never pass the (only rising) gate, so it is
                    // marked scored and every later incidence skips on
                    // the stamp alone.
                    let plen = post_arena.record_len(o);
                    let rest = (len - p - 1).min(plen - o_pos as usize - occ as usize);
                    if memo.prunes(measure, len, plen, params.q + rest, gate) {
                        work.position_pruned += 1;
                        acc[oi].count = SEMI_SCORED;
                        continue;
                    }
                    work.candidates += 1;
                    acc[oi].count = 0;
                }
                let c = acc[oi].count;
                if c & SEMI_SCORED != 0 {
                    continue;
                }
                let c = c + 1;
                if (c as usize) < params.q {
                    acc[oi].count = c;
                    continue;
                }
                acc[oi].count = c | SEMI_SCORED;
                let pair = if post == 0 {
                    pair_key(o, r)
                } else {
                    pair_key(r, o)
                };
                offer(inst, measure, pair, &mut k_list, memo, &mut work);
                gate = k_list.gate();
            }
        }
    }
    work.flush();
    *last_work = work;
    k_list
}

/// Brute-force reference: scores **every** cross pair with non-zero
/// overlap that is not in `C`. Used by tests and tiny inputs.
pub fn brute_force_topk(inst: SsjInstance<'_>, k: usize, measure: SetMeasure) -> TopKList {
    let mut list = TopKList::new(k);
    for (a, ra) in inst.records_a.iter().enumerate() {
        if ra.is_empty() {
            continue;
        }
        for (b, rb) in inst.records_b.iter().enumerate() {
            if rb.is_empty() {
                continue;
            }
            let key = pair_key(a as TupleId, b as TupleId);
            if inst.killed.contains_key(key) {
                continue;
            }
            list.insert(measure.score(ra, rb), key);
        }
    }
    list
}

/// Empirical `q` selection (§4.1), made deterministic. The paper races
/// `q ∈ {1, …, max_q}` on threads and keeps the first finisher; that
/// wall-clock race made the chosen `q` — and everything downstream —
/// depend on OS scheduling. Here every candidate `q` instead runs a
/// small prelude join (`prelude_k`, the paper uses 50) **to
/// completion**, each on one worker and as many at once as the CPU
/// budget grants ([`mc_obs::par`]), and the winner is the `q` whose
/// prelude was cheapest under a machine-independent cost model:
/// queue events processed plus tokens fed to the scorer (ties go to the
/// smaller `q`). Repeated runs at any thread count therefore pick the
/// same `q`. Deterministic inputs can also fix `q` via [`SsjParams`].
///
/// A prelude is an ordinary [`topk_join_with_scratch`] and scores through
/// the same memoized path as every other join. Its scores are not kept:
/// the winning `q`'s main run scores the root config afresh, which costs
/// it under 1% more scoring attempts (DESIGN.md, "Scoring kernel &
/// pruning"). The cost model reads events and *attempt-time* scored
/// tokens: gating a merge does not change them, but the positional
/// prefilter (module docs) skips partners before any attempt, so the
/// model prices the filtered kernel that the main run executes: the
/// prefilter leaves events as they are and lets fewer attempts through.
pub fn select_q(
    inst: SsjInstance<'_>,
    measure: SetMeasure,
    max_q: usize,
    prelude_k: usize,
) -> usize {
    let max_q = max_q.max(1);
    if max_q == 1 {
        return 1;
    }
    let _span = mc_obs::span!("mc.core.ssj.select_q");
    let qs: Vec<usize> = (1..=max_q).collect();
    let costs = mc_obs::par::map(&qs, 0, |&q| {
        let params = SsjParams {
            k: prelude_k,
            q,
            measure,
        };
        let mut scratch = JoinScratch::new();
        topk_join_with_scratch(inst, params, &[], None, &mut scratch);
        (scratch.last_events() + scratch.last_scored_tokens(), q)
    });
    costs.into_iter().min().map_or(1, |(_, q)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(data: &[&[u32]]) -> RecordArena {
        RecordArena::from_records(data)
    }

    #[test]
    fn topk_list_threshold_and_order() {
        let mut l = TopKList::new(2);
        assert_eq!(l.threshold(), 0.0);
        l.insert(0.5, 1);
        l.insert(0.9, 2);
        assert_eq!(l.threshold(), 0.5);
        l.insert(0.7, 3); // evicts 0.5
        assert_eq!(l.threshold(), 0.7);
        l.insert(0.1, 4); // ignored
        assert_eq!(l.sorted_scores(), vec![0.9, 0.7]);
        assert_eq!(l.sorted_entries()[0].1, 2);
    }

    #[test]
    fn topk_list_rejects_nonpositive() {
        let mut l = TopKList::new(3);
        l.insert(0.0, 1);
        l.insert(-0.5, 2);
        assert!(l.is_empty());
    }

    #[test]
    fn join_matches_brute_force_q1() {
        let a = arena(&[&[1, 2, 3, 4], &[5, 6, 7], &[1, 9], &[2, 5, 8, 10, 11]]);
        let b = arena(&[&[1, 2, 3], &[5, 6, 7, 8], &[9, 10], &[4, 11]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for k in [1, 2, 3, 5, 16] {
            let fast = topk_join(
                inst,
                SsjParams {
                    k,
                    q: 1,
                    measure: SetMeasure::Jaccard,
                },
                &[],
                None,
            );
            let slow = brute_force_topk(inst, k, SetMeasure::Jaccard);
            assert_eq!(fast.sorted_scores(), slow.sorted_scores(), "k={k}");
        }
    }

    #[test]
    fn join_matches_brute_force_all_measures() {
        let a = arena(&[&[1, 2, 3, 4, 5], &[2, 3, 9], &[7, 8], &[1, 6, 7, 10]]);
        let b = arena(&[&[1, 2, 3], &[3, 4, 5, 6], &[7, 8, 9, 10], &[2]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for m in [SetMeasure::Jaccard, SetMeasure::Cosine, SetMeasure::Dice] {
            let fast = topk_join(
                inst,
                SsjParams {
                    k: 4,
                    q: 1,
                    measure: m,
                },
                &[],
                None,
            );
            let slow = brute_force_topk(inst, 4, m);
            let f = fast.sorted_scores();
            let s = slow.sorted_scores();
            assert_eq!(f.len(), s.len(), "{m:?}");
            for (x, y) in f.iter().zip(&s) {
                assert!((x - y).abs() < 1e-12, "{m:?}: {f:?} vs {s:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        // One scratch reused across joins of different shapes must give
        // the same results as fresh scratches (the joint executor's
        // steady-state mode).
        let a1 = arena(&[&[1, 2, 3, 4], &[5, 6, 7], &[1, 9]]);
        let b1 = arena(&[&[1, 2, 3], &[5, 6, 7, 8], &[9, 10]]);
        let a2 = arena(&[&[2, 2, 5], &[0, 1]]);
        let b2 = arena(&[&[2, 5, 5], &[0, 3], &[1, 2, 2]]);
        let killed = PairSet::new();
        let mut scratch = JoinScratch::new();
        for (a, b) in [(&a1, &b1), (&a2, &b2), (&a1, &b1)] {
            let inst = SsjInstance {
                records_a: a,
                records_b: b,
                killed: &killed,
            };
            let params = SsjParams {
                k: 5,
                q: 1,
                measure: SetMeasure::Jaccard,
            };
            let reused = topk_join_with_scratch(inst, params, &[], None, &mut scratch);
            let fresh = topk_join(inst, params, &[], None);
            assert_eq!(reused.sorted_entries(), fresh.sorted_entries());
        }
    }

    #[test]
    fn killed_pairs_are_excluded() {
        let a = arena(&[&[1, 2, 3]]);
        let b = arena(&[&[1, 2, 3], &[1, 2, 9]]);
        let mut killed = PairSet::new();
        killed.insert(0, 0); // the perfect pair is in C
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let l = topk_join(
            inst,
            SsjParams {
                k: 5,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        let entries = l.sorted_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, pair_key(0, 1));
    }

    #[test]
    fn qjoin_finds_high_overlap_pairs() {
        // Pairs sharing ≥ q tokens must still be found with q = 2.
        let a = arena(&[&[1, 2, 3, 4], &[5, 6, 7, 8]]);
        let b = arena(&[&[1, 2, 3, 9], &[5, 9, 10, 11]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let l = topk_join(
            inst,
            SsjParams {
                k: 10,
                q: 2,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        let entries = l.sorted_entries();
        // (a0, b0) shares 3 tokens → found; (a1, b1) shares only 1 → by
        // design, never scored with q = 2.
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, pair_key(0, 0));
        assert!((entries[0].0 - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn qjoin_agrees_with_topkjoin_on_high_overlap_top() {
        // When the true top-k pairs all share ≥ q tokens, QJoin returns
        // the same scores as TopKJoin.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..20u32 {
            a.push(vec![i * 3, i * 3 + 1, i * 3 + 2, 100 + i]);
            b.push(vec![i * 3, i * 3 + 1, i * 3 + 2, 200 + i]);
        }
        let a = RecordArena::from_records(&a);
        let b = RecordArena::from_records(&b);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let t1 = topk_join(
            inst,
            SsjParams {
                k: 10,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        let t2 = topk_join(
            inst,
            SsjParams {
                k: 10,
                q: 2,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        assert_eq!(t1.sorted_scores(), t2.sorted_scores());
    }

    #[test]
    fn seeding_never_worsens_results() {
        let a = arena(&[&[1, 2, 3, 4], &[5, 6, 7]]);
        let b = arena(&[&[1, 2, 8], &[5, 6, 7, 9]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let plain = topk_join(
            inst,
            SsjParams {
                k: 2,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &[],
            None,
        );
        // Seed with the true scores of both pairs.
        let seed: Vec<(f64, u64)> = plain.sorted_entries();
        let seeded = topk_join(
            inst,
            SsjParams {
                k: 2,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &seed,
            None,
        );
        assert_eq!(plain.sorted_scores(), seeded.sorted_scores());
    }

    #[test]
    fn seeded_killed_pairs_are_dropped() {
        let a = arena(&[&[1, 2]]);
        let b = arena(&[&[1, 2]]);
        let mut killed = PairSet::new();
        killed.insert(0, 0);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let seeded = topk_join(
            inst,
            SsjParams {
                k: 2,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &[(1.0, pair_key(0, 0))],
            None,
        );
        assert!(seeded.is_empty());
    }

    #[test]
    fn empty_records_produce_empty_list() {
        let a = arena(&[&[]]);
        let b = arena(&[&[1]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let l = topk_join(inst, SsjParams::default(), &[], None);
        assert!(l.is_empty());
    }

    #[test]
    fn select_q_returns_valid_q() {
        let a: Vec<Vec<u32>> = (0..50).map(|i| vec![i, i + 1, i + 2, i + 50]).collect();
        let b: Vec<Vec<u32>> = (0..50).map(|i| vec![i, i + 1, i + 3, i + 90]).collect();
        let a = RecordArena::from_records(&a);
        let b = RecordArena::from_records(&b);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let q = select_q(inst, SetMeasure::Jaccard, 4, 10);
        assert!((1..=4).contains(&q));
    }

    #[test]
    fn cancellation_returns_partial_list() {
        let a: Vec<Vec<u32>> = (0..200).map(|i| (i..i + 12).collect()).collect();
        let b: Vec<Vec<u32>> = (0..200).map(|i| (i + 3..i + 15).collect()).collect();
        let a = RecordArena::from_records(&a);
        let b = RecordArena::from_records(&b);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let cancel = AtomicBool::new(true); // cancelled from the start
        let l = topk_join(
            inst,
            SsjParams {
                k: 50,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &[],
            Some(&cancel),
        );
        // Join bailed early: far fewer events processed than a full run
        // (we can't assert exact counts, but it must return without
        // violating the list invariants).
        assert!(l.len() <= 50);
    }

    #[test]
    fn credit_bound_is_weaker_but_valid() {
        for m in SetMeasure::ALL {
            for min_other in [1, 3, 9] {
                for p in 1..=6 {
                    let b0 = bound_with_credit(m, 6, p, 0, min_other);
                    let b2 = bound_with_credit(m, 6, p, 2, min_other);
                    assert!(b2 >= b0, "{m:?} min_other={min_other} p={p}");
                    assert!(b2 <= 1.0 + 1e-12, "{m:?} min_other={min_other} p={p}");
                }
            }
        }
    }

    #[test]
    fn overlap_bound_with_min_other_is_admissible_and_prunes() {
        // A partner of at least `min_other` tokens sharing `credit`
        // tokens before position p and the whole suffix from p on
        // scores at most the bound.
        let a: Vec<u32> = (0..8).collect();
        for min_other in 1..=8usize {
            for credit in 0..3usize {
                for p in 1..=a.len() {
                    let shared = (p - 1).min(credit);
                    let mut b: Vec<u32> = a[..shared].to_vec();
                    b.extend_from_slice(&a[p - 1..]);
                    b.extend(100..100 + min_other.saturating_sub(b.len()) as u32);
                    let bound =
                        bound_with_credit(SetMeasure::Overlap, a.len(), p, credit, min_other);
                    let score = SetMeasure::Overlap.score(&a, &b);
                    assert!(
                        score <= bound + 1e-12,
                        "min_other={min_other} credit={credit} p={p}: {score} > {bound}"
                    );
                }
            }
        }
        // With a real partner-length bound the cap falls below 1.
        assert!(bound_with_credit(SetMeasure::Overlap, 8, 8, 0, 4) < 1.0);
        assert!(bound_with_credit(SetMeasure::Overlap, 8, 7, 1, 4) < 1.0);
    }

    #[test]
    fn topk_list_kept_set_is_offer_order_independent() {
        // Three equal-score offers at a k=2 boundary: whatever the offer
        // order, the canonical list keeps the two smallest pair keys.
        let offers = [(0.5, 10u64), (0.5, 7), (0.9, 3), (0.5, 8)];
        let orders = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]];
        for order in orders {
            let mut l = TopKList::new(3);
            for i in order {
                let (s, p) = offers[i];
                l.insert(s, p);
            }
            assert_eq!(l.sorted_entries(), vec![(0.9, 3), (0.5, 7), (0.5, 8)]);
        }
    }

    fn random_arena(seed: u64, n: usize, universe: u32, max_len: usize) -> RecordArena {
        // Tiny deterministic LCG; no rand dependency in mc-core.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let mut recs: Vec<Vec<u32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let len = next(max_len + 1);
            let mut r: Vec<u32> = (0..len).map(|_| next(universe as usize) as u32).collect();
            r.sort_unstable();
            recs.push(r);
        }
        let views: Vec<&[u32]> = recs.iter().map(|r| r.as_slice()).collect();
        RecordArena::from_records(&views)
    }

    #[test]
    fn semi_join_is_bit_identical_to_event_loop() {
        let a = random_arena(31, 110, 36, 9);
        let b = random_arena(47, 85, 36, 9);
        let mut killed = PairSet::new();
        killed.insert(2, 9);
        killed.insert(40, 11);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let seed = [(0.8, pair_key(7, 3)), (0.35, pair_key(12, 12))];
        for m in [
            SetMeasure::Jaccard,
            SetMeasure::Cosine,
            SetMeasure::Dice,
            SetMeasure::Overlap,
        ] {
            for (k, q) in [(10, 1), (60, 1), (10, 2), (25, 3)] {
                for seeds in [&seed[..], &[]] {
                    let params = SsjParams { k, q, measure: m };
                    let baseline = topk_join(inst, params, seeds, None);
                    for post_side in [0u8, 1] {
                        let mut scratch = JoinScratch::new();
                        let semi =
                            topk_semi_join(inst, params, seeds, None, &mut scratch, post_side);
                        assert_eq!(
                            baseline.sorted_entries(),
                            semi.sorted_entries(),
                            "{m:?} k={k} q={q} post_side={post_side}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn semi_join_handles_empty_and_masked_records() {
        // Empty records on both sides (as masked delta views produce)
        // must be skipped without disturbing discovery.
        let a = arena(&[&[], &[1, 2, 3], &[], &[2, 5, 8]]);
        let b = arena(&[&[1, 2, 4], &[], &[2, 5, 9], &[]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let params = SsjParams {
            k: 5,
            q: 1,
            measure: SetMeasure::Jaccard,
        };
        let baseline = topk_join(inst, params, &[], None);
        for post_side in [0u8, 1] {
            let mut scratch = JoinScratch::new();
            let semi = topk_semi_join(inst, params, &[], None, &mut scratch, post_side);
            assert_eq!(baseline.sorted_entries(), semi.sorted_entries());
        }
    }
}
