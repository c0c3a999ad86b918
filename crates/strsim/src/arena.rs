//! Flat CSR-style record storage for the join hot paths.
//!
//! The top-k SSJ engine touches every record's token slice millions of
//! times per join. Storing records as `Vec<Vec<u32>>` scatters them
//! across the heap (one allocation per record) and makes per-config
//! materialization in the joint executor allocate `|A| + |B|` vectors
//! per config. A [`RecordArena`] instead keeps **one contiguous token
//! buffer plus per-record bounds** — records come out as `&[u32]`
//! slices, the whole table is a handful of allocations, and sequential
//! scans are prefetch-friendly.
//!
//! The arena also tracks the exclusive upper bound of the token ranks it
//! holds ([`RecordArena::rank_bound`]); ranks are dense dictionary
//! indexes, so the bound lets the join engine use `Vec`-indexed postings
//! arrays instead of hash maps.
//!
//! Internally every record is addressed through two raw pointers,
//! `starts` and `ends`: record `i` is `tokens[starts[i] .. ends[i]]`.
//! Three backings provide those pointers:
//!
//! * **Owned** — a compact CSR pair (`tokens` + `offsets`); `starts`
//!   aliases `offsets[0..]` and `ends` aliases `offsets[1..]`, so the
//!   classic layout costs nothing extra.
//! * **Mapped** — the same CSR layout borrowed from a [`StableBytes`]
//!   backing (a memory-mapped artifact file): warm starts point the
//!   join straight at the file's pages with zero decode and zero copy
//!   ([`RecordArena::from_stable_parts`]).
//! * **Split** — independent `starts`/`ends` arrays over a shared
//!   (`Arc`) token buffer. This is the **patchable** form used by
//!   incremental debugging sessions: [`RecordArena::patch_record`]
//!   tombstones the old span and appends the new tokens,
//!   [`RecordArena::tombstone`] empties a record in O(1), and
//!   [`RecordArena::masked_view`] derives a view sharing the token
//!   buffer in which inactive records are empty — empty records never
//!   enter the join's event heap, so a view restricts a join to a
//!   record subset without the join engine knowing. Garbage from
//!   patches accumulates until [`RecordArena::compact`] rebuilds the
//!   compact CSR form (see [`RecordArena::garbage_ratio`]).
//!
//! Either way the hot accessors cost the same — two pointers and a
//! length, resolved once at construction.

use crate::dict::TokenizedTable;
use mc_table::TupleId;
use std::sync::Arc;

/// A byte buffer whose address is stable for the value's whole lifetime.
///
/// Implemented by zero-copy artifact backings (memory-mapped files,
/// pinned heap buffers) so a [`RecordArena`] can cache raw pointers into
/// the bytes at construction and skip per-access indirection.
///
/// # Safety
///
/// Implementors must guarantee that `bytes()` returns the same pointer
/// and length on every call for the lifetime of `self` (the buffer never
/// moves, grows, or shrinks), and that the bytes are never mutated while
/// `self` is alive.
pub unsafe trait StableBytes: Send + Sync {
    /// The backing bytes.
    fn bytes(&self) -> &[u8];
}

/// What keeps a [`RecordArena`]'s buffers alive.
enum Backing {
    /// The arena owns a compact CSR pair (the pointers point into these
    /// Vecs; a Vec's heap buffer does not move when the Vec itself
    /// moves).
    Owned { tokens: Vec<u32>, offsets: Vec<u32> },
    /// The buffers live inside a stable byte backing (e.g. an mmapped
    /// store artifact); the Arc keeps it alive.
    Mapped(Arc<dyn StableBytes>),
    /// Patchable form: independent per-record bounds over a shared
    /// token buffer. Tombstoned/patched spans leave garbage in the
    /// buffer; `masked_view` clones the Arc instead of the tokens.
    Split {
        tokens: Arc<Vec<u32>>,
        starts: Vec<u32>,
        ends: Vec<u32>,
    },
}

/// Records stored back-to-back in one token buffer.
///
/// Record `i` is `tokens[starts[i] .. ends[i]]`, a sorted rank multiset
/// exactly as [`TokenizedTable::merged`] would produce it.
pub struct RecordArena {
    tokens: *const u32,
    /// Physical buffer length, *including* garbage left by patches.
    n_tokens: usize,
    starts: *const u32,
    ends: *const u32,
    n_records: usize,
    /// Tokens reachable through live records (excludes patch garbage).
    live_tokens: usize,
    rank_bound: u32,
    backing: Backing,
}

// SAFETY: the buffers behind the raw pointers are immutable while shared
// and owned/kept alive by `backing` (Vecs, or an Arc to a Send + Sync
// StableBytes); every `&mut self` mutation re-derives the pointers
// before returning. Sharing or moving the arena across threads is sound.
unsafe impl Send for RecordArena {}
unsafe impl Sync for RecordArena {}

/// Accumulates owned CSR buffers, then seals them into a [`RecordArena`].
struct ArenaBuilder {
    tokens: Vec<u32>,
    offsets: Vec<u32>,
    rank_bound: u32,
}

impl ArenaBuilder {
    fn with_capacity(total_tokens: usize, rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        ArenaBuilder {
            tokens: Vec::with_capacity(total_tokens),
            offsets,
            rank_bound: 0,
        }
    }

    /// Seals the tokens appended since the last record boundary as one
    /// record, updating the rank bound.
    fn close_record(&mut self) {
        let start = *self.offsets.last().expect("offsets never empty") as usize;
        // Records are sorted, so the last token is the largest.
        if let Some(&max) = self.tokens.last() {
            if self.tokens.len() > start {
                self.rank_bound = self.rank_bound.max(max + 1);
            }
        }
        self.offsets.push(self.tokens.len() as u32);
    }

    fn finish(self) -> RecordArena {
        RecordArena::from_owned(self.tokens, self.offsets, self.rank_bound)
    }
}

impl RecordArena {
    /// An empty arena.
    pub fn new() -> Self {
        RecordArena::from_owned(Vec::new(), vec![0], 0)
    }

    /// Seals owned buffers into an arena, caching the data pointers.
    /// Invariants (offsets shape, sortedness) are the caller's problem —
    /// this is the crate's trusted constructor (the tokenizer's chunked
    /// build seals its columns through it).
    pub(crate) fn from_owned(tokens: Vec<u32>, offsets: Vec<u32>, rank_bound: u32) -> RecordArena {
        debug_assert!(!offsets.is_empty());
        let mut arena = RecordArena {
            tokens: std::ptr::null(),
            n_tokens: 0,
            starts: std::ptr::null(),
            ends: std::ptr::null(),
            n_records: 0,
            live_tokens: tokens.len(),
            rank_bound,
            backing: Backing::Owned { tokens, offsets },
        };
        arena.refresh_ptrs();
        arena
    }

    /// Re-derives the cached data pointers from the backing. Must be
    /// called after every mutation that may move a backing buffer.
    fn refresh_ptrs(&mut self) {
        match &self.backing {
            Backing::Owned { tokens, offsets } => {
                self.tokens = tokens.as_ptr();
                self.n_tokens = tokens.len();
                self.starts = offsets.as_ptr();
                // SAFETY: `offsets` is non-empty, so one element in is in
                // bounds or one-past-the-end; with `n_records =
                // offsets.len() - 1` reads stay inside the Vec.
                self.ends = unsafe { offsets.as_ptr().add(1) };
                self.n_records = offsets.len() - 1;
            }
            // Mapped pointers target the stable mapping, not the Arc
            // itself; they never move.
            Backing::Mapped(_) => {}
            Backing::Split {
                tokens,
                starts,
                ends,
            } => {
                self.tokens = tokens.as_ptr();
                self.n_tokens = tokens.len();
                self.starts = starts.as_ptr();
                self.ends = ends.as_ptr();
                self.n_records = starts.len();
            }
        }
    }

    /// Builds the arena for one config directly from a tokenized table:
    /// record `t` is the sorted merge of `attr_indexes`' rank vectors of
    /// tuple `t` (identical to [`TokenizedTable::merged`], without the
    /// per-record allocation).
    pub fn from_tokenized(tok: &TokenizedTable, attr_indexes: &[usize]) -> Self {
        let _span = mc_obs::span!("mc.strsim.arena.build");
        let rows = tok.rows();
        let total: usize = (0..rows as TupleId)
            .map(|t| tok.merged_len(attr_indexes, t))
            .sum();
        let mut b = ArenaBuilder::with_capacity(total, rows);
        for t in 0..rows as TupleId {
            let start = b.tokens.len();
            for &i in attr_indexes {
                b.tokens.extend_from_slice(tok.ranks(i, t));
            }
            b.tokens[start..].sort_unstable();
            b.close_record();
        }
        mc_obs::counter!("mc.strsim.arena.builds").inc();
        mc_obs::counter!("mc.strsim.arena.tokens").add(b.tokens.len() as u64);
        b.finish()
    }

    /// Builds an arena from materialized records (tests, ad-hoc callers).
    /// Each record must already be sorted ascending.
    pub fn from_records<R: AsRef<[u32]>>(records: &[R]) -> Self {
        let total: usize = records.iter().map(|r| r.as_ref().len()).sum();
        let mut b = ArenaBuilder::with_capacity(total, records.len());
        for r in records {
            let r = r.as_ref();
            debug_assert!(r.windows(2).all(|w| w[0] <= w[1]), "records must be sorted");
            b.tokens.extend_from_slice(r);
            b.close_record();
        }
        b.finish()
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// True if the arena holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `i` as a sorted rank slice.
    #[inline]
    pub fn record(&self, i: TupleId) -> &[u32] {
        let i = i as usize;
        assert!(i < self.n_records, "record {i} out of bounds");
        // SAFETY: `i < n_records` puts both bound reads in range; the
        // backing guarantees `starts[i] <= ends[i] <= n_tokens` (CSR
        // validation or the patch methods' bookkeeping), so the slice is
        // inside the live token buffer.
        unsafe {
            let lo = *self.starts.add(i) as usize;
            let hi = *self.ends.add(i) as usize;
            debug_assert!(lo <= hi && hi <= self.n_tokens);
            std::slice::from_raw_parts(self.tokens.add(lo), hi - lo)
        }
    }

    /// Iterates over all records in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.n_records).map(move |i| self.record(i as TupleId))
    }

    /// Exclusive upper bound on the token ranks held (`max rank + 1`;
    /// 0 when every record is empty). Sizes dense postings arrays. For
    /// patched arenas this is an upper bound — patches only ever grow
    /// it; [`RecordArena::compact`] re-tightens it.
    #[inline]
    pub fn rank_bound(&self) -> u32 {
        self.rank_bound
    }

    /// Total token count across all live records (multiset cardinality;
    /// excludes garbage left behind by patches).
    #[inline]
    pub fn total_tokens(&self) -> usize {
        self.live_tokens
    }

    /// True when the buffers are borrowed from a [`StableBytes`] backing
    /// rather than owned (diagnostics; behaviour is identical).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// True when the arena is in compact CSR form (records laid out
    /// back-to-back, no patch garbage) — the only form the store codecs
    /// accept. Patched or masked arenas answer `false` until
    /// [`RecordArena::compact`].
    pub fn is_compact(&self) -> bool {
        !matches!(self.backing, Backing::Split { .. })
    }

    /// The flat token buffer (for serialization; see `mc-store`).
    ///
    /// # Panics
    ///
    /// If the arena is not compact ([`RecordArena::is_compact`]): a
    /// patched buffer contains garbage spans that must not be persisted.
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        assert!(
            self.is_compact(),
            "tokens() requires a compact arena; call compact() first"
        );
        // SAFETY: pointer + length were derived from the live backing at
        // construction; the backing is immutable while shared.
        unsafe { std::slice::from_raw_parts(self.tokens, self.n_tokens) }
    }

    /// The record offsets array, length `len() + 1` (for serialization).
    ///
    /// # Panics
    ///
    /// If the arena is not compact — a Split backing has no single
    /// offsets array.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        assert!(
            self.is_compact(),
            "offsets() requires a compact arena; call compact() first"
        );
        // SAFETY: for compact backings `starts` points at the offsets
        // array of length `n_records + 1`.
        unsafe { std::slice::from_raw_parts(self.starts, self.n_records + 1) }
    }

    /// Converts the arena to the patchable Split backing in place. A
    /// no-op when already patchable; mapped arenas copy their tokens out
    /// of the mapping once. Call before a batch of
    /// [`RecordArena::patch_record`]s to make [`RecordArena::masked_view`]
    /// share the buffer instead of copying it.
    pub fn make_patchable(&mut self) {
        if let Backing::Split { .. } = self.backing {
            return;
        }
        // For both compact backings `starts` currently points at the
        // offsets array (length n_records + 1).
        // SAFETY: see `offsets()`.
        let offsets = unsafe { std::slice::from_raw_parts(self.starts, self.n_records + 1) };
        let starts = offsets[..self.n_records].to_vec();
        let ends = offsets[1..].to_vec();
        let placeholder = Backing::Owned {
            tokens: Vec::new(),
            offsets: vec![0],
        };
        let tokens = match std::mem::replace(&mut self.backing, placeholder) {
            // Reuse the owned buffer without copying.
            Backing::Owned { tokens, .. } => Arc::new(tokens),
            mapped @ Backing::Mapped(_) => {
                // Copy out of the mapping while the Arc (bound as
                // `mapped`) still keeps the pages alive.
                // SAFETY: see `tokens()`.
                let buf =
                    unsafe { std::slice::from_raw_parts(self.tokens, self.n_tokens) }.to_vec();
                drop(mapped);
                Arc::new(buf)
            }
            Backing::Split { .. } => unreachable!("handled above"),
        };
        self.backing = Backing::Split {
            tokens,
            starts,
            ends,
        };
        self.refresh_ptrs();
    }

    /// Replaces record `i`'s tokens: the old span is tombstoned (left as
    /// garbage in the buffer) and the new tokens are appended. The new
    /// record must be sorted ascending. Converts to the patchable
    /// backing on first use.
    pub fn patch_record(&mut self, i: TupleId, new_tokens: &[u32]) {
        debug_assert!(
            new_tokens.windows(2).all(|w| w[0] <= w[1]),
            "records must be sorted"
        );
        self.make_patchable();
        let Backing::Split {
            tokens,
            starts,
            ends,
        } = &mut self.backing
        else {
            unreachable!("make_patchable guarantees Split");
        };
        let i = i as usize;
        assert!(i < starts.len(), "record {i} out of bounds");
        self.live_tokens -= (ends[i] - starts[i]) as usize;
        if new_tokens.is_empty() {
            ends[i] = starts[i];
        } else {
            let buf = Arc::make_mut(tokens);
            let lo = buf.len();
            assert!(
                lo + new_tokens.len() < u32::MAX as usize,
                "token buffer overflow"
            );
            buf.extend_from_slice(new_tokens);
            starts[i] = lo as u32;
            ends[i] = buf.len() as u32;
            self.live_tokens += new_tokens.len();
            self.rank_bound = self
                .rank_bound
                .max(new_tokens.last().expect("non-empty") + 1);
        }
        self.refresh_ptrs();
    }

    /// Empties record `i`, leaving its old tokens as garbage. The id
    /// stays allocated — empty records never enter a join.
    pub fn tombstone(&mut self, i: TupleId) {
        self.patch_record(i, &[]);
    }

    /// Appends a new record (sorted ascending), returning its id.
    pub fn push_record(&mut self, new_tokens: &[u32]) -> TupleId {
        debug_assert!(
            new_tokens.windows(2).all(|w| w[0] <= w[1]),
            "records must be sorted"
        );
        self.make_patchable();
        let Backing::Split {
            tokens,
            starts,
            ends,
        } = &mut self.backing
        else {
            unreachable!("make_patchable guarantees Split");
        };
        assert!(starts.len() < u32::MAX as usize, "arena full");
        let buf = Arc::make_mut(tokens);
        let lo = buf.len();
        assert!(
            lo + new_tokens.len() < u32::MAX as usize,
            "token buffer overflow"
        );
        buf.extend_from_slice(new_tokens);
        starts.push(lo as u32);
        ends.push(buf.len() as u32);
        self.live_tokens += new_tokens.len();
        if let Some(&max) = new_tokens.last() {
            self.rank_bound = self.rank_bound.max(max + 1);
        }
        let id = (starts.len() - 1) as TupleId;
        self.refresh_ptrs();
        id
    }

    /// Fraction of the physical token buffer occupied by garbage
    /// (tombstoned or superseded spans). 0 for compact arenas.
    pub fn garbage_ratio(&self) -> f64 {
        if self.n_tokens == 0 {
            0.0
        } else {
            (self.n_tokens - self.live_tokens) as f64 / self.n_tokens as f64
        }
    }

    /// Rebuilds the compact CSR form in place: records re-laid
    /// back-to-back, garbage dropped, rank bound re-tightened. A no-op
    /// when already compact.
    pub fn compact(&mut self) {
        if self.is_compact() {
            return;
        }
        let mut tokens = Vec::with_capacity(self.live_tokens);
        let mut offsets = Vec::with_capacity(self.n_records + 1);
        offsets.push(0u32);
        let mut bound = 0u32;
        for i in 0..self.n_records {
            let rec = self.record(i as TupleId);
            tokens.extend_from_slice(rec);
            if let Some(&max) = rec.last() {
                bound = bound.max(max + 1);
            }
            offsets.push(tokens.len() as u32);
        }
        self.live_tokens = tokens.len();
        self.rank_bound = bound;
        self.backing = Backing::Owned { tokens, offsets };
        self.refresh_ptrs();
    }

    /// A view of this arena in which records failing `active` are empty
    /// (and therefore invisible to the join engine — empty records post
    /// no events and are never discovered). Ids and live records'
    /// contents are unchanged. When the arena is already patchable the
    /// view shares the token buffer via `Arc`; compact arenas pay one
    /// buffer copy — call [`RecordArena::make_patchable`] first to avoid
    /// it.
    pub fn masked_view(&self, active: impl Fn(TupleId) -> bool) -> RecordArena {
        let mut starts = Vec::with_capacity(self.n_records);
        let mut ends = Vec::with_capacity(self.n_records);
        let mut live = 0usize;
        for i in 0..self.n_records {
            // SAFETY: i < n_records, as in `record()`.
            let (lo, hi) = unsafe { (*self.starts.add(i), *self.ends.add(i)) };
            starts.push(lo);
            if active(i as TupleId) {
                ends.push(hi);
                live += (hi - lo) as usize;
            } else {
                ends.push(lo);
            }
        }
        let tokens = match &self.backing {
            Backing::Split { tokens, .. } => Arc::clone(tokens),
            // SAFETY: see `tokens()` — compact backings expose the full
            // buffer.
            _ => {
                Arc::new(unsafe { std::slice::from_raw_parts(self.tokens, self.n_tokens) }.to_vec())
            }
        };
        let mut view = RecordArena {
            tokens: std::ptr::null(),
            n_tokens: 0,
            starts: std::ptr::null(),
            ends: std::ptr::null(),
            n_records: 0,
            live_tokens: live,
            rank_bound: self.rank_bound,
            backing: Backing::Split {
                tokens,
                starts,
                ends,
            },
        };
        view.refresh_ptrs();
        view
    }

    /// Rebuilds an arena from raw CSR parts, validating the offsets
    /// invariant (starts at 0, non-decreasing, ends at `tokens.len()`)
    /// and recomputing the rank bound. Returns `None` on any violation,
    /// so corrupt store artifacts degrade to cache misses.
    pub fn from_parts(tokens: Vec<u32>, offsets: Vec<u32>) -> Option<RecordArena> {
        let rank_bound = validate_csr(&tokens, &offsets)?;
        Some(RecordArena::from_owned(tokens, offsets, rank_bound))
    }

    /// Zero-copy sibling of [`RecordArena::from_parts`]: borrows the
    /// tokens and offsets arrays directly from `backing`'s bytes (given
    /// as byte ranges into [`StableBytes::bytes`]) instead of copying
    /// them out. Runs the full structural validation — plus alignment
    /// and little-endian checks, since the bytes are reinterpreted in
    /// place — and returns `None` on any violation, so corrupt or
    /// foreign-endian artifacts degrade to cache misses.
    pub fn from_stable_parts(
        backing: Arc<dyn StableBytes>,
        tokens_bytes: std::ops::Range<usize>,
        offsets_bytes: std::ops::Range<usize>,
    ) -> Option<RecordArena> {
        if cfg!(target_endian = "big") {
            return None; // in-place reinterpretation assumes LE files
        }
        let bytes = backing.bytes();
        let tokens = u32_view(bytes, tokens_bytes)?;
        let offsets = u32_view(bytes, offsets_bytes)?;
        let rank_bound = validate_csr(tokens, offsets)?;
        let arena = RecordArena {
            tokens: tokens.as_ptr(),
            n_tokens: tokens.len(),
            starts: offsets.as_ptr(),
            // SAFETY: `offsets` is non-empty (validate_csr checked its
            // first element), so one element in is in bounds or
            // one-past-the-end.
            ends: unsafe { offsets.as_ptr().add(1) },
            n_records: offsets.len() - 1,
            live_tokens: tokens.len(),
            rank_bound,
            backing: Backing::Mapped(backing),
        };
        Some(arena)
    }
}

/// Checks a byte range is in bounds, 4-aligned and a whole number of
/// `u32`s, and reinterprets it. Little-endian targets only (checked by
/// the caller).
fn u32_view(bytes: &[u8], range: std::ops::Range<usize>) -> Option<&[u32]> {
    let view = bytes.get(range)?;
    if !(view.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>())
        || !view.len().is_multiple_of(4)
    {
        return None;
    }
    // SAFETY: in-bounds, aligned, correctly sized; u32 has no invalid
    // bit patterns; the backing is immutable for its lifetime.
    Some(unsafe { std::slice::from_raw_parts(view.as_ptr().cast(), view.len() / 4) })
}

/// Validates CSR invariants shared by owned and mapped arenas; returns
/// the recomputed rank bound.
fn validate_csr(tokens: &[u32], offsets: &[u32]) -> Option<u32> {
    if offsets.first() != Some(&0) {
        return None;
    }
    if *offsets.last().expect("checked non-empty") as usize != tokens.len() {
        return None;
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return None;
    }
    // Every record must be a sorted rank multiset — the join's run
    // counters and postings depend on it.
    if offsets.windows(2).any(|w| {
        tokens[w[0] as usize..w[1] as usize]
            .windows(2)
            .any(|t| t[0] > t[1])
    }) {
        return None;
    }
    Some(tokens.iter().max().map_or(0, |&m| m + 1))
}

impl Default for RecordArena {
    fn default() -> Self {
        RecordArena::new()
    }
}

impl Clone for RecordArena {
    fn clone(&self) -> Self {
        let mut clone = RecordArena {
            tokens: self.tokens,
            n_tokens: self.n_tokens,
            starts: self.starts,
            ends: self.ends,
            n_records: self.n_records,
            live_tokens: self.live_tokens,
            rank_bound: self.rank_bound,
            backing: match &self.backing {
                Backing::Owned { tokens, offsets } => Backing::Owned {
                    tokens: tokens.clone(),
                    offsets: offsets.clone(),
                },
                Backing::Mapped(arc) => Backing::Mapped(Arc::clone(arc)),
                Backing::Split {
                    tokens,
                    starts,
                    ends,
                } => Backing::Split {
                    tokens: Arc::clone(tokens),
                    starts: starts.clone(),
                    ends: ends.clone(),
                },
            },
        };
        // Point at the clone's buffers (no-op for Mapped, whose
        // pointers target the shared stable mapping).
        clone.refresh_ptrs();
        clone
    }
}

impl std::fmt::Debug for RecordArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordArena")
            .field("records", &self.len())
            .field("tokens", &self.total_tokens())
            .field("rank_bound", &self.rank_bound)
            .field("mapped", &self.is_mapped())
            .field("compact", &self.is_compact())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Tokenizer;
    use mc_table::{AttrId, Schema, Table, Tuple};
    use std::sync::Arc;

    #[test]
    fn from_records_roundtrips_slices() {
        let records: Vec<Vec<u32>> = vec![vec![1, 2, 2, 9], vec![], vec![0, 4]];
        let arena = RecordArena::from_records(&records);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.record(0), &[1, 2, 2, 9]);
        assert_eq!(arena.record(1), &[] as &[u32]);
        assert_eq!(arena.record(2), &[0, 4]);
        assert_eq!(arena.rank_bound(), 10);
        assert_eq!(arena.total_tokens(), 6);
        let collected: Vec<&[u32]> = arena.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], &[0, 4]);
    }

    #[test]
    fn empty_arena_has_zero_bound() {
        let arena = RecordArena::from_records::<Vec<u32>>(&[]);
        assert_eq!(arena.len(), 0);
        assert!(arena.is_empty());
        assert_eq!(arena.rank_bound(), 0);
        let only_empty = RecordArena::from_records(&[Vec::<u32>::new()]);
        assert_eq!(only_empty.rank_bound(), 0);
        assert_eq!(only_empty.len(), 1);
    }

    #[test]
    fn from_tokenized_matches_merged_exactly() {
        let schema = Arc::new(Schema::from_names(["name", "city"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::from_present(["dave smith", "atlanta"]));
        a.push(Tuple::from_present(["joe welson", "new york city"]));
        a.push(Tuple::new(vec![None, None]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["david smith", "atlanta"]));
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, _tb, _) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        for idx in [vec![0usize], vec![1], vec![0, 1], vec![1, 0]] {
            let arena = RecordArena::from_tokenized(&ta, &idx);
            assert_eq!(arena.len(), ta.rows());
            for t in 0..ta.rows() as TupleId {
                assert_eq!(
                    arena.record(t),
                    ta.merged(&idx, t).as_slice(),
                    "attrs {idx:?} tuple {t}"
                );
            }
        }
    }

    #[test]
    fn patch_tombstone_push_and_compact() {
        let mut arena = RecordArena::from_records(&[vec![1u32, 5], vec![2, 3, 8], vec![4]]);
        assert!(arena.is_compact());
        arena.patch_record(1, &[0, 9, 20]);
        assert!(!arena.is_compact());
        assert_eq!(arena.record(0), &[1, 5]);
        assert_eq!(arena.record(1), &[0, 9, 20]);
        assert_eq!(arena.record(2), &[4]);
        assert_eq!(arena.rank_bound(), 21);
        assert_eq!(arena.total_tokens(), 6);
        assert!(arena.garbage_ratio() > 0.0, "old span became garbage");

        arena.tombstone(0);
        assert_eq!(arena.record(0), &[] as &[u32]);
        assert_eq!(arena.total_tokens(), 4);

        let id = arena.push_record(&[7, 7]);
        assert_eq!(id, 3);
        assert_eq!(arena.record(3), &[7, 7]);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_tokens(), 6);

        let garbage_before = arena.garbage_ratio();
        assert!(garbage_before > 0.0);
        arena.compact();
        assert!(arena.is_compact());
        assert_eq!(arena.garbage_ratio(), 0.0);
        assert_eq!(arena.record(0), &[] as &[u32]);
        assert_eq!(arena.record(1), &[0, 9, 20]);
        assert_eq!(arena.record(2), &[4]);
        assert_eq!(arena.record(3), &[7, 7]);
        assert_eq!(arena.rank_bound(), 21);
        // Compact form round-trips through the store codec accessors.
        assert_eq!(arena.offsets(), &[0, 0, 3, 4, 6]);
        assert_eq!(arena.tokens(), &[0, 9, 20, 4, 7, 7]);
    }

    #[test]
    fn compact_retightens_rank_bound() {
        let mut arena = RecordArena::from_records(&[vec![1u32], vec![99]]);
        assert_eq!(arena.rank_bound(), 100);
        arena.tombstone(1);
        assert_eq!(arena.rank_bound(), 100, "tombstone keeps the bound");
        arena.compact();
        assert_eq!(arena.rank_bound(), 2, "compaction recomputes it");
    }

    #[test]
    fn masked_view_hides_records_and_shares_buffer() {
        let mut arena = RecordArena::from_records(&[vec![1u32, 5], vec![2, 3], vec![4]]);
        arena.make_patchable();
        let view = arena.masked_view(|i| i == 1);
        assert_eq!(view.len(), 3, "ids are preserved");
        assert_eq!(view.record(0), &[] as &[u32]);
        assert_eq!(view.record(1), &[2, 3]);
        assert_eq!(view.record(2), &[] as &[u32]);
        assert_eq!(view.total_tokens(), 2);
        assert_eq!(view.rank_bound(), arena.rank_bound());
        // The view stays valid after the source is dropped (shared Arc).
        drop(arena);
        assert_eq!(view.record(1), &[2, 3]);
        // Views of compact arenas work too (one-time copy).
        let compact = RecordArena::from_records(&[vec![0u32], vec![6]]);
        let v2 = compact.masked_view(|i| i == 0);
        assert_eq!(v2.record(0), &[0]);
        assert_eq!(v2.record(1), &[] as &[u32]);
    }

    #[test]
    fn patched_clone_is_independent() {
        let mut arena = RecordArena::from_records(&[vec![1u32], vec![2]]);
        arena.patch_record(0, &[8]);
        let clone = arena.clone();
        arena.patch_record(1, &[9]);
        assert_eq!(clone.record(0), &[8]);
        assert_eq!(clone.record(1), &[2], "clone unaffected by later patch");
        assert_eq!(arena.record(1), &[9]);
    }

    #[test]
    #[should_panic(expected = "requires a compact arena")]
    fn offsets_on_patched_arena_panics() {
        let mut arena = RecordArena::from_records(&[vec![1u32]]);
        arena.tombstone(0);
        let _ = arena.offsets();
    }

    /// A stable backing over an 8-aligned heap buffer, as the store's
    /// heap fallback produces.
    struct PinnedWords(Vec<u64>, usize);

    unsafe impl StableBytes for PinnedWords {
        fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), self.1) }
        }
    }

    fn pinned(bytes: &[u8]) -> Arc<dyn StableBytes> {
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast(), bytes.len())
        };
        Arc::new(PinnedWords(buf, bytes.len()))
    }

    fn le_bytes(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn from_stable_parts_borrows_and_matches_owned() {
        let records: Vec<Vec<u32>> = vec![vec![3, 5, 5, 90], vec![], vec![0, 7]];
        let owned = RecordArena::from_records(&records);
        // Lay out [offsets | tokens] in one buffer, offsets first so the
        // token range starts at a non-zero offset.
        let mut raw = le_bytes(owned.offsets());
        let tokens_at = raw.len();
        raw.extend(le_bytes(owned.tokens()));
        let backing = pinned(&raw);
        let mapped = RecordArena::from_stable_parts(
            Arc::clone(&backing),
            tokens_at..raw.len(),
            0..tokens_at,
        )
        .expect("valid layout maps");
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        assert_eq!(mapped.len(), owned.len());
        assert_eq!(mapped.rank_bound(), owned.rank_bound());
        assert_eq!(mapped.total_tokens(), owned.total_tokens());
        for t in 0..owned.len() as TupleId {
            assert_eq!(mapped.record(t), owned.record(t));
        }
        // Clones share the backing and keep working after the original
        // and the local Arc are gone.
        let clone = mapped.clone();
        drop(mapped);
        drop(backing);
        assert_eq!(clone.record(0), &[3, 5, 5, 90]);
        let sent = std::thread::spawn(move || clone.record(2).to_vec())
            .join()
            .expect("cross-thread use");
        assert_eq!(sent, vec![0, 7]);
    }

    #[test]
    fn mapped_arena_becomes_patchable_by_copying() {
        let owned = RecordArena::from_records(&[vec![1u32, 2], vec![3]]);
        let mut raw = le_bytes(owned.offsets());
        let tokens_at = raw.len();
        raw.extend(le_bytes(owned.tokens()));
        let backing = pinned(&raw);
        let mut mapped =
            RecordArena::from_stable_parts(backing, tokens_at..raw.len(), 0..tokens_at)
                .expect("valid layout maps");
        mapped.patch_record(0, &[5, 6, 7]);
        assert!(!mapped.is_mapped(), "patching detaches from the mapping");
        assert_eq!(mapped.record(0), &[5, 6, 7]);
        assert_eq!(mapped.record(1), &[3]);
    }

    #[test]
    fn from_stable_parts_rejects_structural_and_alignment_violations() {
        let tokens = le_bytes(&[1, 2, 3]);
        let good_offsets = le_bytes(&[0, 2, 3]);
        let mut raw = good_offsets.clone();
        raw.extend(&tokens);
        let backing = pinned(&raw);
        let ok = |t: std::ops::Range<usize>, o: std::ops::Range<usize>| {
            RecordArena::from_stable_parts(Arc::clone(&backing), t, o).is_some()
        };
        assert!(ok(12..24, 0..12), "baseline is valid");
        assert!(!ok(12..24, 0..8), "offsets not ending at n_tokens");
        assert!(!ok(12..25, 0..12), "token range out of bounds");
        assert!(!ok(12..23, 0..12), "token bytes not a multiple of 4");
        assert!(!ok(13..21, 0..12), "misaligned token range");
        assert!(!ok(12..24, 0..0), "empty offsets");
        // Unsorted record: tokens [2, 1] with offsets [0, 2].
        let mut bad = le_bytes(&[0, 2]);
        bad.extend(le_bytes(&[2, 1]));
        let bad = pinned(&bad);
        assert!(RecordArena::from_stable_parts(bad, 8..16, 0..8).is_none());
    }
}
