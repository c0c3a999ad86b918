//! Flat record storage for the join hot paths.
//!
//! The top-k SSJ engine touches every record's token slice millions of
//! times per join. Storing records as `Vec<Vec<u32>>` scatters them
//! across the heap (one allocation per record) and makes per-config
//! materialization in the joint executor allocate `|A| + |B|` vectors
//! per config. A [`RecordArena`] instead keeps **one contiguous token
//! buffer plus per-record `(start, end)` bounds** — record `i` is
//! `tokens[start_i .. end_i]`, a plain slice index, the whole table is a
//! handful of allocations, and sequential scans are prefetch-friendly.
//!
//! The arena also tracks the exclusive upper bound of the token ranks it
//! holds ([`RecordArena::rank_bound`]); ranks are dense dictionary
//! indexes, so the bound lets the join engine use `Vec`-indexed postings
//! arrays instead of hash maps.
//!
//! Every arena has the same layout, fresh or patched. The token buffer
//! sits behind an `Arc`, so clones and masked views share it, and the
//! first mutation of a shared buffer copies it (`Arc::make_mut`).
//! Incremental debugging sessions patch arenas in place:
//! [`RecordArena::patch_record`] points a record at new tokens appended
//! to the buffer and leaves the old span behind as garbage,
//! [`RecordArena::tombstone`] empties a record in O(1), and
//! [`RecordArena::masked_view`] derives a view in which inactive records
//! are empty — empty records never enter the join's event heap, so a
//! view restricts a join to a record subset without the join engine
//! knowing. Garbage accumulates until [`RecordArena::compact`] lays the
//! live records out back to back again (see
//! [`RecordArena::garbage_ratio`]). The store codecs walk the records
//! ([`RecordArena::token_runs`]), so they write any arena, patched or
//! not, as the CSR bytes of its compacted copy.

use crate::dict::TokenizedTable;
use mc_table::TupleId;
use std::sync::Arc;

/// Records stored in one shared token buffer.
///
/// Record `i` is `tokens[bounds[i].0 .. bounds[i].1]`, a sorted rank
/// multiset exactly as [`TokenizedTable::merged`] would produce it.
#[derive(Clone, Default)]
pub struct RecordArena {
    /// Every record's tokens, plus garbage left behind by patches.
    tokens: Arc<Vec<u32>>,
    /// Per-record `(start, end)` span in `tokens`.
    bounds: Vec<(u32, u32)>,
    /// Tokens reachable through records (excludes patch garbage).
    live_tokens: usize,
    rank_bound: u32,
}

/// Accumulates a token buffer record by record, then seals it into a
/// [`RecordArena`].
struct ArenaBuilder {
    tokens: Vec<u32>,
    bounds: Vec<(u32, u32)>,
    rank_bound: u32,
}

impl ArenaBuilder {
    fn with_capacity(total_tokens: usize, rows: usize) -> Self {
        ArenaBuilder {
            tokens: Vec::with_capacity(total_tokens),
            bounds: Vec::with_capacity(rows),
            rank_bound: 0,
        }
    }

    /// Seals the tokens appended since the last record as one record,
    /// updating the rank bound.
    fn close_record(&mut self) {
        let start = self.bounds.last().map_or(0, |&(_, end)| end);
        let end = u32::try_from(self.tokens.len()).expect("token buffer overflow");
        // Records are sorted, so the last token is the largest.
        if let Some(&max) = self.tokens[start as usize..].last() {
            self.rank_bound = self.rank_bound.max(max + 1);
        }
        self.bounds.push((start, end));
    }

    fn push(&mut self, record: &[u32]) {
        debug_assert!(
            record.windows(2).all(|w| w[0] <= w[1]),
            "records must be sorted"
        );
        self.tokens.extend_from_slice(record);
        self.close_record();
    }

    fn finish(self) -> RecordArena {
        RecordArena::from_spans(self.tokens, self.bounds, self.rank_bound)
    }
}

impl RecordArena {
    /// An empty arena.
    pub fn new() -> Self {
        RecordArena::default()
    }

    /// Seals a token buffer whose records' spans cover it exactly (no
    /// garbage). Spans and sortedness are the caller's problem — this is
    /// the crate's trusted constructor (the tokenizer's chunked build
    /// seals its columns through it).
    pub(crate) fn from_spans(tokens: Vec<u32>, bounds: Vec<(u32, u32)>, rank_bound: u32) -> Self {
        RecordArena {
            live_tokens: tokens.len(),
            tokens: Arc::new(tokens),
            bounds,
            rank_bound,
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
            b.push(r.as_ref());
        }
        b.finish()
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True if the arena holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Record `i` as a sorted rank slice.
    #[inline]
    pub fn record(&self, i: TupleId) -> &[u32] {
        let (start, end) = self.bounds[i as usize];
        &self.tokens[start as usize..end as usize]
    }

    /// The length of record `i`, without forming its slice.
    #[inline]
    pub fn record_len(&self, i: TupleId) -> usize {
        let (start, end) = self.bounds[i as usize];
        (end - start) as usize
    }

    /// Iterates over all records in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.bounds
            .iter()
            .map(|&(start, end)| &self.tokens[start as usize..end as usize])
    }

    /// Every record's tokens in id order, as few slices as the layout
    /// allows: each slice is a run of consecutive records whose spans
    /// abut in the buffer. A fresh or compacted arena is one slice; the
    /// store codecs write these, so encoding costs one copy either way.
    pub fn token_runs(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut spans = self.bounds.iter().peekable();
        std::iter::from_fn(move || {
            let &(start, mut end) = spans.next()?;
            while let Some(&&(next_start, next_end)) = spans.peek() {
                if next_start != end {
                    break;
                }
                end = next_end;
                spans.next();
            }
            Some(&self.tokens[start as usize..end as usize])
        })
    }

    /// Exclusive upper bound on the token ranks held (`max rank + 1`;
    /// 0 when every record is empty). Sizes dense postings arrays. For
    /// patched arenas and masked views this is an upper bound — patches
    /// only ever grow it; [`RecordArena::compact`] re-tightens it.
    #[inline]
    pub fn rank_bound(&self) -> u32 {
        self.rank_bound
    }

    /// Total token count across all records (multiset cardinality;
    /// excludes garbage left behind by patches).
    #[inline]
    pub fn total_tokens(&self) -> usize {
        self.live_tokens
    }

    /// True when every token in the buffer belongs to a record: a fresh
    /// build, a decoded payload or a compacted arena. An arena whose
    /// patches left garbage, or a view that hides a non-empty record,
    /// answers `false`.
    pub fn is_compact(&self) -> bool {
        self.tokens.len() == self.live_tokens
    }

    /// Appends `new_tokens` (sorted ascending) to the buffer, copying it
    /// first if a clone or view shares it, and returns their span.
    fn append(&mut self, new_tokens: &[u32]) -> (u32, u32) {
        debug_assert!(
            new_tokens.windows(2).all(|w| w[0] <= w[1]),
            "records must be sorted"
        );
        let buf = Arc::make_mut(&mut self.tokens);
        let start = buf.len();
        let end = u32::try_from(start + new_tokens.len()).expect("token buffer overflow");
        buf.extend_from_slice(new_tokens);
        self.live_tokens += new_tokens.len();
        if let Some(&max) = new_tokens.last() {
            self.rank_bound = self.rank_bound.max(max + 1);
        }
        // `start <= end`, which fits.
        (start as u32, end)
    }

    /// Replaces record `i`'s tokens: the old span is left as garbage in
    /// the buffer and the new tokens (sorted ascending) are appended.
    pub fn patch_record(&mut self, i: TupleId, new_tokens: &[u32]) {
        let (start, end) = self.bounds[i as usize];
        self.live_tokens -= (end - start) as usize;
        self.bounds[i as usize] = if new_tokens.is_empty() {
            (start, start)
        } else {
            self.append(new_tokens)
        };
    }

    /// Empties record `i`, leaving its old tokens as garbage. The id
    /// stays allocated — empty records never enter a join.
    pub fn tombstone(&mut self, i: TupleId) {
        self.patch_record(i, &[]);
    }

    /// Appends a new record (sorted ascending), returning its id.
    pub fn push_record(&mut self, new_tokens: &[u32]) -> TupleId {
        let id = TupleId::try_from(self.bounds.len()).expect("arena full");
        let span = self.append(new_tokens);
        self.bounds.push(span);
        id
    }

    /// Fraction of the token buffer occupied by garbage (tombstoned or
    /// superseded spans, and the tokens a view hides). 0 for compact
    /// arenas.
    pub fn garbage_ratio(&self) -> f64 {
        if self.tokens.is_empty() {
            0.0
        } else {
            (self.tokens.len() - self.live_tokens) as f64 / self.tokens.len() as f64
        }
    }

    /// Lays the records out back to back in a fresh buffer: garbage
    /// dropped, rank bound re-tightened.
    pub fn compact(&mut self) {
        let mut b = ArenaBuilder::with_capacity(self.live_tokens, self.len());
        for record in self.iter() {
            b.push(record);
        }
        *self = b.finish();
    }

    /// A view of this arena in which records failing `active` are empty
    /// (and therefore invisible to the join engine — empty records post
    /// no events and are never discovered). Ids, the rank bound and live
    /// records' contents are unchanged, and the view shares the token
    /// buffer.
    pub fn masked_view(&self, active: impl Fn(TupleId) -> bool) -> RecordArena {
        let mut view = self.clone();
        for (i, span) in view.bounds.iter_mut().enumerate() {
            if !active(i as TupleId) {
                view.live_tokens -= (span.1 - span.0) as usize;
                span.1 = span.0;
            }
        }
        view
    }

    /// Rebuilds an arena from CSR parts: record `i` is
    /// `tokens[offsets[i] .. offsets[i + 1]]`. Validates the offsets
    /// (start at 0, non-decreasing, end at `tokens.len()`) and that every
    /// record is sorted, and recomputes the rank bound. Returns `None` on
    /// any violation, or when a token is `u32::MAX` and the bound does
    /// not fit, so corrupt store artifacts degrade to cache misses.
    pub fn from_parts(tokens: Vec<u32>, offsets: &[u32]) -> Option<RecordArena> {
        if offsets.first() != Some(&0) || *offsets.last()? as usize != tokens.len() {
            return None;
        }
        let mut bounds = Vec::with_capacity(offsets.len() - 1);
        let mut rank_bound = 0u32;
        for w in offsets.windows(2) {
            // `None` when the offsets decrease.
            let record = tokens.get(w[0] as usize..w[1] as usize)?;
            // Every record must be a sorted rank multiset — the join's
            // run counters and postings depend on it.
            if record.windows(2).any(|t| t[0] > t[1]) {
                return None;
            }
            if let Some(&max) = record.last() {
                rank_bound = rank_bound.max(max.checked_add(1)?);
            }
            bounds.push((w[0], w[1]));
        }
        Some(RecordArena::from_spans(tokens, bounds, rank_bound))
    }
}

impl std::fmt::Debug for RecordArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordArena")
            .field("records", &self.len())
            .field("tokens", &self.total_tokens())
            .field("rank_bound", &self.rank_bound)
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
        assert_eq!(arena.total_tokens(), 6);
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
        let arena = RecordArena::from_records(&[vec![1u32, 5], vec![2, 3], vec![4]]);
        let view = arena.masked_view(|i| i == 1);
        assert_eq!(view.len(), 3, "ids are preserved");
        assert_eq!(view.record(0), &[] as &[u32]);
        assert_eq!(view.record(1), &[2, 3]);
        assert_eq!(view.record(2), &[] as &[u32]);
        assert_eq!(view.total_tokens(), 2);
        assert_eq!(view.rank_bound(), arena.rank_bound());
        assert!(Arc::ptr_eq(&view.tokens, &arena.tokens));
        // The view stays valid after the source is dropped (shared Arc).
        drop(arena);
        assert_eq!(view.record(1), &[2, 3]);
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
}
