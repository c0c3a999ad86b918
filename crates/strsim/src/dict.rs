//! Token interning and the global token order.
//!
//! Prefix-filtering joins require a total order on tokens; ordering by
//! **ascending document frequency** (rare tokens first) makes prefixes
//! maximally selective \[36\]. The [`TokenDict`] interns tokens to dense ids
//! while counting document frequencies; [`TokenDict::freeze`] then assigns
//! each token a *rank* such that iterating a record's ranks in ascending
//! order visits rare tokens first.
//!
//! [`TokenizedTable`] stores, for each attribute of a table, one flat
//! [`RecordArena`] column holding every tuple's sorted rank vector — the
//! representation both the SIM-blocker joins and the debugger's top-k
//! joins operate on.
//!
//! [`TokenizedTable::build_pair`] splits both tables into chunks of a
//! fixed number of rows and tokenizes each chunk in one pass on the
//! workers of the CPU budget ([`mc_obs::par`]), against a chunk-local
//! dictionary and straight into flat
//! columns. Merging the chunk dictionaries in row order (A's chunks, then
//! B's) reproduces the ids and document frequencies of one sequential
//! pass exactly, so the ranks do not depend on the worker count.

use crate::arena::RecordArena;
use crate::tokenize::Tokenizer;
use mc_table::hash::{FxHashMap, FxHasher};
use mc_table::{AttrId, Table, TupleId};
use std::hash::Hasher;
use std::ops::Range;

/// Rows per tokenization chunk. A constant, so the split into chunks —
/// and with it the build's allocation count — is the same on every
/// machine; the worker count only decides how the chunks are shared out.
const CHUNK_ROWS: usize = 4096;

/// End of a [`TokenDict`] hash chain.
const NO_TOKEN: u32 = u32::MAX;

/// The dictionary's token hash: FxHash over the bytes and the length,
/// then a murmur3 finalizer so the low bits, which pick the hash-map
/// bucket, depend on every byte.
fn token_hash(token: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(token.as_bytes());
    h.write_usize(token.len());
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Interns token strings to dense `u32` ids and counts document frequency.
///
/// Token texts are stored back to back in one string and found through
/// their hash, so interning allocates only when a buffer grows, never
/// once per token.
#[derive(Debug, Default)]
pub struct TokenDict {
    /// Every token's text, concatenated in id order.
    text: String,
    /// `ends[id]`: where token `id` ends in `text` (it starts where
    /// token `id - 1` ends, or at 0).
    ends: Vec<u32>,
    /// Token hash → the most recently interned id with that hash.
    heads: FxHashMap<u64, u32>,
    /// `chain[id]`: the previous id with the same hash, or [`NO_TOKEN`].
    /// Full 64-bit collisions are rare, so chains are one id long.
    chain: Vec<u32>,
    /// Document frequency per token id (number of records containing it).
    df: Vec<u32>,
}

impl TokenDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        TokenDict::default()
    }

    /// Interns `token`, returning its id (ids are dense, in first-seen
    /// order). Does **not** bump the document frequency.
    pub fn intern(&mut self, token: &str) -> u32 {
        let next = self.df.len() as u32;
        let head = self.heads.entry(token_hash(token)).or_insert(NO_TOKEN);
        let mut id = *head;
        while id != NO_TOKEN {
            if token_text(&self.text, &self.ends, id) == token {
                return id;
            }
            id = self.chain[id as usize];
        }
        self.chain.push(*head);
        *head = next;
        self.text.push_str(token);
        let end = u32::try_from(self.text.len()).expect("token text exceeds 4 GiB");
        self.ends.push(end);
        self.df.push(0);
        next
    }

    /// The text of token `id`.
    pub(crate) fn token(&self, id: u32) -> &str {
        token_text(&self.text, &self.ends, id)
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.df.len()
    }

    /// True if no tokens were interned.
    pub fn is_empty(&self) -> bool {
        self.df.is_empty()
    }

    /// Document frequency of a token id.
    pub fn df(&self, id: u32) -> u32 {
        self.df[id as usize]
    }

    /// Interns every token of `part` in `part`'s id order and adds its
    /// document frequencies; returns the map `part` id → id. Absorbing
    /// the chunk dictionaries of a sequence of records in order yields
    /// the ids and frequencies one pass over the whole sequence would.
    fn absorb(&mut self, part: &TokenDict) -> Vec<u32> {
        (0..part.len() as u32)
            .map(|local| {
                let id = self.intern(part.token(local));
                self.df[id as usize] += part.df(local);
                id
            })
            .collect()
    }

    /// Computes the global order: returns `rank_of[id]` such that ranks
    /// ascend with `(df, id)`. After freezing, records should be remapped
    /// through this table and sorted ascending.
    pub fn freeze(&self) -> TokenOrder {
        let mut by_df: Vec<u32> = (0..self.df.len() as u32).collect();
        by_df.sort_unstable_by_key(|&id| (self.df[id as usize], id));
        let mut rank_of = vec![0u32; self.df.len()];
        for (rank, &id) in by_df.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        TokenOrder { rank_of }
    }
}

/// Token `id`'s text from a [`TokenDict`]'s buffers (a free function so
/// `intern` can read them while holding a hash-map entry).
fn token_text<'a>(text: &'a str, ends: &[u32], id: u32) -> &'a str {
    let id = id as usize;
    let lo = if id == 0 { 0 } else { ends[id - 1] as usize };
    &text[lo..ends[id] as usize]
}

/// The frozen global token order (ascending document frequency).
#[derive(Debug, Clone)]
pub struct TokenOrder {
    rank_of: Vec<u32>,
}

impl TokenOrder {
    /// Maps a token id to its global rank.
    #[inline]
    pub fn rank(&self, id: u32) -> u32 {
        self.rank_of[id as usize]
    }

    /// Number of distinct tokens in the order.
    pub fn len(&self) -> usize {
        self.rank_of.len()
    }

    /// True if the order is empty.
    pub fn is_empty(&self) -> bool {
        self.rank_of.is_empty()
    }

    /// The raw `id → rank` table (for serialization; see `mc-store`).
    pub fn rank_table(&self) -> &[u32] {
        &self.rank_of
    }

    /// Rebuilds an order from a raw `id → rank` table previously
    /// obtained from [`TokenOrder::rank_table`].
    pub fn from_rank_table(rank_of: Vec<u32>) -> Self {
        TokenOrder { rank_of }
    }
}

/// Per-attribute tokenized form of a table: for each attribute, one flat
/// [`RecordArena`] column whose record `t` is tuple `t`'s sorted rank
/// vector for that attribute.
///
/// Built once per `(table pair, tokenizer)`; every downstream join then
/// works on integer slices. The concatenation of several attributes'
/// sorted vectors can be merged in O(n) since each is already sorted.
#[derive(Debug)]
pub struct TokenizedTable {
    /// `cols[attr].record(tuple)` = sorted rank vector.
    cols: Vec<RecordArena>,
    rows: usize,
}

impl TokenizedTable {
    /// Tokenizes a pair of tables over the given attributes with a shared
    /// dictionary, returning `(tokenized_a, tokenized_b, order)`.
    ///
    /// A shared dictionary is essential: ranks must be comparable across
    /// the two tables.
    pub fn build_pair(
        a: &Table,
        b: &Table,
        attrs: &[AttrId],
        tokenizer: Tokenizer,
    ) -> (TokenizedTable, TokenizedTable, TokenOrder) {
        let (ta, tb, order, _) = TokenizedTable::build_pair_retained(a, b, attrs, tokenizer);
        (ta, tb, order)
    }

    /// Like [`TokenizedTable::build_pair`], but also returns the interning
    /// dictionary so an incremental session ([`IncrementalDict`]) can keep
    /// tokenizing edited records consistently with the frozen order.
    pub fn build_pair_retained(
        a: &Table,
        b: &Table,
        attrs: &[AttrId],
        tokenizer: Tokenizer,
    ) -> (TokenizedTable, TokenizedTable, TokenOrder, TokenDict) {
        let _span = mc_obs::span!("mc.strsim.dict.build");
        let built = build_chunked(a, b, attrs, tokenizer, CHUNK_ROWS, 0);
        let dict = &built.3;
        mc_obs::counter!("mc.strsim.dict.builds").inc();
        mc_obs::gauge!("mc.strsim.dict.distinct_tokens").set(dict.len() as i64);
        mc_obs::histogram!("mc.strsim.dict.tokens_per_build").record(dict.len() as u64);
        built
    }

    /// The sorted rank vector for `(attr_index, tuple)`, where `attr_index`
    /// is the position of the attribute in the `attrs` slice passed to
    /// [`TokenizedTable::build_pair`].
    #[inline]
    pub fn ranks(&self, attr_index: usize, tuple: TupleId) -> &[u32] {
        self.cols[attr_index].record(tuple)
    }

    /// Number of tuples.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of tokenized attributes.
    #[inline]
    pub fn attr_count(&self) -> usize {
        self.cols.len()
    }

    /// The per-attribute rank columns, in `attrs` order.
    pub fn columns(&self) -> &[RecordArena] {
        &self.cols
    }

    /// Merges the sorted rank vectors of several attributes of one tuple
    /// into a single sorted multiset (the `str_γ(a)` concatenation of §3.1,
    /// in token space). `attr_indexes` refer to positions in the original
    /// `attrs` slice.
    pub fn merged(&self, attr_indexes: &[usize], tuple: TupleId) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.merged_len(attr_indexes, tuple));
        self.merged_into(attr_indexes, tuple, &mut out);
        out
    }

    /// [`TokenizedTable::merged`] into a caller-owned buffer, which is
    /// cleared first — the allocation-free form for per-row hot loops.
    pub fn merged_into(&self, attr_indexes: &[usize], tuple: TupleId, out: &mut Vec<u32>) {
        out.clear();
        for &i in attr_indexes {
            out.extend_from_slice(self.ranks(i, tuple));
        }
        out.sort_unstable();
    }

    /// Total token count (multiset cardinality) of a tuple over a set of
    /// attributes — `L_γ(a)` in the paper.
    pub fn merged_len(&self, attr_indexes: &[usize], tuple: TupleId) -> usize {
        attr_indexes
            .iter()
            .map(|&i| self.ranks(i, tuple).len())
            .sum()
    }

    /// Rebuilds a tokenized table from per-attribute rank columns (as
    /// read back from a store artifact). Every column must hold `rows`
    /// records. Returns `None` on shape mismatch so corrupt artifacts
    /// degrade to cache misses instead of panics.
    pub fn from_columns(cols: Vec<RecordArena>, rows: usize) -> Option<TokenizedTable> {
        if cols.iter().any(|col| col.len() != rows) {
            return None;
        }
        Some(TokenizedTable { cols, rows })
    }

    /// Replaces one tuple's rank vectors (one sorted vector per
    /// attribute, in the same attribute order the table was built with).
    /// Used by incremental sessions after a row edit; the old vectors
    /// stay behind as garbage until [`TokenizedTable::compact`].
    pub fn set_row(&mut self, tuple: TupleId, per_attr: &[Vec<u32>]) {
        assert_eq!(per_attr.len(), self.cols.len(), "attr count mismatch");
        for (col, ranks) in self.cols.iter_mut().zip(per_attr) {
            col.patch_record(tuple, ranks);
        }
    }

    /// Appends a new tuple's rank vectors, returning its id.
    pub fn push_row(&mut self, per_attr: &[Vec<u32>]) -> TupleId {
        assert_eq!(per_attr.len(), self.cols.len(), "attr count mismatch");
        for (col, ranks) in self.cols.iter_mut().zip(per_attr) {
            col.push_record(ranks);
        }
        let id = self.rows as TupleId;
        self.rows += 1;
        id
    }

    /// Compacts every column whose garbage ratio
    /// ([`RecordArena::garbage_ratio`]) exceeds `max_garbage`, so patched
    /// columns are laid out back to back again.
    pub fn compact(&mut self, max_garbage: f64) {
        for col in &mut self.cols {
            if col.garbage_ratio() > max_garbage {
                col.compact();
            }
        }
    }
}

/// One CSR column under construction: the chunk's cells back to back,
/// with chunk-local offsets starting at 0.
struct ChunkColumn {
    tokens: Vec<u32>,
    offsets: Vec<u32>,
    /// `max rank + 1` over the column, once remapped.
    rank_bound: u32,
}

/// A run of at most [`CHUNK_ROWS`] consecutive rows of one table, tokenized
/// against its own dictionary.
struct Chunk<'t> {
    table: &'t Table,
    rows: Range<usize>,
    /// Chunk-local ids in first-seen order, with per-cell document
    /// frequencies.
    dict: TokenDict,
    /// One column per attribute: chunk-local ids after [`Chunk::scan`],
    /// sorted global ranks after [`Chunk::remap`].
    cols: Vec<ChunkColumn>,
    /// Chunk-local id → global rank, set between the two passes.
    ranks: Vec<u32>,
}

impl<'t> Chunk<'t> {
    fn new(table: &'t Table, rows: Range<usize>) -> Self {
        Chunk {
            table,
            rows,
            dict: TokenDict::new(),
            cols: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// Tokenizes the chunk's cells in row-major order (row, then
    /// attribute, then token — the order of one sequential pass),
    /// interning into the chunk dictionary and counting each token's
    /// document frequency once per cell.
    fn scan(&mut self, attrs: &[AttrId], tokenizer: Tokenizer) {
        let n = self.rows.len();
        self.cols = attrs
            .iter()
            .map(|_| {
                let mut offsets = Vec::with_capacity(n + 1);
                offsets.push(0);
                ChunkColumn {
                    tokens: Vec::new(),
                    offsets,
                    rank_bound: 0,
                }
            })
            .collect();
        let mut buf = String::new();
        // `last_cell[id]`: the last cell (numbered from 1) that counted
        // token `id`, so a token repeated within a cell counts once.
        let mut last_cell: Vec<u32> = Vec::new();
        let mut cell = 0u32;
        let dict = &mut self.dict;
        for row in self.rows.clone() {
            let tuple = self.table.tuple(row as TupleId);
            for (col, &attr) in self.cols.iter_mut().zip(attrs) {
                cell += 1;
                if let Some(v) = tuple.value(attr) {
                    tokenizer.for_each_token(v, &mut buf, |t| {
                        let id = dict.intern(t);
                        if id as usize == last_cell.len() {
                            last_cell.push(0);
                        }
                        if last_cell[id as usize] != cell {
                            last_cell[id as usize] = cell;
                            dict.df[id as usize] += 1;
                        }
                        col.tokens.push(id);
                    });
                }
                let end = u32::try_from(col.tokens.len()).expect("column exceeds u32 tokens");
                col.offsets.push(end);
            }
        }
    }

    /// Maps every local id to its global rank and sorts each cell.
    fn remap(&mut self) {
        for col in &mut self.cols {
            let mut bound = 0;
            for t in &mut col.tokens {
                *t = self.ranks[*t as usize];
                bound = bound.max(*t + 1);
            }
            col.rank_bound = bound;
            for w in col.offsets.windows(2) {
                col.tokens[w[0] as usize..w[1] as usize].sort_unstable();
            }
        }
    }
}

/// The build behind [`TokenizedTable::build_pair_retained`], with the
/// chunk size and the bound on workers (`0` = all cores) as parameters.
fn build_chunked(
    a: &Table,
    b: &Table,
    attrs: &[AttrId],
    tokenizer: Tokenizer,
    chunk_rows: usize,
    workers: usize,
) -> (TokenizedTable, TokenizedTable, TokenOrder, TokenDict) {
    let split = |t| {
        (0..Table::len(t))
            .step_by(chunk_rows)
            .map(move |lo| Chunk::new(t, lo..(lo + chunk_rows).min(t.len())))
    };
    let mut chunks: Vec<Chunk<'_>> = split(a).chain(split(b)).collect();
    mc_obs::par::for_each(&mut chunks, workers, |c| c.scan(attrs, tokenizer));
    // Row order — A's chunks, then B's — gives every token the id and
    // document frequency one sequential pass would.
    let mut dict = TokenDict::new();
    let ids: Vec<Vec<u32>> = chunks.iter().map(|c| dict.absorb(&c.dict)).collect();
    let order = dict.freeze();
    for (chunk, mut ranks) in chunks.iter_mut().zip(ids) {
        for r in &mut ranks {
            *r = order.rank(*r);
        }
        chunk.ranks = ranks;
    }
    mc_obs::par::for_each(&mut chunks, workers, Chunk::remap);
    let (chunks_a, chunks_b) = chunks.split_at(a.len().div_ceil(chunk_rows));
    (
        concat_chunks(chunks_a, attrs.len(), a.len()),
        concat_chunks(chunks_b, attrs.len(), b.len()),
        order,
        dict,
    )
}

/// Lays one table's remapped chunks out as one compact column per
/// attribute.
fn concat_chunks(chunks: &[Chunk<'_>], attr_count: usize, rows: usize) -> TokenizedTable {
    let cols = (0..attr_count)
        .map(|ci| {
            let total = chunks.iter().map(|c| c.cols[ci].tokens.len()).sum();
            // Spans are u32: every bound is at most `total`.
            assert!(total <= u32::MAX as usize, "column exceeds u32 tokens");
            let mut tokens = Vec::with_capacity(total);
            let mut bounds = Vec::with_capacity(rows);
            let mut rank_bound = 0;
            for col in chunks.iter().map(|c| &c.cols[ci]) {
                let base = tokens.len() as u32;
                bounds.extend(col.offsets.windows(2).map(|w| (base + w[0], base + w[1])));
                tokens.extend_from_slice(&col.tokens);
                rank_bound = rank_bound.max(col.rank_bound);
            }
            RecordArena::from_spans(tokens, bounds, rank_bound)
        })
        .collect();
    TokenizedTable { cols, rows }
}

/// Session-owned tokenizer state for incremental re-tokenization.
///
/// A cold [`TokenizedTable::build_pair`] orders tokens by ascending
/// document frequency. An incremental session cannot re-derive that
/// order after an edit — re-sorting by the drifted frequencies would
/// renumber every record — so it **freezes** the original ranks and
/// assigns tokens first seen after the freeze the next ranks in order
/// of first appearance. Frequency drift only degrades how selective the
/// rare-first prefix is (a work heuristic); the joins' *results* are
/// rank-permutation-invariant, because every similarity measure is a
/// function of multiset overlaps and lengths, which relabeling token
/// ranks cannot change.
#[derive(Debug)]
pub struct IncrementalDict {
    dict: TokenDict,
    /// `id → rank`; a permutation of `0..len` extended append-only.
    rank_of: Vec<u32>,
    /// Token scratch for [`Tokenizer::for_each_token`].
    buf: String,
}

impl IncrementalDict {
    /// Adopts the dictionary and frozen order of a cold build
    /// ([`TokenizedTable::build_pair_retained`]).
    pub fn new(dict: TokenDict, order: &TokenOrder) -> Self {
        assert_eq!(dict.len(), order.len(), "dict and order disagree");
        IncrementalDict {
            dict,
            rank_of: order.rank_table().to_vec(),
            buf: String::new(),
        }
    }

    /// Number of distinct tokens known (original + post-freeze).
    pub fn len(&self) -> usize {
        self.rank_of.len()
    }

    /// True if no tokens are known.
    pub fn is_empty(&self) -> bool {
        self.rank_of.is_empty()
    }

    /// The current `id → rank` table (frozen prefix + appended ranks).
    pub fn rank_table(&self) -> &[u32] {
        &self.rank_of
    }

    /// Tokenizes one value into a sorted rank vector, interning tokens
    /// first seen now at the next free ranks. `None` (missing value)
    /// yields an empty vector.
    pub fn ranks_of_value(&mut self, value: Option<&str>, tokenizer: Tokenizer) -> Vec<u32> {
        let mut ranks = Vec::new();
        let Some(v) = value else {
            return ranks;
        };
        let IncrementalDict { dict, rank_of, buf } = self;
        tokenizer.for_each_token(v, buf, |t| {
            let id = dict.intern(t);
            if id as usize == rank_of.len() {
                // First appearance after the freeze: new ids are dense,
                // so `id == len` exactly when fresh, and the next free
                // rank equals the table length.
                rank_of.push(id);
            }
            ranks.push(rank_of[id as usize]);
        });
        ranks.sort_unstable();
        ranks
    }

    /// Re-tokenizes one row of a table over the session's attributes,
    /// returning one sorted rank vector per attribute — the shape
    /// [`TokenizedTable::set_row`] and [`TokenizedTable::push_row`]
    /// take.
    pub fn retokenize_row(
        &mut self,
        table: &Table,
        id: TupleId,
        attrs: &[AttrId],
        tokenizer: Tokenizer,
    ) -> Vec<Vec<u32>> {
        let tuple = table.tuple(id);
        attrs
            .iter()
            .map(|&attr| self.ranks_of_value(tuple.value(attr), tokenizer))
            .collect()
    }
}

/// Interns whole attribute *values* (not tokens) to dense `u32` ids, in
/// first-seen order.
///
/// The batch explain kernel shares one `ValueDict` per attribute across
/// both tables, so id equality ⟺ byte equality and every per-value
/// preparation (tokenization, normalization, numeric parse) runs once
/// per *distinct* value instead of once per row — on Zipfian data the
/// distinct count is a small fraction of the row count.
///
/// Keys borrow from the tables being interned; the dict is a build-time
/// scratch structure, dropped once the columnar ids are materialized.
#[derive(Debug, Default)]
pub struct ValueDict<'a> {
    ids: FxHashMap<&'a str, u32>,
}

impl<'a> ValueDict<'a> {
    /// The column sentinel for a missing (`None`) value.
    pub const MISSING: u32 = u32::MAX;

    /// An empty dictionary.
    pub fn new() -> Self {
        ValueDict::default()
    }

    /// Interns `v`, returning its dense id (assigned in first-seen
    /// order). Returns the existing id on re-interning the same bytes.
    pub fn intern(&mut self, v: &'a str) -> u32 {
        let next = self.ids.len() as u32;
        assert!(next < Self::MISSING, "value dict overflow");
        *self.ids.entry(v).or_insert(next)
    }

    /// Interns an optional value, mapping `None` to [`ValueDict::MISSING`].
    pub fn intern_opt(&mut self, v: Option<&'a str>) -> u32 {
        match v {
            Some(v) => self.intern(v),
            None => Self::MISSING,
        }
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// True when sorted multiset `a` is a *strict* sub-multiset of sorted
/// multiset `b` (every element of `a`, with multiplicity, occurs in `b`,
/// and `a` is strictly smaller). Both slices must be sorted by the same
/// total order; the answer is order-independent, so token *ids* sorted
/// by id work as well as token strings sorted lexicographically.
pub fn is_strict_sorted_subset<T: Ord>(a: &[T], b: &[T]) -> bool {
    if a.len() >= b.len() {
        return false;
    }
    let mut j = 0;
    for x in a {
        while j < b.len() && b[j] < *x {
            j += 1;
        }
        if j >= b.len() || b[j] != *x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_table::{Schema, Tuple};
    use std::sync::Arc;

    fn demo_tables() -> (Table, Table) {
        let schema = Arc::new(Schema::from_names(["name", "city"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::from_present(["dave smith", "atlanta"]));
        a.push(Tuple::from_present(["joe welson", "new york"]));
        let mut b = Table::new("B", schema);
        b.push(Tuple::from_present(["david smith", "atlanta"]));
        (a, b)
    }

    /// Deterministic xorshift stream for the randomized tests.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A random table over a skewed vocabulary (so tokens recur across
    /// chunks and tables), with missing values, repeated tokens within a
    /// cell, mixed case and non-ASCII words.
    fn random_table(name: &str, rows: usize, seed: u64) -> Table {
        const WORDS: &[&str] = &[
            "smith", "Smith", "jones", "atlanta", "new", "york", "ny", "la", "la", "grill", "café",
            "ÄRZTE", "straße", "İzmir", "x1", "42", "b.", "o'neil", "san-jose", "the",
        ];
        let mut next = rng(seed);
        let schema = Arc::new(Schema::from_names(["name", "city", "note"]));
        let mut t = Table::new(name, schema);
        for _ in 0..rows {
            let values = (0..3)
                .map(|_| {
                    if next().is_multiple_of(7) {
                        return None;
                    }
                    let len = (next() % 5) as usize;
                    let words: Vec<&str> = (0..len)
                        .map(|_| {
                            // Squaring skews the picks towards the head.
                            let r = (next() % 1000) as usize;
                            WORDS[r * r * WORDS.len() / 1_000_000]
                        })
                        .collect();
                    Some(words.join(" "))
                })
                .collect();
            t.push(Tuple::new(values));
        }
        t
    }

    /// The sequential build as it was before chunking: a `String`-keyed
    /// dictionary, row-major interning, df counted by cloning, sorting
    /// and deduplicating each cell's ids, and one `Vec` per cell. The
    /// chunked build must reproduce its ids, df, ranks and rank table.
    struct ReferenceBuild {
        /// `cols[side][attr][tuple]` = sorted rank vector.
        cols: [Vec<Vec<Vec<u32>>>; 2],
        rank_table: Vec<u32>,
        /// Token texts in id order.
        tokens: Vec<String>,
        df: Vec<u32>,
    }

    fn reference_build(
        a: &Table,
        b: &Table,
        attrs: &[AttrId],
        tokenizer: Tokenizer,
    ) -> ReferenceBuild {
        let mut ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut tokens: Vec<String> = Vec::new();
        let mut df: Vec<u32> = Vec::new();
        let mut raw = |table: &Table| {
            let mut cols: Vec<Vec<Vec<u32>>> = vec![Vec::new(); attrs.len()];
            for (_, tuple) in table.iter() {
                for (ci, &attr) in attrs.iter().enumerate() {
                    let toks = tuple
                        .value(attr)
                        .map_or_else(Vec::new, |v| tokenizer.tokens(v));
                    let rec: Vec<u32> = toks
                        .into_iter()
                        .map(|t| {
                            *ids.entry(t.clone()).or_insert_with(|| {
                                tokens.push(t);
                                df.push(0);
                                (tokens.len() - 1) as u32
                            })
                        })
                        .collect();
                    let mut seen = rec.clone();
                    seen.sort_unstable();
                    seen.dedup();
                    for id in seen {
                        df[id as usize] += 1;
                    }
                    cols[ci].push(rec);
                }
            }
            cols
        };
        let raw_a = raw(a);
        let raw_b = raw(b);
        let mut by_df: Vec<u32> = (0..df.len() as u32).collect();
        by_df.sort_unstable_by_key(|&id| (df[id as usize], id));
        let mut rank_table = vec![0u32; df.len()];
        for (rank, &id) in by_df.iter().enumerate() {
            rank_table[id as usize] = rank as u32;
        }
        let to_ranks = |raw: Vec<Vec<Vec<u32>>>| -> Vec<Vec<Vec<u32>>> {
            raw.into_iter()
                .map(|col| {
                    col.into_iter()
                        .map(|ids| {
                            let mut r: Vec<u32> =
                                ids.iter().map(|&id| rank_table[id as usize]).collect();
                            r.sort_unstable();
                            r
                        })
                        .collect()
                })
                .collect()
        };
        ReferenceBuild {
            cols: [to_ranks(raw_a), to_ranks(raw_b)],
            rank_table: rank_table.clone(),
            tokens,
            df,
        }
    }

    fn assert_matches_reference(
        built: &(TokenizedTable, TokenizedTable, TokenOrder, TokenDict),
        want: &ReferenceBuild,
        what: &str,
    ) {
        let (ta, tb, order, dict) = built;
        assert_eq!(order.rank_table(), want.rank_table, "{what}: rank table");
        assert_eq!(dict.len(), want.tokens.len(), "{what}: distinct tokens");
        for (id, text) in want.tokens.iter().enumerate() {
            assert_eq!(dict.token(id as u32), text, "{what}: id {id}");
            assert_eq!(dict.df(id as u32), want.df[id], "{what}: df of {text:?}");
        }
        for (side, tok) in [ta, tb].into_iter().enumerate() {
            let cols = &want.cols[side];
            assert_eq!(tok.attr_count(), cols.len(), "{what}");
            for (ci, col) in cols.iter().enumerate() {
                assert_eq!(tok.rows(), col.len(), "{what}");
                assert!(tok.columns()[ci].is_compact(), "{what}");
                for (t, ranks) in col.iter().enumerate() {
                    assert_eq!(
                        tok.ranks(ci, t as TupleId),
                        &ranks[..],
                        "{what}: {side}/{ci}/{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_build_equals_sequential_reference() {
        let a = random_table("A", 61, 11);
        let b = random_table("B", 37, 23);
        let empty = Table::new("E", Arc::clone(a.schema()));
        let attrs = [AttrId(0), AttrId(2), AttrId(1)];
        for tokenizer in [Tokenizer::Word, Tokenizer::QGram(3)] {
            for (ta, tb) in [(&a, &b), (&b, &a), (&a, &empty), (&empty, &b)] {
                let want = reference_build(ta, tb, &attrs, tokenizer);
                for chunk_rows in [1, 2, 7, CHUNK_ROWS] {
                    for workers in 1..=4 {
                        let built = build_chunked(ta, tb, &attrs, tokenizer, chunk_rows, workers);
                        let what = format!("{tokenizer:?}, chunk {chunk_rows}, {workers} workers");
                        assert_matches_reference(&built, &want, &what);
                    }
                }
                let retained = TokenizedTable::build_pair_retained(ta, tb, &attrs, tokenizer);
                assert_matches_reference(&retained, &want, "build_pair_retained");
            }
        }
    }

    #[test]
    fn patched_columns_hold_a_cold_builds_ranks() {
        let attrs = [AttrId(0), AttrId(1), AttrId(2)];
        let b = random_table("B", 9, 5);
        let cold_a = random_table("A", 40, 7);
        let (cold, _, _) = TokenizedTable::build_pair(&cold_a, &b, &attrs, Tokenizer::Word);
        let cold_row = |t: TupleId| -> Vec<Vec<u32>> {
            (0..attrs.len())
                .map(|ci| cold.ranks(ci, t).to_vec())
                .collect()
        };
        for seed in 1..=8u64 {
            // Start from different content over the first 25 rows.
            let start_a = random_table("A0", 25, 100 + seed);
            let (mut tok, _, _) = TokenizedTable::build_pair(&start_a, &b, &attrs, Tokenizer::Word);
            let mut next = rng(seed);
            let junk = |next: &mut dyn FnMut() -> u64| -> Vec<Vec<u32>> {
                (0..attrs.len())
                    .map(|_| {
                        let mut r: Vec<u32> =
                            (0..next() % 6).map(|_| (next() % 50) as u32).collect();
                        r.sort_unstable();
                        r
                    })
                    .collect()
            };
            for _ in 0..200 {
                let t = (next() % tok.rows() as u64) as TupleId;
                if next().is_multiple_of(3) {
                    tok.set_row(t, &junk(&mut next));
                } else {
                    tok.set_row(t, &cold_row(t));
                }
                if tok.rows() < cold.rows() && next().is_multiple_of(4) {
                    tok.push_row(&junk(&mut next));
                }
                if next().is_multiple_of(10) {
                    tok.compact([0.0, 0.2, 0.4, 1.0][(next() % 4) as usize]);
                }
            }
            // Settle every row on the cold build's ranks, then compare
            // both before and after a full compaction.
            while tok.rows() < cold.rows() {
                tok.push_row(&junk(&mut next));
            }
            for t in 0..cold.rows() as TupleId {
                tok.set_row(t, &cold_row(t));
                if next().is_multiple_of(16) {
                    tok.compact(0.4);
                }
            }
            for max_garbage in [1.0, 0.0] {
                tok.compact(max_garbage);
                assert_eq!(tok.rows(), cold.rows());
                for ci in 0..attrs.len() {
                    for t in 0..cold.rows() as TupleId {
                        assert_eq!(tok.ranks(ci, t), cold.ranks(ci, t), "seed {seed}");
                    }
                }
            }
            assert!(tok.columns().iter().all(RecordArena::is_compact));
        }
    }

    #[test]
    fn value_dict_interns_distinct_values_densely() {
        let mut d = ValueDict::new();
        assert!(d.is_empty());
        assert_eq!(d.intern("atlanta"), 0);
        assert_eq!(d.intern("boston"), 1);
        assert_eq!(d.intern("atlanta"), 0);
        assert_eq!(d.intern_opt(None), ValueDict::MISSING);
        assert_eq!(d.intern_opt(Some("boston")), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn strict_sorted_subset_semantics() {
        assert!(is_strict_sorted_subset(&[1u32, 3], &[1, 2, 3]));
        assert!(!is_strict_sorted_subset(&[1u32, 2, 3], &[1, 2, 3])); // equal: not strict
        assert!(!is_strict_sorted_subset(&[1u32, 4], &[1, 2, 3]));
        assert!(!is_strict_sorted_subset::<u32>(&[], &[])); // empty vs empty
        assert!(is_strict_sorted_subset(&[2u32], &[2, 2]));
        // Multiplicity matters: [2, 2] ⊄ [2, 3].
        assert!(!is_strict_sorted_subset(&[2u32, 2], &[2, 3]));
    }

    #[test]
    fn token_dict_interns_densely_and_finds_texts() {
        let mut d = TokenDict::new();
        assert!(d.is_empty());
        assert_eq!(d.intern("la"), 0);
        assert_eq!(d.intern("land"), 1);
        assert_eq!(d.intern("la"), 0);
        assert_eq!(d.intern(""), 2);
        assert_eq!(d.intern("l"), 3);
        assert_eq!(d.len(), 4);
        assert_eq!(
            [d.token(0), d.token(1), d.token(2), d.token(3)],
            ["la", "land", "", "l"]
        );
        assert_eq!(d.df(1), 0, "interning alone counts no documents");
    }

    fn one_column_table(values: &[&str]) -> Table {
        let schema = Arc::new(Schema::from_names(["x"]));
        let mut t = Table::new("T", schema);
        for v in values {
            t.push(Tuple::from_present([*v]));
        }
        t
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let a = one_column_table(&["la la land", "la"]);
        let b = one_column_table(&[]);
        let (ta, _, _, mut d) =
            TokenizedTable::build_pair_retained(&a, &b, &[AttrId(0)], Tokenizer::Word);
        assert_eq!(ta.ranks(0, 0).len(), 3);
        let (la, land) = (d.intern("la"), d.intern("land"));
        assert_eq!(d.df(la), 2, "duplicate within one record counts once");
        assert_eq!(d.df(land), 1);
    }

    #[test]
    fn rare_tokens_get_low_ranks() {
        let a = one_column_table(&["common", "common rare", "common", "common", "common"]);
        let b = one_column_table(&["common"]);
        let (_, _, order, mut d) =
            TokenizedTable::build_pair_retained(&a, &b, &[AttrId(0)], Tokenizer::Word);
        assert!(order.rank(d.intern("rare")) < order.rank(d.intern("common")));
    }

    #[test]
    fn sort_record_preserves_multiplicity() {
        let a = one_column_table(&["b a b"]);
        let b = one_column_table(&[]);
        let (ta, _, _) = TokenizedTable::build_pair(&a, &b, &[AttrId(0)], Tokenizer::Word);
        let sorted = ta.ranks(0, 0);
        assert_eq!(sorted.len(), 3);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tokenized_pair_shares_ranks() {
        let (a, b) = demo_tables();
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, tb, order) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        assert_eq!(ta.rows(), 2);
        assert_eq!(tb.rows(), 1);
        assert_eq!(ta.attr_count(), 2);
        assert!(!order.is_empty());
        // "smith" must map to the same rank in both tables: overlap of
        // a0.name and b0.name is exactly 1 (smith).
        let o = crate::measures::multiset_overlap(ta.ranks(0, 0), tb.ranks(0, 0));
        assert_eq!(o, 1);
        // cities are identical
        let oc = crate::measures::multiset_overlap(ta.ranks(1, 0), tb.ranks(1, 0));
        assert_eq!(oc, 1);
    }

    #[test]
    fn merged_is_sorted_concat() {
        let (a, b) = demo_tables();
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, _tb, _order) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        let m = ta.merged(&[0, 1], 1);
        assert_eq!(m.len(), 4); // joe welson new york
        assert!(m.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ta.merged_len(&[0, 1], 1), 4);
    }

    #[test]
    fn incremental_dict_freezes_old_ranks_and_appends_new() {
        let (a, b) = demo_tables();
        let attrs = [AttrId(0), AttrId(1)];
        let (ta, _tb, order, dict) =
            TokenizedTable::build_pair_retained(&a, &b, &attrs, Tokenizer::Word);
        let old_bound = order.len() as u32;
        let mut incr = IncrementalDict::new(dict, &order);
        // Re-tokenizing an unchanged row reproduces the cold vectors.
        let row0 = incr.retokenize_row(&a, 0, &attrs, Tokenizer::Word);
        assert_eq!(row0[0], ta.ranks(0, 0));
        assert_eq!(row0[1], ta.ranks(1, 0));
        // Unseen tokens get fresh ranks beyond the old bound, in first
        // appearance order, deterministically.
        let novel = incr.ranks_of_value(Some("zz yy zz"), Tokenizer::Word);
        assert_eq!(novel.len(), 3);
        assert!(novel.iter().all(|&r| r >= old_bound));
        assert!(novel.windows(2).all(|w| w[0] <= w[1]));
        let again = incr.ranks_of_value(Some("zz yy zz"), Tokenizer::Word);
        assert_eq!(novel, again, "ranks are stable once assigned");
        assert_eq!(incr.len(), order.len() + 2);
        // Missing values tokenize to empty.
        assert!(incr.ranks_of_value(None, Tokenizer::Word).is_empty());
    }

    #[test]
    fn tokenized_table_set_and_push_row() {
        let (a, b) = demo_tables();
        let attrs = [AttrId(0), AttrId(1)];
        let (mut ta, _tb, _order) = TokenizedTable::build_pair(&a, &b, &attrs, Tokenizer::Word);
        ta.set_row(1, &[vec![0, 3], vec![]]);
        assert_eq!(ta.ranks(0, 1), &[0, 3]);
        assert!(ta.ranks(1, 1).is_empty());
        let id = ta.push_row(&[vec![7], vec![1, 2]]);
        assert_eq!(id, 2);
        assert_eq!(ta.rows(), 3);
        assert_eq!(ta.ranks(1, 2), &[1, 2]);
    }

    #[test]
    fn missing_values_tokenize_to_empty() {
        let schema = Arc::new(Schema::from_names(["x"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        a.push(Tuple::new(vec![None]));
        let b = Table::new("B", schema);
        let (ta, _, _) = TokenizedTable::build_pair(&a, &b, &[AttrId(0)], Tokenizer::Word);
        assert!(ta.ranks(0, 0).is_empty());
    }
}
