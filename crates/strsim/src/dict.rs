//! Token interning and the global token order.
//!
//! Prefix-filtering joins require a total order on tokens; ordering by
//! **ascending document frequency** (rare tokens first) makes prefixes
//! maximally selective \[36\]. The [`TokenDict`] interns tokens to dense ids
//! while counting document frequencies; [`TokenDict::freeze`] then assigns
//! each token a *rank* such that iterating a record's ranks in ascending
//! order visits rare tokens first.
//!
//! [`TokenizedTable`] stores, for each tuple of a table, the per-attribute
//! rank vectors — the representation both the SIM-blocker joins and the
//! debugger's top-k joins operate on.

use crate::tokenize::Tokenizer;
use mc_table::hash::FxHashMap;
use mc_table::{AttrId, Table, TupleId};

/// Interns token strings to dense `u32` ids and counts document frequency.
#[derive(Debug, Default)]
pub struct TokenDict {
    ids: FxHashMap<String, u32>,
    /// Document frequency per token id (number of records containing it).
    df: Vec<u32>,
}

impl TokenDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        TokenDict::default()
    }

    /// Interns `token`, returning its id. Does **not** bump the document
    /// frequency; call [`TokenDict::observe_record`] per record instead.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.df.len() as u32;
        self.ids.insert(token.to_string(), id);
        self.df.push(0);
        id
    }

    /// Interns every token of a record and bumps document frequency once
    /// per distinct token in the record. Returns the record's token ids in
    /// order of appearance (with duplicates).
    pub fn observe_record<'a>(&mut self, tokens: impl Iterator<Item = &'a str>) -> Vec<u32> {
        let mut out: Vec<u32> = tokens.map(|t| self.intern(t)).collect();
        // Bump df once per distinct token.
        let mut seen = out.clone();
        seen.sort_unstable();
        seen.dedup();
        for id in seen {
            self.df[id as usize] += 1;
        }
        out.shrink_to_fit();
        out
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

    /// Remaps a record's token ids to ranks and sorts ascending (rare
    /// tokens first). Multiplicity is preserved.
    pub fn sort_record(&self, ids: &[u32]) -> Vec<u32> {
        let mut ranks: Vec<u32> = ids.iter().map(|&id| self.rank(id)).collect();
        ranks.sort_unstable();
        ranks
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

/// Per-attribute tokenized form of a table: for each tuple and attribute,
/// the sorted rank vector of that attribute's value.
///
/// Built once per `(table pair, tokenizer)`; every downstream join then
/// works on integer slices. The concatenation of several attributes'
/// sorted vectors can be merged in O(n) since each is already sorted.
#[derive(Debug)]
pub struct TokenizedTable {
    /// `cols[attr][tuple]` = sorted rank vector.
    cols: Vec<Vec<Vec<u32>>>,
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
        let mut dict = TokenDict::new();
        // First pass: intern with df counting, storing raw ids.
        let raw_a = raw_tokenize(a, attrs, tokenizer, &mut dict);
        let raw_b = raw_tokenize(b, attrs, tokenizer, &mut dict);
        let order = dict.freeze();
        mc_obs::counter!("mc.strsim.dict.builds").inc();
        mc_obs::gauge!("mc.strsim.dict.distinct_tokens").set(dict.len() as i64);
        mc_obs::histogram!("mc.strsim.dict.tokens_per_build").record(dict.len() as u64);
        (
            TokenizedTable::from_raw(raw_a, &order, a.len()),
            TokenizedTable::from_raw(raw_b, &order, b.len()),
            order,
            dict,
        )
    }

    fn from_raw(raw: Vec<Vec<Vec<u32>>>, order: &TokenOrder, rows: usize) -> TokenizedTable {
        let cols = raw
            .into_iter()
            .map(|col| col.into_iter().map(|ids| order.sort_record(&ids)).collect())
            .collect();
        TokenizedTable { cols, rows }
    }

    /// The sorted rank vector for `(attr_index, tuple)`, where `attr_index`
    /// is the position of the attribute in the `attrs` slice passed to
    /// [`TokenizedTable::build_pair`].
    #[inline]
    pub fn ranks(&self, attr_index: usize, tuple: TupleId) -> &[u32] {
        &self.cols[attr_index][tuple as usize]
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
    /// read back from a store artifact). Each `cols[attr][tuple]` must be
    /// a sorted rank vector; every column must have `rows` entries.
    /// Returns `None` on shape mismatch so corrupt artifacts degrade to
    /// cache misses instead of panics.
    pub fn from_columns(cols: Vec<Vec<Vec<u32>>>, rows: usize) -> Option<TokenizedTable> {
        if cols.iter().any(|col| col.len() != rows) {
            return None;
        }
        Some(TokenizedTable { cols, rows })
    }

    /// Replaces one tuple's rank vectors (one sorted vector per
    /// attribute, in the same attribute order the table was built with).
    /// Used by incremental sessions after a row edit.
    pub fn set_row(&mut self, tuple: TupleId, per_attr: Vec<Vec<u32>>) {
        assert_eq!(per_attr.len(), self.cols.len(), "attr count mismatch");
        debug_assert!(per_attr.iter().all(|v| v.windows(2).all(|w| w[0] <= w[1])));
        for (col, ranks) in self.cols.iter_mut().zip(per_attr) {
            col[tuple as usize] = ranks;
        }
    }

    /// Appends a new tuple's rank vectors, returning its id.
    pub fn push_row(&mut self, per_attr: Vec<Vec<u32>>) -> TupleId {
        assert_eq!(per_attr.len(), self.cols.len(), "attr count mismatch");
        debug_assert!(per_attr.iter().all(|v| v.windows(2).all(|w| w[0] <= w[1])));
        for (col, ranks) in self.cols.iter_mut().zip(per_attr) {
            col.push(ranks);
        }
        let id = self.rows as TupleId;
        self.rows += 1;
        id
    }
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
}

impl IncrementalDict {
    /// Adopts the dictionary and frozen order of a cold build
    /// ([`TokenizedTable::build_pair_retained`]).
    pub fn new(dict: TokenDict, order: &TokenOrder) -> Self {
        assert_eq!(dict.len(), order.len(), "dict and order disagree");
        IncrementalDict {
            dict,
            rank_of: order.rank_table().to_vec(),
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
        let Some(v) = value else {
            return Vec::new();
        };
        let mut ranks: Vec<u32> = tokenizer
            .tokens(v)
            .iter()
            .map(|t| {
                let id = self.dict.intern(t);
                if id as usize == self.rank_of.len() {
                    // First appearance after the freeze: new ids are
                    // dense, so `id == len` exactly when fresh, and the
                    // next free rank equals the table length.
                    self.rank_of.push(id);
                }
                self.rank_of[id as usize]
            })
            .collect();
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

fn raw_tokenize(
    table: &Table,
    attrs: &[AttrId],
    tokenizer: Tokenizer,
    dict: &mut TokenDict,
) -> Vec<Vec<Vec<u32>>> {
    let mut cols: Vec<Vec<Vec<u32>>> = attrs
        .iter()
        .map(|_| Vec::with_capacity(table.len()))
        .collect();
    let mut scratch: Vec<String> = Vec::new();
    for (_, tuple) in table.iter() {
        for (ci, &attr) in attrs.iter().enumerate() {
            scratch.clear();
            if let Some(v) = tuple.value(attr) {
                scratch = tokenizer.tokens(v);
            }
            let ids = dict.observe_record(scratch.iter().map(|s| s.as_str()));
            cols[ci].push(ids);
        }
    }
    cols
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
    fn df_counts_documents_not_occurrences() {
        let mut d = TokenDict::new();
        let r = d.observe_record(["la", "la", "land"].into_iter());
        assert_eq!(r.len(), 3);
        assert_eq!(d.df(r[0]), 1, "duplicate within one record counts once");
        d.observe_record(["la"].into_iter());
        assert_eq!(d.df(r[0]), 2);
    }

    #[test]
    fn rare_tokens_get_low_ranks() {
        let mut d = TokenDict::new();
        let common = d.intern("common");
        let rare = d.intern("rare");
        for _ in 0..5 {
            d.observe_record(["common"].into_iter());
        }
        d.observe_record(["rare"].into_iter());
        let order = d.freeze();
        assert!(order.rank(rare) < order.rank(common));
    }

    #[test]
    fn sort_record_preserves_multiplicity() {
        let mut d = TokenDict::new();
        let ids = d.observe_record(["b", "a", "b"].into_iter());
        let order = d.freeze();
        let sorted = order.sort_record(&ids);
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
        ta.set_row(1, vec![vec![0, 3], vec![]]);
        assert_eq!(ta.ranks(0, 1), &[0, 3]);
        assert!(ta.ranks(1, 1).is_empty());
        let id = ta.push_row(vec![vec![7], vec![1, 2]]);
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
