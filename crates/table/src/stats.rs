//! Per-attribute statistics.
//!
//! The config generator (paper §3.2) needs, per attribute and per table:
//!
//! * `n(f)` — fraction of tuples with a non-missing value;
//! * `u(f)` — fraction of distinct values among non-missing values;
//! * the average length in word tokens (`AL_f`, used by `FindLongAttr`);
//! * an inferred [`AttrType`] (string / numeric / categorical / boolean)
//!   from a small rule-based classifier;
//! * the set of distinct values (to compare categorical domains between
//!   tables A and B).

use crate::delta::TableDelta;
use crate::hash::{fx_map, fx_set, FxHashMap, FxHashSet};
use crate::schema::{AttrId, AttrType};
use crate::table::{Table, Tuple};
use std::hash::{Hash, Hasher};

/// Fraction of parseable values above which an undeclared attribute is
/// classified as numeric.
const NUMERIC_FRACTION: f64 = 0.9;

/// An attribute is categorical when it has at most this many distinct
/// values, or when its unique ratio is below [`CATEGORICAL_UNIQUE_RATIO`].
const CATEGORICAL_MAX_DISTINCT: usize = 32;

/// See [`CATEGORICAL_MAX_DISTINCT`].
const CATEGORICAL_UNIQUE_RATIO: f64 = 0.02;

/// Statistics for one attribute of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// The attribute these statistics describe.
    pub attr: AttrId,
    /// Total number of tuples in the table.
    pub rows: usize,
    /// Number of tuples with a non-missing value.
    pub non_missing: usize,
    /// Number of distinct non-missing values.
    pub distinct: usize,
    /// Average number of whitespace-separated word tokens among non-missing
    /// values (`AL_f` in the paper's Theorem 3.5 approximation).
    pub avg_tokens: f64,
    /// Inferred (or declared) attribute type.
    pub attr_type: AttrType,
    /// Distinct lowercased values, retained only for categorical/boolean
    /// attributes (bounded cardinality); empty for text/numeric.
    pub value_set: FxHashSet<String>,
}

impl AttrStats {
    /// `n(f)`: the non-missing ratio (Definition 3.1). Zero for an empty table.
    pub fn non_missing_ratio(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.non_missing as f64 / self.rows as f64
        }
    }

    /// `u(f)`: distinct values over non-missing values (Definition 3.1).
    pub fn unique_ratio(&self) -> f64 {
        if self.non_missing == 0 {
            0.0
        } else {
            self.distinct as f64 / self.non_missing as f64
        }
    }

    /// Per-table e-score component `e_T(f) = 2·n·u/(n+u)` — the harmonic
    /// mean of the non-missing and unique ratios (Definition 3.1).
    pub fn e_component(&self) -> f64 {
        let n = self.non_missing_ratio();
        let u = self.unique_ratio();
        if n + u == 0.0 {
            0.0
        } else {
            2.0 * n * u / (n + u)
        }
    }
}

/// Statistics for every attribute of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    attrs: Vec<AttrStats>,
}

impl TableStats {
    /// Computes statistics over every attribute of `table`, performing a
    /// single pass per attribute (one job per attribute; see
    /// [`TableStats::compute_pair`]).
    pub fn compute(table: &Table) -> Self {
        let jobs: Vec<(&Table, AttrId)> = table.schema().attr_ids().map(|f| (table, f)).collect();
        TableStats {
            attrs: scan_jobs(&jobs),
        }
    }

    /// [`TableStats::compute`] for both tables of a matching task at
    /// once: one job per (table, attribute), split across scoped workers
    /// sized by the available parallelism. Each job is an
    /// allocation-free pass over one column, so the result does not
    /// depend on the worker count.
    pub fn compute_pair(a: &Table, b: &Table) -> (TableStats, TableStats) {
        let jobs: Vec<(&Table, AttrId)> = [a, b]
            .into_iter()
            .flat_map(|t| t.schema().attr_ids().map(move |f| (t, f)))
            .collect();
        let mut attrs = scan_jobs(&jobs);
        let attrs_b = attrs.split_off(a.schema().len());
        (TableStats { attrs }, TableStats { attrs: attrs_b })
    }

    /// Statistics for a single attribute.
    #[inline]
    pub fn attr(&self, id: AttrId) -> &AttrStats {
        &self.attrs[id.index()]
    }

    /// Iterates over all per-attribute statistics.
    pub fn iter(&self) -> impl Iterator<Item = &AttrStats> {
        self.attrs.iter()
    }

    /// Jaccard similarity of the distinct-value sets of the same attribute
    /// in two tables; used to drop categorical attributes whose domains
    /// differ between A and B (§3.2, the "Gender: {Male,Female} vs {M,F,U}"
    /// example).
    pub fn value_set_jaccard(&self, other: &TableStats, attr: AttrId) -> f64 {
        let a = &self.attr(attr).value_set;
        let b = &other.attr(attr).value_set;
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.iter().filter(|v| b.contains(*v)).count();
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }
}

/// Incrementally maintained counters behind one attribute's
/// [`AttrStats`]: everything [`TableStats::compute`]'s scan accumulates,
/// plus the full value *multiset* (not just the distinct set) so removals
/// can decide when a value's last occurrence disappears.
#[derive(Debug, Clone)]
struct IncrAttrStats {
    attr: AttrId,
    non_missing: usize,
    token_total: usize,
    numeric_hits: usize,
    boolean_hits: usize,
    /// Lowercased non-missing values with occurrence counts.
    counts: FxHashMap<String, u32>,
}

impl IncrAttrStats {
    /// Accounts one non-missing occurrence of `v` (already trimmed);
    /// `buf` is scratch for the cell helpers.
    fn add_value(&mut self, v: &str, buf: &mut String) {
        self.non_missing += 1;
        self.token_total += word_count(v);
        self.numeric_hits += usize::from(parse_numeric(v, buf));
        self.boolean_hits += usize::from(parse_boolean(v));
        let key = ascii_lowercase_in(v, buf);
        match self.counts.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                self.counts.insert(key.to_owned(), 1);
            }
        }
    }

    /// Reverses [`IncrAttrStats::add_value`] for one occurrence of `v`.
    fn remove_value(&mut self, v: &str, buf: &mut String) {
        self.non_missing -= 1;
        self.token_total -= word_count(v);
        self.numeric_hits -= usize::from(parse_numeric(v, buf));
        self.boolean_hits -= usize::from(parse_boolean(v));
        let key = ascii_lowercase_in(v, buf);
        let n = self
            .counts
            .get_mut(key)
            .expect("removed value must have been added");
        if *n == 1 {
            self.counts.remove(key);
        } else {
            *n -= 1;
        }
    }
}

/// [`TableStats`] maintained under [`TableDelta`] edits.
///
/// [`IncrTableStats::compute`] performs the same single pass as
/// [`TableStats::compute`]; [`IncrTableStats::apply_delta`] then keeps
/// the counters in step with a table patch in time proportional to the
/// delta, and [`IncrTableStats::snapshot`] converts them back into a
/// `TableStats` **equal** to recomputing from scratch on the patched
/// table: every counter is integer arithmetic, the derived ratios divide
/// the same integers, and the distinct-value set is the multiset's key
/// set. The incremental debugger relies on this equality to reproduce a
/// cold run's promising-attribute selection without rescanning two large
/// tables on every rerun.
#[derive(Debug, Clone)]
pub struct IncrTableStats {
    rows: usize,
    attrs: Vec<IncrAttrStats>,
}

impl IncrTableStats {
    /// Builds the counters with one pass over `table`.
    pub fn compute(table: &Table) -> Self {
        let schema = table.schema();
        let attrs: Vec<IncrAttrStats> = schema
            .attr_ids()
            .map(|attr| IncrAttrStats {
                attr,
                non_missing: 0,
                token_total: 0,
                numeric_hits: 0,
                boolean_hits: 0,
                counts: fx_map(),
            })
            .collect();
        let mut incr = IncrTableStats {
            rows: table.len(),
            attrs,
        };
        let mut buf = String::new();
        for (_, tuple) in table.iter() {
            incr.add_row(tuple, &mut buf);
        }
        incr
    }

    /// Folds a delta into the counters. Must be called with the
    /// **pre-patch** table (the old values of updated and deleted rows
    /// are read from it) and a delta that [`TableDelta::validate`]s
    /// against it.
    pub fn apply_delta(&mut self, table: &Table, delta: &TableDelta) {
        let mut buf = String::new();
        for edit in &delta.updates {
            self.remove_row(table.tuple(edit.id), &mut buf);
            self.add_row(&edit.tuple, &mut buf);
        }
        for &id in &delta.deletes {
            // Deletes tombstone the row to all-`None`: the slot (and the
            // row count) stays, its values go.
            self.remove_row(table.tuple(id), &mut buf);
        }
        for t in &delta.inserts {
            self.add_row(t, &mut buf);
            self.rows += 1;
        }
    }

    fn add_row(&mut self, tuple: &Tuple, buf: &mut String) {
        for st in &mut self.attrs {
            if let Some(v) = trimmed(tuple, st.attr) {
                st.add_value(v, buf);
            }
        }
    }

    fn remove_row(&mut self, tuple: &Tuple, buf: &mut String) {
        for st in &mut self.attrs {
            if let Some(v) = trimmed(tuple, st.attr) {
                st.remove_value(v, buf);
            }
        }
    }

    /// Estimated heap bytes the counters own: every distinct-value key's
    /// capacity plus a flat per-entry map overhead (the key's `String`
    /// header, its count, the control byte and load-factor slack). An
    /// estimate for eviction budgeting, not an allocator-exact count.
    pub fn resident_bytes(&self) -> usize {
        const PER_ENTRY: usize = 40;
        self.attrs
            .iter()
            .map(|st| {
                st.counts.len() * PER_ENTRY + st.counts.keys().map(String::capacity).sum::<usize>()
            })
            .sum()
    }

    /// Converts the counters into the [`TableStats`] a fresh
    /// [`TableStats::compute`] over the same rows would produce.
    pub fn snapshot(&self, table: &Table) -> TableStats {
        let schema = table.schema();
        let attrs = self
            .attrs
            .iter()
            .map(|st| {
                let distinct = st.counts.len();
                let attr_type = schema.attr(st.attr).declared.unwrap_or_else(|| {
                    infer_type(st.non_missing, distinct, st.numeric_hits, st.boolean_hits)
                });
                let keep_values = matches!(attr_type, AttrType::Categorical | AttrType::Boolean);
                AttrStats {
                    attr: st.attr,
                    rows: self.rows,
                    non_missing: st.non_missing,
                    distinct,
                    avg_tokens: if st.non_missing == 0 {
                        0.0
                    } else {
                        st.token_total as f64 / st.non_missing as f64
                    },
                    attr_type,
                    value_set: if keep_values {
                        st.counts.keys().cloned().collect()
                    } else {
                        fx_set()
                    },
                }
            })
            .collect();
        TableStats { attrs }
    }
}

/// The trimmed non-missing value of `attr`, or `None` when the cell is
/// missing or whitespace — the same missing test the full scan applies.
fn trimmed(tuple: &Tuple, attr: AttrId) -> Option<&str> {
    let v = tuple.value(attr)?.trim();
    if v.is_empty() {
        None
    } else {
        Some(v)
    }
}

/// One column's statistics: the single pass behind
/// [`TableStats::compute`]. Distinct values are counted through
/// [`AsciiCaseless`] keys that borrow the cells, so the pass allocates
/// only when the distinct set grows, plus the retained value set of a
/// categorical or boolean column.
fn scan_attr(table: &Table, attr: AttrId) -> AttrStats {
    let mut non_missing = 0usize;
    let mut token_total = 0usize;
    let mut numeric_hits = 0usize;
    let mut boolean_hits = 0usize;
    let mut values: FxHashSet<AsciiCaseless<'_>> = fx_set();
    let mut buf = String::new();
    for (_, tuple) in table.iter() {
        let Some(v) = trimmed(tuple, attr) else {
            continue;
        };
        non_missing += 1;
        token_total += word_count(v);
        numeric_hits += usize::from(parse_numeric(v, &mut buf));
        boolean_hits += usize::from(parse_boolean(v));
        values.insert(AsciiCaseless(v));
    }
    let distinct = values.len();
    let attr_type = table
        .schema()
        .attr(attr)
        .declared
        .unwrap_or_else(|| infer_type(non_missing, distinct, numeric_hits, boolean_hits));
    let keep_values = matches!(attr_type, AttrType::Categorical | AttrType::Boolean);
    AttrStats {
        attr,
        rows: table.len(),
        non_missing,
        distinct,
        avg_tokens: if non_missing == 0 {
            0.0
        } else {
            token_total as f64 / non_missing as f64
        },
        attr_type,
        value_set: if keep_values {
            values.iter().map(|v| v.0.to_ascii_lowercase()).collect()
        } else {
            fx_set()
        },
    }
}

/// Runs [`scan_attr`] for every `(table, attribute)` job, in job order,
/// one contiguous share of jobs per core, on the workers of the CPU
/// budget ([`mc_obs::par`]).
fn scan_jobs(jobs: &[(&Table, AttrId)]) -> Vec<AttrStats> {
    let shares: Vec<&[(&Table, AttrId)]> =
        jobs.chunks(mc_obs::par::share_len(jobs.len(), 0)).collect();
    mc_obs::par::map(&shares, 0, |share| {
        share
            .iter()
            .map(|&(t, f)| scan_attr(t, f))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// `v.to_ascii_lowercase()`, built in `buf`.
fn ascii_lowercase_in<'b>(v: &str, buf: &'b mut String) -> &'b str {
    buf.clear();
    buf.push_str(v);
    buf.make_ascii_lowercase();
    buf
}

/// A borrowed cell value that hashes and compares ASCII-case-
/// insensitively: two keys are equal iff their `to_ascii_lowercase`
/// strings are, so a set of keys has exactly as many members as the set
/// of lowercased strings, without building one `String` per cell.
struct AsciiCaseless<'a>(&'a str);

impl PartialEq for AsciiCaseless<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for AsciiCaseless<'_> {}

impl Hash for AsciiCaseless<'_> {
    /// Hashes the lowercased bytes eight at a time (the tail zero-padded)
    /// and then the length, so equal keys feed identical words.
    fn hash<H: Hasher>(&self, h: &mut H) {
        let bytes = self.0.as_bytes();
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w: [u8; 8] = c.try_into().expect("chunks_exact yields 8 bytes");
            w.make_ascii_lowercase();
            h.write_u64(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        w.make_ascii_lowercase();
        h.write_u64(u64::from_le_bytes(w));
        h.write_usize(bytes.len());
    }
}

/// `v.split_whitespace().count()`. On ASCII the whitespace chars are
/// exactly `\t`, `\n`, VT, FF, `\r` and space (`char::is_whitespace`,
/// which unlike `u8::is_ascii_whitespace` includes VT), so a byte loop
/// counts the word starts; other values take `split_whitespace` itself.
fn word_count(v: &str) -> usize {
    if !v.is_ascii() {
        return v.split_whitespace().count();
    }
    let mut words = 0usize;
    let mut in_word = false;
    for &b in v.as_bytes() {
        let space = matches!(b, b'\t'..=b'\r' | b' ');
        words += usize::from(!space && !in_word);
        in_word = !space;
    }
    words
}

/// True iff `v`, with every `$` and `,` removed, parses as an `f64`.
/// The stripped copy is built in `buf`, and only when `v` has one of
/// them.
fn parse_numeric(v: &str, buf: &mut String) -> bool {
    if !v.bytes().any(|b| b == b'$' || b == b',') {
        return v.parse::<f64>().is_ok();
    }
    buf.clear();
    buf.extend(v.chars().filter(|c| *c != '$' && *c != ','));
    buf.parse::<f64>().is_ok()
}

/// True iff `v` is a boolean word, ignoring ASCII case.
fn parse_boolean(v: &str) -> bool {
    v.len() <= 5
        && ["true", "false", "t", "f", "yes", "no", "y", "n", "0", "1"]
            .iter()
            .any(|w| v.eq_ignore_ascii_case(w))
}

/// The rule-based attribute-type classifier from §3.2: numeric if nearly
/// all values parse as numbers, boolean if all values come from a boolean
/// vocabulary, categorical if the distinct-value count is small, otherwise
/// free-form text.
fn infer_type(
    non_missing: usize,
    distinct: usize,
    numeric_hits: usize,
    boolean_hits: usize,
) -> AttrType {
    if non_missing == 0 {
        return AttrType::Text;
    }
    let nm = non_missing as f64;
    if boolean_hits == non_missing && distinct <= 4 {
        return AttrType::Boolean;
    }
    if numeric_hits as f64 / nm >= NUMERIC_FRACTION {
        return AttrType::Numeric;
    }
    if distinct <= CATEGORICAL_MAX_DISTINCT || (distinct as f64 / nm) <= CATEGORICAL_UNIQUE_RATIO {
        return AttrType::Categorical;
    }
    AttrType::Text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::{Table, Tuple};
    use std::sync::Arc;

    fn table_of(name: &str, cols: &[&str], rows: &[&[Option<&str>]]) -> Table {
        let schema = Arc::new(Schema::from_names(cols.iter().copied()));
        let mut t = Table::new(name, schema);
        for r in rows {
            t.push(Tuple::new(
                r.iter().map(|v| v.map(|s| s.to_string())).collect(),
            ));
        }
        t
    }

    #[test]
    fn ratios_match_definition_3_1() {
        let t = table_of(
            "A",
            &["name"],
            &[&[Some("dave")], &[Some("dave")], &[Some("joe")], &[None]],
        );
        let s = TableStats::compute(&t);
        let a = s.attr(AttrId(0));
        assert_eq!(a.non_missing, 3);
        assert_eq!(a.distinct, 2);
        assert!((a.non_missing_ratio() - 0.75).abs() < 1e-12);
        assert!((a.unique_ratio() - 2.0 / 3.0).abs() < 1e-12);
        // harmonic mean of 0.75 and 2/3
        let e = a.e_component();
        let expect = 2.0 * 0.75 * (2.0 / 3.0) / (0.75 + 2.0 / 3.0);
        assert!((e - expect).abs() < 1e-12);
    }

    #[test]
    fn numeric_detection() {
        let t = table_of(
            "A",
            &["price"],
            &[&[Some("10.5")], &[Some("$1,300")], &[Some("7")]],
        );
        let s = TableStats::compute(&t);
        assert_eq!(s.attr(AttrId(0)).attr_type, AttrType::Numeric);
    }

    #[test]
    fn boolean_detection() {
        let t = table_of(
            "A",
            &["flag"],
            &[&[Some("yes")], &[Some("no")], &[Some("yes")]],
        );
        let s = TableStats::compute(&t);
        assert_eq!(s.attr(AttrId(0)).attr_type, AttrType::Boolean);
    }

    #[test]
    fn text_detection_for_high_cardinality() {
        let rows: Vec<String> = (0..100).map(|i| format!("title number {i} here")).collect();
        let row_refs: Vec<Vec<Option<&str>>> =
            rows.iter().map(|r| vec![Some(r.as_str())]).collect();
        let slices: Vec<&[Option<&str>]> = row_refs.iter().map(|r| r.as_slice()).collect();
        let t = table_of("A", &["title"], &slices);
        let s = TableStats::compute(&t);
        assert_eq!(s.attr(AttrId(0)).attr_type, AttrType::Text);
        assert!((s.attr(AttrId(0)).avg_tokens - 4.0).abs() < 1e-12);
    }

    #[test]
    fn declared_type_wins_over_inference() {
        let schema = Arc::new(Schema::new(vec![crate::schema::Attribute::typed(
            "zip",
            AttrType::Categorical,
        )]));
        let mut t = Table::new("A", schema);
        for i in 0..50 {
            t.push(Tuple::from_present([format!("{:05}", i)]));
        }
        let s = TableStats::compute(&t);
        assert_eq!(s.attr(AttrId(0)).attr_type, AttrType::Categorical);
    }

    #[test]
    fn value_set_jaccard_detects_domain_mismatch() {
        let a = table_of("A", &["gender"], &[&[Some("male")], &[Some("female")]]);
        let b = table_of(
            "B",
            &["gender"],
            &[&[Some("m")], &[Some("f")], &[Some("u")]],
        );
        let sa = TableStats::compute(&a);
        let sb = TableStats::compute(&b);
        assert_eq!(sa.value_set_jaccard(&sb, AttrId(0)), 0.0);
        let sa2 = TableStats::compute(&a);
        assert_eq!(sa.value_set_jaccard(&sa2, AttrId(0)), 1.0);
    }

    #[test]
    fn incremental_stats_match_full_recompute() {
        use crate::delta::{RowEdit, TableDelta};
        let mut t = table_of(
            "A",
            &["name", "city", "price"],
            &[
                &[Some("dave smith"), Some("atlanta"), Some("10")],
                &[Some("joe"), Some("ny"), Some("12.5")],
                &[Some("sue b"), Some("atlanta"), None],
                &[None, Some("sf"), Some("99")],
            ],
        );
        let mut incr = IncrTableStats::compute(&t);
        assert_eq!(incr.snapshot(&t), TableStats::compute(&t));

        // One round of each edit kind, including a value that vanishes
        // from the distinct set and a type-changing column.
        let delta = TableDelta {
            inserts: vec![
                Tuple::from_present(["ann lee", "boston", "not a number"]),
                Tuple::new(vec![None, None, None]),
            ],
            deletes: vec![2],
            updates: vec![RowEdit {
                id: 0,
                tuple: Tuple::new(vec![Some("dave".into()), Some("ATLANTA ".into()), None]),
            }],
        };
        incr.apply_delta(&t, &delta);
        delta.apply(&mut t).unwrap();
        assert_eq!(incr.snapshot(&t), TableStats::compute(&t));

        // A second round on the patched table (exercises insert ids and
        // repeated adds/removes of the same value).
        let delta2 = TableDelta {
            inserts: vec![Tuple::from_present(["joe", "ny", "12.5"])],
            deletes: vec![0, 4],
            updates: vec![RowEdit {
                id: 1,
                tuple: Tuple::from_present(["joe", "ny", "12.5"]),
            }],
        };
        incr.apply_delta(&t, &delta2);
        delta2.apply(&mut t).unwrap();
        assert_eq!(incr.snapshot(&t), TableStats::compute(&t));
    }

    /// The scan as it was before the allocation-free pass: one owned
    /// lowercased `String` per cell, a stripped copy per numeric probe.
    fn reference_compute(table: &Table) -> TableStats {
        fn parse_numeric(v: &str) -> bool {
            let cleaned: String = v.chars().filter(|c| *c != '$' && *c != ',').collect();
            cleaned.parse::<f64>().is_ok()
        }
        fn parse_boolean(v: &str) -> bool {
            matches!(
                v.to_ascii_lowercase().as_str(),
                "true" | "false" | "t" | "f" | "yes" | "no" | "y" | "n" | "0" | "1"
            )
        }
        let schema = table.schema();
        let mut attrs = Vec::with_capacity(schema.len());
        for (attr, decl) in schema.iter() {
            let mut non_missing = 0usize;
            let mut token_total = 0usize;
            let mut values: FxHashSet<String> = fx_set();
            let mut numeric_hits = 0usize;
            let mut boolean_hits = 0usize;
            for (_, tuple) in table.iter() {
                let Some(v) = tuple.value(attr) else { continue };
                let v = v.trim();
                if v.is_empty() {
                    continue;
                }
                non_missing += 1;
                token_total += v.split_whitespace().count();
                if parse_numeric(v) {
                    numeric_hits += 1;
                }
                if parse_boolean(v) {
                    boolean_hits += 1;
                }
                values.insert(v.to_ascii_lowercase());
            }
            let distinct = values.len();
            let attr_type = decl
                .declared
                .unwrap_or_else(|| infer_type(non_missing, distinct, numeric_hits, boolean_hits));
            let keep_values = matches!(attr_type, AttrType::Categorical | AttrType::Boolean);
            attrs.push(AttrStats {
                attr,
                rows: table.len(),
                non_missing,
                distinct,
                avg_tokens: if non_missing == 0 {
                    0.0
                } else {
                    token_total as f64 / non_missing as f64
                },
                attr_type,
                value_set: if keep_values { values } else { fx_set() },
            });
        }
        TableStats { attrs }
    }

    #[test]
    fn ascii_word_loop_agrees_with_split_whitespace() {
        for b in 0u8..128 {
            let v = format!("a{}b{}", b as char, b as char);
            assert_eq!(
                word_count(&v),
                v.split_whitespace().count(),
                "byte {b:#04x}"
            );
        }
    }

    #[test]
    fn one_pass_scan_equals_the_reference_scan() {
        // Cells chosen to hit every helper's edge: Unicode whitespace
        // (U+00A0, U+3000) and VT inside and around values, currency and
        // grouping marks, float spellings `parse` accepts, boolean words
        // in any case, ASCII case pairs that must merge and non-ASCII ones
        // ('É'/'é') that must not, and whitespace-only cells.
        let cells: Vec<&str> = concat!(
            "dave smith|Dave  Smith|DAVE SMITH|caf\u{e9}|CAF\u{c9}|caf\u{c9}|",
            "a\u{a0}b|a\u{3000}b c|x\u{b}y|\u{b}|\u{a0}| \u{3000} |\t\r\n|",
            "$1,200|1,200.50|$|,|inf|NaN|-infinity|+3e4|12|0|1|",
            "YES|yes|f|F|No|T|maybe|\u{130}stanbul|ISTANBUL|istanbul|",
            "a long text with many words|\u{3a3}\u{391}\u{3a3}|x\u{b}|  padded  "
        )
        .split('|')
        .collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..40 {
            // Narrow pools make categorical/boolean columns (which keep
            // their value sets); wide ones make text columns.
            let pool = 2 + next(cells.len() - 1);
            let rows: Vec<Tuple> = (0..1 + next(80))
                .map(|_| {
                    Tuple::new(
                        (0..3)
                            .map(|c| match next(6) {
                                0 => None,
                                _ if c == 2 => Some(["yes", "NO", "t", "F", "1"][next(5)].into()),
                                _ => Some(cells[next(pool)].to_string()),
                            })
                            .collect(),
                    )
                })
                .collect();
            let mut t = Table::new("T", Arc::new(Schema::from_names(["x", "y", "z"])));
            for r in rows {
                t.push(r);
            }
            let want = reference_compute(&t);
            assert_eq!(TableStats::compute(&t), want, "round {round}");
            let (pa, pb) = TableStats::compute_pair(&t, &t.head(t.len() / 2));
            assert_eq!(pa, want, "round {round}: pair, left");
            assert_eq!(
                pb,
                reference_compute(&t.head(t.len() / 2)),
                "round {round}: pair, right"
            );
            assert_eq!(
                IncrTableStats::compute(&t).snapshot(&t),
                want,
                "round {round}: incr"
            );

            // Deltas drawn from the same cells must keep the snapshot equal.
            let mut incr = IncrTableStats::compute(&t);
            let n_inserts = next(4);
            let mut cell = || (next(5) > 0).then(|| cells[next(cells.len())].to_string());
            let delta = crate::delta::TableDelta {
                inserts: (0..n_inserts)
                    .map(|_| Tuple::new(vec![cell(), cell(), cell()]))
                    .collect(),
                deletes: if t.len() > 1 {
                    vec![t.len() as u32 - 1]
                } else {
                    vec![]
                },
                updates: vec![crate::delta::RowEdit {
                    id: 0,
                    tuple: Tuple::new(vec![cell(), cell(), cell()]),
                }],
            };
            incr.apply_delta(&t, &delta);
            delta.apply(&mut t).unwrap();
            assert_eq!(
                incr.snapshot(&t),
                reference_compute(&t),
                "round {round}: delta"
            );
        }
    }

    #[test]
    fn empty_and_whitespace_values_count_as_missing() {
        let t = table_of("A", &["x"], &[&[Some("  ")], &[Some("")], &[Some("v")]]);
        let s = TableStats::compute(&t);
        assert_eq!(s.attr(AttrId(0)).non_missing, 1);
    }
}
