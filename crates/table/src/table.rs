//! Row-major string tables with missing values.

use crate::digest::{Digest, DigestWriter};
use crate::schema::{AttrId, Schema};
use std::sync::{Arc, OnceLock};

/// Index of a tuple within a [`Table`].
///
/// Tables are bounded to `u32::MAX` rows, which keeps pair keys at 64 bits
/// (see [`crate::pair`]); the paper's largest dataset (628K tuples) is far
/// below this bound.
pub type TupleId = u32;

/// A single row: one optional string value per attribute.
///
/// `None` models a missing value (NULL). MatchCatcher's config generator
/// penalizes attributes with many missing values (Definition 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Vec<Option<String>>,
}

impl Tuple {
    /// Creates a tuple from per-attribute values. Length must equal the
    /// schema length of the table it is inserted into.
    pub fn new(values: Vec<Option<String>>) -> Self {
        Tuple { values }
    }

    /// Creates a tuple where every value is present.
    pub fn from_present<S: Into<String>>(values: impl IntoIterator<Item = S>) -> Self {
        Tuple {
            values: values.into_iter().map(|v| Some(v.into())).collect(),
        }
    }

    /// The value of the given attribute, `None` if missing.
    #[inline]
    pub fn value(&self, attr: AttrId) -> Option<&str> {
        self.values[attr.index()].as_deref()
    }

    /// Number of attribute slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the tuple has no attribute slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Replaces the value of an attribute, returning the old value.
    pub fn set(&mut self, attr: AttrId, value: Option<String>) -> Option<String> {
        std::mem::replace(&mut self.values[attr.index()], value)
    }

    /// Iterates over values in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> {
        self.values.iter().map(|v| v.as_deref())
    }
}

/// An in-memory table: a shared schema plus rows.
///
/// The schema is reference-counted so that a pair of tables (and the many
/// data structures the debugger derives from them) can share it cheaply.
/// (Tables themselves are exchanged as CSV — see [`crate::csv`] — rather
/// than serde, to avoid serializing the shared `Arc`.)
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    rows: Vec<Tuple>,
    /// Human-readable table name, used in reports ("A", "B", "walmart", ...).
    pub name: String,
    /// Digest of the source file's raw bytes, recorded at ingestion time
    /// (see [`crate::csv::from_csv_path`]) so content-addressed caches
    /// never need to re-read the file.
    source_digest: Option<Digest>,
    /// Memo of [`Table::content_digest`]; reset by every mutator.
    digest: OnceLock<Digest>,
}

impl Table {
    /// Creates an empty table over `schema`.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            name: name.into(),
            source_digest: None,
            digest: OnceLock::new(),
        }
    }

    /// Creates a table from pre-built rows, validating row widths.
    pub fn from_rows(name: impl Into<String>, schema: Arc<Schema>, rows: Vec<Tuple>) -> Self {
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                schema.len(),
                "row {i} has {} values but schema has {} attributes",
                r.len(),
                schema.len()
            );
        }
        assert!(rows.len() <= u32::MAX as usize, "table too large");
        Table {
            schema,
            rows,
            name: name.into(),
            source_digest: None,
            digest: OnceLock::new(),
        }
    }

    /// Records the digest of the raw bytes this table was loaded from.
    /// Subsequent [`Table::content_digest`] calls return it directly.
    pub fn set_source_digest(&mut self, digest: Digest) {
        self.source_digest = Some(digest);
        self.digest = OnceLock::new();
    }

    /// The recorded source-byte digest, if the table was loaded from a
    /// file through [`crate::csv::from_csv_path`].
    pub fn source_digest(&self) -> Option<Digest> {
        self.source_digest
    }

    /// A stable content digest of this table, for content-addressed
    /// caches.
    ///
    /// If a source digest was recorded at ingestion time it is returned
    /// as-is (no re-hash, no file re-read); otherwise the digest is
    /// computed from the schema's attribute names and every row's values
    /// (missing values are distinguished from empty strings). The two
    /// forms intentionally differ — a file-loaded table and a
    /// structurally identical in-memory table hash to different keys,
    /// which can only cause a cache miss, never a wrong hit.
    ///
    /// The digest is computed once and memoized until the next
    /// mutation ([`Table::push`], [`Table::replace`],
    /// [`Table::set_source_digest`]).
    pub fn content_digest(&self) -> Digest {
        *self.digest.get_or_init(|| match self.source_digest {
            Some(d) => d,
            None => self.hash_rows(),
        })
    }

    /// The content digest computed from the schema and rows.
    fn hash_rows(&self) -> Digest {
        let mut w = DigestWriter::new();
        w.write_u64(self.schema.len() as u64);
        for (_, attr) in self.schema.iter() {
            w.write_str(&attr.name);
        }
        w.write_u64(self.rows.len() as u64);
        for row in &self.rows {
            for v in row.iter() {
                match v {
                    None => {
                        w.write_u8(0);
                    }
                    Some(s) => {
                        w.write_u8(1).write_str(s);
                    }
                }
            }
        }
        w.finish()
    }

    /// The shared schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row, returning its [`TupleId`]. As with
    /// [`Table::replace`], the source digest is cleared.
    pub fn push(&mut self, tuple: Tuple) -> TupleId {
        assert_eq!(tuple.len(), self.schema.len(), "row width mismatch");
        assert!(self.rows.len() < u32::MAX as usize, "table full");
        self.source_digest = None;
        self.digest = OnceLock::new();
        let id = self.rows.len() as TupleId;
        self.rows.push(tuple);
        id
    }

    /// Replaces the row with the given id, returning the old row. The
    /// source digest is cleared: the table's content no longer matches
    /// the ingested file, so [`Table::content_digest`] must re-hash.
    pub fn replace(&mut self, id: TupleId, tuple: Tuple) -> Tuple {
        assert_eq!(tuple.len(), self.schema.len(), "row width mismatch");
        self.source_digest = None;
        self.digest = OnceLock::new();
        std::mem::replace(&mut self.rows[id as usize], tuple)
    }

    /// The row with the given id.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        &self.rows[id as usize]
    }

    /// The value of `attr` in row `id`, `None` if missing.
    #[inline]
    pub fn value(&self, id: TupleId, attr: AttrId) -> Option<&str> {
        self.rows[id as usize].value(attr)
    }

    /// Iterates over `(TupleId, &Tuple)`.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.rows.iter().enumerate().map(|(i, t)| (i as TupleId, t))
    }

    /// All tuple ids.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + use<> {
        0..self.rows.len() as TupleId
    }

    /// A copy of this table restricted to its first `n` rows (used by the
    /// Figure 9 scaling experiments, which sweep table size percentages).
    pub fn head(&self, n: usize) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            rows: self.rows[..n.min(self.rows.len())].to_vec(),
            name: self.name.clone(),
            // A truncated copy no longer has the source file's content.
            source_digest: None,
            digest: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Arc<Schema> {
        Arc::new(Schema::from_names(["name", "city"]))
    }

    #[test]
    fn push_and_read_back() {
        let s = demo_schema();
        let mut t = Table::new("A", Arc::clone(&s));
        let id = t.push(Tuple::from_present(["Dave Smith", "Altanta"]));
        assert_eq!(id, 0);
        assert_eq!(t.value(0, s.expect_id("name")), Some("Dave Smith"));
        assert_eq!(t.value(0, s.expect_id("city")), Some("Altanta"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn missing_values_read_as_none() {
        let s = demo_schema();
        let mut t = Table::new("A", s.clone());
        t.push(Tuple::new(vec![Some("Joe".into()), None]));
        assert_eq!(t.value(0, s.expect_id("city")), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let s = demo_schema();
        let mut t = Table::new("A", s);
        t.push(Tuple::from_present(["only one"]));
    }

    #[test]
    fn head_truncates() {
        let s = demo_schema();
        let mut t = Table::new("A", s);
        for i in 0..10 {
            t.push(Tuple::from_present([format!("p{i}"), "x".to_string()]));
        }
        assert_eq!(t.head(3).len(), 3);
        assert_eq!(t.head(100).len(), 10);
    }

    #[test]
    fn tuple_set_replaces() {
        let s = demo_schema();
        let mut t = Tuple::from_present(["a", "b"]);
        let old = t.set(s.expect_id("city"), None);
        assert_eq!(old, Some("b".to_string()));
        assert_eq!(t.value(s.expect_id("city")), None);
    }

    #[test]
    fn content_digest_tracks_rows_and_missing_values() {
        let s = demo_schema();
        let mut t = Table::new("A", Arc::clone(&s));
        t.push(Tuple::from_present(["Dave", "Atlanta"]));
        let d1 = t.content_digest();
        assert_eq!(d1, t.content_digest(), "digest must be deterministic");
        // Name is irrelevant to content.
        let mut renamed = t.clone();
        renamed.name = "other".into();
        assert_eq!(renamed.content_digest(), d1);
        // Missing vs empty string must differ.
        let mut missing = Table::new("A", Arc::clone(&s));
        missing.push(Tuple::new(vec![Some("Dave".into()), None]));
        let mut empty = Table::new("A", s);
        empty.push(Tuple::new(vec![Some("Dave".into()), Some(String::new())]));
        assert_ne!(missing.content_digest(), empty.content_digest());
        // Extra row changes the digest; head() drops any source digest.
        t.push(Tuple::from_present(["Joe", "NY"]));
        assert_ne!(t.content_digest(), d1);
        t.set_source_digest(crate::digest::digest_bytes(b"file bytes"));
        assert_eq!(
            t.content_digest(),
            crate::digest::digest_bytes(b"file bytes")
        );
        assert_eq!(t.head(1).source_digest(), None);
    }

    #[test]
    fn digest_memo_tracks_every_mutator_and_clone() {
        let s = demo_schema();
        let mut t = Table::new("A", s);
        // The memo must equal a fresh computation after every step.
        let check = |t: &Table| {
            let fresh = t.source_digest().unwrap_or_else(|| t.hash_rows());
            assert_eq!(t.content_digest(), fresh);
            assert_eq!(
                t.clone().content_digest(),
                fresh,
                "clone carries a valid memo"
            );
        };
        check(&t);
        t.push(Tuple::from_present(["Dave", "Atlanta"]));
        check(&t);
        let before = t.content_digest();
        t.replace(0, Tuple::from_present(["Joe", "NY"]));
        check(&t);
        assert_ne!(t.content_digest(), before);
        t.set_source_digest(crate::digest::digest_bytes(b"file bytes"));
        check(&t);
        assert_eq!(
            t.content_digest(),
            crate::digest::digest_bytes(b"file bytes")
        );
        let file = t.clone();
        t.push(Tuple::from_present(["Ana", "SF"]));
        check(&t);
        assert_eq!(t.source_digest(), None, "push clears the source digest");
        assert_ne!(t.content_digest(), file.content_digest());
        check(&file);
        t.replace(1, Tuple::new(vec![None, None]));
        check(&t);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let s = demo_schema();
        let mut t = Table::new("A", s);
        t.push(Tuple::from_present(["x", "y"]));
        t.push(Tuple::from_present(["z", "w"]));
        let ids: Vec<_> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
