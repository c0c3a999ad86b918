//! Batched table edits for incremental debugging sessions.
//!
//! A [`TableDelta`] describes one round of edits to a [`Table`] between
//! two debugger runs: rows to insert, rows to delete, and rows whose
//! values change. Applying a delta preserves every existing [`TupleId`]
//! — deletes become all-`None` tombstone rows rather than removals, and
//! inserts append — so pair keys, gold matches and killed sets built
//! against the old table remain valid against the patched one. This is
//! the contract the incremental top-k maintenance in `mc-core` relies
//! on: a pair `(a, b)` means the same two rows before and after the
//! patch.

use crate::table::{Table, Tuple, TupleId};

/// One in-place row replacement.
#[derive(Debug, Clone)]
pub struct RowEdit {
    /// Row to replace.
    pub id: TupleId,
    /// Its new content (full row, same width as the schema).
    pub tuple: Tuple,
}

/// A batch of edits to one table: inserts, deletes and updates.
///
/// Deltas are applied atomically by [`TableDelta::apply`] after
/// [`TableDelta::validate`] checks every id and row width, so a
/// malformed batch leaves the table untouched.
#[derive(Debug, Clone, Default)]
pub struct TableDelta {
    /// Rows appended to the table, in order.
    pub inserts: Vec<Tuple>,
    /// Rows tombstoned to all-`None` (ids stay allocated).
    pub deletes: Vec<TupleId>,
    /// Rows replaced in place.
    pub updates: Vec<RowEdit>,
}

/// Why a delta cannot be applied to a given table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A delete or update references a row the table does not have.
    UnknownRow(TupleId),
    /// The same row is targeted by more than one delete/update.
    DuplicateTarget(TupleId),
    /// An insert or update row's width differs from the schema's.
    WidthMismatch {
        /// Offending row width.
        got: usize,
        /// Schema width.
        want: usize,
    },
    /// Applying the inserts would exceed the `u32` row-count bound.
    TableFull,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownRow(id) => write!(f, "delta references unknown row {id}"),
            DeltaError::DuplicateTarget(id) => write!(f, "delta targets row {id} twice"),
            DeltaError::WidthMismatch { got, want } => {
                write!(f, "delta row has {got} values but schema has {want}")
            }
            DeltaError::TableFull => write!(f, "inserts would overflow the table's row bound"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl TableDelta {
    /// An empty delta.
    pub fn new() -> Self {
        TableDelta::default()
    }

    /// True if the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.updates.is_empty()
    }

    /// Total number of edited rows (inserts + deletes + updates).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len() + self.updates.len()
    }

    /// Ids of pre-existing rows this delta touches (deletes and updates;
    /// inserts get fresh ids only known after [`TableDelta::apply`]).
    pub fn touched_existing(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.deletes
            .iter()
            .copied()
            .chain(self.updates.iter().map(|e| e.id))
    }

    /// Checks the delta against a table without modifying it.
    pub fn validate(&self, table: &Table) -> Result<(), DeltaError> {
        let rows = table.len() as u64;
        let width = table.schema().len();
        let mut targets: Vec<TupleId> = self.touched_existing().collect();
        targets.sort_unstable();
        for w in targets.windows(2) {
            if w[0] == w[1] {
                return Err(DeltaError::DuplicateTarget(w[0]));
            }
        }
        for id in targets {
            if u64::from(id) >= rows {
                return Err(DeltaError::UnknownRow(id));
            }
        }
        for t in self
            .inserts
            .iter()
            .chain(self.updates.iter().map(|e| &e.tuple))
        {
            if t.len() != width {
                return Err(DeltaError::WidthMismatch {
                    got: t.len(),
                    want: width,
                });
            }
        }
        if rows + self.inserts.len() as u64 >= u64::from(u32::MAX) {
            return Err(DeltaError::TableFull);
        }
        Ok(())
    }

    /// Applies the delta, returning the ids of every changed row:
    /// updates and deletes first (in delta order), then the freshly
    /// assigned insert ids. The table's source digest is cleared — its
    /// content no longer matches any ingested file.
    pub fn apply(&self, table: &mut Table) -> Result<Vec<TupleId>, DeltaError> {
        self.validate(table)?;
        let width = table.schema().len();
        let mut changed = Vec::with_capacity(self.len());
        for edit in &self.updates {
            table.replace(edit.id, edit.tuple.clone());
            changed.push(edit.id);
        }
        for &id in &self.deletes {
            table.replace(id, Tuple::new(vec![None; width]));
            changed.push(id);
        }
        for t in &self.inserts {
            changed.push(table.push(t.clone()));
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn demo() -> Table {
        let s = Arc::new(Schema::from_names(["name", "city"]));
        let mut t = Table::new("A", s);
        t.push(Tuple::from_present(["dave", "atlanta"]));
        t.push(Tuple::from_present(["joe", "ny"]));
        t
    }

    #[test]
    fn apply_patches_ids_in_place() {
        let mut t = demo();
        t.set_source_digest(crate::digest::digest_bytes(b"x"));
        let d = TableDelta {
            inserts: vec![Tuple::from_present(["ana", "sf"])],
            deletes: vec![0],
            updates: vec![RowEdit {
                id: 1,
                tuple: Tuple::from_present(["joseph", "ny"]),
            }],
        };
        let changed = d.apply(&mut t).unwrap();
        assert_eq!(changed, vec![1, 0, 2]);
        assert_eq!(t.len(), 3, "delete keeps the id allocated");
        assert!(t.tuple(0).iter().all(|v| v.is_none()), "tombstone row");
        assert_eq!(t.value(1, crate::AttrId(0)), Some("joseph"));
        assert_eq!(t.value(2, crate::AttrId(1)), Some("sf"));
        assert_eq!(t.source_digest(), None, "mutation invalidates the digest");
    }

    #[test]
    fn insert_only_delta_clears_the_source_digest() {
        let mut t = Table::new("A", Arc::new(Schema::from_names(["name", "city"])));
        t.push(Tuple::from_present(["dave", "atlanta"]));
        let file = crate::digest::digest_bytes(b"one-row file");
        t.set_source_digest(file);
        assert_eq!(t.content_digest(), file);
        let d = TableDelta {
            inserts: vec![Tuple::from_present(["ana", "sf"])],
            ..TableDelta::default()
        };
        assert_eq!(d.apply(&mut t).unwrap(), vec![1]);
        assert_eq!(t.source_digest(), None, "an insert invalidates the digest");
        assert_ne!(
            t.content_digest(),
            file,
            "the edited table keys apart from its file"
        );
    }

    #[test]
    fn validate_rejects_bad_batches() {
        let t = demo();
        let unknown = TableDelta {
            deletes: vec![7],
            ..TableDelta::default()
        };
        assert_eq!(unknown.validate(&t), Err(DeltaError::UnknownRow(7)));
        let dup = TableDelta {
            deletes: vec![1],
            updates: vec![RowEdit {
                id: 1,
                tuple: Tuple::from_present(["x", "y"]),
            }],
            ..TableDelta::default()
        };
        assert_eq!(dup.validate(&t), Err(DeltaError::DuplicateTarget(1)));
        let narrow = TableDelta {
            inserts: vec![Tuple::from_present(["just one"])],
            ..TableDelta::default()
        };
        assert!(matches!(
            narrow.validate(&t),
            Err(DeltaError::WidthMismatch { got: 1, want: 2 })
        ));
        // A failing batch must leave the table untouched.
        let mut copy = demo();
        assert!(dup.apply(&mut copy).is_err());
        assert_eq!(copy.value(1, crate::AttrId(0)), Some("joe"));
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut t = demo();
        let before = t.content_digest();
        let changed = TableDelta::new().apply(&mut t).unwrap();
        assert!(changed.is_empty());
        assert_eq!(t.content_digest(), before);
    }
}
