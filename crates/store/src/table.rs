//! In-memory table: rows, primary-key map and secondary indexes.
//!
//! `Table` is the single-threaded core; the [`crate::Store`] wraps each
//! table in a `syd_types::sync::RwLock` and layers triggers, transactions and
//! row locks on top.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use syd_types::{SydError, SydResult, Text, Value};

use crate::key::OrdValue;
use crate::predicate::Predicate;
use crate::schema::Schema;

/// Identity of a row within its table (never reused).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RowId(pub u64);

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row-{}", self.0)
    }
}

/// A row as it stood when it was read: its id plus its cells, shared with
/// the table. Stored rows are immutable (a write replaces the row), so a
/// `Row` is a snapshot that later statements cannot change.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Row identity.
    pub id: RowId,
    /// Cell values in schema column order.
    pub values: Arc<[Value]>,
}

impl Row {
    /// Cell by column name, resolved against `schema`.
    pub fn get<'a>(&'a self, schema: &Schema, column: &str) -> SydResult<&'a Value> {
        Ok(&self.values[schema.column_index(column)?])
    }
}

/// A change applied to one row, reported to triggers and undo logs.
#[derive(Clone, Debug, PartialEq)]
pub enum RowChange {
    /// Row inserted with these values.
    Inserted(RowId, Arc<[Value]>),
    /// Row updated from `old` to `new`.
    Updated(RowId, Arc<[Value]>, Arc<[Value]>),
    /// Row deleted; `old` values retained.
    Deleted(RowId, Arc<[Value]>),
}

pub(crate) struct Table {
    pub(crate) schema: Arc<Schema>,
    rows: BTreeMap<RowId, Arc<[Value]>>,
    next_row: u64,
    pk_map: BTreeMap<Vec<OrdValue>, RowId>,
    indexes: HashMap<String, BTreeMap<OrdValue, BTreeSet<RowId>>>,
}

/// Whether `range` is a `Between` whose low end is above its high end: it
/// holds no key, and `BTreeMap::range` panics on it.
fn inverted<T: Ord + ?Sized>(range: (Bound<&T>, Bound<&T>)) -> bool {
    matches!(range, (Bound::Included(lo), Bound::Included(hi)) if lo > hi)
}

impl Table {
    pub(crate) fn new(schema: Schema) -> Table {
        Table {
            schema: Arc::new(schema),
            rows: BTreeMap::new(),
            next_row: 1,
            pk_map: BTreeMap::new(),
            indexes: HashMap::new(),
        }
    }

    pub(crate) fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn create_index(&mut self, column: &str) -> SydResult<()> {
        let idx = self.schema.column_index(column)?;
        if self.indexes.contains_key(column) {
            return Ok(()); // idempotent
        }
        let mut index: BTreeMap<OrdValue, BTreeSet<RowId>> = BTreeMap::new();
        for (&row_id, values) in &self.rows {
            index
                .entry(OrdValue(values[idx].clone()))
                .or_default()
                .insert(row_id);
        }
        self.indexes.insert(column.to_owned(), index);
        Ok(())
    }

    pub(crate) fn indexed_columns(&self) -> Vec<String> {
        self.indexes.keys().cloned().collect()
    }

    /// Moves `row_id` from the index entries `old` filed it under to the
    /// ones `new` does (`None`: no row on that side). An index whose cell
    /// is equal on both sides is left alone.
    fn reindex(&mut self, row_id: RowId, old: Option<&[Value]>, new: Option<&[Value]>) {
        for (col, index) in &mut self.indexes {
            // Index creation validated the column; a vanished column
            // means a schema bug, and skipping beats corrupting.
            let Some(i) = self.schema.columns.iter().position(|c| &c.name == col) else {
                continue;
            };
            let (old, new) = (old.map(|row| &row[i]), new.map(|row| &row[i]));
            if let (Some(old), Some(new)) = (old, new) {
                if old.cmp_total(new).is_eq() {
                    continue;
                }
            }
            if let Some(cell) = old {
                let key = OrdValue(cell.clone());
                if let Some(set) = index.get_mut(&key) {
                    set.remove(&row_id);
                    if set.is_empty() {
                        index.remove(&key);
                    }
                }
            }
            if let Some(cell) = new {
                index
                    .entry(OrdValue(cell.clone()))
                    .or_default()
                    .insert(row_id);
            }
        }
    }

    /// The primary-key map's key for a row (empty if the table is keyless).
    fn pk_of(&self, values: &[Value]) -> Vec<OrdValue> {
        let pk = &self.schema.primary_key;
        pk.iter().map(|&i| OrdValue(values[i].clone())).collect()
    }

    /// Inserts a validated row, enforcing primary-key uniqueness.
    pub(crate) fn insert(&mut self, values: Arc<[Value]>) -> SydResult<RowId> {
        self.schema.validate_row(&values)?;
        let key = self.pk_of(&values);
        if !key.is_empty() && self.pk_map.contains_key(&key) {
            return Err(SydError::SchemaViolation(format!(
                "duplicate primary key in `{}`",
                self.schema.name
            )));
        }
        let row_id = RowId(self.next_row);
        self.next_row += 1;
        self.reindex(row_id, None, Some(&values));
        if !key.is_empty() {
            self.pk_map.insert(key, row_id);
        }
        self.rows.insert(row_id, values);
        Ok(row_id)
    }

    /// Re-inserts a row under its original id (transaction undo).
    pub(crate) fn restore(&mut self, row_id: RowId, values: Arc<[Value]>) {
        let key = self.pk_of(&values);
        if !key.is_empty() {
            self.pk_map.insert(key, row_id);
        }
        self.reindex(row_id, None, Some(&values));
        self.rows.insert(row_id, values);
        self.next_row = self.next_row.max(row_id.0 + 1);
    }

    pub(crate) fn get(&self, row_id: RowId) -> Option<Row> {
        self.rows.get(&row_id).map(|values| Row {
            id: row_id,
            values: Arc::clone(values),
        })
    }

    pub(crate) fn get_by_key(&self, key: &[Value]) -> Option<Row> {
        let id = match key {
            [cell] => self.pk_map.get(&[OrdValue(cell.clone())][..]),
            _ => self
                .pk_map
                .get(&key.iter().cloned().map(OrdValue).collect::<Vec<_>>()),
        };
        id.and_then(|&id| self.get(id))
    }

    /// Visits every row matching `pred` in place: through the primary-key
    /// map or a secondary index when the predicate bounds a keyed or
    /// indexed column, otherwise by scanning. Key and index ranges visit in
    /// key order, a scan in [`RowId`] order. Nothing is collected: each
    /// bound is one cell on the stack, and the maps are searched through
    /// `&[OrdValue]` / `&OrdValue`.
    ///
    /// A predicate that is one comparison on a single-column primary key
    /// is answered by the key range alone: the map is ordered by the
    /// [`Value::cmp_total`] the comparison uses, and a key cell is never
    /// null. Every other row a range or scan reaches is checked against
    /// `pred`.
    pub(crate) fn visit(
        &self,
        pred: &Predicate,
        mut f: impl FnMut(RowId, &Arc<[Value]>) -> SydResult<()>,
    ) -> SydResult<()> {
        let cell = |v: &Value| [OrdValue(v.clone())];
        let mut visit_row = |row_id: RowId, values: &Arc<[Value]>, check: bool| {
            if !check || pred.eval(&self.schema, values)? {
                f(row_id, values)?;
            }
            Ok(())
        };
        if let [pk_idx] = self.schema.primary_key[..] {
            let pk_name = &self.schema.columns[pk_idx].name;
            if let Some((lo, hi)) = pred.bounds_for(pk_name) {
                let check = matches!(pred, Predicate::And(_));
                let (lo, hi) = (lo.map(cell), hi.map(cell));
                let range = (lo.as_ref().map(|k| &k[..]), hi.as_ref().map(|k| &k[..]));
                if !inverted(range) {
                    for (_, &row_id) in self.pk_map.range::<[OrdValue], _>(range) {
                        visit_row(row_id, &self.rows[&row_id], check)?;
                    }
                }
                return Ok(());
            }
        }
        // An index holds null cells too, so its rows are always checked.
        for (col, index) in &self.indexes {
            if let Some((lo, hi)) = pred.bounds_for(col) {
                let (lo, hi) = (lo.map(cell), hi.map(cell));
                let range = (lo.as_ref().map(|k| &k[0]), hi.as_ref().map(|k| &k[0]));
                if !inverted(range) {
                    for (_, set) in index.range::<OrdValue, _>(range) {
                        for &row_id in set {
                            visit_row(row_id, &self.rows[&row_id], true)?;
                        }
                    }
                }
                return Ok(());
            }
        }
        for (&row_id, values) in &self.rows {
            visit_row(row_id, values, true)?;
        }
        Ok(())
    }

    /// Rows matching `pred`, in [`RowId`] order.
    pub(crate) fn select(&self, pred: &Predicate) -> SydResult<Vec<Row>> {
        let mut out = Vec::new();
        self.visit(pred, |id, values| {
            out.push(Row {
                id,
                values: Arc::clone(values),
            });
            Ok(())
        })?;
        out.sort_unstable_by_key(|row| row.id);
        Ok(out)
    }

    pub(crate) fn count(&self, pred: &Predicate) -> SydResult<usize> {
        let mut n = 0;
        self.visit(pred, |_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    /// Applies `assignments` to every row matching `pred`, in two passes:
    /// build each prospective row once and show it to `before` (the
    /// before-update triggers), then apply. Every error — a rejected value,
    /// a primary-key collision, a veto — comes out of the first pass and so
    /// leaves every row unchanged. Returns the changes for the
    /// after-triggers and the undo log: the old and new rows are the very
    /// allocations `before` saw and the table held and now holds.
    pub(crate) fn update(
        &mut self,
        pred: &Predicate,
        assignments: &[(Text, Value)],
        mut before: impl FnMut(&[Value], &[Value]) -> SydResult<()>,
    ) -> SydResult<Vec<RowChange>> {
        // Resolve and type-check assignments once.
        let mut resolved = Vec::with_capacity(assignments.len());
        for (col, value) in assignments {
            let idx = self.schema.column_index(col)?;
            if !self.schema.columns[idx].admits(value) {
                return Err(SydError::SchemaViolation(format!(
                    "column `{}.{col}` rejects {value}",
                    self.schema.name
                )));
            }
            resolved.push((idx, value));
        }
        let rekeys = resolved
            .iter()
            .any(|(idx, _)| self.schema.primary_key.contains(idx));

        let mut changes = Vec::new();
        let mut claimed = BTreeSet::new();
        self.visit(pred, |row_id, old| {
            // One clone per cell; of two assignments to a column the later
            // wins, as if they were applied in order.
            let new: Arc<[Value]> = old
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    let assigned = resolved.iter().rev().find(|(idx, _)| *idx == i);
                    assigned.map_or(cell, |(_, value)| value).clone()
                })
                .collect();
            // Primary-key updates must preserve uniqueness, against the
            // stored keys and against the other rows of this statement.
            if rekeys {
                let new_key = self.pk_of(&new);
                if new_key != self.pk_of(old)
                    && (self.pk_map.contains_key(&new_key) || !claimed.insert(new_key))
                {
                    return Err(SydError::SchemaViolation(format!(
                        "primary-key update collides in `{}`",
                        self.schema.name
                    )));
                }
            }
            before(old, &new)?;
            changes.push(RowChange::Updated(row_id, Arc::clone(old), new));
            Ok(())
        })?;
        for change in &changes {
            if let RowChange::Updated(row_id, _, new) = change {
                self.set_row(*row_id, Arc::clone(new));
            }
        }
        Ok(changes)
    }

    /// Replaces one row's values, keeping the key map and the indexes in
    /// step (the apply pass of an update, and transaction undo).
    pub(crate) fn set_row(&mut self, row_id: RowId, values: Arc<[Value]>) {
        let old = self.rows.insert(row_id, Arc::clone(&values));
        let pk = &self.schema.primary_key;
        let rekeyed = old
            .as_ref()
            .is_none_or(|old| pk.iter().any(|&i| old[i].cmp_total(&values[i]).is_ne()));
        if rekeyed && !pk.is_empty() {
            if let Some(old) = &old {
                self.pk_map.remove(&self.pk_of(old));
            }
            self.pk_map.insert(self.pk_of(&values), row_id);
        }
        self.reindex(row_id, old.as_deref(), Some(&values));
    }

    pub(crate) fn remove_by_id(&mut self, row_id: RowId) -> Option<Arc<[Value]>> {
        let values = self.rows.remove(&row_id)?;
        let key = self.pk_of(&values);
        if !key.is_empty() {
            self.pk_map.remove(&key);
        }
        self.reindex(row_id, Some(&values), None);
        Some(values)
    }

    pub(crate) fn all_rows(&self) -> Vec<Row> {
        self.rows
            .iter()
            .map(|(&id, values)| Row {
                id,
                values: Arc::clone(values),
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn table() -> Table {
        Table::new(
            Schema::new(
                "slots",
                vec![
                    Column::required("day", ColumnType::I64),
                    Column::required("status", ColumnType::Str),
                ],
                &["day"],
            )
            .unwrap(),
        )
    }

    fn row(day: i64, status: &str) -> Arc<[Value]> {
        [Value::I64(day), Value::str(status)].into()
    }

    #[test]
    fn insert_select() {
        let mut t = table();
        let id1 = t.insert(row(1, "free")).unwrap();
        let id2 = t.insert(row(2, "busy")).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(t.len(), 2);
        let got = t
            .select(&Predicate::Eq("status".into(), Value::str("free")))
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].values, row(1, "free"));
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = table();
        t.insert(row(1, "free")).unwrap();
        let err = t.insert(row(1, "busy")).unwrap_err();
        assert!(err.to_string().contains("duplicate primary key"), "{err}");
    }

    #[test]
    fn get_by_key() {
        let mut t = table();
        t.insert(row(4, "free")).unwrap();
        let got = t.get_by_key(&[Value::I64(4)]).unwrap();
        assert_eq!(got.values[1], Value::str("free"));
        assert!(t.get_by_key(&[Value::I64(5)]).is_none());
    }

    #[test]
    fn update_changes_matching_rows_only() {
        let mut t = table();
        t.insert(row(1, "free")).unwrap();
        t.insert(row(2, "free")).unwrap();
        t.insert(row(3, "busy")).unwrap();
        let changes = t
            .update(
                &Predicate::Eq("status".into(), Value::str("free")),
                &[("status".into(), Value::str("reserved"))],
                |_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(changes.len(), 2);
        assert_eq!(
            t.count(&Predicate::Eq("status".into(), Value::str("reserved")))
                .unwrap(),
            2
        );
        match &changes[0] {
            RowChange::Updated(_, old, new) => {
                assert_eq!(old[1], Value::str("free"));
                assert_eq!(new[1], Value::str("reserved"));
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn update_pk_collision_detected() {
        let mut t = table();
        t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "b")).unwrap();
        let err = t
            .update(
                &Predicate::Eq("day".into(), Value::I64(1)),
                &[("day".into(), Value::I64(2))],
                |_, _| Ok(()),
            )
            .unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        // Two rows of one statement moving onto the same free key collide
        // with each other, and neither has moved.
        let err = t
            .update(
                &Predicate::True,
                &[("day".into(), Value::I64(7))],
                |_, _| Ok(()),
            )
            .unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
        assert!(t.get_by_key(&[Value::I64(1)]).is_some());
        assert!(t.get_by_key(&[Value::I64(2)]).is_some());
        assert!(t.get_by_key(&[Value::I64(7)]).is_none());
    }

    #[test]
    fn delete_returns_old_rows() {
        let mut t = table();
        t.insert(row(1, "x")).unwrap();
        t.insert(row(2, "y")).unwrap();
        let gone = t
            .select(&Predicate::Eq("day".into(), Value::I64(1)))
            .unwrap();
        assert_eq!(gone.len(), 1);
        assert_eq!(t.remove_by_id(gone[0].id), Some(row(1, "x")));
        assert_eq!(t.len(), 1);
        assert!(t.get_by_key(&[Value::I64(1)]).is_none());
        // PK is free for reuse after delete.
        t.insert(row(1, "z")).unwrap();
    }

    #[test]
    fn index_serves_range_queries() {
        let mut t = Table::new(
            Schema::new(
                "t",
                vec![
                    Column::required("n", ColumnType::I64),
                    Column::required("tag", ColumnType::Str),
                ],
                &[],
            )
            .unwrap(),
        );
        for n in 0..100 {
            t.insert(row(n, "x")).unwrap();
        }
        t.create_index("n").unwrap();
        assert_eq!(t.indexed_columns(), vec!["n".to_string()]);
        let got = t
            .select(&Predicate::Between(
                "n".into(),
                Value::I64(10),
                Value::I64(19),
            ))
            .unwrap();
        assert_eq!(got.len(), 10);

        // Index stays consistent across update and delete.
        t.update(
            &Predicate::Eq("n".into(), Value::I64(10)),
            &[("n".into(), Value::I64(1000))],
            |_, _| Ok(()),
        )
        .unwrap();
        let got = t
            .select(&Predicate::Eq("n".into(), Value::I64(1000)))
            .unwrap();
        assert_eq!(got.len(), 1);
        t.remove_by_id(got[0].id).unwrap();
        assert_eq!(
            t.count(&Predicate::Eq("n".into(), Value::I64(1000)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn index_created_after_rows_exist_is_backfilled() {
        let mut t = table();
        t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "b")).unwrap();
        t.create_index("status").unwrap();
        let got = t
            .select(&Predicate::Eq("status".into(), Value::str("b")))
            .unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn restore_reinstates_row_and_key() {
        let mut t = table();
        let id = t.insert(row(1, "a")).unwrap();
        t.remove_by_id(id).unwrap();
        assert_eq!(t.len(), 0);
        t.restore(id, row(1, "a"));
        assert_eq!(t.get(id).unwrap().values, row(1, "a"));
        assert!(t.get_by_key(&[Value::I64(1)]).is_some());
        // next_row advanced beyond the restored id.
        let id2 = t.insert(row(2, "b")).unwrap();
        assert!(id2.0 > id.0);
    }

    #[test]
    fn set_row_maintains_pk_and_index() {
        let mut t = table();
        t.create_index("status").unwrap();
        let id = t.insert(row(1, "a")).unwrap();
        t.set_row(id, row(5, "z"));
        assert!(t.get_by_key(&[Value::I64(1)]).is_none());
        assert!(t.get_by_key(&[Value::I64(5)]).is_some());
        assert_eq!(
            t.count(&Predicate::Eq("status".into(), Value::str("z")))
                .unwrap(),
            1
        );
    }

    #[test]
    fn row_get_by_column_name() {
        let mut t = table();
        let id = t.insert(row(1, "free")).unwrap();
        let r = t.get(id).unwrap();
        assert_eq!(r.get(t.schema(), "status").unwrap(), &Value::str("free"));
        assert!(r.get(t.schema(), "ghost").is_err());
    }
}
