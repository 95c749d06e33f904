//! In-memory table: rows, primary-key map and secondary indexes.
//!
//! `Table` is the single-threaded core; the [`crate::Store`] wraps each
//! table in a `syd_types::sync::RwLock` and layers triggers, transactions and
//! row locks on top.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use syd_types::{SydError, SydResult, Value};

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

/// A materialized row: its id plus a copy of its values.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Row identity.
    pub id: RowId,
    /// Cell values in schema column order.
    pub values: Vec<Value>,
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
    Inserted(RowId, Vec<Value>),
    /// Row updated from `old` to `new`.
    Updated(RowId, Vec<Value>, Vec<Value>),
    /// Row deleted; `old` values retained.
    Deleted(RowId, Vec<Value>),
}

pub(crate) struct Table {
    pub(crate) schema: Schema,
    rows: BTreeMap<RowId, Vec<Value>>,
    next_row: u64,
    pk_map: BTreeMap<Vec<OrdValue>, RowId>,
    indexes: HashMap<String, BTreeMap<OrdValue, BTreeSet<RowId>>>,
}

impl Table {
    pub(crate) fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: BTreeMap::new(),
            next_row: 1,
            pk_map: BTreeMap::new(),
            indexes: HashMap::new(),
        }
    }

    pub(crate) fn schema(&self) -> &Schema {
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

    fn index_insert(&mut self, row_id: RowId, values: &[Value]) {
        for (col, index) in &mut self.indexes {
            // Index creation validated the column; a vanished column
            // means a schema bug, and skipping beats corrupting.
            let Some(i) = self.schema.columns.iter().position(|c| &c.name == col) else {
                continue;
            };
            index
                .entry(OrdValue(values[i].clone()))
                .or_default()
                .insert(row_id);
        }
    }

    fn index_remove(&mut self, row_id: RowId, values: &[Value]) {
        for (col, index) in &mut self.indexes {
            let Some(i) = self.schema.columns.iter().position(|c| &c.name == col) else {
                continue;
            };
            let key = OrdValue(values[i].clone());
            if let Some(set) = index.get_mut(&key) {
                set.remove(&row_id);
                if set.is_empty() {
                    index.remove(&key);
                }
            }
        }
    }

    /// Inserts a validated row, enforcing primary-key uniqueness.
    pub(crate) fn insert(&mut self, values: Vec<Value>) -> SydResult<RowId> {
        self.schema.validate_row(&values)?;
        let key: Vec<OrdValue> = self
            .schema
            .key_of(&values)
            .into_iter()
            .map(OrdValue)
            .collect();
        if !key.is_empty() && self.pk_map.contains_key(&key) {
            return Err(SydError::SchemaViolation(format!(
                "duplicate primary key in `{}`",
                self.schema.name
            )));
        }
        let row_id = RowId(self.next_row);
        self.next_row += 1;
        self.index_insert(row_id, &values);
        if !key.is_empty() {
            self.pk_map.insert(key, row_id);
        }
        self.rows.insert(row_id, values);
        Ok(row_id)
    }

    /// Re-inserts a row under its original id (transaction undo).
    pub(crate) fn restore(&mut self, row_id: RowId, values: Vec<Value>) {
        let key: Vec<OrdValue> = self
            .schema
            .key_of(&values)
            .into_iter()
            .map(OrdValue)
            .collect();
        if !key.is_empty() {
            self.pk_map.insert(key, row_id);
        }
        self.index_insert(row_id, &values);
        self.rows.insert(row_id, values);
        self.next_row = self.next_row.max(row_id.0 + 1);
    }

    pub(crate) fn get(&self, row_id: RowId) -> Option<Row> {
        self.rows.get(&row_id).map(|values| Row {
            id: row_id,
            values: values.clone(),
        })
    }

    pub(crate) fn get_by_key(&self, key: &[Value]) -> Option<Row> {
        let key: Vec<OrdValue> = key.iter().cloned().map(OrdValue).collect();
        self.pk_map.get(&key).and_then(|&id| self.get(id))
    }

    /// Row ids matching `pred`, using the primary-key map or a secondary
    /// index when the predicate constrains a keyed/indexed column,
    /// otherwise scanning.
    fn candidates(&self, pred: &Predicate) -> SydResult<Vec<RowId>> {
        // Single-column primary keys serve equality/range directly from
        // the key map.
        if let [pk_idx] = self.schema.primary_key[..] {
            let pk_name = &self.schema.columns[pk_idx].name;
            if let Some((lo, hi)) = pred.bounds_for(pk_name) {
                use std::ops::Bound::*;
                let lo = lo.map_or(Unbounded, |v| Included(vec![OrdValue(v.clone())]));
                let hi = hi.map_or(Unbounded, |v| Included(vec![OrdValue(v.clone())]));
                let mut ids: Vec<RowId> = self.pk_map.range((lo, hi)).map(|(_, &id)| id).collect();
                ids.sort_unstable();
                return Ok(ids);
            }
        }
        for (col, index) in &self.indexes {
            if let Some((lo, hi)) = pred.bounds_for(col) {
                use std::ops::Bound::*;
                let lo = lo.map_or(Unbounded, |v| Included(OrdValue(v.clone())));
                let hi = hi.map_or(Unbounded, |v| Included(OrdValue(v.clone())));
                let mut ids = Vec::new();
                for (_, set) in index.range((lo, hi)) {
                    ids.extend(set.iter().copied());
                }
                ids.sort_unstable();
                return Ok(ids);
            }
        }
        Ok(self.rows.keys().copied().collect())
    }

    pub(crate) fn select(&self, pred: &Predicate) -> SydResult<Vec<Row>> {
        let mut out = Vec::new();
        for row_id in self.candidates(pred)? {
            let values = &self.rows[&row_id];
            if pred.eval(&self.schema, values)? {
                out.push(Row {
                    id: row_id,
                    values: values.clone(),
                });
            }
        }
        Ok(out)
    }

    pub(crate) fn count(&self, pred: &Predicate) -> SydResult<usize> {
        let mut n = 0;
        for row_id in self.candidates(pred)? {
            if pred.eval(&self.schema, &self.rows[&row_id])? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Applies `assignments` to every row matching `pred`; returns the
    /// changes (old and new values) for triggers and undo.
    pub(crate) fn update(
        &mut self,
        pred: &Predicate,
        assignments: &[(String, Value)],
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
            resolved.push((idx, value.clone()));
        }

        let mut changes = Vec::new();
        for row_id in self.candidates(pred)? {
            let values = &self.rows[&row_id];
            if !pred.eval(&self.schema, values)? {
                continue;
            }
            let old = values.clone();
            let mut new = old.clone();
            for (idx, value) in &resolved {
                new[*idx] = value.clone();
            }
            // Primary-key updates must preserve uniqueness.
            let old_key: Vec<OrdValue> =
                self.schema.key_of(&old).into_iter().map(OrdValue).collect();
            let new_key: Vec<OrdValue> =
                self.schema.key_of(&new).into_iter().map(OrdValue).collect();
            if old_key != new_key {
                if self.pk_map.contains_key(&new_key) {
                    return Err(SydError::SchemaViolation(format!(
                        "primary-key update collides in `{}`",
                        self.schema.name
                    )));
                }
                self.pk_map.remove(&old_key);
                self.pk_map.insert(new_key, row_id);
            }
            self.index_remove(row_id, &old);
            self.index_insert(row_id, &new);
            self.rows.insert(row_id, new.clone());
            changes.push(RowChange::Updated(row_id, old, new));
        }
        Ok(changes)
    }

    /// Overwrites one row's values (transaction undo path).
    pub(crate) fn set_row(&mut self, row_id: RowId, values: Vec<Value>) {
        if let Some(old) = self.rows.get(&row_id).cloned() {
            let old_key: Vec<OrdValue> =
                self.schema.key_of(&old).into_iter().map(OrdValue).collect();
            if !old_key.is_empty() {
                self.pk_map.remove(&old_key);
            }
            self.index_remove(row_id, &old);
        }
        let new_key: Vec<OrdValue> = self
            .schema
            .key_of(&values)
            .into_iter()
            .map(OrdValue)
            .collect();
        if !new_key.is_empty() {
            self.pk_map.insert(new_key, row_id);
        }
        self.index_insert(row_id, &values);
        self.rows.insert(row_id, values);
    }

    /// Deletes rows matching `pred`; returns the deleted rows.
    pub(crate) fn delete(&mut self, pred: &Predicate) -> SydResult<Vec<RowChange>> {
        let mut changes = Vec::new();
        for row_id in self.candidates(pred)? {
            let values = &self.rows[&row_id];
            if !pred.eval(&self.schema, values)? {
                continue;
            }
            let old = values.clone();
            self.remove_row(row_id, &old);
            changes.push(RowChange::Deleted(row_id, old));
        }
        Ok(changes)
    }

    pub(crate) fn remove_by_id(&mut self, row_id: RowId) -> Option<Vec<Value>> {
        let values = self.rows.get(&row_id)?.clone();
        self.remove_row(row_id, &values);
        Some(values)
    }

    fn remove_row(&mut self, row_id: RowId, values: &[Value]) {
        let key: Vec<OrdValue> = self
            .schema
            .key_of(values)
            .into_iter()
            .map(OrdValue)
            .collect();
        if !key.is_empty() {
            self.pk_map.remove(&key);
        }
        self.index_remove(row_id, values);
        self.rows.remove(&row_id);
    }

    pub(crate) fn all_rows(&self) -> Vec<Row> {
        self.rows
            .iter()
            .map(|(&id, values)| Row {
                id,
                values: values.clone(),
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

    fn row(day: i64, status: &str) -> Vec<Value> {
        vec![Value::I64(day), Value::str(status)]
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
            )
            .unwrap_err();
        assert!(err.to_string().contains("collides"), "{err}");
    }

    #[test]
    fn delete_returns_old_rows() {
        let mut t = table();
        t.insert(row(1, "x")).unwrap();
        t.insert(row(2, "y")).unwrap();
        let changes = t
            .delete(&Predicate::Eq("day".into(), Value::I64(1)))
            .unwrap();
        assert_eq!(changes.len(), 1);
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
            t.insert(vec![Value::I64(n), Value::str("x")]).unwrap();
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
        )
        .unwrap();
        let got = t
            .select(&Predicate::Eq("n".into(), Value::I64(1000)))
            .unwrap();
        assert_eq!(got.len(), 1);
        t.delete(&Predicate::Eq("n".into(), Value::I64(1000)))
            .unwrap();
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
