//! The store façade: tables behind latches, triggers, locks, transactions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_types::sync::RwLock;
use syd_types::{SydError, SydResult, Value};

use crate::lock::LockManager;
use crate::predicate::Predicate;
use crate::query::Query;
use crate::schema::Schema;
use crate::table::{Row, RowChange, RowId, Table};
use crate::trigger::{Trigger, TriggerCtx, TriggerEvent, TriggerTiming};
use crate::txn::Txn;

pub(crate) struct StoreInner {
    pub(crate) tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    pub(crate) triggers: RwLock<Vec<Trigger>>,
    pub(crate) locks: LockManager,
    pub(crate) next_txn: AtomicU64,
}

/// One device's embedded database. Cloning shares the store.
#[derive(Clone)]
pub struct Store {
    pub(crate) inner: Arc<StoreInner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("tables", &self.table_names())
            .finish_non_exhaustive()
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Store {
        Store {
            inner: Arc::new(StoreInner {
                tables: RwLock::new(HashMap::new()),
                triggers: RwLock::new(Vec::new()),
                locks: LockManager::new(),
                next_txn: AtomicU64::new(1),
            }),
        }
    }

    // ---- DDL ------------------------------------------------------------

    /// Creates a table from `schema`. Fails if the name is taken.
    pub fn create_table(&self, schema: Schema) -> SydResult<()> {
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(SydError::SchemaViolation(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        tables.insert(
            schema.name.clone(),
            Arc::new(RwLock::new(Table::new(schema))),
        );
        Ok(())
    }

    /// Drops a table and all its rows.
    pub fn drop_table(&self, name: &str) -> SydResult<()> {
        self.inner
            .tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SydError::NoSuchTable(name.to_owned()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.inner.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// True iff `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.tables.read().contains_key(name)
    }

    /// Creates (idempotently) a secondary index on `table.column`.
    pub fn create_index(&self, table: &str, column: &str) -> SydResult<()> {
        let handle = self.table_handle(table)?;
        let mut t = handle.write();
        t.create_index(column)
    }

    /// The schema of a table, shared with the table (fixed at creation).
    pub fn schema_of(&self, table: &str) -> SydResult<Arc<Schema>> {
        let handle = self.table_handle(table)?;
        let t = handle.read();
        Ok(Arc::clone(t.schema()))
    }

    pub(crate) fn table_handle(&self, name: &str) -> SydResult<Arc<RwLock<Table>>> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SydError::NoSuchTable(name.to_owned()))
    }

    // ---- triggers ---------------------------------------------------------

    /// Registers a trigger. Fails on duplicate names.
    pub fn add_trigger(&self, trigger: Trigger) -> SydResult<()> {
        let mut triggers = self.inner.triggers.write();
        if triggers.iter().any(|t| t.name == trigger.name) {
            return Err(SydError::SchemaViolation(format!(
                "trigger `{}` already exists",
                trigger.name
            )));
        }
        triggers.push(trigger);
        Ok(())
    }

    /// Removes a trigger by name (no-op if absent).
    pub fn remove_trigger(&self, name: &str) {
        self.inner.triggers.write().retain(|t| t.name != name);
    }

    /// Names of registered triggers.
    pub fn trigger_names(&self) -> Vec<String> {
        self.inner
            .triggers
            .read()
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Runs before-triggers for one prospective row change; any error vetoes.
    fn fire_before(
        &self,
        schema: &Schema,
        table: &str,
        event: TriggerEvent,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> SydResult<()> {
        let triggers = self.inner.triggers.read();
        for t in triggers.iter() {
            if t.matches(table, event, TriggerTiming::Before)
                && t.condition_holds(schema, event, old, new)?
            {
                let ctx = TriggerCtx {
                    store: None,
                    table,
                    event,
                    old,
                    new,
                    schema,
                };
                (t.action)(&ctx)?;
            }
        }
        Ok(())
    }

    /// Runs after-triggers for applied changes; called with no latches held.
    /// The first error is returned, but every trigger still runs.
    fn fire_after(&self, schema: &Schema, table: &str, changes: &[RowChange]) -> SydResult<()> {
        let triggers: Vec<Trigger> = {
            let guard = self.inner.triggers.read();
            guard
                .iter()
                .filter(|t| t.timing == TriggerTiming::After && t.table == table)
                .cloned()
                .collect()
        };
        if triggers.is_empty() {
            return Ok(());
        }
        let mut first_err = None;
        for change in changes {
            let (event, old, new): (TriggerEvent, Option<&[Value]>, Option<&[Value]>) = match change
            {
                RowChange::Inserted(_, values) => (TriggerEvent::Insert, None, Some(values)),
                RowChange::Updated(_, old, new) => (TriggerEvent::Update, Some(old), Some(new)),
                RowChange::Deleted(_, values) => (TriggerEvent::Delete, Some(values), None),
            };
            for t in &triggers {
                if t.events.contains(&event) && t.condition_holds(schema, event, old, new)? {
                    let ctx = TriggerCtx {
                        store: Some(self),
                        table,
                        event,
                        old,
                        new,
                        schema,
                    };
                    if let Err(e) = (t.action)(&ctx) {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    // ---- DML (auto-commit) ------------------------------------------------

    /// Inserts a row; fires insert triggers.
    pub fn insert(&self, table: &str, values: Vec<Value>) -> SydResult<RowId> {
        let handle = self.table_handle(table)?;
        let values: Arc<[Value]> = values.into();
        let (row_id, schema, change) = {
            let mut t = handle.write();
            let schema = Arc::clone(t.schema());
            schema.validate_row(&values)?;
            self.fire_before(&schema, table, TriggerEvent::Insert, None, Some(&values))?;
            let row_id = t.insert(Arc::clone(&values))?;
            (row_id, schema, RowChange::Inserted(row_id, values))
        };
        self.fire_after(&schema, table, std::slice::from_ref(&change))?;
        Ok(row_id)
    }

    /// Rows matching `pred`.
    pub fn select(&self, table: &str, pred: &Predicate) -> SydResult<Vec<Row>> {
        let handle = self.table_handle(table)?;
        let t = handle.read();
        t.select(pred)
    }

    /// Number of rows matching `pred`.
    pub fn count(&self, table: &str, pred: &Predicate) -> SydResult<usize> {
        let handle = self.table_handle(table)?;
        let t = handle.read();
        t.count(pred)
    }

    /// Row with the given primary key, if present.
    pub fn get_by_key(&self, table: &str, key: &[Value]) -> SydResult<Option<Row>> {
        let handle = self.table_handle(table)?;
        let t = handle.read();
        Ok(t.get_by_key(key))
    }

    /// Row by id, if present.
    pub fn get(&self, table: &str, row_id: RowId) -> SydResult<Option<Row>> {
        let handle = self.table_handle(table)?;
        let t = handle.read();
        Ok(t.get(row_id))
    }

    /// Starts a fluent query on `table`.
    pub fn query(&self, table: &str) -> Query {
        Query::new(self.clone(), table)
    }

    /// Updates matching rows; fires update triggers; returns affected count.
    pub fn update(
        &self,
        table: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> SydResult<usize> {
        Ok(self.update_collect(table, pred, assignments)?.len())
    }

    /// Like [`Store::update`] but returns the row changes (transaction undo).
    pub(crate) fn update_collect(
        &self,
        table: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> SydResult<Vec<RowChange>> {
        let handle = self.table_handle(table)?;
        let (schema, changes) = {
            let mut t = handle.write();
            let schema = Arc::clone(t.schema());
            // Before-trigger veto: the table shows every prospective row to
            // the triggers before it applies any.
            let changes = t.update(pred, assignments, |old, new| {
                self.fire_before(&schema, table, TriggerEvent::Update, Some(old), Some(new))
            })?;
            (schema, changes)
        };
        self.fire_after(&schema, table, &changes)?;
        Ok(changes)
    }

    /// Deletes matching rows; fires delete triggers; returns affected count.
    pub fn delete(&self, table: &str, pred: &Predicate) -> SydResult<usize> {
        Ok(self.delete_collect(table, pred)?.len())
    }

    /// Like [`Store::delete`] but returns the row changes (transaction undo).
    pub(crate) fn delete_collect(
        &self,
        table: &str,
        pred: &Predicate,
    ) -> SydResult<Vec<RowChange>> {
        let handle = self.table_handle(table)?;
        let (schema, changes) = {
            let mut t = handle.write();
            let schema = Arc::clone(t.schema());
            let matching = t.select(pred)?;
            for row in &matching {
                self.fire_before(
                    &schema,
                    table,
                    TriggerEvent::Delete,
                    Some(&row.values),
                    None,
                )?;
            }
            let changes = t.delete(pred)?;
            (schema, changes)
        };
        self.fire_after(&schema, table, &changes)?;
        Ok(changes)
    }

    // ---- locks & transactions ----------------------------------------------

    /// The store's logical lock manager (shared with the kernel's
    /// negotiation protocol).
    pub fn locks(&self) -> &LockManager {
        &self.inner.locks
    }

    /// Begins an explicit transaction.
    pub fn begin(&self) -> Txn {
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        Txn::new(self.clone(), id)
    }

    /// Total rows in a table (diagnostics).
    pub fn row_count(&self, table: &str) -> SydResult<usize> {
        let handle = self.table_handle(table)?;
        let t = handle.read();
        Ok(t.len())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use std::sync::atomic::AtomicU32;

    fn store_with_slots() -> Store {
        let store = Store::new();
        store
            .create_table(
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
            .unwrap();
        store
    }

    #[test]
    fn ddl_lifecycle() {
        let store = store_with_slots();
        assert!(store.has_table("slots"));
        assert_eq!(store.table_names(), vec!["slots"]);
        assert!(store
            .create_table(Schema::new("slots", vec![], &[]).unwrap())
            .is_err());
        store.drop_table("slots").unwrap();
        assert!(!store.has_table("slots"));
        assert!(store.drop_table("slots").is_err());
    }

    #[test]
    fn crud_round_trip() {
        let store = store_with_slots();
        store
            .insert("slots", vec![Value::I64(1), Value::str("free")])
            .unwrap();
        store
            .insert("slots", vec![Value::I64(2), Value::str("free")])
            .unwrap();
        assert_eq!(store.row_count("slots").unwrap(), 2);
        let n = store
            .update(
                "slots",
                &Predicate::Eq("day".into(), Value::I64(1)),
                &[("status".into(), Value::str("busy"))],
            )
            .unwrap();
        assert_eq!(n, 1);
        let row = store
            .get_by_key("slots", &[Value::I64(1)])
            .unwrap()
            .unwrap();
        assert_eq!(row.values[1], Value::str("busy"));
        let n = store
            .delete("slots", &Predicate::Eq("day".into(), Value::I64(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(store.row_count("slots").unwrap(), 1);
    }

    #[test]
    fn unknown_table_errors() {
        let store = Store::new();
        assert!(matches!(
            store.select("ghost", &Predicate::True).unwrap_err(),
            SydError::NoSuchTable(_)
        ));
    }

    #[test]
    fn after_trigger_observes_changes() {
        let store = store_with_slots();
        let fired = Arc::new(AtomicU32::new(0));
        let fired_clone = Arc::clone(&fired);
        store
            .add_trigger(Trigger::after(
                "count_inserts",
                "slots",
                vec![TriggerEvent::Insert],
                move |ctx| {
                    assert_eq!(ctx.event, TriggerEvent::Insert);
                    assert!(ctx.store.is_some());
                    assert!(ctx.new.is_some());
                    fired_clone.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
            ))
            .unwrap();
        store
            .insert("slots", vec![Value::I64(1), Value::str("free")])
            .unwrap();
        store
            .insert("slots", vec![Value::I64(2), Value::str("free")])
            .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn after_trigger_may_reenter_same_table() {
        let store = store_with_slots();
        // Inserting day d < 100 auto-inserts a shadow row at day d+100.
        store
            .add_trigger(Trigger::after(
                "shadow",
                "slots",
                vec![TriggerEvent::Insert],
                |ctx| {
                    let day = ctx.new_cell("day")?.as_i64()?;
                    if day < 100 {
                        ctx.store
                            .unwrap()
                            .insert("slots", vec![Value::I64(day + 100), Value::str("shadow")])?;
                    }
                    Ok(())
                },
            ))
            .unwrap();
        store
            .insert("slots", vec![Value::I64(1), Value::str("free")])
            .unwrap();
        assert!(store
            .get_by_key("slots", &[Value::I64(101)])
            .unwrap()
            .is_some());
    }

    #[test]
    fn before_trigger_vetoes_mutation() {
        let store = store_with_slots();
        store
            .add_trigger(Trigger::before(
                "no_day_13",
                "slots",
                vec![TriggerEvent::Insert],
                |ctx| {
                    if ctx.new_cell("day")?.as_i64()? == 13 {
                        return Err(SydError::App("day 13 is forbidden".into()));
                    }
                    Ok(())
                },
            ))
            .unwrap();
        store
            .insert("slots", vec![Value::I64(1), Value::str("free")])
            .unwrap();
        let err = store
            .insert("slots", vec![Value::I64(13), Value::str("free")])
            .unwrap_err();
        assert!(err.to_string().contains("forbidden"), "{err}");
        // Nothing applied.
        assert_eq!(store.row_count("slots").unwrap(), 1);
    }

    #[test]
    fn before_trigger_vetoes_update_leaving_rows_unchanged() {
        let store = store_with_slots();
        store
            .insert("slots", vec![Value::I64(1), Value::str("reserved")])
            .unwrap();
        store
            .add_trigger(Trigger::before(
                "protect",
                "slots",
                vec![TriggerEvent::Update],
                |ctx| {
                    if ctx.old_cell("status")?.as_str()? == "reserved" {
                        return Err(SydError::App("reserved slots are immutable".into()));
                    }
                    Ok(())
                },
            ))
            .unwrap();
        assert!(store
            .update(
                "slots",
                &Predicate::True,
                &[("status".into(), Value::str("free"))],
            )
            .is_err());
        let row = store
            .get_by_key("slots", &[Value::I64(1)])
            .unwrap()
            .unwrap();
        assert_eq!(row.values[1], Value::str("reserved"));
    }

    #[test]
    fn before_update_trigger_vetoes_on_the_prospective_row() {
        let store = store_with_slots();
        for (day, status) in [(1, "free"), (2, "busy"), (3, "locked")] {
            store
                .insert("slots", vec![Value::I64(day), Value::str(status)])
                .unwrap();
        }
        let seen = Arc::new(AtomicU32::new(0));
        let seen_by_trigger = Arc::clone(&seen);
        store
            .add_trigger(Trigger::before(
                "locked_stays",
                "slots",
                vec![TriggerEvent::Update],
                move |ctx| {
                    // The prospective row carries the assignment, and the
                    // cells it does not name unchanged.
                    assert_eq!(ctx.new_cell("status")?.as_str()?, "tent");
                    assert_eq!(ctx.new_cell("day")?, ctx.old_cell("day")?);
                    seen_by_trigger.fetch_add(1, Ordering::SeqCst);
                    if ctx.new_cell("day")?.as_i64()? == 3 {
                        return Err(SydError::App("day 3 is locked".into()));
                    }
                    Ok(())
                },
            ))
            .unwrap();
        let tent = [("status".to_owned(), Value::str("tent"))];
        let err = store.update("slots", &Predicate::True, &tent).unwrap_err();
        assert!(err.to_string().contains("day 3 is locked"), "{err}");
        // The veto fell on the last of three rows; none of them changed.
        assert_eq!(seen.load(Ordering::SeqCst), 3);
        for (day, status) in [(1, "free"), (2, "busy"), (3, "locked")] {
            let row = store
                .get_by_key("slots", &[Value::I64(day)])
                .unwrap()
                .unwrap();
            assert_eq!(row.values[1], Value::str(status), "day {day}");
        }
        // Without the locked row in reach the same statement applies.
        let upto_2 = Predicate::Le("day".into(), Value::I64(2));
        assert_eq!(store.update("slots", &upto_2, &tent).unwrap(), 2);
    }

    #[test]
    fn conditioned_trigger_fires_selectively() {
        let store = store_with_slots();
        let fired = Arc::new(AtomicU32::new(0));
        let fired_clone = Arc::clone(&fired);
        store
            .add_trigger(
                Trigger::after("hot", "slots", vec![TriggerEvent::Insert], move |_| {
                    fired_clone.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .when(Predicate::Gt("day".into(), Value::I64(5))),
            )
            .unwrap();
        store
            .insert("slots", vec![Value::I64(1), Value::str("x")])
            .unwrap();
        store
            .insert("slots", vec![Value::I64(9), Value::str("x")])
            .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn duplicate_trigger_name_rejected_and_removal_works() {
        let store = store_with_slots();
        store
            .add_trigger(Trigger::after(
                "t",
                "slots",
                vec![TriggerEvent::Insert],
                |_| Ok(()),
            ))
            .unwrap();
        assert!(store
            .add_trigger(Trigger::after(
                "t",
                "slots",
                vec![TriggerEvent::Insert],
                |_| Ok(())
            ))
            .is_err());
        assert_eq!(store.trigger_names(), vec!["t"]);
        store.remove_trigger("t");
        assert!(store.trigger_names().is_empty());
    }

    #[test]
    fn after_trigger_error_propagates_but_mutation_stands() {
        let store = store_with_slots();
        store
            .add_trigger(Trigger::after(
                "grumpy",
                "slots",
                vec![TriggerEvent::Insert],
                |_| Err(SydError::App("observer failed".into())),
            ))
            .unwrap();
        let err = store
            .insert("slots", vec![Value::I64(1), Value::str("x")])
            .unwrap_err();
        assert!(err.to_string().contains("observer failed"));
        // Oracle post-statement semantics: the row is in.
        assert_eq!(store.row_count("slots").unwrap(), 1);
    }

    #[test]
    fn concurrent_inserts_are_serialized() {
        let store = Store::new();
        store
            .create_table(
                Schema::new("log", vec![Column::required("n", ColumnType::I64)], &[]).unwrap(),
            )
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..8i64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.insert("log", vec![Value::I64(t * 1000 + i)]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.row_count("log").unwrap(), 800);
    }
}
