//! The store façade: tables behind latches, triggers, locks, transactions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use syd_types::sync::{Rank, RwLock};
use syd_types::{SydError, SydResult, Text, Value};

use crate::lock::{LockManager, LockRights};
use crate::predicate::Predicate;
use crate::query::Query;
use crate::schema::Schema;
use crate::table::{Before, Change, Log, Row, RowChange, RowId, Table};
use crate::trigger::{Trigger, TriggerCtx, TriggerEvent, TriggerTiming};
use crate::txn::{Txn, TxnId};

pub(crate) struct StoreInner {
    pub(crate) tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    /// Shared with the after-triggers a statement fires: only registering
    /// one copies the list.
    pub(crate) triggers: RwLock<Arc<Vec<Trigger>>>,
    /// `triggers.len()`, stored (Release) under their write lock and read
    /// (Acquire) by a statement: while it is 0, no statement takes the lock.
    pub(crate) trigger_count: AtomicUsize,
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
                tables: RwLock::new(Rank::Store, HashMap::new()),
                triggers: RwLock::new(Rank::Store, Arc::new(Vec::new())),
                trigger_count: AtomicUsize::new(0),
                locks: LockManager::default(),
                next_txn: AtomicU64::new(1),
            }),
        }
    }

    // ---- DDL ------------------------------------------------------------

    /// Creates a table from `schema`, which an `Arc` lets stores share.
    /// Fails if the name is taken.
    pub fn create_table(&self, schema: impl Into<Arc<Schema>>) -> SydResult<()> {
        let schema = schema.into();
        let mut tables = self.inner.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(SydError::SchemaViolation(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        tables.insert(
            schema.name.clone(),
            Arc::new(RwLock::new(Rank::Store, Table::new(schema))),
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
        self.table_handle(table)?.write().create_index(column)
    }

    /// The schema of a table, shared with the table (fixed at creation).
    pub fn schema_of(&self, table: &str) -> SydResult<Arc<Schema>> {
        Ok(Arc::clone(self.table_handle(table)?.read().schema()))
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
        Arc::make_mut(&mut triggers).push(trigger);
        let count = &self.inner.trigger_count;
        count.store(triggers.len(), Ordering::Release);
        Ok(())
    }

    /// Removes a trigger by name (no-op if absent).
    pub fn remove_trigger(&self, name: &str) {
        let mut triggers = self.inner.triggers.write();
        Arc::make_mut(&mut triggers).retain(|t| t.name != name);
        let count = &self.inner.trigger_count;
        count.store(triggers.len(), Ordering::Release);
    }

    /// The trigger list, if a trigger watches `table`: read before the
    /// statement takes the table's latch, which ranks with the list's.
    fn fires_on(&self, table: &str) -> Option<Arc<Vec<Trigger>>> {
        if self.inner.trigger_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let triggers = Arc::clone(&self.inner.triggers.read());
        triggers
            .iter()
            .any(|t| t.table == table)
            .then_some(triggers)
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

    /// Runs the `timing` triggers watching `table` for one row change. A
    /// before-trigger's error vetoes at once; every after-trigger runs (no
    /// latch held, the store in hand) and the first error is returned.
    fn fire(
        &self,
        triggers: &[Trigger],
        schema: &Schema,
        table: &str,
        timing: TriggerTiming,
        change: Change<'_>,
    ) -> SydResult<()> {
        let (event, old, new) = change;
        let mut outcome = Ok(());
        for t in triggers.iter().filter(|t| t.matches(table, event, timing)) {
            if t.condition_holds(schema, event, old, new)? {
                let store = (timing == TriggerTiming::After).then_some(self);
                let ctx = TriggerCtx {
                    store,
                    table,
                    event,
                    old,
                    new,
                    schema,
                };
                match (t.action)(&ctx) {
                    Err(e) if timing == TriggerTiming::Before => return Err(e),
                    result => outcome = outcome.and(result),
                }
            }
        }
        outcome
    }

    // ---- DML (auto-commit) ------------------------------------------------

    /// Runs one statement on `table` under its write latch: the one path
    /// of every insert, update and delete, a transaction's included. Its
    /// [`RowChange`]s are built only for the table's triggers and a
    /// transaction's `undo`, which gets them after the after-triggers.
    pub(crate) fn statement<R>(
        &self,
        table: &str,
        event: TriggerEvent,
        undo: Option<&mut Vec<RowChange>>,
        run: impl FnOnce(&mut Table, Before<'_>, Log<'_>) -> SydResult<R>,
    ) -> SydResult<R> {
        let handle = self.table_handle(table)?;
        let fires = self.fires_on(table);
        let mut changes = Vec::new();
        let (schema, result) = {
            let mut t = handle.write();
            let schema = Arc::clone(t.schema());
            let triggers = fires.as_deref().map_or(&[][..], Vec::as_slice);
            let mut before = |old: Option<&[Value]>, new: Option<&[Value]>| {
                self.fire(
                    triggers,
                    &schema,
                    table,
                    TriggerTiming::Before,
                    (event, old, new),
                )
            };
            let before: Before<'_> = fires.is_some().then_some(&mut before);
            let log = (fires.is_some() || undo.is_some()).then_some(&mut changes);
            let result = run(&mut t, before, log)?;
            (schema, result)
        };
        let after = fires.map_or(Ok(()), |triggers| {
            (changes.iter())
                .map(|change| {
                    self.fire(
                        &triggers,
                        &schema,
                        table,
                        TriggerTiming::After,
                        change.rows(),
                    )
                })
                .fold(Ok(()), SydResult::and)
        });
        if let Some(undo) = undo {
            undo.append(&mut changes);
        }
        after.map(|()| result)
    }

    /// Inserts a row; fires insert triggers. An array of cells becomes
    /// the stored row in one allocation, a `Vec` in a second.
    pub fn insert(&self, table: &str, values: impl Into<Arc<[Value]>>) -> SydResult<RowId> {
        let values = values.into();
        self.statement(table, TriggerEvent::Insert, None, |t, before, log| {
            t.insert(values, before, log)
        })
    }

    /// Rows matching `pred`.
    pub fn select(&self, table: &str, pred: &Predicate) -> SydResult<Vec<Row>> {
        self.table_handle(table)?.read().select(pred)
    }

    /// Visits the cells of each row matching `pred` in place, under the
    /// table's read latch, and collects nothing. Key and index ranges
    /// visit in key order, scans in [`RowId`] order; the first error `f`
    /// returns ends the visit. `f` must not touch the store.
    pub fn visit(
        &self,
        table: &str,
        pred: &Predicate,
        mut f: impl FnMut(&[Value]) -> SydResult<()>,
    ) -> SydResult<()> {
        self.table_handle(table)?
            .read()
            .visit(pred, |_, values| f(values))
    }

    /// Number of rows matching `pred`.
    pub fn count(&self, table: &str, pred: &Predicate) -> SydResult<usize> {
        let mut n = 0;
        self.visit(table, pred, |_| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    /// Row with the given primary key, if present.
    pub fn get_by_key(&self, table: &str, key: &[Value]) -> SydResult<Option<Row>> {
        Ok(self.table_handle(table)?.read().get_by_key(key))
    }

    /// Row by id, if present.
    pub fn get(&self, table: &str, row_id: RowId) -> SydResult<Option<Row>> {
        Ok(self.table_handle(table)?.read().get(row_id))
    }

    /// Starts a fluent query on `table`.
    pub fn query(&self, table: &str) -> Query {
        Query::new(self.clone(), table)
    }

    /// Updates matching rows; fires update triggers; returns affected
    /// count.
    pub fn update(
        &self,
        table: &str,
        pred: &Predicate,
        assignments: &[(Text, Value)],
    ) -> SydResult<usize> {
        self.statement(table, TriggerEvent::Update, None, |t, before, log| {
            t.update(pred, assignments, before, log)
        })
    }

    /// Deletes matching rows; fires delete triggers; returns affected count.
    pub fn delete(&self, table: &str, pred: &Predicate) -> SydResult<usize> {
        self.statement(table, TriggerEvent::Delete, None, |t, before, log| {
            t.delete(pred, before, log)
        })
    }

    // ---- locks & transactions ----------------------------------------------

    /// A store and the only right to change its entity locks
    /// ([`LockRights`]): the store of a device's kernel.
    pub fn new_owned() -> (Store, LockRights) {
        let store = Store::new();
        (store.clone(), LockRights(store))
    }

    /// The store's logical lock table, to read: who holds what. Only the
    /// holder of the store's [`LockRights`] and its transactions change it.
    pub fn locks(&self) -> &LockManager {
        &self.inner.locks
    }

    /// Begins an explicit transaction.
    pub fn begin(&self) -> Txn {
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        Txn::new(self.clone(), id)
    }

    /// Opens a transaction whose locks are held by `session`: the local
    /// half of a session that spans devices.
    pub fn begin_for(&self, session: TxnId) -> Txn {
        Txn::new(self.clone(), session)
    }

    /// Total rows in a table (diagnostics).
    pub fn row_count(&self, table: &str) -> SydResult<usize> {
        Ok(self.table_handle(table)?.read().len())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
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

    /// A key range visits in key order and collects nothing; `select` over
    /// the same range still answers in row order; the first error of the
    /// visitor ends the visit.
    #[test]
    fn visit_reads_in_key_order_and_select_in_row_order() {
        let store = store_with_slots();
        for day in [5, 3, 9, 1] {
            store
                .insert("slots", vec![Value::I64(day), Value::str("x")])
                .unwrap();
        }
        let range = Predicate::Between("day".into(), Value::I64(2), Value::I64(9));
        let mut days = Vec::new();
        store
            .visit("slots", &range, |row| {
                days.push(row[0].as_i64()?);
                Ok(())
            })
            .unwrap();
        assert_eq!(days, [3, 5, 9]);
        let selected: Vec<i64> = store
            .select("slots", &range)
            .unwrap()
            .iter()
            .map(|row| row.values[0].as_i64().unwrap())
            .collect();
        assert_eq!(selected, [5, 3, 9]);
        assert_eq!(store.count("slots", &range).unwrap(), 3);
        let mut seen = 0;
        let err = store.visit("slots", &Predicate::True, |_| {
            seen += 1;
            Err(SydError::App("stop".into()))
        });
        assert!(err.is_err());
        assert_eq!(seen, 1);
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
        let tent = [("status".into(), Value::str("tent"))];
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
