//! Explicit transactions: 2PL row locks plus an undo log.
//!
//! A [`Txn`] groups mutations so they can be rolled back together — the
//! local half of the paper's "group transactions across independent data
//! stores" (§1). The distributed half (negotiation across devices) lives in
//! `syd-core::txn`; it composes these local transactions.
//!
//! Locking discipline: each mutating operation first takes logical row
//! locks (by primary key, or by row id for keyless tables) through the
//! store's [`crate::LockManager`], sorted within the operation to avoid
//! same-statement deadlocks; across statements, lock waits are bounded and
//! a timeout aborts the acquiring statement, never the holder. Locks are
//! held until commit or rollback (strict two-phase locking).
//!
//! Rollback applies the undo log in reverse using raw table operations —
//! compensations do **not** re-fire triggers, matching Oracle's rollback
//! behaviour.

use std::sync::Arc;
use std::time::Duration;

use syd_types::{SydResult, Value};

use crate::lock::LockKey;
use crate::predicate::Predicate;
use crate::store::Store;
use crate::table::{Row, RowChange, RowId};

/// Transaction identity (doubles as the lock owner id).
pub type TxnId = u64;

#[derive(Debug)]
enum Undo {
    Insert {
        table: String,
        row_id: RowId,
    },
    Update {
        table: String,
        row_id: RowId,
        old: Arc<[Value]>,
    },
    Delete {
        table: String,
        row_id: RowId,
        old: Arc<[Value]>,
    },
}

/// An open transaction. Dropping an uncommitted transaction rolls it back.
pub struct Txn {
    store: Store,
    id: TxnId,
    undo: Vec<Undo>,
    lock_timeout: Duration,
    finished: bool,
}

impl Txn {
    pub(crate) fn new(store: Store, id: TxnId) -> Txn {
        Txn {
            store,
            id,
            undo: Vec::new(),
            lock_timeout: Duration::from_millis(500),
            finished: false,
        }
    }

    /// This transaction's id (the lock-owner id it uses).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Replaces the bounded lock wait (default 500 ms).
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Txn {
        self.lock_timeout = timeout;
        self
    }

    /// Locks every row of `rows` (by primary key, or by row id in a keyless
    /// table), sorted for same-statement safety.
    fn lock_rows(&self, table: &str, rows: &[Row]) -> SydResult<()> {
        let schema = self.store.schema_of(table)?;
        let mut keys: Vec<LockKey> = rows
            .iter()
            .map(|row| {
                if schema.has_primary_key() {
                    LockKey::new(table, schema.key_of(&row.values))
                } else {
                    LockKey::new(format!("{table}#rowid"), [Value::I64(row.id.0 as i64)])
                }
            })
            .collect();
        keys.sort();
        keys.dedup();
        for key in &keys {
            self.store
                .locks()
                .acquire(self.id, key, self.lock_timeout)?;
        }
        Ok(())
    }

    /// Explicitly locks one row by primary key — the `Mark X and Lock X`
    /// step of §4.3, usable before a later update in the same transaction.
    pub fn lock_row(&self, table: &str, key: &[Value]) -> SydResult<()> {
        let lock_key = LockKey::new(table, key.to_vec());
        self.store
            .locks()
            .acquire(self.id, &lock_key, self.lock_timeout)
    }

    /// Inserts a row (locking its primary key first when one exists).
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> SydResult<RowId> {
        let schema = self.store.schema_of(table)?;
        if schema.has_primary_key() {
            let lock_key = LockKey::new(table, schema.key_of(&values));
            self.store
                .locks()
                .acquire(self.id, &lock_key, self.lock_timeout)?;
        }
        let row_id = self.store.insert(table, values)?;
        self.undo.push(Undo::Insert {
            table: table.to_owned(),
            row_id,
        });
        Ok(row_id)
    }

    /// Reads through to the store (read-uncommitted, see crate docs).
    pub fn select(&self, table: &str, pred: &Predicate) -> SydResult<Vec<Row>> {
        self.store.select(table, pred)
    }

    /// Updates matching rows under row locks; returns the affected count.
    pub fn update(
        &mut self,
        table: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> SydResult<usize> {
        // Lock every matching row first, then re-apply the predicate inside
        // the store so rows that changed after the read are re-tested.
        self.lock_rows(table, &self.store.select(table, pred)?)?;
        let changes = self.store.update_collect(table, pred, assignments)?;
        let n = changes.len();
        for change in changes {
            if let RowChange::Updated(row_id, old, _) = change {
                self.undo.push(Undo::Update {
                    table: table.to_owned(),
                    row_id,
                    old,
                });
            }
        }
        Ok(n)
    }

    /// Deletes matching rows under row locks; returns the affected count.
    pub fn delete(&mut self, table: &str, pred: &Predicate) -> SydResult<usize> {
        self.lock_rows(table, &self.store.select(table, pred)?)?;
        let changes = self.store.delete_collect(table, pred)?;
        let n = changes.len();
        for change in changes {
            if let RowChange::Deleted(row_id, old) = change {
                self.undo.push(Undo::Delete {
                    table: table.to_owned(),
                    row_id,
                    old,
                });
            }
        }
        Ok(n)
    }

    /// Commits: keeps every change, releases all locks.
    pub fn commit(mut self) {
        self.finished = true;
        self.undo.clear();
        self.store.locks().release_all(self.id);
    }

    /// Rolls back: undoes every change in reverse, releases all locks.
    pub fn rollback(mut self) -> SydResult<()> {
        self.finished = true;
        let result = self.apply_undo();
        self.store.locks().release_all(self.id);
        result
    }

    fn apply_undo(&mut self) -> SydResult<()> {
        while let Some(entry) = self.undo.pop() {
            match entry {
                Undo::Insert { table, row_id } => {
                    let handle = self.store.table_handle(&table)?;
                    let mut t = handle.write();
                    t.remove_by_id(row_id);
                }
                Undo::Update { table, row_id, old } => {
                    let handle = self.store.table_handle(&table)?;
                    let mut t = handle.write();
                    t.set_row(row_id, old);
                }
                Undo::Delete { table, row_id, old } => {
                    let handle = self.store.table_handle(&table)?;
                    let mut t = handle.write();
                    t.restore(row_id, old);
                }
            }
        }
        Ok(())
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.apply_undo();
            self.store.locks().release_all(self.id);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema};
    use syd_types::SydError;

    fn store() -> Store {
        let s = Store::new();
        s.create_table(
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
        for day in 0..5 {
            s.insert("slots", vec![Value::I64(day), Value::str("free")])
                .unwrap();
        }
        s
    }

    #[test]
    fn commit_keeps_changes_and_releases_locks() {
        let s = store();
        let mut txn = s.begin();
        txn.insert("slots", vec![Value::I64(10), Value::str("free")])
            .unwrap();
        txn.update(
            "slots",
            &Predicate::Eq("day".into(), Value::I64(0)),
            &[("status".into(), Value::str("busy"))],
        )
        .unwrap();
        assert!(s.locks().held_count() > 0);
        txn.commit();
        assert_eq!(s.locks().held_count(), 0);
        assert!(s.get_by_key("slots", &[Value::I64(10)]).unwrap().is_some());
        assert_eq!(
            s.get_by_key("slots", &[Value::I64(0)])
                .unwrap()
                .unwrap()
                .values[1],
            Value::str("busy")
        );
    }

    #[test]
    fn rollback_undoes_everything_in_reverse() {
        let s = store();
        let mut txn = s.begin();
        txn.insert("slots", vec![Value::I64(10), Value::str("free")])
            .unwrap();
        txn.update(
            "slots",
            &Predicate::True,
            &[("status".into(), Value::str("busy"))],
        )
        .unwrap();
        txn.delete("slots", &Predicate::Eq("day".into(), Value::I64(3)))
            .unwrap();
        txn.rollback().unwrap();
        assert_eq!(s.locks().held_count(), 0);
        assert_eq!(s.row_count("slots").unwrap(), 5);
        assert!(s.get_by_key("slots", &[Value::I64(10)]).unwrap().is_none());
        for day in 0..5 {
            let row = s.get_by_key("slots", &[Value::I64(day)]).unwrap().unwrap();
            assert_eq!(row.values[1], Value::str("free"), "day {day}");
        }
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let s = store();
        {
            let mut txn = s.begin();
            txn.delete("slots", &Predicate::True).unwrap();
            assert_eq!(s.row_count("slots").unwrap(), 0);
            // dropped here
        }
        assert_eq!(s.row_count("slots").unwrap(), 5);
        assert_eq!(s.locks().held_count(), 0);
    }

    #[test]
    fn conflicting_txns_time_out_not_deadlock() {
        let s = store();
        let mut t1 = s.begin();
        t1.update(
            "slots",
            &Predicate::Eq("day".into(), Value::I64(1)),
            &[("status".into(), Value::str("t1"))],
        )
        .unwrap();

        let mut t2 = s.begin().with_lock_timeout(Duration::from_millis(50));
        let err = t2
            .update(
                "slots",
                &Predicate::Eq("day".into(), Value::I64(1)),
                &[("status".into(), Value::str("t2"))],
            )
            .unwrap_err();
        assert!(matches!(err, SydError::LockTimeout(_)), "{err}");

        t1.commit();
        // Now t2 can proceed.
        let n = t2
            .update(
                "slots",
                &Predicate::Eq("day".into(), Value::I64(1)),
                &[("status".into(), Value::str("t2"))],
            )
            .unwrap();
        assert_eq!(n, 1);
        t2.commit();
        assert_eq!(
            s.get_by_key("slots", &[Value::I64(1)])
                .unwrap()
                .unwrap()
                .values[1],
            Value::str("t2")
        );
    }

    #[test]
    fn insert_conflict_on_same_pk_blocks_until_rollback() {
        let s = store();
        let mut t1 = s.begin();
        t1.insert("slots", vec![Value::I64(100), Value::str("a")])
            .unwrap();
        let mut t2 = s.begin().with_lock_timeout(Duration::from_millis(40));
        let err = t2
            .insert("slots", vec![Value::I64(100), Value::str("b")])
            .unwrap_err();
        assert!(matches!(err, SydError::LockTimeout(_)), "{err}");
        t1.rollback().unwrap();
        // Key is free again.
        t2.insert("slots", vec![Value::I64(100), Value::str("b")])
            .unwrap();
        t2.commit();
        assert_eq!(
            s.get_by_key("slots", &[Value::I64(100)])
                .unwrap()
                .unwrap()
                .values[1],
            Value::str("b")
        );
    }

    #[test]
    fn explicit_lock_row_marks_a_slot() {
        let s = store();
        let txn = s.begin();
        txn.lock_row("slots", &[Value::I64(2)]).unwrap();
        assert_eq!(
            s.locks().holder(&LockKey::new("slots", [Value::I64(2)])),
            Some(txn.id())
        );
        txn.commit();
        assert_eq!(s.locks().held_count(), 0);
    }

    #[test]
    fn keyless_tables_lock_by_row_id() {
        let s = Store::new();
        s.create_table(
            Schema::new("log", vec![Column::required("n", ColumnType::I64)], &[]).unwrap(),
        )
        .unwrap();
        s.insert("log", vec![Value::I64(1)]).unwrap();
        let mut txn = s.begin();
        txn.update("log", &Predicate::True, &[("n".into(), Value::I64(2))])
            .unwrap();
        assert_eq!(s.locks().held_count(), 1);
        txn.rollback().unwrap();
        assert_eq!(
            s.select("log", &Predicate::True).unwrap()[0].values[0],
            Value::I64(1)
        );
    }

    #[test]
    fn concurrent_disjoint_txns_proceed_in_parallel() {
        let s = store();
        let mut handles = Vec::new();
        for day in 0..5i64 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut txn = s.begin();
                txn.update(
                    "slots",
                    &Predicate::Eq("day".into(), Value::I64(day)),
                    &[("status".into(), Value::str("claimed"))],
                )
                .unwrap();
                txn.commit();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            s.count(
                "slots",
                &Predicate::Eq("status".into(), Value::str("claimed"))
            )
            .unwrap(),
            5
        );
    }
}
