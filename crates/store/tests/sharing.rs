//! The store's ownership rule, observed from outside with `Arc::ptr_eq`:
//! stored rows are immutable and shared, a write replaces the row instead
//! of changing it, and a `Row` handed out is a snapshot.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use syd_store::{Column, ColumnType, Predicate, Row, Schema, Store, Trigger, TriggerEvent};
use syd_types::{Text, Value};

fn store() -> Store {
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
    for day in 0..3 {
        store
            .insert("slots", vec![Value::I64(day), Value::str("free")])
            .unwrap();
    }
    store
}

fn by_day(day: i64) -> Predicate {
    Predicate::Eq("day".into(), Value::I64(day))
}

fn read(store: &Store, day: i64) -> Row {
    store
        .get_by_key("slots", &[Value::I64(day)])
        .unwrap()
        .unwrap()
}

fn set_status(status: &str) -> [(Text, Value); 1] {
    [("status".into(), Value::str(status))]
}

#[test]
fn every_read_path_shares_the_stored_row() {
    let s = store();
    let a = read(&s, 1);
    let reads = [
        read(&s, 1),
        s.get("slots", a.id).unwrap().unwrap(),
        s.select("slots", &by_day(1)).unwrap().remove(0),
        s.query("slots").filter(by_day(1)).first().unwrap().unwrap(),
    ];
    for b in &reads {
        assert_eq!(a.id, b.id);
        assert!(Arc::ptr_eq(&a.values, &b.values));
    }
    assert!(Arc::ptr_eq(
        &s.schema_of("slots").unwrap(),
        &s.schema_of("slots").unwrap()
    ));
}

#[test]
fn a_held_row_is_a_snapshot() {
    let s = store();
    let held = read(&s, 1);
    let as_read = [Value::I64(1), Value::str("free")];

    s.update("slots", &by_day(1), &set_status("busy")).unwrap();
    assert_eq!(held.values[..], as_read);
    let updated = s.select("slots", &by_day(1)).unwrap().remove(0);
    assert_eq!(updated.values[1], Value::str("busy"));
    assert!(!Arc::ptr_eq(&held.values, &updated.values));

    s.delete("slots", &by_day(1)).unwrap();
    assert_eq!(held.values[..], as_read);
    assert_eq!(updated.values[1], Value::str("busy"));

    let held = read(&s, 2);
    let mut txn = s.begin();
    txn.update("slots", &by_day(2), &set_status("tent"))
        .unwrap();
    let dirty = read(&s, 2);
    txn.rollback().unwrap();
    assert_eq!(held.values[1], Value::str("free"));
    assert_eq!(dirty.values[1], Value::str("tent"), "read uncommitted");
}

#[test]
fn rollback_reinstates_the_allocation_the_undo_log_held() {
    let s = store();
    let (before_update, before_delete) = (read(&s, 0), read(&s, 2));
    let mut txn = s.begin();
    txn.update("slots", &by_day(0), &set_status("busy"))
        .unwrap();
    txn.delete("slots", &by_day(2)).unwrap();
    assert!(!Arc::ptr_eq(&before_update.values, &read(&s, 0).values));
    txn.rollback().unwrap();
    for held in [before_update, before_delete] {
        let now = s.get("slots", held.id).unwrap().unwrap();
        assert!(Arc::ptr_eq(&held.values, &now.values), "{}", held.id);
    }
}

/// The prospective row a before-update trigger is shown is the row the
/// table then stores: built once, not rebuilt after the triggers ran.
#[test]
fn the_row_the_trigger_saw_is_the_row_stored() {
    let s = store();
    let seen = Arc::new(AtomicUsize::new(0));
    let seen_by_trigger = Arc::clone(&seen);
    s.add_trigger(Trigger::before(
        "peek",
        "slots",
        vec![TriggerEvent::Update],
        move |ctx| {
            let new = ctx.new.expect("an update has a new row");
            seen_by_trigger.store(new.as_ptr() as usize, Ordering::SeqCst);
            Ok(())
        },
    ))
    .unwrap();
    s.update("slots", &by_day(1), &set_status("busy")).unwrap();
    assert_eq!(
        seen.load(Ordering::SeqCst),
        read(&s, 1).values.as_ptr() as usize
    );
}
