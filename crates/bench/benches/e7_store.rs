//! E7 and A1: the embedded store substrate — CRUD costs, index vs scan,
//! trigger overhead (store-level Oracle-style vs middleware events, the
//! §5.3 ablation), transactions, and snapshots.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_bench::timing::Group;
use syd_core::EventHandler;
use syd_store::{Column, ColumnType, Predicate, Schema, Store, Trigger, TriggerEvent};
use syd_types::Value;

fn slots_schema() -> Schema {
    Schema::new(
        "slots",
        vec![
            Column::required("ordinal", ColumnType::I64),
            Column::required("status", ColumnType::Str),
            Column::required("priority", ColumnType::I64),
        ],
        &["ordinal"],
    )
    .unwrap()
}

fn filled_store(rows: i64, index: bool) -> Store {
    let store = Store::new();
    store.create_table(slots_schema()).unwrap();
    if index {
        store.create_index("slots", "status").unwrap();
    }
    for i in 0..rows {
        store
            .insert(
                "slots",
                vec![
                    Value::I64(i),
                    Value::str(if i % 3 == 0 { "free" } else { "busy" }),
                    Value::I64(i % 7),
                ],
            )
            .unwrap();
    }
    store
}

fn main() {
    let group = Group("e7_store");

    // Insert throughput.
    group.bench_function("insert", |b| {
        let store = Store::new();
        store.create_table(slots_schema()).unwrap();
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            store
                .insert(
                    "slots",
                    vec![Value::I64(i), Value::str("free"), Value::I64(0)],
                )
                .unwrap()
        });
    });

    // Point lookup by primary key.
    let store = filled_store(10_000, false);
    group.bench_function("get_by_key_10k", |b| {
        b.iter(|| store.get_by_key("slots", &[Value::I64(5000)]).unwrap());
    });

    // Scan vs index on a selective predicate.
    for (label, indexed) in [("scan", false), ("indexed", true)] {
        let store = filled_store(10_000, indexed);
        group.bench_function(format!("select_eq_10k_{label}"), |b| {
            b.iter(|| {
                store
                    .select("slots", &Predicate::Eq("status".into(), Value::str("free")))
                    .unwrap()
            });
        });
    }

    // Range query through the PK ordering column (ordinal) with an index.
    let store = filled_store(10_000, false);
    store.create_index("slots", "ordinal").unwrap();
    group.bench_function("select_range_100_of_10k", |b| {
        b.iter(|| {
            store
                .select(
                    "slots",
                    &Predicate::Between("ordinal".into(), Value::I64(4000), Value::I64(4099)),
                )
                .unwrap()
        });
    });

    // Update one row by key.
    let store = filled_store(10_000, false);
    group.bench_function("update_one_of_10k", |b| {
        b.iter(|| {
            store
                .update(
                    "slots",
                    &Predicate::Eq("ordinal".into(), Value::I64(1234)),
                    &[("status".into(), Value::str("flip"))],
                )
                .unwrap()
        });
    });

    // A1 ablation: per-insert overhead of (a) no trigger, (b) a
    // store-level after trigger (Oracle route), (c) a middleware event
    // bridge (the §5.3 future direction).
    for (label, setup) in [
        ("no_trigger", 0u8),
        ("store_trigger", 1),
        ("middleware_events", 2),
    ] {
        let store = Store::new();
        store.create_table(slots_schema()).unwrap();
        let _events = match setup {
            1 => {
                store
                    .add_trigger(Trigger::after(
                        "bench",
                        "slots",
                        vec![TriggerEvent::Insert],
                        |_ctx| Ok(()),
                    ))
                    .unwrap();
                None
            }
            2 => {
                let events = EventHandler::new(syd_net::SharedRuntime::new("e7"));
                events.bridge_store(&store, "slots").unwrap();
                events.subscribe("store.slots.", std::sync::Arc::new(|_t, _p| {}));
                Some(events)
            }
            _ => None,
        };
        // Steady state: insert + delete a row against a fixed 1k-row
        // table, so every variant measures the same table size.
        for i in 0..1000i64 {
            store
                .insert("slots", vec![Value::I64(i), Value::str("x"), Value::I64(0)])
                .unwrap();
        }
        group.bench_function(format!("insert_{label}"), |b| {
            b.iter(|| {
                store
                    .insert(
                        "slots",
                        vec![Value::I64(777_777), Value::str("x"), Value::I64(0)],
                    )
                    .unwrap();
                store
                    .delete(
                        "slots",
                        &Predicate::Eq("ordinal".into(), Value::I64(777_777)),
                    )
                    .unwrap()
            });
        });
    }

    // Transactions: commit vs rollback of a 10-row update.
    let store = filled_store(1000, false);
    group.bench_function("txn_update10_commit", |b| {
        b.iter(|| {
            let mut txn = store.begin();
            txn.update(
                "slots",
                &Predicate::Between("ordinal".into(), Value::I64(100), Value::I64(109)),
                &[("status".into(), Value::str("t"))],
            )
            .unwrap();
            txn.commit();
        });
    });
    group.bench_function("txn_update10_rollback", |b| {
        b.iter(|| {
            let mut txn = store.begin();
            txn.update(
                "slots",
                &Predicate::Between("ordinal".into(), Value::I64(100), Value::I64(109)),
                &[("status".into(), Value::str("t"))],
            )
            .unwrap();
            txn.rollback().unwrap();
        });
    });

    // Snapshot encode/decode for a device-sized database.
    for rows in [100i64, 1000, 10_000] {
        let store = filled_store(rows, true);
        group.bench_function(format!("snapshot_encode/{rows}"), |b| {
            b.iter(|| store.snapshot());
        });
        let bytes = store.snapshot();
        group.bench_function(format!("snapshot_decode/{rows}"), |b| {
            b.iter(|| Store::from_snapshot(&bytes).unwrap());
        });
    }
}
