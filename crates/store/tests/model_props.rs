//! Model-based property tests: the store against a naive in-memory model
//! under random operation sequences.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::collections::BTreeMap;

use syd_store::{Column, ColumnType, Predicate, Row, Schema, Store};
use syd_types::rng::{cases, Rng};
use syd_types::Value;

#[derive(Clone, Debug)]
enum Op {
    Insert { key: i64, payload: i64 },
    UpdatePayload { key: i64, payload: i64 },
    Delete { key: i64 },
    DeleteRange { lo: i64, hi: i64 },
}

fn arb_op(rng: &mut Rng) -> Op {
    let key = rng.below(30) as i64;
    match rng.below(4) {
        0 => Op::Insert {
            key,
            payload: rng.any_u64() as i64,
        },
        1 => Op::UpdatePayload {
            key,
            payload: rng.any_u64() as i64,
        },
        2 => Op::Delete { key },
        _ => {
            let other = rng.below(30) as i64;
            Op::DeleteRange {
                lo: key.min(other),
                hi: key.max(other),
            }
        }
    }
}

/// Between 1 and `max` operations.
fn arb_ops(rng: &mut Rng, max: u64) -> Vec<Op> {
    (0..1 + rng.below(max)).map(|_| arb_op(rng)).collect()
}

fn fresh_store(indexed: bool) -> Store {
    let store = Store::new();
    store
        .create_table(
            Schema::new(
                "t",
                vec![
                    Column::required("key", ColumnType::I64),
                    Column::required("payload", ColumnType::I64),
                ],
                &["key"],
            )
            .unwrap(),
        )
        .unwrap();
    if indexed {
        store.create_index("t", "payload").unwrap();
    }
    store
}

fn apply(store: &Store, model: &mut BTreeMap<i64, i64>, op: &Op) {
    match op {
        Op::Insert { key, payload } => {
            let result = store.insert("t", vec![Value::I64(*key), Value::I64(*payload)]);
            if model.contains_key(key) {
                assert!(result.is_err(), "duplicate PK must be rejected");
            } else {
                result.unwrap();
                model.insert(*key, *payload);
            }
        }
        Op::UpdatePayload { key, payload } => {
            let n = store
                .update(
                    "t",
                    &Predicate::Eq("key".into(), Value::I64(*key)),
                    &[("payload".into(), Value::I64(*payload))],
                )
                .unwrap();
            if let Some(entry) = model.get_mut(key) {
                assert_eq!(n, 1);
                *entry = *payload;
            } else {
                assert_eq!(n, 0);
            }
        }
        Op::Delete { key } => {
            let n = store
                .delete("t", &Predicate::Eq("key".into(), Value::I64(*key)))
                .unwrap();
            assert_eq!(n, usize::from(model.remove(key).is_some()));
        }
        Op::DeleteRange { lo, hi } => {
            let n = store
                .delete(
                    "t",
                    &Predicate::Between("key".into(), Value::I64(*lo), Value::I64(*hi)),
                )
                .unwrap();
            let keys: Vec<i64> = model.range(*lo..=*hi).map(|(k, _)| *k).collect();
            assert_eq!(n, keys.len());
            for k in keys {
                model.remove(&k);
            }
        }
    }
}

/// Rows a read was handed and kept, each with the model's answer at that
/// moment: whatever the sequence does next, they must still say it.
type Held = Vec<(Vec<Row>, Vec<(i64, i64)>)>;

fn cells(row: &Row) -> (i64, i64) {
    (
        row.values[0].as_i64().unwrap(),
        row.values[1].as_i64().unwrap(),
    )
}

/// The read op: selects a random key range and holds on to the rows.
fn read_and_hold(rng: &mut Rng, store: &Store, model: &BTreeMap<i64, i64>, held: &mut Held) {
    let (a, b) = (rng.below(30) as i64, rng.below(30) as i64);
    let (lo, hi) = (a.min(b), a.max(b));
    let range = Predicate::Between("key".into(), Value::I64(lo), Value::I64(hi));
    let mut rows = store.select("t", &range).unwrap();
    rows.sort_by_key(|row| cells(row).0);
    held.push((rows, model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()));
}

/// Every held row still reads what the model said when it was read.
fn check_held(held: &Held) {
    for (rows, expected) in held {
        assert_eq!(&rows.iter().map(cells).collect::<Vec<_>>(), expected);
    }
}

fn check_equivalence(store: &Store, model: &BTreeMap<i64, i64>) {
    // Row count and full contents.
    assert_eq!(store.row_count("t").unwrap(), model.len());
    let mut rows: Vec<(i64, i64)> = store
        .select("t", &Predicate::True)
        .unwrap()
        .iter()
        .map(cells)
        .collect();
    rows.sort_unstable();
    let expected: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(rows, expected);

    // Point lookups agree.
    for key in 0..30i64 {
        let got = store
            .get_by_key("t", &[Value::I64(key)])
            .unwrap()
            .map(|r| r.values[1].as_i64().unwrap());
        assert_eq!(got, model.get(&key).copied(), "key {key}");
    }
}

#[test]
fn store_matches_model() {
    cases(64, |rng| {
        let store = fresh_store(false);
        let (mut model, mut held) = (BTreeMap::new(), Held::new());
        for op in &arb_ops(rng, 59) {
            apply(&store, &mut model, op);
            if rng.below(4) == 0 {
                read_and_hold(rng, &store, &model, &mut held);
            }
        }
        check_equivalence(&store, &model);
        check_held(&held);
    });
}

/// The same sequences with a secondary index active: results must be
/// identical (the index is an optimization, never a semantic change).
#[test]
fn indexed_store_matches_model() {
    cases(64, |rng| {
        let store = fresh_store(true);
        let (mut model, mut held) = (BTreeMap::new(), Held::new());
        for op in &arb_ops(rng, 59) {
            apply(&store, &mut model, op);
            if rng.below(4) == 0 {
                read_and_hold(rng, &store, &model, &mut held);
            }
        }
        check_equivalence(&store, &model);
        check_held(&held);
        // Index-served query agrees with a model filter.
        for payload in [-1i64, 0, 1] {
            let via_index = store
                .select("t", &Predicate::Eq("payload".into(), Value::I64(payload)))
                .unwrap()
                .len();
            let via_model = model.values().filter(|&&v| v == payload).count();
            assert_eq!(via_index, via_model);
        }
    });
}

/// Snapshot round trips preserve arbitrary store states.
#[test]
fn snapshot_preserves_random_states() {
    cases(64, |rng| {
        let store = fresh_store(true);
        let mut model = BTreeMap::new();
        for op in &arb_ops(rng, 39) {
            apply(&store, &mut model, op);
        }
        let restored = Store::from_snapshot(&store.snapshot()).unwrap();
        check_equivalence(&restored, &model);
    });
}

/// A rolled-back transaction leaves no trace, no matter what it did.
#[test]
fn rollback_is_total() {
    cases(64, |rng| {
        let store = fresh_store(false);
        let mut model = BTreeMap::new();
        for op in &arb_ops(rng, 19) {
            apply(&store, &mut model, op);
        }
        let before = store.select("t", &Predicate::True).unwrap();

        let mut txn = store.begin();
        for op in &arb_ops(rng, 19) {
            // Transactions tolerate failing statements (e.g. duplicate PK).
            match op {
                Op::Insert { key, payload } => {
                    let _ = txn.insert("t", vec![Value::I64(*key), Value::I64(*payload)]);
                }
                Op::UpdatePayload { key, payload } => {
                    let _ = txn.update(
                        "t",
                        &Predicate::Eq("key".into(), Value::I64(*key)),
                        &[("payload".into(), Value::I64(*payload))],
                    );
                }
                Op::Delete { key } => {
                    let _ = txn.delete("t", &Predicate::Eq("key".into(), Value::I64(*key)));
                }
                Op::DeleteRange { lo, hi } => {
                    let _ = txn.delete(
                        "t",
                        &Predicate::Between("key".into(), Value::I64(*lo), Value::I64(*hi)),
                    );
                }
            }
        }
        txn.rollback().unwrap();

        let after = store.select("t", &Predicate::True).unwrap();
        assert_eq!(before, after);
        assert_eq!(store.locks().held_count(), 0);
        check_equivalence(&store, &model);
    });
}
