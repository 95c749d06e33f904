//! A visit through a key range answers exactly what a full scan answers.
//!
//! The same rows live in three tables: keyed on `k` (a one-comparison
//! predicate on `k` is answered by the key range alone), indexed on `k`
//! (the range is re-checked row by row) and plain (every row is scanned
//! and checked). Every comparison the planner turns into a range, alone
//! and inside a conjunction, is asked of all three at the edges of the
//! stored keys: below, at and above each end, in a gap, and with a float
//! bound that compares across types.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_types::{Text, Value};

/// Stored keys, with gaps; `v` is null on the odd ones.
const KEYS: [i64; 6] = [1, 2, 3, 5, 8, 9];

fn store() -> Store {
    let store = Store::new();
    for (name, key) in [("keyed", &["k"][..]), ("indexed", &[]), ("plain", &[])] {
        let columns = vec![
            Column::required("k", ColumnType::I64),
            Column::nullable("v", ColumnType::I64),
        ];
        store
            .create_table(Schema::new(name, columns, key).unwrap())
            .unwrap();
        for k in KEYS {
            let v = if k % 2 == 0 {
                Value::I64(10 * k)
            } else {
                Value::Null
            };
            store.insert(name, vec![Value::I64(k), v]).unwrap();
        }
    }
    store.create_index("indexed", "k").unwrap();
    store
}

/// The `k` of every row `pred` selects from `table`, in key order.
fn keys(store: &Store, table: &str, pred: &Predicate) -> Vec<i64> {
    let mut out: Vec<i64> = store
        .select(table, pred)
        .unwrap()
        .iter()
        .map(|row| row.values[0].as_i64().unwrap())
        .collect();
    out.sort_unstable();
    out
}

/// Bounds at and around every edge of `KEYS`.
fn edges() -> Vec<Value> {
    let mut values: Vec<Value> = [0, 1, 2, 4, 5, 8, 9, 10].map(Value::I64).into();
    values.extend([2.5, 3.0].map(Value::F64));
    values
}

/// Every single comparison on `k` the planner bounds, at every edge.
fn comparisons() -> Vec<Predicate> {
    let k = || Text::from("k");
    let mut preds = Vec::new();
    for v in edges() {
        preds.push(Predicate::Eq(k(), v.clone()));
        preds.push(Predicate::Lt(k(), v.clone()));
        preds.push(Predicate::Le(k(), v.clone()));
        preds.push(Predicate::Gt(k(), v.clone()));
        preds.push(Predicate::Ge(k(), v.clone()));
        for hi in edges() {
            // Includes `lo == hi` and the empty `lo > hi`.
            preds.push(Predicate::Between(k(), v.clone(), hi));
        }
    }
    preds
}

fn assert_same_answer(store: &Store, pred: &Predicate) {
    let scanned = keys(store, "plain", pred);
    assert_eq!(keys(store, "keyed", pred), scanned, "key range: {pred:?}");
    assert_eq!(
        keys(store, "indexed", pred),
        scanned,
        "index range: {pred:?}"
    );
}

#[test]
fn one_comparison_on_the_key_answers_as_a_scan_does() {
    let store = store();
    for pred in comparisons() {
        assert_same_answer(&store, &pred);
    }
    // The strict bounds exclude the stored key they name.
    let lt = Predicate::Lt("k".into(), Value::I64(5));
    assert_eq!(keys(&store, "keyed", &lt), [1, 2, 3]);
    let gt = Predicate::Gt("k".into(), Value::I64(5));
    assert_eq!(keys(&store, "keyed", &gt), [8, 9]);
}

#[test]
fn a_comparison_inside_a_conjunction_answers_as_a_scan_does() {
    let store = store();
    let has_v = || Predicate::Not(Box::new(Predicate::IsNull("v".into())));
    for pred in comparisons() {
        assert_same_answer(&store, &Predicate::And(vec![pred.clone()]));
        assert_same_answer(&store, &pred.clone().and(has_v()));
        assert_same_answer(&store, &has_v().and(pred.clone()));
        // Two ranges on the key: the first bounds the visit, the second is
        // re-checked.
        let upper = Predicate::Le("k".into(), Value::I64(5));
        assert_same_answer(&store, &pred.and(upper));
    }
}
