//! One statement path keeps every statement's meaning: random insert /
//! update / delete / `get_by_key` / `visit` sequences against a
//! `BTreeMap` model, on a one-cell key (NaN among its values) and on a
//! composite one, with no trigger, with a before-trigger that vetoes and
//! with an after-trigger that records what it saw, inside and outside
//! transactions.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use syd_store::{Column, ColumnType, Predicate, Schema, Store, Trigger, TriggerEvent, Txn};
use syd_types::rng::{cases, Rng};
use syd_types::{SydError, SydResult, Text, Value};

/// The one-cell keys, in the store's total order; NaN sorts last and
/// equals itself.
const FLOATS: [f64; 6] = [-1.5, 0.0, 2.0, 3.25, f64::INFINITY, f64::NAN];
/// The second cell of a composite key.
const TAGS: [&str; 3] = ["x", "y", "z"];

/// A table shape: how a model key (an index in key order) becomes cells,
/// a predicate and assignments, and back.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Shape {
    /// `(k F64 key, payload)`.
    One,
    /// `(a I64, b Str, payload)`, keyed on `(a, b)`.
    Two,
}

impl Shape {
    fn keys(self) -> usize {
        match self {
            Shape::One => FLOATS.len(),
            Shape::Two => 4 * TAGS.len(),
        }
    }

    /// The key cells of model key `k`; `alias` spells an equal key
    /// differently where one exists (`-0.0` for `0.0`, `I64` for a whole
    /// float).
    fn cells(self, k: usize, alias: bool) -> Vec<Value> {
        match self {
            Shape::One if alias && FLOATS[k] == 0.0 => vec![Value::F64(-0.0)],
            Shape::One if alias && FLOATS[k] == 2.0 => vec![Value::I64(2)],
            Shape::One => vec![Value::F64(FLOATS[k])],
            Shape::Two => vec![
                Value::I64((k / TAGS.len()) as i64),
                Value::str(TAGS[k % TAGS.len()]),
            ],
        }
    }

    fn columns(self) -> &'static [&'static str] {
        match self {
            Shape::One => &["k"],
            Shape::Two => &["a", "b"],
        }
    }

    fn row(self, k: usize, payload: i64) -> Vec<Value> {
        let mut row = self.cells(k, false);
        row.push(Value::I64(payload));
        row
    }

    fn key_is(self, k: usize) -> Predicate {
        let mut eqs = (self.columns().iter())
            .zip(self.cells(k, false))
            .map(|(c, v)| Predicate::Eq((*c).into(), v));
        let first = eqs.next().unwrap();
        eqs.fold(first, Predicate::and)
    }

    fn rekey_to(self, k: usize) -> Vec<(Text, Value)> {
        let cells = self.cells(k, false);
        (self.columns().iter())
            .map(|c| Text::from(*c))
            .zip(cells)
            .collect()
    }

    /// `(model key, payload)` of a stored row.
    fn decode(self, row: &[Value]) -> (usize, i64) {
        let k = match self {
            Shape::One => {
                let v = row[0].as_f64().unwrap();
                FLOATS
                    .iter()
                    .position(|f| f.total_cmp(&v).is_eq() || *f == v)
                    .unwrap()
            }
            Shape::Two => {
                let a = row[0].as_i64().unwrap() as usize;
                a * TAGS.len()
                    + TAGS
                        .iter()
                        .position(|t| *t == row[1].as_str().unwrap())
                        .unwrap()
            }
        };
        (k, row.last().unwrap().as_i64().unwrap())
    }

    fn store(self, indexed: bool) -> Store {
        let store = Store::new();
        let schema = match self {
            Shape::One => Schema::new(
                "t",
                vec![
                    Column::required("k", ColumnType::F64),
                    Column::required("payload", ColumnType::I64),
                ],
                &["k"],
            ),
            Shape::Two => Schema::new(
                "t",
                vec![
                    Column::required("a", ColumnType::I64),
                    Column::required("b", ColumnType::Str),
                    Column::required("payload", ColumnType::I64),
                ],
                &["a", "b"],
            ),
        };
        store.create_table(schema.unwrap()).unwrap();
        if indexed {
            store.create_index("t", "payload").unwrap();
        }
        store
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert { k: usize, payload: i64 },
    SetPayload { k: usize, payload: i64 },
    SetAllPayloads { payload: i64 },
    Rekey { k: usize, to: usize },
    RekeyAll { to: usize },
    Delete { k: usize },
    DeleteBelow { payload: i64 },
}

fn arb_op(rng: &mut Rng, shape: Shape) -> Op {
    let key = |rng: &mut Rng| rng.below(shape.keys() as u64) as usize;
    let payload = |rng: &mut Rng| rng.below(20) as i64;
    match rng.below(10) {
        0..=2 => Op::Insert {
            k: key(rng),
            payload: payload(rng),
        },
        3 | 4 => Op::SetPayload {
            k: key(rng),
            payload: payload(rng),
        },
        5 => Op::SetAllPayloads {
            payload: payload(rng),
        },
        6 => Op::Rekey {
            k: key(rng),
            to: key(rng),
        },
        7 => Op::RekeyAll { to: key(rng) },
        8 => Op::Delete { k: key(rng) },
        _ => Op::DeleteBelow {
            payload: payload(rng),
        },
    }
}

type Model = BTreeMap<usize, i64>;

/// One applied row change, in model terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    Inserted((usize, i64)),
    Updated((usize, i64), (usize, i64)),
    Deleted((usize, i64)),
}

/// What the before-trigger of a vetoing run refuses: a row whose new
/// payload (an insert's, an update's) or old payload (a delete's) is a
/// multiple of five.
fn vetoed(payload: i64) -> bool {
    payload % 5 == 0
}

/// What `op` does to `model`: the changes it applies, or `None` when the
/// statement fails and changes nothing.
fn plan(model: &Model, op: Op, veto: bool) -> Option<Vec<Change>> {
    let updates = |rows: Vec<(usize, i64)>, new: &dyn Fn(usize, i64) -> (usize, i64)| {
        let changes: Vec<Change> = (rows.iter())
            .map(|&(k, p)| Change::Updated((k, p), new(k, p)))
            .collect();
        let vetoes = changes
            .iter()
            .any(|c| matches!(c, Change::Updated(_, (_, p)) if veto && vetoed(*p)));
        (!vetoes).then_some(changes)
    };
    let row = |k: usize| model.get(&k).map(|&p| (k, p));
    let all: Vec<(usize, i64)> = model.iter().map(|(&k, &p)| (k, p)).collect();
    match op {
        Op::Insert { k, payload } => {
            let refused = model.contains_key(&k) || (veto && vetoed(payload));
            (!refused).then(|| vec![Change::Inserted((k, payload))])
        }
        Op::SetPayload { k, payload } => {
            updates(row(k).into_iter().collect(), &|k, _| (k, payload))
        }
        Op::SetAllPayloads { payload } => updates(all, &|k, _| (k, payload)),
        Op::Rekey { k, to } => {
            let collides = row(k).is_some() && to != k && model.contains_key(&to);
            if collides {
                return None;
            }
            updates(row(k).into_iter().collect(), &|_, p| (to, p))
        }
        // Two rows of one statement moving onto one key collide.
        Op::RekeyAll { .. } if all.len() >= 2 => None,
        Op::RekeyAll { to } => updates(all, &|_, p| (to, p)),
        Op::Delete { k } => {
            let doomed: Vec<Change> = row(k).into_iter().map(Change::Deleted).collect();
            let vetoes = veto
                && doomed
                    .iter()
                    .any(|c| matches!(c, Change::Deleted((_, p)) if vetoed(*p)));
            (!vetoes).then_some(doomed)
        }
        Op::DeleteBelow { payload } => {
            let doomed: Vec<Change> = (all.into_iter())
                .filter(|&(_, p)| p < payload)
                .map(Change::Deleted)
                .collect();
            let vetoes = veto
                && doomed
                    .iter()
                    .any(|c| matches!(c, Change::Deleted((_, p)) if vetoed(*p)));
            (!vetoes).then_some(doomed)
        }
    }
}

fn apply_to_model(model: &mut Model, changes: &[Change]) {
    for change in changes {
        if let Change::Updated((k, _), _) | Change::Deleted((k, _)) = change {
            model.remove(k);
        }
    }
    for change in changes {
        if let Change::Inserted((k, p)) | Change::Updated(_, (k, p)) = change {
            model.insert(*k, *p);
        }
    }
}

/// Where statements go: the store itself, or an open transaction.
enum Target<'a> {
    Store(&'a Store),
    Txn(&'a mut Txn),
}

fn run(target: &mut Target<'_>, shape: Shape, op: Op) -> SydResult<usize> {
    let payload_is = |p: i64| [("payload".into(), Value::I64(p))];
    let below = |p: i64| Predicate::Lt("payload".into(), Value::I64(p));
    match (target, op) {
        (Target::Store(s), Op::Insert { k, payload }) => {
            s.insert("t", shape.row(k, payload)).map(|_| 1)
        }
        (Target::Txn(t), Op::Insert { k, payload }) => {
            t.insert("t", shape.row(k, payload)).map(|_| 1)
        }
        (Target::Store(s), Op::SetPayload { k, payload }) => {
            s.update("t", &shape.key_is(k), &payload_is(payload))
        }
        (Target::Txn(t), Op::SetPayload { k, payload }) => {
            t.update("t", &shape.key_is(k), &payload_is(payload))
        }
        (Target::Store(s), Op::SetAllPayloads { payload }) => {
            s.update("t", &Predicate::True, &payload_is(payload))
        }
        (Target::Txn(t), Op::SetAllPayloads { payload }) => {
            t.update("t", &Predicate::True, &payload_is(payload))
        }
        (Target::Store(s), Op::Rekey { k, to }) => {
            s.update("t", &shape.key_is(k), &shape.rekey_to(to)[..])
        }
        (Target::Txn(t), Op::Rekey { k, to }) => {
            t.update("t", &shape.key_is(k), &shape.rekey_to(to))
        }
        (Target::Store(s), Op::RekeyAll { to }) => {
            s.update("t", &Predicate::True, &shape.rekey_to(to)[..])
        }
        (Target::Txn(t), Op::RekeyAll { to }) => {
            t.update("t", &Predicate::True, &shape.rekey_to(to))
        }
        (Target::Store(s), Op::Delete { k }) => s.delete("t", &shape.key_is(k)),
        (Target::Txn(t), Op::Delete { k }) => t.delete("t", &shape.key_is(k)),
        (Target::Store(s), Op::DeleteBelow { payload }) => s.delete("t", &below(payload)),
        (Target::Txn(t), Op::DeleteBelow { payload }) => t.delete("t", &below(payload)),
    }
}

/// The store holds exactly the model: by `visit` (in key order, for a
/// key range) and by `get_by_key` under every spelling of every key.
fn check(store: &Store, shape: Shape, model: &Model) {
    let mut rows = Vec::new();
    store
        .visit("t", &Predicate::True, |row| {
            rows.push(shape.decode(row));
            Ok(())
        })
        .unwrap();
    rows.sort_unstable();
    assert_eq!(
        rows,
        model.iter().map(|(&k, &p)| (k, p)).collect::<Vec<_>>()
    );
    assert_eq!(store.row_count("t").unwrap(), model.len());
    for k in 0..shape.keys() {
        for alias in [false, true] {
            let got = store.get_by_key("t", &shape.cells(k, alias)).unwrap();
            let got = got.map(|row| shape.decode(&row.values));
            assert_eq!(
                got,
                model.get(&k).map(|&p| (k, p)),
                "key {k} (alias {alias})"
            );
        }
    }
}

/// What the recording after-trigger saw, as model changes.
type Seen = Arc<Mutex<Vec<Change>>>;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Triggers {
    None,
    Veto,
    Record,
}

fn install(store: &Store, shape: Shape, triggers: Triggers) -> Seen {
    let seen = Seen::default();
    let every = vec![
        TriggerEvent::Insert,
        TriggerEvent::Update,
        TriggerEvent::Delete,
    ];
    match triggers {
        Triggers::None => {}
        Triggers::Veto => {
            let trigger = Trigger::before("veto", "t", every, |ctx| {
                let row = ctx.new.or(ctx.old).unwrap();
                if vetoed(row.last().unwrap().as_i64()?) {
                    return Err(SydError::App("vetoed".into()));
                }
                Ok(())
            });
            store.add_trigger(trigger).unwrap();
        }
        Triggers::Record => {
            let log = Arc::clone(&seen);
            let trigger = Trigger::after("record", "t", every, move |ctx| {
                assert!(ctx.store.is_some(), "an after-trigger gets the store");
                let (old, new) = (
                    ctx.old.map(|r| shape.decode(r)),
                    ctx.new.map(|r| shape.decode(r)),
                );
                let change = match (ctx.event, old, new) {
                    (TriggerEvent::Insert, None, Some(new)) => Change::Inserted(new),
                    (TriggerEvent::Update, Some(old), Some(new)) => Change::Updated(old, new),
                    (TriggerEvent::Delete, Some(old), None) => Change::Deleted(old),
                    other => panic!("a change of the wrong shape: {other:?}"),
                };
                log.lock().unwrap().push(change);
                Ok(())
            });
            store.add_trigger(trigger).unwrap();
        }
    }
    seen
}

/// Runs `op` on `target` and checks its outcome against the plan: the
/// count, the error, and (recording) exactly the planned changes seen.
fn step(
    target: &mut Target<'_>,
    shape: Shape,
    model: &mut Model,
    op: Op,
    triggers: Triggers,
    seen: &Seen,
) {
    let planned = plan(model, op, triggers == Triggers::Veto);
    let result = run(target, shape, op);
    let mut saw = std::mem::take(&mut *seen.lock().unwrap());
    match planned {
        Some(mut changes) => {
            assert_eq!(
                result.as_ref().ok(),
                Some(&changes.len()),
                "{op:?} on {model:?}"
            );
            if triggers == Triggers::Record {
                saw.sort_unstable();
                changes.sort_unstable();
                assert_eq!(saw, changes, "{op:?}: what the after-trigger saw");
            }
            apply_to_model(model, &changes);
        }
        None => {
            assert!(
                result.is_err(),
                "{op:?} on {model:?} should fail: {result:?}"
            );
            assert!(saw.is_empty(), "{op:?} failed, yet {saw:?} fired");
        }
    }
}

fn property(shape: Shape, triggers: Triggers) {
    cases(48, |rng| {
        let store = shape.store(rng.chance(1, 2));
        let seen = install(&store, shape, triggers);
        let mut model = Model::new();
        for _ in 0..1 + rng.below(40) {
            if rng.chance(1, 6) {
                // A transaction of a few statements, rolled back or kept.
                let before = model.clone();
                let mut txn = store.begin();
                for _ in 0..1 + rng.below(4) {
                    let op = arb_op(rng, shape);
                    step(
                        &mut Target::Txn(&mut txn),
                        shape,
                        &mut model,
                        op,
                        triggers,
                        &seen,
                    );
                }
                check(&store, shape, &model);
                if rng.chance(1, 2) {
                    txn.rollback().unwrap();
                    model = before;
                } else {
                    txn.commit();
                }
                assert_eq!(store.locks().held_count(), 0);
            } else {
                let op = arb_op(rng, shape);
                step(
                    &mut Target::Store(&store),
                    shape,
                    &mut model,
                    op,
                    triggers,
                    &seen,
                );
            }
            check(&store, shape, &model);
        }
    });
}

#[test]
fn one_cell_keys_without_triggers() {
    property(Shape::One, Triggers::None);
}

#[test]
fn one_cell_keys_under_a_vetoing_before_trigger() {
    property(Shape::One, Triggers::Veto);
}

#[test]
fn one_cell_keys_under_a_recording_after_trigger() {
    property(Shape::One, Triggers::Record);
}

#[test]
fn composite_keys_without_triggers() {
    property(Shape::Two, Triggers::None);
}

#[test]
fn composite_keys_under_a_vetoing_before_trigger() {
    property(Shape::Two, Triggers::Veto);
}

#[test]
fn composite_keys_under_a_recording_after_trigger() {
    property(Shape::Two, Triggers::Record);
}

/// Rolling back undoes an update and a delete of a transaction, the
/// re-keying ones included, without firing a trigger.
#[test]
fn rollback_after_an_update_and_after_a_delete() {
    for shape in [Shape::One, Shape::Two] {
        let store = shape.store(true);
        let seen = install(&store, shape, Triggers::Record);
        for k in 0..3 {
            store.insert("t", shape.row(k, 10 + k as i64)).unwrap();
        }
        let before: Model = (0..3).map(|k| (k, 10 + k as i64)).collect();
        seen.lock().unwrap().clear();
        let mut txn = store.begin();
        assert_eq!(
            txn.update("t", &shape.key_is(0), &shape.rekey_to(5))
                .unwrap(),
            1
        );
        assert_eq!(
            txn.update("t", &Predicate::True, &[("payload".into(), Value::I64(1))])
                .unwrap(),
            3
        );
        assert_eq!(txn.delete("t", &shape.key_is(1)).unwrap(), 1);
        let during: Model = [(2, 1), (5, 1)].into();
        check(&store, shape, &during);
        assert_eq!(seen.lock().unwrap().len(), 5, "1 + 3 + 1 changes fired");
        txn.rollback().unwrap();
        check(&store, shape, &before);
        assert_eq!(seen.lock().unwrap().len(), 5, "a rollback fires nothing");
        assert_eq!(store.locks().held_count(), 0);
    }
}
