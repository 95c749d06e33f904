//! F1 (Figure 1): the three-layer architecture — what each layer crossing
//! costs.
//!
//! Layer 1: the device object's data store, accessed directly.
//! Layer 2: the same operation dispatched through the SyDListener
//!          (service lookup + auth-less dispatch, no network).
//! Layer 3: the same operation invoked remotely through the full stack
//!          (engine → directory-resolved address → wire codec → sim network →
//!          listener → store).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use syd_bench::timing::Group;
use syd_bench::{devices, env_ideal};
use syd_core::listener::{Listener, Method, Methods};
use syd_core::Verb;
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_telemetry::Registry;
use syd_types::{NodeAddr, RequestId, ServiceName, UserId, Value};
use syd_wire::Request;

fn slot_store() -> Store {
    let store = Store::new();
    store
        .create_table(
            Schema::new(
                "slots",
                vec![
                    Column::required("ordinal", ColumnType::I64),
                    Column::required("status", ColumnType::Str),
                ],
                &["ordinal"],
            )
            .unwrap(),
        )
        .unwrap();
    for ordinal in 0..100 {
        store
            .insert("slots", vec![Value::I64(ordinal), Value::str("free")])
            .unwrap();
    }
    store
}

fn main() {
    let group = Group("fig1_layers");

    // Layer 1: direct store access.
    let store = slot_store();
    group.bench_function("L1_store_select", |b| {
        b.iter(|| {
            store
                .select("slots", &Predicate::Eq("ordinal".into(), Value::I64(42)))
                .unwrap()
        });
    });

    // Layer 2: through the listener (local dispatch, no network).
    // select(ordinal) -> matching row count, served from a store.
    const SLOTS_SERVICE: &ServiceName = &ServiceName::constant("slots");
    /// The number of rows holding an ordinal.
    const SELECT: Verb<(i64,), u64> = Verb::new(SLOTS_SERVICE, "select");
    static SLOTS: &Methods<Store> = &[&Method::verb(SELECT, |store: &Store, _, (ordinal,)| {
        let by_ordinal = Predicate::Eq("ordinal".into(), Value::I64(ordinal));
        Ok(store.select("slots", &by_ordinal)?.len() as u64)
    })];
    let listener = Listener::new(None, &Registry::new());
    let svc = ServiceName::new("slots");
    let dispatch_store = Arc::new(store.clone());
    listener.serve(&svc, &dispatch_store, SLOTS);
    let request = Request {
        id: RequestId::new(1),
        caller: UserId::new(1),
        target: UserId::default(),
        credentials: Default::default(),
        service: svc.clone(),
        method: "select".into(),
        args: vec![Value::I64(42)].into(),
        trace: None,
    };
    group.bench_function("L2_listener_dispatch", |b| {
        b.iter(|| listener.dispatch(NodeAddr::new(1), &request).unwrap());
    });

    // Layer 3: full remote invocation (engine + wire + sim network + listener).
    let env = env_ideal();
    let devs = devices(&env, 2);
    let remote_store = Arc::new(slot_store());
    devs[1].serve(&svc, &remote_store, SLOTS);
    let target = devs[1].user();
    group.bench_function("L3_remote_invoke", |b| {
        b.iter(|| {
            devs[0]
                .engine()
                .invoke(target, &svc, "select", vec![Value::I64(42)])
                .unwrap()
        });
    });
}
