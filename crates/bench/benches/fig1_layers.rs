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
use syd_core::listener::{InvokeCtx, Listener};
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
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
    let listener = Listener::new(None);
    let svc = ServiceName::new("slots");
    let dispatch_store = store.clone();
    listener.register(
        &svc,
        "select",
        Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
            let ordinal = args[0].as_i64()?;
            Ok(Value::from(
                dispatch_store
                    .select(
                        "slots",
                        &Predicate::Eq("ordinal".into(), Value::I64(ordinal)),
                    )?
                    .len() as u64,
            ))
        }),
    );
    let request = Request {
        id: RequestId::new(1),
        caller: UserId::new(1),
        target: UserId::default(),
        credentials: vec![],
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
    let remote_store = slot_store();
    devs[1]
        .register_service(
            &svc,
            "select",
            Arc::new(move |_ctx, args: &[Value]| {
                let ordinal = args[0].as_i64()?;
                Ok(Value::from(
                    remote_store
                        .select(
                            "slots",
                            &Predicate::Eq("ordinal".into(), Value::I64(ordinal)),
                        )?
                        .len() as u64,
                ))
            }),
        )
        .unwrap();
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
