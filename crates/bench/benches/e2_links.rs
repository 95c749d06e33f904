//! E2 (§4.2) and A2: link lifecycle operations — creation, negotiated
//! creation, cascade deletion, waiting-link promotion (priority-ordered vs
//! FIFO ablation) and expiry scans.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_bench::timing::Group;
use syd_bench::{devices, env_ideal};
use syd_core::links::{Constraint, LinkRef, LinkSpec};
use syd_core::{Method, Methods, Verb};
use syd_types::{LinkId, Priority, Value};

fn main() {
    let env = env_ideal();
    let devs = devices(&env, 9);
    let group = Group("e2_links");

    // Local link creation (op 2, local half) — on its own device so the
    // accumulated rows don't distort later measurements.
    let add_dev = env.device("add-local", "pw").unwrap();
    group.bench_function("add_local", |b| {
        b.iter(|| {
            add_dev
                .links()
                .add_local(LinkSpec::subscription("bench-entity", vec![]))
                .unwrap()
        });
    });

    // Negotiated creation with peers (op 2, full: offer round + back
    // links), vs fan-out degree.
    for n in [1usize, 2, 4, 8] {
        group.bench_function(format!("create_negotiated/{n}"), |b| {
            b.iter(|| {
                let refs: Vec<LinkRef> = devs[1..=n]
                    .iter()
                    .map(|d| LinkRef::new(d.user(), "peer-entity", "act"))
                    .collect();
                let link = devs[0]
                    .links()
                    .create_negotiated(
                        LinkSpec::negotiation("bench-entity", Constraint::And, refs),
                        "back",
                    )
                    .unwrap();
                // Tear down so state doesn't accumulate.
                devs[0].links().delete(link.id, true).unwrap();
            });
        });
    }

    // Cascade deletion alone (ops 4/§4.4), vs fan-out degree.
    for n in [1usize, 4, 8] {
        group.bench_function(format!("cascade_delete/{n}"), |b| {
            b.iter_batched(
                || {
                    let refs: Vec<LinkRef> = devs[1..=n]
                        .iter()
                        .map(|d| LinkRef::new(d.user(), "peer-entity", "act"))
                        .collect();
                    devs[0]
                        .links()
                        .create_negotiated(
                            LinkSpec::negotiation("bench-entity", Constraint::And, refs),
                            "back",
                        )
                        .unwrap()
                },
                |link| devs[0].links().delete(link.id, true).unwrap(),
            );
        });
    }

    // Waiting-link promotion (op 3): delete a permanent link with W
    // waiters — the A2 ablation contrasts distinct priorities (ordered
    // scan must pick the max) against all-equal priorities (FIFO-ish).
    for &(label, distinct) in &[("priority", true), ("fifo", false)] {
        for w in [1usize, 8, 32, 128] {
            group.bench_function(format!("promotion_{label}/{w}"), |b| {
                b.iter_batched(
                    || {
                        let anchor = devs[0]
                            .links()
                            .add_local(LinkSpec::subscription("anchor", vec![]))
                            .unwrap();
                        let mut created = vec![anchor.id];
                        for i in 0..w {
                            let prio = if distinct {
                                Priority::new((i % 250) as u8)
                            } else {
                                Priority::NORMAL
                            };
                            let waiter = devs[0]
                                .links()
                                .add_local(
                                    LinkSpec::subscription(format!("w{i}"), vec![])
                                        .with_priority(prio)
                                        .waiting_on(anchor.id, i as u64),
                                )
                                .unwrap();
                            created.push(waiter.id);
                        }
                        created
                    },
                    |created: Vec<LinkId>| {
                        let report = devs[0].links().delete(created[0], false).unwrap();
                        assert!(!report.promoted.is_empty());
                        // Clean this batch's own links only — other
                        // pre-built batches must stay intact.
                        for id in &created[1..] {
                            let _ = devs[0].links().delete(*id, false);
                        }
                    },
                );
            });
        }
    }

    // Expiry scan (op 6) over a link database with N live links, none
    // expired (the steady-state cost paid on every periodic tick).
    for n in [10usize, 100, 1000] {
        // Fresh device per size so populations don't stack.
        let dev = env.device(&format!("expiry{n}"), "pw").unwrap();
        for i in 0..n {
            dev.links()
                .add_local(
                    LinkSpec::subscription(format!("e{i}"), vec![])
                        .with_expiry(syd_types::Timestamp::from_micros(i64::MAX as u64 - 1)),
                )
                .unwrap();
        }
        group.bench_function(format!("expiry_scan_live/{n}"), |b| {
            b.iter(|| {
                let expired = dev.links().expire(&dev.links().expired().unwrap());
                assert!(expired.is_empty());
            });
        });
    }

    // Method coupling (op 5): lookup + remote invocation of one coupled
    // destination.
    let svc = syd_types::ServiceName::new("bench");
    const BENCH: &syd_types::ServiceName = &syd_types::ServiceName::constant("bench");
    const COUPLED_TARGET: Verb<Vec<Value>, ()> = Verb::new(BENCH, "coupled_target");
    static TARGET: &Methods<()> = &[&Method::verb(COUPLED_TARGET, |(), _, _| Ok(()))];
    let no_state = std::sync::Arc::new(());
    devs[1].serve(&svc, &no_state, TARGET);
    devs[0]
        .links()
        .couple_method(&svc, "src", devs[1].user(), &svc, "coupled_target")
        .unwrap();
    group.bench_function("invoke_coupled", |b| {
        b.iter(|| {
            let out = devs[0].links().invoke_coupled(&svc, "src", vec![]).unwrap();
            assert_eq!(out.len(), 1);
        });
    });
}
