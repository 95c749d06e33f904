//! F4 (Figure 4): the negotiation protocol — the UML activity diagram's
//! negotiation-or over three objects, plus constraint and group-size
//! sweeps.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

#[path = "../tests/support/mod.rs"]
mod support;

use std::sync::Arc;

use support::timing::Group;
use support::{devices, env_ideal};
use syd_types::sync::{Mutex, Rank};

use syd_core::negotiate::Participant;
use syd_core::{DeviceRuntime, EntityHandler};
use syd_types::{SydResult, Value};

/// Entity handler that accepts everything and applies to a counter —
/// minimal app logic so the protocol itself dominates.
struct CountingHandler(Arc<Mutex<u64>>);

impl EntityHandler for CountingHandler {
    fn prepare(&self, _entity: &str, _change: &Value) -> SydResult<()> {
        Ok(())
    }
    fn commit(&self, _entity: &str, _change: Value) -> SydResult<()> {
        *self.0.lock() += 1;
        Ok(())
    }
    fn abort(&self, _entity: &str, _change: &Value) {}
}

fn install_handlers(devs: &[DeviceRuntime]) {
    for dev in devs {
        dev.set_entity_handler(Arc::new(CountingHandler(Arc::new(Mutex::new(
            Rank::Leaf,
            0,
        )))));
    }
}

fn participants(devs: &[DeviceRuntime], n: usize, entity: &str) -> Vec<Participant> {
    devs[..n]
        .iter()
        .map(|d| Participant::new(d.user(), entity, Value::str("change")))
        .collect()
}

fn main() {
    let env = env_ideal();
    let devs = devices(&env, 64);
    install_handlers(&devs);
    let coordinator = devs[0].clone();

    let group = Group("fig4_negotiation");

    // The figure's exact case: negotiation-or, three objects, A activates.
    let parts3 = participants(&devs, 3, "fig4-entity");
    group.bench_function("or_3_objects_figure4", |b| {
        b.iter(|| coordinator.negotiator().negotiate_or(1, &parts3).unwrap());
    });

    // Constraint comparison at n = 3.
    group.bench_function("and_3_objects", |b| {
        b.iter(|| coordinator.negotiator().negotiate_and(&parts3).unwrap());
    });
    group.bench_function("xor_3_objects", |b| {
        b.iter(|| coordinator.negotiator().negotiate_xor(1, &parts3).unwrap());
    });

    // Group-size sweep for negotiation-and (the calendar's workhorse).
    for n in [2usize, 4, 8, 16, 32, 64] {
        let parts = participants(&devs, n, "sweep-entity");
        group.bench_function(format!("and_n/{n}"), |b| {
            b.iter(|| {
                let outcome = coordinator.negotiator().negotiate_and(&parts).unwrap();
                assert!(outcome.satisfied);
            });
        });
    }

    // k-of-n sweep at n = 16.
    let parts16 = participants(&devs, 16, "k-entity");
    for k in [1u32, 4, 8, 12, 16] {
        group.bench_function(format!("at_least_k_of_16/{k}"), |b| {
            b.iter(|| {
                let outcome = coordinator.negotiator().negotiate_or(k, &parts16).unwrap();
                assert!(outcome.satisfied);
            });
        });
    }
}
