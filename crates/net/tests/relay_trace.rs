//! RPC-layer properties that need several nodes: the span trees a
//! relayed call leaves behind (a nested `rpc.client` under the server
//! context, client and server views merged), and seed determinism of
//! outcomes and `rpc.timeouts` / `rpc.retries` under simulated loss, in
//! virtual time.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;
use std::time::Duration;

use syd_net::{CallOptions, NetConfig, Network, Node};
use syd_types::{NodeAddr, ServiceName, SimClock, SydResult, Value};
use syd_wire::Request;

/// Runs `calls` echo calls on a fresh seeded network in virtual time and
/// returns `(per-call outcomes, rpc.timeouts, rpc.retries)`.
fn run_scenario(loss: f64, seed: u64, opts: CallOptions, calls: i64) -> (Vec<bool>, u64, u64) {
    let cfg = NetConfig::ideal().with_loss(loss).with_seed(seed);
    let net = Network::with_clock(cfg, Arc::new(SimClock::new()));
    let (server, client) = (Node::spawn(&net), Node::spawn(&net));
    server.set_handler(Arc::new(
        |_from: NodeAddr, req: Request| -> SydResult<Value> { Ok(Value::list(req.args.to_vec()?)) },
    ));
    let svc = ServiceName::new("echo");
    let outcomes = (0..calls)
        .map(|i| {
            client
                .call_with(server.addr(), &svc, "m", vec![Value::I64(i)], opts)
                .is_ok()
        })
        .collect();
    let counters = (client.rpc_timeouts(), client.rpc_retries());
    server.shutdown();
    client.shutdown();
    (outcomes, counters.0, counters.1)
}

/// Three-node relay on a fresh ideal network: `client → middle →
/// backend`, where middle's handler issues a nested RPC from inside
/// the dispatched request (so the nested `rpc.client` span must pick
/// up the server-side trace context). Returns the assembled span trees.
///
/// Only the three nodes' logs are drained — never the global registry —
/// so this stays correct when other tests in this binary run
/// concurrently.
fn run_traced_relay(calls: i64, drain_middle: bool) -> Vec<syd_trace::SpanTree> {
    use syd_trace::{AssemblyMode, Collector};
    let net = Network::new(NetConfig::ideal());
    let (client, middle, backend) = (Node::spawn(&net), Node::spawn(&net), Node::spawn(&net));
    backend.set_handler(Arc::new(
        |_from: NodeAddr, req: Request| -> SydResult<Value> { Ok(Value::list(req.args.to_vec()?)) },
    ));
    let (mid_caller, backend_addr) = (middle.clone(), backend.addr());
    middle.set_handler(Arc::new(
        move |_from: NodeAddr, req: Request| -> SydResult<Value> {
            // Nested call from inside the dispatched handler: its span
            // must become a child of this request's server-side context.
            mid_caller.call_with(
                backend_addr,
                &ServiceName::new("echo"),
                "m",
                req.args,
                CallOptions::new().with_timeout(Duration::from_millis(200)),
            )
        },
    ));
    let svc = ServiceName::new("echo");
    for i in 0..calls {
        client
            .call_with(
                middle.addr(),
                &svc,
                "m",
                vec![Value::I64(i)],
                CallOptions::new().with_timeout(Duration::from_millis(500)),
            )
            .expect("relay call");
    }
    let mut collector = Collector::new(AssemblyMode::Lossy);
    collector.drain(client.journal());
    if drain_middle {
        collector.drain(middle.journal());
    }
    collector.drain(backend.journal());
    for n in [&client, &middle, &backend] {
        n.shutdown();
    }
    let (trees, errors) = collector.assemble_all();
    assert!(errors.is_empty(), "lossy assembly never errors: {errors:?}");
    trees
}

#[test]
fn relayed_calls_assemble_into_complete_nested_trees() {
    let trees = run_traced_relay(3, true);
    // Every tree is the full relay: an outer rpc.client whose only
    // child is the nested rpc.client, and both hops carry their
    // server-side view (complete merge).
    assert_eq!(trees.len(), 3);
    for tree in &trees {
        assert!(tree.complete, "anomalies: {:?}", tree.anomalies);
        let expected = vec![
            ("rpc.client".to_string(), vec![]),
            ("rpc.client".to_string(), vec!["rpc.client"]),
        ];
        assert_eq!(tree.shape(), expected);
        for idx in tree.find_kind("rpc.client") {
            assert!(
                tree.nodes[idx].server.is_some(),
                "every client span keeps its merged server view"
            );
        }
    }
}

#[test]
fn dropped_span_degrades_to_flagged_incomplete_tree() {
    // The middle node's ring is never drained — its spans (the outer
    // call's server view and the nested rpc.client) are lost, as if the
    // ring evicted them under pressure. Lossy assembly must still build
    // a tree, flagged incomplete, instead of erroring out.
    let trees = run_traced_relay(1, false);
    assert_eq!(trees.len(), 1);
    let tree = &trees[0];
    assert!(
        !tree.complete,
        "a dropped span must flag the tree incomplete"
    );
    assert!(!tree.anomalies.is_empty());
    // The backend's orphaned server view survives as a synthesized node
    // instead of vanishing.
    assert!(!tree.find_kind("rpc.server").is_empty());
}

#[test]
fn timeout_and_retry_counters_repeat_for_the_same_seed() {
    // Latency is zero in these configs, so a timeout can only come from
    // a lost request or response — which the seed fully determines. The
    // deadlines are virtual: a busy host stalls a delivered reply in wall
    // time only, so no deadline passes while the reply is on its way.
    for &loss in &[0.0, 0.5, 0.75] {
        for seed in 1..=3u64 {
            for &retries in &[0u32, 2] {
                let opts = CallOptions::new()
                    .with_timeout(Duration::from_millis(60))
                    .with_retries(retries);
                assert_eq!(
                    run_scenario(loss, seed, opts, 3),
                    run_scenario(loss, seed, opts, 3),
                    "two runs diverged at loss={loss} seed={seed} retries={retries} \
                     (outcomes, rpc.timeouts, rpc.retries)"
                );
            }
        }
    }
}
