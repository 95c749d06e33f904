//! E8: the network/RPC substrate — codec costs, round trips under
//! different latency models, loss-retry behaviour, and fan-out capacity.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;
use std::time::Duration;

use syd_bench::timing::Group;
use syd_net::{CallOptions, LatencyModel, NetConfig, Network, Node, RequestHandler};
use syd_types::{NodeAddr, RequestId, ServiceName, SydResult, UserId, Value};
use syd_wire::{decode_from_slice, encode_to_vec, Envelope, Payload, Request};

fn echo_handler() -> Arc<dyn RequestHandler> {
    Arc::new(|_from: NodeAddr, req: Request| -> SydResult<Value> {
        Ok(Value::list(req.args.to_vec()))
    })
}

fn sample_envelope(args: usize) -> Envelope {
    Envelope::new(
        NodeAddr::new(1),
        NodeAddr::new(2),
        Payload::Request(Request {
            id: RequestId::new(77),
            caller: UserId::new(1),
            target: UserId::new(2),
            credentials: vec![0xAA; 24],
            service: ServiceName::new("calendar"),
            method: "free_slots".into(),
            args: (0..args as i64).map(Value::I64).collect::<Vec<_>>().into(),
            trace: None,
        }),
    )
}

fn main() {
    let group = Group("e8_net");

    // Wire codec.
    for args in [0usize, 8, 64] {
        let env = sample_envelope(args);
        let bytes = encode_to_vec(&env);
        group.bench_function(format!("encode/{args}"), |b| {
            b.iter(|| encode_to_vec(&env));
        });
        group.bench_function(format!("decode/{args}"), |b| {
            b.iter(|| decode_from_slice::<Envelope>(&bytes).unwrap());
        });
    }

    // RPC round trip on an ideal network.
    let net = Network::ideal();
    let server = Node::spawn(&net);
    server.set_handler(echo_handler());
    let client = Node::spawn(&net);
    let svc = ServiceName::new("echo");
    group.bench_function("rpc_round_trip_ideal", |b| {
        b.iter(|| {
            client
                .call(server.addr(), &svc, "m", vec![Value::I64(1)])
                .unwrap()
        });
    });

    // Round trip under the paper's wireless-LAN latency (sanity anchor:
    // should sit near 2×(2–5 ms)).
    let lan = Network::new(NetConfig::ideal().with_latency(LatencyModel::wireless_lan()));
    let lan_server = Node::spawn(&lan);
    lan_server.set_handler(echo_handler());
    let lan_client = Node::spawn(&lan);
    group.bench_function("rpc_round_trip_wireless", |b| {
        b.iter(|| {
            lan_client
                .call(lan_server.addr(), &svc, "m", vec![Value::I64(1)])
                .unwrap()
        });
    });

    // Retry behaviour under loss: expected extra round trips.
    let lossy = Network::new(NetConfig::ideal().with_loss(0.2).with_seed(11));
    let lossy_server = Node::spawn(&lossy);
    lossy_server.set_handler(echo_handler());
    let lossy_client = Node::spawn(&lossy);
    let opts = CallOptions::new()
        .with_timeout(Duration::from_millis(20))
        .with_retries(50);
    group.bench_function("rpc_20pct_loss_with_retries", |b| {
        b.iter(|| {
            lossy_client
                .call_with(lossy_server.addr(), &svc, "m", vec![Value::I64(1)], opts)
                .unwrap()
        });
    });

    // Async fan-out capacity: 64 overlapped requests to one server.
    group.bench_function("fan_out_64_async", |b| {
        b.iter(|| {
            let calls: Vec<_> = (0..64)
                .map(|i| {
                    client
                        .call_async(server.addr(), &svc, "m", vec![Value::I64(i)])
                        .unwrap()
                })
                .collect();
            for call in calls {
                call.wait(Duration::from_secs(2)).unwrap();
            }
        });
    });
}
