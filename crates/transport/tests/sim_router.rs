//! Behavioural tests for the simulated backend, carried over verbatim
//! from `syd-net`'s router module when the simulator moved into
//! `syd-transport` — the move must not change router semantics.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::time::{Duration, Instant};

use syd_telemetry::names;
use syd_transport::{Endpoint, LatencyModel, NetConfig, Network};
use syd_types::{NodeAddr, RequestId, ServiceName, SydError, UserId, Value};
use syd_wire::{EventMsg, Payload, Request};

fn event(topic: &str) -> Payload {
    Payload::Event(EventMsg {
        topic: topic.into(),
        source: UserId::new(1),
        payload: Value::Null,
    })
}

fn request(id: u64) -> Payload {
    Payload::Request(Request {
        id: RequestId::new(id),
        caller: UserId::new(1),
        target: UserId::default(),
        credentials: vec![],
        service: ServiceName::new("svc"),
        method: "m".into(),
        args: vec![].into(),
        trace: None,
    })
}

#[test]
fn point_to_point_delivery() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    a.send(b.addr(), event("hello")).unwrap();
    let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(env.src, a.addr());
    assert_eq!(env.dst, b.addr());
    match env.payload {
        Payload::Event(ev) => assert_eq!(ev.topic, "hello"),
        other => panic!("unexpected payload {other:?}"),
    }
    // The router increments `delivered` after handing the bytes to
    // the endpoint, so the receiver can get here first — wait for
    // the counter rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(1);
    while net.stats().delivered < 1 {
        assert!(Instant::now() < deadline, "delivery uncounted");
        std::thread::yield_now();
    }
    let stats = net.stats();
    assert_eq!(stats.sent, 1);
    assert_eq!(stats.delivered, 1);
    assert!(stats.bytes_sent > 0);
}

#[test]
fn fifo_order_preserved_with_fixed_latency() {
    let net = Network::new(
        NetConfig::ideal().with_latency(LatencyModel::fixed(Duration::from_millis(1))),
    );
    let a = net.register();
    let b = net.register();
    for i in 0..50 {
        a.send(b.addr(), event(&format!("e{i}"))).unwrap();
    }
    for i in 0..50 {
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        match env.payload {
            Payload::Event(ev) => assert_eq!(ev.topic, format!("e{i}")),
            other => panic!("unexpected payload {other:?}"),
        }
    }
}

#[test]
fn unreachable_destination_is_an_error() {
    let net = Network::ideal();
    let a = net.register();
    let err = a.send(NodeAddr::new(9999), event("x")).unwrap_err();
    assert_eq!(err, SydError::Unreachable(NodeAddr::new(9999)));
    assert_eq!(net.stats().dropped_unreachable, 1);
}

#[test]
fn unregister_makes_endpoint_unreachable() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    net.unregister(b.addr());
    assert!(a.send(b.addr(), event("x")).is_err());
}

#[test]
fn total_loss_drops_everything() {
    let net = Network::new(NetConfig::ideal().with_loss(1.0));
    let a = net.register();
    let b = net.register();
    a.send(b.addr(), event("x")).unwrap();
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    assert_eq!(net.stats().dropped_loss, 1);
    assert_eq!(net.stats().delivered, 0);
}

#[test]
fn partition_blocks_both_directions() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    net.set_partitioned(a.addr(), b.addr(), true);
    a.send(b.addr(), event("ab")).unwrap();
    b.send(a.addr(), event("ba")).unwrap();
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    assert!(a.recv_timeout(Duration::from_millis(50)).is_err());
    assert_eq!(net.stats().dropped_partition, 2);

    net.heal_partitions();
    a.send(b.addr(), event("after")).unwrap();
    assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
}

#[test]
fn disconnected_request_fails_fast_with_error_response() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    net.set_connected(b.addr(), false);
    a.send(b.addr(), request(42)).unwrap();
    let env = a.recv_timeout(Duration::from_secs(1)).unwrap();
    match env.payload {
        Payload::Response(resp) => {
            assert_eq!(resp.id, RequestId::new(42));
            assert_eq!(resp.result, Err(SydError::Disconnected(b.addr())));
        }
        other => panic!("unexpected payload {other:?}"),
    }
}

#[test]
fn disconnected_event_is_silently_dropped() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    net.set_connected(b.addr(), false);
    a.send(b.addr(), event("x")).unwrap();
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
    assert_eq!(net.stats().dropped_disconnected, 1);
}

#[test]
fn reconnect_restores_delivery() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    net.set_connected(b.addr(), false);
    assert!(!net.is_connected(b.addr()));
    net.set_connected(b.addr(), true);
    assert!(net.is_connected(b.addr()));
    a.send(b.addr(), event("back")).unwrap();
    assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
}

#[test]
fn latency_delays_delivery() {
    let net = Network::new(
        NetConfig::ideal().with_latency(LatencyModel::fixed(Duration::from_millis(30))),
    );
    let a = net.register();
    let b = net.register();
    let start = Instant::now();
    a.send(b.addr(), event("slow")).unwrap();
    b.recv_timeout(Duration::from_secs(1)).unwrap();
    assert!(
        start.elapsed() >= Duration::from_millis(25),
        "delivered too early: {:?}",
        start.elapsed()
    );
}

#[test]
fn same_seed_same_loss_pattern() {
    let run = |seed: u64| -> Vec<bool> {
        let net = Network::new(NetConfig::ideal().with_loss(0.5).with_seed(seed));
        let a = net.register();
        let b = net.register();
        (0..40)
            .map(|_| {
                a.send(b.addr(), event("x")).unwrap();
                b.recv_timeout(Duration::from_millis(20)).is_ok()
            })
            .collect()
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn send_after_shutdown_errors() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    net.shutdown();
    assert_eq!(
        a.send(b.addr(), event("x")).unwrap_err(),
        SydError::Shutdown
    );
}

#[test]
fn stats_delta_counts_one_exchange() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    let before = net.stats();
    a.send(b.addr(), event("one")).unwrap();
    b.recv_timeout(Duration::from_secs(1)).unwrap();
    // The router increments `delivered` after handing the bytes to the
    // endpoint, so wait for the counter rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(1);
    while net.stats().delivered < before.delivered + 1 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let delta = before.delta(&net.stats());
    assert_eq!(delta.sent, 1);
    assert_eq!(delta.delivered, 1);
}

#[test]
fn reconfigure_changes_behaviour_at_runtime() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    a.send(b.addr(), event("t")).unwrap();
    assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());

    // Switch to total loss: traffic stops.
    net.reconfigure(NetConfig::ideal().with_loss(1.0));
    a.send(b.addr(), event("t")).unwrap();
    assert!(b.recv_timeout(Duration::from_millis(50)).is_err());

    // And back.
    net.reconfigure(NetConfig::ideal());
    a.send(b.addr(), event("t")).unwrap();
    assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
}

#[test]
fn try_recv_is_nonblocking() {
    let net = Network::ideal();
    let a = net.register();
    let b = net.register();
    assert!(b.try_recv().is_none());
    a.send(b.addr(), event("t")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        match b.try_recv() {
            Some(Ok(env)) => {
                assert_eq!(env.src, a.addr());
                break;
            }
            Some(Err(e)) => panic!("decode error: {e}"),
            None => assert!(Instant::now() < deadline, "never arrived"),
        }
    }
}

#[test]
fn many_endpoints_share_one_router() {
    let net = Network::ideal();
    let endpoints: Vec<Endpoint> = (0..32).map(|_| net.register()).collect();
    // All-to-one burst.
    for ep in &endpoints[1..] {
        ep.send(endpoints[0].addr(), event("t")).unwrap();
    }
    for _ in 1..32 {
        endpoints[0].recv_timeout(Duration::from_secs(1)).unwrap();
    }
    assert_eq!(net.stats().delivered, 31);
}

mod as_transport {
    //! The simulator seen through the `Transport` trait.

    use super::*;
    use std::sync::Arc;
    use syd_transport::{Transport, TransportEndpoint, TransportEvent};
    use syd_wire::{encode_to_vec, Envelope};

    #[test]
    fn listen_and_message_events() {
        let net = Network::ideal();
        let a = net.listen().unwrap();
        let b = net.listen().unwrap();
        assert_eq!(net.kind(), "sim");
        let env = Envelope::new(a.addr(), b.addr(), event("via-trait"));
        a.send(env.clone()).unwrap();
        match b.recv_event_timeout(Duration::from_secs(1)).unwrap() {
            TransportEvent::Message(got) => assert_eq!(got, env),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn connect_emits_synthetic_connected_event() {
        let net = Network::ideal();
        let a = net.listen().unwrap();
        let b = net.listen().unwrap();
        a.connect(b.addr()).unwrap();
        match a.recv_event_timeout(Duration::from_secs(1)).unwrap() {
            TransportEvent::Connected(peer) => assert_eq!(peer, b.addr()),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(
            net.metrics()
                .get_counter(names::TRANSPORT_CONNS)
                .unwrap()
                .get(),
            1
        );
        // Connecting to a never-registered peer is an error.
        assert!(a.connect(NodeAddr::new(77_777)).is_err());
    }

    #[test]
    fn close_unregisters_and_recv_reports_shutdown() {
        let net = Network::ideal();
        let a = net.listen().unwrap();
        let b = net.listen().unwrap();
        b.close();
        assert!(a
            .send(Envelope::new(a.addr(), b.addr(), event("x")))
            .is_err());
        assert_eq!(
            b.recv_event_timeout(Duration::from_millis(50)).unwrap_err(),
            SydError::Shutdown
        );
    }

    #[test]
    fn frame_tap_mirrors_delivered_bytes() {
        let net = Network::ideal();
        let a = net.listen().unwrap();
        let b = net.listen().unwrap();
        let (tap_tx, tap_rx) = syd_types::queue::channel();
        b.set_frame_tap(tap_tx);
        let env = Envelope::new(a.addr(), b.addr(), event("tapped"));
        a.send(env.clone()).unwrap();
        let bytes = tap_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(bytes, encode_to_vec(&env));
    }

    #[test]
    fn transport_counters_track_traffic() {
        let net = Network::ideal();
        let a = net.listen().unwrap();
        let b: Arc<dyn TransportEndpoint> = net.listen().unwrap();
        let env = Envelope::new(a.addr(), b.addr(), event("counted"));
        let n = a.send(env).unwrap();
        match b.recv_event_timeout(Duration::from_secs(1)).unwrap() {
            TransportEvent::Message(_) => {}
            other => panic!("unexpected event {other:?}"),
        }
        let m = net.metrics();
        assert_eq!(m.get_counter(names::TRANSPORT_FRAMES_OUT).unwrap().get(), 1);
        assert_eq!(
            m.get_counter(names::TRANSPORT_BYTES_OUT).unwrap().get(),
            n as u64
        );
        assert_eq!(
            m.get_counter(names::TRANSPORT_FRAME_ERRORS).unwrap().get(),
            0
        );
    }

    #[test]
    fn explicit_address_registration_rejects_duplicates() {
        let net = Network::ideal();
        let addr = NodeAddr::new(0xABCD_EF01);
        let _ep = net.register_with_addr(addr).unwrap();
        assert!(net.register_with_addr(addr).is_err());
    }
}
