//! Behavioural tests for the simulated backend: delivery, loss,
//! partitions, latency — the guarantees the sim kept when its router
//! thread gave way to per-endpoint inboxes drained by their readers.

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
    // A frame counts as delivered when its reader takes it.
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
        // The tap sees a frame when the endpoint takes it.
        b.recv_event_timeout(Duration::from_secs(1)).unwrap();
        let bytes = tap_rx.try_recv().unwrap();
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

mod in_flight {
    //! What holds for a frame between its send and its due time.

    use super::*;
    use std::sync::Arc;
    use syd_transport::{ReadyNotifier, Transport, TransportEndpoint, TransportEvent};
    use syd_types::sync::Mutex;
    use syd_wire::Envelope;

    fn delayed(latency: Duration) -> Network {
        Network::new(NetConfig::ideal().with_latency(LatencyModel::fixed(latency)))
    }

    fn topic(env: Envelope) -> String {
        match env.payload {
            Payload::Event(ev) => ev.topic,
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn a_partition_raised_in_flight_drops_the_frame() {
        let net = delayed(Duration::from_millis(30));
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), event("x")).unwrap();
        net.set_partitioned(a.addr(), b.addr(), true);
        assert!(b.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(net.stats().dropped_partition, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn a_disconnect_raised_in_flight_drops_the_frame() {
        let net = delayed(Duration::from_millis(30));
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), event("x")).unwrap();
        net.set_connected(b.addr(), false);
        assert!(b.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(net.stats().dropped_disconnected, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn frames_arrive_in_due_order_not_send_order() {
        let net = delayed(Duration::from_millis(40));
        let a = net.register();
        let b = net.register();
        a.send(b.addr(), event("slow")).unwrap();
        net.reconfigure(NetConfig::ideal());
        a.send(b.addr(), event("fast")).unwrap();
        let first = topic(b.recv_timeout(Duration::from_secs(1)).unwrap());
        let second = topic(b.recv_timeout(Duration::from_secs(1)).unwrap());
        assert_eq!((first.as_str(), second.as_str()), ("fast", "slow"));

        // With jitter, frames to one endpoint overtake each other.
        net.reconfigure(NetConfig::ideal().with_latency(LatencyModel {
            base: Duration::ZERO,
            jitter: Duration::from_millis(20),
        }));
        let sent: Vec<String> = (0..50).map(|i| format!("e{i:02}")).collect();
        for t in &sent {
            a.send(b.addr(), event(t)).unwrap();
        }
        let got: Vec<String> = (0..50)
            .map(|_| topic(b.recv_timeout(Duration::from_secs(1)).unwrap()))
            .collect();
        assert_ne!(got, sent, "50 jittered frames and not one overtook");
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(sorted, sent, "every frame arrived once");
    }

    #[test]
    fn a_raw_recv_on_a_2ms_link_waits_out_the_latency() {
        let latency = Duration::from_millis(2);
        let net = delayed(latency);
        let a = net.listen().unwrap();
        let b = net.listen().unwrap();
        for _ in 0..20 {
            let sent = Instant::now();
            a.send(Envelope::new(a.addr(), b.addr(), event("hop")))
                .unwrap();
            match b.recv_event().unwrap() {
                TransportEvent::Message(_) => {}
                other => panic!("unexpected event {other:?}"),
            }
            assert!(sent.elapsed() >= latency, "took {:?}", sent.elapsed());
        }
    }

    /// What a runtime loop is told: which endpoint, and when to drain it.
    #[derive(Default)]
    struct Wakeups(Mutex<Vec<Instant>>);

    impl ReadyNotifier for Wakeups {
        fn notify(&self, _addr: NodeAddr, due: Instant) {
            self.0.lock().push(due);
        }
    }

    /// Plays the runtime loop for `ep`: drains it only when a wake-up it
    /// was given has fallen due, until `want` messages came out or `within`
    /// passed. Returns when each message came out.
    fn drive(ep: &Endpoint, wakeups: &Wakeups, want: usize, within: Duration) -> Vec<Instant> {
        let deadline = Instant::now() + within;
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            let now = Instant::now();
            let due = {
                let mut pending = wakeups.0.lock();
                let before = pending.len();
                pending.retain(|&at| at > now);
                pending.len() < before
            };
            if !due {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            while let Some(event) = ep.try_recv_event() {
                if let Ok(TransportEvent::Message(_)) = event {
                    got.push(Instant::now());
                }
            }
        }
        got
    }

    #[test]
    fn a_frame_queued_before_the_notifier_is_drained_when_due() {
        let latency = Duration::from_millis(30);
        let net = delayed(latency);
        let a = net.register();
        let b = net.register();
        let sent = Instant::now();
        a.send(b.addr(), event("early")).unwrap();
        let wakeups = Arc::new(Wakeups::default());
        b.set_ready_notifier(Arc::clone(&wakeups) as Arc<dyn ReadyNotifier>);
        let got = drive(&b, &wakeups, 1, Duration::from_secs(2));
        assert_eq!(got.len(), 1, "the frame was stranded");
        assert!(got[0] >= sent + latency, "drained before it was due");

        // Frames sent while the notifier is installed and drains run:
        // none may be stranded by a wake-up that raced either.
        net.reconfigure(NetConfig::ideal().with_latency(LatencyModel {
            base: Duration::ZERO,
            jitter: Duration::from_millis(3),
        }));
        let c = net.register();
        let c_addr = c.addr();
        let sender = std::thread::spawn(move || {
            for i in 0..200 {
                a.send(c_addr, event(&format!("r{i}"))).unwrap();
                if i % 20 == 0 {
                    std::thread::sleep(Duration::from_micros(300));
                }
            }
        });
        // Some frames are filed before the notifier, the rest after.
        std::thread::sleep(Duration::from_millis(1));
        let c_wakeups = Arc::new(Wakeups::default());
        c.set_ready_notifier(Arc::clone(&c_wakeups) as Arc<dyn ReadyNotifier>);
        let got = drive(&c, &c_wakeups, 200, Duration::from_secs(5));
        sender.join().unwrap();
        assert_eq!(got.len(), 200, "frames were stranded");
    }
}
