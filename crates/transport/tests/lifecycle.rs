//! Connection lifecycle coverage for the TCP backend: event ordering,
//! idempotent connects, failed dials, simultaneous opens, listener port
//! reuse, and graceful shutdown with in-flight frames.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use syd_telemetry::names;
use syd_transport::{
    FramedTcpEndpoint, FramedTcpTransport, Transport, TransportEndpoint, TransportEvent,
};
use syd_types::{NodeAddr, SydError, UserId, Value};
use syd_wire::{Envelope, EventMsg, Payload};

const EVENT_WAIT: Duration = Duration::from_secs(5);

fn event_env(src: NodeAddr, dst: NodeAddr, tag: i64) -> Envelope {
    Envelope::new(
        src,
        dst,
        Payload::Event(EventMsg {
            topic: "lifecycle".into(),
            source: UserId::new(1),
            payload: Value::I64(tag),
        }),
    )
}

/// Blocks until `ep` observes an event `pred` accepts, panicking on
/// shutdown or deadline. Returns the skipped-over events for callers that
/// assert on ordering.
fn wait_for_event(
    ep: &Arc<FramedTcpEndpoint>,
    what: &str,
    mut pred: impl FnMut(&TransportEvent) -> bool,
) -> (TransportEvent, Vec<TransportEvent>) {
    let deadline = Instant::now() + EVENT_WAIT;
    let mut skipped = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            !left.is_zero(),
            "timed out waiting for {what}; saw {skipped:?}"
        );
        match ep.recv_event_timeout(left) {
            Ok(ev) if pred(&ev) => return (ev, skipped),
            Ok(ev) => skipped.push(ev),
            Err(SydError::Timeout(_)) => {}
            Err(err) => panic!("waiting for {what}: {err}"),
        }
    }
}

#[test]
fn accept_disconnect_reconnect_event_ordering() {
    let tcp = FramedTcpTransport::loopback();
    let a = tcp.listen_on(0).unwrap();
    let b = tcp.listen_on(0).unwrap();

    // Explicit connect: dialer sees Connected, acceptor sees Accepted.
    b.connect(a.addr()).unwrap();
    wait_for_event(
        &b,
        "b Connected",
        |ev| matches!(ev, TransportEvent::Connected(p) if *p == a.addr()),
    );
    wait_for_event(
        &a,
        "a Accepted",
        |ev| matches!(ev, TransportEvent::Accepted(p) if *p == b.addr()),
    );

    // Kill the socket out from under both sides.
    assert_eq!(b.kill_connections(), 1);
    wait_for_event(
        &b,
        "b Disconnected",
        |ev| matches!(ev, TransportEvent::Disconnected(p) if *p == a.addr()),
    );
    wait_for_event(
        &a,
        "a Disconnected",
        |ev| matches!(ev, TransportEvent::Disconnected(p) if *p == b.addr()),
    );

    // Traffic after the cut transparently reconnects; the disconnect event
    // always precedes the re-established connection's events.
    b.send(event_env(b.addr(), a.addr(), 1)).unwrap();
    wait_for_event(
        &b,
        "b reConnected",
        |ev| matches!(ev, TransportEvent::Connected(p) if *p == a.addr()),
    );
    let (_, before_msg) = wait_for_event(&a, "a Message after reconnect", |ev| {
        matches!(ev, TransportEvent::Message(env)
            if matches!(&env.payload, Payload::Event(e) if e.payload == Value::I64(1)))
    });
    assert!(
        before_msg
            .iter()
            .any(|ev| matches!(ev, TransportEvent::Accepted(p) if *p == b.addr())),
        "re-accept must precede the message; saw {before_msg:?}"
    );
    // Both endpoints share this transport's registry, so the single
    // re-established link counts once per side: dialer + acceptor.
    assert_eq!(
        tcp.metrics()
            .get_counter(names::TRANSPORT_RECONNECTS)
            .unwrap()
            .get(),
        2
    );

    a.close();
    b.close();
}

#[test]
fn double_connect_to_same_peer_is_idempotent() {
    let tcp = FramedTcpTransport::loopback();
    let a = tcp.listen_on(0).unwrap();
    let b = tcp.listen_on(0).unwrap();

    b.connect(a.addr()).unwrap();
    wait_for_event(
        &b,
        "Connected",
        |ev| matches!(ev, TransportEvent::Connected(p) if *p == a.addr()),
    );
    // Second connect: no-op, no second connection, no second event.
    b.connect(a.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    match b.recv_event_timeout(Duration::from_millis(50)) {
        Err(SydError::Timeout(_)) => {}
        other => panic!("expected no further events, got {other:?}"),
    }
    // One logical connection, counted once per sharing endpoint (dialer
    // `conns`, acceptor `accepts` + `conns`) — and exactly once each.
    assert_eq!(
        tcp.metrics()
            .get_counter(names::TRANSPORT_CONNS)
            .unwrap()
            .get(),
        2
    );
    assert_eq!(
        tcp.metrics()
            .get_counter(names::TRANSPORT_ACCEPTS)
            .unwrap()
            .get(),
        1
    );

    a.close();
    b.close();
}

#[test]
fn listener_port_is_reusable_after_clean_close() {
    let tcp = FramedTcpTransport::loopback();
    let server = tcp.listen_on(0).unwrap();
    let port = server.socket_addr().port();
    let client = tcp.listen_on(0).unwrap();

    client.connect(server.addr()).unwrap();
    wait_for_event(
        &client,
        "Connected",
        |ev| matches!(ev, TransportEvent::Connected(p) if *p == server.addr()),
    );

    // Client closes first (it takes the TIME_WAIT), then the server; the
    // port must be immediately rebindable.
    client.close();
    wait_for_event(&server, "Disconnected", |ev| {
        matches!(ev, TransportEvent::Disconnected(_))
    });
    server.close();

    let rebound = tcp.listen_on(port).expect("rebind same port");
    assert_eq!(rebound.socket_addr().port(), port);
    rebound.close();
}

#[test]
fn send_to_a_dead_port_fails_within_the_dial_timeout() {
    let tcp = FramedTcpTransport::loopback();
    let a = tcp.listen_on(0).unwrap();
    // A port that was just free: nobody listens on it.
    let dead = {
        let b = tcp.listen_on(0).unwrap();
        let addr = b.addr();
        b.close();
        addr
    };
    let started = Instant::now();
    let err = a.send(event_env(a.addr(), dead, 0)).unwrap_err();
    assert_eq!(err, SydError::Disconnected(dead));
    assert!(
        started.elapsed() <= syd_transport::tcp::DIAL_TIMEOUT,
        "dial took {:?}",
        started.elapsed()
    );
    a.close();
}

/// Both sides dial at once and each keeps its own connection; every
/// sender's frames still arrive in order.
#[test]
fn simultaneous_connects_keep_each_senders_order() {
    const N: i64 = 50;
    let tcp = FramedTcpTransport::loopback();
    let a = tcp.listen_on(0).unwrap();
    let b = tcp.listen_on(0).unwrap();

    let start = Arc::new(Barrier::new(2));
    let senders: Vec<_> = [(&a, &b), (&b, &a)]
        .into_iter()
        .map(|(from, to)| {
            let (from, to, start) = (Arc::clone(from), to.addr(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                from.connect(to).unwrap();
                for tag in 0..N {
                    from.send(event_env(from.addr(), to, tag)).unwrap();
                }
            })
        })
        .collect();
    for sender in senders {
        sender.join().unwrap();
    }

    for ep in [&a, &b] {
        for tag in 0..N {
            let (ev, _) =
                wait_for_event(ep, "message", |ev| matches!(ev, TransportEvent::Message(_)));
            let TransportEvent::Message(env) = ev else {
                unreachable!()
            };
            let Payload::Event(e) = env.payload else {
                panic!("unexpected payload")
            };
            assert_eq!(e.payload, Value::I64(tag), "frames reordered or lost");
        }
    }
    a.close();
    b.close();
}

#[test]
fn close_flushes_in_flight_frames() {
    let tcp = FramedTcpTransport::loopback();
    let a = tcp.listen_on(0).unwrap();
    let b = tcp.listen_on(0).unwrap();

    b.connect(a.addr()).unwrap();
    wait_for_event(&b, "Connected", |ev| {
        matches!(ev, TransportEvent::Connected(_))
    });

    const N: i64 = 50;
    for tag in 0..N {
        b.send(event_env(b.addr(), a.addr(), tag)).unwrap();
    }
    // Close immediately: everything sent must still reach `a`, in order.
    b.close();

    let mut next = 0;
    while next < N {
        let (ev, _) = wait_for_event(&a, "flushed message", |ev| {
            matches!(ev, TransportEvent::Message(_))
        });
        let TransportEvent::Message(env) = ev else {
            unreachable!()
        };
        let Payload::Event(e) = env.payload else {
            panic!("unexpected payload")
        };
        assert_eq!(e.payload, Value::I64(next), "frames reordered or lost");
        next += 1;
    }
    a.close();
}
