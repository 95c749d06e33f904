//! Byte-identity across backends: for the same RPC traffic, the frame
//! bodies a peer observes over loopback TCP are byte-for-byte identical
//! to the messages the sim delivers — both are exactly
//! `syd_wire::encode_to_vec(&envelope)`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::time::Duration;

use syd_telemetry::names;
use syd_transport::{FramedTcpTransport, Network, Transport, TransportEndpoint};
use syd_types::{NodeAddr, RequestId, ServiceName, SydError, UserId, Value};
use syd_wire::{decode_from_slice, Envelope, EventMsg, Payload, Request, Response};

const TAP_WAIT: Duration = Duration::from_secs(5);

/// Structurally varied RPC traffic: request, response (ok + err), event.
fn sample_envelopes(src: NodeAddr, dst: NodeAddr) -> Vec<Envelope> {
    vec![
        Envelope::new(
            src,
            dst,
            Payload::Request(Request {
                id: RequestId::new(7),
                caller: UserId::new(1),
                target: UserId::new(2),
                credentials: vec![0xAB, 0xCD],
                service: ServiceName::new("syd.calendar"),
                method: "schedule_meeting".into(),
                args: vec![Value::str("standup"), Value::I64(9)].into(),
                trace: None,
            }),
        ),
        Envelope::new(
            src,
            dst,
            Payload::Response(Response {
                id: RequestId::new(7),
                result: Ok(Value::list([Value::Bool(true), Value::I64(42)])),
            }),
        ),
        Envelope::new(
            src,
            dst,
            Payload::Response(Response {
                id: RequestId::new(8),
                result: Err(SydError::App("slot taken".into())),
            }),
        ),
        Envelope::new(
            src,
            dst,
            Payload::Event(EventMsg {
                topic: "link.promoted".into(),
                source: UserId::new(1),
                payload: Value::Bytes(vec![1, 2, 3, 4, 5]),
            }),
        ),
    ]
}

#[test]
fn sim_and_tcp_deliver_identical_envelope_bytes() {
    // A TCP pair on loopback, with a frame tap on the receiver.
    let tcp = FramedTcpTransport::loopback();
    let a_tcp = tcp.listen().unwrap();
    let b_tcp = tcp.listen().unwrap();
    let (tcp_tap_tx, tcp_tap_rx) = syd_types::queue::channel();
    b_tcp.set_frame_tap(tcp_tap_tx);

    // A sim pair registered at the *same* node addresses, so the encoded
    // src/dst fields match bit for bit.
    let sim = Network::ideal();
    let a_sim = sim.register_with_addr(a_tcp.addr()).unwrap();
    let b_sim = sim.register_with_addr(b_tcp.addr()).unwrap();
    let (sim_tap_tx, sim_tap_rx) = syd_types::queue::channel();
    b_sim.set_frame_tap(sim_tap_tx);

    for env in sample_envelopes(a_tcp.addr(), b_tcp.addr()) {
        a_tcp.send(env.clone()).unwrap();
        TransportEndpoint::send(&a_sim, env.clone()).unwrap();

        // The sim taps a frame when its reader takes it.
        b_sim.recv_event_timeout(TAP_WAIT).expect("sim frame");
        let tcp_bytes = tcp_tap_rx.recv_timeout(TAP_WAIT).expect("tcp frame");
        let sim_bytes = sim_tap_rx.recv_timeout(TAP_WAIT).expect("sim frame");
        assert_eq!(
            tcp_bytes, sim_bytes,
            "backends disagree on the wire image of {env:?}"
        );
        // And the shared image decodes back to the original envelope.
        let decoded: Envelope = decode_from_slice(&tcp_bytes).unwrap();
        assert_eq!(decoded, env);
    }

    // A clean run: no framing or decode errors on either backend.
    for transport in [tcp.metrics(), sim.metrics()] {
        assert_eq!(
            transport
                .get_counter(names::TRANSPORT_FRAME_ERRORS)
                .unwrap()
                .get(),
            0
        );
    }
}
