//! The full stack over real sockets: calendar negotiation on a loopback
//! TCP deployment, transport-aware retry behaviour under killed
//! connections, and the invariant audit staying clean on both.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

mod support;

use std::sync::Arc;
use std::time::Duration;

use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus, SlotState};
use syd::kernel::SydEnv;
use syd::net::{CallOptions, Node, Transport};
use syd::transport::FramedTcpTransport;
use syd::types::{ServiceName, SydError, SydResult, TimeSlot, Value};
use syd::wire::Request;
use syd_telemetry::names;

/// Post-run invariant audit (same protocol as tests/full_stack.rs).
fn audit_clean(devices: &[&syd::kernel::DeviceRuntime]) {
    let (within, every) = (Duration::from_secs(2), Duration::from_millis(10));
    let unlocked = || devices.iter().all(|d| d.store().locks().held_count() == 0);
    support::eventually(&**devices[0].clock(), within, every, unlocked);
    for d in devices {
        d.end_leases();
    }
    syd::check::audit(devices.iter().copied()).assert_clean();
}

/// The paper's core scenario — schedule a meeting through the §4.3
/// negotiation — with every RPC crossing a real TCP socket, and the
/// protocol audit clean afterwards with zero frame errors.
#[test]
fn meeting_negotiation_over_loopback_tcp() {
    let transport: Arc<dyn Transport> = Arc::new(FramedTcpTransport::loopback());
    let env = SydEnv::new_on(Arc::clone(&transport), Some("tcp-deployment")).unwrap();

    let phil = CalendarApp::install(&env.device("phil", "pw").unwrap()).unwrap();
    let andy = CalendarApp::install(&env.device("andy", "pw").unwrap()).unwrap();

    let outcome = phil
        .schedule(MeetingSpec::plain(
            "tcp standup",
            TimeSlot::new(1, 9),
            vec![andy.user()],
        ))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // Both calendars agree on the booking.
    for app in [&phil, &andy] {
        assert!(matches!(
            app.slot_state(TimeSlot::new(1, 9).ordinal()).unwrap(),
            SlotState::Reserved(_)
        ));
    }

    audit_clean(&[phil.device(), andy.device()]);

    let metrics = transport.metrics();
    assert_eq!(
        metrics
            .get_counter(names::TRANSPORT_FRAME_ERRORS)
            .unwrap()
            .get(),
        0,
        "clean run must decode every frame"
    );
    assert!(
        metrics.get_counter(names::TRANSPORT_CONNS).unwrap().get() >= 2,
        "negotiation traffic crossed real connections"
    );
}

fn echo_handler() -> Arc<dyn syd::net::RequestHandler> {
    Arc::new(|_from, req: Request| -> SydResult<Value> { Ok(Value::list(req.args.to_vec())) })
}

/// Satellite: a dropped TCP connection surfaces as the same retriable
/// error shape as sim message loss — `is_transient()`, counted in
/// `rpc.retries` — and retries recover once the peer is reachable again.
#[test]
fn killed_socket_is_transient_and_retries_recover() {
    let tcp = FramedTcpTransport::loopback();
    let server = Node::spawn_on(&tcp).unwrap();
    server.set_handler(echo_handler());
    let client = Node::spawn_on(&tcp).unwrap();
    let svc = ServiceName::new("echo");

    // Warm connection.
    let v = client
        .call(server.addr(), &svc, "m", vec![Value::I64(1)])
        .unwrap();
    assert_eq!(v, Value::list([Value::I64(1)]));

    // Radio off: the server drops its live sockets and refuses accepts.
    server.link().set_connected(false);
    let opts = CallOptions::new()
        .with_timeout(Duration::from_millis(150))
        .with_retries(2);
    let err = client
        .call_with(server.addr(), &svc, "m", vec![Value::I64(2)], opts)
        .unwrap_err();
    assert!(err.is_transient(), "{err} must be retriable");
    assert!(
        matches!(err, SydError::Timeout(_) | SydError::Disconnected(_)),
        "{err}"
    );
    // Every attempt was accounted: the final failure exhausted retries.
    // A wave whose dial or write fails ends at once with `Disconnected`,
    // as the sim's fail-fast rule does, so it need not time out.
    assert_eq!(client.rpc_retries(), 2);

    // Radio back on: the next wave's send re-dials and the call succeeds.
    server.link().set_connected(true);
    let opts = CallOptions::new()
        .with_timeout(Duration::from_millis(500))
        .with_retries(10);
    let v = client
        .call_with(server.addr(), &svc, "m", vec![Value::I64(3)], opts)
        .unwrap();
    assert_eq!(v, Value::list([Value::I64(3)]));

    client.shutdown();
    server.shutdown();
}
