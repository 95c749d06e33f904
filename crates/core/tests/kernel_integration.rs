//! Kernel-level integration tests: QoS-aware invocation, global events,
//! named-group invocation, and cross-device link expiry.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_core::links::{Constraint, LinkRef, LinkSpec};
use syd_core::{DeviceRuntime, QosMonitor, SydEnv};
use syd_net::{LatencyModel, NetConfig};
use syd_types::{Clock, ServiceName, SimClock, SydError, Timestamp, Value};

fn echo_service(dev: &DeviceRuntime, svc: &ServiceName) {
    dev.register_service(
        svc,
        "echo",
        Arc::new(|_ctx, args: &[Value]| Ok(Value::list(args.to_vec()))),
    )
    .unwrap();
}

#[test]
fn qos_monitor_observes_engine_invocations() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let svc = ServiceName::new("svc");
    echo_service(&b, &svc);

    let qos = Arc::new(QosMonitor::new());
    let engine = a.engine().clone().with_qos(Arc::clone(&qos));
    for _ in 0..5 {
        engine.invoke(b.user(), &svc, "echo", vec![]).unwrap();
    }
    // A failing method counts as a failure.
    let _ = engine.invoke(b.user(), &svc, "no_such_method", vec![]);

    let stats = qos.stats_for(b.user(), &svc).unwrap();
    assert_eq!(stats.calls, 6);
    assert_eq!(stats.failures, 1);
    assert!(stats.ewma > Duration::ZERO);
    assert!(stats.success_rate() > 0.8);
}

#[test]
fn qos_admission_refuses_slow_targets() {
    // 30 ms one-way latency → ~60 ms EWMA round trips.
    let cfg = NetConfig::ideal().with_latency(LatencyModel::fixed(Duration::from_millis(30)));
    let env = SydEnv::new_insecure(cfg);
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let svc = ServiceName::new("svc");
    echo_service(&b, &svc);

    let qos = Arc::new(QosMonitor::new());
    let engine = a.engine().clone().with_qos(Arc::clone(&qos));
    for _ in 0..5 {
        engine.invoke(b.user(), &svc, "echo", vec![]).unwrap();
    }
    // A 10 ms deadline is hopeless against a ~60 ms EWMA: fail fast,
    // without a network round trip.
    let t = Instant::now();
    let err = engine
        .invoke_with_deadline(b.user(), &svc, "echo", vec![], Duration::from_millis(10))
        .unwrap_err();
    assert!(err.to_string().contains("admission"), "{err}");
    assert!(
        t.elapsed() < Duration::from_millis(5),
        "admission refusal must not hit the network"
    );
    // A generous deadline passes admission and succeeds.
    engine
        .invoke_with_deadline(b.user(), &svc, "echo", vec![], Duration::from_secs(2))
        .unwrap();
}

#[test]
fn global_events_reach_the_device_event_handler() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();

    let seen = Arc::new(AtomicU32::new(0));
    let sc = Arc::clone(&seen);
    b.events().subscribe(
        "fleet.",
        Arc::new(move |topic, payload| {
            assert_eq!(topic, "fleet.position");
            assert_eq!(payload, &Value::I64(9));
            sc.fetch_add(1, Ordering::SeqCst);
        }),
    );
    a.node()
        .publish_event(b.addr(), "fleet.position", Value::I64(9))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while seen.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "event never arrived");
        std::thread::yield_now();
    }
}

#[test]
fn named_group_invocation_resolves_and_aggregates() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let caller = env.device("caller", "").unwrap();
    let members: Vec<DeviceRuntime> = (0..3)
        .map(|i| env.device(&format!("m{i}"), "").unwrap())
        .collect();
    let svc = ServiceName::new("svc");
    for m in &members {
        echo_service(m, &svc);
    }
    let dir = env.directory_client();
    let group = dir.create_group("committee").unwrap();
    for m in &members {
        dir.group_add(group, m.user()).unwrap();
    }

    let result = caller
        .engine()
        .invoke_group_by_name("committee", &svc, "echo", vec![Value::I64(4)])
        .unwrap();
    assert!(result.all_ok());
    assert_eq!(result.ok_count(), 3);

    // Unknown group names are errors, not empty fan-outs.
    let err = caller
        .engine()
        .invoke_group_by_name("ghosts", &svc, "echo", vec![])
        .unwrap_err();
    assert!(matches!(err, SydError::NotRegistered(_)));
}

#[test]
fn expired_link_cascade_reaches_peers() {
    // A forward link with an expiry at A; its back link at B. When A's
    // scan collects the expired link, the cascade must clean B too.
    let clock = SimClock::new();
    let env = SydEnv::new_insecure(NetConfig::ideal())
        .with_clock(Arc::new(clock.clone()) as Arc<dyn Clock>);
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();

    let refs = vec![LinkRef::new(b.user(), "slot", "act")];
    let link = a
        .links()
        .create_negotiated(
            LinkSpec::negotiation("slot", Constraint::And, refs)
                .with_expiry(Timestamp::from_micros(1_000)),
            "back",
        )
        .unwrap();
    assert_eq!(a.links().count().unwrap(), 1);
    assert_eq!(b.links().count().unwrap(), 1);

    clock.advance(Duration::from_millis(2));
    let expired = a.links().expire(&a.links().expired().unwrap());
    assert_eq!(expired, vec![link.id]);
    assert_eq!(a.links().count().unwrap(), 0);
    assert_eq!(b.links().count().unwrap(), 0, "cascade must clean the peer");
}

#[test]
fn a_blocked_expiry_cascade_does_not_stall_other_periodic_tasks() {
    // The expired link's cascade goes to a peer partitioned away, so its
    // group round waits out every deadline. The tick that found the link
    // must not wait with it: another periodic task on the same runtime
    // keeps its schedule meanwhile.
    let clock = SimClock::new();
    let env = SydEnv::new_insecure(NetConfig::ideal())
        .with_clock(Arc::new(clock.clone()) as Arc<dyn Clock>);
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let refs = vec![LinkRef::new(b.user(), "slot", "act")];
    a.links()
        .create_negotiated(
            LinkSpec::negotiation("slot", Constraint::And, refs)
                .with_expiry(Timestamp::from_micros(1_000)),
            "back",
        )
        .unwrap();
    env.network().set_partitioned(a.addr(), b.addr(), true);
    clock.advance(Duration::from_millis(2));

    let fired = Arc::new(syd_types::sync::Mutex::new(Vec::new()));
    let f = Arc::clone(&fired);
    b.events()
        .register_periodic("probe", Duration::from_millis(20), move || {
            f.lock().push(Instant::now());
        });
    // a's first expiry tick (500 ms) starts a cascade of 2 s deadlines.
    let from = Instant::now() + Duration::from_millis(700);
    let to = from + Duration::from_millis(1_500);
    std::thread::sleep(to.saturating_duration_since(Instant::now()));
    let mut marks = vec![from];
    marks.extend(fired.lock().iter().filter(|&&at| at > from && at < to));
    marks.push(to);
    let stall = marks.windows(2).map(|w| w[1] - w[0]).max().unwrap();
    assert!(
        stall < Duration::from_millis(250),
        "a 20 ms task stalled {stall:?} behind the expiry cascade"
    );

    // The deletions the ticks handed to the pool still happen.
    env.network().heal_partitions();
    let deadline = Instant::now() + Duration::from_secs(15);
    while a.links().count().unwrap() + b.links().count().unwrap() > 0 {
        assert!(Instant::now() < deadline, "the expired link survived");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn link_acceptor_sees_offer_details() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let seen = Arc::new(syd_types::sync::Mutex::new(Vec::new()));
    let sc = Arc::clone(&seen);
    let a_user = a.user();
    b.set_link_acceptor(Arc::new(move |entity, action, from| {
        sc.lock().push((entity.to_owned(), action.to_owned(), from));
        entity.starts_with("slot:")
    }));

    // Accepted: entity matches the acceptor's rule.
    a.links()
        .create_negotiated(
            LinkSpec::negotiation(
                "slot:1",
                Constraint::And,
                vec![LinkRef::new(b.user(), "slot:1", "reserve")],
            ),
            "back",
        )
        .unwrap();
    // Declined: wrong namespace.
    let err = a
        .links()
        .create_negotiated(
            LinkSpec::negotiation(
                "other",
                Constraint::And,
                vec![LinkRef::new(b.user(), "other", "reserve")],
            ),
            "back",
        )
        .unwrap_err();
    assert!(matches!(err, SydError::ConstraintFailed(_)));

    let offers = seen.lock().clone();
    assert_eq!(offers.len(), 2);
    assert_eq!(
        offers[0],
        ("slot:1".to_owned(), "reserve".to_owned(), a_user)
    );
    assert_eq!(offers[1].0, "other");
}

#[test]
fn engine_options_bound_call_time() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let svc = ServiceName::new("sleepy");
    b.register_service(
        &svc,
        "nap",
        Arc::new(|_ctx, _args: &[Value]| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(Value::Null)
        }),
    )
    .unwrap();
    let engine = a
        .engine()
        .clone()
        .with_options(syd_net::CallOptions::new().with_timeout(Duration::from_millis(50)));
    let t = Instant::now();
    let err = engine.invoke(b.user(), &svc, "nap", vec![]).unwrap_err();
    assert!(matches!(err, SydError::Timeout(_)), "{err}");
    assert!(t.elapsed() < Duration::from_millis(250));
}
