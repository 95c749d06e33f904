//! Kernel-level integration tests: deadline-bounded invocation, global events,
//! named-group invocation, and cross-device link expiry.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use syd_core::directory::{CREATE_GROUP, GROUP_ADD};
use syd_core::links::{Constraint, LinkRef, LinkSpec};
use syd_core::{DeviceRuntime, Method, Methods, SydEnv, Verb};
use syd_net::{LatencyModel, NetConfig, Network};
use syd_types::{Clock, ServiceName, SimClock, SydError, Timestamp, Value};

/// The state of the services below, which keep none.
static NO_STATE: LazyLock<Arc<()>> = LazyLock::new(|| Arc::new(()));

const SVC: &ServiceName = &ServiceName::constant("svc");

/// An untyped fixture: answers its arguments as a list.
const ECHO_VERB: Verb<Vec<Value>, Value> = Verb::new(SVC, "echo");

static ECHO: &Methods<()> = &[&Method::verb(ECHO_VERB, |(), _, args: &[Value]| {
    Ok(Value::list(args.to_vec()))
})];

fn echo_service(dev: &DeviceRuntime, svc: &ServiceName) {
    dev.serve(svc, &NO_STATE, ECHO);
}

/// `invoke_with_deadline` is an `invoke` bounded by its deadline: a
/// deadline well past the round trip lets the call through.
#[test]
fn an_invoke_within_a_generous_deadline_succeeds() {
    // 30 ms one-way latency → ~60 ms round trips.
    let cfg = NetConfig::ideal().with_latency(LatencyModel::fixed(Duration::from_millis(30)));
    let env = SydEnv::new_insecure(cfg);
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let svc = ServiceName::new("svc");
    echo_service(&b, &svc);

    let echoed = a
        .engine()
        .invoke_with_deadline(
            b.user(),
            &svc,
            "echo",
            vec![Value::I64(7)],
            Duration::from_secs(2),
        )
        .unwrap();
    assert_eq!(echoed, Value::list(vec![Value::I64(7)]));
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
    let group = dir.call(CREATE_GROUP, ("committee".into(),)).unwrap();
    for m in &members {
        dir.call(GROUP_ADD, (group, m.user())).unwrap();
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
    let net = Network::with_clock(NetConfig::ideal(), Arc::new(clock.clone()));
    let env = SydEnv::on_network(net, None);
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
    let net = Network::with_clock(NetConfig::ideal(), Arc::new(clock.clone()));
    let env = SydEnv::on_network(net, None);
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

    struct Probe {
        clock: SimClock,
        fired: syd_types::sync::Mutex<Vec<Instant>>,
    }
    let probe = Arc::new(Probe {
        clock: clock.clone(),
        fired: syd_types::sync::Mutex::new(syd_types::sync::Rank::Leaf, Vec::new()),
    });
    b.events().register_periodic(
        "probe",
        Duration::from_millis(20),
        Arc::downgrade(&probe),
        |probe| probe.fired.lock().push(probe.clock.instant()),
    );
    // a's first expiry tick (500 ms) starts a cascade of 2 s deadlines.
    let from = clock.instant() + Duration::from_millis(700);
    let to = from + Duration::from_millis(1_500);
    clock.run_for(to - clock.instant());
    let mut marks = vec![from];
    marks.extend(
        probe
            .fired
            .lock()
            .iter()
            .filter(|&&at| at > from && at < to),
    );
    marks.push(to);
    let stall = marks.windows(2).map(|w| w[1] - w[0]).max().unwrap();
    assert!(
        stall < Duration::from_millis(250),
        "a 20 ms task stalled {stall:?} behind the expiry cascade"
    );

    // The deletions the ticks handed to the pool still happen.
    env.network().heal_partitions();
    let deadline = clock.instant() + Duration::from_secs(15);
    while a.links().count().unwrap() + b.links().count().unwrap() > 0 {
        assert!(clock.instant() < deadline, "the expired link survived");
        clock.run_for(Duration::from_millis(20));
    }
}

#[test]
fn link_acceptor_sees_offer_details() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let seen = Arc::new(syd_types::sync::Mutex::new(
        syd_types::sync::Rank::Leaf,
        Vec::new(),
    ));
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
    const NAP_VERB: Verb<(), ()> = Verb::new(SVC, "nap");
    static NAP: &Methods<()> = &[&Method::verb(NAP_VERB, |(), _, ()| {
        std::thread::sleep(Duration::from_millis(300));
        Ok(())
    })];
    b.serve(&svc, &NO_STATE, NAP);
    let engine = a
        .engine()
        .clone()
        .with_options(syd_net::CallOptions::new().with_timeout(Duration::from_millis(50)));
    let t = Instant::now();
    let err = engine.invoke(b.user(), &svc, "nap", vec![]).unwrap_err();
    assert!(matches!(err, SydError::Timeout(_)), "{err}");
    assert!(t.elapsed() < Duration::from_millis(250));
}
