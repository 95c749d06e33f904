//! Live-system fault injection: the checker against real devices on a
//! simulated network — real negotiations must audit clean (strictly, on
//! an ideal network), and every planted defect must be caught with the
//! offending session id and its journal excerpt.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::Arc;
use std::time::Duration;

use syd_check::{AuditOptions, Rule};
use syd_core::device::{entity_lock_key, LOCK_LEASE};
use syd_core::links::Constraint;
use syd_core::negotiate::{link_service, Participant};
use syd_core::{DeviceRuntime, SydEnv};
use syd_net::{NetConfig, Network};
use syd_telemetry::journal::DEFAULT_JOURNAL_CAPACITY;
use syd_telemetry::{names, Event, EventKind};
use syd_types::{SimClock, SydResult, Value};

fn rig(n: usize) -> (SydEnv, Vec<DeviceRuntime>) {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let devices = (0..n)
        .map(|i| env.device(&format!("live{i}"), "").unwrap())
        .collect();
    (env, devices)
}

/// Real negotiations on an ideal network audit clean even under the
/// strict rules (every story closed, no abort after commit).
#[test]
fn negotiations_on_ideal_network_audit_strictly_clean() {
    let (_env, devices) = rig(4);
    let coordinator = &devices[0];
    for round in 0..12 {
        let parts: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), format!("e{}", round % 3), Value::str("x")))
            .collect();
        let constraint = match round % 3 {
            0 => Constraint::And,
            1 => Constraint::AtLeast(2),
            _ => Constraint::Exactly(1),
        };
        coordinator
            .negotiator()
            .negotiate(constraint, &parts)
            .unwrap();
    }
    syd_check::audit_strict(devices.iter()).assert_clean();
}

/// The kernel accepts any string as an entity name, so the checker must
/// too: a correct `and`-negotiation over a name that *looks like* journal
/// syntax audits strictly clean. (When the journal was text, the checker
/// read this entity as `x` with the reason `y` and reported three lock
/// stories that never closed.)
#[test]
fn entity_named_like_journal_syntax_audits_strictly_clean() {
    let (_env, devices) = rig(3);
    let parts: Vec<Participant> = devices
        .iter()
        .map(|d| Participant::new(d.user(), "x reason=y", Value::str("chg")))
        .collect();
    let outcome = devices[0].negotiator().negotiate_and(&parts).unwrap();
    assert!(outcome.satisfied, "{outcome:?}");
    assert_eq!(outcome.committed.len(), 3);
    syd_check::audit_strict(devices.iter()).assert_clean();
}

/// Two entities that differ only after a space are two entities: a mark
/// of `room a` that never finishes does not collide with a completed
/// negotiation of `room b` on the same participant. (Read as text, both
/// were `room`, and the second lock was a double-book.)
#[test]
fn entities_differing_after_a_space_do_not_collide() {
    let (_env, devices) = rig(2);
    let (coordinator, participant) = (&devices[0], &devices[1]);
    let stranded = (coordinator.user().raw() << 24) | 0x55;
    let vote = send((coordinator, participant), "mark", stranded, "room a").unwrap();
    assert_eq!(vote, Value::Bool(true));

    let parts = [Participant::new(
        participant.user(),
        "room b",
        Value::str("chg"),
    )];
    let outcome = coordinator.negotiator().negotiate_and(&parts).unwrap();
    assert!(outcome.satisfied, "{outcome:?}");
    syd_check::audit(devices.iter()).assert_clean();
}

/// `coordinator` sends the §4.3 kernel `method` for `session` on `entity`
/// to `participant`, as a coordinator's negotiator does.
fn send(
    (coordinator, participant): (&DeviceRuntime, &DeviceRuntime),
    method: &str,
    session: u64,
    entity: &str,
) -> SydResult<Value> {
    // The engine refuses the §4.3 verbs outside the negotiator: a node
    // sends them as any frame is sent.
    coordinator.node().call(
        participant.addr(),
        &link_service(),
        method,
        vec![Value::from(session), Value::str(entity), Value::str("chg")],
    )
}

/// A mark delivered twice (its reply was lost, so the engine sent it
/// again) finds its own lock: it votes again, journals no second lock,
/// and one commit frees the entity at once. A commit sent again after
/// its own went through still answers `Ok`.
#[test]
fn a_mark_delivered_twice_is_freed_by_one_commit() {
    let (_env, devices) = rig(2);
    let pair = (&devices[0], &devices[1]);
    let session = (devices[0].user().raw() << 24) | 0x66;
    for _ in 0..2 {
        assert_eq!(
            send(pair, "mark", session, "slot:twice").unwrap(),
            Value::Bool(true)
        );
    }
    send(pair, "commit", session, "slot:twice").unwrap();
    assert_eq!(
        devices[1].store().locks().held_count(),
        0,
        "the second mark deepened the lock"
    );
    let locks = devices[1]
        .journal()
        .events()
        .into_iter()
        .filter(|e| matches!(e.event, Event::Lock { session: s, .. } if s == session))
        .count();
    assert_eq!(locks, 1);

    assert_eq!(
        send(pair, "commit", session, "slot:twice").unwrap(),
        Value::Null
    );
    syd_check::audit(devices.iter()).assert_clean();
}

/// A coordinator that dies between mark and commit strands the entity
/// lock on the participant until its lease runs out. Then the lock blocks
/// nobody: the next session's mark takes the entity over and journals the
/// lapse before its own lock, the dead session's late commit is refused
/// before and after that session commits, and every story is closed.
#[test]
fn a_lapsed_lease_frees_a_dead_owners_lock() {
    let clock = SimClock::new();
    let net = Network::with_clock(NetConfig::ideal(), Arc::new(clock.clone()));
    let env = SydEnv::on_network(net, None);
    let devices: Vec<DeviceRuntime> = (0..2)
        .map(|i| env.device(&format!("live{i}"), "").unwrap())
        .collect();
    let pair = (&devices[0], &devices[1]);
    let participant = &devices[1];
    let entity = "slot:stranded";
    let dead = (devices[0].user().raw() << 24) | 0x77;
    let next = dead + 1;

    // The mark of a coordinator that will never commit or abort.
    assert_eq!(send(pair, "mark", dead, entity).unwrap(), Value::Bool(true));
    // Inside the lease the story is open, so the loss-tolerant audit
    // accepts it, the strict audit refuses to sign off on it, and the
    // lock turns the next session away.
    syd_check::audit(devices.iter()).assert_clean();
    let strict = syd_check::audit_with(devices.iter(), &AuditOptions::strict());
    assert!(
        strict.violations.iter().any(|v| v.rule == Rule::LockLeak),
        "strict audit missed the stranded lock:\n{strict}"
    );
    assert_eq!(
        send(pair, "mark", next, entity).unwrap(),
        Value::str("lock-busy")
    );

    // Past the lease the next mark takes the entity over.
    clock.advance(LOCK_LEASE + Duration::from_millis(1));
    assert_eq!(send(pair, "mark", next, entity).unwrap(), Value::Bool(true));
    assert_eq!(
        participant.store().locks().holder(&entity_lock_key(entity)),
        Some(next)
    );
    let journal: Vec<Event> = participant
        .journal()
        .events()
        .into_iter()
        .map(|e| e.event)
        .collect();
    let lapse = journal.iter().position(
        |e| matches!(e, Event::Release { session, reason: "lease", .. } if *session == dead),
    );
    let taken = journal
        .iter()
        .position(|e| matches!(e, Event::Lock { session, .. } if *session == next));
    assert!(
        lapse.is_some() && lapse < taken,
        "no lapse journaled before the takeover:\n{}",
        participant.journal().dump()
    );

    // The dead coordinator was slow, not dead: its late commit is refused
    // while the entity is another session's, and after it is nobody's.
    assert!(send(pair, "commit", dead, entity).is_err());
    send(pair, "commit", next, entity).unwrap();
    assert!(send(pair, "commit", dead, entity).is_err());
    assert_eq!(participant.store().locks().held_count(), 0);
    syd_check::audit_strict(devices.iter()).assert_clean();
}

/// A lock whose journal story closed but which is still held can never
/// be released by the protocol — the audit reports it as a leak with
/// the session id and the story as evidence.
#[test]
fn closed_story_with_held_lock_is_a_leak() {
    let (_env, devices) = rig(1);
    let device = &devices[0];
    let session = 0xBAD_CAFE;
    device.journal().emit(Event::lock(session, "slot:leak"));
    device
        .journal()
        .emit(Event::commit(session, "slot:leak", true));
    let forgotten = device.store().begin_for(session);
    forgotten.lock(&entity_lock_key("slot:leak")).unwrap();
    std::mem::forget(forgotten);

    let report = syd_check::audit(devices.iter());
    let leak = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::LockLeak)
        .unwrap_or_else(|| panic!("no leak reported:\n{report}"));
    assert_eq!(leak.session, Some(session));
    assert_eq!(leak.device, device.name());
    assert!(
        leak.excerpt.iter().any(|l| l.contains("slot:leak")),
        "excerpt does not pin the story: {:?}",
        leak.excerpt
    );
}

/// A forged change record by a session that does not hold the lock is
/// reported as a double-book even while a legitimate session proceeds.
#[test]
fn forged_commit_without_lock_is_a_double_book() {
    let (_env, devices) = rig(1);
    let device = &devices[0];
    let holder = 0x1111;
    let intruder = 0x2222;
    let journal = device.journal();
    journal.emit(Event::lock(holder, "slot:x"));
    journal.emit(Event::commit(intruder, "slot:x", true));
    journal.emit(Event::commit(holder, "slot:x", true));

    let report = syd_check::audit(devices.iter());
    let dbl = report
        .violations
        .iter()
        .find(|v| v.rule == Rule::DoubleBook)
        .unwrap_or_else(|| panic!("no double-book reported:\n{report}"));
    assert_eq!(dbl.session, Some(intruder));
    assert!(!dbl.excerpt.is_empty());
}

/// One negotiation over every device, coordinated by the first.
fn negotiate_once(devices: &[DeviceRuntime], entity: &str) {
    let parts: Vec<Participant> = devices
        .iter()
        .map(|d| Participant::new(d.user(), entity, Value::str("chg")))
        .collect();
    let outcome = devices[0].negotiator().negotiate_and(&parts).unwrap();
    assert!(outcome.satisfied, "{outcome:?}");
}

/// The devices' journals audit strictly clean and whole, and every
/// ordering rule is on: a change forged outside any lock is caught.
fn assert_whole_and_judged(devices: &[DeviceRuntime]) {
    let report = syd_check::audit_strict(devices.iter());
    report.assert_clean();
    assert!(!report.truncated, "{report}");
    let intruder = 0x3333;
    devices[1]
        .journal()
        .emit(Event::commit(intruder, "slot:forged", true));
    let report = syd_check::audit(devices.iter());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == Rule::DoubleBook && v.session == Some(intruder)),
        "the forged change went unjudged:\n{report}"
    );
}

/// A device's spans and its journal events share its one log, each kind
/// within a horizon of its own. A device records spans from its join
/// on, before it journals anything, and its first event is still
/// sequence 0: the audit sees the whole story.
#[test]
fn spans_before_the_first_event_leave_the_journal_whole() {
    let (_env, devices) = rig(3);
    for device in &devices {
        let stats = device.journal().stats();
        assert!(stats.spans > 0 && stats.events == 0, "{stats:?}");
    }
    negotiate_once(&devices, "slot:first");
    assert_whole_and_judged(&devices);
}

/// A busy device finishes several spans per event. Spans that overflow
/// the span horizon thousands of times over while a session is journaled
/// evict spans only: the events keep their whole story.
#[test]
fn a_span_flood_evicts_spans_not_events() {
    let (_env, devices) = rig(3);
    let flood = 3 * DEFAULT_JOURNAL_CAPACITY;
    for round in 0..2 {
        negotiate_once(&devices, &format!("slot:flood{round}"));
        for device in &devices {
            for _ in 0..flood {
                drop(device.node().tracer().span_root(names::SPAN_RECONCILE));
            }
        }
    }
    for device in &devices {
        let stats = device.journal().stats();
        assert!(
            stats.dropped >= 5 * DEFAULT_JOURNAL_CAPACITY as u64,
            "{stats:?}"
        );
        assert_eq!(
            (stats.evicted, stats.buffered),
            (0, DEFAULT_JOURNAL_CAPACITY)
        );
    }
    assert_whole_and_judged(&devices);
}

/// A journal whose event horizon overflowed has lost the start of its
/// story: the audit says so and no longer judges its order.
#[test]
fn a_journal_that_evicted_an_event_audits_truncated() {
    let (_env, devices) = rig(1);
    let journal = devices[0].journal();
    for _ in 0..=DEFAULT_JOURNAL_CAPACITY {
        journal.record(EventKind::Info, "filler");
    }
    assert_eq!(journal.stats().evicted, 1);
    journal.emit(Event::commit(0x3333, "slot:forged", true));
    let report = syd_check::audit(devices.iter());
    assert!(report.truncated, "{report}");
    report.assert_clean();
}
