//! Live-system fault injection: the checker against real devices on a
//! simulated network — real negotiations must audit clean (strictly, on
//! an ideal network), and every planted defect must be caught with the
//! offending session id and its journal excerpt.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::time::Duration;

use syd_check::{AuditOptions, Rule};
use syd_core::device::entity_lock_key;
use syd_core::links::Constraint;
use syd_core::negotiate::{link_service, Participant};
use syd_core::{DeviceRuntime, SydEnv};
use syd_net::NetConfig;
use syd_telemetry::Event;
use syd_types::Value;

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
    let vote = coordinator
        .engine()
        .invoke(
            participant.user(),
            &link_service(),
            "mark",
            vec![
                Value::from(stranded),
                Value::str("room a"),
                Value::str("chg"),
            ],
        )
        .unwrap();
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

/// A coordinator that dies between mark and commit strands the entity
/// lock on the participant; the stale-session sweep must reclaim it,
/// journal the cleanup, and leave the audit clean.
#[test]
fn sweep_reclaims_a_dead_owners_lock() {
    let (_env, devices) = rig(2);
    let (coordinator, participant) = (&devices[0], &devices[1]);

    // The mark of a coordinator that will never commit or abort.
    let dead_session = (coordinator.user().raw() << 24) | 0x77;
    let vote = coordinator
        .engine()
        .invoke(
            participant.user(),
            &link_service(),
            "mark",
            vec![
                Value::from(dead_session),
                Value::str("slot:stranded"),
                Value::str("chg"),
            ],
        )
        .unwrap();
    assert_eq!(vote, Value::Bool(true));
    assert_eq!(participant.store().locks().held_count(), 1);

    // Before the sweep: the story is open, so the loss-tolerant audit
    // already accepts it (the lock is merely awaiting cleanup)...
    syd_check::audit(devices.iter()).assert_clean();
    // ...but the strict audit refuses to sign off on the open story.
    let strict = syd_check::audit_with(devices.iter(), &AuditOptions::strict());
    assert!(
        strict.violations.iter().any(|v| v.rule == Rule::LockLeak),
        "strict audit missed the stranded lock:\n{strict}"
    );

    // The sweep reclaims the lock and journals the cleanup.
    assert_eq!(participant.sweep_stale_sessions(Duration::ZERO), 1);
    assert_eq!(participant.store().locks().held_count(), 0);
    let journal = participant.journal().dump();
    assert!(
        journal.contains("reason=stale-sweep"),
        "sweep did not journal its cleanup:\n{journal}"
    );

    // Now even the strict audit is clean: the story closed.
    syd_check::audit_strict(devices.iter()).assert_clean();

    // The coordinator was slow, not dead (a lossy mark round can outlast
    // the sweep age): its commit arrives after the sweep. It must be
    // refused — another session may hold the entity by now — and the
    // participant's story stays closed.
    let late = coordinator.engine().invoke(
        participant.user(),
        &link_service(),
        "commit",
        vec![
            Value::from(dead_session),
            Value::str("slot:stranded"),
            Value::str("chg"),
        ],
    );
    assert!(late.is_err(), "a swept session's commit was applied");
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
    assert!(device
        .store()
        .locks()
        .try_acquire(session, &entity_lock_key("slot:leak")));

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
