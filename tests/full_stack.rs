//! Cross-crate integration tests: the full SyD runtime environment of
//! Figure 2 — all three applications on one authenticated deployment,
//! under realistic (lossy, slow) network conditions, with failure
//! injection.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd::bidding::{Host, Player};
use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd::fleet::{deploy_fleet, Position};
use syd::kernel::directory::{CREATE_GROUP, GROUP_ADD, GROUP_MEMBERS, GROUP_REMOVE};
use syd::kernel::{Method, Methods, SydEnv, Verb};
use syd::net::{LatencyModel, NetConfig};
use syd::types::{Priority, SydError, TimeSlot, UserId, Value};

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Post-run protocol invariant audit: waits briefly for in-flight lock
/// handoffs, ends the leases of what a lost message left locked (test
/// traffic is over, so any surviving lock is stale by definition), then
/// replays every journal.
fn audit_clean(devices: &[&syd::kernel::DeviceRuntime]) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while devices.iter().any(|d| d.store().locks().held_count() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    for d in devices {
        d.end_leases();
    }
    syd::check::audit(devices.iter().copied()).assert_clean();
}

/// Figure 2: calendar, fleet and bidding share one kernel deployment.
#[test]
fn three_applications_share_one_deployment() {
    let env = SydEnv::new(NetConfig::ideal(), "figure-2");

    // Calendar users.
    let phil = CalendarApp::install(&env.device("phil", "pw").unwrap()).unwrap();
    let andy = CalendarApp::install(&env.device("andy", "pw").unwrap()).unwrap();

    // Fleet.
    let (dispatcher, vehicles) = deploy_fleet(&env, 2).unwrap();

    // Bidding.
    let host = Host::install(&env.device("host", "pw").unwrap()).unwrap();
    let p1_dev = env.device("bidder1", "pw").unwrap();
    let p1 = Player::install(&p1_dev, Arc::new(|_| Some(500))).unwrap();

    // All three work concurrently against the same directory/network.
    let outcome = phil
        .schedule(MeetingSpec::plain(
            "m",
            TimeSlot::new(1, 9),
            vec![andy.user()],
        ))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    vehicles[0].move_to(Position { x: 1.0, y: 2.0 }).unwrap();
    wait_for(|| dispatcher.board().len() == 1, "fleet board");

    let round = host.run_round(&[p1.user()], "kettle", 600).unwrap();
    assert_eq!(round.winner, Some(p1.user()));

    audit_clean(&[phil.device(), andy.device(), &p1_dev]);
}

/// §5.4 end to end: every request authenticated; a device with broken
/// credentials is locked out of every service.
#[test]
fn authentication_gates_every_service() {
    let env = SydEnv::new(NetConfig::ideal(), "secure-deployment");
    let phil = CalendarApp::install(&env.device("phil", "pw-phil").unwrap()).unwrap();
    let andy = CalendarApp::install(&env.device("andy", "pw-andy").unwrap()).unwrap();

    // Works while credentials are intact.
    let outcome = phil
        .schedule(MeetingSpec::plain(
            "m",
            TimeSlot::new(1, 10),
            vec![andy.user()],
        ))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // Break phil's credential blob: every remote operation now fails
    // authentication at the peer.
    phil.device()
        .node()
        .set_identity(phil.user(), vec![1, 2, 3].into());
    let err = phil
        .device()
        .engine()
        .invoke(
            andy.user(),
            &syd::types::ServiceName::new("calendar"),
            "free_slots_bitmap",
            vec![Value::from(0u64), Value::from(24u64)],
        )
        .unwrap_err();
    assert!(matches!(err, SydError::AuthFailed(_)), "{err}");
}

/// The calendar survives a slow, lossy wireless LAN: reconcile repairs
/// whatever individual messages lost.
#[test]
fn calendar_on_lossy_wireless_lan() {
    let cfg = NetConfig {
        latency: LatencyModel::fixed(Duration::from_millis(1)),
        loss: 0.02,
        seed: 99,
    };
    let env = SydEnv::new(cfg, "lossy");
    let a = CalendarApp::install(&env.device("a", "pw").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "pw").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "pw").unwrap()).unwrap();

    let slot = TimeSlot::new(1, 9);
    let outcome = a
        .schedule(MeetingSpec::plain("m", slot, vec![b.user(), c.user()]))
        .unwrap();
    // Individual messages may have been lost, leaving the meeting
    // tentative; repair rounds must converge to confirmed.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut status = outcome.status;
    while status != MeetingStatus::Confirmed {
        assert!(Instant::now() < deadline, "never converged: {status:?}");
        std::thread::sleep(Duration::from_millis(50));
        status = a.reconcile(outcome.meeting).unwrap();
    }
    for app in [&a, &b, &c] {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap().meeting(),
            Some(outcome.meeting)
        );
    }
    // Loss may have stranded participant locks; the audit tolerates only
    // what the end of their leases can still clean up.
    audit_clean(&[a.device(), b.device(), c.device()]);
}

/// A network partition during negotiation aborts cleanly: no dangling
/// locks, no half-committed reservations on the reachable side once the
/// coordinator aborts.
#[test]
fn partition_during_negotiation_aborts_cleanly() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "").unwrap()).unwrap();

    // Cut A off from C before scheduling.
    env.network()
        .set_partitioned(a.device().addr(), c.device().addr(), true);

    let slot = TimeSlot::new(2, 9);
    let outcome = a
        .schedule(MeetingSpec::plain("m", slot, vec![b.user(), c.user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    assert!(outcome.pending.contains(&c.user()));
    // B reserved; C untouched; no locks left anywhere.
    assert_eq!(
        b.slot_state(slot.ordinal()).unwrap().meeting(),
        Some(outcome.meeting)
    );
    assert!(c.slot_state(slot.ordinal()).unwrap().is_free());
    for app in [&a, &b, &c] {
        assert_eq!(app.device().store().locks().held_count(), 0);
    }

    // Heal; repair converges.
    env.network().heal_partitions();
    let status = a.reconcile(outcome.meeting).unwrap();
    assert_eq!(status, MeetingStatus::Confirmed);
    audit_clean(&[a.device(), b.device(), c.device()]);
}

/// A participant's device crash mid-lifecycle doesn't corrupt the others:
/// the meeting cancels cleanly around the dead device.
#[test]
fn cancel_with_crashed_participant_cleans_survivors() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "").unwrap()).unwrap();

    let slot = TimeSlot::new(3, 9);
    let outcome = a
        .schedule(MeetingSpec::plain("m", slot, vec![b.user(), c.user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // C's device dies (no proxy).
    c.device().disconnect().unwrap();
    a.cancel(outcome.meeting).unwrap();

    // Survivors are fully cleaned.
    assert!(a.slot_state(slot.ordinal()).unwrap().is_free());
    assert!(b.slot_state(slot.ordinal()).unwrap().is_free());
    assert_eq!(a.device().links().count().unwrap(), 0);
    assert_eq!(b.device().links().count().unwrap(), 0);

    // C still believes in the meeting (stale mobile state, as the paper
    // tolerates); when it reconnects, its slot is stale but harmless — a
    // fresh meeting on the same slot bumps-by-priority or the user frees
    // it manually. Here we just verify C's device is intact.
    c.device().reconnect().unwrap();
    assert_eq!(
        c.slot_state(slot.ordinal()).unwrap().meeting(),
        Some(outcome.meeting)
    );
    audit_clean(&[a.device(), b.device(), c.device()]);
}

/// Store snapshots capture a calendar device's full state and restore it.
#[test]
fn calendar_device_snapshot_round_trip() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let slot = TimeSlot::new(4, 10);
    let outcome = a
        .schedule(MeetingSpec::plain("m", slot, vec![b.user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    let snapshot = a.device().store().snapshot();
    let restored = syd::store::Store::from_snapshot(&snapshot).unwrap();
    // Slots, meetings and link tables all made it.
    assert_eq!(restored.row_count("slots").unwrap(), 1);
    assert_eq!(restored.row_count("meetings").unwrap(), 1);
    assert_eq!(restored.row_count("SyD_Link").unwrap(), 1);
    let row = restored
        .get_by_key("slots", &[Value::from(slot.ordinal())])
        .unwrap()
        .unwrap();
    assert_eq!(row.values[1], Value::from(MeetingStatus::Confirmed));
}

/// Engine group invocation scales to a large group in one round trip
/// (everyone answers concurrently, not serially).
#[test]
fn group_invocation_is_concurrent() {
    let cfg = NetConfig::ideal().with_latency(LatencyModel::fixed(Duration::from_millis(20)));
    let env = SydEnv::new_insecure(cfg);
    let coordinator = CalendarApp::install(&env.device("coord", "").unwrap()).unwrap();
    let apps: Vec<Arc<CalendarApp>> = (0..8)
        .map(|i| CalendarApp::install(&env.device(&format!("p{i}"), "").unwrap()).unwrap())
        .collect();
    let users: Vec<UserId> = apps.iter().map(|a| a.user()).collect();

    let started = Instant::now();
    let result = coordinator.device().engine().invoke_group(
        &users,
        &syd::types::ServiceName::new("calendar"),
        "free_slots_bitmap",
        vec![Value::from(0u64), Value::from(24u64)],
    );
    let elapsed = started.elapsed();
    assert!(result.all_ok());
    // Serial execution would need 8 × 2 × 20 ms = 320 ms; concurrent
    // fan-out needs one round trip plus slack.
    assert!(
        elapsed < Duration::from_millis(200),
        "group call took {elapsed:?}, looks serial"
    );
}

/// Priorities order a bump chain deterministically: highest priority ends
/// up holding the contested slot.
#[test]
fn bump_chain_resolves_by_priority() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "").unwrap()).unwrap();
    let slot = TimeSlot::new(5, 9);

    let low = a
        .schedule(MeetingSpec::plain("low", slot, vec![b.user()]).with_priority(Priority::new(10)))
        .unwrap();
    let mid = b
        .schedule(MeetingSpec::plain("mid", slot, vec![c.user()]).with_priority(Priority::new(100)))
        .unwrap();
    assert_eq!(mid.status, MeetingStatus::Confirmed);
    // The bumped meetings reschedule themselves elsewhere. Each bump's
    // reschedule runs on its own thread, so `low`'s must land before
    // `high` bumps `mid`: two reschedules that overlap both pick the next
    // slot `b` shares, and the lower one then waits there behind `mid`.
    wait_for(
        || {
            a.meeting(low.meeting).unwrap().is_some_and(|m| {
                m.status == MeetingStatus::Confirmed && m.ordinal != slot.ordinal()
            })
        },
        "low meeting rescheduled",
    );
    let high = c
        .schedule(
            MeetingSpec::plain("high", slot, vec![b.user()]).with_priority(Priority::new(200)),
        )
        .unwrap();
    assert_eq!(high.status, MeetingStatus::Confirmed);

    // The highest priority meeting holds the slot at its participants.
    assert_eq!(
        b.slot_state(slot.ordinal()).unwrap().meeting(),
        Some(high.meeting)
    );
    assert_eq!(
        c.slot_state(slot.ordinal()).unwrap().meeting(),
        Some(high.meeting)
    );
    wait_for(
        || {
            b.meeting(mid.meeting).unwrap().is_some_and(|m| {
                m.status == MeetingStatus::Confirmed && m.ordinal != slot.ordinal()
            })
        },
        "mid meeting rescheduled",
    );
    audit_clean(&[a.device(), b.device(), c.device()]);
}

/// The directory's dynamic groups drive group invocations end to end.
#[test]
fn dynamic_groups_resolve_members() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "").unwrap()).unwrap();

    let dir = env.directory_client();
    let committee = dir.call(CREATE_GROUP, ("committee".into(),)).unwrap();
    dir.call(GROUP_ADD, (committee, b.user())).unwrap();
    dir.call(GROUP_ADD, (committee, c.user())).unwrap();

    let members = dir.call(GROUP_MEMBERS, (committee,)).unwrap();
    assert_eq!(members, vec![b.user(), c.user()]);

    // Schedule with the resolved group.
    let outcome = a
        .schedule(MeetingSpec::plain(
            "committee sync",
            TimeSlot::new(6, 10),
            members,
        ))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    assert_eq!(outcome.reserved.len(), 3);

    // Membership changes dynamically.
    dir.call(GROUP_REMOVE, (committee, c.user())).unwrap();
    assert_eq!(
        dir.call(GROUP_MEMBERS, (committee,)).unwrap(),
        vec![b.user()]
    );
}

/// Method coupling (§4.2 op. 5) across applications: a calendar update on
/// one device triggers a coupled method on another.
#[test]
fn coupled_methods_fire_on_invocation() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let svc = syd::types::ServiceName::new("calendar");
    const CALENDAR: &syd::types::ServiceName = &syd::types::ServiceName::constant("calendar");
    const ON_PEER_UPDATE: Verb<(Value,), ()> = Verb::new(CALENDAR, "on_peer_update");
    static UPDATES: &Methods<AtomicU32> =
        &[&Method::verb(ON_PEER_UPDATE, |hits: &AtomicU32, _, _| {
            hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        })];
    let hits = Arc::new(AtomicU32::new(0));
    b.serve(&svc, &hits, UPDATES);

    a.links()
        .couple_method(&svc, "local_update", b.user(), &svc, "on_peer_update")
        .unwrap();
    // The application executes its local method, then consults the
    // SyD_LinkMethod table, exactly as §4.2 prescribes.
    let results = a
        .links()
        .invoke_coupled(&svc, "local_update", vec![Value::str("payload")])
        .unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].1.is_ok());
    assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
}
