//! End-to-end calendar scenarios — the narrative walkthroughs of §4.4 and
//! §5, executed against live devices on the simulated network.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::Arc;
use std::time::Duration;

use syd_calendar::{CalendarApp, GroupSpec, MeetingSpec, MeetingStatus, SlotState};
use syd_core::SydEnv;
use syd_net::{NetConfig, Network};
use syd_types::{Clock, MeetingId, Priority, SimClock, SlotRange, TimeSlot, UserId, Value};
use syd_wire::decode_from_slice;

/// In virtual time: waiting for background work costs no wall time.
fn rig(n: usize) -> (SydEnv, Vec<Arc<CalendarApp>>) {
    let net = Network::with_clock(NetConfig::ideal(), Arc::new(SimClock::new()));
    let env = SydEnv::on_network(net, None);
    let apps = (0..n)
        .map(|i| {
            let device = env.device(&format!("user{i}"), "").unwrap();
            CalendarApp::install(&device).unwrap()
        })
        .collect();
    (env, apps)
}

/// Lets the rig's virtual time pass in 10 ms steps until `cond` holds,
/// for 5 s at most.
fn wait_for(apps: &[Arc<CalendarApp>], mut cond: impl FnMut() -> bool, what: &str) {
    let clock = apps[0].device().clock();
    let clock = clock.as_sim().expect("the rig runs in virtual time");
    let deadline = clock.instant() + Duration::from_secs(5);
    while !cond() {
        assert!(clock.instant() < deadline, "timed out waiting for {what}");
        clock.run_for(Duration::from_millis(10));
    }
}

fn meeting_status(app: &CalendarApp, id: MeetingId) -> MeetingStatus {
    app.meeting(id).unwrap().unwrap().status
}

#[test]
fn meeting_confirms_when_everyone_is_free() {
    let (_env, apps) = rig(4);
    let slot = TimeSlot::new(1, 14);
    let attendees: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("standup", slot, attendees))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    assert_eq!(outcome.reserved.len(), 4);
    assert!(outcome.pending.is_empty());
    // Every device holds the slot for this meeting.
    for app in &apps {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap().meeting(),
            Some(outcome.meeting)
        );
    }
    // Participants were e-mailed.
    wait_for(
        &apps,
        || apps[1].mailbox().unread().unwrap() >= 1,
        "confirmation mail",
    );
    let mail = &apps[1].mailbox().inbox().unwrap()[0];
    assert!(mail.subject.contains("confirmed"), "{}", mail.subject);
}

#[test]
fn meeting_is_tentative_while_someone_is_busy_and_confirms_when_freed() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(2, 9);
    // user2 (C in the paper) is busy.
    apps[2].mark_busy(slot).unwrap();

    let attendees: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("review", slot, attendees))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    assert_eq!(outcome.pending, vec![apps[2].user()]);
    // Available folks hold the slot tentatively.
    assert_eq!(
        apps[1].slot_state(slot.ordinal()).unwrap(),
        SlotState::Tentative(outcome.meeting)
    );

    // "Whenever C becomes available … a tentative meeting has been
    // converted to committed."
    apps[2].free_personal(slot).unwrap();
    wait_for(
        &apps,
        || meeting_status(&apps[0], outcome.meeting) == MeetingStatus::Confirmed,
        "automatic confirmation",
    );
    wait_for(
        &apps,
        || apps[2].slot_state(slot.ordinal()).unwrap().meeting() == Some(outcome.meeting),
        "C's reservation",
    );
}

#[test]
fn cancelling_a_meeting_confirms_the_tentative_one_waiting_on_it() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(3, 10);
    let others: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();

    // Meeting 1 takes the slot everywhere.
    let m1 = apps[0]
        .schedule(MeetingSpec::plain("first", slot, others.clone()))
        .unwrap();
    assert_eq!(m1.status, MeetingStatus::Confirmed);

    // Meeting 2 (different initiator, same people, same slot) is blocked.
    let mut attendees2 = vec![apps[0].user(), apps[2].user()];
    attendees2.dedup();
    let m2 = apps[1]
        .schedule(MeetingSpec::plain("second", slot, attendees2))
        .unwrap();
    assert_eq!(m2.status, MeetingStatus::Tentative);

    // §4.4: cancel meeting 1 → waiting links promote → meeting 2 confirms
    // with no human involvement.
    apps[0].cancel(m1.meeting).unwrap();
    wait_for(
        &apps,
        || meeting_status(&apps[1], m2.meeting) == MeetingStatus::Confirmed,
        "automatic tentative→confirmed conversion",
    );
    // The initiator's record reads `Confirmed` while the commits of the
    // same batch are still on their way to the others: wait for them.
    wait_for(
        &apps,
        || {
            apps.iter()
                .all(|app| app.slot_state(slot.ordinal()).unwrap().meeting() == Some(m2.meeting))
        },
        "every participant holds meeting 2",
    );
}

#[test]
fn cancel_tears_down_all_links_everywhere() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(4, 11);
    let others: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("m", slot, others))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    // Links exist at initiator (forward) and participants (back links).
    assert!(apps[0].device().links().count().unwrap() >= 1);
    assert!(apps[1].device().links().count().unwrap() >= 1);

    apps[0].cancel(outcome.meeting).unwrap();
    wait_for(
        &apps,
        || {
            apps.iter()
                .all(|a| a.device().links().count().unwrap() == 0)
        },
        "link teardown",
    );
    for app in &apps {
        assert!(app.slot_state(slot.ordinal()).unwrap().is_free());
    }
    wait_for(
        &apps,
        || apps[1].mailbox().unread().unwrap() >= 2,
        "cancellation mail",
    );
}

#[test]
fn higher_priority_meeting_bumps_and_victim_reschedules() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(5, 9);
    let others: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();

    let low = apps[0]
        .schedule(MeetingSpec::plain("low", slot, others.clone()).with_priority(Priority::new(50)))
        .unwrap();
    assert_eq!(low.status, MeetingStatus::Confirmed);

    // An executive meeting outranks it on the same slot.
    let high = apps[1]
        .schedule(
            MeetingSpec::plain("high", slot, vec![apps[0].user(), apps[2].user()])
                .with_priority(Priority::new(200)),
        )
        .unwrap();
    assert_eq!(high.status, MeetingStatus::Confirmed);
    for app in &apps {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap().meeting(),
            Some(high.meeting)
        );
    }

    // The bumped meeting automatically lands on another common slot.
    wait_for(
        &apps,
        || {
            apps[0].meeting(low.meeting).unwrap().is_some_and(|m| {
                m.ordinal != slot.ordinal() && m.status == MeetingStatus::Confirmed
            })
        },
        "automatic rescheduling of the bumped meeting",
    );
    let moved = apps[0].meeting(low.meeting).unwrap().unwrap();
    wait_for(
        &apps,
        || {
            apps.iter()
                .all(|app| app.slot_state(moved.ordinal).unwrap().meeting() == Some(low.meeting))
        },
        "every participant holds the rescheduled slot",
    );
    // Every participant is told, in one mail round.
    for app in &apps[1..] {
        wait_for(
            &apps,
            || {
                let inbox = app.mailbox().inbox().unwrap();
                inbox.iter().any(|m| m.subject.starts_with("rescheduled:"))
            },
            "the rescheduling notice",
        );
    }
}

#[test]
fn participant_change_request_moves_or_fails_atomically() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(6, 10);
    let new_slot = TimeSlot::new(6, 15);
    let others: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("mtg", slot, others))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // D (user2) asks to move the meeting; everyone is free → moves.
    assert!(apps[2].request_change(outcome.meeting, new_slot).unwrap());
    wait_for(
        &apps,
        || {
            apps.iter().all(|a| {
                a.slot_state(new_slot.ordinal()).unwrap().meeting() == Some(outcome.meeting)
                    && a.slot_state(slot.ordinal()).unwrap().is_free()
            })
        },
        "meeting moved everywhere",
    );

    // Another move fails because user1 is busy at the target: "D would be
    // unable to change the schedule of the meeting."
    let blocked = TimeSlot::new(6, 20);
    apps[1].mark_busy(blocked).unwrap();
    assert!(!apps[2].request_change(outcome.meeting, blocked).unwrap());
    // Nothing changed.
    for app in &apps {
        assert_eq!(
            app.slot_state(new_slot.ordinal()).unwrap().meeting(),
            Some(outcome.meeting)
        );
    }
}

#[test]
fn quorum_meeting_biology_physics() {
    // §5: B and C must attend, ≥50% of Biology (2 of 4), ≥2 of Physics.
    let (_env, apps) = rig(9);
    let initiator = &apps[0];
    let b = apps[1].user();
    let c = apps[2].user();
    let biology: Vec<UserId> = apps[3..7].iter().map(|a| a.user()).collect();
    let physics: Vec<UserId> = apps[7..9].iter().map(|a| a.user()).collect();
    let slot = TimeSlot::new(7, 11);

    // Two biologists and nobody else are busy.
    apps[3].mark_busy(slot).unwrap();
    apps[4].mark_busy(slot).unwrap();

    let spec = MeetingSpec::plain("faculty", slot, vec![b, c])
        .with_group(GroupSpec::new(biology.clone(), 2))
        .with_group(GroupSpec::new(physics.clone(), 2));
    let outcome = initiator.schedule(spec).unwrap();
    // 2 of 4 biologists free => quorum met; both physicists free.
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    assert!(outcome.reserved.contains(&b));
    assert!(outcome.reserved.contains(&c));
    assert_eq!(
        outcome.pending,
        vec![apps[3].user(), apps[4].user()],
        "busy biologists stay pending"
    );

    // A third biologist booked too => below quorum => tentative.
    let slot2 = TimeSlot::new(8, 11);
    for app in &apps[3..6] {
        app.mark_busy(slot2).unwrap();
    }
    let spec2 = MeetingSpec::plain("faculty2", slot2, vec![b, c])
        .with_group(GroupSpec::new(biology.clone(), 2))
        .with_group(GroupSpec::new(physics.clone(), 2));
    let outcome2 = initiator.schedule(spec2).unwrap();
    assert_eq!(outcome2.status, MeetingStatus::Tentative);

    // One busy biologist frees up → quorum reached → auto-confirm.
    apps[5].free_personal(slot2).unwrap();
    wait_for(
        &apps,
        || meeting_status(initiator, outcome2.meeting) == MeetingStatus::Confirmed,
        "quorum auto-confirmation",
    );
}

#[test]
fn leaving_respects_quorums_and_musts() {
    let (_env, apps) = rig(6);
    let slot = TimeSlot::new(9, 13);
    let must = apps[1].user();
    let group: Vec<UserId> = apps[2..6].iter().map(|a| a.user()).collect();
    let spec = MeetingSpec::plain("committee", slot, vec![must])
        .with_group(GroupSpec::new(group.clone(), 2));
    let outcome = apps[0].schedule(spec).unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    assert_eq!(outcome.reserved.len(), 6);

    // A must-attendee can never leave.
    assert!(!apps[1].leave(outcome.meeting).unwrap());

    // Group members may leave while the quorum holds (4 -> 3 -> 2).
    assert!(apps[2].leave(outcome.meeting).unwrap());
    assert!(apps[3].leave(outcome.meeting).unwrap());
    wait_for(
        &apps,
        || apps[3].slot_state(slot.ordinal()).unwrap().is_free(),
        "leaver's slot freed",
    );
    // Now exactly k=2 remain; the next leave would break the quorum and
    // there is no free replacement (the two leavers' slots are free but
    // they already said no… they are candidates again, actually: they are
    // free, so recruitment re-reserves one of them).
    assert!(apps[4].leave(outcome.meeting).unwrap());
    let rec = apps[0].meeting(outcome.meeting).unwrap().unwrap();
    assert!(
        rec.constraints_satisfied(),
        "quorum must still hold after recruitment: {rec:?}"
    );

    // Drain attendance down to exactly k=2 group members (each leave is
    // granted while the quorum holds or a free member can be recruited)…
    loop {
        let rec = apps[0].meeting(outcome.meeting).unwrap().unwrap();
        let attending: Vec<UserId> = rec
            .reserved
            .iter()
            .copied()
            .filter(|u| group.contains(u))
            .collect();
        if attending.len() <= 2 {
            break;
        }
        let leaver = apps.iter().find(|a| a.user() == attending[0]).unwrap();
        assert!(leaver.leave(outcome.meeting).unwrap());
    }
    // …then block every possible replacement and deny the final leave.
    let rec = apps[0].meeting(outcome.meeting).unwrap().unwrap();
    let attending: Vec<UserId> = rec
        .reserved
        .iter()
        .copied()
        .filter(|u| group.contains(u))
        .collect();
    assert_eq!(attending.len(), 2);
    for app in &apps[2..6] {
        if !attending.contains(&app.user()) && app.slot_state(slot.ordinal()).unwrap().is_free() {
            app.mark_busy(slot).unwrap();
        }
    }
    let leaver = apps.iter().find(|a| a.user() == attending[0]).unwrap();
    assert!(
        !leaver.leave(outcome.meeting).unwrap(),
        "leave must be denied when the quorum would break with no replacement"
    );
}

#[test]
fn supervisor_changes_schedule_at_will_and_meeting_waits() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(10, 10);
    let supervisor = apps[1].user();
    let spec = MeetingSpec::plain("exec-review", slot, vec![supervisor, apps[2].user()])
        .with_supervisors(vec![supervisor]);
    let outcome = apps[0].schedule(spec).unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // The supervisor walks away to a conflicting engagement.
    apps[1]
        .supervisor_change(outcome.meeting, Some(slot))
        .unwrap();
    wait_for(
        &apps,
        || meeting_status(&apps[0], outcome.meeting) == MeetingStatus::Tentative,
        "meeting degrades to tentative",
    );

    // When the supervisor frees up, the meeting re-confirms automatically.
    apps[1].free_personal(slot).unwrap();
    wait_for(
        &apps,
        || meeting_status(&apps[0], outcome.meeting) == MeetingStatus::Confirmed,
        "meeting re-confirms",
    );
}

#[test]
fn find_common_slots_intersects_views() {
    let (_env, apps) = rig(3);
    let users: Vec<UserId> = apps.iter().map(|a| a.user()).collect();
    // Day 0: user0 busy at 9, user1 busy at 10, user2 busy at 9 and 11.
    apps[0].mark_busy(TimeSlot::new(0, 9)).unwrap();
    apps[1].mark_busy(TimeSlot::new(0, 10)).unwrap();
    apps[2].mark_busy(TimeSlot::new(0, 9)).unwrap();
    apps[2].mark_busy(TimeSlot::new(0, 11)).unwrap();

    let common = apps[0]
        .find_common_slots(
            &users,
            SlotRange::new(TimeSlot::new(0, 8), TimeSlot::new(0, 13)),
        )
        .unwrap();
    assert_eq!(
        common,
        vec![TimeSlot::new(0, 8), TimeSlot::new(0, 12)],
        "9, 10, 11 are taken by someone"
    );
}

#[test]
fn bitmap_and_list_intersections_agree() {
    let (_env, apps) = rig(3);
    let users: Vec<UserId> = apps.iter().map(|a| a.user()).collect();
    // A scatter of engagements across a multi-day window (the window
    // straddles word boundaries in the bitmap: 3 days of 24 slots).
    apps[0].mark_busy(TimeSlot::new(1, 3)).unwrap();
    apps[0].mark_busy(TimeSlot::new(2, 23)).unwrap();
    apps[1].mark_busy(TimeSlot::new(1, 3)).unwrap();
    apps[1].mark_busy(TimeSlot::new(3, 0)).unwrap();
    apps[2].mark_busy(TimeSlot::new(2, 0)).unwrap();
    let range = SlotRange::new(TimeSlot::new(1, 2), TimeSlot::new(3, 5));

    let via_bitmaps = apps[0].find_common_slots(&users, range).unwrap();
    // The reference: every app's own ordinal list, intersected by scan.
    let (start, end) = (range.start.ordinal(), range.end.ordinal());
    let mut via_lists = apps[0].free_ordinals(start, end).unwrap();
    for app in &apps[1..] {
        let theirs = app.free_ordinals(start, end).unwrap();
        via_lists.retain(|o| theirs.contains(o));
    }
    let via_lists: Vec<TimeSlot> = via_lists.into_iter().map(TimeSlot::from_ordinal).collect();
    assert_eq!(via_bitmaps, via_lists);
    assert!(!via_bitmaps.contains(&TimeSlot::new(1, 3)));
    assert!(!via_bitmaps.contains(&TimeSlot::new(2, 0)));
    assert!(via_bitmaps.contains(&TimeSlot::new(1, 4)));
    // Ascending, as schedulers downstream assume.
    let mut sorted = via_bitmaps.clone();
    sorted.sort();
    assert_eq!(via_bitmaps, sorted);
}

#[test]
fn free_slots_bitmap_service_answers_packed_bytes() {
    use syd_types::SlotBitmap;
    let (_env, apps) = rig(2);
    apps[1].mark_busy(TimeSlot::new(0, 5)).unwrap();
    let reply = apps[0]
        .device()
        .engine()
        .invoke(
            apps[1].user(),
            &syd_calendar::app::calendar_service(),
            "free_slots_bitmap",
            vec![Value::from(0u64), Value::from(24u64)],
        )
        .unwrap();
    let bm: SlotBitmap = decode_from_slice(reply.as_bytes().unwrap()).unwrap();
    assert!(!bm.is_free(TimeSlot::new(0, 5)));
    assert!(bm.is_free(TimeSlot::new(0, 6)));
    assert_eq!(bm.count_free(), 23);
}

#[test]
fn free_slots_bitmap_refuses_a_window_before_allocating_for_it() {
    use syd_calendar::app::MAX_FREE_WINDOW;
    use syd_types::{SlotBitmap, SydError};
    let (_env, apps) = rig(2);
    let ask = |start: Value, end: Value| {
        apps[0].device().engine().invoke(
            apps[1].user(),
            &syd_calendar::app::calendar_service(),
            "free_slots_bitmap",
            vec![start, end],
        )
    };
    for (start, end) in [
        // u64::MAX on the wire is -1: a negative bound.
        (Value::from(0u64), Value::from(u64::MAX)),
        (Value::I64(-24), Value::from(24u64)),
        (Value::from(0u64), Value::from(MAX_FREE_WINDOW + 1)),
        (Value::from(100u64), Value::from(i64::MAX as u64)),
    ] {
        let err = ask(start.clone(), end.clone()).unwrap_err();
        assert!(
            matches!(err, SydError::Protocol(_)),
            "[{start}, {end}): {err}"
        );
    }
    // A leap year of hours is answered, and so is a reversed window.
    let year = ask(Value::from(24u64), Value::from(24 + MAX_FREE_WINDOW)).unwrap();
    let year: SlotBitmap = decode_from_slice(year.as_bytes().unwrap()).unwrap();
    assert_eq!(u64::from(year.count_free()), MAX_FREE_WINDOW);
    let none = ask(Value::from(48u64), Value::from(24u64)).unwrap();
    assert!(decode_from_slice::<SlotBitmap>(none.as_bytes().unwrap())
        .unwrap()
        .is_empty());
}

/// A peer's status and ordinals are checked where they enter: an
/// unknown status or a negative ordinal is refused as a protocol error
/// before anything is written, so the slot, the record and the links stay
/// as they were — a bogus status used to free the slot and drop the links
/// while leaving the record `Confirmed`, and a negative ordinal wrapped.
#[test]
fn a_bogus_status_or_negative_ordinal_changes_nothing() {
    use syd_types::SydError;
    let (_env, apps) = rig(2);
    let slot = TimeSlot::new(3, 8);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("m", slot, vec![apps[1].user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    let id = Value::from(outcome.meeting.raw());
    let ordinal = Value::from(slot.ordinal());
    let ask = |method: &str, args: Vec<Value>| {
        apps[0].device().engine().invoke(
            apps[1].user(),
            &syd_calendar::app::calendar_service(),
            method,
            args,
        )
    };
    let record = apps[1].meeting(outcome.meeting).unwrap().unwrap();
    let calls = [
        (
            "release_slot",
            vec![
                ordinal.clone(),
                id.clone(),
                Value::str("gone"),
                Value::Bool(true),
            ],
        ),
        (
            "release_slot",
            vec![
                ordinal.clone(),
                id.clone(),
                Value::I64(4),
                Value::Bool(true),
            ],
        ),
        (
            "release_slot",
            vec![
                Value::I64(-1),
                id.clone(),
                Value::from(MeetingStatus::Cancelled),
                Value::Bool(true),
            ],
        ),
        (
            "queue_availability",
            vec![Value::I64(-1), record.to_value()],
        ),
        ("slot_status", vec![Value::I64(-1)]),
        (
            "change_request",
            vec![
                id.clone(),
                Value::I64(-1),
                Value::from(apps[1].user().raw()),
            ],
        ),
        ("meeting_bumped", vec![id.clone(), Value::I64(-1)]),
    ];
    for (method, args) in calls {
        let err = ask(method, args).unwrap_err();
        assert!(matches!(err, SydError::Protocol(_)), "{method}: {err}");
        for app in &apps {
            assert_eq!(
                app.slot_state(slot.ordinal()).unwrap(),
                SlotState::Reserved(outcome.meeting),
                "{method}"
            );
            assert_eq!(
                meeting_status(app, outcome.meeting),
                MeetingStatus::Confirmed
            );
            assert_eq!(app.device().links().count().unwrap(), 1, "{method}");
        }
        assert_eq!(apps[1].meeting(outcome.meeting).unwrap().unwrap(), record);
    }
}

#[test]
fn concurrent_initiators_cannot_double_book_a_slot() {
    let (_env, apps) = rig(4);
    let slot = TimeSlot::new(11, 9);
    let users: Vec<UserId> = apps.iter().map(|a| a.user()).collect();

    // Two initiators race for the same slot with the same participants.
    let a0 = Arc::clone(&apps[0]);
    let a1 = Arc::clone(&apps[1]);
    let users0 = users.clone();
    let users1 = users.clone();
    let t0 = std::thread::spawn(move || {
        a0.schedule(MeetingSpec::plain("race-A", slot, users0))
            .unwrap()
    });
    let t1 = std::thread::spawn(move || {
        a1.schedule(MeetingSpec::plain("race-B", slot, users1))
            .unwrap()
    });
    let o0 = t0.join().unwrap();
    let o1 = t1.join().unwrap();

    // At most one meeting confirmed; and on every device the slot belongs
    // to at most one meeting.
    let confirmed = [o0.status, o1.status]
        .iter()
        .filter(|&&s| s == MeetingStatus::Confirmed)
        .count();
    assert!(confirmed <= 1, "both meetings confirmed: {o0:?} {o1:?}");
    let mut holders = std::collections::HashSet::new();
    for app in &apps {
        if let Some(m) = app.slot_state(slot.ordinal()).unwrap().meeting() {
            holders.insert(m.raw());
        }
    }
    assert!(
        holders.len() <= 1,
        "slot split between meetings: {holders:?}"
    );
}

/// A cancel issued while a reconcile round of the same meeting is in
/// flight must win. Before `cancel` took the per-meeting guard, a round
/// that had read the record first re-grabbed the slots the cancel had just
/// released and wrote `Confirmed` back over `Cancelled`, for good.
#[test]
fn cancel_during_a_reconcile_round_leaves_nothing_behind() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (_env, apps) = rig(4);
    let links_before: Vec<usize> = apps
        .iter()
        .map(|a| a.device().links().count().unwrap())
        .collect();
    let slot = TimeSlot::new(15, 9);
    let attendees: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();

    // user1 finishes a commit through a gate: once armed, the next
    // commit there is held back until the cancel has run — or, when the
    // cancel rightly waits for the round, for a bounded moment.
    let armed = Arc::new(AtomicBool::new(false));
    let (entered_tx, entered_rx) = syd_types::queue::channel::<()>();
    let (resume_tx, resume_rx) = syd_types::queue::channel::<()>();
    let gate = Arc::clone(&armed);
    apps[1].device().events().subscribe(
        "calendar.reserved",
        Arc::new(move |_topic, _payload| {
            if gate.swap(false, Ordering::SeqCst) {
                let _ = entered_tx.send(());
                let _ = resume_rx.recv_timeout(Duration::from_millis(300));
            }
        }),
    );

    let outcome = apps[0]
        .schedule(MeetingSpec::plain("raced", slot, attendees))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    let id = outcome.meeting;

    // The round has read the record and is waiting for user1's commit…
    armed.store(true, Ordering::SeqCst);
    let initiator = Arc::clone(&apps[0]);
    let round = std::thread::spawn(move || initiator.reconcile(id));
    entered_rx.recv().unwrap();
    // …when the cancel arrives.
    apps[0].cancel(id).unwrap();
    let _ = resume_tx.send(());
    round.join().unwrap().unwrap();

    assert_eq!(meeting_status(&apps[0], id), MeetingStatus::Cancelled);
    // A round queued behind the cancel sees `Cancelled` and does nothing.
    assert_eq!(apps[0].reconcile(id).unwrap(), MeetingStatus::Cancelled);
    wait_for(
        &apps,
        || {
            apps.iter().zip(&links_before).all(|(a, &before)| {
                a.slot_state(slot.ordinal()).unwrap().is_free()
                    && a.device().links().count().unwrap() == before
            })
        },
        "every slot free and every link gone",
    );
    syd_check::audit(apps.iter().map(|a| a.device())).assert_clean();
}

#[test]
fn only_initiator_cancels() {
    let (_env, apps) = rig(2);
    let slot = TimeSlot::new(12, 9);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("m", slot, vec![apps[1].user()]))
        .unwrap();
    let err = apps[1].cancel(outcome.meeting).unwrap_err();
    assert!(err.to_string().contains("initiator"), "{err}");
    apps[0].cancel(outcome.meeting).unwrap();
    assert_eq!(
        meeting_status(&apps[0], outcome.meeting),
        MeetingStatus::Cancelled
    );
}

#[test]
fn busy_marks_and_frees_are_validated() {
    let (_env, apps) = rig(1);
    let slot = TimeSlot::new(13, 9);
    apps[0].mark_busy(slot).unwrap();
    assert!(apps[0].mark_busy(slot).is_err(), "double busy");
    assert_eq!(apps[0].slot_state(slot.ordinal()).unwrap(), SlotState::Busy);
    apps[0].free_personal(slot).unwrap();
    assert!(apps[0].free_personal(slot).is_err(), "double free");
    assert!(apps[0].slot_state(slot.ordinal()).unwrap().is_free());
}

#[test]
fn meeting_with_unreachable_participant_stays_tentative() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(14, 9);
    apps[2].device().disconnect().unwrap();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain(
            "m",
            slot,
            vec![apps[1].user(), apps[2].user()],
        ))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    assert_eq!(outcome.pending, vec![apps[2].user()]);
    // The reachable participants still hold the slot.
    assert_eq!(
        apps[1].slot_state(slot.ordinal()).unwrap(),
        SlotState::Tentative(outcome.meeting)
    );

    // Reconnect and repair: the meeting confirms.
    apps[2].device().reconnect().unwrap();
    let status = apps[0].reconcile(outcome.meeting).unwrap();
    assert_eq!(status, MeetingStatus::Confirmed);
}

/// A peer's priority is checked where it enters, as every verb's is: a
/// mark or a commit whose change carries a priority outside 0–255 is
/// refused, and the slot keeps its holder. Read by truncation, `-1`
/// arrived as 255 and outranked every holder, and `356` as 100.
#[test]
fn a_change_with_a_priority_out_of_range_is_refused() {
    use syd_calendar::app::SLOT_STATUS;
    use syd_core::negotiate::link_service;
    let (_env, apps) = rig(2);
    let slot = TimeSlot::new(3, 10);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("held", slot, vec![apps[1].user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    let holder = apps[1].slot_state(slot.ordinal()).unwrap();
    assert_eq!(holder, SlotState::Reserved(outcome.meeting));
    let status = || {
        let engine = apps[0].device().engine();
        engine.call(apps[1].user(), SLOT_STATUS, (slot.ordinal(),))
    };
    let before = status().unwrap();

    // A rogue coordinator: `mark` and `commit` go out through the node,
    // past the engine, which sends no §4.3 verb of its own accord.
    let mut rogue = apps[1].meeting(outcome.meeting).unwrap().unwrap();
    rogue.id = MeetingId::new(outcome.meeting.raw() + 1);
    let node = apps[0].device().node();
    let addr = apps[1].device().addr();
    for (n, priority) in [(1, -1), (2, 256)] {
        let change = Value::map([
            ("action", Value::str("reserve")),
            ("meeting", Value::from(rogue.id.raw())),
            ("priority", Value::I64(priority)),
            ("record", rogue.to_value()),
        ]);
        let step = |verb: &str| {
            let args = vec![
                Value::from((99u64 << 24) | n),
                Value::str(syd_calendar::slot_entity(slot.ordinal())),
                change.clone(),
            ];
            node.call(addr, &link_service(), verb, args)
        };
        let vote = step("mark");
        assert_eq!(
            vote,
            Ok(Value::Bool(false)),
            "priority {priority}: a vote no"
        );
        let commit = step("commit");
        assert!(commit.is_err(), "priority {priority}: {commit:?}");
        assert_eq!(status().unwrap(), before, "priority {priority}");
        assert_eq!(apps[1].slot_state(slot.ordinal()).unwrap(), holder);
    }
    assert_eq!(apps[1].device().store().locks().held_count(), 0);
}
