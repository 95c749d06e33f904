//! What an operation costs on the wire (DESIGN.md §16): the §4.3 mark
//! and commit rounds and nothing else on the free path, one more round
//! only where somebody declined or a commit failed. Counted on the ideal
//! simulator with the initiator's `engine.rounds` and the transport's
//! `transport.frames_out`, at n = 8, with the address caches warm.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_calendar::app::calendar_service;
use syd_calendar::{CalendarApp, MeetingId, MeetingSpec, MeetingStatus, SlotState};
use syd_core::{EntityHandler, SydEnv};
use syd_net::NetConfig;
use syd_telemetry::names;
use syd_types::{SydError, SydResult, TimeSlot, UserId, Value};

const N: usize = 8;

/// `users` calendar users whose engines have resolved one another.
fn rig(users: usize) -> (SydEnv, Vec<Arc<CalendarApp>>) {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let apps: Vec<Arc<CalendarApp>> = (0..users)
        .map(|i| CalendarApp::install(&env.device(&format!("user{i}"), "").unwrap()).unwrap())
        .collect();
    let everyone = users_of(&apps);
    for app in &apps {
        let resolved = app.device().engine().resolve_many(&everyone);
        assert!(resolved.iter().all(|(_, addr)| addr.is_ok()));
    }
    (env, apps)
}

fn users_of(apps: &[Arc<CalendarApp>]) -> Vec<UserId> {
    apps.iter().map(|a| a.user()).collect()
}

fn rounds(app: &CalendarApp) -> u64 {
    app.device()
        .metrics()
        .get_counter(names::ENGINE_ROUNDS)
        .map_or(0, |c| c.get())
}

fn frames(env: &SydEnv) -> u64 {
    env.transport()
        .metrics()
        .counter(names::TRANSPORT_FRAMES_OUT)
        .get()
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits until no frame has been sent for a while: the background work
/// of promotions and wake-ups is done.
fn settle(env: &SydEnv) {
    let mut seen = frames(env);
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(100) {
        std::thread::sleep(Duration::from_millis(5));
        let now = frames(env);
        if now != seen {
            seen = now;
            quiet_since = Instant::now();
        }
    }
}

fn status_at(app: &CalendarApp, id: MeetingId) -> Option<MeetingStatus> {
    app.meeting(id).unwrap().map(|m| m.status)
}

fn no_availability_link_left(apps: &[Arc<CalendarApp>]) {
    for app in apps {
        let left = app.device().links().all().unwrap();
        assert!(
            left.iter().all(|l| !l.corr.starts_with("avail:")),
            "{} keeps an availability link: {left:?}",
            app.user()
        );
    }
}

#[test]
fn a_free_schedule_is_mark_and_commit_and_a_cancel_release_and_cascade() {
    let (env, apps) = rig(N);
    let a = &apps[0];
    let slot = TimeSlot::new(1, 9);

    let (r0, f0) = (rounds(a), frames(&env));
    let outcome = a
        .schedule(MeetingSpec::plain("free", slot, users_of(&apps[1..])))
        .unwrap();
    let (r1, f1) = (rounds(a), frames(&env));
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    assert_eq!(outcome.reserved.len(), N);
    assert_eq!(r1 - r0, 2, "schedule: the mark round and the commit round");
    assert_eq!(
        f1 - f0,
        4 * N as u64,
        "schedule: a mark and a commit per member, each with its reply"
    );
    // What used to take a round of its own is in place when the call
    // returns: the record, the confirmed row, the back link and the mail.
    for app in &apps {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap(),
            SlotState::Reserved(outcome.meeting)
        );
        assert_eq!(
            status_at(app, outcome.meeting),
            Some(MeetingStatus::Confirmed)
        );
        assert_eq!(app.device().links().count().unwrap(), 1);
    }
    for app in &apps[1..] {
        let inbox = app.mailbox().inbox().unwrap();
        assert_eq!(inbox.len(), 1, "{inbox:?}");
        assert_eq!(inbox[0].subject, "confirmed: free");
        assert_eq!(inbox[0].from, a.user());
    }
    assert_eq!(a.mailbox().unread().unwrap(), 0);

    a.cancel(outcome.meeting).unwrap();
    assert_eq!(
        rounds(a) - r1,
        2,
        "cancel: the release round and the cascade round"
    );
    for app in &apps {
        assert!(app.slot_state(slot.ordinal()).unwrap().is_free());
        assert_eq!(
            status_at(app, outcome.meeting),
            Some(MeetingStatus::Cancelled)
        );
        assert_eq!(app.device().links().count().unwrap(), 0);
    }
    for app in &apps[1..] {
        let inbox = app.mailbox().inbox().unwrap();
        assert_eq!(inbox.len(), 2, "{inbox:?}");
        assert_eq!(inbox[1].subject, "cancelled: free");
        assert_eq!(inbox[1].from, a.user());
    }
    syd_check::audit_strict(apps.iter().map(|a| a.device())).assert_clean();
}

/// Two 8-member meetings sharing 4 members, B's scheduled the instant
/// A's call returns: the anchors B's waiting links need are there, so A's
/// cancel promotes B, and B's cancel leaves nothing. `drop_availability`
/// is sent only by a cancel, to where its initiator still has a link
/// queued: a member a round reserves drops its own in the commit.
#[test]
fn a_blocked_schedule_is_three_rounds_and_is_promoted_by_the_cancel() {
    let (env, apps) = rig(13);
    let (a, b, c) = (&apps[0], &apps[8], &apps[12]);
    let slot = TimeSlot::new(2, 9);

    let first = a
        .schedule(MeetingSpec::plain("a", slot, users_of(&apps[1..8])))
        .unwrap();
    let r0 = rounds(b);
    let second = b
        .schedule(MeetingSpec::plain(
            "b",
            slot,
            [users_of(&apps[4..8]), users_of(&apps[9..12])].concat(),
        ))
        .unwrap();
    assert_eq!(first.status, MeetingStatus::Confirmed);
    assert_eq!(second.status, MeetingStatus::Tentative);
    assert_eq!(second.pending, users_of(&apps[4..8]));
    assert_eq!(
        rounds(b) - r0,
        3,
        "blocked: mark, commit, and the availability queues at the missing"
    );
    for app in &apps[4..8] {
        assert_eq!(
            app.device().links().waiting().unwrap().len(),
            1,
            "{}: B's availability link waits on A's back link",
            app.user()
        );
    }

    // C queues behind A at two members and gives up while still blocked:
    // 3 releases, 2 drops, and the cascade to its 2 peers.
    let third = c
        .schedule(MeetingSpec::plain("c", slot, users_of(&apps[4..6])))
        .unwrap();
    assert_eq!(third.pending, users_of(&apps[4..6]));
    let f0 = frames(&env);
    c.cancel(third.meeting).unwrap();
    assert_eq!(frames(&env) - f0, 2 * (3 + 2 + 2));

    a.cancel(first.meeting).unwrap();
    wait_for(
        || status_at(b, second.meeting) == Some(MeetingStatus::Confirmed),
        "the promotion",
    );
    settle(&env);
    for app in &apps[4..12] {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap(),
            SlotState::Reserved(second.meeting),
            "at {}",
            app.user()
        );
    }
    no_availability_link_left(&apps);

    // Wake-ups that find nobody missing send nothing: all that moves is
    // each call and its reply.
    let (r1, f1) = (rounds(b), frames(&env));
    for _ in 0..N {
        let confirmed = apps[4]
            .device()
            .engine()
            .invoke(
                b.user(),
                &calendar_service(),
                "peer_available",
                vec![Value::from(second.meeting.raw())],
            )
            .unwrap();
        assert_eq!(confirmed, Value::Bool(true));
    }
    assert_eq!(rounds(b) - r1, 0, "a stale wake-up starts no round");
    assert_eq!(frames(&env) - f1, 2 * N as u64);

    // Nothing is queued any more: 8 releases and the cascade to 7 peers.
    let f2 = frames(&env);
    b.cancel(second.meeting).unwrap();
    assert_eq!(frames(&env) - f2, 2 * (8 + 7));
    settle(&env);
    no_availability_link_left(&apps);
    for app in &apps {
        assert!(app.slot_state(slot.ordinal()).unwrap().is_free());
        assert_eq!(app.device().links().count().unwrap(), 0);
    }
    syd_check::audit_strict(apps.iter().map(|a| a.device())).assert_clean();
}

/// Cancelling a tentative meeting reaches the member that never got the
/// slot: its record must not stay `Tentative`.
#[test]
fn a_cancel_writes_the_record_where_the_slot_was_never_held() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(3, 9);
    apps[2].mark_busy(slot).unwrap();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("review", slot, users_of(&apps[1..])))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    assert_eq!(
        status_at(&apps[2], outcome.meeting),
        Some(MeetingStatus::Tentative)
    );

    apps[0].cancel(outcome.meeting).unwrap();
    for app in &apps {
        let rec = app.meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.status, MeetingStatus::Cancelled, "at {}", app.user());
        assert!(rec.reserved.is_empty());
    }
    assert_eq!(apps[2].slot_state(slot.ordinal()).unwrap(), SlotState::Busy);
    assert_eq!(
        apps[2].mailbox().unread().unwrap(),
        0,
        "never held, no mail"
    );
    no_availability_link_left(&apps);
}

/// A repair round re-commits the holders of a confirmed meeting; their
/// slot rows, links and inboxes must not notice.
#[test]
fn repairing_a_confirmed_meeting_changes_nothing() {
    let (_env, apps) = rig(4);
    let slot = TimeSlot::new(4, 9);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("steady", slot, users_of(&apps[1..])))
        .unwrap();
    for _ in 0..2 {
        assert_eq!(
            apps[0].reconcile(outcome.meeting).unwrap(),
            MeetingStatus::Confirmed
        );
        for app in &apps {
            assert_eq!(
                app.slot_state(slot.ordinal()).unwrap(),
                SlotState::Reserved(outcome.meeting),
                "at {}",
                app.user()
            );
            assert_eq!(app.device().links().count().unwrap(), 1);
        }
        for app in &apps[1..] {
            assert_eq!(app.mailbox().unread().unwrap(), 1);
        }
    }
}

/// Votes yes and then fails every commit.
struct CommitFails;

impl EntityHandler for CommitFails {
    fn prepare(&self, _entity: &str, _change: &Value) -> SydResult<()> {
        Ok(())
    }
    fn commit(&self, _entity: &str, _change: &Value) -> SydResult<()> {
        Err(SydError::App("the calendar database is read-only".into()))
    }
    fn abort(&self, _entity: &str, _change: &Value) {}
}

/// The commits carry the record the votes promised. When one of them
/// fails for good, what the others were told is wrong, and a corrective
/// round puts the record as it really stands at every member.
#[test]
fn a_failed_commit_is_corrected_at_every_member() {
    let (env, apps) = rig(N);
    let slot = TimeSlot::new(5, 9);
    let broken = &apps[3];
    broken.device().set_entity_handler(Arc::new(CommitFails));

    let outcome = apps[0]
        .schedule(MeetingSpec::plain("dented", slot, users_of(&apps[1..])))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    assert_eq!(outcome.pending, vec![broken.user()]);
    // The availability link queued at the member finds its slot free and
    // wakes the initiator once more, to the same end.
    settle(&env);

    let holders: Vec<UserId> = apps
        .iter()
        .filter(|a| a.user() != broken.user())
        .map(|a| a.user())
        .collect();
    for app in &apps {
        let rec = app.meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.status, MeetingStatus::Tentative, "at {}", app.user());
        assert_eq!(rec.reserved, holders, "at {}", app.user());
        let expected = if app.user() == broken.user() {
            SlotState::Free
        } else {
            SlotState::Tentative(outcome.meeting)
        };
        assert_eq!(app.slot_state(slot.ordinal()).unwrap(), expected);
    }
    syd_check::audit(apps.iter().map(|a| a.device())).assert_clean();
}
