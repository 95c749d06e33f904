//! What an operation costs on the wire (DESIGN.md §16): the §4.3 mark
//! and commit rounds and nothing else for a `schedule`, blocked or not —
//! the availability queues ride on the commits — one more round only
//! where a commit failed; one round for a `cancel`, whose releases carry
//! the §4.4 cascade. Counted on the ideal simulator with the initiator's
//! `engine.rounds` and the transport's `transport.frames_out`, at n = 8,
//! with the address caches warm. A call a device makes to itself is served
//! in-process, so an operation sends 2 × (calls − self-calls) frames.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::Arc;
use std::time::Duration;

use syd_calendar::app::{calendar_service, RELEASE_SLOT};
use syd_calendar::{CalendarApp, GroupSpec, MeetingId, MeetingSpec, MeetingStatus, SlotState};
use syd_core::links::DELETE_BY_CORR;
use syd_core::negotiate::link_service;
use syd_core::{DeviceRuntime, EntityHandler, Method, Methods, SydEnv};
use syd_net::{NetConfig, Network};
use syd_store::{Trigger, TriggerEvent};
use syd_telemetry::names;
use syd_types::sync::{Mutex, Rank};
use syd_types::{Clock, SimClock, SydError, SydResult, TimeSlot, UserId, Value};

const N: usize = 8;

/// `users` calendar users whose engines have resolved one another and
/// whose services the directory has acknowledged: an install's publish
/// wave runs in the background, and its frames must not land inside a
/// counted operation.
/// In virtual time: waiting for background work costs no wall time.
fn rig(users: usize) -> (SydEnv, Vec<Arc<CalendarApp>>) {
    let net = Network::with_clock(NetConfig::ideal(), Arc::new(SimClock::new()));
    let env = SydEnv::on_network(net, None);
    let apps: Vec<Arc<CalendarApp>> = (0..users)
        .map(|i| CalendarApp::install(&env.device(&format!("user{i}"), "").unwrap()).unwrap())
        .collect();
    let everyone = users_of(&apps);
    for app in &apps {
        wait_for(
            &env,
            || app.device().unpublished().is_empty(),
            "the install's publishes",
        );
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

/// Lets the deployment's virtual time pass in 5 ms steps until `cond`
/// holds, for 5 s at most.
fn wait_for(env: &SydEnv, mut cond: impl FnMut() -> bool, what: &str) {
    let clock = sim(env);
    let deadline = clock.instant() + Duration::from_secs(5);
    while !cond() {
        assert!(clock.instant() < deadline, "timed out waiting for {what}");
        clock.run_for(Duration::from_millis(5));
    }
}

/// Waits until no frame has been sent for a while: the background work
/// of promotions and wake-ups is done.
fn settle(env: &SydEnv) {
    let clock = sim(env);
    let mut seen = frames(env);
    let mut quiet_since = clock.instant();
    while clock.instant() - quiet_since < Duration::from_millis(100) {
        clock.run_for(Duration::from_millis(5));
        let now = frames(env);
        if now != seen {
            seen = now;
            quiet_since = clock.instant();
        }
    }
}

/// The rig's virtual clock.
fn sim(env: &SydEnv) -> &SimClock {
    env.clock().as_sim().expect("the rig runs in virtual time")
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
fn a_free_schedule_is_mark_and_commit_and_a_cancel_is_one_round() {
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
        4 * (N as u64 - 1),
        "schedule: 2 × (2N calls − 2 to itself): a mark and a commit per other member, each with its reply"
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
        1,
        "cancel: the releases, which carry the cascade"
    );
    assert_eq!(
        frames(&env) - f1,
        2 * (N as u64 - 1),
        "cancel: 2 × (N releases − 1 to itself), nothing to mop up"
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

/// A commit wave shares one body among the members whose commit is the
/// same, and only among them: every member's carries the one record, the
/// supervisor's the subscription back link (§5: "only a subscription back
/// link") and everyone else's the negotiation-and one.
#[test]
fn a_supervisor_gets_a_commit_body_of_its_own() {
    use syd_core::links::{Constraint, Link, LinkKind};
    use syd_wire::Encoded;
    use syd_wire::{decode_from_slice, encode_to_vec, Envelope, Payload};
    let (_env, apps) = rig(4);
    let taps: Vec<_> = apps[1..]
        .iter()
        .map(|app| {
            let (tx, rx) = syd_types::queue::channel();
            app.device().node().link().set_frame_tap(tx);
            rx
        })
        .collect();
    let members = users_of(&apps[1..]);
    let supervisor = members[1];
    let spec = MeetingSpec::plain("sup", TimeSlot::new(2, 10), members.clone())
        .with_supervisors(vec![supervisor]);
    let outcome = apps[0].schedule(spec).unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    let mut bodies = Vec::new();
    for (tap, &member) in taps.iter().zip(&members) {
        while let Ok(frame) = tap.try_recv() {
            let envelope: Envelope = decode_from_slice(&frame).unwrap();
            match envelope.payload {
                Payload::Request(request) if request.method == "commit" => {
                    assert_eq!(request.service, link_service());
                    bodies.push((member, request.args.to_vec().unwrap()));
                }
                _ => {}
            }
        }
    }
    assert_eq!(bodies.len(), members.len(), "one commit frame per member");
    let record = bodies[0].1[2].get("record").unwrap().clone();
    for (member, args) in &bodies {
        let change = &args[2];
        assert_eq!(change.get("record").unwrap(), &record, "one record for all");
        let link = Encoded::<Link>::of(change.get("link").unwrap()).unwrap();
        let want = match *member == supervisor {
            true => LinkKind::Subscription,
            false => LinkKind::Negotiation(Constraint::And),
        };
        assert_eq!(link.kind, want, "{member}'s back link");
    }
    let bytes = |at: usize| encode_to_vec(&bodies[at].1);
    assert_eq!(bytes(0), bytes(2), "two plain members, one body");
    assert_ne!(bytes(0), bytes(1), "the supervisor's is its own");
}

/// Two 8-member meetings sharing 4 members, B's scheduled the instant
/// A's call returns: the anchors B's waiting links need are there, so A's
/// cancel promotes B, and B's cancel leaves nothing. `drop_availability`
/// is sent only by a cancel, to where its initiator still has a link
/// queued: a member a round reserves drops its own in the commit.
#[test]
fn a_blocked_schedule_is_two_rounds_and_is_promoted_by_the_cancel() {
    let (env, apps) = rig(13);
    let (a, b, c) = (&apps[0], &apps[8], &apps[12]);
    let slot = TimeSlot::new(2, 9);

    let first = a
        .schedule(MeetingSpec::plain("a", slot, users_of(&apps[1..8])))
        .unwrap();
    let (r0, f0) = (rounds(b), frames(&env));
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
        2,
        "blocked: mark, and the commits with the availability queues at the missing"
    );
    assert_eq!(
        frames(&env) - f0,
        2 * (16 - 2),
        "blocked: 2 × (8 marks + 4 commits + 4 queues − B's own mark and commit)"
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
    // 3 releases, one of them its own, and 2 drops.
    let third = c
        .schedule(MeetingSpec::plain("c", slot, users_of(&apps[4..6])))
        .unwrap();
    assert_eq!(third.pending, users_of(&apps[4..6]));
    let f0 = frames(&env);
    c.cancel(third.meeting).unwrap();
    assert_eq!(frames(&env) - f0, 2 * (3 + 2 - 1));

    a.cancel(first.meeting).unwrap();
    wait_for(
        &env,
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

    // Nothing is queued any more: 8 releases, one of them B's own.
    let (r2, f2) = (rounds(b), frames(&env));
    b.cancel(second.meeting).unwrap();
    assert_eq!(rounds(b) - r2, 1);
    assert_eq!(frames(&env) - f2, 2 * (8 - 1));
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
    fn commit(&self, _entity: &str, _change: Value) -> SydResult<()> {
        Err(SydError::App("the calendar database is read-only".into()))
    }
    fn abort(&self, _entity: &str, _change: &Value) {}
}

/// The commits carry the record the votes promised, and so does the
/// `queue_availability` that rides with them to a member that voted no.
/// When a commit fails for good, what the others were told is wrong — the
/// no-voter too: `Confirmed`, with the failed member reserved — and a
/// corrective round puts the record as it really stands at every member,
/// and queues the failed one. The no-voter stays queued.
#[test]
fn a_failed_commit_is_corrected_at_every_member() {
    let (env, apps) = rig(N);
    let slot = TimeSlot::new(5, 9);
    let (broken, busy) = (&apps[3], &apps[6]);
    broken.device().set_entity_handler(Arc::new(CommitFails));
    busy.mark_busy(slot).unwrap();

    // Everyone but `busy` must attend; `busy` comes if it can.
    let musts: Vec<UserId> = users_of(&apps[1..])
        .into_iter()
        .filter(|&u| u != busy.user())
        .collect();
    let spec =
        MeetingSpec::plain("dented", slot, musts).with_group(GroupSpec::new(vec![busy.user()], 0));
    let outcome = apps[0].schedule(spec).unwrap();
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    assert_eq!(outcome.pending, vec![broken.user(), busy.user()]);
    // The availability link queued at the failed member finds its slot
    // free and wakes the initiator once more, to the same end.
    settle(&env);

    let holders: Vec<UserId> = apps
        .iter()
        .filter(|a| a.user() != broken.user() && a.user() != busy.user())
        .map(|a| a.user())
        .collect();
    for app in &apps {
        let rec = app.meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.status, MeetingStatus::Tentative, "at {}", app.user());
        assert_eq!(rec.reserved, holders, "at {}", app.user());
        let expected = if app.user() == broken.user() {
            SlotState::Free
        } else if app.user() == busy.user() {
            SlotState::Busy
        } else {
            SlotState::Tentative(outcome.meeting)
        };
        assert_eq!(app.slot_state(slot.ordinal()).unwrap(), expected);
    }
    for missing in [broken, busy] {
        let corr = format!("avail:{}:{}", outcome.meeting.raw(), missing.user().raw());
        let queued = missing.device().links().ids_by_corr(&corr).unwrap();
        assert_eq!(queued.len(), 1, "{} is not queued", missing.user());
    }
    syd_check::audit(apps.iter().map(|a| a.device())).assert_clean();
}

/// A's retiring release reaches one shared member long before the others
/// (the cascade no longer waits behind a release round, DESIGN.md §16):
/// that member's promotion starts B's round while the other three still
/// hold the slot for A. They vote no, B stays tentative, and each late
/// release then promotes B once more.
#[test]
fn a_promotion_that_beats_a_late_release_is_healed_by_it() {
    let (env, apps) = rig(13);
    let (a, b) = (&apps[0], &apps[8]);
    let slot = TimeSlot::new(6, 9);
    let first = a
        .schedule(MeetingSpec::plain("a", slot, users_of(&apps[1..8])))
        .unwrap();
    let second = b
        .schedule(MeetingSpec::plain(
            "b",
            slot,
            [users_of(&apps[4..8]), users_of(&apps[9..12])].concat(),
        ))
        .unwrap();
    assert_eq!(second.pending, users_of(&apps[4..8]));

    // What A's cancel sends, to the first shared member only.
    let early = &apps[4];
    let freed = a
        .device()
        .engine()
        .invoke(
            early.user(),
            &calendar_service(),
            "release_slot",
            vec![
                Value::from(slot.ordinal()),
                Value::from(first.meeting.raw()),
                Value::from(MeetingStatus::Cancelled),
                Value::Bool(true),
            ],
        )
        .unwrap();
    assert_eq!(freed, Value::Bool(true));
    wait_for(
        &env,
        || {
            let rec = b.meeting(second.meeting).unwrap().unwrap();
            rec.reserved.contains(&early.user())
        },
        "B's round behind the early release",
    );
    settle(&env);
    let rec = b.meeting(second.meeting).unwrap().unwrap();
    assert_eq!(rec.status, MeetingStatus::Tentative);
    assert_eq!(rec.missing(), users_of(&apps[5..8]));
    assert_eq!(
        early.slot_state(slot.ordinal()).unwrap(),
        SlotState::Tentative(second.meeting)
    );
    for app in &apps[5..8] {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap(),
            SlotState::Reserved(first.meeting),
            "{} was not released yet",
            app.user()
        );
    }

    // The rest of the releases.
    a.cancel(first.meeting).unwrap();
    wait_for(
        &env,
        || status_at(b, second.meeting) == Some(MeetingStatus::Confirmed),
        "the promotion behind the late releases",
    );
    settle(&env);
    for app in &apps[4..12] {
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap(),
            SlotState::Reserved(second.meeting),
            "at {}",
            app.user()
        );
        assert_eq!(
            status_at(app, second.meeting),
            Some(MeetingStatus::Confirmed),
            "at {}",
            app.user()
        );
    }
    for app in &apps[..4] {
        assert!(app.slot_state(slot.ordinal()).unwrap().is_free());
    }
    no_availability_link_left(&apps);
    syd_check::audit_strict(apps.iter().map(|a| a.device())).assert_clean();
}

/// The kernel cascade a cancel still starts goes to the participants its
/// release did not reach, and to nobody else.
#[test]
fn only_a_participant_whose_release_failed_is_sent_the_cascade() {
    let (env, apps) = rig(4);
    let slot = TimeSlot::new(7, 9);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("patchy", slot, users_of(&apps[1..])))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    let deaf = &apps[2];
    // The deaf member's calendar answers only a release, and refuses it.
    static DEAF: &Methods<()> = &[&Method::verb(RELEASE_SLOT, |(), _, _| {
        Err(SydError::App("not now".into()))
    })];
    let no_state = Arc::new(());
    deaf.device().serve(&calendar_service(), &no_state, DEAF);
    // Record every `delete_by_corr` a device serves, then serve it: the
    // link service is this one method here.
    type Seen = Mutex<Vec<(UserId, Vec<u64>)>>;
    struct Recorder {
        device: DeviceRuntime,
        served: Arc<Seen>,
    }
    static RECORDING: &Methods<Recorder> = &[&Method::verb(
        DELETE_BY_CORR,
        |r: &Recorder, _, (corr, visited)| {
            let raw: Vec<u64> = visited.iter().map(|u| u.raw()).collect();
            r.served.lock().push((r.device.user(), raw));
            let report = r.device.links().delete_by_corr(&corr, visited)?;
            Ok(report.deleted.len() as u64)
        },
    )];
    let served = Arc::new(Mutex::new(Rank::Leaf, Vec::<(UserId, Vec<u64>)>::new()));
    let _recorders: Vec<_> = apps
        .iter()
        .map(|app| {
            let device = app.device().clone();
            let served = Arc::clone(&served);
            let recorder = Arc::new(Recorder { device, served });
            app.device().serve(&link_service(), &recorder, RECORDING);
            recorder
        })
        .collect();

    let (r0, f0) = (rounds(&apps[0]), frames(&env));
    apps[0].cancel(outcome.meeting).unwrap();
    assert_eq!(rounds(&apps[0]) - r0, 2, "the releases, and the mop-up");
    assert_eq!(
        frames(&env) - f0,
        2 * (4 + 1 - 1),
        "4 releases and the mop-up − the initiator's own release"
    );
    let served = served.lock().clone();
    assert_eq!(served.len(), 1, "{served:?}");
    assert_eq!(served[0].0, deaf.user());
    let mut visited = served[0].1.clone();
    visited.sort_unstable();
    let mut everyone: Vec<u64> = apps.iter().map(|a| a.user().raw()).collect();
    everyone.sort_unstable();
    assert_eq!(visited, everyone, "the deaf member forwards to nobody");
    for app in &apps {
        assert_eq!(app.device().links().count().unwrap(), 0);
        let state = app.slot_state(slot.ordinal()).unwrap();
        if app.user() == deaf.user() {
            assert_eq!(state, SlotState::Reserved(outcome.meeting));
        } else {
            assert!(state.is_free(), "at {}: {state:?}", app.user());
        }
    }
}

/// `cancel` used to loop on "delete the first link of the web" for as long
/// as there was one: a link whose deletion kept failing hung it. The web
/// is walked once now, and the failure is the caller's to see.
#[test]
fn a_link_whose_delete_errors_does_not_hang_cancel() {
    fn refuse_link_deletes(app: &CalendarApp) {
        let refuse = |_ctx: &syd_store::TriggerCtx<'_>| Err(SydError::App("links are kept".into()));
        app.device()
            .store()
            .add_trigger(Trigger::before(
                "keep-links",
                "SyD_Link",
                vec![TriggerEvent::Delete],
                refuse,
            ))
            .unwrap();
    }
    let (_env, apps) = rig(3);

    // At a participant: its release fails behind the freed slot, the
    // mop-up cascade fails too, and the cancel is through regardless.
    let slot = TimeSlot::new(8, 9);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("sticky", slot, users_of(&apps[1..])))
        .unwrap();
    refuse_link_deletes(&apps[1]);
    apps[0].cancel(outcome.meeting).unwrap();
    for app in &apps {
        assert!(app.slot_state(slot.ordinal()).unwrap().is_free());
    }
    assert_eq!(apps[1].device().links().count().unwrap(), 1);
    assert_eq!(apps[0].device().links().count().unwrap(), 0);
    assert_eq!(apps[2].device().links().count().unwrap(), 0);

    // At the initiator: the cancel reports it.
    let slot = TimeSlot::new(8, 10);
    let outcome = apps[2]
        .schedule(MeetingSpec::plain("stickier", slot, vec![apps[0].user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    refuse_link_deletes(&apps[2]);
    let err = apps[2].cancel(outcome.meeting).unwrap_err();
    assert!(err.to_string().contains("links are kept"), "{err}");
    assert!(apps[0].slot_state(slot.ordinal()).unwrap().is_free());
    assert!(apps[2].slot_state(slot.ordinal()).unwrap().is_free());
}

/// A disconnected holder counts as missing (DESIGN.md §16): the mark goes
/// to the holder's device and nobody answers for it. The round that runs
/// meanwhile records that, and the next one after it is back finds it
/// holding the slot as before.
#[test]
fn a_repair_round_misses_a_disconnected_holder_and_a_later_one_finds_it() {
    let (_env, apps) = rig(4);
    let slot = TimeSlot::new(9, 9);
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("roaming", slot, users_of(&apps[1..])))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    let away = &apps[2];

    away.device().disconnect().unwrap();
    assert_eq!(
        apps[0].reconcile(outcome.meeting).unwrap(),
        MeetingStatus::Tentative
    );
    for app in [&apps[0], &apps[1], &apps[3]] {
        let rec = app.meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.status, MeetingStatus::Tentative, "at {}", app.user());
        assert_eq!(rec.missing(), vec![away.user()], "at {}", app.user());
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap(),
            SlotState::Tentative(outcome.meeting)
        );
    }
    assert_eq!(
        away.slot_state(slot.ordinal()).unwrap(),
        SlotState::Reserved(outcome.meeting),
        "nobody told the device that was away"
    );

    away.device().reconnect().unwrap();
    assert_eq!(
        apps[0].reconcile(outcome.meeting).unwrap(),
        MeetingStatus::Confirmed
    );
    for app in &apps {
        let rec = app.meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.status, MeetingStatus::Confirmed, "at {}", app.user());
        assert!(rec.missing().is_empty(), "at {}", app.user());
        assert_eq!(
            app.slot_state(slot.ordinal()).unwrap(),
            SlotState::Reserved(outcome.meeting)
        );
        assert_eq!(app.device().links().count().unwrap(), 1);
    }
    no_availability_link_left(&apps);
    syd_check::audit_strict(apps.iter().map(|a| a.device())).assert_clean();
}
