//! The full §5 committee-calendar walkthrough: tentative meetings,
//! automatic confirmation, priority bumping with auto-rescheduling,
//! supervisors, and quorum scheduling with OR-groups.
//!
//! ```sh
//! cargo run --example committee_calendar
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use std::time::{Duration, Instant};

use syd::calendar::{CalendarApp, GroupSpec, MeetingSpec, MeetingStatus};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::types::{MeetingId, Priority, TimeSlot, UserId};

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        syd::types::sync::sleep(Duration::from_millis(10));
    }
}

fn status(app: &CalendarApp, id: MeetingId) -> MeetingStatus {
    app.meeting(id).unwrap().unwrap().status
}

fn main() {
    let env = SydEnv::new(NetConfig::ideal(), "committee passphrase");

    // The cast: A (initiator), B (supervisor), C, D, plus the Biology and
    // Physics faculties.
    let a = CalendarApp::install(&env.device("A", "pw").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("B", "pw").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("C", "pw").unwrap()).unwrap();
    let d = CalendarApp::install(&env.device("D", "pw").unwrap()).unwrap();
    let biology: Vec<_> = (0..4)
        .map(|i| CalendarApp::install(&env.device(&format!("bio{i}"), "pw").unwrap()).unwrap())
        .collect();
    let physics: Vec<_> = (0..3)
        .map(|i| CalendarApp::install(&env.device(&format!("phy{i}"), "pw").unwrap()).unwrap())
        .collect();

    // ── Scene 1: C is busy, so the meeting is only tentative ────────────
    let slot = TimeSlot::new(2, 14);
    c.mark_busy(slot).unwrap();
    let m1 = a
        .schedule(MeetingSpec::plain(
            "weekly sync",
            slot,
            vec![b.user(), c.user(), d.user()],
        ))
        .unwrap();
    println!(
        "scene 1: scheduled at {slot} -> {:?}, waiting on {:?}",
        m1.status, m1.pending
    );
    assert_eq!(m1.status, MeetingStatus::Tentative);

    // C's appointment ends early: the availability link fires and the
    // meeting confirms with no human involvement.
    c.free_personal(slot).unwrap();
    wait_until(
        || status(&a, m1.meeting) == MeetingStatus::Confirmed,
        "automatic confirmation",
    );
    println!("scene 1: C freed up -> meeting auto-confirmed ✓");

    // ── Scene 2: an executive meeting bumps it ──────────────────────────
    let m2 = d
        .schedule(
            MeetingSpec::plain("board escalation", slot, vec![a.user(), c.user()])
                .with_priority(Priority::new(220)),
        )
        .unwrap();
    println!("scene 2: high-priority meeting -> {:?}", m2.status);
    assert_eq!(m2.status, MeetingStatus::Confirmed);

    // The bumped weekly sync automatically reschedules itself.
    wait_until(
        || {
            a.meeting(m1.meeting).unwrap().is_some_and(|m| {
                m.ordinal != slot.ordinal() && m.status == MeetingStatus::Confirmed
            })
        },
        "auto-rescheduling of the bumped meeting",
    );
    let moved = a.meeting(m1.meeting).unwrap().unwrap();
    println!(
        "scene 2: weekly sync bumped and auto-rescheduled to ordinal {} ✓",
        moved.ordinal
    );

    // ── Scene 3: supervisor B changes his schedule at will ──────────────
    let slot3 = TimeSlot::new(3, 9);
    let m3 = a
        .schedule(
            MeetingSpec::plain("exec review", slot3, vec![b.user(), c.user()])
                .with_supervisors(vec![b.user()]),
        )
        .unwrap();
    assert_eq!(m3.status, MeetingStatus::Confirmed);
    b.supervisor_change(m3.meeting, Some(slot3)).unwrap();
    wait_until(
        || status(&a, m3.meeting) == MeetingStatus::Tentative,
        "degrade to tentative",
    );
    println!("scene 3: supervisor walked away -> meeting tentative ✓");
    b.free_personal(slot3).unwrap();
    wait_until(
        || status(&a, m3.meeting) == MeetingStatus::Confirmed,
        "re-confirmation",
    );
    println!("scene 3: supervisor free again -> meeting re-confirmed ✓");

    // ── Scene 4: quorum scheduling (50% of Biology, ≥2 of Physics) ──────
    let slot4 = TimeSlot::new(4, 11);
    let bio_users: Vec<UserId> = biology.iter().map(|x| x.user()).collect();
    let phy_users: Vec<UserId> = physics.iter().map(|x| x.user()).collect();
    biology[0].mark_busy(slot4).unwrap();
    biology[1].mark_busy(slot4).unwrap();
    let m4 = a
        .schedule(
            MeetingSpec::plain("faculty meeting", slot4, vec![b.user(), c.user()])
                .with_group(GroupSpec::new(bio_users.clone(), 2))
                .with_group(GroupSpec::new(phy_users.clone(), 2)),
        )
        .unwrap();
    println!(
        "scene 4: quorum meeting -> {:?} ({} reserved, {} pending)",
        m4.status,
        m4.reserved.len(),
        m4.pending.len()
    );
    assert_eq!(m4.status, MeetingStatus::Confirmed);

    // A physicist wants out — allowed only because the quorum holds.
    let granted = physics[0].leave(m4.meeting).unwrap();
    println!("scene 4: physicist leave request granted: {granted}");
    let rec = a.meeting(m4.meeting).unwrap().unwrap();
    assert!(rec.constraints_satisfied());

    // ── Scene 5: cancel cascades and auto-promotes a waiting meeting ────
    let slot5 = TimeSlot::new(5, 15);
    let first = a
        .schedule(MeetingSpec::plain("first", slot5, vec![c.user(), d.user()]))
        .unwrap();
    let second = c
        .schedule(MeetingSpec::plain(
            "second",
            slot5,
            vec![a.user(), d.user()],
        ))
        .unwrap();
    assert_eq!(second.status, MeetingStatus::Tentative);
    a.cancel(first.meeting).unwrap();
    wait_until(
        || status(&c, second.meeting) == MeetingStatus::Confirmed,
        "waiting meeting auto-confirms after cancellation",
    );
    println!("scene 5: cancel cascaded, waiting meeting auto-confirmed ✓");

    println!("\nmail received by C:");
    for mail in c.mailbox().inbox().unwrap() {
        println!("  [{}] {}", mail.from, mail.subject);
    }
    println!("\nall scenes completed");
}
