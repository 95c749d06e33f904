//! The full §5 committee-calendar walkthrough: tentative meetings,
//! automatic confirmation, priority bumping with auto-rescheduling,
//! supervisors, quorum scheduling with OR-groups, and the §3.2 application
//! object (`CommitteeCalendar` below) over three members' calendars.
//!
//! ```sh
//! cargo run --example committee_calendar
//! cargo test --example committee_calendar   # the application object's tests
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // example code

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd::calendar::{CalendarApp, GroupSpec, MeetingSpec, MeetingStatus, ScheduleOutcome};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::types::{MeetingId, Priority, SlotRange, SydError, SydResult, TimeSlot, UserId};

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        syd::types::sync::sleep(&**syd::types::time::wall(), Duration::from_millis(10));
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

    // ── Scene 6: the §3.2 application object over three calendars ───────
    let [phil, andy, suzy] = ["phil", "andy", "suzy"]
        .map(|name| CalendarApp::install(&env.device(name, "pw").unwrap()).unwrap());
    let committee = CommitteeCalendar::new(
        Arc::clone(&phil),
        vec![andy.user(), suzy.user()],
        &["phil", "andy", "suzy"],
    );
    let day = SlotRange::whole_day(6);
    andy.mark_busy(TimeSlot::new(6, 0)).unwrap();
    let earliest = committee.find_earliest_meeting_time(day).unwrap().unwrap();
    assert_eq!(earliest, TimeSlot::new(6, 1));
    let sync = committee.schedule_earliest("committee sync", day).unwrap();
    assert_eq!(sync.status, MeetingStatus::Confirmed);
    // Suzy takes the next hour, so the move skips it.
    suzy.mark_busy(TimeSlot::new(6, 2)).unwrap();
    let moved = committee
        .change_meeting_time_to_next_available(sync.meeting, 24)
        .unwrap();
    assert_eq!(moved, TimeSlot::new(6, 3));
    assert_eq!(
        committee.meeting_status(sync.meeting).unwrap(),
        Some(MeetingStatus::Confirmed)
    );
    println!(
        "scene 6: {} ({} members) met at {earliest}, moved to {moved} ✓",
        committee.name(),
        committee.members().len()
    );

    println!("\nmail received by C:");
    for mail in c.mailbox().inbox().unwrap() {
        println!("  [{}] {}", mail.from, mail.subject);
    }
    println!("\nall scenes completed");
}

/// The SyD Application Object (§3.2): `Calendars_of_committee_SyDAppC`.
///
/// "A SyDApp constructs an object called
/// `Calendars_of_phil+andy+suzy_SyDAppO` that 'links' together and defines
/// a set of methods that can operate on the calendar objects of all three
/// individuals … The SyDAppO may support the following methods:
/// `Find_earliest_meeting_time()`, `Change_meeting_time_to_next_available()`,
/// etc. The SyDAppO would be instantiated from a general class called
/// `Calendars_of_committee_SyDAppC` that could be provided by a vendor or
/// written by users themselves."
///
/// This is that general class: an aggregation of member calendars bound to
/// one local [`CalendarApp`], exposing the paper's convenience methods on
/// top of the kernel's group primitives.
struct CommitteeCalendar {
    app: Arc<CalendarApp>,
    members: Vec<UserId>,
    name: String,
}

impl CommitteeCalendar {
    /// Builds the application object: `app`'s user plus `others` form the
    /// committee. The display name mimics the paper's
    /// `Calendars_of_phil+andy+suzy` convention.
    fn new(app: Arc<CalendarApp>, others: Vec<UserId>, names: &[&str]) -> Self {
        let mut members = vec![app.user()];
        for u in others {
            if !members.contains(&u) {
                members.push(u);
            }
        }
        CommitteeCalendar {
            app,
            members,
            name: format!("Calendars_of_{}", names.join("+")),
        }
    }

    /// The object's name, e.g. `Calendars_of_phil+andy+suzy`.
    fn name(&self) -> &str {
        &self.name
    }

    /// Committee members (the local user first).
    fn members(&self) -> &[UserId] {
        &self.members
    }

    /// §3.2 `Find_earliest_meeting_time()`: the first slot in `range`
    /// every member has free.
    fn find_earliest_meeting_time(&self, range: SlotRange) -> SydResult<Option<TimeSlot>> {
        Ok(self
            .app
            .find_common_slots(&self.members, range)?
            .into_iter()
            .next())
    }

    /// Schedules a committee meeting at the earliest common slot in
    /// `range`.
    fn schedule_earliest(&self, title: &str, range: SlotRange) -> SydResult<ScheduleOutcome> {
        let slot = self
            .find_earliest_meeting_time(range)?
            .ok_or_else(|| SydError::App(format!("{}: no common slot in {range}", self.name)))?;
        let others: Vec<UserId> = self
            .members
            .iter()
            .copied()
            .filter(|&u| u != self.app.user())
            .collect();
        self.app.schedule(MeetingSpec::plain(title, slot, others))
    }

    /// §3.2 `Change_meeting_time_to_next_available()`: moves an existing
    /// committee meeting to the next slot after its current one that every
    /// member has free. Returns the new slot.
    fn change_meeting_time_to_next_available(
        &self,
        meeting: MeetingId,
        horizon: u64,
    ) -> SydResult<TimeSlot> {
        let rec = self
            .app
            .meeting(meeting)?
            .ok_or_else(|| SydError::App(format!("unknown meeting {meeting}")))?;
        let search = SlotRange::new(
            TimeSlot::from_ordinal(rec.ordinal + 1),
            TimeSlot::from_ordinal(rec.ordinal + 1 + horizon),
        );
        let candidates = self.app.find_common_slots(&self.members, search)?;
        for slot in candidates {
            if self.app.request_change(meeting, slot)? {
                return Ok(slot);
            }
            // A candidate can be stolen between the query and the move;
            // try the next one — the negotiation keeps this race safe.
        }
        Err(SydError::App(format!(
            "{}: no movable slot within {horizon} slots",
            self.name
        )))
    }

    /// The committee's view of a meeting, read from the local record.
    fn meeting_status(&self, meeting: MeetingId) -> SydResult<Option<MeetingStatus>> {
        Ok(self.app.meeting(meeting)?.map(|m| m.status))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn rig() -> (SydEnv, Vec<Arc<CalendarApp>>) {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let apps = ["phil", "andy", "suzy"]
            .iter()
            .map(|n| CalendarApp::install(&env.device(n, "").unwrap()).unwrap())
            .collect();
        (env, apps)
    }

    fn committee(apps: &[Arc<CalendarApp>]) -> CommitteeCalendar {
        CommitteeCalendar::new(
            Arc::clone(&apps[0]),
            apps[1..].iter().map(|a| a.user()).collect(),
            &["phil", "andy", "suzy"],
        )
    }

    #[test]
    fn naming_follows_the_paper() {
        let (_env, apps) = rig();
        let c = committee(&apps);
        assert_eq!(c.name(), "Calendars_of_phil+andy+suzy");
        assert_eq!(c.members().len(), 3);
    }

    #[test]
    fn find_earliest_skips_anyones_busy_slot() {
        let (_env, apps) = rig();
        let c = committee(&apps);
        apps[0].mark_busy(TimeSlot::new(0, 0)).unwrap();
        apps[1].mark_busy(TimeSlot::new(0, 1)).unwrap();
        apps[2].mark_busy(TimeSlot::new(0, 2)).unwrap();
        let earliest = c
            .find_earliest_meeting_time(SlotRange::whole_day(0))
            .unwrap();
        assert_eq!(earliest, Some(TimeSlot::new(0, 3)));
    }

    #[test]
    fn schedule_earliest_confirms() {
        let (_env, apps) = rig();
        let c = committee(&apps);
        apps[1].mark_busy(TimeSlot::new(0, 0)).unwrap();
        let outcome = c
            .schedule_earliest("committee sync", SlotRange::whole_day(0))
            .unwrap();
        assert_eq!(outcome.status, MeetingStatus::Confirmed);
        let rec = apps[0].meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.ordinal, TimeSlot::new(0, 1).ordinal());
        // No common slot at all → error.
        for app in &apps {
            for slot in SlotRange::whole_day(1).iter() {
                let _ = app.mark_busy(slot);
            }
        }
        assert!(c
            .schedule_earliest("impossible", SlotRange::whole_day(1))
            .is_err());
    }

    #[test]
    fn change_to_next_available_moves_past_conflicts() {
        let (_env, apps) = rig();
        let c = committee(&apps);
        let outcome = c
            .schedule_earliest("sync", SlotRange::whole_day(0))
            .unwrap();
        // Members are busy in the next two slots after the meeting.
        apps[1].mark_busy(TimeSlot::new(0, 1)).unwrap();
        apps[2].mark_busy(TimeSlot::new(0, 2)).unwrap();
        let new_slot = c
            .change_meeting_time_to_next_available(outcome.meeting, 24)
            .unwrap();
        assert_eq!(new_slot, TimeSlot::new(0, 3));
        for app in &apps {
            assert_eq!(
                app.slot_state(new_slot.ordinal()).unwrap().meeting(),
                Some(outcome.meeting)
            );
            assert!(app.slot_state(0).unwrap().is_free());
        }
        assert_eq!(
            c.meeting_status(outcome.meeting).unwrap(),
            Some(MeetingStatus::Confirmed)
        );
    }

    #[test]
    fn change_fails_when_nothing_is_available() {
        let (_env, apps) = rig();
        let c = committee(&apps);
        let outcome = c
            .schedule_earliest("sync", SlotRange::whole_day(0))
            .unwrap();
        for slot in SlotRange::new(TimeSlot::new(0, 1), TimeSlot::new(0, 6)).iter() {
            apps[1].mark_busy(slot).unwrap();
        }
        let err = c
            .change_meeting_time_to_next_available(outcome.meeting, 4)
            .unwrap_err();
        assert!(err.to_string().contains("no movable slot"), "{err}");
        // Meeting unchanged.
        let rec = apps[0].meeting(outcome.meeting).unwrap().unwrap();
        assert_eq!(rec.ordinal, 0);
    }
}
