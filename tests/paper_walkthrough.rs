//! Step-by-step fidelity walkthroughs: the paper's numbered procedures,
//! asserted against the actual `SyD_*` tables the paper names.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

mod support;

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Duration;

use support::eventually;
use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd::kernel::links::{Constraint, LinkKind};
use syd::kernel::{Method, Methods, SydEnv, Verb};
use syd::net::NetConfig;
use syd::store::Predicate;
use syd::types::time::wall;
use syd::types::{TimeSlot, Value};

fn wait_for(cond: impl FnMut() -> bool, what: &str) {
    let (within, every) = (Duration::from_secs(5), Duration::from_millis(10));
    assert!(
        eventually(&**wall(), within, every, cond),
        "timed out waiting for {what}"
    );
}

/// Replays each device's journal against the §4.3/§4.2 state machines and
/// cross-checks lock tables and the `SyD_WaitingLink` queue.
fn audit_clean(apps: &[&CalendarApp]) {
    wait_for(
        || {
            apps.iter()
                .all(|a| a.device().store().locks().held_count() == 0)
        },
        "locks to drain before the audit",
    );
    syd::check::audit(apps.iter().map(|a| a.device())).assert_clean();
}

/// The link database of §4.2 op. 1: installing a link-enabled application
/// creates exactly the tables the paper names.
#[test]
fn link_database_has_the_papers_tables() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let app = CalendarApp::install(&env.device("phil", "").unwrap()).unwrap();
    let tables = app.device().store().table_names();
    for expected in ["SyD_Link", "SyD_WaitingLink", "SyD_LinkMethod"] {
        assert!(
            tables.contains(&expected.to_string()),
            "missing {expected}; have {tables:?}"
        );
    }
    // A link is one row: its references rest in the `refs` cell.
    let schema = app.device().store().schema_of("SyD_Link").unwrap();
    assert!(schema.column_index("refs").is_ok(), "{schema:?}");
}

/// §4.4's cancel-meeting procedure, observed through the tables:
///
/// 1. Check to see if there are any associated waiting links.
/// 2. If so, automatically convert status of waiting links from tentative
///    to permanent through SyDEngine.
/// 3. Delete the local link.
/// 4. Invoke deleteLink on the rest of the associated links.
/// 5. Update the calendar database of the user.
/// 6. SyDEngine gets the remote URL of the associated users from the
///    SyDDirectory Service and invokes the necessary method.
/// 7. Repeat steps 1 through 6 for each associated user.
#[test]
fn cancel_meeting_follows_section_4_4() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "").unwrap()).unwrap();
    let slot = TimeSlot::new(2, 10);

    // Meeting 1 (A initiates) holds the slot everywhere; link rows exist
    // at A (forward negotiation-and) and at B/C (back links).
    let m1 = a
        .schedule(MeetingSpec::plain("m1", slot, vec![b.user(), c.user()]))
        .unwrap();
    assert_eq!(m1.status, MeetingStatus::Confirmed);
    let link_rows = |app: &CalendarApp| {
        app.device()
            .store()
            .count("SyD_Link", &Predicate::True)
            .unwrap()
    };
    assert!(link_rows(&a) >= 1, "forward link at A");
    assert!(link_rows(&b) >= 1, "back link at B");
    assert!(link_rows(&c) >= 1, "back link at C");

    // Meeting 2 (B initiates, same slot) is blocked: a *waiting* link is
    // queued at the unavailable participants (SyD_WaitingLink rows).
    let m2 = b
        .schedule(MeetingSpec::plain("m2", slot, vec![a.user(), c.user()]))
        .unwrap();
    assert_eq!(m2.status, MeetingStatus::Tentative);
    let waiting_total: usize = [&a, &b, &c]
        .iter()
        .map(|app| {
            app.device()
                .store()
                .count("SyD_WaitingLink", &Predicate::True)
                .unwrap()
        })
        .sum();
    assert!(waiting_total >= 1, "step 1: waiting links exist somewhere");

    // Cancel meeting 1: steps 2–7 run automatically.
    a.cancel(m1.meeting).unwrap();

    // Step 2: the waiting link was promoted (tentative → permanent) and
    // meeting 2 confirmed with no human action.
    wait_for(
        || b.meeting(m2.meeting).unwrap().unwrap().status == MeetingStatus::Confirmed,
        "step 2: automatic promotion confirms the waiting meeting",
    );

    // Steps 3/4/7: meeting 1's links are gone from *every* device.
    wait_for(
        || {
            [&a, &b, &c].iter().all(|app| {
                app.device()
                    .store()
                    .select("SyD_Link", &Predicate::True)
                    .unwrap()
                    .iter()
                    .all(|row| {
                        row.values[8]
                            .as_str()
                            .map_or(true, |corr| !corr.contains(&m1.meeting.raw().to_string()))
                    })
            })
        },
        "steps 3/4/7: cascade removed meeting 1's links everywhere",
    );

    // Step 5: the calendar databases were updated — the slot now belongs
    // to meeting 2 everywhere. (Waited for: B's own record reads
    // `Confirmed` while the commits of the same batch are still on their
    // way to A and C.)
    wait_for(
        || {
            [&a, &b, &c]
                .iter()
                .all(|app| app.slot_state(slot.ordinal()).unwrap().meeting() == Some(m2.meeting))
        },
        "step 5: the slot belongs to meeting 2 at every participant",
    );

    // And the waiting table drained.
    let waiting_after: usize = [&a, &b, &c]
        .iter()
        .map(|app| {
            app.device()
                .store()
                .count("SyD_WaitingLink", &Predicate::True)
                .unwrap()
        })
        .sum();
    assert_eq!(waiting_after, 0, "no residual waiting links");
    audit_clean(&[&a, &b, &c]);
}

/// §4.2 op. 5's exact mechanism: the `SyD_LinkMethod` table holds the
/// coupling rows and the application consults it after executing a method.
#[test]
fn link_method_table_drives_coupled_invocation() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = env.device("a", "").unwrap();
    let b = env.device("b", "").unwrap();
    let svc = syd::types::ServiceName::new("calendar");
    const CALENDAR: &syd::types::ServiceName = &syd::types::ServiceName::constant("calendar");
    const SYNC_COPY: Verb<(Value,), ()> = Verb::new(CALENDAR, "sync_copy");
    static COPIES: &Methods<AtomicU32> = &[&Method::verb(SYNC_COPY, |hits: &AtomicU32, _, _| {
        hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    })];
    let hits = Arc::new(AtomicU32::new(0));
    b.serve(&svc, &hits, COPIES);

    a.links()
        .couple_method(&svc, "write_entry", b.user(), &svc, "sync_copy")
        .unwrap();
    // The paper's table exists and holds the row.
    let rows = a
        .store()
        .select("SyD_LinkMethod", &Predicate::True)
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values[2].as_str().unwrap(), "write_entry");
    assert_eq!(rows[0].values[3].as_i64().unwrap() as u64, b.user().raw());

    // "The application programmer has to include a call to check whether
    // the current method being executed is listed in the SyD_LinkMethod
    // table" — that call:
    let outcomes = a
        .links()
        .invoke_coupled(&svc, "write_entry", vec![Value::str("payload")])
        .unwrap();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].1.is_ok());
    assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// §5's supervisor narrative, end to end: "as a result of the meeting
/// schedule, A would not be able to establish a negotiation back link from
/// B, but only a subscription back link."
#[test]
fn supervisor_gets_subscription_back_link_only() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let d = CalendarApp::install(&env.device("d", "").unwrap()).unwrap();
    let slot = TimeSlot::new(3, 9);
    let outcome = a
        .schedule(
            MeetingSpec::plain("review", slot, vec![b.user(), d.user()])
                .with_supervisors(vec![b.user()]),
        )
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    let kind_of = |app: &CalendarApp| -> Vec<LinkKind> {
        let links = app.device().links().all().unwrap();
        links.iter().map(|link| link.kind).collect()
    };
    // B (supervisor): subscription back link only.
    assert_eq!(kind_of(&b), vec![LinkKind::Subscription]);
    // D (ordinary participant): negotiation back link.
    assert!(
        kind_of(&d).contains(&LinkKind::Negotiation(Constraint::And)),
        "{:?}",
        kind_of(&d)
    );
}

/// §5's tentative back-link trigger: "whenever C becomes available …, if
/// the tentative link back to A is of highest priority, it will get
/// triggered" — with two tentative meetings queued on one slot, only the
/// higher-priority one wins the slot when it frees.
#[test]
fn highest_priority_tentative_link_fires_first() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let a = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
    let b = CalendarApp::install(&env.device("b", "").unwrap()).unwrap();
    let c = CalendarApp::install(&env.device("c", "").unwrap()).unwrap();
    let slot = TimeSlot::new(4, 9);

    // C is personally busy; two meetings want C at that slot with
    // different priorities.
    c.mark_busy(slot).unwrap();
    let low = a
        .schedule(
            MeetingSpec::plain("low", slot, vec![c.user()])
                .with_priority(syd::types::Priority::new(40)),
        )
        .unwrap();
    let high = b
        .schedule(
            MeetingSpec::plain("high", slot, vec![c.user()])
                .with_priority(syd::types::Priority::new(200)),
        )
        .unwrap();
    assert_eq!(low.status, MeetingStatus::Tentative);
    assert_eq!(high.status, MeetingStatus::Tentative);

    // C frees up: the higher-priority availability link fires first and
    // claims C's slot.
    c.free_personal(slot).unwrap();
    wait_for(
        || b.meeting(high.meeting).unwrap().unwrap().status == MeetingStatus::Confirmed,
        "high-priority meeting confirms",
    );
    wait_for(
        || c.slot_state(slot.ordinal()).unwrap().meeting() == Some(high.meeting),
        "C's slot goes to the higher-priority meeting",
    );
    // The low-priority meeting remains tentative (its claim lost).
    assert_eq!(
        a.meeting(low.meeting).unwrap().unwrap().status,
        MeetingStatus::Tentative
    );
    // The leftover waiter (low's claim) must still be well-formed: queued
    // once, tentative, waiting on a live link.
    audit_clean(&[&a, &b, &c]);
}

/// §6: "each user is assigned a priority and each meeting is also assigned
/// a priority" — a user-priority wrapper over meeting priority: an
/// executive's meetings (scheduled via delegation) carry their priority.
#[test]
fn user_priority_flows_through_delegation() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let boss = CalendarApp::install(&env.device("boss", "").unwrap()).unwrap();
    let staff = CalendarApp::install(&env.device("staff", "").unwrap()).unwrap();
    boss.delegate_authority(staff.user(), syd::types::Priority::new(230), None)
        .unwrap();
    let slot = TimeSlot::new(5, 9);
    let outcome = staff
        .schedule_on_behalf_of(boss.user(), MeetingSpec::plain("exec", slot, vec![]))
        .unwrap();
    let rec = staff.meeting(outcome.meeting).unwrap().unwrap();
    assert_eq!(rec.priority, syd::types::Priority::new(230));
    assert!(rec.musts.contains(&boss.user()));
}
