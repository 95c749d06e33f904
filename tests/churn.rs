//! Churn/soak tests: sustained concurrent scheduling activity must leave
//! the deployment consistent — no leaked locks, no dangling links, no
//! slot owned by a cancelled meeting.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd::kernel::{Method, Methods, SydEnv, Verb};
use syd::net::NetConfig;
use syd::types::{Priority, TimeSlot, UserId};

/// Replays every journal and correlates it with the live lock tables and
/// waiting queues — the mechanical version of the hand-written invariant
/// assertions below.
fn audit_clean(apps: &[Arc<CalendarApp>]) {
    syd::check::audit(apps.iter().map(|a| a.device())).assert_clean();
}

fn quiesce(apps: &[Arc<CalendarApp>]) {
    // Wait for background repair rounds (spawned threads) to settle.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let held: usize = apps
            .iter()
            .map(|a| a.device().store().locks().held_count())
            .sum();
        if held == 0 {
            // One settle pass: no locks now; give stragglers a moment and
            // re-check once.
            std::thread::sleep(Duration::from_millis(100));
            let held: usize = apps
                .iter()
                .map(|a| a.device().store().locks().held_count())
                .sum();
            if held == 0 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "locks never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sustained_schedule_cancel_churn_stays_consistent() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let apps: Vec<Arc<CalendarApp>> = (0..5)
        .map(|i| CalendarApp::install(&env.device(&format!("u{i}"), "").unwrap()).unwrap())
        .collect();
    let users: Vec<UserId> = apps.iter().map(|a| a.user()).collect();

    // 4 initiator threads × 12 rounds of schedule/cancel over a small slot
    // space (heavy contention).
    let mut handles = Vec::new();
    for (t, app) in apps.iter().enumerate().take(4) {
        let app = Arc::clone(app);
        let users = users.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..12u64 {
                let slot = TimeSlot::from_ordinal((round * 7 + t as u64) % 10);
                let others: Vec<UserId> =
                    users.iter().copied().filter(|&u| u != app.user()).collect();
                let spec = MeetingSpec::plain(format!("m{t}-{round}"), slot, others)
                    .with_priority(Priority::new(50 + (t as u8) * 30));
                if let Ok(outcome) = app.schedule(spec) {
                    if round % 2 == 0 {
                        let _ = app.cancel(outcome.meeting);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    quiesce(&apps);

    // Invariants across the deployment.
    for app in &apps {
        for ordinal in 0..10u64 {
            if let Some(meeting) = app.slot_state(ordinal).unwrap().meeting() {
                // A held slot's meeting record exists locally and is not
                // cancelled.
                let rec = app.meeting(meeting).unwrap().unwrap_or_else(|| {
                    panic!("{}: slot {ordinal} held by unknown {meeting}", app.user())
                });
                assert_ne!(
                    rec.status,
                    MeetingStatus::Cancelled,
                    "{}: slot {ordinal} held by cancelled meeting {meeting}",
                    app.user()
                );
            }
        }
        // No negotiation locks leaked.
        assert_eq!(app.device().store().locks().held_count(), 0);
    }
    audit_clean(&apps);

    // Every *confirmed* meeting (from any initiator's view) has its slot
    // at every reserved participant.
    for app in &apps[..4] {
        for ordinal in 0..10u64 {
            let Some(meeting) = app.slot_state(ordinal).unwrap().meeting() else {
                continue;
            };
            let Some(rec) = app.meeting(meeting).unwrap() else {
                continue;
            };
            if rec.status != MeetingStatus::Confirmed || rec.initiator != app.user() {
                continue;
            }
            for &user in &rec.reserved {
                let holder = apps.iter().find(|a| a.user() == user).unwrap();
                assert_eq!(
                    holder.slot_state(rec.ordinal).unwrap().meeting(),
                    Some(meeting),
                    "{user} should hold confirmed meeting {meeting}"
                );
            }
        }
    }
}

#[test]
fn deeply_nested_invocations_do_not_exhaust_the_pool() {
    // A chain of devices where each request hops to the next: depth-40
    // nesting exercises the grow-on-demand pool and the network stack.
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let devices: Vec<_> = (0..8)
        .map(|i| env.device(&format!("hop{i}"), "").unwrap())
        .collect();
    let svc = syd::types::ServiceName::new("chain");
    /// Where a device's hop goes next.
    struct Hop {
        engine: syd::kernel::SydEngine,
        next: UserId,
    }
    const CHAIN_SERVICE: &syd::types::ServiceName = &syd::types::ServiceName::constant("chain");
    /// Hops on with one hop fewer; answers 0 at the end of the chain.
    const HOP: Verb<(i64,), i64> = Verb::new(CHAIN_SERVICE, "hop");
    static CHAIN: &Methods<Hop> = &[&Method::verb(HOP, |hop: &Hop, _, (remaining,)| {
        if remaining <= 0 {
            return Ok(0);
        }
        hop.engine.call(hop.next, HOP, (remaining - 1,))
    })];
    let _hops: Vec<Arc<Hop>> = devices
        .iter()
        .enumerate()
        .map(|(i, dev)| {
            let next = devices[(i + 1) % devices.len()].user();
            let engine = dev.engine().clone();
            let hop = Arc::new(Hop { engine, next });
            dev.serve(&svc, &hop, CHAIN);
            hop
        })
        .collect();
    // 40 hops around the ring of 8 devices = 5 nested requests per device.
    let out = devices[0]
        .engine()
        .invoke(
            devices[1].user(),
            &svc,
            "hop",
            vec![syd::types::Value::I64(40)],
        )
        .unwrap();
    assert_eq!(out, syd::types::Value::I64(0));
}
