//! A device answers `free_slots_bitmap` from bits it keeps beside its
//! `slots` rows. After any history of calendar operations the bits must
//! say what a scan of the rows says, over every window: at the 64-slot
//! word edges, empty, reversed, and past the last word.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::Arc;
use std::time::Duration;

use syd_calendar::app::{calendar_service, free_bitmap_of};
use syd_calendar::{CalendarApp, GroupSpec, MeetingId, MeetingSpec, MeetingStatus};
use syd_core::SydEnv;
use syd_net::{NetConfig, Network};
use syd_telemetry::names;
use syd_types::rng::{cases, Rng};
use syd_types::{Clock, Priority, SimClock, SlotBitmap, TimeSlot, UserId, Value};
use syd_wire::decode_from_slice;

/// A year and a bit on: one word far past the rest.
const FAR: u64 = 24 * 400;

/// Ordinals on both sides of the first word edges, and one far out.
const ORDINALS: &[u64] = &[0, 1, 62, 63, 64, 65, 126, 127, 128, 129, FAR, FAR + 1];

const WINDOWS: &[(u64, u64)] = &[
    (0, 63),
    (0, 64),
    (0, 65),
    (0, 127),
    (0, 128),
    (0, 130),
    (1, 64),
    (63, 65),
    (63, 129),
    (64, 128),
    (65, 127),
    (127, 129),
    (128, 192),
    // Empty, reversed, and past the last word.
    (64, 64),
    (0, 0),
    (100, 50),
    (FAR - 64, FAR + 70),
    (FAR + 64, FAR + 200),
    (20_000, 20_100),
];

/// Frames sent so far by every device of `env`.
fn frames(env: &SydEnv) -> u64 {
    env.transport()
        .metrics()
        .counter(names::TRANSPORT_FRAMES_OUT)
        .get()
}

fn pick<T: Copy>(rng: &mut Rng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// Which windows, if any, read differently from the bits and the rows.
fn disagreements(apps: &[Arc<CalendarApp>]) -> Vec<String> {
    let mut out = Vec::new();
    for app in apps {
        for &(start, end) in WINDOWS {
            let bits = app.free_bitmap(start, end).unwrap();
            let rows = free_bitmap_of(app.device().store(), start, end).unwrap();
            if bits != rows {
                out.push(format!(
                    "{}: [{start}, {end}) bits {bits:?}, rows {rows:?}",
                    app.user()
                ));
            }
        }
    }
    out
}

fn run_history(rng: &mut Rng) {
    // In virtual time: the wait for quiet below costs no wall time.
    let clock = SimClock::new();
    let net = Network::with_clock(NetConfig::ideal(), Arc::new(clock.clone()));
    let env = SydEnv::on_network(net, None);
    let apps: Vec<Arc<CalendarApp>> = (0..4)
        .map(|i| CalendarApp::install(&env.device(&format!("u{i}"), "").unwrap()).unwrap())
        .collect();
    let users: Vec<UserId> = apps.iter().map(|a| a.user()).collect();
    let mut meetings: Vec<(usize, MeetingId)> = Vec::new();

    for _ in 0..6 + rng.below(12) {
        let who = rng.below(4) as usize;
        let app = &apps[who];
        let slot = TimeSlot::from_ordinal(pick(rng, ORDINALS));
        let others: Vec<UserId> = users.iter().copied().filter(|&u| u != app.user()).collect();
        let known = (!meetings.is_empty()).then(|| pick(rng, &meetings));
        // Every outcome is allowed: a refused operation is history too.
        match rng.below(8) {
            0 => drop(app.mark_busy(slot)),
            1 => drop(app.free_personal(slot)),
            2 => {
                let spec = MeetingSpec::plain("m", slot, vec![others[rng.below(3) as usize]]);
                if let Ok(out) = app.schedule(spec) {
                    meetings.push((who, out.meeting));
                }
            }
            3 => {
                // Everyone else as a quorum of two: members may leave.
                let spec =
                    MeetingSpec::plain("g", slot, vec![]).with_group(GroupSpec::new(others, 2));
                if let Ok(out) = app.schedule(spec) {
                    meetings.push((who, out.meeting));
                }
            }
            4 => {
                // Outranks every meeting above: bumps what holds the slot.
                let spec =
                    MeetingSpec::plain("bump", slot, others).with_priority(Priority::new(200));
                if let Ok(out) = app.schedule(spec) {
                    meetings.push((who, out.meeting));
                }
            }
            5 => {
                if let Some((initiator, id)) = known {
                    drop(apps[initiator].cancel(id));
                }
            }
            6 => {
                if let Some((_, id)) = known {
                    drop(app.leave(id));
                }
            }
            _ => {
                // A record with its live status flipped rewrites the row
                // of a member that holds the slot.
                let Some((_, id)) = known else { continue };
                let Some(mut rec) = app.meeting(id).unwrap() else {
                    continue;
                };
                rec.status = match rec.status {
                    MeetingStatus::Confirmed => MeetingStatus::Tentative,
                    MeetingStatus::Tentative => MeetingStatus::Confirmed,
                    _ => continue,
                };
                let asker = &apps[(who + 1) % 4];
                drop(asker.device().engine().invoke(
                    app.user(),
                    &calendar_service(),
                    "update_meeting",
                    vec![rec.to_value()],
                ));
            }
        }
    }

    // Repair rounds and reschedules run on in the background: wait until
    // no frame has gone out for 100 ms and no lock is held, then the two
    // must agree.
    let deadline = clock.instant() + Duration::from_secs(5);
    let mut seen = frames(&env);
    let mut quiet_since = clock.instant();
    loop {
        clock.run_for(Duration::from_millis(5));
        let now = frames(&env);
        if now != seen {
            seen = now;
            quiet_since = clock.instant();
        }
        let busy = apps
            .iter()
            .any(|a| a.device().store().locks().held_count() > 0);
        if !busy && clock.instant() - quiet_since >= Duration::from_millis(100) {
            break;
        }
        assert!(clock.instant() < deadline, "the devices never went quiet");
    }
    let differ = disagreements(&apps);
    assert!(differ.is_empty(), "bits != rows: {differ:#?}");
    // And a slot the bits call free has no row.
    for app in &apps {
        let bits: SlotBitmap = app.free_bitmap(0, FAR + 2).unwrap();
        for &o in ORDINALS {
            let free = app.slot_state(o).unwrap().is_free();
            assert_eq!(bits.is_free(TimeSlot::from_ordinal(o)), free, "ordinal {o}");
        }
    }
}

#[test]
fn the_busy_bits_equal_the_slot_rows_after_any_history() {
    cases(40, run_history);
}

#[test]
fn a_service_answer_is_the_scan_of_the_rows() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let apps: Vec<Arc<CalendarApp>> = ["a", "b"]
        .iter()
        .map(|n| CalendarApp::install(&env.device(n, "").unwrap()).unwrap())
        .collect();
    for &o in ORDINALS {
        apps[1].mark_busy(TimeSlot::from_ordinal(o)).unwrap();
    }
    apps[1].free_personal(TimeSlot::from_ordinal(64)).unwrap();
    for &(start, end) in WINDOWS {
        let reply = apps[0]
            .device()
            .engine()
            .invoke(
                apps[1].user(),
                &calendar_service(),
                "free_slots_bitmap",
                vec![Value::from(start), Value::from(end)],
            )
            .unwrap();
        let answered: SlotBitmap = decode_from_slice(reply.as_bytes().unwrap()).unwrap();
        let scanned = free_bitmap_of(apps[1].device().store(), start, end).unwrap();
        assert_eq!(answered, scanned, "[{start}, {end})");
    }
}
