//! The paper's meeting cycle in virtual time: the `wlan_n8` shape — a
//! dozen calendars on a fixed 2 ms link, two 8-member meetings sharing 4
//! members — run once on the wall clock and once on a [`SimClock`]. The
//! two cycles send the same frames step by step; the virtual one takes a
//! tenth of the wall time or less, and each of its steps lasts a whole
//! number of round trips, which is what the protocol costs once compute
//! takes no time.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use support::{calendar_rig, settle, users_of};
use syd_calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd_core::SydEnv;
use syd_net::{LatencyModel, NetConfig, Network};
use syd_telemetry::names;
use syd_types::sync::{Mutex, Rank};
use syd_types::{Clock, SimClock, SlotRange, SystemClock, Value};

/// One way across the link.
const HOP: Duration = Duration::from_millis(2);
const ROUND_TRIP: Duration = Duration::from_millis(4);

/// The cycle's steps, in order.
const STEPS: [&str; 5] = ["find", "schedule", "blocked", "cancel", "promote"];

/// One step: the frames it sent, and how long it took on the
/// deployment's clock.
#[derive(Debug, Clone, Copy)]
struct Step {
    frames: u64,
    took: Duration,
}

/// Runs the cycle twice on a deployment whose network is built on
/// `clock`, the first time to warm the engines' address caches up, as
/// every cycle after the benchmark's first runs. Returns the second
/// cycle's steps and its wall time.
fn run(clock: Arc<dyn Clock>) -> ([Step; 5], Duration) {
    let link = NetConfig::ideal().with_latency(LatencyModel::fixed(HOP));
    let env = SydEnv::on_network(Network::with_clock(link, clock), None);
    let apps = calendar_rig(&env, 12);
    cycle(&env, &apps);
    let wall = Instant::now();
    let steps = cycle(&env, &apps);
    (steps, wall.elapsed())
}

/// One cycle: A finds a slot its group has free and schedules into it,
/// B asks for the same slot and is held, A cancels and B's meeting is
/// promoted.
fn cycle(env: &SydEnv, apps: &[Arc<CalendarApp>]) -> [Step; 5] {
    let users = users_of(apps);
    let devices = || apps.iter().map(|app| app.device());
    let (a, b) = (&apps[0], &apps[8]);
    let (group_a, group_b) = (users[0..8].to_vec(), users[4..12].to_vec());
    let frames = env
        .transport()
        .metrics()
        .counter(names::TRANSPORT_FRAMES_OUT);
    let clock = Arc::clone(env.clock());
    settle(env, devices());

    let mut steps = [Step {
        frames: 0,
        took: Duration::ZERO,
    }; 5];
    let mark = || (frames.get(), clock.instant());
    let mut close = |step: usize, start: (u64, Instant), took: Duration| {
        settle(env, devices());
        steps[step] = Step {
            frames: frames.get() - start.0,
            took,
        };
    };

    // find: A looks for a slot its whole group has free.
    let start = mark();
    let found = a
        .find_common_slots(&group_a, SlotRange::days(0, 2))
        .unwrap();
    close(0, start, clock.instant() - start.1);
    let slot = found[0];

    // schedule: A's meeting is confirmed at every member.
    let start = mark();
    let outcome = a.schedule(MeetingSpec::plain("a", slot, group_a)).unwrap();
    close(1, start, clock.instant() - start.1);
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    let meeting_a = outcome.meeting;

    // blocked: B asks for the same slot and is held tentatively.
    let start = mark();
    let outcome = b.schedule(MeetingSpec::plain("b", slot, group_b)).unwrap();
    close(2, start, clock.instant() - start.1);
    assert_eq!(outcome.status, MeetingStatus::Tentative);
    let meeting_b = Value::from(outcome.meeting.raw());

    // cancel: A cancels, and the cascade goes on to promote B's meeting
    // by itself — B reconciles it, on the deployment's clock, with what
    // the frames had reached by then.
    let promoted = Arc::new(Mutex::new(Rank::Leaf, None));
    {
        let (promoted, clock, frames) = (Arc::clone(&promoted), Arc::clone(&clock), frames.clone());
        b.device().events().subscribe(
            "calendar.reconciled",
            Arc::new(move |_, meeting: &Value| {
                if *meeting == meeting_b {
                    *promoted.lock() = Some((frames.get(), clock.instant()));
                }
            }),
        );
    }
    let start = mark();
    a.cancel(meeting_a).unwrap();
    close(3, start, clock.instant() - start.1);

    // promote: from the cancel's start to B's last reconcile.
    let record = b.meeting(outcome.meeting).unwrap().unwrap();
    assert_eq!(record.status, MeetingStatus::Confirmed);
    let (sent, at) = promoted.lock().expect("B's meeting was never reconciled");
    steps[4] = Step {
        frames: sent - start.0,
        took: at - start.1,
    };
    // The slot goes back to free for the next cycle.
    b.cancel(outcome.meeting).unwrap();
    steps
}

#[test]
fn the_cycle_runs_in_virtual_time_with_the_same_frames() {
    let (wall_steps, wall_took) = run(Arc::new(SystemClock::new()));
    let (sim_steps, sim_took) = run(Arc::new(SimClock::new()));
    let table = || {
        let rows = STEPS.iter().zip(wall_steps.iter().zip(&sim_steps));
        rows.map(|(name, (wall, sim))| format!("{name}: wall {wall:?}, virtual {sim:?}\n"))
            .collect::<String>()
            + &format!("cycle: wall {wall_took:?}, virtual {sim_took:?}")
    };
    for (name, (wall, sim)) in STEPS.iter().zip(wall_steps.iter().zip(&sim_steps)) {
        assert_eq!(
            wall.frames,
            sim.frames,
            "{name} sent other frames:\n{}",
            table()
        );
        let trips = sim.took.as_micros() as f64 / ROUND_TRIP.as_micros() as f64;
        assert!(
            trips >= 1.0 && trips.fract() == 0.0,
            "{name} took {:?} of virtual time, not a whole number of round trips:\n{}",
            sim.took,
            table()
        );
    }
    assert_eq!(sim_steps[0].took, ROUND_TRIP, "find:\n{}", table());
    assert_eq!(sim_steps[1].took, 2 * ROUND_TRIP, "schedule:\n{}", table());
    assert!(
        sim_took * 10 <= wall_took,
        "virtual time saved too little:\n{}",
        table()
    );
    println!("{}", table());
}
