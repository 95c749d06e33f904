//! F2 (Figure 2): the SyD runtime environment hosting all three sample
//! applications — one representative end-to-end operation per app through
//! the full stack.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use syd_bench::timing::Group;
use syd_bench::{calendar_rig, env_ideal, users_of, SlotAlloc};
use syd_bidding::{Host, Player};
use syd_calendar::MeetingSpec;
use syd_fleet::{deploy_fleet, Position};
use syd_types::UserId;

fn main() {
    let group = Group("fig2_apps");

    // Calendar: schedule + cancel one 3-person meeting.
    let env = env_ideal();
    let apps = calendar_rig(&env, 3);
    let attendees: Vec<UserId> = users_of(&apps)[1..].to_vec();
    let slots = SlotAlloc::new();
    group.bench_function("calendar_schedule_cancel_3users", |b| {
        b.iter(|| {
            let slot = slots.next();
            let outcome = apps[0]
                .schedule(MeetingSpec::plain("bench", slot, attendees.clone()))
                .unwrap();
            apps[0].cancel(outcome.meeting).unwrap();
        });
    });

    // Fleet: a position report propagating over a subscription link,
    // then a dispatch decision over the whole fleet.
    let fleet_env = env_ideal();
    let (dispatcher, vehicles) = deploy_fleet(&fleet_env, 8).unwrap();
    let fleet_users: Vec<UserId> = vehicles.iter().map(|v| v.user()).collect();
    group.bench_function("fleet_move_and_poll_8vehicles", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            vehicles[0].move_to(Position { x, y: 0.0 }).unwrap();
            dispatcher.poll_positions(&fleet_users)
        });
    });

    // Bidding: one full round over 8 players.
    let bid_env = env_ideal();
    let host = Host::install(&bid_env.device("host", "pw").unwrap()).unwrap();
    let players: Vec<_> = (0..8)
        .map(|i| {
            let d = bid_env.device(&format!("p{i}"), "pw").unwrap();
            Player::install(&d, Arc::new(move |_item: &str| Some(100 + i as u64))).unwrap()
        })
        .collect();
    let bid_users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
    group.bench_function("bidding_round_8players", |b| {
        b.iter(|| host.run_round(&bid_users, "toaster", 500).unwrap());
    });
}
