//! What a join costs, counted at the directory: one `register`, then one
//! `publish` per distinct service the application names — never one per
//! method (DESIGN.md §20). Read from the directory node's own
//! `rpc.requests_served`, the way `dir.batch_lookups` pins the lookup
//! budget, so a publish that creeps back fails here before it shows in
//! `setup_s`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use syd::bidding::{bidding_service, Host, Player};
use syd::calendar::app::calendar_service;
use syd::calendar::baseline::baseline_service;
use syd::calendar::mailbox::mailbox_service;
use syd::calendar::{BaselineCalendar, CalendarApp};
use syd::fleet::{fleet_service, Dispatcher, Vehicle};
use syd::kernel::{DeviceRuntime, SydEnv};
use syd::net::NetConfig;
use syd::types::{ServiceName, SydError};
use syd_telemetry::names;

/// Requests the directory node has served so far.
fn dir_requests(env: &SydEnv) -> u64 {
    env.directory()
        .metrics()
        .get_counter(names::RPC_REQUESTS_SERVED)
        .map_or(0, |c| c.get())
}

/// Joins a device, checks that the join was the one `register`, and
/// returns it with the directory requests `install` then made.
fn join_and_install<T>(
    env: &SydEnv,
    name: &str,
    install: impl FnOnce(&DeviceRuntime) -> T,
) -> (DeviceRuntime, T, u64) {
    let before = dir_requests(env);
    let device = env.device(name, "pw").unwrap();
    assert_eq!(
        dir_requests(env) - before,
        1,
        "{name}: a join is one register"
    );
    let before = dir_requests(env);
    let app = install(&device);
    (device, app, dir_requests(env) - before)
}

fn published(device: &DeviceRuntime) -> Vec<String> {
    let rec = device.engine().directory().describe(device.user());
    rec.unwrap().services
}

/// `caller` reaches `method` on `target`: whatever the handler makes of an
/// empty argument list, the listener found it.
fn assert_dispatchable(
    caller: &DeviceRuntime,
    target: &DeviceRuntime,
    service: &ServiceName,
    method: &str,
) {
    let out = caller
        .engine()
        .invoke(target.user(), service, method, vec![]);
    assert!(
        !matches!(out, Err(SydError::NoSuchService(_, _))),
        "{service}/{method} is not served: {out:?}"
    );
}

#[test]
fn a_calendar_user_joins_in_three_directory_requests() {
    let env = SydEnv::new(NetConfig::ideal(), "deployment");
    let (phil, _app, cost) = join_and_install(&env, "phil", |d| CalendarApp::install(d).unwrap());
    assert_eq!(cost, 2, "one publish for `mailbox`, one for `calendar`");
    assert_eq!(published(&phil), ["mailbox", "calendar"]);

    // Twelve calendar methods and the mailbox's one ride on those two.
    let (andy, _app, _) = join_and_install(&env, "andy", |d| CalendarApp::install(d).unwrap());
    for method in [
        "free_slots_bitmap",
        "slot_status",
        "meeting_info",
        "update_meeting",
        "release_slot",
        "queue_availability",
        "peer_available",
        "meeting_bumped",
        "change_request",
        "drop_availability",
        "leave_request",
        "authority_check",
    ] {
        assert_dispatchable(&andy, &phil, &calendar_service(), method);
    }
    assert_dispatchable(&andy, &phil, &mailbox_service(), "deliver");
}

#[test]
fn the_other_applications_cost_one_request_per_service() {
    let env = SydEnv::new_insecure(NetConfig::ideal());

    let (base, _app, cost) =
        join_and_install(&env, "base", |d| BaselineCalendar::install(d).unwrap());
    assert_eq!(cost, 1, "five methods, one service");
    assert_eq!(published(&base), [baseline_service().as_str()]);

    let (van, _app, cost) = join_and_install(&env, "van", |d| Vehicle::install(d).unwrap());
    assert_eq!(cost, 1, "two methods, one service");
    assert_eq!(published(&van), [fleet_service().as_str()]);
    let (_, _app, cost) = join_and_install(&env, "depot", |d| Dispatcher::install(d).unwrap());
    assert_eq!(cost, 0, "a dispatcher serves nothing");

    let (player, _app, cost) = join_and_install(&env, "player", |d| {
        Player::install(d, Arc::new(|_item| Some(1))).unwrap()
    });
    assert_eq!(cost, 1);
    assert_eq!(published(&player), [bidding_service().as_str()]);
    let (_, _app, cost) = join_and_install(&env, "host", |d| Host::install(d).unwrap());
    assert_eq!(cost, 0, "a host serves nothing");
}
