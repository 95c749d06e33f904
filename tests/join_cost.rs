//! What a join costs, counted at the directory: one `register`, then one
//! `publish` per distinct service the application names — never one per
//! method — all sent in one wave at the end of the install, off the
//! caller's path (DESIGN.md §20). Read from the directory node's own
//! `rpc.requests_served` once the device holds every acknowledgement, the
//! way `dir.batch_lookups` pins the lookup budget, so a publish that
//! creeps back fails here before it shows in `setup_s`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

#[path = "support/baseline.rs"]
mod baseline;
mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use baseline::{BaselineCalendar, BCAL};
use syd::bidding::{Host, Player, BIDDING};
use syd::calendar::app::calendar_service;
use syd::calendar::mailbox::MAILBOX;
use syd::calendar::CalendarApp;
use syd::fleet::{Dispatcher, Vehicle, FLEET};
use syd::kernel::directory::DESCRIBE;
use syd::kernel::{DeviceRuntime, SydEnv};
use syd::net::{LatencyModel, NetConfig};
use syd::types::{ServiceName, SydError};
use syd_telemetry::names;

/// Requests the directory node has served so far.
fn dir_requests(env: &SydEnv) -> u64 {
    env.directory()
        .metrics()
        .get_counter(names::RPC_REQUESTS_SERVED)
        .map_or(0, |c| c.get())
}

/// Waits until the directory has acknowledged every service `device`
/// serves: its publishes complete in the background.
fn wait_published(device: &DeviceRuntime) {
    let (within, every) = (Duration::from_secs(5), Duration::from_millis(1));
    let published = || device.unpublished().is_empty();
    let name = device.name();
    assert!(
        support::eventually(&**device.clock(), within, every, published),
        "{name}: still unpublished"
    );
}

/// Joins a device, checks that the join was the one `register`, and
/// returns it with the directory requests `install` then made, counted
/// once they are acknowledged.
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
    wait_published(&device);
    (device, app, dir_requests(env) - before)
}

fn published(device: &DeviceRuntime) -> Vec<String> {
    let rec = device.engine().directory().call(DESCRIBE, (device.user(),));
    rec.unwrap().services
}

/// The directory lists exactly the application services the device's
/// listener serves (the kernel's own `syd.*` services are not published).
fn assert_published_as_served(device: &DeviceRuntime) {
    let mut served: Vec<String> = device
        .listener()
        .registered()
        .into_iter()
        .map(|(service, _)| service)
        .filter(|service| !service.starts_with("syd."))
        .collect();
    served.dedup();
    assert_eq!(published(device), served, "{}", device.name());
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
    assert_eq!(published(&phil), ["calendar", "mailbox"]);
    assert_published_as_served(&phil);

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
    assert_dispatchable(&andy, &phil, MAILBOX, "deliver");
}

#[test]
fn a_calendar_install_publishes_in_one_round_trip() {
    // 50 ms each way: the wire dwarfs the rest of the install.
    let round_trip = Duration::from_millis(100);
    let cfg = NetConfig::ideal().with_latency(LatencyModel::fixed(round_trip / 2));
    let env = SydEnv::new_insecure(cfg);
    let (phil, (start, installed), cost) = join_and_install(&env, "phil", |d| {
        let start = Instant::now();
        CalendarApp::install(d).unwrap();
        (start, start.elapsed())
    });
    // The install does not wait for the directory; its one wave does.
    let published = start.elapsed();
    assert!(
        installed < round_trip / 2,
        "the install took {installed:?}: it waited for its publishes"
    );
    assert_eq!(cost, 2, "still one publish per service");
    assert!(published >= round_trip, "{published:?}");
    assert!(
        published < round_trip * 3 / 2,
        "acknowledged after {published:?}: the publishes did not share one wave"
    );
    assert_published_as_served(&phil);
}

#[test]
fn the_other_applications_cost_one_request_per_service() {
    let env = SydEnv::new_insecure(NetConfig::ideal());

    let (base, _app, cost) =
        join_and_install(&env, "base", |d| BaselineCalendar::install(d).unwrap());
    assert_eq!(cost, 1, "five methods, one service");
    assert_eq!(published(&base), [BCAL.as_str()]);

    let (van, _app, cost) = join_and_install(&env, "van", |d| Vehicle::install(d).unwrap());
    assert_eq!(cost, 1, "two methods, one service");
    assert_eq!(published(&van), [FLEET.as_str()]);
    let (depot, _app, cost) = join_and_install(&env, "depot", |d| Dispatcher::install(d).unwrap());
    assert_eq!(cost, 0, "a dispatcher serves nothing");

    let (player, _app, cost) = join_and_install(&env, "player", |d| {
        Player::install(d, Arc::new(|_item| Some(1))).unwrap()
    });
    assert_eq!(cost, 1);
    assert_eq!(published(&player), [BIDDING.as_str()]);
    let (host, _app, cost) = join_and_install(&env, "host", |d| Host::install(d).unwrap());
    assert_eq!(cost, 0, "a host serves nothing");

    for device in [&base, &van, &depot, &player, &host] {
        assert_published_as_served(device);
    }
}
