//! The SyDFleet application (Figure 2): position tracking over
//! subscription links, group queries, and negotiated zone reassignment.
//!
//! ```sh
//! cargo run --example fleet_dispatch
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // example code

use std::time::{Duration, Instant};

use syd::fleet::{deploy_fleet, Position};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::types::UserId;

fn main() {
    let env = SydEnv::new(NetConfig::wireless_lan(), "fleet passphrase");
    let (dispatcher, vehicles) = deploy_fleet(&env, 6).unwrap();
    let users: Vec<UserId> = vehicles.iter().map(|v| v.user()).collect();

    // Vehicles drive around; the dispatcher's board follows via links.
    for (i, vehicle) in vehicles.iter().enumerate() {
        vehicle
            .move_to(Position {
                x: (i * 3) as f64,
                y: (i % 2 * 5) as f64,
            })
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(3);
    while dispatcher.board().len() < vehicles.len() && Instant::now() < deadline {
        syd::types::sync::sleep(&**env.clock(), Duration::from_millis(10));
    }
    println!("dispatcher board (fed by subscription links):");
    for (vehicle, pos) in dispatcher.board() {
        println!("  {vehicle}: ({:.1}, {:.1})", pos.x, pos.y);
    }

    // A delivery comes in at (7, 1): nearest idle vehicle wins.
    let chosen = dispatcher
        .dispatch_delivery(&users, Position { x: 7.0, y: 1.0 }, "parcel-4711")
        .unwrap();
    println!("parcel-4711 assigned to {chosen}");

    // Rush hour downtown: move at least 3 idle vehicles there, atomically.
    match dispatcher.reassign_zone(&users, "downtown", 3) {
        Ok(moved) => println!("reassigned to downtown: {moved:?}"),
        Err(e) => println!("reassignment failed: {e}"),
    }
    for vehicle in &vehicles {
        println!(
            "  {}: zone={}, delivery={:?}",
            vehicle.user(),
            vehicle.zone().unwrap(),
            vehicle.delivery().unwrap()
        );
    }
}
