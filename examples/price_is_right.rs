//! The price-is-right bidding game (Figure 2): group invocation with
//! result aggregation, played "at an airport or a mall".
//!
//! ```sh
//! cargo run --example price_is_right
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use std::sync::Arc;

use syd::bidding::{BidStrategy, Host, Player};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::types::rng::Rng;
use syd::types::UserId;

fn main() {
    let env = SydEnv::new(NetConfig::wireless_lan(), "mall passphrase");
    let host = Host::install(&env.device("host", "pw").unwrap()).unwrap();

    // Six players with different guessing styles.
    let mut players = Vec::new();
    for i in 0..6 {
        let device = env.device(&format!("shopper{i}"), "pw").unwrap();
        let seed = 42 + i as u64;
        let strategy: BidStrategy = Arc::new(move |item: &str| {
            // Deterministic per-player noise around a rough idea of value.
            let mut rng = Rng::new(seed ^ item.len() as u64);
            let base: u64 = 1000 + 150 * item.len() as u64;
            Some(base / 2 + rng.below(base))
        });
        players.push(Player::install(&device, strategy).unwrap());
    }
    let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();

    let items = [
        ("toaster", 1899u64),
        ("espresso machine", 4999),
        ("umbrella", 1299),
        ("headphones", 3499),
        ("desk lamp", 1599),
    ];
    for (item, price) in items {
        let result = host.run_round(&users, item, price).unwrap();
        println!("round {}: {item} (actual {price})", result.round);
        for (user, bid) in &result.bids {
            match bid {
                Some(b) => println!("  {user} bid {b}"),
                None => println!("  {user} sat out"),
            }
        }
        match result.winner {
            Some(w) => println!("  -> winner: {w}"),
            None => println!("  -> everyone overbid, no winner"),
        }
    }

    println!("\nfinal scores:");
    for (player, wins) in host.scores().unwrap() {
        println!("  {player}: {wins} wins");
    }
}
