//! SyDBid — the "price-is-right" bidding game of Figure 2.
//!
//! The paper lists "a price-is-right bidding game suitable to be played at
//! an airport or a mall" among its sample SyDApps (§3.1). A host device
//! runs rounds; player devices answer bid requests:
//!
//! * the host announces an item and collects bids with one engine **group
//!   invocation** (every player's `bid` method, §3.1c),
//! * the classic rule picks the winner: closest bid **not exceeding** the
//!   actual price,
//! * results are pushed to players as global events through the event
//!   handler, and a score table accumulates on the host's store.
//!
//! Players install a [`BidStrategy`] — in a real deployment a UI prompt, in
//! tests and benches a closure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_core::{DeviceRuntime, Method, Methods, Verb};
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_types::{ServiceName, SydResult, Text, UserId, Value};

/// The bidding service.
pub const BIDDING: &ServiceName = &ServiceName::constant("bidding");

/// A player's bid for an item in cents, or `None` when it sits out.
pub const BID: Verb<(Text,), Option<u64>> = Verb::new(BIDDING, "bid");

const T_SCORES: &str = "scores";
const T_ROUNDS: &str = "rounds";

/// Decides a player's bid for an item (cents). `None` = sit out.
pub type BidStrategy = Arc<dyn Fn(&str) -> Option<u64> + Send + Sync>;

/// A player device.
pub struct Player {
    device: DeviceRuntime,
    strategy: BidStrategy,
}

/// The bidding service a player serves.
static BIDDING_METHODS: &Methods<Player> = &[&Method::verb(BID, |player: &Player, _, (item,)| {
    Ok((player.strategy)(&item))
})];

impl Player {
    /// Installs the player application with the given strategy. The
    /// player answers bids while the returned handle lives.
    pub fn install(device: &DeviceRuntime, strategy: BidStrategy) -> SydResult<Arc<Player>> {
        let player = Arc::new(Player {
            device: device.clone(),
            strategy,
        });
        device.serve(BIDDING, &player, BIDDING_METHODS);
        device.publish()?;
        Ok(player)
    }

    /// The player's user id.
    pub fn user(&self) -> UserId {
        self.device.user()
    }
}

/// Result of one round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundResult {
    /// Round number.
    pub round: u64,
    /// The item that was up.
    pub item: String,
    /// The hidden actual price (cents).
    pub actual_price: u64,
    /// All bids received, in player order.
    pub bids: Vec<(UserId, Option<u64>)>,
    /// The winner (closest without going over), if anyone qualified.
    pub winner: Option<UserId>,
}

/// The game host.
pub struct Host {
    device: DeviceRuntime,
    store: Store,
    next_round: AtomicU64,
}

impl Host {
    /// Installs the host application.
    pub fn install(device: &DeviceRuntime) -> SydResult<Arc<Host>> {
        let store = device.store().clone();
        store.create_table(Schema::new(
            T_SCORES,
            vec![
                Column::required("player", ColumnType::I64),
                Column::required("wins", ColumnType::I64),
            ],
            &["player"],
        )?)?;
        store.create_table(Schema::new(
            T_ROUNDS,
            vec![
                Column::required("round", ColumnType::I64),
                Column::required("item", ColumnType::Str),
                Column::required("price", ColumnType::I64),
                Column::nullable("winner", ColumnType::I64),
            ],
            &["round"],
        )?)?;
        device.publish()?;
        Ok(Arc::new(Host {
            device: device.clone(),
            store,
            next_round: AtomicU64::new(1),
        }))
    }

    /// The host's user id.
    pub fn user(&self) -> UserId {
        self.device.user()
    }

    /// Runs one round: collect bids from every player in one group
    /// invocation, pick the winner, record scores, notify players.
    pub fn run_round(
        &self,
        players: &[UserId],
        item: &str,
        actual_price: u64,
    ) -> SydResult<RoundResult> {
        let round = self.next_round.fetch_add(1, Ordering::Relaxed);
        let result = (self.device.engine()).call_group(players, BID, (Text::from(item),));
        // Sat out, unreachable, or nonsense: no bid.
        let bids: Vec<(UserId, Option<u64>)> = (result.outcomes.into_iter())
            .map(|(user, outcome)| (user, outcome.ok().flatten()))
            .collect();

        // Closest without going over.
        let winner = bids
            .iter()
            .filter_map(|(user, bid)| {
                let b = (*bid)?;
                (b <= actual_price).then_some((*user, b))
            })
            .max_by_key(|&(_, b)| b)
            .map(|(user, _)| user);

        self.store.insert(
            T_ROUNDS,
            vec![
                Value::from(round),
                Value::str(item),
                Value::from(actual_price),
                winner.map_or(Value::Null, |u| Value::from(u.raw())),
            ],
        )?;
        if let Some(user) = winner {
            self.bump_score(user)?;
        }

        // Push the outcome to every player as a global event.
        let payload = Value::map([
            ("round", Value::from(round)),
            ("item", Value::str(item)),
            ("price", Value::from(actual_price)),
            (
                "winner",
                winner.map_or(Value::Null, |u| Value::from(u.raw())),
            ),
        ]);
        // The players were just resolved for the bids: cache hits.
        let resolved = self.device.engine().resolve_many(players);
        for addr in resolved.into_iter().filter_map(|(_, addr)| addr.ok()) {
            let _ = self
                .device
                .node()
                .publish_event(addr, "bidding.result", payload.clone());
        }

        Ok(RoundResult {
            round,
            item: item.to_owned(),
            actual_price,
            bids,
            winner,
        })
    }

    fn bump_score(&self, player: UserId) -> SydResult<()> {
        match self
            .store
            .get_by_key(T_SCORES, &[Value::from(player.raw())])?
        {
            Some(row) => {
                let wins = row.values[1].as_i64()? + 1;
                self.store.update(
                    T_SCORES,
                    &Predicate::Eq("player".into(), Value::from(player.raw())),
                    &[("wins".into(), Value::I64(wins))],
                )?;
            }
            None => {
                self.store
                    .insert(T_SCORES, vec![Value::from(player.raw()), Value::I64(1)])?;
            }
        }
        Ok(())
    }

    /// The score table, highest first.
    pub fn scores(&self) -> SydResult<Vec<(UserId, u64)>> {
        self.store
            .query(T_SCORES)
            .order_by("wins", false)
            .run()?
            .into_iter()
            .map(|row| {
                Ok((
                    UserId::new(row.values[0].as_i64()? as u64),
                    row.values[1].as_i64()? as u64,
                ))
            })
            .collect()
    }

    /// Number of rounds played.
    pub fn rounds_played(&self) -> SydResult<usize> {
        self.store.count(T_ROUNDS, &Predicate::True)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use syd_core::SydEnv;
    use syd_net::NetConfig;
    use syd_telemetry::names;

    fn fixed(cents: u64) -> BidStrategy {
        Arc::new(move |_item| Some(cents))
    }

    fn rig(strategies: Vec<BidStrategy>) -> (SydEnv, Arc<Host>, Vec<Arc<Player>>) {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let host_device = env.device("host", "").unwrap();
        let host = Host::install(&host_device).unwrap();
        let players = strategies
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let d = env.device(&format!("player{i}"), "").unwrap();
                Player::install(&d, s).unwrap()
            })
            .collect();
        (env, host, players)
    }

    #[test]
    fn closest_without_going_over_wins() {
        let (_env, host, players) = rig(vec![fixed(500), fixed(899), fixed(950)]);
        let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
        let result = host.run_round(&users, "toaster", 900).unwrap();
        // 950 went over; 899 beats 500.
        assert_eq!(result.winner, Some(players[1].user()));
        assert_eq!(result.bids.len(), 3);
        assert_eq!(host.scores().unwrap(), vec![(players[1].user(), 1)]);
    }

    #[test]
    fn everyone_over_means_no_winner() {
        let (_env, host, players) = rig(vec![fixed(1000), fixed(2000)]);
        let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
        let result = host.run_round(&users, "mug", 900).unwrap();
        assert_eq!(result.winner, None);
        assert!(host.scores().unwrap().is_empty());
        assert_eq!(host.rounds_played().unwrap(), 1);
    }

    #[test]
    fn sitting_out_and_unreachable_players_are_skipped() {
        let (env, host, players) = rig(vec![
            Arc::new(|_| None), // sits out
            fixed(100),
            fixed(200),
        ]);
        let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
        // Player 2 walks out of the mall.
        env.network().set_connected(players[2].device.addr(), false);
        let result = host.run_round(&users, "radio", 500).unwrap();
        assert_eq!(result.winner, Some(players[1].user()));
        assert_eq!(result.bids[0].1, None);
        assert_eq!(result.bids[2].1, None);
    }

    #[test]
    fn scores_accumulate_over_rounds() {
        let (_env, host, players) = rig(vec![fixed(800), fixed(700)]);
        let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
        host.run_round(&users, "a", 900).unwrap(); // p0 wins (800)
        host.run_round(&users, "b", 750).unwrap(); // p1 wins (700)
        host.run_round(&users, "c", 900).unwrap(); // p0 wins again
        let scores = host.scores().unwrap();
        assert_eq!(scores[0], (players[0].user(), 2));
        assert_eq!(scores[1], (players[1].user(), 1));
        assert_eq!(host.rounds_played().unwrap(), 3);
    }

    /// Counts the `bidding.*` events the players receive.
    fn results_seen(players: &[Arc<Player>]) -> Arc<AtomicU32> {
        let seen = Arc::new(AtomicU32::new(0));
        for p in players {
            let sc = Arc::clone(&seen);
            p.device.events().subscribe(
                "bidding.",
                Arc::new(move |_t, payload| {
                    assert!(payload.get("round").is_ok());
                    sc.fetch_add(1, Ordering::SeqCst);
                }),
            );
            // Wire node events into the device event handler.
            let events = p.device.events().clone();
            p.device
                .node()
                .set_event_sink(Arc::new(move |_from, ev: syd_wire::EventMsg| {
                    events.publish_local(&ev.topic, || ev.payload);
                }));
        }
        seen
    }

    fn wait_for(seen: &AtomicU32, events: u32) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while seen.load(Ordering::SeqCst) < events {
            assert!(std::time::Instant::now() < deadline, "events missing");
            std::thread::yield_now();
        }
    }

    #[test]
    fn players_receive_result_events() {
        let (_env, host, players) = rig(vec![fixed(10), fixed(20)]);
        let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
        let seen = results_seen(&players);
        host.run_round(&users, "lamp", 100).unwrap();
        wait_for(&seen, 2);
    }

    /// The result push reaches players at the addresses the bids were
    /// sent to: once a round has warmed the host's cache, a round asks the
    /// directory nothing.
    #[test]
    fn a_warm_round_makes_no_directory_request() {
        let (env, host, players) = rig((0..8).map(|i| fixed(100 + i)).collect());
        let users: Vec<UserId> = players.iter().map(|p| p.user()).collect();
        let seen = results_seen(&players);
        // The installs' publishes land at the directory in the background.
        while players.iter().any(|p| !p.device.unpublished().is_empty()) {
            std::thread::yield_now();
        }
        let served = || {
            let metrics = env.directory().metrics();
            metrics
                .get_counter(names::RPC_REQUESTS_SERVED)
                .unwrap()
                .get()
        };
        host.run_round(&users, "kettle", 150).unwrap();
        let before = served();
        host.run_round(&users, "kettle", 150).unwrap();
        assert_eq!(served() - before, 0);
        wait_for(&seen, 16);
    }
}
