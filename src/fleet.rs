//! SyDFleet — the mobile fleet application of Figure 2.
//!
//! The paper lists a fleet application among its sample SyDApps (built in
//! the companion paper, reference \[1\]: *Mobile Fleet Applications using
//! SOAP and SyD Middleware Technologies*). Vehicles are SyD devices with
//! embedded stores; a dispatcher coordinates them:
//!
//! * **Position tracking** — each vehicle's `position` entity carries a
//!   subscription link to the dispatcher, so every movement flows to the
//!   dispatcher's fleet table automatically (§4.1's "automatic flow of
//!   information from a source entity to other entities that subscribe").
//! * **Group queries** — "find the nearest free vehicle" is an engine
//!   group invocation with client-side aggregation (§3.1c).
//! * **Zone reassignment** — moving `k` vehicles into a busy zone uses a
//!   negotiation-or (at least k of n) link action: only vehicles not on a
//!   delivery accept, and the reassignment happens only if the quorum is
//!   met (§4.3).

use std::sync::{Arc, Weak};

use syd_core::links::LinkRef;
use syd_core::negotiate::Participant;
use syd_core::{DeviceRuntime, EntityHandler, InvokeCtx, Method, SubscriptionHandler};
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_types::sync::{Rank, RwLock};
use syd_types::{ServiceName, SydError, SydResult, UserId, Value};

/// The fleet service name.
pub fn fleet_service() -> ServiceName {
    ServiceName::new("fleet")
}

/// Entity name of a vehicle's position.
pub const POSITION_ENTITY: &str = "position";
/// Entity name of a vehicle's zone assignment.
pub const ZONE_ENTITY: &str = "zone";

const T_STATE: &str = "vehicle_state";

/// A 2-D position (city-grid coordinates).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Position {
    /// East-west coordinate.
    pub x: f64,
    /// North-south coordinate.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// One vehicle: a SyD device with position, zone and delivery state.
pub struct Vehicle {
    device: DeviceRuntime,
    store: Store,
}

impl Vehicle {
    /// Installs the vehicle application on a device.
    pub fn install(device: &DeviceRuntime) -> SydResult<Arc<Vehicle>> {
        let store = device.store().clone();
        store.create_table(Schema::new(
            T_STATE,
            vec![
                Column::required("key", ColumnType::Str),
                Column::nullable("value", ColumnType::Any),
            ],
            &["key"],
        )?)?;
        let vehicle = Arc::new(Vehicle {
            device: device.clone(),
            store,
        });
        vehicle.set_state("x", Value::F64(0.0))?;
        vehicle.set_state("y", Value::F64(0.0))?;
        vehicle.set_state("zone", Value::str("depot"))?;
        vehicle.set_state("delivery", Value::Null)?;

        device.set_entity_handler(Arc::new(VehicleEntityHandler(Arc::downgrade(&vehicle))));
        device.serve(&fleet_service(), &vehicle, FLEET_METHODS);
        device.publish()?;
        Ok(vehicle)
    }

    /// The vehicle's user id.
    pub fn user(&self) -> UserId {
        self.device.user()
    }

    /// The underlying device.
    pub fn device(&self) -> &DeviceRuntime {
        &self.device
    }

    fn set_state(&self, key: &str, value: Value) -> SydResult<()> {
        if self
            .store
            .get_by_key(T_STATE, &[Value::str(key)])?
            .is_some()
        {
            self.store.update(
                T_STATE,
                &Predicate::Eq("key".into(), Value::str(key)),
                &[("value".into(), value)],
            )?;
        } else {
            self.store.insert(T_STATE, vec![Value::str(key), value])?;
        }
        Ok(())
    }

    fn state(&self, key: &str) -> SydResult<Value> {
        Ok(self
            .store
            .get_by_key(T_STATE, &[Value::str(key)])?
            .map_or(Value::Null, |row| row.values[1].clone()))
    }

    /// Current position.
    pub fn position(&self) -> SydResult<Position> {
        Ok(Position {
            x: self.state("x")?.as_f64()?,
            y: self.state("y")?.as_f64()?,
        })
    }

    /// Current zone.
    pub fn zone(&self) -> SydResult<String> {
        self.state("zone")?.as_str().map(str::to_owned)
    }

    /// Current delivery, if on one.
    pub fn delivery(&self) -> SydResult<Option<String>> {
        match self.state("delivery")? {
            Value::Null => Ok(None),
            v => Ok(Some(v.as_str()?.to_owned())),
        }
    }

    /// Moves the vehicle; position subscribers are notified through the
    /// coordination link on the `position` entity.
    pub fn move_to(&self, position: Position) -> SydResult<()> {
        self.set_state("x", Value::F64(position.x))?;
        self.set_state("y", Value::F64(position.y))?;
        let payload = Value::map([
            ("vehicle", Value::from(self.user().raw())),
            ("x", Value::F64(position.x)),
            ("y", Value::F64(position.y)),
        ]);
        let _ = self.device.entity_changed(POSITION_ENTITY, &payload)?;
        Ok(())
    }

    /// Marks the delivery done and becomes available again.
    pub fn complete_delivery(&self) -> SydResult<()> {
        self.set_state("delivery", Value::Null)
    }
}

/// The fleet service a vehicle serves.
static FLEET_METHODS: &[Method<Vehicle>] = &[
    Method::new("position", position),
    Method::new("assign_delivery", assign_delivery),
];

/// position() -> {x, y, zone, delivery}
fn position(v: &Vehicle, _ctx: &InvokeCtx, _args: &[Value]) -> SydResult<Value> {
    Ok(Value::map([
        ("x", v.state("x")?),
        ("y", v.state("y")?),
        ("zone", v.state("zone")?),
        ("delivery", v.state("delivery")?),
    ]))
}

/// assign_delivery(label) -> Bool (false when already busy)
fn assign_delivery(v: &Vehicle, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let label = args
        .first()
        .ok_or_else(|| SydError::Protocol("needs label".into()))?
        .as_str()?;
    if !v.state("delivery")?.is_null() {
        return Ok(Value::Bool(false));
    }
    v.set_state("delivery", Value::str(label))?;
    Ok(Value::Bool(true))
}

/// Negotiated changes to a vehicle's entities (zone reassignment).
struct VehicleEntityHandler(Weak<Vehicle>);

impl EntityHandler for VehicleEntityHandler {
    fn prepare(&self, entity: &str, _change: &Value) -> SydResult<()> {
        let v = self.0.upgrade().ok_or(SydError::Shutdown)?;
        match entity {
            ZONE_ENTITY => {
                // Only idle vehicles accept a reassignment.
                if v.state("delivery")?.is_null() {
                    Ok(())
                } else {
                    Err(SydError::App("vehicle is on a delivery".into()))
                }
            }
            _ => Ok(()),
        }
    }

    fn commit(&self, entity: &str, change: &Value) -> SydResult<()> {
        let v = self.0.upgrade().ok_or(SydError::Shutdown)?;
        if entity == ZONE_ENTITY {
            v.set_state("zone", Value::str(change.get("zone")?.as_str()?))?;
        }
        Ok(())
    }

    fn abort(&self, _entity: &str, _change: &Value) {}
}

/// The dispatcher: tracks vehicles and coordinates assignments.
pub struct Dispatcher {
    device: DeviceRuntime,
    /// Last known positions, fed by subscription links.
    positions: RwLock<Vec<(UserId, Position)>>,
}

impl Dispatcher {
    /// Installs the dispatcher application on a device.
    pub fn install(device: &DeviceRuntime) -> SydResult<Arc<Dispatcher>> {
        let dispatcher = Arc::new(Dispatcher {
            device: device.clone(),
            positions: RwLock::new(Rank::Engine, Vec::new()),
        });
        device.set_subscription_handler(Arc::new(DispatcherFeed(Arc::downgrade(&dispatcher))));
        device.publish()?;
        Ok(dispatcher)
    }

    /// The dispatcher's user id.
    pub fn user(&self) -> UserId {
        self.device.user()
    }

    /// Subscribes to a vehicle's position updates by installing a
    /// subscription link *at the vehicle* anchored on its position entity.
    pub fn track(&self, vehicle: UserId) -> SydResult<()> {
        let back = syd_core::links::Link {
            id: syd_types::LinkId::new(0),
            kind: syd_core::links::LinkKind::Subscription,
            status: syd_core::links::LinkStatus::Permanent,
            entity: POSITION_ENTITY.into(),
            refs: vec![LinkRef::new(self.user(), "fleet-board", "position_report")],
            priority: syd_types::Priority::NORMAL,
            created: self.device.clock().now(),
            expires: None,
            corr: format!("track:{}:{}", self.user().raw(), vehicle.raw()).into(),
        };
        self.device.engine().invoke(
            vehicle,
            &syd_core::negotiate::link_service(),
            "install_link",
            vec![back.to_value()],
        )?;
        Ok(())
    }

    /// Stops tracking a vehicle (cascade-deletes the tracking link).
    pub fn untrack(&self, vehicle: UserId) -> SydResult<()> {
        let corr = format!("track:{}:{}", self.user().raw(), vehicle.raw());
        self.device.engine().invoke(
            vehicle,
            &syd_core::negotiate::link_service(),
            "delete_by_corr",
            vec![Value::str(corr), Value::list([])],
        )?;
        Ok(())
    }

    /// Last reported position of each tracked vehicle.
    pub fn board(&self) -> Vec<(UserId, Position)> {
        self.positions.read().clone()
    }

    /// Live group query: every vehicle's position right now, aggregated.
    pub fn poll_positions(&self, vehicles: &[UserId]) -> Vec<(UserId, Position)> {
        let result =
            self.device
                .engine()
                .invoke_group(vehicles, &fleet_service(), "position", vec![]);
        result
            .outcomes
            .into_iter()
            .filter_map(|(user, outcome)| {
                let v = outcome.ok()?;
                Some((
                    user,
                    Position {
                        x: v.get("x").ok()?.as_f64().ok()?,
                        y: v.get("y").ok()?.as_f64().ok()?,
                    },
                ))
            })
            .collect()
    }

    /// Finds the nearest idle vehicle to `target` and assigns it the
    /// delivery. Returns the chosen vehicle.
    pub fn dispatch_delivery(
        &self,
        vehicles: &[UserId],
        target: Position,
        label: &str,
    ) -> SydResult<UserId> {
        let svc = fleet_service();
        let result = self
            .device
            .engine()
            .invoke_group(vehicles, &svc, "position", vec![]);
        let mut candidates: Vec<(UserId, f64)> = result
            .outcomes
            .iter()
            .filter_map(|(user, outcome)| {
                let v = outcome.as_ref().ok()?;
                if !v.get("delivery").ok()?.is_null() {
                    return None; // busy
                }
                let pos = Position {
                    x: v.get("x").ok()?.as_f64().ok()?,
                    y: v.get("y").ok()?.as_f64().ok()?,
                };
                Some((*user, pos.distance(target)))
            })
            .collect();
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        for (user, _) in candidates {
            let out = self.device.engine().invoke(
                user,
                &svc,
                "assign_delivery",
                vec![Value::str(label)],
            )?;
            if out.as_bool().unwrap_or(false) {
                return Ok(user);
            }
        }
        Err(SydError::App("no idle vehicle available".into()))
    }

    /// Reassigns at least `k` of `vehicles` to `zone` via negotiation-or:
    /// the move happens only if `k` idle vehicles accept; busy vehicles
    /// decline and keep their zone.
    pub fn reassign_zone(&self, vehicles: &[UserId], zone: &str, k: u32) -> SydResult<Vec<UserId>> {
        let change = Value::map([("zone", Value::str(zone))]);
        let parts: Vec<Participant> = vehicles
            .iter()
            .map(|&v| Participant::new(v, ZONE_ENTITY, change.clone()))
            .collect();
        let outcome = self.device.negotiator().negotiate_or(k, &parts)?;
        if !outcome.satisfied {
            return Err(SydError::ConstraintFailed(format!(
                "only {} of {} vehicles available, needed {k}",
                outcome.committed.len(),
                vehicles.len()
            )));
        }
        Ok(outcome.committed)
    }
}

/// Applies position reports to the dispatcher's board.
struct DispatcherFeed(Weak<Dispatcher>);

impl SubscriptionHandler for DispatcherFeed {
    fn on_notify(&self, _entity: &str, action: &str, payload: &Value) -> SydResult<Value> {
        let dispatcher = self.0.upgrade().ok_or(SydError::Shutdown)?;
        if action == "position_report" {
            let vehicle = UserId::new(payload.get("vehicle")?.as_i64()? as u64);
            let pos = Position {
                x: payload.get("x")?.as_f64()?,
                y: payload.get("y")?.as_f64()?,
            };
            let mut board = dispatcher.positions.write();
            if let Some(entry) = board.iter_mut().find(|(u, _)| *u == vehicle) {
                entry.1 = pos;
            } else {
                board.push((vehicle, pos));
            }
        }
        Ok(Value::Null)
    }
}

/// Builds a fleet deployment: one dispatcher plus `n` vehicles, with the
/// dispatcher tracking every vehicle.
pub fn deploy_fleet(
    env: &syd_core::SydEnv,
    n: usize,
) -> SydResult<(Arc<Dispatcher>, Vec<Arc<Vehicle>>)> {
    let dispatcher_device = env.device("dispatcher", "dispatch-pw")?;
    let dispatcher = Dispatcher::install(&dispatcher_device)?;
    let mut vehicles = Vec::with_capacity(n);
    for i in 0..n {
        let device = env.device(&format!("vehicle{i}"), "vehicle-pw")?;
        let vehicle = Vehicle::install(&device)?;
        dispatcher.track(vehicle.user())?;
        vehicles.push(vehicle);
    }
    Ok((dispatcher, vehicles))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use syd_core::SydEnv;
    use syd_net::NetConfig;

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(3);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn position_reports_flow_over_subscription_links() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let (dispatcher, vehicles) = deploy_fleet(&env, 3).unwrap();
        vehicles[0].move_to(Position { x: 3.0, y: 4.0 }).unwrap();
        vehicles[1].move_to(Position { x: 1.0, y: 1.0 }).unwrap();
        wait_for(
            || dispatcher.board().len() == 2,
            "two position reports on the board",
        );
        let board = dispatcher.board();
        let v0 = board
            .iter()
            .find(|(u, _)| *u == vehicles[0].user())
            .unwrap();
        assert_eq!(v0.1, Position { x: 3.0, y: 4.0 });

        // Moving again updates rather than duplicates.
        vehicles[0].move_to(Position { x: 5.0, y: 5.0 }).unwrap();
        wait_for(
            || {
                dispatcher
                    .board()
                    .iter()
                    .any(|(u, p)| *u == vehicles[0].user() && p.x == 5.0)
            },
            "board update",
        );
        assert_eq!(dispatcher.board().len(), 2);
    }

    #[test]
    fn untrack_stops_reports() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let (dispatcher, vehicles) = deploy_fleet(&env, 1).unwrap();
        vehicles[0].move_to(Position { x: 1.0, y: 0.0 }).unwrap();
        wait_for(|| dispatcher.board().len() == 1, "first report");
        dispatcher.untrack(vehicles[0].user()).unwrap();
        assert_eq!(vehicles[0].device().links().count().unwrap(), 0);
        vehicles[0].move_to(Position { x: 9.0, y: 9.0 }).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let board = dispatcher.board();
        assert_eq!(
            board[0].1,
            Position { x: 1.0, y: 0.0 },
            "no further updates"
        );
    }

    #[test]
    fn nearest_idle_vehicle_gets_the_delivery() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let (dispatcher, vehicles) = deploy_fleet(&env, 3).unwrap();
        let users: Vec<UserId> = vehicles.iter().map(|v| v.user()).collect();
        vehicles[0].move_to(Position { x: 0.0, y: 0.0 }).unwrap();
        vehicles[1].move_to(Position { x: 10.0, y: 0.0 }).unwrap();
        vehicles[2].move_to(Position { x: 2.0, y: 0.0 }).unwrap();

        let chosen = dispatcher
            .dispatch_delivery(&users, Position { x: 3.0, y: 0.0 }, "parcel-1")
            .unwrap();
        assert_eq!(chosen, vehicles[2].user());
        assert_eq!(vehicles[2].delivery().unwrap(), Some("parcel-1".into()));

        // Vehicle 2 is now busy; next delivery to the same spot goes to 0.
        let chosen = dispatcher
            .dispatch_delivery(&users, Position { x: 3.0, y: 0.0 }, "parcel-2")
            .unwrap();
        assert_eq!(chosen, vehicles[0].user());

        vehicles[2].complete_delivery().unwrap();
        assert_eq!(vehicles[2].delivery().unwrap(), None);
    }

    #[test]
    fn zone_reassignment_needs_k_idle_vehicles() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let (dispatcher, vehicles) = deploy_fleet(&env, 4).unwrap();
        let users: Vec<UserId> = vehicles.iter().map(|v| v.user()).collect();

        // Two vehicles are on deliveries.
        dispatcher
            .dispatch_delivery(&users, Position { x: 0.0, y: 0.0 }, "a")
            .unwrap();
        dispatcher
            .dispatch_delivery(&users, Position { x: 0.0, y: 0.0 }, "b")
            .unwrap();

        // Need 3 idle: impossible.
        let err = dispatcher.reassign_zone(&users, "uptown", 3).unwrap_err();
        assert!(matches!(err, SydError::ConstraintFailed(_)), "{err}");
        for v in &vehicles {
            assert_eq!(v.zone().unwrap(), "depot", "no partial reassignment");
        }

        // Need 2 idle: works, and exactly the idle ones moved.
        let moved = dispatcher.reassign_zone(&users, "uptown", 2).unwrap();
        assert_eq!(moved.len(), 2);
        let mut uptown = 0;
        for v in &vehicles {
            if v.zone().unwrap() == "uptown" {
                uptown += 1;
                assert!(v.delivery().unwrap().is_none(), "busy vehicle moved");
            }
        }
        assert_eq!(uptown, 2);
    }

    #[test]
    fn poll_positions_aggregates_the_group() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let (dispatcher, vehicles) = deploy_fleet(&env, 5).unwrap();
        let users: Vec<UserId> = vehicles.iter().map(|v| v.user()).collect();
        for (i, v) in vehicles.iter().enumerate() {
            v.move_to(Position {
                x: i as f64,
                y: 0.0,
            })
            .unwrap();
        }
        let polled = dispatcher.poll_positions(&users);
        assert_eq!(polled.len(), 5);
        for (i, v) in vehicles.iter().enumerate() {
            let (_, p) = polled.iter().find(|(u, _)| *u == v.user()).unwrap();
            assert_eq!(p.x, i as f64);
        }
    }
}
