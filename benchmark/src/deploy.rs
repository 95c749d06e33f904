//! Set-up: a SyD deployment with its calendar users and their calendars,
//! built from the workload's shape and the run's seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_calendar::CalendarApp;
use syd_core::{DeviceRuntime, SydEnv};
use syd_net::{FramedTcpTransport, LatencyModel, NetConfig};
use syd_telemetry::Registry;
use syd_types::{SlotBitmap, SlotRange, TimeSlot, UserId};

/// §5.4 authentication is on in every deployment.
const PASSPHRASE: &str = "syd-benchmark deployment";
/// Calendars cover four weeks of hourly slots.
pub const WINDOW_DAYS: u32 = 28;
/// Slots kept free in every calendar, from which meetings are drawn.
const POOL_SLOTS: usize = 48;
/// Probability that a non-pool slot is a personal engagement.
const BUSY_SHARE: f64 = 0.30;
/// One-way delay of the `wlan_*` workloads: one RPC ≈ 4 ms.
pub const WLAN_DELAY: Duration = Duration::from_millis(2);

/// SplitMix64: the benchmark's only source of randomness, so that one
/// `--seed` gives one set of inputs whatever the program links.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The network the deployment runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Simulated network, fixed 2 ms one way: the measured configuration.
    Wlan,
    /// Simulated network, no delay: the CPU-bound reading (per-layer only).
    Ideal,
    /// Framed TCP over loopback: the socket-bound reading (per-layer only).
    Tcp,
}

pub fn wlan_config(seed: u64) -> NetConfig {
    NetConfig::ideal()
        .with_latency(LatencyModel::fixed(WLAN_DELAY))
        .with_seed(seed)
}

/// The filled calendars, as the program should report them whenever no
/// meeting is scheduled.
pub struct Calendars {
    /// Slots free in every calendar.
    pub pool: Vec<TimeSlot>,
    /// Per user: free (set) and busy (clear) slots over the window.
    pub expected: Vec<SlotBitmap>,
}

pub fn window() -> SlotRange {
    SlotRange::days(0, WINDOW_DAYS)
}

impl Calendars {
    pub fn generate(users: usize, seed: u64) -> Calendars {
        let mut rng = Rng::new(seed);
        let slots = window().len() as usize;
        let mut in_pool = vec![false; slots];
        let mut pool = Vec::with_capacity(POOL_SLOTS);
        while pool.len() < POOL_SLOTS {
            let o = rng.below(slots);
            if !in_pool[o] {
                in_pool[o] = true;
                pool.push(TimeSlot::from_ordinal(o as u64));
            }
        }
        pool.sort();
        let expected = (0..users)
            .map(|_| {
                let mut bm = SlotBitmap::all_free(window());
                for (o, &pooled) in in_pool.iter().enumerate() {
                    if !pooled && rng.unit() < BUSY_SHARE {
                        bm.set_busy(TimeSlot::from_ordinal(o as u64));
                    }
                }
                bm
            })
            .collect();
        Calendars { pool, expected }
    }

    /// Slots free at every one of `members`.
    pub fn common_free(&self, members: std::ops::Range<usize>) -> Vec<TimeSlot> {
        let mut common = SlotBitmap::all_free(window());
        for bm in &self.expected[members] {
            common.and_assign(bm);
        }
        common.to_slots()
    }
}

/// A running deployment: the unit `setup_s` times.
pub struct Deployment {
    pub env: SydEnv,
    /// Calendar users, by workload index.
    pub apps: Vec<Arc<CalendarApp>>,
    pub users: Vec<UserId>,
    pub calendars: Calendars,
    idle: Vec<DeviceRuntime>,
    /// Transport, directory, the calendar users' devices,
    /// `CalendarApp::install` and the calendars; idle devices excluded.
    pub setup: Duration,
    /// Mean spawn time of one idle device, when the workload has any.
    pub idle_spawn_us: Option<f64>,
}

impl Deployment {
    /// Sets up `users` calendar users on `link`, beside `idle_devices`
    /// devices that do nothing (and, if there are any, with scoped metrics).
    pub fn start(
        users: usize,
        idle_devices: usize,
        seed: u64,
        link: Link,
    ) -> Result<Deployment, String> {
        let t_env = Instant::now();
        // An idle fleet is spawned on the ideal network and the delay
        // switched on afterwards: its spawn is not part of `setup_s`.
        let env = match link {
            Link::Wlan if idle_devices == 0 => SydEnv::new(wlan_config(seed), PASSPHRASE),
            Link::Wlan | Link::Ideal => SydEnv::new(NetConfig::ideal().with_seed(seed), PASSPHRASE),
            Link::Tcp => SydEnv::new_on(Arc::new(FramedTcpTransport::loopback()), Some(PASSPHRASE))
                .map_err(|e| format!("tcp deployment: {e}"))?,
        };
        let mut setup = t_env.elapsed();

        let mut idle = Vec::with_capacity(idle_devices);
        let mut idle_spawn_us = None;
        if idle_devices > 0 {
            env.runtime().set_scoped_metrics(true);
            let t = Instant::now();
            for i in 0..idle_devices {
                idle.push(
                    env.device(&format!("idle{i}"), "pw")
                        .map_err(|e| format!("idle device {i}: {e}"))?,
                );
            }
            idle_spawn_us = Some(t.elapsed().as_secs_f64() * 1e6 / idle_devices as f64);
            if link == Link::Wlan {
                env.network().reconfigure(wlan_config(seed));
            }
        }

        let t_users = Instant::now();
        let calendars = Calendars::generate(users, seed);
        let mut apps = Vec::with_capacity(users);
        for (i, expected) in calendars.expected.iter().enumerate() {
            let device = env
                .device(&format!("user{i}"), "pw")
                .map_err(|e| format!("device {i}: {e}"))?;
            let app = CalendarApp::install(&device).map_err(|e| format!("install {i}: {e}"))?;
            for slot in window().iter().filter(|&s| !expected.is_free(s)) {
                app.mark_busy(slot)
                    .map_err(|e| format!("fill calendar {i}: {e}"))?;
            }
            apps.push(app);
        }
        setup += t_users.elapsed();

        let users = apps.iter().map(|a| a.user()).collect();
        Ok(Deployment {
            env,
            apps,
            users,
            calendars,
            idle,
            setup,
            idle_spawn_us,
        })
    }

    /// Devices registered with the runtime: calendar users, idle devices
    /// and the directory.
    pub fn nodes(&self) -> usize {
        self.apps.len() + self.idle.len() + 1
    }

    pub fn devices(&self) -> impl Iterator<Item = &DeviceRuntime> {
        self.apps.iter().map(|a| a.device())
    }

    /// Every registry the deployment's counters live in, each once: the
    /// directory's, and per calendar user either its own or — with scoped
    /// metrics — the fleet registry all scoped devices delegate to.
    pub fn registries(&self) -> Vec<Arc<Registry>> {
        let mut out = vec![Arc::clone(self.env.directory().metrics())];
        let mut scoped = false;
        for device in self.devices() {
            if device.metrics().is_scoped() {
                scoped = true;
            } else {
                out.push(Arc::clone(device.metrics()));
            }
        }
        if scoped {
            out.push(Arc::clone(self.env.runtime().fleet_registry()));
        }
        out
    }

    /// Stops every device; the runtime's threads end with the last one.
    pub fn stop(self) {
        for device in self.devices().chain(&self.idle) {
            device.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_calendars() {
        let a = Calendars::generate(12, 5);
        let b = Calendars::generate(12, 5);
        let c = Calendars::generate(12, 6);
        assert_eq!(a.pool, b.pool);
        assert!(a.expected == b.expected);
        assert!(a.pool != c.pool || a.expected != c.expected);
    }

    #[test]
    fn pool_slots_are_free_everywhere_and_others_partly_busy() {
        let cal = Calendars::generate(12, 1);
        assert_eq!(cal.pool.len(), POOL_SLOTS);
        for bm in &cal.expected {
            assert!(cal.pool.iter().all(|&s| bm.is_free(s)));
            let busy = window().len() as u32 - bm.count_free();
            let share = f64::from(busy) / (window().len() as usize - POOL_SLOTS) as f64;
            assert!((0.2..0.4).contains(&share), "busy share {share}");
        }
        let common = cal.common_free(0..8);
        assert!(cal.pool.iter().all(|s| common.contains(s)));
    }
}
