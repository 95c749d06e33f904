//! Shared rigs for the bench targets, the experiment harness and the
//! integration tests that build calendar deployments.
//!
//! Every benchmark builds deployments the same way so numbers are
//! comparable across experiments: an ideal (lossless, zero-latency)
//! network unless the experiment is explicitly about transport effects,
//! authentication off unless the experiment is about §5.4.
//!
//! A target takes this module with `mod support;` (from `tests/`) or
//! `#[path = "../tests/support/mod.rs"] mod support;` (from `benches/`
//! and `examples/`). The §3.3/§6 baseline calendar sits beside it in
//! `baseline.rs` and is taken on its own, `#[path]` to that file, by the
//! three targets that run it, so its unit tests run once: in
//! `tests/join_cost.rs`.

// Measurement harness, not middleware: a rig that cannot build has no
// meaningful numbers to report, so panicking on setup is the contract.
// Each target that includes this module uses only a part of it.
#![allow(clippy::unwrap_used, clippy::expect_used, dead_code)]

pub mod timing;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use syd_calendar::CalendarApp;
use syd_core::{DeviceRuntime, SydEnv};
use syd_net::NetConfig;
use syd_telemetry::names;
use syd_types::{Clock, TimeSlot, UserId};

/// A fresh insecure deployment on an ideal network.
pub fn env_ideal() -> SydEnv {
    SydEnv::new_insecure(NetConfig::ideal())
}

/// A fresh authenticated deployment on an ideal network.
pub fn env_secure() -> SydEnv {
    SydEnv::new(NetConfig::ideal(), "bench passphrase")
}

/// `n` bare devices.
pub fn devices(env: &SydEnv, n: usize) -> Vec<DeviceRuntime> {
    (0..n)
        .map(|i| env.device(&format!("dev{i}"), "pw").unwrap())
        .collect()
}

/// `n` calendar users, returned once their installs' publishes are
/// through ([`await_publishes`]).
pub fn calendar_rig(env: &SydEnv, n: usize) -> Vec<Arc<CalendarApp>> {
    let apps: Vec<Arc<CalendarApp>> = (0..n)
        .map(|i| CalendarApp::install(&env.device(&format!("cal{i}"), "pw").unwrap()).unwrap())
        .collect();
    await_publishes(apps.iter().map(|app| app.device()));
    apps
}

/// Polls `cond` every `every` of `clock` until it holds (true) or
/// `within` of that clock has passed (false): the rigs' one wait. On a
/// [`syd_types::SimClock`] it is virtual — the deployment's loop moves
/// time through it, so it costs no wall time.
pub fn eventually(
    clock: &dyn Clock,
    within: Duration,
    every: Duration,
    mut cond: impl FnMut() -> bool,
) -> bool {
    let deadline = clock.instant() + within;
    loop {
        if cond() {
            return true;
        }
        if clock.instant() >= deadline {
            return false;
        }
        syd_types::sync::sleep(clock, every);
    }
}

/// Waits, for 10 s at most, until the directory has acknowledged every
/// publish of `devices`. An application's install publishes in a pool
/// job off the caller's path, so a traffic count taken right after it
/// may or may not include that wave.
pub fn await_publishes<'a>(devices: impl IntoIterator<Item = &'a DeviceRuntime>) {
    let mut devices = devices.into_iter().peekable();
    let Some(clock) = devices.peek().map(|device| Arc::clone(device.clock())) else {
        return;
    };
    let deadline = clock.instant() + Duration::from_secs(10);
    for device in devices {
        let within = deadline.saturating_duration_since(clock.instant());
        let published = || device.unpublished().is_empty();
        assert!(
            eventually(&*clock, within, Duration::from_millis(1), published),
            "{}'s publishes were not acknowledged",
            device.user()
        );
    }
}

/// Waits until `env` has gone quiet: no frame sent for [`QUIET`] of its
/// clock, no pool job queued or running and no lock held at `devices` —
/// for 10 s at most.
pub fn settle<'a>(env: &SydEnv, devices: impl IntoIterator<Item = &'a DeviceRuntime> + Clone) {
    let frames = env
        .transport()
        .metrics()
        .counter(names::TRANSPORT_FRAMES_OUT);
    let (clock, pool) = (&**env.clock(), env.runtime().pool().clone());
    let mut last = (frames.get(), clock.instant());
    let quiet = || {
        if frames.get() != last.0 {
            last = (frames.get(), clock.instant());
            return false;
        }
        let locked = (devices.clone().into_iter()).any(|d| d.store().locks().held_count() > 0);
        clock.instant() - last.1 >= QUIET && !locked && pool.is_quiet()
    };
    let within = Duration::from_secs(10);
    assert!(
        eventually(clock, within, QUIET, quiet),
        "the deployment never went quiet"
    );
}

/// How long a deployment sends no frame before [`settle`] calls it quiet.
pub const QUIET: Duration = Duration::from_millis(25);

/// User ids of a rig.
pub fn users_of(apps: &[Arc<CalendarApp>]) -> Vec<UserId> {
    apps.iter().map(|a| a.user()).collect()
}

/// Hands out fresh, never-reused calendar slots so every benchmark
/// iteration schedules into clean space.
#[derive(Default)]
pub struct SlotAlloc {
    next: AtomicU64,
}

impl SlotAlloc {
    /// Creates an allocator starting at day 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next unused slot.
    pub fn next(&self) -> TimeSlot {
        TimeSlot::from_ordinal(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// The slots of `[0, horizon)` that user number `user` of a rig has
/// filled with personal engagements at `density_pct` — the "calendar
/// density" axis of experiment E3. Deterministic, so a SyD rig and a
/// baseline rig can be filled alike.
pub fn prefilled(user: usize, horizon: u64, density_pct: u64) -> impl Iterator<Item = TimeSlot> {
    (0..horizon)
        .filter(move |ordinal| {
            // Cheap deterministic hash spread.
            let h = ordinal
                .wrapping_mul(2654435761)
                .wrapping_add(user as u64 * 97);
            h % 100 < density_pct
        })
        .map(TimeSlot::from_ordinal)
}

/// Marks each calendar's [`prefilled`] slots busy.
pub fn prefill_density(apps: &[Arc<CalendarApp>], horizon: u64, density_pct: u64) {
    for (i, app) in apps.iter().enumerate() {
        for slot in prefilled(i, horizon, density_pct) {
            app.mark_busy(slot).unwrap();
        }
    }
}
