//! Shared rigs for the benchmark suite and the experiment harness.
//!
//! Every benchmark builds deployments the same way so numbers are
//! comparable across experiments: an ideal (lossless, zero-latency)
//! network unless the experiment is explicitly about transport effects,
//! authentication off unless the experiment is about §5.4.

// Measurement harness, not middleware: a rig that cannot build has no
// meaningful numbers to report, so panicking on setup is the contract.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod json;
pub mod stress;
pub mod timing;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_calendar::CalendarApp;
use syd_core::{DeviceRuntime, SydEnv};
use syd_net::NetConfig;
use syd_types::{TimeSlot, UserId};

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

/// Waits, for 10 s at most, until the directory has acknowledged every
/// publish of `devices`. An application's install publishes in a pool
/// job off the caller's path, so a traffic count taken right after it
/// may or may not include that wave.
pub fn await_publishes<'a>(devices: impl IntoIterator<Item = &'a DeviceRuntime>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for device in devices {
        while !device.unpublished().is_empty() {
            assert!(
                Instant::now() < deadline,
                "{}'s publishes were not acknowledged",
                device.user()
            );
            syd_types::sync::sleep(Duration::from_millis(1));
        }
    }
}

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

/// Pre-fills a fraction of each calendar's slots in `[0, horizon)` with
/// personal engagements, deterministically per user — the "calendar
/// density" axis of experiment E3.
pub fn prefill_density(apps: &[Arc<CalendarApp>], horizon: u64, density_pct: u64) {
    for (i, app) in apps.iter().enumerate() {
        for ordinal in 0..horizon {
            // Cheap deterministic hash spread.
            let h = ordinal.wrapping_mul(2654435761).wrapping_add(i as u64 * 97);
            if h % 100 < density_pct {
                let _ = app.mark_busy(TimeSlot::from_ordinal(ordinal));
            }
        }
    }
}
