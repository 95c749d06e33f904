//! Fleet-scale runtime tests: device churn must not leak threads, and a
//! fleet must stay within the shared runtime's fixed thread budget.
//!
//! These assertions read `/proc/self/task` directly — the point of the
//! shared runtime is the *process-level* thread count, so that is what
//! gets measured, not any internal counter.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::time::{Duration, Instant};

use syd_core::SydEnv;
use syd_net::NetConfig;

/// Both tests in this binary read the process-wide thread count; running
/// them concurrently would let each observe the other's fleet.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, Iterator::count)
}

/// Names of this process's threads that start with `syd-`.
fn syd_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task").map_or_else(
        |_| Vec::new(),
        |tasks| {
            tasks
                .flatten()
                .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
                .map(|name| name.trim_end().to_owned())
                .filter(|name| name.starts_with("syd-"))
                .collect()
        },
    )
}

/// Waits until `os_threads()` drops to `limit` or the deadline passes,
/// returning the final count (worker keep-alive retirement takes up to
/// ~500 ms after load stops).
fn settle_below(limit: usize, deadline: Duration) -> usize {
    let until = Instant::now() + deadline;
    loop {
        let now = os_threads();
        if now <= limit || Instant::now() >= until {
            return now;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn device_churn_does_not_leak_threads() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let env = SydEnv::new_insecure(NetConfig::ideal());
    // Hold a runtime handle so churn rounds reuse one runtime instead of
    // re-creating its loop thread between rounds (which would make the
    // baseline noisy).
    let runtime = env.runtime();
    runtime.set_scoped_metrics(true);

    // Round 0 establishes the baseline *after* the runtime, directory
    // and initial pool workers exist.
    let mut baseline = 0;
    for round in 0..3 {
        let devices: Vec<_> = (0..200)
            .map(|i| env.device(&format!("churn-{round}-{i}"), "").unwrap())
            .collect();
        // Touch the network so the fleet is live, not just constructed.
        devices[0]
            .engine()
            .invoke(
                devices[199].user(),
                &syd_types::ServiceName::new("syd.ping"),
                "ping",
                vec![],
            )
            .unwrap();
        for device in &devices {
            device.shutdown();
        }
        drop(devices);
        // Round 0: settle to the idle floor (loop + retained worker +
        // harness) and take it as the baseline.
        let settled = settle_below(
            if round == 0 { 16 } else { baseline },
            Duration::from_secs(10),
        );
        if round == 0 {
            baseline = settled;
        } else {
            // Spawning and dropping 200 devices twice more must return
            // to the round-0 floor (small slack for a racing keep-alive
            // worker or watchdog overflow thread mid-retirement).
            assert!(
                settled <= baseline + 3,
                "thread leak after churn round {round}: {settled} > baseline {baseline}"
            );
        }
    }
    // Only the deployment's directory server should remain registered.
    assert_eq!(runtime.nodes(), 1, "devices left registered on the reactor");
}

#[test]
fn dropping_fleet_without_shutdown_releases_runtime() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let baseline = settle_below(8, Duration::from_secs(5));
    {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        env.runtime().set_scoped_metrics(true);
        let devices: Vec<_> = (0..50)
            .map(|i| env.device(&format!("drop-{i}"), "").unwrap())
            .collect();
        devices[0]
            .engine()
            .invoke(
                devices[49].user(),
                &syd_types::ServiceName::new("syd.ping"),
                "ping",
                vec![],
            )
            .unwrap();
        // No shutdown() calls: everything — devices, directory, env —
        // just drops. The periodic tasks must not pin the devices (and
        // through them the loop and worker threads) alive.
    }
    let settled = settle_below(baseline + 1, Duration::from_secs(10));
    assert!(
        settled <= baseline + 1,
        "runtime leaked after plain drop: {settled} threads vs baseline {baseline}"
    );
}

#[test]
fn fleet_thread_budget_holds_at_scale() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let runtime = env.runtime();
    runtime.set_scoped_metrics(true);
    let devices: Vec<_> = (0..300)
        .map(|i| env.device(&format!("budget-{i}"), "").unwrap())
        .collect();
    // A meeting-sized exchange across the fleet edge.
    devices[0]
        .engine()
        .invoke(
            devices[299].user(),
            &syd_types::ServiceName::new("syd.ping"),
            "ping",
            vec![],
        )
        .unwrap();
    // 300 devices, yet the process stays within the fixed budget:
    // workers (soft-capped) + one loop + main + test-harness slack.
    let threads = os_threads();
    assert!(
        threads <= 64,
        "shared runtime exceeded its thread budget: {threads} OS threads for 300 devices"
    );
    // And the runtime's threads are its loop and its pool workers: no
    // timer thread, no sim router. (A previous test's runtime may still
    // be retiring its loop.)
    let loops = |names: &[String]| names.iter().filter(|n| *n == "syd-loop-sim").count();
    let until = Instant::now() + Duration::from_secs(5);
    let mut names = syd_threads();
    while loops(&names) > 1 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(20));
        names = syd_threads();
    }
    assert_eq!(loops(&names), 1, "{names:?}");
    assert!(
        names
            .iter()
            .all(|name| name == "syd-loop-sim" || name.starts_with("syd-rt-sim-w")),
        "a sim fleet runs a thread besides its loop and workers: {names:?}"
    );
    for device in &devices {
        device.shutdown();
    }
}
