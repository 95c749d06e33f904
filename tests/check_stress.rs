//! The protocol invariant checker against the real system at scale:
//! hundreds of seeded concurrent negotiations on lossy / partitioning
//! networks must leave every §4.3 invariant intact, and a deliberately
//! planted defect must be caught and pinpointed.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd::check::Rule;
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd_bench::stress::{
    inject_double_commit, inject_lock_leak, run, Fault, StressConfig, INJECTED_SESSION,
};

/// ≥200 concurrent negotiations under message loss *and* partition
/// churn: once the leases left behind are ended, the audit must be
/// spotless. No journal may have evicted events (that turns the
/// ordering checks off), and under 3 % loss requests are sent again:
/// `rpc_retries == 0` means the counters lost sight of the engine's
/// traffic. In a debug build every lock-order and wait check is on, and
/// one that fires panics its thread: no thread may have panicked.
#[test]
fn two_hundred_sessions_under_loss_and_partition_audit_clean() {
    let outcome = run(&StressConfig {
        sessions: 200,
        loss: 0.03,
        partition: true,
        seed: 2003,
        ..StressConfig::default()
    });
    assert!(
        outcome.completed + outcome.errors >= 200,
        "driver lost sessions: {outcome:?}"
    );
    assert!(
        outcome.satisfied > 0,
        "nothing ever satisfied — the mix is not exercising commits"
    );
    assert!(!outcome.report.truncated, "a journal evicted events");
    assert!(outcome.rpc_retries > 0, "no retry counted: {outcome:?}");
    assert_eq!(outcome.panics, 0, "a thread panicked: {outcome:?}");
    outcome.report.assert_clean();
}

/// Different seed, heavier loss, no partitions — seeds must not matter
/// to the verdict, only to the mix.
#[test]
fn stress_audit_is_clean_across_seeds() {
    for seed in [7, 99] {
        let outcome = run(&StressConfig {
            sessions: 60,
            loss: 0.05,
            partition: false,
            seed,
            ..StressConfig::default()
        });
        assert!(outcome.report.ok(), "seed {seed}:\n{}", outcome.report);
    }
}

/// A planted lock leak is caught, attributed to its session, and comes
/// with the journal excerpt that proves it.
#[test]
fn injected_lock_leak_is_caught_with_session_and_excerpt() {
    let outcome = run(&StressConfig {
        sessions: 30,
        loss: 0.0,
        partition: false,
        seed: 5,
        inject: Some(Fault::LockLeak),
        ..StressConfig::default()
    });
    let leak = outcome
        .report
        .violations
        .iter()
        .find(|v| v.rule == Rule::LockLeak)
        .unwrap_or_else(|| panic!("leak not reported:\n{}", outcome.report));
    assert_eq!(leak.session, Some(INJECTED_SESSION));
    assert!(
        !leak.excerpt.is_empty(),
        "violation carries no journal excerpt: {leak}"
    );
    assert!(
        leak.excerpt
            .iter()
            .any(|line| line.contains("slot:injected")),
        "excerpt does not show the leaked entity: {:?}",
        leak.excerpt
    );
}

/// A forged double-commit is likewise caught and attributed.
#[test]
fn injected_double_commit_is_caught_with_session_and_excerpt() {
    let outcome = run(&StressConfig {
        sessions: 30,
        loss: 0.0,
        partition: false,
        seed: 6,
        inject: Some(Fault::DoubleCommit),
        ..StressConfig::default()
    });
    let dbl = outcome
        .report
        .violations
        .iter()
        .find(|v| v.rule == Rule::DoubleBook)
        .unwrap_or_else(|| panic!("double-book not reported:\n{}", outcome.report));
    assert_eq!(dbl.session, Some(INJECTED_SESSION));
    assert!(!dbl.excerpt.is_empty());
}

/// The injection helpers also work against a bare deployment (no stress
/// traffic), so postmortem tooling can be exercised in isolation.
#[test]
fn injection_on_quiet_device_is_the_only_violation() {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let dev = env.device("quiet", "").unwrap();
    inject_lock_leak(&dev);
    let report = syd::check::audit([&dev]);
    assert_eq!(report.violations.len(), 1, "{report}");
    assert_eq!(report.violations[0].rule, Rule::LockLeak);

    let env = SydEnv::new_insecure(NetConfig::ideal());
    let dev = env.device("quiet2", "").unwrap();
    inject_double_commit(&dev);
    let report = syd::check::audit([&dev]);
    assert!(
        report.violations.iter().any(|v| v.rule == Rule::DoubleBook),
        "{report}"
    );
}
