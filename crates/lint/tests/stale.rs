//! Integration tests for `stale-suppression`: allowlist entries that have
//! expired (past their `expires` date) or that no longer match any
//! diagnostic must themselves be flagged, so the allowlist cannot rot.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_lint::analyze;
use syd_lint::config::Config;

/// A minimal source that trips `no-blocking-in-poll-loop` once.
fn blocking_poll_file() -> (String, String) {
    (
        "crates/net/src/poll.rs".to_string(),
        "fn reactor_loop(d: Duration) { loop { thread::sleep(d); } }".to_string(),
    )
}

fn config_with_allow(expires: Option<&str>) -> Config {
    let expiry_line = match expires {
        Some(d) => format!("expires = \"{d}\"\n"),
        None => String::new(),
    };
    let toml = format!(
        "[[allow]]\n\
         rule = \"no-blocking-in-poll-loop\"\n\
         file = \"crates/net/src/poll.rs\"\n\
         reason = \"handshake helper, runs before the reactor starts\"\n\
         {expiry_line}"
    );
    Config::from_toml(&toml).expect("allow toml parses")
}

#[test]
fn unexpired_allow_suppresses_and_is_not_stale() {
    let mut config = config_with_allow(Some("2099-01-01"));
    config.today = Some("2026-08-08".to_string());
    let report = analyze(&[blocking_poll_file()], &config, true);
    assert!(
        report.diagnostics.is_empty(),
        "future-dated allow must still suppress:\n{}",
        report.render_text()
    );
}

#[test]
fn expired_allow_resurfaces_diagnostic_and_flags_itself() {
    let mut config = config_with_allow(Some("2026-01-01"));
    config.today = Some("2026-08-08".to_string());
    let report = analyze(&[blocking_poll_file()], &config, true);
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.name()).collect();
    // Both the underlying violation and the rotten allow entry surface.
    assert!(
        rules.contains(&"no-blocking-in-poll-loop"),
        "suppressed diagnostic must come back: {rules:?}"
    );
    assert!(
        rules.contains(&"stale-suppression"),
        "expired allow must be flagged: {rules:?}"
    );
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render_text());
    let stale = report
        .diagnostics
        .iter()
        .find(|d| d.rule.name() == "stale-suppression")
        .unwrap();
    assert!(
        stale.file == "lint.toml" && stale.message.contains("2026-01-01"),
        "stale finding points at the config entry: {} {}",
        stale.file,
        stale.message
    );
}

#[test]
fn unused_allow_is_flagged_in_workspace_mode_only() {
    // The allow matches nothing: the analyzed file is clean.
    let config = config_with_allow(None);
    let clean = (
        "crates/net/src/poll.rs".to_string(),
        "fn helper() { let x = 1; let _ = x; }".to_string(),
    );

    let per_file = analyze(std::slice::from_ref(&clean), &config, false);
    assert!(
        per_file.diagnostics.is_empty(),
        "single-file runs see a partial workspace — unused allows are not\
         decidable there:\n{}",
        per_file.render_text()
    );

    let workspace = analyze(&[clean], &config, true);
    assert_eq!(
        workspace.diagnostics.len(),
        1,
        "{}",
        workspace.render_text()
    );
    let d = &workspace.diagnostics[0];
    assert_eq!(d.rule.name(), "stale-suppression");
    assert!(d.message.contains("no longer matches"), "{}", d.message);
}

#[test]
fn used_allow_is_not_flagged_as_unused() {
    let config = config_with_allow(None);
    let report = analyze(&[blocking_poll_file()], &config, true);
    assert!(
        report.diagnostics.is_empty(),
        "a matching allow suppresses and is not stale:\n{}",
        report.render_text()
    );
}

#[test]
fn allow_without_today_never_expires() {
    // `today` unset (library callers): expiry is not evaluated, the
    // allow keeps suppressing.
    let config = config_with_allow(Some("2000-01-01"));
    assert!(config.today.is_none());
    let report = analyze(&[blocking_poll_file()], &config, true);
    assert!(
        report.diagnostics.is_empty(),
        "without a reference date expiry must not trigger:\n{}",
        report.render_text()
    );
}
