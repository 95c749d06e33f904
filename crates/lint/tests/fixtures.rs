//! Seeded-violation corpus: every rule must fire on its fixture —
//! exactly once, and only that rule.
//!
//! Fixture files live under `tests/fixtures/` (which the workspace
//! walker skips), but are presented to the analyzer under a `src/` path:
//! the rules deliberately exempt test-path code, and these fixtures
//! model production code.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_lint::analyze;
use syd_lint::config::Config;

fn run_fixture(name: &str) -> syd_lint::report::Report {
    let disk_path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&disk_path).unwrap_or_else(|e| panic!("reading {disk_path}: {e}"));
    let files = vec![(format!("crates/fixture/src/{name}"), src)];
    analyze(&files, &Config::default(), false)
}

fn assert_fires_once(name: &str, rule: &str) {
    let report = run_fixture(name);
    assert_eq!(
        report.diagnostics.len(),
        1,
        "{name} must produce exactly one diagnostic, got:\n{}",
        report.render_text()
    );
    assert_eq!(report.diagnostics[0].rule.name(), rule, "{name}");
    assert!(report.diagnostics[0].line > 1, "{name} has a real line");
}

#[test]
fn lock_order_fixture_fires_once() {
    assert_fires_once("lock_order.rs", "lock-order");
}

#[test]
fn guard_across_rpc_fixture_fires_once() {
    assert_fires_once("guard_across_rpc.rs", "guard-across-rpc");
}

#[test]
fn poll_block_fixture_fires_once() {
    assert_fires_once("poll_block.rs", "no-blocking-in-poll-loop");
}

#[test]
fn reactor_block_fixture_fires_once() {
    assert_fires_once("reactor_block.rs", "no-blocking-in-poll-loop");
}

#[test]
fn timer_block_fixture_fires_once() {
    assert_fires_once("timer_block.rs", "no-blocking-in-poll-loop");
}

#[test]
fn guard_across_dispatch_fixture_fires_once() {
    assert_fires_once("guard_across_dispatch.rs", "guard-across-rpc");
}

#[test]
fn counter_registry_fixture_fires_once() {
    assert_fires_once("counter_registry.rs", "counter-registry");
}

#[test]
fn span_registry_fixture_fires_once() {
    let report = run_fixture("span_registry.rs");
    assert_eq!(
        report.diagnostics.len(),
        1,
        "span_registry.rs must produce exactly one diagnostic, got:\n{}",
        report.render_text()
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "counter-registry");
    assert!(
        d.message.contains("span kind"),
        "span call sites get the span wording: {}",
        d.message
    );
}

#[test]
fn boundary_fixture_fires_once() {
    assert_fires_once("boundary.rs", "coordination-boundary");
}

#[test]
fn transitive_block_fixture_fires_once_with_full_chain() {
    let report = run_fixture("transitive_block.rs");
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "transitive-blocking");
    // The message carries every hop with file:line, down to the
    // blocking site itself.
    for hop in ["drain_backlog", "wait_for_event", "`.recv`"] {
        assert!(d.message.contains(hop), "missing hop {hop}: {}", d.message);
    }
    assert!(
        d.message
            .contains("crates/fixture/src/transitive_block.rs:"),
        "{}",
        d.message
    );
}

#[test]
fn wave_wait_fixture_fires_once_at_the_tick() {
    let report = run_fixture("wave_wait.rs");
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "transitive-blocking");
    assert_eq!(d.function.as_deref(), Some("expiry_tick"));
    for hop in ["call_many", "collect", "`answered.wait_timeout`"] {
        assert!(d.message.contains(hop), "missing hop {hop}: {}", d.message);
    }
}

#[test]
fn a_tick_reaching_the_real_call_many_is_flagged() {
    // The node's own source: `Node::call_many` must be a `Blocks` origin
    // through its collect loop, so a poll function that reaches it fires.
    let root = format!("{}/../net/src", env!("CARGO_MANIFEST_DIR"));
    let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).unwrap();
    let files = vec![
        ("crates/net/src/node.rs".to_string(), read("node.rs")),
        (
            "crates/core/src/ticker.rs".to_string(),
            "fn expiry_tick(node: &Node) { let _ = node.call_many(&calls, opts, &mut route); }"
                .to_string(),
        ),
    ];
    let report = analyze(&files, &Config::default(), false);
    let blocking: Vec<_> = (report.diagnostics.iter())
        .filter(|d| d.rule.name() == "transitive-blocking")
        .collect();
    assert_eq!(blocking.len(), 1, "{}", report.render_text());
    assert_eq!(blocking[0].function.as_deref(), Some("expiry_tick"));
    assert!(
        blocking[0].message.contains("collect")
            && blocking[0].message.contains("`answered.wait_timeout`"),
        "{}",
        blocking[0].message
    );
}

#[test]
fn guard_transitive_rpc_fixture_fires_once() {
    let report = run_fixture("guard_transitive_rpc.rs");
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "guard-across-rpc");
    assert!(
        d.message.contains("transitively") && d.message.contains("`.invoke`"),
        "{}",
        d.message
    );
    assert_eq!(d.function.as_deref(), Some("notify"));
}

#[test]
fn lock_chain_fixture_fires_once() {
    let report = run_fixture("lock_chain.rs");
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "lock-order");
    assert!(
        d.message.contains("call chain") && d.message.contains("count"),
        "{}",
        d.message
    );
}

#[test]
fn strong_capture_fixture_fires_once() {
    let report = run_fixture("strong_capture.rs");
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "strong-capture-cycle");
    assert!(
        d.message.contains("Arc<DeviceInner>") && d.message.contains("register_periodic"),
        "{}",
        d.message
    );
    assert_eq!(d.function.as_deref(), Some("register_periodic_tasks"));
}

#[test]
fn hierarchy_inversion_across_files_fires() {
    // Not a corpus file: the hierarchy check needs two declaring files
    // (lock ids are `file-stem.field`), so the pair is built inline.
    let files = vec![
        (
            "crates/store/src/lock.rs".to_string(),
            "pub struct LockManager { state: Mutex<Tables> }".to_string(),
        ),
        (
            "crates/core/src/engine.rs".to_string(),
            "struct SydEngine { cache: Mutex<u8> } \
             impl SydEngine { fn bad(&self, mgr: &LockManager) { \
                 let c = self.cache.lock(); \
                 let s = mgr.state.lock(); \
                 let _ = (c, s); } }"
                .to_string(),
        ),
    ];
    let report = analyze(&files, &Config::default(), false);
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "lock-order");
    assert!(
        d.message.contains("lock.state") && d.message.contains("engine.cache"),
        "{}",
        d.message
    );
}

#[test]
fn runtime_rank_sits_above_node_locks() {
    // The shared runtime's locks (rank 5) must never be held while
    // grabbing a node-layer lock — this is the self-deadlock the loop's
    // "drain outside its own lock" discipline prevents.
    let files = vec![
        (
            "crates/net/src/node.rs".to_string(),
            "pub struct NodeShared { pending: Mutex<u8> }".to_string(),
        ),
        (
            "crates/net/src/runtime.rs".to_string(),
            "struct Reactor { state: Mutex<u8> } \
             impl Reactor { fn bad(&self, node: &NodeShared) { \
                 let r = self.state.lock(); \
                 let p = node.pending.lock(); \
                 let _ = (r, p); } }"
                .to_string(),
        ),
    ];
    let report = analyze(&files, &Config::default(), false);
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "lock-order");
    assert!(
        d.message.contains("node.pending") && d.message.contains("runtime.state"),
        "{}",
        d.message
    );
}

#[test]
fn rank_inversion_through_call_chain_fires() {
    // Interprocedural hierarchy inversion: `engine.cache` (rank 2) held
    // while a cross-file helper acquires `lock.state` (rank 1). No single
    // function shows both acquisitions.
    let files = vec![
        (
            "crates/store/src/lock.rs".to_string(),
            "pub struct LockManager { state: Mutex<Tables> } \
             pub fn checkout(mgr: &LockManager) { let s = mgr.state.lock(); let _ = s; }"
                .to_string(),
        ),
        (
            "crates/core/src/engine.rs".to_string(),
            "struct SydEngine { cache: Mutex<u8> } \
             impl SydEngine { fn bad(&self, mgr: &LockManager) { \
                 let c = self.cache.lock(); \
                 lock::checkout(mgr); \
                 drop(c); } }"
                .to_string(),
        ),
    ];
    let report = analyze(&files, &Config::default(), false);
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.name(), "lock-order");
    assert!(
        d.message.contains("lock.state")
            && d.message.contains("engine.cache")
            && d.message.contains("call chain")
            && d.message.contains("checkout"),
        "{}",
        d.message
    );
}

#[test]
fn fixtures_are_rule_pure() {
    // No fixture may trip any *other* rule — one seeded defect per file.
    for (name, rule) in [
        ("lock_order.rs", "lock-order"),
        ("guard_across_rpc.rs", "guard-across-rpc"),
        ("poll_block.rs", "no-blocking-in-poll-loop"),
        ("reactor_block.rs", "no-blocking-in-poll-loop"),
        ("timer_block.rs", "no-blocking-in-poll-loop"),
        ("guard_across_dispatch.rs", "guard-across-rpc"),
        ("counter_registry.rs", "counter-registry"),
        ("span_registry.rs", "counter-registry"),
        ("boundary.rs", "coordination-boundary"),
        ("transitive_block.rs", "transitive-blocking"),
        ("wave_wait.rs", "transitive-blocking"),
        ("guard_transitive_rpc.rs", "guard-across-rpc"),
        ("lock_chain.rs", "lock-order"),
        ("strong_capture.rs", "strong-capture-cycle"),
    ] {
        let report = run_fixture(name);
        for d in &report.diagnostics {
            assert_eq!(
                d.rule.name(),
                rule,
                "{name} leaked a {} finding",
                d.rule.name()
            );
        }
    }
}
