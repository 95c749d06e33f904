//! Acceptance: a 32-member schedule-meeting negotiation assembles into
//! a *complete* cross-device span tree — every `rpc.client` span has a
//! matching server-side view — and the critical-path analyzer's phase
//! attribution sums to within 10% of the measured end-to-end wall time.
//!
//! This is the full stack: calendar op span → negotiation phase spans →
//! RPC client/server spans → transport queueing spans, drained from
//! every ring in the process and assembled by trace id.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

mod support;

use std::time::Instant;

use support::{calendar_rig, env_ideal, users_of};
use syd::trace::{attribute, AssemblyMode, Collector};
use syd_calendar::{MeetingSpec, MeetingStatus};
use syd_telemetry::names;
use syd_types::SlotRange;

#[test]
fn thirty_two_member_schedule_assembles_complete_attributed_tree() {
    const MEMBERS: usize = 32;
    let env = env_ideal();
    let apps = calendar_rig(&env, MEMBERS);
    let users = users_of(&apps);

    // Clear spans left over from rig construction so the collector only
    // sees the operation under test.
    Collector::new(AssemblyMode::Lossy).drain_global();

    let slot = *apps[0]
        .find_common_slots(&users, SlotRange::days(1, 28))
        .expect("find slot")
        .first()
        .expect("a common slot exists");
    // Only the schedule call itself is timed: its root span is the
    // yardstick the attribution must add back up to.
    Collector::new(AssemblyMode::Lossy).drain_global();
    let started = Instant::now();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("all-hands", slot, users.clone()))
        .expect("schedule");
    let measured_us = started.elapsed().as_micros() as u64;
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    let mut collector = Collector::new(AssemblyMode::Strict);
    collector.drain_global();
    let schedule_traces: Vec<u64> = collector
        .trace_ids()
        .into_iter()
        .filter(|&t| {
            collector
                .assemble(t)
                .is_ok_and(|tree| tree.op() == names::SPAN_SCHEDULE)
        })
        .collect();
    assert_eq!(
        schedule_traces.len(),
        1,
        "exactly one schedule-op trace: {:?}",
        collector.trace_ids()
    );

    // Strict assembly: any missing record (lost server view, orphan,
    // missing parent) would be an error, not a silent hole.
    let tree = collector
        .assemble(schedule_traces[0])
        .expect("strict assembly of a lossless run succeeds");
    assert!(tree.complete);
    assert!(tree.anomalies.is_empty(), "{:?}", tree.anomalies);

    // Every RPC client span carries its matching server-side view, and
    // the negotiation rounds are present with correct parentage.
    let clients = tree.find_kind(names::SPAN_RPC_CLIENT);
    assert!(
        clients.len() >= MEMBERS,
        "a 32-member negotiation makes at least one RPC per member, got {}",
        clients.len()
    );
    for idx in clients {
        assert!(
            tree.nodes[idx].server.is_some(),
            "client span {:016x} lost its server view",
            tree.nodes[idx].span
        );
    }
    let root_span = tree.nodes[tree.root].span;
    let reconcile = tree.find_kind(names::SPAN_RECONCILE);
    assert_eq!(reconcile.len(), 1, "one reconcile pass per schedule");
    assert_eq!(
        tree.nodes[reconcile[0]].parent, root_span,
        "reconcile hangs directly under the schedule op"
    );
    let reconcile_span = tree.nodes[reconcile[0]].span;
    for kind in [names::SPAN_MARK_ROUND, names::SPAN_COMMIT_ROUND] {
        let found = tree.find_kind(kind);
        assert_eq!(found.len(), 1, "one {kind} per negotiation");
        assert_eq!(
            tree.nodes[found[0]].parent, reconcile_span,
            "{kind} hangs under the reconcile pass"
        );
    }

    // Critical-path attribution: buckets are exhaustive and exclusive,
    // so they must reconstruct the root wall time — and the root wall
    // time must agree with the externally measured latency within 10%.
    let att = attribute(&tree);
    assert!(att.complete);
    assert_eq!(
        att.sum_us(),
        att.total_us,
        "phase buckets partition the total exactly"
    );
    let drift = att.total_us.abs_diff(measured_us) as f64;
    assert!(
        drift <= 0.10 * measured_us as f64,
        "attributed total {}us vs measured {}us drifts more than 10%",
        att.total_us,
        measured_us
    );
    // The dominant protocol phases actually got charged.
    assert!(att.phase_us("mark_round") > 0);
    assert!(att.phase_us("commit_round") > 0);
}
