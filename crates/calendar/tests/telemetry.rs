//! End-to-end telemetry: one meeting setup produces one trace that spans
//! every participant's journal, the negotiation counters and RPC
//! histograms tick, and a forced abort shows up in the postmortem dump
//! with its reason.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::Arc;

use syd_calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd_core::SydEnv;
use syd_net::NetConfig;
use syd_telemetry::names;
use syd_types::{TimeSlot, UserId};

fn rig(n: usize) -> (SydEnv, Vec<Arc<CalendarApp>>) {
    let env = SydEnv::new_insecure(NetConfig::ideal());
    let apps = (0..n)
        .map(|i| {
            let device = env.device(&format!("user{i}"), "").unwrap();
            CalendarApp::install(&device).unwrap()
        })
        .collect();
    (env, apps)
}

#[test]
fn one_trace_spans_all_participants_and_metrics_tick() {
    let (_env, apps) = rig(4);
    let slot = TimeSlot::new(3, 10);
    let attendees: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();
    // Registering the device was directory traffic; what `schedule` adds
    // is not.
    let rpc = apps[0].device().metrics().histogram(names::RPC_CALL);
    let rpcs_before = rpc.count();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("telemetry", slot, attendees))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // The initiator recorded the `calendar.schedule_op` span, which says
    // what the operation did; pull its trace.
    let ring = apps[0].device().node().tracer().ring();
    let span = std::iter::from_fn(|| ring.pop())
        .find(|s| s.kind == names::SPAN_SCHEDULE)
        .expect("schedule span recorded");
    let attr = |key: &str| span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    assert_eq!(attr("meeting"), Some(outcome.meeting.raw()));
    assert_eq!(attr("slot"), Some(slot.ordinal()));
    assert_eq!(attr("ok"), Some(1));
    assert_eq!(attr("status"), Some(u64::from(outcome.status.tag())));
    assert_eq!(attr("reserved"), Some(4));
    let trace = span.trace;
    assert_ne!(trace, 0, "schedule opened a root trace");

    // The same trace id appears in every participant's journal: the
    // negotiation marks/commits arrived with the propagated context.
    for app in &apps {
        assert!(
            app.device().journal().contains_trace(trace),
            "device {} journal lacks trace {trace:016x}:\n{}",
            app.user(),
            app.device().journal().dump()
        );
    }

    // Counters and histograms ticked on the initiator.
    let metrics = apps[0].device().metrics();
    let sessions = metrics
        .get_counter(names::NEGOTIATE_SESSIONS)
        .expect("negotiate.sessions registered");
    assert!(sessions.get() >= 1, "no negotiation sessions counted");
    // A mark and a commit to each of the three attendees, at the least:
    // `rpc.call` sees the engine's RPCs, not just the directory's.
    assert!(
        rpc.count() - rpcs_before >= 6,
        "schedule recorded {} rpc latencies",
        rpc.count() - rpcs_before
    );
    assert!(rpc.summary().p50 > 0, "rpc p50 should be positive");
    let schedule = metrics
        .get_histogram(names::CALENDAR_SCHEDULE)
        .expect("calendar.schedule registered");
    assert_eq!(schedule.count(), 1);

    // Participants served requests and journalled the state transitions.
    for app in &apps[1..] {
        let dump = app.device().journal().dump();
        assert!(dump.contains("lock"), "{dump}");
        assert!(dump.contains("vote=yes"), "{dump}");
        assert!(dump.contains("change"), "{dump}");
    }
}

#[test]
fn forced_abort_lands_in_journal_with_reason() {
    let (_env, apps) = rig(3);
    let slot = TimeSlot::new(4, 9);
    let attendees: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();
    let outcome = apps[0]
        .schedule(MeetingSpec::plain("movable", slot, attendees))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);

    // The move target is busy at one holder, so the negotiation-and over
    // the new slot fails and the yes-voters are aborted.
    let target = TimeSlot::new(4, 15);
    apps[2].mark_busy(target).unwrap();
    let moved = apps[0].request_change(outcome.meeting, target).unwrap();
    assert!(!moved, "change should fail against a busy holder");

    let dump = apps[0].device().journal().dump();
    assert!(
        dump.contains("reason=constraint-failed"),
        "coordinator journal lacks the abort reason:\n{dump}"
    );
    let aborts = apps[0]
        .device()
        .metrics()
        .get_counter(names::NEGOTIATE_ABORTS)
        .expect("negotiate.aborts registered");
    assert!(aborts.get() >= 1);

    // The jsonl export renders the same story for machines.
    let jsonl = apps[0].device().telemetry_jsonl();
    assert!(jsonl.contains("\"kind\":\"abort\""), "{jsonl}");
    assert!(jsonl.contains("constraint-failed"), "{jsonl}");
}

/// Serial rounds the initiator issued and requests its peers served for
/// one `schedule` and one `cancel` of an `n`-member meeting.
fn rounds_and_requests(n: usize) -> [(u64, u64); 2] {
    let (_env, apps) = rig(n);
    let rounds = || {
        apps[0]
            .device()
            .metrics()
            .get_counter(names::ENGINE_ROUNDS)
            .map_or(0, |c| c.get())
    };
    let served = || -> u64 {
        apps.iter()
            .filter_map(|a| a.device().metrics().get_counter(names::RPC_REQUESTS_SERVED))
            .map(|c| c.get())
            .sum()
    };
    let attendees: Vec<UserId> = apps[1..].iter().map(|a| a.user()).collect();

    let before = (rounds(), served());
    let outcome = apps[0]
        .schedule(MeetingSpec::plain(
            "rounds",
            TimeSlot::new(5, 10),
            attendees,
        ))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    let scheduled = (rounds(), served());
    apps[0].cancel(outcome.meeting).unwrap();
    let cancelled = (rounds(), served());
    [
        (scheduled.0 - before.0, scheduled.1 - before.1),
        (cancelled.0 - scheduled.0, cancelled.1 - scheduled.1),
    ]
}

#[test]
fn rounds_per_operation_do_not_grow_with_the_group() {
    let small = rounds_and_requests(4);
    let large = rounds_and_requests(16);
    for (op, (small, large)) in ["schedule", "cancel"].iter().zip(small.iter().zip(&large)) {
        assert!(small.0 > 0, "{op} issued no round");
        assert_eq!(
            small.0, large.0,
            "{op}: serial rounds must not depend on the group size"
        );
        assert!(
            large.1 >= 3 * small.1,
            "{op}: requests served should grow with the group ({} at n=4, {} at n=16)",
            small.1,
            large.1
        );
    }
}
