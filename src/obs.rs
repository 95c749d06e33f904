//! One-shot observability snapshot — a `sydtop`-style view of every
//! live device log in the process.
//!
//! Each SyD node (and each transport backend) opens one
//! [`syd_telemetry::Journal`] when it boots, holding its journal events
//! and its finished spans; [`snapshot`] walks the registry of those logs
//! and returns per-log counters of both kinds plus process totals. The
//! [`Snapshot`] renders as an aligned text table, which is what
//! `sydd --stats` prints at shutdown:
//!
//! ```text
//! LOG                  DEVICE  EVENTS  EVICTED  SPANS  DROPPED  BUFFERED
//! node1                     1      12        0     42        0        42
//! transport-tcp-40533     max       0        0     17        0        17
//! TOTAL                            12        0     59        0        59
//! ```
//!
//! `EVICTED` counts events a full journal pushed out: a device whose
//! count is not 0 can no longer show the auditor its whole story.
//! The snapshot is read-only: it does not drain the logs, so a
//! [`syd_trace::Collector`] can still assemble the buffered spans
//! afterwards.

use std::fmt;

use syd_telemetry::ring::live_logs;
use syd_telemetry::LogStats;

/// Point-in-time view of all live device logs in this process.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-log counters, in registration order.
    pub logs: Vec<LogStats>,
}

impl Snapshot {
    /// Every log's counters summed, labelled `TOTAL`.
    #[must_use]
    pub fn total(&self) -> LogStats {
        let mut total = LogStats {
            label: "TOTAL".to_owned(),
            ..LogStats::default()
        };
        for l in &self.logs {
            total.events += l.events;
            total.evicted += l.evicted;
            total.spans += l.spans;
            total.dropped += l.dropped;
            total.buffered += l.buffered;
        }
        total
    }
}

/// One row of the table, `w` wide in its label column.
fn row(f: &mut fmt::Formatter<'_>, l: &LogStats, device: &str, w: usize) -> fmt::Result {
    let LogStats {
        label,
        events,
        evicted,
        spans,
        dropped,
        buffered,
        ..
    } = l;
    write!(
        f,
        "{label:<w$}  {device:>6}  {events:>6}  {evicted:>7}  {spans:>5}  {dropped:>7}  {buffered:>8}"
    )
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self
            .logs
            .iter()
            .map(|l| l.label.len())
            .max()
            .unwrap_or(0)
            .max(5);
        writeln!(
            f,
            "{:<w$}  DEVICE  EVENTS  EVICTED  SPANS  DROPPED  BUFFERED",
            "LOG"
        )?;
        for l in &self.logs {
            // Transport logs use sentinel device ids near u64::MAX;
            // render those as "max"/"max-1" style markers instead of
            // twenty-digit numbers.
            let device = match u64::MAX - l.device {
                0 => "max".to_owned(),
                back @ 1..=8 => format!("max-{back}"),
                _ => l.device.to_string(),
            };
            row(f, l, &device, w)?;
            writeln!(f)?;
        }
        row(f, &self.total(), "", w)
    }
}

/// Capture a one-shot snapshot of every live device log.
///
/// Logs whose owners have been dropped are pruned from the registry
/// lazily, so a long-lived process only ever sees its live nodes here.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        logs: live_logs().iter().map(|log| log.stats()).collect(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_telemetry::{EventKind, Journal};

    #[test]
    fn snapshot_renders_table_with_totals() {
        let tracer = syd_trace::Tracer::new("obs-test-ring", 7);
        drop(tracer.span(syd_telemetry::names::SPAN_SCHEDULE));
        let snap = snapshot();
        assert!(snap.total().spans >= 1);
        let text = snap.to_string();
        assert!(text.starts_with("LOG"));
        assert!(text.contains("obs-test-ring"));
        assert!(text.trim_end().lines().last().unwrap().starts_with("TOTAL"));
    }

    /// A journal that evicts events shows on its own row, beside its
    /// spans.
    #[test]
    fn an_evicting_journal_shows_in_its_row() {
        let log = Journal::open("obs-test-evicting", 8);
        for _ in 0..syd_telemetry::journal::DEFAULT_JOURNAL_CAPACITY + 3 {
            log.record(EventKind::Info, "filler");
        }
        let snap = snapshot();
        let row = snap
            .logs
            .iter()
            .find(|l| l.label == "obs-test-evicting")
            .unwrap();
        assert_eq!((row.events, row.evicted, row.spans), (4099, 3, 0));
        assert!(snap.total().evicted >= 3);
        let line = snap
            .to_string()
            .lines()
            .find(|l| l.starts_with("obs-test-evicting"))
            .unwrap()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(line, "obs-test-evicting 8 4099 3 0 0 0");
    }
}
