//! QoS support services (§2, §3.2).
//!
//! The paper assigns the middleware responsibility for quality of service:
//! the groupware provides "QoS support services for SyDApps" and "the
//! SyDMW is also responsible for QoS issues as required by the SyDApps"
//! (the mechanism is elaborated in the companion paper \[4\], *Supporting
//! QoS-Aware Transaction in the Middleware for SyD*). This module provides
//! the two services a QoS-aware SyDApp needs:
//!
//! * **Observation** — [`QosMonitor`] keeps per-`(user, service)` latency
//!   and failure statistics (EWMA latency, success rate, worst case), fed
//!   by [`QosMonitor::observe`]. Applications or the engine call it around
//!   invocations.
//! * **Admission control** — [`QosMonitor::admit`] answers "can this
//!   target plausibly meet this deadline?" from the observed EWMA, so a
//!   QoS-aware transaction can fail fast (or pick another replica/proxy)
//!   instead of burning its budget on a target that has been slow all day.

use std::collections::HashMap;
use std::time::Duration;

use syd_types::sync::RwLock;
use syd_types::{ServiceName, SydError, SydResult, UserId};

/// Statistics for one `(user, service)` target.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetStats {
    /// Completed observations.
    pub calls: u64,
    /// Failed observations.
    pub failures: u64,
    /// Exponentially weighted moving average latency.
    pub ewma: Duration,
    /// Worst observed latency.
    pub worst: Duration,
}

impl TargetStats {
    fn new() -> Self {
        TargetStats {
            calls: 0,
            failures: 0,
            ewma: Duration::ZERO,
            worst: Duration::ZERO,
        }
    }

    /// Success ratio in `[0, 1]`; `1.0` when nothing was observed yet.
    pub fn success_rate(&self) -> f64 {
        if self.calls == 0 {
            1.0
        } else {
            1.0 - self.failures as f64 / self.calls as f64
        }
    }
}

/// EWMA smoothing factor (weight of the newest sample).
const ALPHA: f64 = 0.2;

/// Per-deployment QoS statistics and admission control.
#[derive(Default)]
pub struct QosMonitor {
    stats: RwLock<HashMap<(UserId, String), TargetStats>>,
}

impl QosMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed invocation.
    pub fn observe(&self, user: UserId, service: &ServiceName, latency: Duration, ok: bool) {
        let mut stats = self.stats.write();
        let entry = stats
            .entry((user, service.as_str().to_owned()))
            .or_insert_with(TargetStats::new);
        entry.calls += 1;
        if !ok {
            entry.failures += 1;
        }
        entry.worst = entry.worst.max(latency);
        entry.ewma = if entry.calls == 1 {
            latency
        } else {
            let blended = entry.ewma.as_secs_f64() * (1.0 - ALPHA) + latency.as_secs_f64() * ALPHA;
            Duration::from_secs_f64(blended)
        };
    }

    /// Statistics for one target, if observed.
    pub fn stats_for(&self, user: UserId, service: &ServiceName) -> Option<TargetStats> {
        self.stats
            .read()
            .get(&(user, service.as_str().to_owned()))
            .cloned()
    }

    /// All observed targets, sorted by EWMA (slowest first) — the
    /// "QoS dashboard" view.
    pub fn report(&self) -> Vec<(UserId, String, TargetStats)> {
        let mut out: Vec<(UserId, String, TargetStats)> = self
            .stats
            .read()
            .iter()
            .map(|((user, service), stats)| (*user, service.clone(), stats.clone()))
            .collect();
        out.sort_by_key(|entry| std::cmp::Reverse(entry.2.ewma));
        out
    }

    /// Admission control: succeeds iff the target's EWMA (with a 2×
    /// safety margin) fits in `deadline`. Unobserved targets are admitted
    /// optimistically — there is nothing to hold against them yet.
    pub fn admit(&self, user: UserId, service: &ServiceName, deadline: Duration) -> SydResult<()> {
        match self.stats_for(user, service) {
            None => Ok(()),
            Some(stats) => {
                let projected = stats.ewma * 2;
                if projected <= deadline {
                    Ok(())
                } else {
                    Err(SydError::App(format!(
                        "QoS admission refused: {user}/{service} EWMA {:?} cannot meet deadline {:?}",
                        stats.ewma, deadline
                    )))
                }
            }
        }
    }

    /// Forgets a target's history (e.g. after it moved to a new device).
    pub fn reset(&self, user: UserId, service: &ServiceName) {
        self.stats
            .write()
            .remove(&(user, service.as_str().to_owned()));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn svc() -> ServiceName {
        ServiceName::new("calendar")
    }

    #[test]
    fn observations_accumulate() {
        let qos = QosMonitor::new();
        let user = UserId::new(1);
        qos.observe(user, &svc(), Duration::from_millis(10), true);
        qos.observe(user, &svc(), Duration::from_millis(20), false);
        let stats = qos.stats_for(user, &svc()).unwrap();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.worst, Duration::from_millis(20));
        assert!((stats.success_rate() - 0.5).abs() < 1e-9);
        // EWMA between the two samples, closer to the first.
        assert!(stats.ewma > Duration::from_millis(10));
        assert!(stats.ewma < Duration::from_millis(20));
    }

    #[test]
    fn ewma_converges_to_new_regime() {
        let qos = QosMonitor::new();
        let user = UserId::new(1);
        for _ in 0..5 {
            qos.observe(user, &svc(), Duration::from_millis(5), true);
        }
        for _ in 0..60 {
            qos.observe(user, &svc(), Duration::from_millis(50), true);
        }
        let stats = qos.stats_for(user, &svc()).unwrap();
        assert!(
            stats.ewma > Duration::from_millis(45),
            "EWMA should track the new regime, got {:?}",
            stats.ewma
        );
    }

    #[test]
    fn admission_control() {
        let qos = QosMonitor::new();
        let user = UserId::new(1);
        // Unknown targets admitted.
        qos.admit(user, &svc(), Duration::from_millis(1)).unwrap();
        for _ in 0..10 {
            qos.observe(user, &svc(), Duration::from_millis(30), true);
        }
        // 2×30ms > 40ms → refused.
        assert!(qos.admit(user, &svc(), Duration::from_millis(40)).is_err());
        // 2×30ms < 100ms → admitted.
        qos.admit(user, &svc(), Duration::from_millis(100)).unwrap();
        // History can be reset.
        qos.reset(user, &svc());
        qos.admit(user, &svc(), Duration::from_millis(1)).unwrap();
    }

    #[test]
    fn report_sorts_slowest_first() {
        let qos = QosMonitor::new();
        qos.observe(UserId::new(1), &svc(), Duration::from_millis(5), true);
        qos.observe(UserId::new(2), &svc(), Duration::from_millis(50), true);
        qos.observe(UserId::new(3), &svc(), Duration::from_millis(20), true);
        let report = qos.report();
        let order: Vec<u64> = report.iter().map(|(u, _, _)| u.raw()).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn targets_are_independent() {
        let qos = QosMonitor::new();
        let mail = ServiceName::new("mailbox");
        qos.observe(UserId::new(1), &svc(), Duration::from_millis(5), true);
        qos.observe(UserId::new(1), &mail, Duration::from_millis(99), false);
        assert_eq!(qos.stats_for(UserId::new(1), &svc()).unwrap().failures, 0);
        assert_eq!(qos.stats_for(UserId::new(1), &mail).unwrap().failures, 1);
    }
}
