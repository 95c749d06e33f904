//! Network traffic counters.
//!
//! The baseline-vs-SyD experiment (E1 in DESIGN.md) compares *messages and
//! bytes exchanged* between the coordination-link protocol and the
//! "current practice" calendar, so the network keeps cheap atomic counters
//! on every path a message can take.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by the sim network. All loads/stores are
/// `Relaxed`: the counters are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct NetStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    bytes_sent: AtomicU64,
    dropped_loss: AtomicU64,
    dropped_partition: AtomicU64,
    dropped_disconnected: AtomicU64,
    dropped_unreachable: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Messages accepted from endpoints.
    pub sent: u64,
    /// Messages handed to a destination endpoint.
    pub delivered: u64,
    /// Total encoded bytes accepted for transmission.
    pub bytes_sent: u64,
    /// Messages dropped by the random-loss model.
    pub dropped_loss: u64,
    /// Messages dropped because src and dst were partitioned.
    pub dropped_partition: u64,
    /// Messages dropped because the destination was disconnected.
    pub dropped_disconnected: u64,
    /// Messages dropped because the destination never registered.
    pub dropped_unreachable: u64,
}

impl StatsSnapshot {
    /// All drops combined.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_loss
            + self.dropped_partition
            + self.dropped_disconnected
            + self.dropped_unreachable
    }
}

impl NetStats {
    pub(crate) fn on_sent(&self, bytes: usize) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn on_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_dropped_loss(&self) {
        self.dropped_loss.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_dropped_partition(&self) {
        self.dropped_partition.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_dropped_disconnected(&self) {
        self.dropped_disconnected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_dropped_unreachable(&self) {
        self.dropped_unreachable.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            dropped_loss: self.dropped_loss.load(Ordering::Relaxed),
            dropped_partition: self.dropped_partition.load(Ordering::Relaxed),
            dropped_disconnected: self.dropped_disconnected.load(Ordering::Relaxed),
            dropped_unreachable: self.dropped_unreachable.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Traffic between two snapshots (`later - self`), for scoping a
    /// measurement to one operation.
    pub fn delta(&self, later: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            sent: later.sent - self.sent,
            delivered: later.delivered - self.delivered,
            bytes_sent: later.bytes_sent - self.bytes_sent,
            dropped_loss: later.dropped_loss - self.dropped_loss,
            dropped_partition: later.dropped_partition - self.dropped_partition,
            dropped_disconnected: later.dropped_disconnected - self.dropped_disconnected,
            dropped_unreachable: later.dropped_unreachable - self.dropped_unreachable,
        }
    }

    /// Traffic since an earlier snapshot (`self - earlier`) — the same
    /// arithmetic as [`StatsSnapshot::delta`] but reading naturally at
    /// the call site: `net.stats().since(&before)`.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        earlier.delta(self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = NetStats::default();
        stats.on_sent(100);
        stats.on_sent(50);
        stats.on_delivered();
        stats.on_dropped_loss();
        stats.on_dropped_partition();
        stats.on_dropped_disconnected();
        stats.on_dropped_unreachable();
        let s = stats.snapshot();
        assert_eq!(s.sent, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped_total(), 4);
    }

    #[test]
    fn delta_scopes_a_measurement() {
        let stats = NetStats::default();
        stats.on_sent(10);
        let before = stats.snapshot();
        stats.on_sent(20);
        stats.on_delivered();
        let after = stats.snapshot();
        let d = before.delta(&after);
        assert_eq!(d.sent, 1);
        assert_eq!(d.bytes_sent, 20);
        assert_eq!(d.delivered, 1);
        // `since` is the same delta, phrased from the later snapshot.
        assert_eq!(after.since(&before), d);
    }
}
