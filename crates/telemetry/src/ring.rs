//! What a device's [`Journal`] keeps beside its events, and how it keeps
//! both kinds.
//!
//! A journal holds two bounded rings under its one lock: the typed
//! events the auditor replays, and the finished [`SpanRecord`]s that
//! time the same operations until a collector drains them. Both follow
//! one policy: a ring reserves room for one record at its first push and
//! for all of its capacity at its second, and a full ring evicts its own
//! oldest record. An idle device, which records one
//! span when it joins, holds one record; an active one reserves each
//! ring once, in set-up.
//!
//! Logs that belong to a device ([`Journal::open`]) self-register in a
//! process registry, as weak refs, so `Collector::drain_global` and
//! `syd::obs::snapshot` find every live log without plumbing.

use crate::journal::Journal;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock, Weak};
use syd_types::sync::{Mutex, Rank};

/// One finished span, as recorded on the device that observed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// End-to-end operation id (same across every hop of the trace).
    pub trace: u64,
    /// This span's id. RPC client and server record under the same id.
    pub span: u64,
    /// Parent span id; 0 means "root or parent unknown".
    pub parent: u64,
    /// Kind string from [`crate::names`] (`SPAN_*`).
    pub kind: &'static str,
    /// Device that recorded this view of the span.
    pub device: u64,
    /// Start, µs on the process-wide monotonic clock.
    pub start_us: u64,
    /// End, µs on the process-wide monotonic clock.
    pub end_us: u64,
    /// Numeric key/value attributes (participant count, retry count…).
    pub attrs: Attrs,
}

/// A span's attributes: one is held inline, so the RPC spans (`ok`,
/// `hop`) record without allocating; two or more live in a `Vec`.
/// Dereferences to the slice of `(key, value)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Attrs {
    /// No attribute, or one.
    Inline(Option<(&'static str, u64)>),
    /// Two or more.
    Heap(Vec<(&'static str, u64)>),
}

impl Default for Attrs {
    fn default() -> Self {
        Attrs::Inline(None)
    }
}

impl Attrs {
    /// Appends one attribute; the second moves both to the heap.
    pub fn push(&mut self, attr: (&'static str, u64)) {
        match self {
            Attrs::Inline(None) => *self = Attrs::Inline(Some(attr)),
            Attrs::Inline(Some(first)) => *self = Attrs::Heap(vec![*first, attr]),
            Attrs::Heap(attrs) => attrs.push(attr),
        }
    }
}

impl std::ops::Deref for Attrs {
    type Target = [(&'static str, u64)];
    fn deref(&self) -> &Self::Target {
        match self {
            Attrs::Inline(attr) => attr.as_slice(),
            Attrs::Heap(attrs) => attrs,
        }
    }
}

impl From<&[(&'static str, u64)]> for Attrs {
    fn from(attrs: &[(&'static str, u64)]) -> Self {
        match attrs {
            [] => Attrs::Inline(None),
            [one] => Attrs::Inline(Some(*one)),
            many => Attrs::Heap(many.to_vec()),
        }
    }
}

/// Appends `rec` to a ring of at most `capacity` records; returns true
/// when that evicted the oldest. The first push reserves one record, the
/// second the whole capacity, and eviction never reallocates.
pub(crate) fn push<T>(ring: &mut VecDeque<T>, capacity: usize, rec: T) -> bool {
    let evicted = ring.len() >= capacity;
    if evicted {
        ring.pop_front();
    } else if ring.len() == ring.capacity() {
        let len = ring.len();
        let total = if len == 0 { 1 } else { capacity };
        ring.reserve_exact(total - len);
    }
    ring.push_back(rec);
    evicted
}

/// Counters describing one log, for live snapshots.
#[derive(Clone, Debug, Default)]
pub struct LogStats {
    /// Log label (who owns it).
    pub label: String,
    /// Device id the log records for.
    pub device: u64,
    /// Events ever recorded.
    pub events: u64,
    /// Events evicted: the auditor can no longer see them.
    pub evicted: u64,
    /// Spans ever recorded.
    pub spans: u64,
    /// Spans evicted before a drain.
    pub dropped: u64,
    /// Spans currently buffered and awaiting a collector drain.
    pub buffered: usize,
}

fn registry() -> &'static Mutex<Vec<Weak<Journal>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<Journal>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Rank::Leaf, Vec::new()))
}

/// Adds a device's log to the registry.
pub(crate) fn register(log: &Arc<Journal>) {
    let mut reg = registry().lock();
    if reg.len() == reg.capacity() {
        // A dead entry still holds its log's allocation. Prune before the
        // registry grows, then keep at least half of it free: the next
        // prune is half a registry of logs away (amortised O(1)).
        reg.retain(|w| w.strong_count() > 0);
        let live = reg.len();
        reg.reserve(live);
    }
    reg.push(Arc::downgrade(log));
}

/// Every live device log in the process (dead weak refs are pruned).
pub fn live_logs() -> Vec<Arc<Journal>> {
    let mut reg = registry().lock();
    reg.retain(|w| w.strong_count() > 0);
    reg.iter().filter_map(Weak::upgrade).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::journal::Event;

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span: id,
            parent: 0,
            kind: crate::names::SPAN_RECONCILE,
            device: 0,
            start_us: 0,
            end_us: 0,
            attrs: Attrs::default(),
        }
    }

    fn drained(log: &Journal) -> Vec<u64> {
        log.drain_spans().iter().map(|r| r.span).collect()
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = Journal::new(2);
        for id in 0..5 {
            log.push_span(span(id));
        }
        let stats = log.stats();
        assert_eq!((stats.spans, stats.dropped, stats.buffered), (5, 3, 2));

        // One push into a full ring costs exactly the oldest record.
        assert_eq!(drained(&log), [3, 4]);
        for id in 5..8 {
            log.push_span(span(id));
        }
        assert_eq!(log.stats().dropped, 4);
        assert_eq!(drained(&log), [6, 7]);
        // Events keep a horizon of their own: none was recorded or lost.
        assert_eq!((log.stats().events, log.stats().evicted), (0, 0));
    }

    #[test]
    fn a_ring_reserves_one_record_then_its_capacity() {
        let log = Journal::new(8);
        let reserved = || {
            let inner = log.inner.lock();
            (inner.events.capacity(), inner.spans.capacity())
        };
        assert_eq!(reserved(), (0, 0), "a new log holds no record");
        log.push_span(span(0));
        assert_eq!(reserved(), (0, 1), "the first span reserves one record");
        log.push_span(span(1));
        assert_eq!(reserved(), (0, 8), "the second reserves the capacity");
        log.emit(Event::lock(7, "slot:1"));
        assert_eq!(reserved(), (1, 8), "events follow the same policy");
        log.emit(Event::lock(8, "slot:2"));
        assert_eq!(reserved(), (8, 8));
        for id in 2..8 {
            log.push_span(span(id));
        }
        assert_eq!((log.stats().buffered, log.stats().dropped), (8, 0));

        // Full: the next span evicts the oldest and counts it, in place.
        log.push_span(span(8));
        assert_eq!((log.stats().buffered, log.stats().dropped), (8, 1));
        assert_eq!(reserved(), (8, 8), "eviction does not reallocate");
        assert!(!drained(&log).contains(&0));
    }

    #[test]
    fn attrs_hold_one_inline_and_more_on_the_heap() {
        let mut attrs = Attrs::default();
        assert!(attrs.is_empty());
        attrs.push(("ok", 1));
        assert_eq!(attrs, Attrs::Inline(Some(("ok", 1))));
        attrs.push(("hop", 2));
        attrs.push(("n", 3));
        assert_eq!(attrs[..], [("ok", 1), ("hop", 2), ("n", 3)]);
        assert_eq!(Attrs::from(&attrs[..]), attrs);
        assert_eq!(Attrs::from(&attrs[..1]), Attrs::Inline(Some(("ok", 1))));
    }

    #[test]
    fn dropped_rings_leave_the_registry_without_a_drain() {
        // Nothing calls `live_logs` here: the registry must shed dead
        // entries on its own, or it keeps each log's allocation.
        for device in 0..10_000 {
            drop(Journal::open("churned-log", device));
        }
        let held = registry().lock().capacity();
        assert!(held < 1_000, "the registry has room for {held} logs");
    }

    #[test]
    fn registry_reports_live_rings_only() {
        let log = Journal::open("live-log-test", 1234);
        let listed = || {
            live_logs()
                .iter()
                .filter(|log| log.label() == "live-log-test")
                .count()
        };
        assert_eq!(listed(), 1);
        drop(log);
        assert_eq!(listed(), 0);
    }
}
