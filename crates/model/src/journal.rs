//! Synthetic per-device journals built while replaying a model schedule.
//!
//! The model checker judges terminal states with `syd-check`, and
//! `syd-check` reads [`JournalEvent`] streams — so every transition that
//! the real runtime would journal is recorded here as the same
//! [`Event`] value the runtime builds. A [`JournalSet`] holds one journal
//! per abstract device plus a global logical clock, so a schedule always
//! produces a byte-identical event stream (sequence numbers and
//! timestamps are derived from the schedule, never from wall time).

use syd_telemetry::{Event, JournalEvent};

/// One growable journal per abstract device.
///
/// During state-space exploration the checker only needs successor
/// *states*, so [`JournalSet::muted`] gives a sink that discards records;
/// when a terminal state is audited (or a counterexample re-emitted) the
/// schedule is replayed once more against a recording set.
#[derive(Clone, Debug)]
pub struct JournalSet {
    devices: Vec<(String, Vec<JournalEvent>)>,
    /// Logical clock shared by every device, so the merged timeline of a
    /// schedule is totally ordered and deterministic.
    clock: u64,
    muted: bool,
}

impl JournalSet {
    /// A recording set with one empty journal per device name.
    pub fn recording(names: &[String]) -> JournalSet {
        JournalSet {
            devices: names
                .iter()
                .map(|name| (name.clone(), Vec::new()))
                .collect(),
            clock: 0,
            muted: false,
        }
    }

    /// A sink that ignores every record — used while exploring, where
    /// only the abstract states matter.
    pub fn muted() -> JournalSet {
        JournalSet {
            devices: Vec::new(),
            clock: 0,
            muted: true,
        }
    }

    /// Appends one event to `device`'s journal, stamping the per-device
    /// sequence number and the global logical clock.
    pub fn record(&mut self, device: usize, event: Event) {
        if self.muted {
            return;
        }
        self.clock += 1;
        let journal = &mut self.devices[device].1;
        journal.push(JournalEvent {
            seq: journal.len() as u64,
            at_micros: self.clock,
            trace: 0,
            span: 0,
            event,
        });
    }

    /// The recorded journals, in device order.
    pub fn into_journals(self) -> Vec<(String, Vec<JournalEvent>)> {
        self.devices
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn records_are_sequenced_and_clocked() {
        let names = vec!["dev0".to_owned(), "dev1".to_owned()];
        let mut set = JournalSet::recording(&names);
        set.record(1, Event::lock(1, "e"));
        set.record(0, Event::lock(2, "e"));
        set.record(1, Event::lock(3, "e"));
        let journals = set.into_journals();
        assert_eq!(journals[0].1.len(), 1);
        assert_eq!(journals[1].1.len(), 2);
        // Per-device sequence numbers start at 0 (the replay treats a
        // nonzero first seq as ring truncation).
        assert_eq!(journals[1].1[0].seq, 0);
        assert_eq!(journals[1].1[1].seq, 1);
        // The logical clock is global and strictly increasing.
        assert_eq!(journals[1].1[0].at_micros, 1);
        assert_eq!(journals[0].1[0].at_micros, 2);
        assert_eq!(journals[1].1[1].at_micros, 3);
    }

    #[test]
    fn muted_set_discards_everything() {
        let mut set = JournalSet::muted();
        set.record(7, Event::lock(1, "e"));
        assert!(set.into_journals().is_empty());
    }
}
