//! Snapshot-based audit: the live-state checks of [`crate::audit_with`]
//! over plain data instead of [`syd_core::DeviceRuntime`] handles.
//!
//! A [`DeviceState`] is everything the auditor needs to know about one
//! device — its journal plus the lock table, link database, and
//! waiting-link queue reduced to plain records. The live audit snapshots
//! each runtime into this form and delegates here; the [`crate::model`]
//! exhaustive model checker builds the same snapshots from abstract
//! model states, so both paths are judged by literally the same oracle.

use std::collections::BTreeSet;

use syd_telemetry::JournalEvent;
use syd_types::Text;

use crate::replay::{self, AuditOptions};
use crate::report::{session_excerpt, AuditReport, Rule, Violation};

/// One held entity lock: `session` owns the lock on `entity`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeldLock {
    /// The owning negotiation session.
    pub session: u64,
    /// The locked entity (e.g. `"slot:4:14"`).
    pub entity: Text,
}

/// One row of the link database, reduced to what the audit checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkRecord {
    /// Local link id.
    pub id: u64,
    /// True while the link is tentative (queued behind another).
    pub tentative: bool,
    /// Correlation id shared by the link's cross-device halves.
    pub corr: Text,
}

/// One row of the waiting-link queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitingRecord {
    /// The tentative link that is waiting.
    pub link: u64,
    /// The link it waits on.
    pub waits_on: u64,
}

/// Everything the auditor sees of one device.
#[derive(Clone, Debug, Default)]
pub struct DeviceState {
    /// Device name (journals and violations are attributed to it).
    pub device: String,
    /// The device's postmortem journal, oldest first.
    pub journal: Vec<JournalEvent>,
    /// Entity locks currently held.
    pub locks: Vec<HeldLock>,
    /// The link database.
    pub links: Vec<LinkRecord>,
    /// The waiting-link queue.
    pub waiting: Vec<WaitingRecord>,
}

/// Audits device snapshots: replays every journal through
/// [`crate::replay`], then correlates the stories with each snapshot's
/// lock table, waiting-link queue, and link database exactly as
/// [`crate::audit_with`] does for live devices.
pub fn audit_states(devices: &[DeviceState], opts: &AuditOptions) -> AuditReport {
    let mut report = AuditReport::default();
    let mut all_sessions = BTreeSet::new();
    let mut cascaded: BTreeSet<Text> = BTreeSet::new();

    for device in devices {
        let summary = replay::replay_device(&device.device, &device.journal, opts, &mut report);

        // Lock-leak detector: a lock still held although its journal
        // story closed can never be released — commit and abort both
        // release before returning, so a held lock with a closed story
        // means the release was lost inside the device. In strict mode
        // any held lock is a failure (the run quiesced first).
        for lock in &device.locks {
            let story = (lock.session, lock.entity.clone());
            let closed_story = !summary.truncated
                && summary.closed.contains(&story)
                && !summary.open.contains(&story);
            if opts.strict || closed_story {
                report.violations.push(Violation {
                    device: device.device.clone(),
                    session: Some(lock.session),
                    rule: Rule::LockLeak,
                    message: if closed_story {
                        format!(
                            "lock on `{}` still held although its session story closed",
                            lock.entity
                        )
                    } else {
                        format!("lock on `{}` still held after quiesce", lock.entity)
                    },
                    excerpt: session_excerpt(&device.journal, lock.session, 12),
                });
            }
        }

        // Waiting-queue audit (§4.2 op. 3): every waiter exists exactly
        // once, is still tentative, and waits on a link that exists.
        let ids: BTreeSet<u64> = device.links.iter().map(|l| l.id).collect();
        let mut seen = BTreeSet::new();
        for entry in &device.waiting {
            if !seen.insert(entry.link) {
                report.violations.push(waiting_violation(
                    device,
                    format!("link link-{} queued twice in the waiting table", entry.link),
                ));
            }
            if !ids.contains(&entry.link) {
                report.violations.push(waiting_violation(
                    device,
                    format!("waiting entry references deleted link link-{}", entry.link),
                ));
            } else if let Some(link) = device.links.iter().find(|l| l.id == entry.link) {
                if !link.tentative {
                    report.violations.push(waiting_violation(
                        device,
                        format!(
                            "link link-{} is permanent but still queued as a waiter",
                            entry.link
                        ),
                    ));
                }
            }
            if !ids.contains(&entry.waits_on) {
                report.violations.push(waiting_violation(
                    device,
                    format!(
                        "link link-{} waits on deleted link link-{} — promotion lost it",
                        entry.link, entry.waits_on
                    ),
                ));
            }
        }

        cascaded.extend(summary.cascaded.iter().cloned());
        all_sessions.extend(summary.sessions);
    }

    // Cascade-delete completeness (strict): once any device cascade-
    // deleted a correlation group, no device may still hold a link of
    // that group. On lossy networks an unreachable peer legitimately
    // keeps its half until expiry, so this is strict-only.
    if opts.strict {
        for corr in &cascaded {
            for device in devices {
                let left: Vec<String> = device
                    .links
                    .iter()
                    .filter(|l| &l.corr == corr)
                    .map(|l| format!("link-{}", l.id))
                    .collect();
                if !left.is_empty() {
                    report.violations.push(Violation {
                        device: device.device.clone(),
                        session: None,
                        rule: Rule::Cascade,
                        message: format!(
                            "cascade delete of corr `{corr}` left {} link(s) behind: {}",
                            left.len(),
                            left.join(", ")
                        ),
                        excerpt: Vec::new(),
                    });
                }
            }
        }
    }

    report.sessions = all_sessions.len();
    report.normalize();
    report
}

fn waiting_violation(device: &DeviceState, message: String) -> Violation {
    Violation {
        device: device.device.clone(),
        session: None,
        rule: Rule::Waiting,
        message,
        excerpt: Vec::new(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_telemetry::{Event, Vote};

    fn ev(seq: u64, event: Event) -> JournalEvent {
        JournalEvent {
            seq,
            at_micros: seq * 10,
            trace: 0,
            span: 0,
            event,
        }
    }

    fn lock(seq: u64) -> JournalEvent {
        ev(seq, Event::lock(9, "e"))
    }

    fn commit(seq: u64) -> JournalEvent {
        ev(seq, Event::commit(9, "e", true))
    }

    #[test]
    fn clean_snapshot_audits_clean() {
        let state = DeviceState {
            device: "dev1".into(),
            journal: vec![lock(0), ev(1, Event::vote(9, "e", Vote::Yes)), commit(2)],
            ..DeviceState::default()
        };
        let report = audit_states(&[state], &AuditOptions::strict());
        assert!(report.ok(), "{report}");
        assert_eq!(report.sessions, 1);
    }

    #[test]
    fn held_lock_with_closed_story_is_a_leak() {
        let state = DeviceState {
            device: "dev1".into(),
            journal: vec![lock(0), commit(1)],
            locks: vec![HeldLock {
                session: 9,
                entity: "e".into(),
            }],
            ..DeviceState::default()
        };
        let report = audit_states(&[state], &AuditOptions::default());
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].rule, Rule::LockLeak);
    }

    #[test]
    fn waiter_on_deleted_link_is_flagged() {
        let state = DeviceState {
            device: "dev1".into(),
            links: vec![LinkRecord {
                id: 2,
                tentative: true,
                corr: "c".into(),
            }],
            waiting: vec![WaitingRecord {
                link: 2,
                waits_on: 1,
            }],
            ..DeviceState::default()
        };
        let report = audit_states(&[state], &AuditOptions::default());
        assert_eq!(report.violations.len(), 1, "{report}");
        assert_eq!(report.violations[0].rule, Rule::Waiting);
    }

    #[test]
    fn strict_cascade_flags_leftover_halves() {
        let deleter = DeviceState {
            device: "dev1".into(),
            journal: vec![ev(
                0,
                Event::LinkDeleted {
                    id: 1,
                    corr: "c".into(),
                    cascade: true,
                },
            )],
            ..DeviceState::default()
        };
        let laggard = DeviceState {
            device: "dev2".into(),
            links: vec![LinkRecord {
                id: 7,
                tentative: false,
                corr: "c".into(),
            }],
            ..DeviceState::default()
        };
        let strict = audit_states(&[deleter.clone(), laggard.clone()], &AuditOptions::strict());
        assert_eq!(strict.violations.len(), 1, "{strict}");
        assert_eq!(strict.violations[0].rule, Rule::Cascade);
        // Lossy-tolerant mode lets the unreachable peer keep its half.
        let lossy = audit_states(&[deleter, laggard], &AuditOptions::default());
        assert!(lossy.ok(), "{lossy}");
    }
}
