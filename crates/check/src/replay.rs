//! Replays device journals against the §4.3 / §4.2 state machines.
//!
//! Each device journal is an ordered story of what its kernel services
//! did: entity locks taken, votes cast, changes applied, aborts
//! processed — plus, on coordinators, the negotiation spans themselves.
//! The replay walks that story and checks:
//!
//! * **ordering** — per `(session, entity)`: lock before vote, change
//!   only while holding the lock, nothing after the story closes;
//! * **mutual exclusion / double-book** — at most one session holds an
//!   entity at a time, and a change is applied only by the holder;
//! * **constraint arithmetic** — a session that ends `satisfied=true`
//!   committed a set meeting its constraint (and = all, or ≥ k,
//!   xor = exactly k);
//! * **lock leaks** (strict) — every lock story is closed by a change,
//!   an abort, or the stale-session sweep by the end of the journal.
//!
//! Aborts without a preceding lock are *legal*: the coordinator aborts
//! broadly (including decliners) to clean up lost-message locks, so the
//! replay never flags them. Journals are bounded rings; when the oldest
//! retained event is not sequence 0, the early story is gone and
//! ordering checks are suppressed for that journal.

use std::collections::{BTreeMap, BTreeSet};

use syd_telemetry::{Event, JournalEvent, Vote};
use syd_types::Constraint;

use crate::event::holds;
use crate::report::{render, session_excerpt, AuditReport, Rule, Violation};

/// Tunables for an audit pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct AuditOptions {
    /// Strict mode adds checks that only hold once the system quiesced on
    /// a reliable network: every lock story closed at journal end, abort
    /// never following commit, and no link halves left behind by a
    /// cascade delete. Leave off for lossy/partitioned runs, where a lost
    /// commit legitimately leaves a lock to the stale-session sweep.
    pub strict: bool,
}

impl AuditOptions {
    /// Strict options (see [`AuditOptions::strict`]).
    pub fn strict() -> AuditOptions {
        AuditOptions { strict: true }
    }
}

/// How far a `(session, entity)` story has progressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Locked,
    Committed,
    Aborted,
}

/// What one journal's replay learned, for correlation with live state.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReplaySummary {
    /// Ring truncation was detected; ordering checks were suppressed.
    pub truncated: bool,
    /// `(session, entity)` stories still holding their lock at journal end.
    pub open: BTreeSet<(u64, String)>,
    /// Stories closed by a change or an abort.
    pub closed: BTreeSet<(u64, String)>,
    /// Correlation ids whose links were cascade-deleted here.
    pub cascaded: BTreeSet<String>,
    /// Every negotiation session id mentioned.
    pub sessions: BTreeSet<u64>,
}

/// Replays one device's journal, appending violations to `report` and
/// returning the summary used by the live-state checks.
pub(crate) fn replay_device(
    device: &str,
    events: &[JournalEvent],
    opts: &AuditOptions,
    report: &mut AuditReport,
) -> ReplaySummary {
    let mut summary = ReplaySummary {
        truncated: events.first().is_some_and(|e| e.seq != 0),
        ..ReplaySummary::default()
    };
    report.events += events.len();
    report.truncated |= summary.truncated;

    // Entity -> session currently holding its lock, per this journal.
    let mut holder: BTreeMap<String, u64> = BTreeMap::new();
    // (session, entity) -> story phase.
    let mut phase: BTreeMap<(u64, String), Phase> = BTreeMap::new();
    // Coordinator side: session -> (constraint, participants).
    let mut begun: BTreeMap<u64, (Constraint, u32)> = BTreeMap::new();

    let violate = |report: &mut AuditReport, rule, session: Option<u64>, message: String| {
        let excerpt = match session {
            Some(s) => session_excerpt(events, s, 12),
            None => Vec::new(),
        };
        report.violations.push(Violation {
            device: device.to_owned(),
            session,
            rule,
            message,
            excerpt,
        });
    };

    for event in events {
        summary.sessions.extend(event.event.session());
        match &event.event {
            Event::Lock { session, entity } => {
                if !summary.truncated {
                    if let Some(&other) = holder.get(entity) {
                        if other != *session {
                            violate(
                                report,
                                Rule::DoubleBook,
                                Some(*session),
                                format!(
                                    "entity `{entity}` locked while session {other} still \
                                     holds it (at {})",
                                    render(event)
                                ),
                            );
                        } else if opts.strict {
                            // Same-session re-lock: on a lossy network a
                            // retried `mark` is delivered twice (the RPC
                            // layer is at-least-once) and the re-entrant
                            // lock absorbs it, so only strict mode flags it.
                            violate(
                                report,
                                Rule::Ordering,
                                Some(*session),
                                format!("entity `{entity}` locked twice without release"),
                            );
                        }
                    }
                }
                holder.insert(entity.clone(), *session);
                phase.insert((*session, entity.clone()), Phase::Locked);
            }
            Event::Vote {
                session,
                entity,
                vote,
            } => {
                let key = (*session, entity.clone());
                match vote {
                    Vote::Yes => {
                        if !summary.truncated && phase.get(&key) != Some(&Phase::Locked) {
                            violate(
                                report,
                                Rule::Ordering,
                                Some(*session),
                                format!("vote=yes on `{entity}` without holding its lock"),
                            );
                        }
                    }
                    // The lock was never taken; nothing to release.
                    Vote::LockBusy => {
                        if !summary.truncated && holder.get(entity) == Some(session) {
                            violate(
                                report,
                                Rule::Ordering,
                                Some(*session),
                                format!("vote=no reason=lock-busy on `{entity}` while holding it"),
                            );
                        }
                    }
                    // Prepare failed after locking: the lock is released.
                    Vote::Refused(_) => {
                        if !summary.truncated && phase.get(&key) != Some(&Phase::Locked) {
                            violate(
                                report,
                                Rule::Ordering,
                                Some(*session),
                                format!("vote=no (prepare) on `{entity}` without holding its lock"),
                            );
                        }
                        if holder.get(entity) == Some(session) {
                            holder.remove(entity);
                        }
                        phase.insert(key, Phase::Aborted);
                    }
                }
            }
            Event::Commit {
                session, entity, ..
            } => {
                let key = (*session, entity.clone());
                if !summary.truncated {
                    match phase.get(&key) {
                        // A session re-committing its own entity is a
                        // duplicate delivery (commits are idempotent and
                        // retried after a lost response), so only strict
                        // mode treats it as a double-book.
                        Some(Phase::Committed) if opts.strict => violate(
                            report,
                            Rule::DoubleBook,
                            Some(*session),
                            format!("entity `{entity}` committed twice by one session"),
                        ),
                        Some(Phase::Committed) => {}
                        _ if holder.get(entity) != Some(session) => violate(
                            report,
                            Rule::DoubleBook,
                            Some(*session),
                            format!(
                                "change applied to `{entity}` without holding its lock \
                                 (holder: {})",
                                holder
                                    .get(entity)
                                    .map_or("nobody".to_owned(), |h| format!("session {h}"))
                            ),
                        ),
                        _ => {}
                    }
                }
                if holder.get(entity) == Some(session) {
                    holder.remove(entity);
                }
                phase.insert(key, Phase::Committed);
            }
            Event::Release {
                session, entity, ..
            } => {
                let key = (*session, entity.clone());
                // An abort without a lock is legal: coordinators abort
                // broadly to clean up lost-message locks.
                if opts.strict && !summary.truncated && phase.get(&key) == Some(&Phase::Committed) {
                    violate(
                        report,
                        Rule::Ordering,
                        Some(*session),
                        format!("abort of `{entity}` after its change was committed"),
                    );
                }
                if holder.get(entity) == Some(session) {
                    holder.remove(entity);
                }
                if phase.get(&key) != Some(&Phase::Committed) {
                    phase.insert(key, Phase::Aborted);
                }
            }
            Event::Begin {
                session,
                constraint,
                participants,
            } => {
                begun.insert(*session, (*constraint, *participants));
            }
            Event::Tally {
                session,
                yes,
                declined,
                contended,
            } => {
                if let Some((_, participants)) = begun.get(session) {
                    // `contended` is the transient-conflict *subset* of
                    // `declined`, so the conservation law is yes+declined.
                    if u64::from(*yes) + u64::from(*declined) != u64::from(*participants)
                        || contended > declined
                    {
                        violate(
                            report,
                            Rule::Constraint,
                            Some(*session),
                            format!(
                                "mark tally yes={yes} declined={declined} \
                                 contended={contended} does not cover \
                                 {participants} participants"
                            ),
                        );
                    }
                }
            }
            Event::End {
                session,
                satisfied,
                committed,
                aborted,
                declined,
            } => {
                if let Some(&(constraint, participants)) = begun.get(session) {
                    if *satisfied && !holds(constraint, *committed, participants) {
                        violate(
                            report,
                            Rule::Constraint,
                            Some(*session),
                            format!(
                                "satisfied session committed {committed}/{participants}, \
                                 violating {constraint:?}"
                            ),
                        );
                    }
                    if u64::from(*committed) + u64::from(*aborted) + u64::from(*declined)
                        > u64::from(participants)
                    {
                        violate(
                            report,
                            Rule::Constraint,
                            Some(*session),
                            format!(
                                "outcome counts {committed}+{aborted}+{declined} exceed \
                                 {participants} participants"
                            ),
                        );
                    }
                }
            }
            Event::LinkDeleted { corr, cascade, .. } => {
                if *cascade {
                    summary.cascaded.insert(corr.clone());
                }
            }
            Event::Committed { .. }
            | Event::AbortUser { .. }
            | Event::Promoted { .. }
            | Event::Note { .. } => {}
        }
    }

    for (key, p) in &phase {
        match p {
            Phase::Locked => {
                summary.open.insert(key.clone());
            }
            Phase::Committed | Phase::Aborted => {
                summary.closed.insert(key.clone());
            }
        }
    }

    if opts.strict && !summary.truncated {
        for (session, entity) in &summary.open {
            violate(
                report,
                Rule::LockLeak,
                Some(*session),
                format!(
                    "lock story for `{entity}` never closed: no change, abort, or sweep \
                     by end of journal"
                ),
            );
        }
    }

    summary
}

/// Audits a set of named journals with no live state to correlate
/// against. This is what the synthetic-journal oracle tests and offline
/// postmortem tooling use; [`crate::audit`] layers live-state checks on
/// top of this replay.
pub fn audit_journals(
    journals: &[(String, Vec<JournalEvent>)],
    opts: &AuditOptions,
) -> AuditReport {
    let mut report = AuditReport::default();
    let mut all_sessions = BTreeSet::new();
    for (device, events) in journals {
        let summary = replay_device(device, events, opts, &mut report);
        all_sessions.extend(summary.sessions);
    }
    report.sessions = all_sessions.len();
    report.normalize();
    report
}
