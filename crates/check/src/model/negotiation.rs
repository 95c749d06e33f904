//! Abstract model of the §4.3 negotiation protocol: `n` devices, each
//! owning one entity, running `s` concurrent negotiation sessions over
//! all of them under bounded message loss, duplicate delivery,
//! coordinator crash and lock-lease lapse.
//!
//! The protocol is **not** re-implemented here: both halves of it are the
//! pure values the runtime itself runs. Each session's coordinator is one
//! [`fsm::Round`], which says what is out, tallies, decides, gives an
//! unanswered commit its second chance and closes with the outcome,
//! journaling the coordinator's records; each entity is one
//! [`fsm::Entry`], whose transitions with [`fsm::Vote::on_mark`] are the
//! participant. Every participant step journals the [`Event`] that
//! `crates/core/src/device.rs` journals for it, so the `syd-check` oracle
//! sees the same event language either way. The model adds only what the
//! network does — a call delivered, its request or its reply lost, or a
//! delivery duplicated — the fault budgets, and the planted mutations.
//!
//! ## Abstraction
//!
//! Session `k` is coordinated by device `k % n` (session id
//! [`fsm::session_id`] of user `k % n + 1` and counter `k + 1`) and marks
//! every entity `e0..e{n-1}`; entity `ei` lives on device `i`, owned by
//! user `i+1`. Devices have no entity handler, so prepare always succeeds
//! — the modelled declines are lock conflicts and lost messages, which is
//! where all the §4.3 concurrency lives. Where the runtime sends a round's
//! wave as one batch, the model delivers, loses or duplicates each of its
//! calls on its own, in every order. Marks and commits run inside every
//! lease, and a lease lapse, at an instant past every lease end, is drawn
//! from the crash budget: to its participant, a coordinator too slow for
//! its lease has crashed. Fault budgets are part of the state, so the
//! explorer covers every placement of every budgeted fault.

use crate::{DeviceState, HeldLock};
use syd_core::device::LOCK_LEASE;
use syd_core::negotiate::fsm::{self, Entry, Verb, PAST_EVERY_LEASE};
use syd_core::Constraint;
use syd_telemetry::{Event, JournalEvent, Vote};
use syd_types::{RequestId, SydError, SydResult, Timestamp, UserId, Value};

use super::explore::Model;
use super::journal::JournalSet;

/// Protocol mutations: each plants one specific bug the
/// oracle must catch, closing the loop between checker and model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegotiationInject {
    /// The first delivered commit also applies a change for a session
    /// that holds no lock — `syd_check::Rule::DoubleBook`.
    DoubleCommit,
    /// The first yes-voting device journals its lock acquisition twice
    /// without a release — `syd_check::Rule::Ordering` (strict).
    DoubleLock,
    /// The first delivered commit forgets to journal or release its lock,
    /// and keeps it past every lease end — `syd_check::Rule::LockLeak`.
    LockLeak,
    /// Session 0's coordinator misreports its outcome as satisfied with
    /// one commit short — `syd_check::Rule::Constraint`.
    BadArithmetic,
    /// A participant applies a commit that arrives after its session's
    /// lease lapsed there — `syd_check::Rule::DoubleBook`.
    CommitAfterLease,
}

/// Model configuration: the protocol instance to exhaust.
#[derive(Clone, Copy, Debug)]
pub struct NegotiationModel {
    /// Devices (= participants = entities), each owning entity `e{i}`.
    pub devices: usize,
    /// Concurrent negotiation sessions over those entities.
    pub sessions: usize,
    /// The constraint every session negotiates.
    pub constraint: Constraint,
    /// How many messages the network may lose.
    pub loss_budget: u8,
    /// How many deliveries the network may duplicate.
    pub dup_budget: u8,
    /// How many coordinators may crash mid-session or leases lapse.
    pub crash_budget: u8,
    /// Optional planted bug.
    pub inject: Option<NegotiationInject>,
}

/// Where one session is in its lifecycle; a running one is where its
/// round says.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SessionPhase {
    NotStarted,
    Running,
    Done,
    Crashed,
}

/// What the network lost that the coordinator cannot tell apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Lost {
    /// A mark or an abort never arrived.
    Request,
    /// A mark arrived and its device voted, but the vote never came back.
    Reply(fsm::Vote),
}

/// One session: its coordinator, and per participant what the network
/// lost of its last call that the round cannot see.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Session {
    phase: SessionPhase,
    round: fsm::Round,
    lost: Vec<Option<Lost>>,
}

/// Abstract global state: the entities' locks, session progress, fault
/// budgets, and injection bookkeeping. Everything the journal of a
/// schedule can depend on is in here — that is what makes visited-state
/// deduplication sound for this model.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NegotiationState {
    /// Per entity: its lock, as the runtime's lock table keeps it.
    entries: Vec<Entry>,
    sessions: Vec<Session>,
    loss_left: u8,
    dup_left: u8,
    crash_left: u8,
    /// A commit was delivered twice somewhere — the run is audited with
    /// lossy (non-strict) options, like a real at-least-once run.
    dups_used: bool,
    /// The one-shot injection already fired.
    injected: bool,
}

/// One atomic step of the negotiation system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NegotiationAction {
    /// Coordinator opens the session and journals its span.
    Start {
        /// Session index.
        session: usize,
    },
    /// A mark request reaches its device, which votes.
    DeliverMark {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A mark request is lost; the coordinator tallies a decline.
    DropMark {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A mark is delivered but its reply is lost: the device votes (and
    /// may lock), yet the coordinator tallies a decline.
    LoseMarkReply {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A delivered mark is delivered again (at-least-once RPC): the
    /// device finds its own lock and votes again.
    DuplicateMark {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// Coordinator tallies the votes and decides ([`fsm::Round::decide`]).
    Decide {
        /// Session index.
        session: usize,
    },
    /// A commit reaches its device: change applied, lock released.
    DeliverCommit {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A commit delivery is lost (the coordinator sends it once more,
    /// then gives up and journals `commit-failed`).
    DropCommit {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A committed change is delivered a second time.
    DuplicateCommit {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// An abort reaches its device — a yes-voter not chosen, or a clean-up
    /// to a mark that got no answer: change discarded, lock released.
    DeliverAbort {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// An abort delivery is lost; any lock waits for its lease to end.
    DropAbort {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// Coordinator counts commits and closes the session
    /// ([`fsm::Round::end`]).
    End {
        /// Session index.
        session: usize,
    },
    /// The coordinator crashes: the session freezes where it is and
    /// undelivered messages never arrive.
    Crash {
        /// Session index.
        session: usize,
    },
    /// A held lock's lease runs out before its commit or abort arrives:
    /// the device journals the release and will refuse that commit.
    LeaseLapse {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
}

impl NegotiationAction {
    /// The session an action belongs to.
    fn session(&self) -> usize {
        match *self {
            NegotiationAction::Start { session }
            | NegotiationAction::DeliverMark { session, .. }
            | NegotiationAction::DropMark { session, .. }
            | NegotiationAction::LoseMarkReply { session, .. }
            | NegotiationAction::DuplicateMark { session, .. }
            | NegotiationAction::Decide { session }
            | NegotiationAction::DeliverCommit { session, .. }
            | NegotiationAction::DropCommit { session, .. }
            | NegotiationAction::DuplicateCommit { session, .. }
            | NegotiationAction::DeliverAbort { session, .. }
            | NegotiationAction::DropAbort { session, .. }
            | NegotiationAction::LeaseLapse { session, .. }
            | NegotiationAction::End { session }
            | NegotiationAction::Crash { session } => session,
        }
    }

    /// The entity/device a delivery touches, if any.
    fn entity(&self) -> Option<usize> {
        match *self {
            NegotiationAction::DeliverMark { device, .. }
            | NegotiationAction::DropMark { device, .. }
            | NegotiationAction::LoseMarkReply { device, .. }
            | NegotiationAction::DuplicateMark { device, .. }
            | NegotiationAction::DeliverCommit { device, .. }
            | NegotiationAction::DropCommit { device, .. }
            | NegotiationAction::DuplicateCommit { device, .. }
            | NegotiationAction::DeliverAbort { device, .. }
            | NegotiationAction::DropAbort { device, .. }
            | NegotiationAction::LeaseLapse { device, .. } => Some(device),
            NegotiationAction::Start { .. }
            | NegotiationAction::Decide { .. }
            | NegotiationAction::End { .. }
            | NegotiationAction::Crash { .. } => None,
        }
    }
}

impl std::fmt::Display for NegotiationAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NegotiationAction::Start { session } => write!(f, "s{session}: begin negotiation"),
            NegotiationAction::DeliverMark { session, device } => {
                write!(f, "s{session}: mark delivered to dev{device}")
            }
            NegotiationAction::DropMark { session, device } => {
                write!(f, "s{session}: mark to dev{device} lost")
            }
            NegotiationAction::LoseMarkReply { session, device } => {
                write!(f, "s{session}: mark reply from dev{device} lost")
            }
            NegotiationAction::DuplicateMark { session, device } => {
                write!(f, "s{session}: mark to dev{device} delivered twice")
            }
            NegotiationAction::Decide { session } => {
                write!(f, "s{session}: coordinator tallies votes and decides")
            }
            NegotiationAction::DeliverCommit { session, device } => {
                write!(f, "s{session}: commit delivered to dev{device}")
            }
            NegotiationAction::DropCommit { session, device } => {
                write!(f, "s{session}: commit to dev{device} lost")
            }
            NegotiationAction::DuplicateCommit { session, device } => {
                write!(f, "s{session}: commit to dev{device} delivered twice")
            }
            NegotiationAction::DeliverAbort { session, device } => {
                write!(f, "s{session}: abort delivered to dev{device}")
            }
            NegotiationAction::DropAbort { session, device } => {
                write!(f, "s{session}: abort to dev{device} lost")
            }
            NegotiationAction::End { session } => {
                write!(f, "s{session}: coordinator closes the session")
            }
            NegotiationAction::Crash { session } => {
                write!(f, "s{session}: coordinator crashes")
            }
            NegotiationAction::LeaseLapse { session, device } => {
                write!(f, "s{session}: lease on dev{device} lapses")
            }
        }
    }
}

/// The instant every mark and commit runs at: inside every lease.
const NOW: Timestamp = Timestamp::from_micros(0);

/// Entity `e{i}` lives on device `i`, owned by user `i + 1`.
fn entity(i: usize) -> String {
    format!("e{i}")
}

/// What the coordinator hears when a call or its reply is lost.
fn no_answer() -> SydResult<Value> {
    Err(SydError::Timeout(RequestId::new(0)))
}

/// A mark by `session` as a device runs it, with a handler-less prepare.
fn mark(entry: &mut Entry, session: u64) -> fsm::Vote {
    fsm::Vote::on_mark(entry.mark(NOW, session, Some(LOCK_LEASE)).0, true)
}

impl NegotiationModel {
    /// Whether the device applies `session`'s commit: the entry admits it,
    /// or the [`NegotiationInject::CommitAfterLease`] bug applies it anyway.
    fn commits(&self, entry: &mut Entry, session: u64) -> bool {
        entry.commit(NOW, session).0 || self.inject == Some(NegotiationInject::CommitAfterLease)
    }

    /// The coordinator device of session `s` (the runtime rotates
    /// coordination; the model spreads it the same way).
    fn coord(&self, s: usize) -> usize {
        s % self.devices
    }

    /// Session `s`'s id, by the runtime's scheme.
    fn sid(&self, s: usize) -> u64 {
        fsm::session_id(UserId::new(self.coord(s) as u64 + 1), s as u64 + 1)
    }

    /// A session id guaranteed to collide with no real session — the
    /// "ghost" session the double-commit bug writes under.
    fn ghost_sid(&self, s: usize) -> u64 {
        self.sid(s) + (1 << 32)
    }

    /// What the crash budget allows session `s`: its coordinator crashes,
    /// or the lease of a lock it holds lapses.
    fn crashes(&self, state: &NegotiationState, s: usize, out: &mut Vec<NegotiationAction>) {
        if state.crash_left > 0 {
            out.push(NegotiationAction::Crash { session: s });
            // Where a lapse, tried on a copy of the entry, would end a lease
            // of `s`: not where its commit pinned the lock.
            let ends = |&i: &usize| Entry::lapse(&mut { state.entries[i] }, PAST_EVERY_LEASE);
            let held = (0..self.devices).filter(|i| ends(i) == Some(self.sid(s)));
            out.extend(held.map(|device| NegotiationAction::LeaseLapse { session: s, device }));
        }
    }
}

impl Model for NegotiationModel {
    type State = NegotiationState;
    type Action = NegotiationAction;

    fn device_names(&self) -> Vec<String> {
        (0..self.devices).map(|i| format!("dev{i}")).collect()
    }

    fn initial(&self) -> NegotiationState {
        let users = (1..=self.devices as u64).map(UserId::new);
        NegotiationState {
            entries: vec![Entry::default(); self.devices],
            sessions: (0..self.sessions)
                .map(|s| Session {
                    phase: SessionPhase::NotStarted,
                    round: fsm::Round::new(self.sid(s), self.constraint, users.clone(), false),
                    lost: vec![None; self.devices],
                })
                .collect(),
            loss_left: self.loss_budget,
            dup_left: self.dup_budget,
            crash_left: self.crash_budget,
            dups_used: false,
            injected: false,
        }
    }

    fn actions(&self, state: &NegotiationState) -> Vec<NegotiationAction> {
        use NegotiationAction as A;
        let mut out = Vec::new();
        for (s, session) in state.sessions.iter().enumerate() {
            match session.phase {
                SessionPhase::NotStarted => out.push(A::Start { session: s }),
                SessionPhase::Running => {
                    let round = &session.round;
                    for (device, verb) in round.wave() {
                        let (deliver, drop) = match verb {
                            Verb::Mark => (
                                A::DeliverMark { session: s, device },
                                A::DropMark { session: s, device },
                            ),
                            Verb::Commit => (
                                A::DeliverCommit { session: s, device },
                                A::DropCommit { session: s, device },
                            ),
                            Verb::Abort => (
                                A::DeliverAbort { session: s, device },
                                A::DropAbort { session: s, device },
                            ),
                        };
                        out.push(deliver);
                        if state.loss_left > 0 {
                            out.push(drop);
                            if verb == Verb::Mark {
                                out.push(A::LoseMarkReply { session: s, device });
                            }
                        }
                    }
                    for device in (0..self.devices).filter(|_| state.dup_left > 0) {
                        match round.granted(device) {
                            Some(Verb::Mark)
                                if state.entries[device].holder() == Some(self.sid(s)) =>
                            {
                                out.push(A::DuplicateMark { session: s, device });
                            }
                            Some(Verb::Commit) => {
                                out.push(A::DuplicateCommit { session: s, device });
                            }
                            _ => {}
                        }
                    }
                    if round.wave().next().is_none() {
                        out.push(match round.satisfied() {
                            None => A::Decide { session: s },
                            Some(_) => A::End { session: s },
                        });
                    }
                    self.crashes(state, s, &mut out);
                }
                SessionPhase::Done | SessionPhase::Crashed => {}
            }
        }
        out
    }

    fn apply(
        &self,
        state: &NegotiationState,
        action: &NegotiationAction,
        journal: &mut JournalSet,
    ) -> NegotiationState {
        use NegotiationAction as A;
        let mut st = state.clone();
        let s = action.session();
        let (sid, coord) = (self.sid(s), self.coord(s));
        let session = &mut st.sessions[s];
        // What the coordinator hears back, if the step answers a call.
        let heard: Option<(usize, SydResult<Value>)> = match *action {
            A::Start { .. } => {
                session.phase = SessionPhase::Running;
                journal.record(coord, session.round.begin());
                None
            }
            A::DeliverMark { device: i, .. } | A::LoseMarkReply { device: i, .. } => {
                // A lost reply: the device marked and voted as ever, but
                // the vote never reached the coordinator.
                let lost = matches!(action, A::LoseMarkReply { .. });
                st.loss_left -= u8::from(lost);
                // Model devices have no entity handler: a vote is yes or busy.
                let vote = mark(&mut st.entries[i], sid);
                if vote == fsm::Vote::Yes {
                    journal.record(i, Event::lock(sid, entity(i)));
                    let inject = self.inject == Some(NegotiationInject::DoubleLock);
                    if inject && !lost && !st.injected {
                        st.injected = true;
                        journal.record(i, Event::lock(sid, entity(i)));
                    }
                    journal.record(i, Event::vote(sid, entity(i), Vote::Yes));
                } else {
                    journal.record(i, Event::vote(sid, entity(i), Vote::LockBusy));
                }
                session.lost[i] = lost.then_some(Lost::Reply(vote));
                Some((
                    i,
                    if lost {
                        no_answer()
                    } else {
                        Ok(vote.wire_reply())
                    },
                ))
            }
            A::DropMark { device: i, .. } => {
                st.loss_left -= 1;
                session.lost[i] = Some(Lost::Request);
                Some((i, no_answer()))
            }
            A::DuplicateMark { device: i, .. } => {
                st.dup_left -= 1;
                // The device finds its own lock: it votes again, and
                // neither journals a second lock nor deepens the one held.
                mark(&mut st.entries[i], sid);
                journal.record(i, Event::vote(sid, entity(i), Vote::Yes));
                None
            }
            A::Decide { .. } => {
                session.round.decide(&mut |e| journal.record(coord, e));
                // The clean-up aborts go out: what was lost of the marks
                // no longer decides anything.
                session.lost.fill(None);
                None
            }
            A::DeliverCommit { device: i, .. } => {
                let reply = if !self.commits(&mut st.entries[i], sid) {
                    // Its lease lapsed: the device refuses the commit.
                    Err(SydError::App(format!("session {sid} expired")))
                } else if self.inject == Some(NegotiationInject::LockLeak) && !st.injected {
                    // The buggy device applies the change but journals
                    // nothing and never releases the lock its commit pinned.
                    st.injected = true;
                    Ok(Value::Null)
                } else {
                    if self.inject == Some(NegotiationInject::DoubleCommit) && !st.injected {
                        // A change applied under a session that holds no
                        // lock on the entity — the classic double-book.
                        st.injected = true;
                        journal.record(i, Event::commit(self.ghost_sid(s), entity(i), true));
                    }
                    journal.record(i, Event::commit(sid, entity(i), true));
                    st.entries[i].abort(sid);
                    Ok(Value::Null)
                };
                Some((i, reply))
            }
            A::DropCommit { device: i, .. } => {
                st.loss_left -= 1;
                Some((i, no_answer()))
            }
            A::DuplicateCommit { device: i, .. } => {
                st.dup_left -= 1;
                st.dups_used = true;
                if self.commits(&mut st.entries[i], sid) {
                    journal.record(i, Event::commit(sid, entity(i), true));
                    st.entries[i].abort(sid);
                }
                None
            }
            A::DeliverAbort { device: i, .. } => {
                // Release is owner-only and idempotent: an abort is legal
                // where the mark never locked.
                journal.record(i, Event::release(sid, entity(i), "coordinator-abort"));
                st.entries[i].abort(sid);
                Some((i, Ok(Value::Null)))
            }
            A::DropAbort { device: i, .. } => {
                // A lost abort leaves any lock to its lease.
                st.loss_left -= 1;
                session.lost[i] = Some(Lost::Request);
                Some((i, no_answer()))
            }
            A::End { .. } => {
                // Off-by-one outcome accounting: claim satisfaction over
                // one commit fewer than actually happened.
                let bad = self.inject == Some(NegotiationInject::BadArithmetic) && !st.injected;
                let bad = bad && s == 0;
                st.injected |= bad;
                session.round.end(&mut |event| match event {
                    Event::End {
                        session,
                        committed,
                        aborted,
                        declined,
                        ..
                    } if bad => {
                        let lie = Event::End {
                            session,
                            satisfied: true,
                            committed: committed.saturating_sub(1),
                            aborted,
                            declined,
                        };
                        journal.record(coord, lie);
                    }
                    event => journal.record(coord, event),
                });
                session.phase = SessionPhase::Done;
                None
            }
            A::Crash { .. } => {
                st.crash_left -= 1;
                session.phase = SessionPhase::Crashed;
                None
            }
            A::LeaseLapse { device: i, .. } => {
                st.crash_left -= 1;
                if let Some(holder) = st.entries[i].lapse(PAST_EVERY_LEASE) {
                    journal.record(i, Event::release(holder, entity(i), "lease"));
                }
                None
            }
        };
        if let Some((i, reply)) = heard {
            session
                .round
                .answer(i, &reply, &mut |e| journal.record(coord, e));
        }
        st
    }

    fn safe_action(
        &self,
        state: &NegotiationState,
        enabled: &[NegotiationAction],
    ) -> Option<usize> {
        use NegotiationAction as A;
        // Starting a session only journals its span: independent of
        // everything, with no prunable alternative.
        if let Some(i) = enabled.iter().position(|a| matches!(a, A::Start { .. })) {
            return Some(i);
        }
        // A coordinator-local step (tally or close) is safe when it is
        // the session's only enabled action — otherwise prioritizing it
        // would prune a same-session duplicate delivery or crash.
        for (idx, action) in enabled.iter().enumerate() {
            if matches!(action, A::Decide { .. } | A::End { .. }) {
                let s = action.session();
                let alone = enabled
                    .iter()
                    .enumerate()
                    .all(|(j, other)| j == idx || other.session() != s);
                if alone {
                    return Some(idx);
                }
            }
        }
        // With every fault budget spent, deliveries have no drop/dup/
        // crash alternatives left; one that is the only enabled action
        // touching its entity commutes with all the rest.
        if state.loss_left == 0 && state.dup_left == 0 && state.crash_left == 0 {
            for (idx, action) in enabled.iter().enumerate() {
                if let Some(entity) = action.entity() {
                    let exclusive = enabled
                        .iter()
                        .enumerate()
                        .all(|(j, other)| j == idx || other.entity() != Some(entity));
                    if exclusive {
                        return Some(idx);
                    }
                }
            }
        }
        None
    }

    fn finalize(&self, state: &NegotiationState, journal: &mut JournalSet) -> NegotiationState {
        // After the run quiesces every lease still held ends, journaled as
        // a lapse, exactly like `DeviceRuntime::end_leases`. The lock the
        // lock-leak injection's commit pinned has no lease end and stays.
        let mut st = state.clone();
        for (i, entry) in st.entries.iter_mut().enumerate() {
            if let Some(holder) = entry.lapse(PAST_EVERY_LEASE) {
                journal.record(i, Event::release(holder, entity(i), "lease"));
            }
        }
        st
    }

    fn snapshot(
        &self,
        state: &NegotiationState,
        journals: Vec<(String, Vec<JournalEvent>)>,
    ) -> Vec<DeviceState> {
        journals
            .into_iter()
            .enumerate()
            .map(|(i, (device, journal))| {
                let locks = match state.entries[i].holder() {
                    Some(holder) => vec![HeldLock {
                        session: holder,
                        entity: entity(i).into(),
                    }],
                    None => Vec::new(),
                };
                DeviceState {
                    device,
                    journal,
                    locks,
                    links: Vec::new(),
                    waiting: Vec::new(),
                }
            })
            .collect()
    }

    fn strict(&self, state: &NegotiationState) -> bool {
        // Loss and lapses are strict-clean (the end of a lease closes
        // every story), and so is a duplicate mark; a duplicate commit
        // legitimately re-commits — the same reason the live audit relaxes
        // on at-least-once networks.
        !state.dups_used
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::model::explore::{audit_schedule, minimize, Explorer, Verdict};
    use crate::Rule;

    fn model(constraint: Constraint) -> NegotiationModel {
        NegotiationModel {
            devices: 2,
            sessions: 1,
            constraint,
            loss_budget: 0,
            dup_budget: 0,
            crash_budget: 0,
            inject: None,
        }
    }

    fn explore(m: &NegotiationModel) -> (Verdict<NegotiationAction>, u64) {
        let mut explorer = Explorer::new(m);
        let verdict = explorer.run();
        assert!(!explorer.stats().capped);
        (verdict, explorer.stats().states)
    }

    /// Clean, and with the exact state counts of the encoding before the
    /// participant became one `fsm::Entry` and the coordinator one
    /// `fsm::Round`: a change of encoding that splits or merges a state
    /// shows here.
    #[test]
    fn clean_configs_have_no_violations() {
        for (constraint, expected) in [
            (Constraint::And, 8),
            (Constraint::AtLeast(1), 8),
            (Constraint::Exactly(1), 8),
        ] {
            let (verdict, states) = explore(&model(constraint));
            assert_eq!(states, expected, "{constraint:?}");
            assert!(
                matches!(verdict, Verdict::Clean),
                "{constraint:?}: {verdict:?}"
            );
        }
    }

    #[test]
    fn contending_sessions_stay_clean() {
        let mut m = model(Constraint::AtLeast(1));
        m.sessions = 2;
        let (verdict, _) = explore(&m);
        assert!(matches!(verdict, Verdict::Clean), "{verdict:?}");
    }

    #[test]
    fn faults_within_budget_stay_clean() {
        let mut m = model(Constraint::And);
        m.loss_budget = 1;
        m.crash_budget = 1;
        let (verdict, _) = explore(&m);
        assert!(matches!(verdict, Verdict::Clean), "{verdict:?}");
    }

    #[test]
    fn duplicate_deliveries_are_absorbed() {
        let mut m = model(Constraint::And);
        m.dup_budget = 1;
        let (verdict, _) = explore(&m);
        assert!(matches!(verdict, Verdict::Clean), "{verdict:?}");
    }

    #[test]
    fn injections_yield_minimized_counterexamples() {
        let cases = [
            (NegotiationInject::DoubleCommit, Rule::DoubleBook),
            (NegotiationInject::DoubleLock, Rule::Ordering),
            (NegotiationInject::LockLeak, Rule::LockLeak),
            (NegotiationInject::BadArithmetic, Rule::Constraint),
            (NegotiationInject::CommitAfterLease, Rule::DoubleBook),
        ];
        for (inject, rule) in cases {
            let mut m = model(Constraint::And);
            m.inject = Some(inject);
            // A lease lapses only on the crash budget.
            m.crash_budget = u8::from(inject == NegotiationInject::CommitAfterLease);
            let (verdict, _) = explore(&m);
            let Verdict::Violation { schedule, report } = verdict else {
                panic!("{inject:?} produced no counterexample");
            };
            assert!(
                report.violations.iter().any(|v| v.rule == rule),
                "{inject:?}: {report}"
            );
            let minimized = minimize(&m, schedule.clone(), rule);
            assert!(minimized.len() <= schedule.len());
            // Closed loop: the minimized schedule still trips the same
            // rule when replayed from scratch.
            let replayed = audit_schedule(&m, &minimized).expect("minimized schedule replays");
            assert!(
                replayed.violations.iter().any(|v| v.rule == rule),
                "{inject:?} minimized: {replayed}"
            );
        }
    }
}
