//! Abstract model of the §4.3 negotiation protocol: `n` devices, each
//! owning one entity, running `s` concurrent negotiation sessions over
//! all of them under bounded message loss, duplicate delivery, and
//! coordinator crash.
//!
//! The transition semantics are **not** re-implemented here: every
//! protocol decision is delegated to the pure cores the runtime itself
//! executes — [`fsm::participant_mark`], [`fsm::decide`], and
//! [`fsm::outcome_satisfied`] from `syd_core` — and every step journals
//! the [`Event`] that `crates/core/src/device.rs` and `negotiate.rs`
//! journal for it, so the `syd-check` oracle sees the same event
//! language either way.
//!
//! ## Abstraction
//!
//! Session `k` is coordinated by device `k % n` (session id
//! `((coord+1) << 24) | (k+1)`, the runtime's scheme) and marks every
//! entity `e0..e{n-1}`; entity `ei` lives on device `i`, owned by user
//! `i+1`. Devices have no entity handler, so prepare always succeeds —
//! the modelled declines are lock conflicts and lost messages, which is
//! where all the §4.3 concurrency lives. Each participant slot walks a
//! small per-session state machine (mark pending → vote → commit/abort/
//! cleanup), and the only shared state is the per-entity lock holder,
//! exactly like the runtime's lock table (depth-counted for duplicate
//! marks). Fault budgets are part of the state, so the explorer covers
//! every placement of every budgeted fault.

use syd_check::{DeviceState, HeldLock};
use syd_core::negotiate::fsm;
use syd_core::Constraint;
use syd_telemetry::{Event, JournalEvent, Vote};

use crate::explore::Model;
use crate::journal::JournalSet;

/// Protocol mutations for `--inject`: each plants one specific bug the
/// oracle must catch, closing the loop between checker and model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegotiationInject {
    /// The first delivered commit also applies a change for a session
    /// that holds no lock — `syd_check::Rule::DoubleBook`.
    DoubleCommit,
    /// The first yes-voting device journals its lock acquisition twice
    /// without a release — `syd_check::Rule::Ordering` (strict).
    DoubleLock,
    /// The first delivered commit forgets to journal, release, or sweep
    /// its lock — `syd_check::Rule::LockLeak`.
    LockLeak,
    /// Session 0's coordinator misreports its outcome as satisfied with
    /// one commit short — `syd_check::Rule::Constraint`.
    BadArithmetic,
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
    /// How many coordinators may crash mid-session.
    pub crash_budget: u8,
    /// Optional planted bug.
    pub inject: Option<NegotiationInject>,
}

/// Where one session is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SessionPhase {
    NotStarted,
    Marking,
    Finishing,
    Done,
    Crashed,
}

/// One participant's slot within a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Slot {
    /// Mark request in flight.
    MarkPending,
    /// Voted yes; holds its entity lock.
    Yes,
    /// Voted yes and locked, but the reply was lost — the coordinator
    /// tallies a decline while the device holds the lock.
    YesReplyLost,
    /// Voted no (lock busy); the coordinator saw the busy decline.
    NoBusy,
    /// Voted no (lock busy) but the reply was lost — the coordinator
    /// tallies a plain decline, not a contended one.
    BusyReplyLost,
    /// The mark request itself was lost; the device saw nothing.
    NoRequestLost,
    /// Commit decided; delivery in flight (`retried` after one loss —
    /// the coordinator retries a failed commit exactly once).
    CommitPending {
        /// True once the first delivery was lost.
        retried: bool,
    },
    /// Commit applied and lock released.
    Committed,
    /// Commit swallowed by the [`NegotiationInject::LockLeak`] bug: the
    /// coordinator counts it committed, but the device journaled
    /// nothing, still holds the lock, and hides it from the sweep.
    CommitLeaked,
    /// Both commit deliveries lost; the coordinator gave up.
    CommitFailed,
    /// Abort decided (constraint failed or xor overflow); in flight.
    AbortPending,
    /// Abort applied and lock released.
    Aborted,
    /// Abort delivery lost; the lock waits for the sweep.
    AbortDropped,
    /// Best-effort cleanup abort to a decliner, in flight.
    CleanupPending,
    /// Cleanup abort applied.
    CleanedUp,
    /// Cleanup abort lost.
    CleanupDropped,
}

impl Slot {
    /// Slots that end the session's interest in the participant.
    fn terminal(self) -> bool {
        matches!(
            self,
            Slot::Committed
                | Slot::CommitLeaked
                | Slot::CommitFailed
                | Slot::Aborted
                | Slot::AbortDropped
                | Slot::CleanedUp
                | Slot::CleanupDropped
        )
    }

    /// Slots the coordinator tallies as a decline.
    fn declined(self) -> bool {
        matches!(
            self,
            Slot::NoBusy | Slot::BusyReplyLost | Slot::NoRequestLost | Slot::YesReplyLost
        )
    }
}

/// One session's progress.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Session {
    phase: SessionPhase,
    /// Provisional outcome of [`fsm::decide`]; valid once `Finishing`.
    satisfied: bool,
    slots: Vec<Slot>,
}

/// Abstract global state: lock holders, session progress, fault
/// budgets, and injection bookkeeping. Everything the journal of a
/// schedule can depend on is in here — that is what makes visited-state
/// deduplication sound for this model.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NegotiationState {
    /// Per entity: `(session index, re-entrant depth)` of the holder.
    holders: Vec<Option<(u8, u8)>>,
    sessions: Vec<Session>,
    loss_left: u8,
    dup_left: u8,
    crash_left: u8,
    /// A duplicate delivery happened somewhere — the run is audited
    /// with lossy (non-strict) options, like a real at-least-once run.
    dups_used: bool,
    /// The one-shot injection already fired.
    injected: bool,
    /// `(session, entity)` whose lock the [`NegotiationInject::LockLeak`]
    /// bug hid from the stale-session sweep.
    leaked: Option<(u8, u8)>,
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
    /// device re-journals its lock and vote, deepening the lock.
    DuplicateMark {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// Coordinator tallies the votes and splits yes-voters into commit
    /// and abort sets (pure [`fsm::decide`]).
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
    /// A commit delivery is lost (the coordinator retries once, then
    /// gives up and journals `commit-failed`).
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
    /// An abort reaches its yes-voter: change discarded, lock released.
    DeliverAbort {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// An abort delivery is lost; the lock waits for the sweep.
    DropAbort {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A best-effort cleanup abort reaches a decliner.
    DeliverCleanup {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// A cleanup abort is lost.
    DropCleanup {
        /// Session index.
        session: usize,
        /// Participant device.
        device: usize,
    },
    /// Coordinator counts commits and closes its span (pure
    /// [`fsm::outcome_satisfied`]).
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
            | NegotiationAction::DeliverCleanup { session, .. }
            | NegotiationAction::DropCleanup { session, .. }
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
            | NegotiationAction::DeliverCleanup { device, .. }
            | NegotiationAction::DropCleanup { device, .. } => Some(device),
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
            NegotiationAction::DeliverCleanup { session, device } => {
                write!(f, "s{session}: cleanup abort delivered to dev{device}")
            }
            NegotiationAction::DropCleanup { session, device } => {
                write!(f, "s{session}: cleanup abort to dev{device} lost")
            }
            NegotiationAction::End { session } => {
                write!(f, "s{session}: coordinator closes the session")
            }
            NegotiationAction::Crash { session } => {
                write!(f, "s{session}: coordinator crashes")
            }
        }
    }
}

/// Entity `e{i}` lives on device `i`, owned by user `i + 1`.
fn entity(i: usize) -> String {
    format!("e{i}")
}

fn abort_user(session: u64, i: usize, reason: &'static str) -> Event {
    Event::AbortUser {
        session,
        user: i as u64 + 1,
        reason,
    }
}

impl NegotiationModel {
    /// The coordinator device of session `s` (the runtime rotates
    /// coordination; the model spreads it the same way).
    fn coord(&self, s: usize) -> usize {
        s % self.devices
    }

    /// The runtime's session-id scheme: `((user << 24) | counter)` with
    /// the coordinator's user id seeding uniqueness.
    fn sid(&self, s: usize) -> u64 {
        (((self.coord(s) as u64) + 1) << 24) | (s as u64 + 1)
    }

    /// A session id guaranteed to collide with no real session — the
    /// "ghost" session the double-commit bug writes under.
    fn ghost_sid(&self, s: usize) -> u64 {
        self.sid(s) + (1 << 32)
    }

    fn release_one(state: &mut NegotiationState, entity: usize, session: usize) {
        if let Some((holder, depth)) = state.holders[entity] {
            if holder as usize == session {
                state.holders[entity] = if depth > 1 {
                    Some((holder, depth - 1))
                } else {
                    None
                };
            }
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
        NegotiationState {
            holders: vec![None; self.devices],
            sessions: (0..self.sessions)
                .map(|_| Session {
                    phase: SessionPhase::NotStarted,
                    satisfied: false,
                    slots: vec![Slot::MarkPending; self.devices],
                })
                .collect(),
            loss_left: self.loss_budget,
            dup_left: self.dup_budget,
            crash_left: self.crash_budget,
            dups_used: false,
            injected: false,
            leaked: None,
        }
    }

    fn actions(&self, state: &NegotiationState) -> Vec<NegotiationAction> {
        use NegotiationAction as A;
        let mut out = Vec::new();
        for (s, session) in state.sessions.iter().enumerate() {
            match session.phase {
                SessionPhase::NotStarted => out.push(A::Start { session: s }),
                SessionPhase::Marking => {
                    for (i, slot) in session.slots.iter().enumerate() {
                        match slot {
                            Slot::MarkPending => {
                                out.push(A::DeliverMark {
                                    session: s,
                                    device: i,
                                });
                                if state.loss_left > 0 {
                                    out.push(A::DropMark {
                                        session: s,
                                        device: i,
                                    });
                                    out.push(A::LoseMarkReply {
                                        session: s,
                                        device: i,
                                    });
                                }
                            }
                            Slot::Yes if state.dup_left > 0 => {
                                out.push(A::DuplicateMark {
                                    session: s,
                                    device: i,
                                });
                            }
                            _ => {}
                        }
                    }
                    if session.slots.iter().all(|slot| *slot != Slot::MarkPending) {
                        out.push(A::Decide { session: s });
                    }
                    if state.crash_left > 0 {
                        out.push(A::Crash { session: s });
                    }
                }
                SessionPhase::Finishing => {
                    for (i, slot) in session.slots.iter().enumerate() {
                        match slot {
                            Slot::CommitPending { .. } => {
                                out.push(A::DeliverCommit {
                                    session: s,
                                    device: i,
                                });
                                if state.loss_left > 0 {
                                    out.push(A::DropCommit {
                                        session: s,
                                        device: i,
                                    });
                                }
                            }
                            Slot::Committed if state.dup_left > 0 => {
                                out.push(A::DuplicateCommit {
                                    session: s,
                                    device: i,
                                });
                            }
                            Slot::AbortPending => {
                                out.push(A::DeliverAbort {
                                    session: s,
                                    device: i,
                                });
                                if state.loss_left > 0 {
                                    out.push(A::DropAbort {
                                        session: s,
                                        device: i,
                                    });
                                }
                            }
                            Slot::CleanupPending => {
                                out.push(A::DeliverCleanup {
                                    session: s,
                                    device: i,
                                });
                                if state.loss_left > 0 {
                                    out.push(A::DropCleanup {
                                        session: s,
                                        device: i,
                                    });
                                }
                            }
                            _ => {}
                        }
                    }
                    if session.slots.iter().all(|slot| slot.terminal()) {
                        out.push(A::End { session: s });
                    }
                    if state.crash_left > 0 {
                        out.push(A::Crash { session: s });
                    }
                }
                SessionPhase::Done | SessionPhase::Crashed => {}
            }
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    fn apply(
        &self,
        state: &NegotiationState,
        action: &NegotiationAction,
        journal: &mut JournalSet,
    ) -> NegotiationState {
        use NegotiationAction as A;
        let mut st = state.clone();
        match *action {
            A::Start { session: s } => {
                st.sessions[s].phase = SessionPhase::Marking;
                journal.record(
                    self.coord(s),
                    Event::Begin {
                        session: self.sid(s),
                        constraint: self.constraint,
                        participants: self.devices as u32,
                    },
                );
            }
            A::DeliverMark {
                session: s,
                device: i,
            } => {
                let sid = self.sid(s);
                let holder = st.holders[i].map(|(hs, _)| self.sid(hs as usize));
                let (vote, _) = fsm::participant_mark(holder, sid, true);
                match vote {
                    fsm::Vote::Yes => {
                        journal.record(i, Event::lock(sid, entity(i)));
                        if self.inject == Some(NegotiationInject::DoubleLock) && !st.injected {
                            st.injected = true;
                            journal.record(i, Event::lock(sid, entity(i)));
                        }
                        journal.record(i, Event::vote(sid, entity(i), Vote::Yes));
                        st.holders[i] = Some((s as u8, 1));
                        st.sessions[s].slots[i] = Slot::Yes;
                    }
                    fsm::Vote::NoLockBusy => {
                        journal.record(i, Event::vote(sid, entity(i), Vote::LockBusy));
                        st.sessions[s].slots[i] = Slot::NoBusy;
                    }
                    fsm::Vote::NoPrepare => {
                        unreachable!("model devices have no entity handler; prepare cannot fail")
                    }
                }
            }
            A::DropMark {
                session: s,
                device: i,
            } => {
                st.loss_left -= 1;
                st.sessions[s].slots[i] = Slot::NoRequestLost;
            }
            A::LoseMarkReply {
                session: s,
                device: i,
            } => {
                st.loss_left -= 1;
                let sid = self.sid(s);
                let holder = st.holders[i].map(|(hs, _)| self.sid(hs as usize));
                let (vote, _) = fsm::participant_mark(holder, sid, true);
                match vote {
                    fsm::Vote::Yes => {
                        // The device locked and voted yes, but the reply
                        // never reached the coordinator.
                        journal.record(i, Event::lock(sid, entity(i)));
                        journal.record(i, Event::vote(sid, entity(i), Vote::Yes));
                        st.holders[i] = Some((s as u8, 1));
                        st.sessions[s].slots[i] = Slot::YesReplyLost;
                    }
                    fsm::Vote::NoLockBusy => {
                        journal.record(i, Event::vote(sid, entity(i), Vote::LockBusy));
                        st.sessions[s].slots[i] = Slot::BusyReplyLost;
                    }
                    fsm::Vote::NoPrepare => {
                        unreachable!("model devices have no entity handler; prepare cannot fail")
                    }
                }
            }
            A::DuplicateMark {
                session: s,
                device: i,
            } => {
                st.dup_left -= 1;
                st.dups_used = true;
                let sid = self.sid(s);
                // Re-entrant re-acquisition: the lock table deepens and
                // the device journals the lock and vote again.
                journal.record(i, Event::lock(sid, entity(i)));
                journal.record(i, Event::vote(sid, entity(i), Vote::Yes));
                if let Some((holder, depth)) = st.holders[i] {
                    debug_assert_eq!(holder as usize, s);
                    st.holders[i] = Some((holder, depth + 1));
                }
            }
            A::Decide { session: s } => {
                let sid = self.sid(s);
                let slots = &st.sessions[s].slots;
                let yes: Vec<usize> = (0..self.devices)
                    .filter(|&i| slots[i] == Slot::Yes)
                    .collect();
                let declined = slots.iter().filter(|slot| slot.declined()).count();
                let contended = slots.iter().filter(|&&slot| slot == Slot::NoBusy).count();
                journal.record(
                    self.coord(s),
                    Event::Tally {
                        session: sid,
                        yes: yes.len() as u32,
                        declined: declined as u32,
                        contended: contended as u32,
                    },
                );
                let decision =
                    fsm::decide(self.constraint, &yes, self.devices, contended > 0, false);
                st.sessions[s].satisfied = decision.satisfied;
                for &i in &decision.commit {
                    st.sessions[s].slots[i] = Slot::CommitPending { retried: false };
                }
                for &i in &decision.abort {
                    st.sessions[s].slots[i] = Slot::AbortPending;
                }
                for slot in &mut st.sessions[s].slots {
                    if slot.declined() {
                        *slot = Slot::CleanupPending;
                    }
                }
                st.sessions[s].phase = SessionPhase::Finishing;
            }
            A::DeliverCommit {
                session: s,
                device: i,
            } => {
                let sid = self.sid(s);
                if self.inject == Some(NegotiationInject::LockLeak) && !st.injected {
                    // The buggy device applies the change but journals
                    // nothing, keeps the lock, and corrupts its session
                    // bookkeeping so the stale sweep misses it too.
                    st.injected = true;
                    st.leaked = Some((s as u8, i as u8));
                    st.sessions[s].slots[i] = Slot::CommitLeaked;
                } else {
                    if self.inject == Some(NegotiationInject::DoubleCommit) && !st.injected {
                        // A change applied under a session that holds no
                        // lock on the entity — the classic double-book.
                        st.injected = true;
                        journal.record(i, Event::commit(self.ghost_sid(s), entity(i), true));
                    }
                    journal.record(i, Event::commit(sid, entity(i), true));
                    Self::release_one(&mut st, i, s);
                    st.sessions[s].slots[i] = Slot::Committed;
                }
            }
            A::DropCommit {
                session: s,
                device: i,
            } => {
                st.loss_left -= 1;
                match st.sessions[s].slots[i] {
                    Slot::CommitPending { retried: false } => {
                        st.sessions[s].slots[i] = Slot::CommitPending { retried: true };
                    }
                    _ => {
                        // Retry exhausted: the coordinator gives up on
                        // this participant and journals the abort.
                        journal.record(self.coord(s), abort_user(self.sid(s), i, "commit-failed"));
                        st.sessions[s].slots[i] = Slot::CommitFailed;
                    }
                }
            }
            A::DuplicateCommit {
                session: s,
                device: i,
            } => {
                st.dup_left -= 1;
                st.dups_used = true;
                journal.record(i, Event::commit(self.sid(s), entity(i), true));
                Self::release_one(&mut st, i, s);
            }
            A::DeliverAbort {
                session: s,
                device: i,
            } => {
                let sid = self.sid(s);
                let reason = if st.sessions[s].satisfied {
                    "xor-overflow"
                } else {
                    "constraint-failed"
                };
                journal.record(self.coord(s), abort_user(sid, i, reason));
                journal.record(i, Event::release(sid, entity(i), "coordinator-abort"));
                Self::release_one(&mut st, i, s);
                st.sessions[s].slots[i] = Slot::Aborted;
            }
            A::DropAbort {
                session: s,
                device: i,
            } => {
                st.loss_left -= 1;
                let reason = if st.sessions[s].satisfied {
                    "xor-overflow"
                } else {
                    "constraint-failed"
                };
                // The coordinator journals its abort decision whether or
                // not the RPC lands; the participant's lock waits for
                // the stale-session sweep.
                journal.record(self.coord(s), abort_user(self.sid(s), i, reason));
                st.sessions[s].slots[i] = Slot::AbortDropped;
            }
            A::DeliverCleanup {
                session: s,
                device: i,
            } => {
                let sid = self.sid(s);
                // Best-effort abort to a decliner: legal even when the
                // device never locked (lost request) — release is
                // owner-only and idempotent.
                journal.record(i, Event::release(sid, entity(i), "coordinator-abort"));
                Self::release_one(&mut st, i, s);
                st.sessions[s].slots[i] = Slot::CleanedUp;
            }
            A::DropCleanup {
                session: s,
                device: i,
            } => {
                st.loss_left -= 1;
                st.sessions[s].slots[i] = Slot::CleanupDropped;
            }
            A::End { session: s } => {
                let sid = self.sid(s);
                let slots = &st.sessions[s].slots;
                let committed = slots
                    .iter()
                    .filter(|&&slot| matches!(slot, Slot::Committed | Slot::CommitLeaked))
                    .count();
                let aborted = slots
                    .iter()
                    .filter(|&&slot| {
                        matches!(
                            slot,
                            Slot::Aborted | Slot::AbortDropped | Slot::CommitFailed
                        )
                    })
                    .count();
                let declined = slots
                    .iter()
                    .filter(|&&slot| matches!(slot, Slot::CleanedUp | Slot::CleanupDropped))
                    .count();
                if committed > 0 {
                    journal.record(
                        self.coord(s),
                        Event::Committed {
                            session: sid,
                            committed: committed as u32,
                        },
                    );
                }
                let mut satisfied = fsm::outcome_satisfied(
                    self.constraint,
                    st.sessions[s].satisfied,
                    committed,
                    self.devices,
                );
                let mut reported = committed;
                if self.inject == Some(NegotiationInject::BadArithmetic) && !st.injected && s == 0 {
                    // Off-by-one outcome accounting: claim satisfaction
                    // over one commit fewer than actually happened.
                    st.injected = true;
                    satisfied = true;
                    reported = committed.saturating_sub(1);
                }
                journal.record(
                    self.coord(s),
                    Event::End {
                        session: sid,
                        satisfied,
                        committed: reported as u32,
                        aborted: aborted as u32,
                        declined: declined as u32,
                    },
                );
                st.sessions[s].phase = SessionPhase::Done;
            }
            A::Crash { session: s } => {
                st.crash_left -= 1;
                st.sessions[s].phase = SessionPhase::Crashed;
            }
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
        // The stale-session sweep: after the run quiesces, every lock
        // still held is journaled and released (release_all semantics),
        // exactly like `DeviceRuntime::sweep_sessions`. The lock hidden
        // by the lock-leak injection is the one exception — that bug
        // corrupted the sweep's bookkeeping too.
        let mut st = state.clone();
        for i in 0..self.devices {
            if let Some((holder, _)) = st.holders[i] {
                if st.leaked == Some((holder, i as u8)) {
                    continue;
                }
                journal.record(
                    i,
                    Event::release(self.sid(holder as usize), entity(i), "stale-sweep"),
                );
                st.holders[i] = None;
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
                let locks = match state.holders[i] {
                    Some((holder, _)) => vec![HeldLock {
                        session: self.sid(holder as usize),
                        entity: entity(i),
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
        // Loss is strict-clean (the sweep closes every story), but a
        // duplicate delivery legitimately re-locks or re-commits — the
        // same reason the live audit relaxes on at-least-once networks.
        !state.dups_used
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::explore::{audit_schedule, minimize, Explorer, Verdict};
    use syd_check::Rule;
    use syd_telemetry::Registry;

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
        let registry = Registry::new();
        let mut explorer = Explorer::new(m, 1_000_000, &registry);
        let verdict = explorer.run();
        assert!(!explorer.stats().capped);
        (verdict, explorer.stats().states)
    }

    #[test]
    fn clean_configs_have_no_violations() {
        for constraint in [
            Constraint::And,
            Constraint::AtLeast(1),
            Constraint::Exactly(1),
        ] {
            let (verdict, states) = explore(&model(constraint));
            assert!(states > 1);
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
        ];
        for (inject, rule) in cases {
            let mut m = model(Constraint::And);
            m.inject = Some(inject);
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
