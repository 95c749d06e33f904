//! The pure §4.3 state-transition core.
//!
//! The negotiation protocol's decisions as side-effect-free functions
//! over plain data, shared by the runtime and the `syd-model` exhaustive
//! model checker:
//!
//! * the participant is one [`Entry`] per entity, whose [`Entry::mark`],
//!   [`Entry::commit`], [`Entry::abort`] and [`Entry::lapse`] are the whole
//!   lease rule: `syd_store::LockManager` keeps it for the kernel services
//!   in [`crate::device`], and the model keeps a `Vec<Entry>`;
//! * [`Vote`] is the participant's answer in both, derived from the mark's
//!   [`Taken`] and the entity handler's prepare by [`Vote::on_mark`]. The
//!   runtime's `mark` service sends it with [`Vote::wire_reply`], and the
//!   coordinator reads it back with [`classify_reply`];
//! * [`decide`] (which yes-voters to commit and which to abort) and
//!   [`outcome_satisfied`] are called by [`super::Negotiator`] and by the
//!   model alike.
//!
//! The coordinator's round sequencing (mark wave → decide → commit/abort
//! wave) is not shared yet: the model restates it step by step.

pub use syd_store::lock::{Entry, Taken, PAST_EVERY_LEASE};
use syd_types::{SydResult, Value};

use crate::links::Constraint;

/// A participant's answer to a mark request (§4.3 "Mark and Lock").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// Lock acquired and the entity handler prepared the change.
    Yes,
    /// The entity lock is held by another negotiation; nothing was
    /// locked, nothing needs releasing. Transient: the coordinator may
    /// retry after the other negotiation finishes.
    NoLockBusy,
    /// The lock was acquired but the entity handler refused the change;
    /// the lock is released before the vote is sent. Durable.
    NoPrepare,
}

impl Vote {
    /// The vote on a mark that found its entry `taken`: busy, or the entity
    /// handler's verdict on the change (`true` with no handler).
    pub fn on_mark(taken: Taken, prepared: bool) -> Vote {
        match taken {
            Taken::Busy => Vote::NoLockBusy,
            Taken::Fresh | Taken::Again if prepared => Vote::Yes,
            Taken::Fresh | Taken::Again => Vote::NoPrepare,
        }
    }

    /// Wire encoding of the vote, as returned by the `syd.link/mark`
    /// service: `true`, `false`, or the distinguished `"lock-busy"`.
    pub fn wire_reply(self) -> Value {
        match self {
            Vote::Yes => Value::Bool(true),
            Vote::NoPrepare => Value::Bool(false),
            Vote::NoLockBusy => Value::str("lock-busy"),
        }
    }
}

/// Coordinator-side classification of one mark reply. A transport error
/// (lost request or lost reply) is indistinguishable from a decline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyClass {
    /// The participant voted yes and holds its entity lock.
    Yes,
    /// The participant declined because of a transient lock conflict.
    DeclinedBusy,
    /// The participant declined durably, or the RPC failed.
    Declined,
}

/// Classifies a mark RPC outcome the way [`super::Negotiator`] tallies
/// votes — the inverse of [`Vote::wire_reply`] plus the lost-message
/// case.
pub fn classify_reply(reply: &SydResult<Value>) -> ReplyClass {
    match reply {
        Ok(Value::Bool(true)) => ReplyClass::Yes,
        Ok(Value::Str(s)) if s == "lock-busy" => ReplyClass::DeclinedBusy,
        _ => ReplyClass::Declined,
    }
}

/// The coordinator's phase-2 plan, computed from the mark votes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The constraint held over the votes (and no contention block).
    pub satisfied: bool,
    /// Indices (into the participant list) to commit, in participant
    /// order.
    pub commit: Vec<usize>,
    /// Yes-voter indices to abort (xor overflow, constraint failure, or
    /// a contention block).
    pub abort: Vec<usize>,
    /// Why the yes-voters in `abort` are aborted — journaled with each
    /// abort fan-out.
    pub abort_reason: &'static str,
}

/// §4.3 coordinator decision: evaluates `constraint` over the yes-voter
/// indices and splits them into commit and abort sets.
///
/// For `Constraint::Exactly(k)` with more than `k` yes votes, the first
/// `k` yes-voters (in participant order) commit and the overflow aborts
/// — see [`super::Negotiator::negotiate`] for why the strict paper
/// reading is relaxed. When `abort_on_contention` is set and any decline
/// was a transient lock conflict, nothing commits (committing under
/// crossed locks is how two racing coordinators each end up holding part
/// of the other's entity set).
pub fn decide(
    constraint: Constraint,
    yes: &[usize],
    participants: usize,
    contended: bool,
    abort_on_contention: bool,
) -> Decision {
    let yes_count = yes.len() as u32;
    let (constraint_ok, commit_count) = match constraint {
        Constraint::And => (yes_count == participants as u32, yes_count),
        Constraint::AtLeast(k) => (yes_count >= k, yes_count),
        Constraint::Exactly(k) => (yes_count >= k, k.min(yes_count)),
    };
    let blocked = abort_on_contention && contended;
    let satisfied = constraint_ok && !blocked;
    let (commit, abort) = if satisfied {
        (
            yes.iter().copied().take(commit_count as usize).collect(),
            yes.iter().copied().skip(commit_count as usize).collect(),
        )
    } else {
        (Vec::new(), yes.to_vec())
    };
    let abort_reason = if blocked {
        "lock-contention"
    } else if satisfied {
        "xor-overflow"
    } else {
        "constraint-failed"
    };
    Decision {
        satisfied,
        commit,
        abort,
        abort_reason,
    }
}

/// Re-evaluates the constraint over what *actually* committed: a commit
/// RPC that failed (and exhausted its retry) moved a yes-voter out of
/// the committed set, and a constraint that held over the votes may no
/// longer hold over what changed. Reporting satisfaction from the vote
/// count alone would claim an atomic group change that did not happen.
pub fn outcome_satisfied(
    constraint: Constraint,
    provisionally_satisfied: bool,
    committed: usize,
    participants: usize,
) -> bool {
    provisionally_satisfied
        && committed != 0
        && match constraint {
            Constraint::And => committed == participants,
            Constraint::AtLeast(k) => committed >= k as usize,
            Constraint::Exactly(k) => committed == k as usize,
        }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::device::LOCK_LEASE;
    use syd_types::{SydError, Timestamp};

    #[test]
    fn vote_wire_round_trip() {
        for vote in [Vote::Yes, Vote::NoPrepare, Vote::NoLockBusy] {
            let class = classify_reply(&Ok(vote.wire_reply()));
            match vote {
                Vote::Yes => assert_eq!(class, ReplyClass::Yes),
                Vote::NoLockBusy => assert_eq!(class, ReplyClass::DeclinedBusy),
                Vote::NoPrepare => assert_eq!(class, ReplyClass::Declined),
            }
        }
        // A lost message classifies as a durable decline.
        assert_eq!(
            classify_reply(&Err(SydError::Timeout(1.into()))),
            ReplyClass::Declined
        );
    }

    /// A mark as a device runs it: take the entry, vote on the outcome,
    /// and release the entity again if the prepare refused.
    fn mark(entry: &mut Entry, session: u64, prepared: bool) -> Vote {
        let (taken, _) = entry.mark(Timestamp::default(), session, Some(LOCK_LEASE));
        let vote = Vote::on_mark(taken, prepared);
        if vote == Vote::NoPrepare {
            entry.abort(session);
        }
        vote
    }

    #[test]
    fn mark_respects_foreign_lock() {
        let mut entry = Entry::default();
        mark(&mut entry, 7, true);
        let vote = mark(&mut entry, 9, true);
        assert_eq!(vote, Vote::NoLockBusy);
        assert_eq!(entry.holder(), Some(7));
    }

    #[test]
    fn mark_acquires_free_lock() {
        let mut entry = Entry::default();
        assert_eq!(mark(&mut entry, 9, true), Vote::Yes);
        assert_eq!(entry.holder(), Some(9));
        assert_eq!(mark(&mut entry, 9, true), Vote::Yes, "a re-sent mark");
    }

    #[test]
    fn mark_prepare_failure_releases() {
        let mut entry = Entry::default();
        assert_eq!(mark(&mut entry, 9, false), Vote::NoPrepare);
        assert_eq!(entry.holder(), None);
        // Not re-entrant: a refused re-mark frees the session's own lock.
        mark(&mut entry, 9, true);
        assert_eq!(mark(&mut entry, 9, false), Vote::NoPrepare);
        assert_eq!(entry, Entry::default());
    }

    #[test]
    fn release_is_owner_only_and_idempotent() {
        let mut entry = Entry::default();
        mark(&mut entry, 7, true);
        assert!(!entry.abort(9));
        assert_eq!(entry.holder(), Some(7));
        assert!(entry.abort(7));
        assert!(!entry.abort(7));
        assert_eq!(entry.holder(), None);
    }

    #[test]
    fn decide_and_all_or_nothing() {
        let d = decide(Constraint::And, &[0, 1, 2], 3, false, false);
        assert!(d.satisfied);
        assert_eq!(d.commit, vec![0, 1, 2]);
        assert!(d.abort.is_empty());

        let d = decide(Constraint::And, &[0, 2], 3, false, false);
        assert!(!d.satisfied);
        assert!(d.commit.is_empty());
        assert_eq!(d.abort, vec![0, 2]);
        assert_eq!(d.abort_reason, "constraint-failed");
    }

    #[test]
    fn decide_xor_overflow_commits_first_k() {
        let d = decide(Constraint::Exactly(1), &[0, 1, 2], 3, false, false);
        assert!(d.satisfied);
        assert_eq!(d.commit, vec![0]);
        assert_eq!(d.abort, vec![1, 2]);
        assert_eq!(d.abort_reason, "xor-overflow");
    }

    #[test]
    fn decide_contention_blocks_greedy_grab() {
        let d = decide(Constraint::AtLeast(0), &[0, 1], 3, true, true);
        assert!(!d.satisfied);
        assert!(d.commit.is_empty());
        assert_eq!(d.abort, vec![0, 1]);
        assert_eq!(d.abort_reason, "lock-contention");
        // Same votes without contention safety commit greedily.
        let d = decide(Constraint::AtLeast(0), &[0, 1], 3, true, false);
        assert!(d.satisfied);
        assert_eq!(d.commit, vec![0, 1]);
    }

    #[test]
    fn outcome_downgrades_on_failed_commits() {
        assert!(outcome_satisfied(Constraint::And, true, 3, 3));
        assert!(!outcome_satisfied(Constraint::And, true, 2, 3));
        assert!(!outcome_satisfied(Constraint::AtLeast(2), true, 1, 3));
        assert!(outcome_satisfied(Constraint::AtLeast(2), true, 2, 3));
        assert!(!outcome_satisfied(Constraint::Exactly(1), true, 0, 3));
        assert!(!outcome_satisfied(Constraint::Exactly(1), true, 2, 3));
        // Never satisfied retroactively.
        assert!(!outcome_satisfied(Constraint::And, false, 3, 3));
    }
}
