//! The pure §4.3 state-transition core.
//!
//! The negotiation protocol's decisions as side-effect-free values over
//! plain data, run by the runtime and by the `syd_check` exhaustive model
//! checker alike:
//!
//! * the participant is one [`Entry`] per entity, whose [`Entry::mark`],
//!   [`Entry::commit`], [`Entry::abort`] and [`Entry::lapse`] are the whole
//!   lease rule: `syd_store::LockManager` keeps it for the kernel services
//!   in [`crate::device`], and the model keeps a `Vec<Entry>`;
//! * [`Vote`] is the participant's answer in both, derived from the mark's
//!   [`Taken`] and the entity handler's prepare by [`Vote::on_mark`]. The
//!   runtime's `mark` service sends it with [`Vote::wire_reply`];
//! * the coordinator is one [`Round`] per session: fed the replies, it
//!   tallies the votes, decides who commits, gives an unanswered commit its
//!   one second chance and closes with the outcome, journaling each step.
//!   [`super::Negotiator`] sends its waves as batches, and the model
//!   delivers, loses or duplicates each call on its own;
//! * [`session_id`] names a session in both.

pub use syd_store::lock::{Entry, Taken, PAST_EVERY_LEASE};
use syd_telemetry::Event;
use syd_types::{SydResult, UserId, Value};

use super::NegotiationOutcome;
use crate::links::Constraint;

/// The id of the `n`th session `user` coordinates: the user in the high
/// bits, the counter in the low 24, so ids are unique across a deployment
/// without coordination.
pub fn session_id(user: UserId, n: u64) -> u64 {
    (user.raw() << 24) | n
}

/// A participant's answer to a mark request (§4.3 "Mark and Lock").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

    /// The vote a mark's reply carries, [`Vote::wire_reply`] read back, or
    /// `None` when no answer came. An answer that is an error locked
    /// nothing: a refusal.
    fn of_reply(reply: &SydResult<Value>) -> Option<Vote> {
        match reply {
            Ok(Value::Bool(true)) => Some(Vote::Yes),
            Ok(Value::Str(s)) if s == "lock-busy" => Some(Vote::NoLockBusy),
            Err(err) if err.is_unanswered() => None,
            _ => Some(Vote::NoPrepare),
        }
    }
}

/// What a coordinator sends a participant: §4.3's three verbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Mark X and Lock X.
    Mark,
    /// Change X and Unlock X.
    Commit,
    /// Unlock X.
    Abort,
}

/// Where one participant is in a [`Round`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Part {
    /// Its mark is out.
    Marking,
    /// Voted yes, and holds its entity lock.
    Yes,
    /// Answered lock-busy: declined and contended; it holds nothing.
    Busy,
    /// Answered no, or with an error: declined; it holds nothing.
    Refused,
    /// Gave no answer: declined, but a lost yes may have left it locked.
    Unanswered,
    /// Chosen: its commit is out, for the second time if `again`.
    Committing { again: bool },
    /// Its change applied.
    Committed,
    /// Its commit was answered with an error, or twice not at all.
    CommitFailed,
    /// A yes-voter not chosen: its abort is out.
    Aborting,
    /// A yes-voter not chosen, sent its abort.
    Aborted,
    /// An unanswered mark's clean-up abort is out.
    CleaningUp,
    /// An unanswered mark, sent its clean-up abort.
    CleanedUp,
}

/// One coordinator session of §4.3 — Figure 4's coordinator column — as a
/// pure value: the calls it has out, and what it learned from the replies.
///
/// Its calls go out in three waves, each call listed by [`Round::wave`]
/// until [`Round::answer`] is given its reply:
/// 1. a mark to every participant;
/// 2. once [`Round::decide`] has tallied the votes: a commit to each
///    participant chosen, an abort to each yes-voter not chosen, and a
///    clean-up abort to each mark that got no answer, whose yes may have
///    been lost with its lock taken. A participant that *answered* no holds
///    no lock and is sent nothing more;
/// 3. the commits that got no answer, once more: a commit may be lost on
///    its way, and sending it again is harmless. A commit answered with an
///    error is final: the participant has released its entity.
///
/// Once nothing is out, [`Round::end`] closes the session with its
/// [`NegotiationOutcome`]. The round journals the coordinator's records
/// through the `emit` its steps are given: [`Round::begin`]'s `Begin`, the
/// `Tally`, an `AbortUser` for every yes-voter that does not commit, and
/// `Committed` and `End`.
///
/// For `Constraint::Exactly(k)` with more than `k` yes votes, the first `k`
/// yes-voters in participant order commit and the rest are aborted
/// (`xor-overflow`); see [`super::Negotiator::negotiate`]. With
/// `abort_on_contention`, a round in which any participant answered
/// lock-busy commits nothing (`lock-contention`): committing under crossed
/// locks is how two racing coordinators each end up holding part of the
/// other's entity set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Round {
    session: u64,
    constraint: Constraint,
    abort_on_contention: bool,
    /// Whether the constraint held over the votes, once they are tallied.
    satisfied: Option<bool>,
    parts: Vec<(UserId, Part)>,
}

impl Round {
    /// A round over `users`, in participant order, whose marks are out.
    pub fn new(
        session: u64,
        constraint: Constraint,
        users: impl IntoIterator<Item = UserId>,
        abort_on_contention: bool,
    ) -> Round {
        Round {
            session,
            constraint,
            abort_on_contention,
            satisfied: None,
            parts: users.into_iter().map(|u| (u, Part::Marking)).collect(),
        }
    }

    /// The coordinator's first record.
    pub fn begin(&self) -> Event {
        Event::Begin {
            session: self.session,
            constraint: self.constraint,
            participants: self.parts.len() as u32,
        }
    }

    /// Whether the constraint held over the votes (and no contention
    /// blocked the round), once [`Round::decide`] has tallied them.
    pub fn satisfied(&self) -> Option<bool> {
        self.satisfied
    }

    /// The calls out and unanswered, in participant order.
    pub fn wave(&self) -> impl Iterator<Item = (usize, Verb)> + '_ {
        self.parts.iter().enumerate().filter_map(|(i, (_, part))| {
            let verb = match part {
                Part::Marking => Verb::Mark,
                Part::Committing { .. } => Verb::Commit,
                Part::Aborting | Part::CleaningUp => Verb::Abort,
                _ => return None,
            };
            Some((i, verb))
        })
    }

    /// The call participant `i` answered yes that the round has not moved
    /// past: its mark, until the tally, and its commit, once applied.
    pub fn granted(&self, i: usize) -> Option<Verb> {
        match self.parts[i].1 {
            Part::Yes => Some(Verb::Mark),
            Part::Committed => Some(Verb::Commit),
            _ => None,
        }
    }

    /// Participant `i`'s reply to the call [`Round::wave`] lists for it. A
    /// reply to no call out changes nothing.
    pub fn answer(&mut self, i: usize, reply: &SydResult<Value>, emit: &mut impl FnMut(Event)) {
        let unanswered = matches!(reply, Err(err) if err.is_unanswered());
        let (user, part) = self.parts[i];
        let (part, reason) = match part {
            Part::Marking => match Vote::of_reply(reply) {
                Some(Vote::Yes) => (Part::Yes, None),
                Some(Vote::NoLockBusy) => (Part::Busy, None),
                Some(Vote::NoPrepare) => (Part::Refused, None),
                None => (Part::Unanswered, None),
            },
            Part::Committing { again: false } if unanswered => {
                (Part::Committing { again: true }, None)
            }
            Part::Committing { .. } if reply.is_ok() => (Part::Committed, None),
            Part::Committing { .. } => (Part::CommitFailed, Some("commit-failed")),
            Part::Aborting => (Part::Aborted, Some(self.abort_reason())),
            Part::CleaningUp => (Part::CleanedUp, None),
            part => (part, None),
        };
        self.parts[i].1 = part;
        if let Some(reason) = reason {
            emit(Event::AbortUser {
                session: self.session,
                user: user.raw(),
                reason,
            });
        }
    }

    fn count(&self, of: impl Fn(Part) -> bool) -> usize {
        self.parts.iter().filter(|(_, part)| of(*part)).count()
    }

    /// The users whose part is `of`, in one allocation (none if empty).
    fn users(&self, of: impl Fn(Part) -> bool) -> Vec<UserId> {
        let mut users = Vec::with_capacity(self.count(&of));
        let parts = self.parts.iter().filter(|(_, part)| of(*part));
        users.extend(parts.map(|(user, _)| *user));
        users
    }

    /// Whether a lock-busy answer keeps the round from committing.
    fn blocked(&self) -> bool {
        self.abort_on_contention && self.count(|part| part == Part::Busy) > 0
    }

    /// Why a yes-voter not chosen is aborted.
    fn abort_reason(&self) -> &'static str {
        if self.blocked() {
            "lock-contention"
        } else if self.satisfied == Some(true) {
            "xor-overflow"
        } else {
            "constraint-failed"
        }
    }

    /// Once every mark is answered, tallies the votes and decides, which
    /// puts the second wave out: the yes-voters to commit, in participant
    /// order, while the constraint holds over the votes.
    pub fn decide(&mut self, emit: &mut impl FnMut(Event)) {
        debug_assert!(self.wave().next().is_none() && self.satisfied.is_none());
        let yes = self.count(|part| part == Part::Yes) as u32;
        let participants = self.parts.len() as u32;
        emit(Event::Tally {
            session: self.session,
            yes,
            declined: participants - yes,
            contended: self.count(|part| part == Part::Busy) as u32,
        });
        let (held, commits) = match self.constraint {
            Constraint::And => (yes == participants, yes),
            Constraint::AtLeast(k) => (yes >= k, yes),
            Constraint::Exactly(k) => (yes >= k, k.min(yes)),
        };
        let satisfied = held && !self.blocked();
        let mut commits = if satisfied { commits } else { 0 };
        for (_, part) in &mut self.parts {
            *part = match *part {
                Part::Yes if commits > 0 => {
                    commits -= 1;
                    Part::Committing { again: false }
                }
                Part::Yes => Part::Aborting,
                Part::Unanswered => Part::CleaningUp,
                part => part,
            };
        }
        self.satisfied = Some(satisfied);
    }

    /// Once the decided round has no call out, closes the session. The
    /// constraint is judged again over what *actually* committed: a commit
    /// that failed moved a yes-voter out of the committed set, and a
    /// constraint that held over the votes may no longer hold over what
    /// changed.
    pub fn end(&self, emit: &mut impl FnMut(Event)) -> NegotiationOutcome {
        debug_assert!(self.wave().next().is_none() && self.satisfied.is_some());
        let committed = self.users(|part| part == Part::Committed);
        let aborted = self.users(|part| matches!(part, Part::Aborted | Part::CommitFailed));
        let declined =
            self.users(|part| matches!(part, Part::Busy | Part::Refused | Part::CleanedUp));
        let n = committed.len();
        if n > 0 {
            emit(Event::Committed {
                session: self.session,
                committed: n as u32,
            });
        }
        let satisfied = self.satisfied == Some(true)
            && n != 0
            && match self.constraint {
                Constraint::And => n == self.parts.len(),
                Constraint::AtLeast(k) => n >= k as usize,
                Constraint::Exactly(k) => n == k as usize,
            };
        emit(Event::End {
            session: self.session,
            satisfied,
            committed: n as u32,
            aborted: aborted.len() as u32,
            declined: declined.len() as u32,
        });
        NegotiationOutcome {
            satisfied,
            committed,
            aborted,
            declined,
            contended: self.users(|part| part == Part::Busy),
            rode: Vec::new(),
            session: self.session,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::device::LOCK_LEASE;
    use syd_types::{RequestId, SydError, Timestamp};

    fn reply(vote: Vote) -> SydResult<Value> {
        Ok(vote.wire_reply())
    }

    fn lost() -> SydResult<Value> {
        Err(SydError::Timeout(RequestId::new(1)))
    }

    fn refused() -> SydResult<Value> {
        Err(SydError::App("refused".into()))
    }

    fn round(constraint: Constraint, n: u64, abort_on_contention: bool) -> Round {
        Round::new(7, constraint, (1..=n).map(UserId::new), abort_on_contention)
    }

    /// Answers every mark with `marks` and tallies: the calls of the second
    /// wave are what [`Round::wave`] lists afterwards.
    fn vote(round: &mut Round, marks: &[SydResult<Value>], journal: &mut Vec<Event>) {
        let wave: Vec<(usize, Verb)> = round.wave().collect();
        assert_eq!(
            wave,
            (0..marks.len())
                .map(|i| (i, Verb::Mark))
                .collect::<Vec<_>>()
        );
        for (i, mark) in marks.iter().enumerate() {
            round.answer(i, mark, &mut |e| journal.push(e));
        }
        round.decide(&mut |e| journal.push(e));
    }

    /// Plays the round to its end, answering participant `i`'s `nth`
    /// commit (from 0) with `commit(i, nth)` and every abort with `Ok`,
    /// and returns the outcome and every call sent.
    fn finish(
        mut round: Round,
        commit: impl Fn(usize, usize) -> SydResult<Value>,
        journal: &mut Vec<Event>,
    ) -> (NegotiationOutcome, Vec<(usize, Verb)>) {
        let mut sent = Vec::new();
        loop {
            let wave: Vec<(usize, Verb)> = round.wave().collect();
            if wave.is_empty() {
                let outcome = round.end(&mut |e| journal.push(e));
                return (outcome, sent);
            }
            for &(i, verb) in &wave {
                let nth = sent.iter().filter(|&&call| call == (i, verb)).count();
                let answer = match verb {
                    Verb::Commit => commit(i, nth),
                    _ => Ok(Value::Null),
                };
                sent.push((i, verb));
                round.answer(i, &answer, &mut |e| journal.push(e));
            }
        }
    }

    fn sent_to(sent: &[(usize, Verb)], verb: Verb) -> Vec<usize> {
        sent.iter().filter(|c| c.1 == verb).map(|c| c.0).collect()
    }

    fn abort_reasons(journal: &[Event]) -> Vec<&'static str> {
        let reasons = journal.iter().filter_map(|e| match e {
            Event::AbortUser { reason, .. } => Some(*reason),
            _ => None,
        });
        reasons.collect()
    }

    #[test]
    fn vote_wire_round_trip() {
        // Each vote, read back by the round's tally: (yes, declined,
        // contended), and whether the participant is sent an abort.
        for (answer, tally, cleaned) in [
            (reply(Vote::Yes), (1, 0, 0), false),
            (reply(Vote::NoLockBusy), (0, 1, 1), false),
            (reply(Vote::NoPrepare), (0, 1, 0), false),
            // An answered error locked nothing.
            (refused(), (0, 1, 0), false),
            // A lost message is a decline, and may hide a lock.
            (lost(), (0, 1, 0), true),
        ] {
            let mut r = round(Constraint::AtLeast(2), 1, false);
            let mut journal = Vec::new();
            vote(&mut r, &[answer], &mut journal);
            let Event::Tally {
                yes,
                declined,
                contended,
                ..
            } = journal[0]
            else {
                panic!("{journal:?}");
            };
            assert_eq!((yes, declined, contended), tally);
            let aborts: Vec<(usize, Verb)> = r.wave().collect();
            let voted_yes = tally.0 == 1;
            assert_eq!(!aborts.is_empty(), cleaned || voted_yes, "{aborts:?}");
        }
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

    /// The second wave after `marks`: (commits, aborts, reason of the
    /// aborts).
    fn decided(
        constraint: Constraint,
        marks: &[SydResult<Value>],
        abort_on_contention: bool,
    ) -> (Option<bool>, Vec<usize>, Vec<usize>, Vec<&'static str>) {
        let mut r = round(constraint, marks.len() as u64, abort_on_contention);
        let mut journal = Vec::new();
        vote(&mut r, marks, &mut journal);
        let satisfied = r.satisfied();
        let (_, sent) = finish(r, |_, _| Ok(Value::Null), &mut journal);
        let reasons = abort_reasons(&journal);
        (
            satisfied,
            sent_to(&sent, Verb::Commit),
            sent_to(&sent, Verb::Abort),
            reasons,
        )
    }

    #[test]
    fn decide_and_all_or_nothing() {
        let yes = || reply(Vote::Yes);
        let (satisfied, commit, abort, _) = decided(Constraint::And, &[yes(), yes(), yes()], false);
        assert_eq!(satisfied, Some(true));
        assert_eq!(commit, vec![0, 1, 2]);
        assert!(abort.is_empty());

        let no = reply(Vote::NoPrepare);
        let (satisfied, commit, abort, reasons) =
            decided(Constraint::And, &[yes(), no, yes()], false);
        assert_eq!(satisfied, Some(false));
        assert!(commit.is_empty());
        assert_eq!(abort, vec![0, 2]);
        assert_eq!(reasons, ["constraint-failed"; 2]);
    }

    #[test]
    fn decide_xor_overflow_commits_first_k() {
        let yes = || reply(Vote::Yes);
        let (satisfied, commit, abort, reasons) =
            decided(Constraint::Exactly(1), &[yes(), yes(), yes()], false);
        assert_eq!(satisfied, Some(true));
        assert_eq!(commit, vec![0]);
        assert_eq!(abort, vec![1, 2]);
        assert_eq!(reasons, ["xor-overflow"; 2]);
    }

    #[test]
    fn decide_contention_blocks_greedy_grab() {
        let marks = || [reply(Vote::Yes), reply(Vote::Yes), reply(Vote::NoLockBusy)];
        let (satisfied, commit, abort, reasons) = decided(Constraint::AtLeast(0), &marks(), true);
        assert_eq!(satisfied, Some(false));
        assert!(commit.is_empty());
        assert_eq!(abort, vec![0, 1], "and nothing to the busy participant");
        assert_eq!(reasons, ["lock-contention"; 2]);
        // Same votes without contention safety commit greedily.
        let (satisfied, commit, abort, _) = decided(Constraint::AtLeast(0), &marks(), false);
        assert_eq!(satisfied, Some(true));
        assert_eq!(commit, vec![0, 1]);
        assert!(abort.is_empty());
    }

    #[test]
    fn outcome_downgrades_on_failed_commits() {
        // (constraint, commits that fail, satisfied) over three yes votes.
        for (constraint, failing, satisfied) in [
            (Constraint::And, 0, true),
            (Constraint::And, 1, false),
            (Constraint::AtLeast(2), 2, false),
            (Constraint::AtLeast(2), 1, true),
            (Constraint::Exactly(1), 1, false),
            (Constraint::Exactly(2), 0, true),
        ] {
            let mut r = round(constraint, 3, false);
            let mut journal = Vec::new();
            vote(
                &mut r,
                &[reply(Vote::Yes), reply(Vote::Yes), reply(Vote::Yes)],
                &mut journal,
            );
            let fails = |i: usize, _| {
                if i < failing {
                    refused()
                } else {
                    Ok(Value::Null)
                }
            };
            let (outcome, _) = finish(r, fails, &mut journal);
            assert_eq!(outcome.satisfied, satisfied, "{constraint:?} {outcome:?}");
            let Some(Event::End {
                satisfied: ended, ..
            }) = journal.last()
            else {
                panic!("{journal:?}");
            };
            assert_eq!(*ended, satisfied);
        }
        // Never satisfied retroactively: nothing voted, nothing changes.
        let mut r = round(Constraint::AtLeast(0), 1, false);
        let mut journal = Vec::new();
        vote(&mut r, &[reply(Vote::NoPrepare)], &mut journal);
        assert!(!finish(r, |_, _| Ok(Value::Null), &mut journal).0.satisfied);
    }

    /// Every round of 1–4 participants, under every mark answer, every
    /// constraint, both contention rules and every commit fate, keeps §4.3's
    /// promises.
    #[test]
    fn every_round_keeps_the_protocol() {
        let mark_answers = [reply(Vote::Yes), reply(Vote::NoLockBusy), refused(), lost()];
        // A commit's fate: ok, answered with an error, no answer then ok,
        // no answer twice.
        let fates: [[SydResult<Value>; 2]; 4] = [
            [Ok(Value::Null), Ok(Value::Null)],
            [refused(), Ok(Value::Null)],
            [lost(), Ok(Value::Null)],
            [lost(), lost()],
        ];
        let mut cases = 0;
        for n in 1..=4usize {
            let mut constraints = vec![Constraint::And];
            constraints.extend((0..=n as u32).map(Constraint::AtLeast));
            constraints.extend((1..=n as u32).map(Constraint::Exactly));
            for marks in 0..4usize.pow(n as u32) {
                let answer = |i: usize| marks / 4usize.pow(i as u32) % 4;
                let replies: Vec<SydResult<Value>> =
                    (0..n).map(|i| mark_answers[answer(i)].clone()).collect();
                for &constraint in &constraints {
                    for abort_on_contention in [false, true] {
                        let mut r = round(constraint, n as u64, abort_on_contention);
                        let mut opening = vec![r.begin()];
                        vote(&mut r, &replies, &mut opening);
                        let chosen = sent_to(&r.wave().collect::<Vec<_>>(), Verb::Commit);
                        for fate in 0..4usize.pow(chosen.len() as u32) {
                            let fate_of = |i: usize| {
                                let c = chosen.iter().position(|&j| j == i).unwrap();
                                fate / 4usize.pow(c as u32) % 4
                            };
                            let mut journal = opening.clone();
                            let commit = |i, nth: usize| fates[fate_of(i)][nth].clone();
                            let (outcome, sent) = finish(r.clone(), commit, &mut journal);
                            check(constraint, &replies, fate_of, &outcome, &sent, &journal);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 25_292, "every case ran");
    }

    fn check(
        constraint: Constraint,
        marks: &[SydResult<Value>],
        fate_of: impl Fn(usize) -> usize,
        outcome: &NegotiationOutcome,
        sent: &[(usize, Verb)],
        journal: &[Event],
    ) {
        let n = marks.len();
        let case = format!("{constraint:?} {marks:?} {outcome:?} {sent:?}");
        let user = |i: usize| UserId::new(i as u64 + 1);
        // Every participant ends in exactly one of committed, aborted and
        // declined.
        let mut all: Vec<UserId> = (outcome.committed.iter())
            .chain(&outcome.aborted)
            .chain(&outcome.declined)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).map(user).collect::<Vec<_>>(), "{case}");
        assert!(
            outcome
                .contended
                .iter()
                .all(|u| outcome.declined.contains(u)),
            "{case}"
        );
        for (i, mark) in marks.iter().enumerate() {
            let voted_yes = matches!(mark, Ok(Value::Bool(true)));
            let unanswered = matches!(mark, Err(SydError::Timeout(_)));
            let aborts = sent.iter().filter(|&&c| c == (i, Verb::Abort)).count();
            let commits = sent.iter().filter(|&&c| c == (i, Verb::Commit)).count();
            // Only a yes-voter is sent a commit, and only a yes-voter or a
            // decliner that gave no answer an abort: one, and never both.
            assert!(commits == 0 || voted_yes, "{case}");
            assert!(aborts == 0 || voted_yes || unanswered, "{case}");
            let calls = aborts + usize::from(commits > 0);
            assert_eq!(calls, usize::from(voted_yes || unanswered), "{case}");
            // A commit is sent again at most once, after no answer.
            assert!(commits <= 2, "{case}");
            assert!(commits < 2 || fate_of(i) >= 2, "{case}");
            assert!(sent.iter().all(|c| c.1 != Verb::Mark), "{case}");
        }
        if outcome.satisfied {
            let k = outcome.committed.len();
            assert!(
                match constraint {
                    Constraint::And => k == n,
                    Constraint::AtLeast(m) => k >= m as usize && k > 0,
                    Constraint::Exactly(m) => k == m as usize,
                },
                "{case}"
            );
        }
        // The journal tells the same story: one `AbortUser` per aborted
        // participant, and an `End` that counts the lists.
        assert_eq!(
            abort_reasons(journal).len(),
            outcome.aborted.len(),
            "{case}"
        );
        let Some(Event::End {
            satisfied,
            committed,
            aborted,
            declined,
            ..
        }) = journal.last()
        else {
            panic!("{case}: {journal:?}");
        };
        assert_eq!(
            (*satisfied, *committed, *aborted, *declined),
            (
                outcome.satisfied,
                outcome.committed.len() as u32,
                outcome.aborted.len() as u32,
                outcome.declined.len() as u32
            ),
            "{case}"
        );
    }
}
