//! The negotiation protocol of §4.3: mark/lock → change/unlock.
//!
//! A negotiation link's action is an atomic group transaction over
//! independent devices, with one of three logical constraints:
//!
//! * **and** — "Change A only if B and C can be successfully changed."
//! * **or** (≥ k of n) — "Change A only if at least one (k) of B and C can
//!   be successfully changed."
//! * **xor** (exactly k of n) — "Change A only if exactly one (k) of B and
//!   C can be successfully changed."
//!
//! The paper gives the semantics operationally (Mark and Lock each entity,
//! then Change the locked ones if the constraint holds, else Unlock), and
//! Figure 4 draws the negotiation-or case as a UML activity diagram. This
//! module is that diagram as code:
//!
//! ```text
//!   coordinator                     each participant (incl. itself)
//!   ───────────                     ────────────────────────────────
//!   mark(session, entity, change) ─▶ try-lock entity; prepare(); vote
//!   collect votes                 ◀─ yes / no
//!   constraint satisfied?
//!     yes → commit(…) to chosen   ─▶ apply change; unlock
//!           abort(…) to the rest  ─▶ discard; unlock
//!     no  → abort(…) to yes-voters─▶ discard; unlock
//! ```
//!
//! A participant that cannot lock within the bounded wait simply votes
//! **no** — the coordinator never blocks on a stuck peer, so two meetings
//! negotiating over overlapping participants resolve by abort/retry rather
//! than deadlock.
//!
//! The protocol is two rounds on the wire and nothing else: the commits
//! and the aborts of phase 2 travel in **one** batch, and a participant
//! that *answered* no holds no lock (a failed prepare unlocks before it
//! votes, a busy lock was never taken) and is sent nothing more. Only a
//! participant whose mark call failed — its yes may have been lost with
//! the lock taken — gets a clean-up abort, in that same batch.
//!
//! That batch is also where anything else goes that the coordinator knows
//! the moment the votes are in: a caller of
//! [`Negotiator::negotiate_available_with`] hands back, with the commit
//! payloads, **riders** — calls of its own, to whomever it likes — and
//! they leave with the commits instead of in a round after them
//! ([`Phase2`]). The calendar queues its availability links at the
//! no-voters this way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_telemetry::{Counter, Event, Journal, Registry};
use syd_types::{ServiceName, SydError, SydResult, UserId, Value};

use crate::engine::{Call, SydEngine};
use crate::links::Constraint;
use syd_telemetry::names;

pub mod fsm;

/// The kernel-internal service every device serves for negotiations.
pub fn link_service() -> ServiceName {
    ServiceName::new("syd.link")
}

/// One party to a negotiation: whose entity changes, and how.
#[derive(Clone, Debug, PartialEq)]
pub struct Participant {
    /// The user whose device holds the entity.
    pub user: UserId,
    /// The entity to change (e.g. `"slot:4:14"`).
    pub entity: String,
    /// Application-defined change payload handed to the participant's
    /// [`crate::device::EntityHandler`]: what the mark (and an abort)
    /// carries, and the commit too unless the caller builds the commit
    /// payloads from the votes ([`Negotiator::negotiate_available_with`]).
    pub change: Value,
}

impl Participant {
    /// Builds a participant.
    pub fn new(user: UserId, entity: impl Into<String>, change: Value) -> Self {
        Participant {
            user,
            entity: entity.into(),
            change,
        }
    }
}

/// What a negotiation did.
#[derive(Clone, Debug, PartialEq)]
pub struct NegotiationOutcome {
    /// True iff the constraint was satisfied and changes were committed.
    pub satisfied: bool,
    /// Participants whose change was applied.
    pub committed: Vec<UserId>,
    /// Participants that voted yes but were aborted (xor overflow or
    /// constraint failure elsewhere).
    pub aborted: Vec<UserId>,
    /// Participants that declined (could not lock / prepare failed /
    /// unreachable).
    pub declined: Vec<UserId>,
    /// The subset of `declined` whose refusal was a *transient* lock
    /// conflict with another in-flight negotiation (as opposed to a
    /// durable prepare failure). Callers that grab greedily should treat
    /// a non-empty list as "retry after the other coordinator finishes".
    pub contended: Vec<UserId>,
    /// Targets of the [`Phase2::riders`] that were sent and answered, in
    /// rider order.
    pub rode: Vec<UserId>,
    /// The session id used (diagnostics; lock owner on every device).
    pub session: u64,
}

/// What a caller building phase 2 from the vote
/// ([`Negotiator::negotiate_available_with`]) sends in it.
pub struct Phase2<'a> {
    /// The commit payloads of the chosen participants, one each, in their
    /// order.
    pub changes: Vec<Value>,
    /// Calls that travel in the same batch as the commits and aborts. Sent
    /// only when the round commits (never from a contended round, whose
    /// vote says nothing durable), best effort: their outcomes change
    /// nothing about the negotiation, and the targets that answered are
    /// reported in [`NegotiationOutcome::rode`].
    pub riders: Vec<Call<'a>>,
}

/// The commit carries what the mark carried: [`Participant::change`].
fn marked_changes<'a>(chosen: &[&Participant]) -> Phase2<'a> {
    Phase2 {
        changes: chosen.iter().map(|p| p.change.clone()).collect(),
        riders: Vec::new(),
    }
}

/// Runs negotiations from one device.
pub struct Negotiator {
    engine: SydEngine,
    local_user: UserId,
    next_session: AtomicU64,
    /// Counts sessions coordinated by this device ("negotiate.sessions").
    sessions: Counter,
    /// Counts aborts issued by this coordinator ("negotiate.aborts").
    aborts: Counter,
    /// The device's journal: the coordinator's half of every session's
    /// story, which `syd-check` audits.
    journal: Arc<Journal>,
}

impl Negotiator {
    /// Builds a negotiator. `local_user` seeds globally unique session
    /// ids. Counters are preregistered here so the negotiation path never
    /// touches the registry lock.
    pub fn new(
        engine: SydEngine,
        local_user: UserId,
        registry: &Registry,
        journal: Arc<Journal>,
    ) -> Negotiator {
        Negotiator {
            engine,
            local_user,
            next_session: AtomicU64::new(1),
            sessions: registry.counter(names::NEGOTIATE_SESSIONS),
            aborts: registry.counter(names::NEGOTIATE_ABORTS),
            journal,
        }
    }

    fn new_session(&self) -> u64 {
        // High bits: coordinating user; low bits: local counter. Unique
        // across the deployment without coordination.
        (self.local_user.raw() << 24) | self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one negotiation. Every participant (normally including the
    /// coordinator's own entity, listed first) is marked; the constraint is
    /// evaluated over the votes; changes are committed or aborted per §4.3.
    ///
    /// For `Constraint::Exactly(k)` with more than `k` yes votes, the
    /// yes-voters beyond the first `k` are aborted **and the constraint
    /// still holds** — the paper's "obtain locks on those entities that can
    /// be successfully changed; if obtained exactly one lock" reads
    /// strictly, but a strict reading would make xor unsatisfiable whenever
    /// entities are *too* available; we commit the first `k` in participant
    /// order and record the rest in [`NegotiationOutcome::aborted`].
    /// `and_strict` callers that want the strict reading can check
    /// `outcome.aborted.is_empty()`.
    pub fn negotiate(
        &self,
        constraint: Constraint,
        participants: &[Participant],
    ) -> SydResult<NegotiationOutcome> {
        self.negotiate_impl(constraint, participants, false, &marked_changes)
    }

    /// Greedy grab for repair rounds: commits every participant that can
    /// change right now (`AtLeast(0)`) — **unless** any decline was a
    /// transient lock conflict with a concurrent negotiation, in which
    /// case nothing commits and the conflict is reported via
    /// [`NegotiationOutcome::contended`] so the caller can back off and
    /// retry. Committing under crossed locks is how two racing
    /// coordinators each end up holding part of the other's entity set.
    pub fn negotiate_available(
        &self,
        participants: &[Participant],
    ) -> SydResult<NegotiationOutcome> {
        self.negotiate_available_with(participants, &marked_changes)
    }

    /// [`Negotiator::negotiate_available`] with phase 2 built **after**
    /// the vote, once per vote: `phase2(chosen)` is asked what to send with
    /// the participants about to be committed — `chosen`, in participant
    /// order; everyone else declined — and returns one commit payload per
    /// chosen participant, in that order (what they share it builds once),
    /// and the [`Phase2::riders`]. The mark and any abort still carry
    /// [`Participant::change`], which then need hold only what the
    /// participant's `prepare` reads. This is what lets the second round
    /// carry everything that follows from *who* committed — no later round
    /// has to tell the participants, or the ones left out.
    pub fn negotiate_available_with<'a>(
        &self,
        participants: &[Participant],
        phase2: &dyn Fn(&[&Participant]) -> Phase2<'a>,
    ) -> SydResult<NegotiationOutcome> {
        self.negotiate_impl(Constraint::AtLeast(0), participants, true, phase2)
    }

    fn negotiate_impl<'a>(
        &self,
        constraint: Constraint,
        participants: &[Participant],
        abort_on_contention: bool,
        phase2: &dyn Fn(&[&Participant]) -> Phase2<'a>,
    ) -> SydResult<NegotiationOutcome> {
        if participants.is_empty() {
            return Err(SydError::Protocol("negotiation needs participants".into()));
        }
        let session = self.new_session();
        let svc = link_service();
        self.sessions.inc();
        self.journal.emit(Event::Begin {
            session,
            constraint,
            participants: participants.len() as u32,
        });
        let args_of = |p: &Participant, change: Value| {
            vec![Value::from(session), Value::str(p.entity.clone()), change]
        };

        // Phase 1: mark everyone.
        let marks: Vec<Call<'_>> = participants
            .iter()
            .map(|p| Call::new(p.user, &svc, "mark", args_of(p, p.change.clone())))
            .collect();
        let votes = {
            let mut span = self.engine.node().tracer().span(names::SPAN_MARK_ROUND);
            span.attr("participants", participants.len() as u64);
            self.engine.invoke_batch(&marks)
        };

        let mut yes = Vec::new();
        let mut declined = Vec::new();
        let mut contended = Vec::new();
        // Marks that did not come back: the participant may have locked
        // and voted yes into a lost reply.
        let mut unanswered = Vec::new();
        for (i, (user, outcome)) in votes.outcomes.iter().enumerate() {
            match fsm::classify_reply(outcome) {
                fsm::ReplyClass::Yes => yes.push(i),
                fsm::ReplyClass::DeclinedBusy => {
                    contended.push(*user);
                    declined.push(*user);
                }
                fsm::ReplyClass::Declined => {
                    declined.push(*user);
                    if outcome.is_err() {
                        unanswered.push(i);
                    }
                }
            }
        }

        self.journal.emit(Event::Tally {
            session,
            yes: yes.len() as u32,
            declined: declined.len() as u32,
            contended: contended.len() as u32,
        });

        // Decide: the pure §4.3 core in [`fsm::decide`] evaluates the
        // constraint and splits yes-voters into commit and abort sets (a
        // contended round never commits when the caller asked for
        // contention safety).
        let fsm::Decision {
            satisfied,
            commit: to_commit,
            abort: to_abort,
            abort_reason,
        } = fsm::decide(
            constraint,
            &yes,
            participants.len(),
            !contended.is_empty(),
            abort_on_contention,
        );

        // Phase 2, one batch: commit the chosen, abort the rest of the
        // yes-voters, and abort the unanswered too — abort releases the
        // lock a lost yes vote left behind and is a no-op where the mark
        // itself was lost. Best effort for the aborts, and for the
        // caller's riders behind them.
        let chosen: Vec<&Participant> = to_commit.iter().map(|&i| &participants[i]).collect();
        let Phase2 { changes, riders } = phase2(&chosen);
        assert_eq!(
            changes.len(),
            chosen.len(),
            "one change per chosen participant"
        );
        let mut batch: Vec<Call<'_>> = chosen
            .iter()
            .zip(changes)
            .map(|(p, change)| Call::new(p.user, &svc, "commit", args_of(p, change)))
            .collect();
        batch.extend(to_abort.iter().chain(&unanswered).map(|&i| {
            let p = &participants[i];
            Call::new(p.user, &svc, "abort", args_of(p, p.change.clone()))
        }));
        let first_rider = batch.len();
        if satisfied {
            batch.extend(riders);
        }

        // Phase 2 span covers the batch and the one commit retry — the
        // whole unlock half of §4.3.
        let mut commit_span = self.engine.node().tracer().span(names::SPAN_COMMIT_ROUND);
        commit_span.attr("to_commit", to_commit.len() as u64);
        commit_span.attr("to_abort", to_abort.len() as u64);
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        let results = self.engine.invoke_batch(&batch);
        // A lost commit message would strand the entity lock; commits
        // are idempotent, so every first-round failure gets one more
        // chance — in a single batched round, so `k` stragglers cost
        // one extra round trip rather than `k` sequential timeouts.
        let mut failed: Vec<Call<'_>> = Vec::new();
        let mut answers = results.outcomes.into_iter();
        for (call, (user, outcome)) in batch.iter().zip(answers.by_ref()).take(chosen.len()) {
            match outcome {
                Ok(_) => committed.push(user),
                Err(_) => failed.push(call.clone()),
            }
        }
        let riders = answers.skip(first_rider - chosen.len());
        let rode = riders
            .filter(|(_, outcome)| outcome.is_ok())
            .map(|(user, _)| user)
            .collect();
        for (user, outcome) in self.engine.invoke_batch(&failed).outcomes {
            match outcome {
                Ok(_) => committed.push(user),
                Err(_) => {
                    self.journal_abort(session, user, "commit-failed");
                    aborted.push(user);
                }
            }
        }
        if !committed.is_empty() {
            self.journal.emit(Event::Committed {
                session,
                committed: committed.len() as u32,
            });
        }
        for &i in &to_abort {
            let user = participants[i].user;
            self.journal_abort(session, user, abort_reason);
            aborted.push(user);
        }
        drop(commit_span);

        // Re-evaluate the constraint over the *committed* set: a commit
        // RPC that failed (and exhausted its retry) moved a yes-voter into
        // `aborted`, and a constraint that held over the votes may no
        // longer hold over what actually changed (caught by `syd-check`'s
        // constraint arithmetic audit under lossy networks).
        let final_ok =
            fsm::outcome_satisfied(constraint, satisfied, committed.len(), participants.len());
        #[cfg(debug_assertions)]
        {
            // §4.3 conservation: every participant ends in exactly one of
            // committed / aborted / declined.
            let mut all: Vec<UserId> = committed
                .iter()
                .chain(aborted.iter())
                .chain(declined.iter())
                .copied()
                .collect();
            all.sort_unstable();
            let mut expected: Vec<UserId> = participants.iter().map(|p| p.user).collect();
            expected.sort_unstable();
            debug_assert_eq!(
                all, expected,
                "negotiation session {session} lost or duplicated a participant"
            );
        }
        let outcome = NegotiationOutcome {
            satisfied: final_ok,
            committed,
            aborted,
            declined,
            contended,
            rode,
            session,
        };
        self.journal.emit(Event::End {
            session,
            satisfied: outcome.satisfied,
            committed: outcome.committed.len() as u32,
            aborted: outcome.aborted.len() as u32,
            declined: outcome.declined.len() as u32,
        });
        Ok(outcome)
    }

    /// Journals one coordinator-side abort and counts it.
    fn journal_abort(&self, session: u64, user: UserId, reason: &'static str) {
        self.journal.emit(Event::AbortUser {
            session,
            user: user.raw(),
            reason,
        });
        self.aborts.inc();
    }

    /// Negotiation-and over `participants` (§4.3): all or nothing.
    pub fn negotiate_and(&self, participants: &[Participant]) -> SydResult<NegotiationOutcome> {
        self.negotiate(Constraint::And, participants)
    }

    /// Negotiation-or: at least `k` of the participants must change.
    pub fn negotiate_or(
        &self,
        k: u32,
        participants: &[Participant],
    ) -> SydResult<NegotiationOutcome> {
        self.negotiate(Constraint::AtLeast(k), participants)
    }

    /// Negotiation-xor: exactly `k` of the participants change.
    pub fn negotiate_xor(
        &self,
        k: u32,
        participants: &[Participant],
    ) -> SydResult<NegotiationOutcome> {
        self.negotiate(Constraint::Exactly(k), participants)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    // Protocol-level behaviour is exercised end-to-end in the device tests
    // and integration tests (it needs live devices with entity handlers);
    // here we test the pure pieces.

    #[test]
    fn participant_builder() {
        let p = Participant::new(UserId::new(1), "slot:1:2", Value::str("reserve"));
        assert_eq!(p.user, UserId::new(1));
        assert_eq!(p.entity, "slot:1:2");
    }

    #[test]
    fn session_ids_unique_and_user_scoped() {
        // Two negotiators for different users can never collide.
        let a = (UserId::new(3).raw() << 24) | 1;
        let b = (UserId::new(4).raw() << 24) | 1;
        assert_ne!(a, b);
    }
}
