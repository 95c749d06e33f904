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
//! participant whose mark got no answer — its yes may have been lost with
//! the lock taken — gets a clean-up abort, in that same batch. A commit
//! that got no answer is sent once more; one answered with an error is
//! final.
//!
//! Who is sent what, the tally and the outcome are [`fsm::Round`]'s, the
//! pure coordinator the model checker runs too; [`Negotiator`] turns its waves
//! into batches.
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

use syd_net::{Body, Verb};
use syd_telemetry::{Counter, Event, Registry};
use syd_types::{ServiceName, SydError, SydResult, Text, UserId, Value};

use crate::engine::{Call, SydEngine};
use crate::links::Constraint;
use syd_telemetry::names;

pub mod fsm;

/// The kernel-internal service every device serves for negotiations and
/// links.
pub const LINK: &ServiceName = &ServiceName::constant("syd.link");

/// The kernel-internal service every device serves for negotiations.
pub fn link_service() -> ServiceName {
    LINK.clone()
}

/// A §4.3 request's arguments: the session, the entity and the change.
type Step = (u64, Text, Value);

/// §4.3's verbs on the link service: Mark X and Lock X (answered with the
/// vote, [`fsm::Vote::wire_reply`]), Change X and Unlock X, and Unlock X.
/// Only this module sends them, [`SydEngine::invoke_batch`] refuses them,
/// and only the device's kernel handlers serve them.
pub const MARK: Verb<Step, Value> = Verb::new(LINK, "mark");
/// See [`MARK`].
pub const COMMIT: Verb<Step, ()> = Verb::new(LINK, "commit");
/// See [`MARK`].
pub const ABORT: Verb<Step, ()> = Verb::new(LINK, "abort");

/// One party to a negotiation: whose entity changes, and how.
#[derive(Clone, Debug, PartialEq)]
pub struct Participant {
    /// The user whose device holds the entity.
    pub user: UserId,
    /// The entity to change (e.g. `"slot:4:14"`).
    pub entity: Text,
    /// Application-defined change payload handed to the participant's
    /// [`crate::device::EntityHandler`]: what the mark (and an abort)
    /// carries, and the commit too unless the caller builds the commit
    /// payloads from the votes ([`Negotiator::negotiate_available_with`]).
    /// Shared: participants given one change carry one copy of it.
    pub change: Arc<Value>,
}

impl Participant {
    /// Builds a participant.
    pub fn new(user: UserId, entity: impl Into<Text>, change: impl Into<Arc<Value>>) -> Self {
        Participant {
            user,
            entity: entity.into(),
            change: change.into(),
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
    /// order; participants handed one shared payload get one body.
    pub changes: Vec<Arc<Value>>,
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
        changes: chosen.iter().map(|p| Arc::clone(&p.change)).collect(),
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
}

impl Negotiator {
    /// Builds a negotiator. `local_user` seeds globally unique session
    /// ids. Counters are preregistered here so the negotiation path never
    /// touches the registry lock. The coordinator's half of every
    /// session's story, which `syd-check` audits, goes into the engine's
    /// node's log.
    pub fn new(engine: SydEngine, local_user: UserId, registry: &Registry) -> Negotiator {
        Negotiator {
            engine,
            local_user,
            next_session: AtomicU64::new(1),
            sessions: registry.counter(names::NEGOTIATE_SESSIONS),
            aborts: registry.counter(names::NEGOTIATE_ABORTS),
        }
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
        let n = self.next_session.fetch_add(1, Ordering::Relaxed);
        let session = fsm::session_id(self.local_user, n);
        self.sessions.inc();
        let journal = self.engine.node().journal();
        let mut emit = |event: Event| {
            if matches!(event, Event::AbortUser { .. }) {
                self.aborts.inc();
            }
            journal.emit(event);
        };
        let users = participants.iter().map(|p| p.user);
        let mut round = fsm::Round::new(session, constraint, users, abort_on_contention);
        emit(round.begin());
        // One body per distinct `(entity, change)` of the session: calls
        // carrying the same share its encoding, as a group call's do.
        let mut bodies: Vec<(Text, Arc<Value>, Body<Step>)> = Vec::new();
        let mut body = |e: &Text, c: &Arc<Value>| {
            if let Some((_, _, args)) = bodies.iter().find(|(be, bc, _)| be == e && bc == c) {
                return args.clone();
            }
            let args = Body::from((session, e.clone(), Value::clone(c)));
            bodies.push((e.clone(), Arc::clone(c), args.clone()));
            args
        };

        // Phase 1: mark everyone; the round tallies the votes and decides.
        let marks: Vec<Call<'_>> = participants
            .iter()
            .map(|p| Call::verb(p.user, MARK, body(&p.entity, &p.change)))
            .collect();
        let votes = {
            let mut span = self.engine.node().tracer().span(names::SPAN_MARK_ROUND);
            span.attr("participants", participants.len() as u64);
            self.engine.batch(&marks)
        };
        for (i, (_, vote)) in votes.outcomes.iter().enumerate() {
            round.answer(i, vote, &mut emit);
        }
        round.decide(&mut emit);

        // Phase 2, one batch: the round's commits and aborts, then the
        // caller's riders when the round commits. Best effort for the
        // aborts and the riders.
        let to = |verb| round.wave().filter(move |w| w.1 == verb).map(|w| w.0);
        let mut chosen: Vec<&Participant> = Vec::with_capacity(to(fsm::Verb::Commit).count());
        chosen.extend(to(fsm::Verb::Commit).map(|i| &participants[i]));
        let Phase2 { changes, riders } = phase2(&chosen);
        assert_eq!(
            changes.len(),
            chosen.len(),
            "one change per chosen participant"
        );
        let mut sent: Vec<usize> = Vec::with_capacity(round.wave().count());
        sent.extend(to(fsm::Verb::Commit).chain(to(fsm::Verb::Abort)));
        let mut batch: Vec<Call<'_>> = Vec::with_capacity(sent.len() + riders.len());
        batch.extend(
            (chosen.iter().zip(changes))
                .map(|(p, change)| Call::verb(p.user, COMMIT, body(&p.entity, &change))),
        );
        batch.extend(sent[chosen.len()..].iter().map(|&i| {
            let p = &participants[i];
            Call::verb(p.user, ABORT, body(&p.entity, &p.change))
        }));
        if round.satisfied() == Some(true) {
            batch.extend(riders);
        }

        // Phase 2 span covers the batch and the commits sent again — the
        // whole unlock half of §4.3.
        let mut commit_span = self.engine.node().tracer().span(names::SPAN_COMMIT_ROUND);
        commit_span.attr("to_commit", chosen.len() as u64);
        commit_span.attr("to_abort", (sent.len() - chosen.len()) as u64);
        let results = self.engine.batch(&batch);
        let mut answers = results.outcomes.iter();
        for (&i, (_, answer)) in sent.iter().zip(answers.by_ref()) {
            round.answer(i, answer, &mut emit);
        }
        let rode = answers
            .filter(|(_, answer)| answer.is_ok())
            .map(|(user, _)| *user)
            .collect();
        // The commits that got no answer, once more, in one batch: `k`
        // stragglers cost one extra round trip, not `k` timeouts.
        let out: Vec<usize> = round.wave().map(|w| w.0).collect();
        let (again, stragglers): (Vec<usize>, Vec<Call<'_>>) = (sent.iter().zip(&batch))
            .filter(|(i, _)| out.contains(i))
            .map(|(&i, call)| (i, call.clone()))
            .unzip();
        for (&i, (_, answer)) in again.iter().zip(&self.engine.batch(&stragglers).outcomes) {
            round.answer(i, answer, &mut emit);
        }
        drop(commit_span);

        Ok(NegotiationOutcome {
            rode,
            ..round.end(&mut emit)
        })
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
        // Two negotiators for different users can never collide, and one
        // negotiator's counter never reaches its user bits.
        let id = fsm::session_id;
        assert_ne!(id(UserId::new(3), 1), id(UserId::new(4), 1));
        assert_ne!(id(UserId::new(3), 1), id(UserId::new(3), 2));
        assert_eq!(id(UserId::new(3), (1 << 24) - 1) >> 24, 3);
    }
}
