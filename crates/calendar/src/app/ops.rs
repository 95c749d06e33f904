//! Scheduling operations: the §5 meeting lifecycle as initiator-side logic.
//!
//! Everything here runs on the initiator's device and drives peers through
//! the kernel: the negotiation protocol for reservations, coordination
//! links for change propagation, and direct service calls for bookkeeping.
//!
//! The workhorse is [`CalendarApp::reconcile`]: one repair round, and on
//! the wire exactly the paper's two phases. It **marks every participant**
//! (a holder of this meeting's slot votes yes like a free one, so the
//! yes-voters are the holders after the round) and **commits the
//! yes-voters**, each commit carrying what follows from the vote: the
//! record with the status the constraints (musts + OR-group quorums) give
//! over the yes-voters, and the participant's back link. The participant
//! writes slot, record and link under the entity lock, drops its own stale
//! availability link and files the confirmation mail itself. Who declined
//! is known from the same vote, so the availability links of the missing
//! are queued by calls that ride in the commit batch. A third round
//! exists only when a commit failed after its retry (the record is
//! corrected everywhere), when the grab stayed contended, or for a missing
//! member no rider reached. Meeting setup, peer-available wake-ups,
//! participant changes and post-bump rescheduling all funnel into it,
//! which is what makes the whole lifecycle idempotent and re-entrant — the
//! property the paper's event-driven triggers need.
//!
//! Giving a reservation up is one round too ([`CalendarApp::cancel`], a
//! change of time, a bump): the `release_slot` that frees a participant's
//! slot also tells it to delete its links of the meeting, so the §4.4
//! cascade needs no round behind the release. DESIGN.md §16 has the rounds
//! per operation and why no barrier is needed between the two.

use std::sync::Arc;

use syd_core::links::{Constraint, Link, LinkKind, LinkRef, LinkSpec, LinkStatus};
use syd_core::negotiate::{Participant, Phase2};
use syd_core::{Body, Call};
use syd_store::Predicate;
use syd_telemetry::names;
use syd_types::sync;
use syd_types::{LinkId, MeetingId, SlotRange, SydError, SydResult, Text, TimeSlot, UserId, Value};
use syd_wire::Record;

use crate::app::{
    CalendarApp, CHANGE_REQUEST, DROP_AVAILABILITY, FREE_SLOTS_BITMAP, LEAVE_REQUEST,
    PEER_AVAILABLE, QUEUE_AVAILABILITY, RELEASE_SLOT, SLOT_STATUS, T_AVAILQ, UPDATE_MEETING,
};
use crate::model::{slot_entity, Meeting, MeetingSpec, MeetingStatus, ScheduleOutcome};

/// How far ahead (in slots) auto-rescheduling searches for a new time.
const RESCHEDULE_HORIZON: u64 = 7 * 24;

/// How many times a lock-contended reservation grab is retried before the
/// round gives up and leaves the meeting tentative.
const GRAB_RETRIES: u32 = 4;

/// Backoff before retrying a contended grab. Staggered by user id so two
/// racing coordinators don't re-collide in lockstep, growing per attempt.
fn grab_backoff(user: UserId, attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(u64::from(attempt + 1) * (3 + user.raw() % 7))
}

/// `users` without `me`, in order.
fn others(users: &[UserId], me: UserId) -> Vec<UserId> {
    users.iter().copied().filter(|&u| u != me).collect()
}

impl CalendarApp {
    // ---- queries -------------------------------------------------------------

    /// §5 step (i)–(iii): query every participant for free slots in the
    /// range and intersect the views. Fails if any participant cannot be
    /// reached — "ensure that all participants confirm, before the
    /// subsequent actions would be valid".
    ///
    /// Availability travels as a [`syd_types::SlotBitmap`] — one bit per slot in the
    /// window, whatever the calendars' density — and the views intersect
    /// by bitwise AND. A proxy standing in for a disconnected participant
    /// answers the same method from its replica, so the query is one round
    /// whoever serves it.
    pub fn find_common_slots(
        &self,
        participants: &[UserId],
        range: SlotRange,
    ) -> SydResult<Vec<TimeSlot>> {
        // One find = one trace: the members' calls form one tree.
        let _op_span = self.device.node().tracer().span(names::SPAN_FIND);
        let start = range.start.ordinal();
        let end = range.end.ordinal();
        // Local view first.
        let mut common = self.free_bitmap(start, end)?;
        let others: Vec<UserId> = participants
            .iter()
            .copied()
            .filter(|&u| u != self.user())
            .collect();
        let engine = self.device.engine();
        let result = engine.call_group(&others, FREE_SLOTS_BITMAP, (start, end));
        for (user, outcome) in result.outcomes {
            let theirs =
                outcome.map_err(|e| SydError::App(format!("could not query {user}: {e}")))?;
            common.and_assign(&theirs);
        }
        Ok(common.to_slots())
    }

    // ---- meeting setup ---------------------------------------------------------

    /// Sets up a meeting (§5): reserves the chosen slot at every available
    /// participant and returns a confirmed or tentative outcome.
    pub fn schedule(&self, spec: MeetingSpec) -> SydResult<ScheduleOutcome> {
        // One meeting setup = one trace: every RPC this call fans out
        // (negotiation marks/commits, availability queues) carries the
        // same trace id across all participants' journals —
        // and the root `calendar.schedule_op` span anchors the tree the
        // critical-path analyzer attributes.
        let mut op_span = self.device.node().tracer().span(names::SPAN_SCHEDULE);
        // The latency histograms measure wall time, whatever the clock.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let id = self.alloc_meeting();
        op_span.attr("meeting", id.raw());
        op_span.attr("slot", spec.slot.ordinal());
        let result = self.schedule_inner(id, spec);
        #[allow(clippy::disallowed_methods)] // wall latency, as above
        self.metrics.schedule.record_duration(started.elapsed());
        op_span.attr("ok", u64::from(result.is_ok()));
        if let Ok(out) = &result {
            op_span.attr("status", u64::from(out.status.tag()));
            op_span.attr("reserved", out.reserved.len() as u64);
        }
        result
    }

    fn schedule_inner(&self, id: MeetingId, spec: MeetingSpec) -> SydResult<ScheduleOutcome> {
        let mut musts = spec.must_attend;
        if !musts.contains(&self.user()) {
            musts.insert(0, self.user());
        }
        let rec = Meeting {
            id,
            title: spec.title,
            initiator: self.user(),
            ordinal: spec.slot.ordinal(),
            status: MeetingStatus::Tentative,
            priority: spec.priority,
            corr: format!("meeting:{}", id.raw()),
            reserved: Vec::new(),
            musts,
            groups: spec.groups,
            supervisors: spec.supervisors,
        };
        self.put_meeting(&rec)?;
        self.add_forward_link(&rec)?;
        let rec = self.reconcile_round(id, false)?;
        Ok(ScheduleOutcome {
            meeting: id,
            status: rec.status,
            pending: rec.missing(),
            reserved: rec.reserved,
        })
    }

    /// The forward negotiation-and link from the initiator's slot to every
    /// participant's slot (§5: "a negotiation-and link is created from user
    /// A's slot to the specific slot in each calendar table").
    fn add_forward_link(&self, rec: &Meeting) -> SydResult<()> {
        let entity = slot_entity(rec.ordinal);
        let reserve = |u| LinkRef::new(u, entity.clone(), "reserve");
        let refs = rec.all_participants().into_iter().map(reserve).collect();
        let spec = LinkSpec::negotiation(entity, Constraint::And, refs);
        let spec = spec
            .with_priority(rec.priority)
            .with_corr(rec.corr.as_str());
        self.device.links().add_local(spec).map(drop)
    }

    // ---- the repair round --------------------------------------------------------

    /// One reservation/repair round (see module docs). Initiator only.
    pub fn reconcile(&self, id: MeetingId) -> SydResult<MeetingStatus> {
        Ok(self.reconcile_round(id, false)?.status)
    }

    /// [`CalendarApp::reconcile`], or with `only_if_missing` — a
    /// `peer_available` wake-up, by link notification or service call — a
    /// round only if somebody is still missing. The promotions of one
    /// cancel arrive together, one per freed member, and the first round
    /// reserves them all; the rest find the record `Confirmed` with
    /// nobody missing and send nothing. Returns the record as it stands.
    pub(crate) fn reconcile_round(
        &self,
        id: MeetingId,
        only_if_missing: bool,
    ) -> SydResult<Meeting> {
        let _round = self.reconcile_guard(id);

        let Some(rec) = self.meeting(id)? else {
            return Err(SydError::App(format!("unknown meeting {id}")));
        };
        if rec.initiator != self.user() {
            return Err(SydError::App(format!(
                "{} is not the initiator of {id}",
                self.user()
            )));
        }
        if matches!(rec.status, MeetingStatus::Cancelled | MeetingStatus::Bumped)
            || (only_if_missing
                && rec.status == MeetingStatus::Confirmed
                && rec.missing().is_empty())
        {
            return Ok(rec);
        }
        let mut op_span = self.device.node().tracer().span(names::SPAN_RECONCILE);
        op_span.attr("meeting", id.raw());
        #[allow(clippy::disallowed_methods)] // a wall-latency histogram
        let started = std::time::Instant::now();
        let result = self.reconcile_locked(rec);
        #[allow(clippy::disallowed_methods)] // wall latency, as above
        self.metrics.reconcile.record_duration(started.elapsed());
        op_span.attr("ok", u64::from(result.is_ok()));
        let rec = result?;
        op_span.attr("status", u64::from(rec.status.tag()));
        op_span.attr("reserved", rec.reserved.len() as u64);
        Ok(rec)
    }

    /// The round itself, under the meeting's reconcile guard; returns the
    /// record as the round left it.
    fn reconcile_locked(&self, mut rec: Meeting) -> SydResult<Meeting> {
        let id = rec.id;
        let me = self.user();
        let participants = rec.all_participants();
        let ordinal = rec.ordinal;

        // Mark everyone, commit whoever votes yes. A participant that
        // already holds the slot for this meeting votes yes like a free
        // one, so the yes-voters *are* the holders after the round and no
        // status query precedes it. Phase 2 is built from the votes: each
        // commit carries the record as it will stand and the back link,
        // and whoever that record says is missing is sent its
        // `queue_availability` in the same batch.
        //
        // A contended round (another initiator's negotiation mid-flight on
        // some slot) commits nothing; back off for a user-staggered moment
        // and retry so that exactly one of the racing coordinators ends up
        // holding the slots — committing partial sets under crossed locks
        // is how a slot gets split between two meetings.
        let mark = Arc::new(Value::map(Self::reserve_mark(&rec)));
        let parts: Vec<Participant> = participants
            .iter()
            .map(|&u| Participant::new(u, slot_entity(ordinal), Arc::clone(&mark)))
            .collect();
        // Built once per vote: the record depends on who was chosen only,
        // the back link on whether its holder is a supervisor: the chosen
        // share at most three payloads (no link, either kind of link).
        let phase2 = |chosen: &[&Participant]| {
            let holders: Vec<UserId> = chosen.iter().map(|p| p.user).collect();
            let expected = Self::held_by(&rec, &holders);
            let record = Record::new(&expected);
            let mut kinds: [Option<Arc<Value>>; 3] = Default::default();
            let changes = chosen
                .iter()
                .map(|p| {
                    let supervisor = expected.supervisors.contains(&p.user);
                    let kind = usize::from(p.user != me) * (1 + usize::from(supervisor));
                    let change = kinds[kind].get_or_insert_with(|| {
                        let link = (kind > 0).then(|| self.back_link(&expected, supervisor));
                        let link = link.map(|link| link.to_value());
                        let record = record.value().clone();
                        Arc::new(Self::reserve_change(&expected, record, link))
                    });
                    Arc::clone(change)
                })
                .collect();
            let missing = expected.missing();
            let queue = Body::from((ordinal, record));
            if !missing.is_empty() {
                queue.preencode();
            }
            let riders = missing
                .into_iter()
                .map(|user| Call::verb(user, QUEUE_AVAILABILITY, queue.clone()))
                .collect();
            Phase2 { changes, riders }
        };
        let negotiator = self.device.negotiator();
        let mut outcome = negotiator.negotiate_available_with(&parts, &phase2)?;
        for attempt in 0..GRAB_RETRIES {
            if outcome.contended.is_empty() {
                break;
            }
            sync::sleep(&**self.device.clock(), grab_backoff(me, attempt));
            outcome = negotiator.negotiate_available_with(&parts, &phase2)?;
        }

        // Every holder already has the record as it stands when all the
        // commits it was built for went through. Otherwise — a commit
        // failed after its retry, or the retries ran out and the holders
        // have to be asked — a corrective `update_meeting` goes out below.
        let (holders, holders_told) = if outcome.contended.is_empty() {
            (outcome.committed, outcome.aborted.is_empty())
        } else {
            (self.slot_holders(&rec), false)
        };
        rec = Self::held_by(&rec, &holders);
        self.put_meeting(&rec)?;
        let missing = rec.missing();

        // What is left for a round of its own: the correction — which
        // also puts right the record a rider took to a no-voter — and the
        // availability queues at the missing no rider reached (a failed
        // commit's member, everyone after the contention fallback, a lost
        // call). Idempotent and best effort: unreachable peers catch up on
        // the next round.
        let mut batch: Vec<Call<'_>> = Vec::new();
        if !holders_told {
            let record = (Record::new(&rec),);
            batch.extend(Call::verb_each(&participants, UPDATE_MEETING, record));
        }
        let unqueued: Vec<UserId> = missing
            .iter()
            .copied()
            .filter(|u| !outcome.rode.contains(u))
            .collect();
        if !unqueued.is_empty() {
            let args = (ordinal, Record::new(&rec));
            batch.extend(Call::verb_each(&unqueued, QUEUE_AVAILABILITY, args));
        }
        if !batch.is_empty() {
            let mut span = self.device.node().tracer().span(names::SPAN_HOUSEKEEPING);
            span.attr("calls", batch.len() as u64);
            let _ = self.device.engine().invoke_batch(&batch);
        }

        // An availability link exists only where this initiator queued
        // one; a holder dropped its own when it committed. Queueing twice
        // is a no-op there, and a duplicate row is refused here.
        self.unqueue(id, &rec.reserved)?;
        for &user in &missing {
            let _ = self
                .store
                .insert(T_AVAILQ, [Value::from(id.raw()), Value::from(user.raw())]);
        }

        self.device
            .events()
            .publish_local("calendar.reconciled", || Value::from(id.raw()));
        Ok(rec)
    }

    /// `rec` as it stands once exactly `holders` hold its slot: reserved
    /// in participant order, confirmed iff the constraints hold over them.
    fn held_by(rec: &Meeting, holders: &[UserId]) -> Meeting {
        let mut rec = rec.clone();
        rec.reserved = rec.all_participants();
        rec.reserved.retain(|u| holders.contains(u));
        rec.status = if rec.constraints_satisfied() && rec.reserved.contains(&rec.initiator) {
            MeetingStatus::Confirmed
        } else {
            MeetingStatus::Tentative
        };
        rec
    }

    /// Who holds the slot for `rec` right now, by asking: the fallback
    /// when every grab attempt ran into another coordinator's locks and no
    /// vote says who holds what.
    fn slot_holders(&self, rec: &Meeting) -> Vec<UserId> {
        let engine = self.device.engine();
        let statuses = engine.call_group(&rec.all_participants(), SLOT_STATUS, (rec.ordinal,));
        statuses
            .oks()
            .filter(|(_, (state, _))| state.meeting() == Some(rec.id))
            .map(|(user, _)| user)
            .collect()
    }

    /// What the §4.3 mark carries: all that `prepare` reads.
    fn reserve_mark(rec: &Meeting) -> [(&'static str, Value); 3] {
        [
            ("action", Value::str("reserve")),
            ("meeting", Value::from(rec.id.raw())),
            ("priority", Value::from(rec.priority.level() as u32)),
        ]
    }

    /// What the §4.3 commit carries: the mark's fields, `record` — `rec`
    /// encoded as it stands once the round's commits are through — and the
    /// participant's encoded back link where the round creates them.
    fn reserve_change(rec: &Meeting, record: Value, link: Option<Value>) -> Value {
        let rest = [("record", Some(record)), ("link", link)];
        let rest = rest
            .into_iter()
            .filter_map(|(key, value)| Some((key, value?)));
        Value::map(Self::reserve_mark(rec).into_iter().chain(rest))
    }

    /// The back link installed at a holder (§5: "the target slots at A, B,
    /// C and D create negotiation links back to A's slot"): from their
    /// slot to the initiator's, a subscription for a supervisor ("only a
    /// subscription back link") and a negotiation-and link for everyone
    /// else.
    fn back_link(&self, rec: &Meeting, supervisor: bool) -> Link {
        let entity = slot_entity(rec.ordinal);
        Link {
            id: LinkId::new(0),
            kind: if supervisor {
                LinkKind::Subscription
            } else {
                LinkKind::Negotiation(Constraint::And)
            },
            status: LinkStatus::Permanent,
            refs: vec![LinkRef::new(
                rec.initiator,
                entity.clone(),
                Text::format(format_args!("participant_changed:{}", rec.id.raw())),
            )],
            entity,
            priority: rec.priority,
            created: self.device.clock().now(),
            expires: None,
            corr: rec.corr.as_str().into(),
        }
    }

    /// The users at which this initiator has queued an availability link
    /// for `meeting` (the initiator-local table `T_AVAILQ`).
    fn queued(&self, meeting: MeetingId) -> SydResult<Vec<UserId>> {
        let of_meeting = Predicate::Eq("meeting".into(), Value::from(meeting.raw()));
        let mut users = Vec::new();
        self.store.visit(T_AVAILQ, &of_meeting, |row| {
            users.push(UserId::new(row[1].as_i64()? as u64));
            Ok(())
        })?;
        Ok(users)
    }

    fn unqueue(&self, meeting: MeetingId, users: &[UserId]) -> SydResult<()> {
        if users.is_empty() {
            return Ok(());
        }
        self.store.delete(
            T_AVAILQ,
            &Predicate::Eq("meeting".into(), Value::from(meeting.raw())).and(Predicate::In(
                "user".into(),
                users.iter().map(|u| Value::from(u.raw())).collect(),
            )),
        )?;
        Ok(())
    }

    // ---- cancellation (§4.4) ----------------------------------------------------

    /// Cancels a meeting. Initiator only (§6; participants use
    /// [`CalendarApp::leave`]). Releases every slot, tears the link web
    /// down (cascade), and thereby promotes waiting availability links of
    /// other tentative meetings — the paper's automatic tentative →
    /// confirmed conversion.
    pub fn cancel(&self, id: MeetingId) -> SydResult<()> {
        // One cancellation = one trace; the cascade span nests beneath.
        let mut op_span = self.device.node().tracer().span(names::SPAN_CANCEL);
        op_span.attr("meeting", id.raw());
        // Serialised against this meeting's reconcile rounds: a round that
        // read the record before the cancel would otherwise re-grab the
        // slots and write `Confirmed` over `Cancelled`. A round queued
        // behind the cancel sees `Cancelled` and returns. The promotions
        // the cascade triggers reconcile *other* meetings, so nothing
        // waits in a cycle.
        let _round = self.reconcile_guard(id);

        let Some(mut rec) = self.meeting(id)? else {
            return Err(SydError::App(format!("unknown meeting {id}")));
        };
        if rec.initiator != self.user() {
            return Err(SydError::App(
                "only the initiator can cancel a meeting".into(),
            ));
        }
        if rec.status == MeetingStatus::Cancelled {
            return Ok(());
        }
        self.metrics.cancels.inc();
        rec.status = MeetingStatus::Cancelled;
        rec.reserved.clear();
        self.put_meeting(&rec)?;
        self.retire(&rec, rec.ordinal, rec.status)
    }

    /// Gives up `rec`'s hold on `ordinal` at every participant and tears
    /// its link web down (§4.4), in one round. Each `release_slot` writes
    /// `to_status` into the participant's record, frees the slot where it
    /// was held (delivering the notice of a cancellation) and then — the
    /// slot free — deletes the participant's links of the meeting, which
    /// promotes and fires the availability links waiting behind them; the
    /// availability links this initiator queued are dropped in the same
    /// batch. What the §4.4 cascade would have told a participant, its
    /// release already has: the initiator's own links go last, and the
    /// kernel cascade that deletion starts is addressed to nobody but
    /// the participants whose release did not get through.
    fn retire(&self, rec: &Meeting, ordinal: u64, to_status: MeetingStatus) -> SydResult<()> {
        let participants = rec.all_participants();
        let queued = self.queued(rec.id)?;
        let release = (ordinal, rec.id, to_status, true);
        let mut batch: Vec<Call<'_>> =
            Call::verb_each(&participants, RELEASE_SLOT, release).collect();
        batch.extend(Call::verb_each(&queued, DROP_AVAILABILITY, (rec.id,)));
        let answers = self.device.engine().invoke_batch(&batch);
        self.unqueue(rec.id, &queued)?;

        let released = answers.outcomes[..participants.len()]
            .iter()
            .filter(|(_, answer)| answer.is_ok())
            .map(|(user, _)| user.raw())
            .collect();
        self.device.links().delete_by_corr(&rec.corr, released)?;
        Ok(())
    }

    // ---- change of time (§5: "D wants to change the schedule") -----------------

    /// Asks the meeting's initiator to move it to `new_slot`. Called on a
    /// participant's device; returns whether the move happened. "If not
    /// all can agree, then D would be unable to change the schedule."
    pub fn request_change(&self, id: MeetingId, new_slot: TimeSlot) -> SydResult<bool> {
        let Some(rec) = self.meeting(id)? else {
            return Err(SydError::App(format!("unknown meeting {id}")));
        };
        if rec.initiator == self.user() {
            return self.handle_change_request(id, new_slot.ordinal());
        }
        let request = (id, new_slot.ordinal());
        self.device
            .engine()
            .call(rec.initiator, CHANGE_REQUEST, request)
    }

    /// Initiator side of a change request: negotiation-and over every
    /// current holder at the new slot; only if all can move does the
    /// meeting move.
    pub(crate) fn handle_change_request(&self, id: MeetingId, new_ordinal: u64) -> SydResult<bool> {
        let round = self.reconcile_guard(id);
        let Some(mut rec) = self.meeting(id)? else {
            return Ok(false);
        };
        if matches!(rec.status, MeetingStatus::Cancelled) || rec.ordinal == new_ordinal {
            return Ok(false);
        }
        let old_ordinal = rec.ordinal;
        let holders = rec.reserved.clone();
        if holders.is_empty() {
            return Ok(false);
        }
        // All-or-nothing reserve at the new slot.
        let mut moved_rec = rec.clone();
        moved_rec.ordinal = new_ordinal;
        let change = Arc::new(Self::reserve_change(&moved_rec, moved_rec.to_value(), None));
        let parts: Vec<Participant> = holders
            .iter()
            .map(|&u| Participant::new(u, slot_entity(new_ordinal), Arc::clone(&change)))
            .collect();
        let outcome = self.device.negotiator().negotiate_and(&parts)?;
        if !outcome.satisfied {
            return Ok(false);
        }

        // Free the old slots and retire the old link web.
        self.retire(&rec, old_ordinal, rec.status)?;

        rec.ordinal = new_ordinal;
        self.put_meeting(&rec)?;
        // Fresh forward link at the new slot, then a repair round to
        // rebuild back links, availability queues and the status.
        self.add_forward_link(&rec)?;
        drop(round);
        self.reconcile(id)?;
        Ok(true)
    }

    // ---- leaving (§5.1 "can drop out of the meeting if the constraints
    // are still met"; §5 quorum cancellation) ------------------------------------

    /// Asks to drop out of a meeting. Granted if the constraints still
    /// hold without this user, or if a replacement group member commits;
    /// must-attendees can never leave.
    pub fn leave(&self, id: MeetingId) -> SydResult<bool> {
        let Some(rec) = self.meeting(id)? else {
            return Err(SydError::App(format!("unknown meeting {id}")));
        };
        if rec.initiator == self.user() {
            return Err(SydError::App(
                "the initiator cancels rather than leaves".into(),
            ));
        }
        let request = (id, self.user());
        self.device
            .engine()
            .call(rec.initiator, LEAVE_REQUEST, request)
    }

    pub(crate) fn handle_leave_request(&self, id: MeetingId, user: UserId) -> SydResult<bool> {
        let _round = self.reconcile_guard(id);
        let Some(mut rec) = self.meeting(id)? else {
            return Ok(false);
        };
        if rec.musts.contains(&user) || !rec.reserved.contains(&user) {
            return Ok(false);
        }
        let hypothetical: Vec<UserId> = rec
            .reserved
            .iter()
            .copied()
            .filter(|&u| u != user)
            .collect();
        if !rec.constraints_satisfied_by(&hypothetical) {
            // Try to recruit replacements from the affected groups
            // ("only if an additional commitment is found, is the
            // cancellation request granted").
            let candidates: Vec<UserId> = rec
                .groups
                .iter()
                .filter(|g| g.members.contains(&user))
                .flat_map(|g| g.members.iter().copied())
                .filter(|&u| u != user && !rec.reserved.contains(&u))
                .collect();
            if candidates.is_empty() {
                return Ok(false);
            }
            let change = Arc::new(Self::reserve_change(&rec, rec.to_value(), None));
            let parts: Vec<Participant> = candidates
                .iter()
                .map(|&u| Participant::new(u, slot_entity(rec.ordinal), Arc::clone(&change)))
                .collect();
            let outcome = self.device.negotiator().negotiate_available(&parts)?;
            let mut extended = hypothetical.clone();
            extended.extend(outcome.committed.iter().copied());
            if !rec.constraints_satisfied_by(&extended) {
                // Release the recruits we grabbed but cannot use.
                let release = (rec.ordinal, id, rec.status, false);
                let engine = self.device.engine();
                let _ = engine.call_group(&outcome.committed, RELEASE_SLOT, release);
                return Ok(false);
            }
            rec.reserved = rec
                .all_participants()
                .into_iter()
                .filter(|u| extended.contains(u))
                .collect();
        } else {
            rec.reserved = hypothetical;
        }
        self.put_meeting(&rec)?;
        // Free the leaver's slot and broadcast the new roster.
        let engine = self.device.engine();
        let _ = engine.call(user, RELEASE_SLOT, (rec.ordinal, id, rec.status, false));
        let participants = rec.all_participants();
        let _ = engine.call_group(&participants, UPDATE_MEETING, (Record::new(&rec),));
        Ok(true)
    }

    // ---- supervisor unilateral change (§5) --------------------------------------

    /// A supervisor changes their schedule at will: frees the meeting's
    /// slot (optionally marking a new personal engagement) and informs the
    /// initiator through the subscription back link. The meeting degrades
    /// to tentative and waits for the supervisor to become available.
    pub fn supervisor_change(
        &self,
        id: MeetingId,
        new_engagement: Option<TimeSlot>,
    ) -> SydResult<()> {
        let Some(rec) = self.meeting(id)? else {
            return Err(SydError::App(format!("unknown meeting {id}")));
        };
        if !rec.supervisors.contains(&self.user()) {
            return Err(SydError::App(format!(
                "{} is not a supervisor of {id}",
                self.user()
            )));
        }
        self.release_local(rec.ordinal, id, rec.status, false)?;
        if let Some(slot) = new_engagement {
            self.mark_busy(slot)?;
        }
        // Inform the initiator through the back subscription link when
        // present, directly otherwise.
        let entity = slot_entity(rec.ordinal);
        let back = self
            .device
            .links()
            .by_corr(&rec.corr)?
            .into_iter()
            .find(|l| l.entity == entity && matches!(l.kind, LinkKind::Subscription));
        match back {
            Some(link) => {
                let _ = self.device.links().fire_link(
                    &link,
                    &Value::str("supervisor changed schedule"),
                    self.device.negotiator(),
                );
            }
            None => {
                let _ = self
                    .device
                    .engine()
                    .call(rec.initiator, PEER_AVAILABLE, (id,));
            }
        }
        Ok(())
    }

    // ---- bump rescheduling (§6) ---------------------------------------------------

    /// Reschedules a meeting that lost its slot to a higher-priority one.
    /// Idempotent per bump; runs synchronously in the `meeting_bumped`
    /// service call (which the bumper fires asynchronously).
    pub(crate) fn auto_reschedule(&self, id: MeetingId, old_ordinal: u64) {
        {
            let mut guard = self.rescheduling.lock();
            if guard.contains(&id) {
                return;
            }
            guard.push(id);
        }
        let result = self.auto_reschedule_inner(id, old_ordinal);
        self.rescheduling.lock().retain(|&m| m != id);
        if let Err(err) = result {
            self.device
                .events()
                .publish_local("calendar.reschedule_failed", || Value::str(err.to_string()));
        }
    }

    fn auto_reschedule_inner(&self, id: MeetingId, old_ordinal: u64) -> SydResult<()> {
        let Some(mut rec) = self.meeting(id)? else {
            return Ok(());
        };
        if rec.initiator != self.user() || rec.status == MeetingStatus::Cancelled {
            return Ok(());
        }
        let participants = rec.all_participants();

        // Release whatever remains of the old reservation and retire the
        // old link web (promoting any waiting links at those slots).
        self.retire(&rec, old_ordinal, MeetingStatus::Bumped)?;

        // Find the next slot everyone shares.
        let range = SlotRange::new(
            TimeSlot::from_ordinal(old_ordinal + 1),
            TimeSlot::from_ordinal(old_ordinal + 1 + RESCHEDULE_HORIZON),
        );
        let candidates = self.find_common_slots(&participants, range)?;
        let Some(new_slot) = candidates.first() else {
            rec.status = MeetingStatus::Bumped;
            self.put_meeting(&rec)?;
            let _ = self.mailbox.send_group(
                &others(&participants, self.user()),
                &format!("bumped: {}", rec.title),
                "no common slot found for automatic rescheduling",
            );
            return Ok(());
        };

        rec.ordinal = new_slot.ordinal();
        rec.status = MeetingStatus::Tentative;
        rec.reserved.clear();
        self.put_meeting(&rec)?;
        self.add_forward_link(&rec)?;
        let status = self.reconcile(id)?;
        let _ = self.mailbox.send_group(
            &others(&participants, self.user()),
            &format!("rescheduled: {}", rec.title),
            &format!("moved to ordinal {} ({status:?})", rec.ordinal),
        );
        Ok(())
    }
}
