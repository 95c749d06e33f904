//! Scheduling operations: the §5 meeting lifecycle as initiator-side logic.
//!
//! Everything here runs on the initiator's device and drives peers through
//! the kernel: the negotiation protocol for reservations, coordination
//! links for change propagation, and direct service calls for bookkeeping.
//!
//! The workhorse is [`CalendarApp::reconcile`]: one repair round that
//! reserves whoever is now available, re-evaluates the meeting's
//! constraints (musts + OR-group quorums), escalates tentative → confirmed
//! (or degrades back), installs back links at new holders, and queues
//! availability links at the still-missing. Meeting setup, peer-available
//! wakeups, participant changes and post-bump rescheduling all funnel into
//! it, which is what makes the whole lifecycle idempotent and
//! re-entrant — the property the paper's event-driven triggers need.

use syd_core::links::{Constraint, Link, LinkKind, LinkRef, LinkSpec, LinkStatus};
use syd_core::negotiate::{link_service, Participant};
use syd_core::Call;
use syd_store::Predicate;
use syd_telemetry::{names, EventKind};
use syd_types::{
    LinkId, MeetingId, SlotBitmap, SlotRange, SydError, SydResult, TimeSlot, UserId, Value,
};

use crate::app::{calendar_service, CalendarApp, T_AVAILQ, T_BACKLINKS};
use crate::mailbox::{mailbox_service, Mailbox};
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
    /// Availability travels as a [`SlotBitmap`] — one bit per slot in the
    /// window, whatever the calendars' density — and the views intersect
    /// by bitwise AND. A peer that predates the bitmap method (it answers
    /// [`SydError::NoSuchService`]) is re-queried with the classic
    /// ordinal-list `free_slots` form, so mixed fleets keep working.
    pub fn find_common_slots(
        &self,
        participants: &[UserId],
        range: SlotRange,
    ) -> SydResult<Vec<TimeSlot>> {
        let start = range.start.ordinal();
        let end = range.end.ordinal();
        // Local view first.
        let mut common = self.free_bitmap(start, end)?;
        let others: Vec<UserId> = participants
            .iter()
            .copied()
            .filter(|&u| u != self.user())
            .collect();
        let result = self.device.engine().invoke_group(
            &others,
            &calendar_service(),
            "free_slots_bitmap",
            vec![Value::from(start), Value::from(end)],
        );
        for (user, outcome) in result.outcomes {
            let theirs = match outcome {
                Ok(v) => SlotBitmap::unpack(v.as_bytes()?)?,
                Err(SydError::NoSuchService(_, _)) => {
                    // Back-compat: ordinal list from an old peer.
                    let free = self
                        .device
                        .engine()
                        .invoke(
                            user,
                            &calendar_service(),
                            "free_slots",
                            vec![Value::from(start), Value::from(end)],
                        )
                        .map_err(|e| SydError::App(format!("could not query {user}: {e}")))?;
                    let ords = free
                        .as_list()?
                        .iter()
                        .filter_map(|v| v.as_i64().ok())
                        .map(|n| TimeSlot::from_ordinal(n as u64));
                    SlotBitmap::from_free_slots(range, ords)
                }
                Err(e) => {
                    return Err(SydError::App(format!("could not query {user}: {e}")));
                }
            };
            common.and_assign(&theirs);
        }
        Ok(common.to_slots())
    }

    // ---- meeting setup ---------------------------------------------------------

    /// Sets up a meeting (§5): reserves the chosen slot at every available
    /// participant and returns a confirmed or tentative outcome.
    pub fn schedule(&self, spec: MeetingSpec) -> SydResult<ScheduleOutcome> {
        // One meeting setup = one trace: every RPC this call fans out
        // (status queries, negotiation marks/commits, link installs)
        // carries the same trace id across all participants' journals —
        // and the root `calendar.schedule_op` span anchors the tree the
        // critical-path analyzer attributes.
        let mut op_span = self
            .device
            .node()
            .tracer()
            .span(syd_telemetry::names::SPAN_SCHEDULE);
        let started = std::time::Instant::now();
        let id = self.alloc_meeting();
        op_span.attr("meeting", id.raw());
        self.device.journal().record(
            EventKind::SpanBegin,
            format!(
                "calendar.schedule meeting={} slot={}",
                id.raw(),
                spec.slot.ordinal()
            ),
        );
        let result = self.schedule_inner(id, spec);
        self.metrics.schedule.record_duration(started.elapsed());
        self.device.journal().record(
            EventKind::SpanEnd,
            match &result {
                Ok(out) => format!(
                    "calendar.schedule meeting={} status={:?}",
                    id.raw(),
                    out.status
                ),
                Err(err) => format!("calendar.schedule meeting={} error={err}", id.raw()),
            },
        );
        result
    }

    fn schedule_inner(&self, id: MeetingId, spec: MeetingSpec) -> SydResult<ScheduleOutcome> {
        let corr = format!("meeting:{}", id.raw());
        let ordinal = spec.slot.ordinal();

        let mut musts = spec.must_attend.clone();
        if !musts.contains(&self.user()) {
            musts.insert(0, self.user());
        }
        let rec = Meeting {
            id,
            title: spec.title.clone(),
            initiator: self.user(),
            ordinal,
            status: MeetingStatus::Tentative,
            priority: spec.priority,
            corr: corr.clone(),
            reserved: Vec::new(),
            musts,
            groups: spec.groups.clone(),
            supervisors: spec.supervisors.clone(),
        };
        self.put_meeting(&rec)?;

        // The forward negotiation-and link from the initiator's slot to
        // every participant's slot (§5: "a negotiation-and link is created
        // from user A's slot to the specific slot in each calendar table").
        let participants = rec.all_participants();
        let refs: Vec<LinkRef> = participants
            .iter()
            .map(|&u| LinkRef::new(u, slot_entity(ordinal), "reserve"))
            .collect();
        self.device.links().add_local(
            LinkSpec::negotiation(slot_entity(ordinal), Constraint::And, refs)
                .with_priority(spec.priority)
                .with_corr(corr),
        )?;

        let status = self.reconcile(id)?;
        let rec = self
            .meeting(id)?
            .ok_or_else(|| SydError::App(format!("meeting {id:?} vanished after write")))?;
        Ok(ScheduleOutcome {
            meeting: id,
            status,
            reserved: rec.reserved.clone(),
            pending: rec.missing(),
        })
    }

    // ---- the repair round --------------------------------------------------------

    /// One reservation/repair round (see module docs). Initiator only.
    pub fn reconcile(&self, id: MeetingId) -> SydResult<MeetingStatus> {
        let mut op_span = self
            .device
            .node()
            .tracer()
            .span(syd_telemetry::names::SPAN_RECONCILE);
        op_span.attr("meeting", id.raw());
        let started = std::time::Instant::now();
        let result = self.reconcile_inner(id);
        self.metrics.reconcile.record_duration(started.elapsed());
        result
    }

    fn reconcile_inner(&self, id: MeetingId) -> SydResult<MeetingStatus> {
        let guard = self.reconcile_guard(id);
        let _g = guard.lock();

        let Some(mut rec) = self.meeting(id)? else {
            return Err(SydError::App(format!("unknown meeting {id}")));
        };
        if rec.initiator != self.user() {
            return Err(SydError::App(format!(
                "{} is not the initiator of {id}",
                self.user()
            )));
        }
        if matches!(rec.status, MeetingStatus::Cancelled | MeetingStatus::Bumped) {
            return Ok(rec.status);
        }
        let svc = calendar_service();
        let participants = rec.all_participants();
        let ordinal = rec.ordinal;

        // Who currently holds the slot for this meeting?
        let status_calls: Vec<(UserId, Vec<Value>)> = participants
            .iter()
            .map(|&u| (u, vec![Value::from(ordinal)]))
            .collect();
        let statuses = self
            .device
            .engine()
            .invoke_group_varied(&status_calls, &svc, "slot_status");
        let mut holders: Vec<UserId> = Vec::new();
        let mut missing: Vec<UserId> = Vec::new();
        for (user, outcome) in statuses.outcomes {
            let holds = outcome
                .ok()
                .and_then(|v| v.get("meeting").ok().and_then(|m| m.as_i64().ok()))
                .is_some_and(|m| m as u64 == id.raw());
            if holds {
                holders.push(user);
            } else {
                missing.push(user);
            }
        }

        // Grab whoever is now available. A contended round (another
        // initiator's negotiation mid-flight on some slot) commits
        // nothing; back off for a user-staggered moment and retry so that
        // exactly one of the racing coordinators ends up holding the
        // slots — committing partial sets under crossed locks is how a
        // slot gets split between two meetings.
        let mut newly: Vec<UserId> = Vec::new();
        if !missing.is_empty() {
            let change = Self::reserve_change(&rec);
            let parts: Vec<Participant> = missing
                .iter()
                .map(|&u| Participant::new(u, slot_entity(ordinal), change.clone()))
                .collect();
            let mut outcome = self.device.negotiator().negotiate_available(&parts)?;
            for attempt in 0..GRAB_RETRIES {
                if outcome.contended.is_empty() {
                    break;
                }
                std::thread::sleep(grab_backoff(self.user(), attempt));
                outcome = self.device.negotiator().negotiate_available(&parts)?;
            }
            newly = outcome.committed;
            holders.extend(newly.iter().copied());
            missing.retain(|u| !holders.contains(u));
        }

        // Evaluate constraints and set the status.
        let reserved: Vec<UserId> = participants
            .iter()
            .copied()
            .filter(|u| holders.contains(u))
            .collect();
        let satisfied =
            rec.constraints_satisfied_by(&reserved) && reserved.contains(&rec.initiator);
        let previous = rec.status;
        rec.reserved = reserved;
        rec.status = if satisfied {
            MeetingStatus::Confirmed
        } else {
            MeetingStatus::Tentative
        };
        self.put_meeting(&rec)?;

        // Housekeeping, one round for all of it. The calls write disjoint
        // state at each peer and are idempotent, so they need no order
        // among themselves; all are best effort (unreachable peers catch up
        // on the next round). The round stays inside the operation: a
        // later meeting's waiting links anchor on the back links below.
        let me = self.user();
        let backlinked = self.marked(T_BACKLINKS, id)?;
        let queued = self.marked(T_AVAILQ, id)?;
        // Back links at holders that lack one (§5: "the target slots at A,
        // B, C and D create negotiation links back to A's slot"; a
        // supervisor gets "only a subscription back link").
        let needs_link: Vec<UserId> = rec
            .reserved
            .iter()
            .copied()
            .filter(|&u| u != me && !backlinked.contains(&u))
            .collect();
        // Availability queues at the missing; stale ones dropped at the
        // newly reserved — an availability link exists only where this
        // initiator queued one.
        let stale: Vec<UserId> = newly
            .iter()
            .copied()
            .filter(|u| queued.contains(u))
            .collect();
        let stale_peers = others(&stale, me);
        // E-mail on the tentative → confirmed transition (§5.1).
        let confirmed_now =
            rec.status == MeetingStatus::Confirmed && previous != MeetingStatus::Confirmed;
        let mail_to = if confirmed_now {
            others(&rec.reserved, me)
        } else {
            Vec::new()
        };

        let link_svc = link_service();
        let mail_svc = mailbox_service();
        let record = rec.to_value();
        let mut batch: Vec<Call<'_>> =
            Call::broadcast(&participants, &svc, "update_meeting", vec![record.clone()]).collect();
        let installs_at = batch.len();
        batch.extend(needs_link.iter().map(|&user| {
            let link = self.back_link(&rec, user).to_value();
            Call::new(user, &link_svc, "install_link", vec![link])
        }));
        batch.extend(Call::broadcast(
            &missing,
            &svc,
            "queue_availability",
            vec![Value::from(ordinal), record],
        ));
        batch.extend(Call::broadcast(
            &stale_peers,
            &svc,
            "drop_availability",
            vec![Value::from(id.raw())],
        ));
        batch.extend(Call::broadcast(
            &mail_to,
            &mail_svc,
            "deliver",
            Mailbox::deliver_args(
                &format!("confirmed: {}", rec.title),
                &format!("meeting {} at ordinal {}", rec.id, rec.ordinal),
            ),
        ));
        let round = self.housekeeping(&batch);

        for (&user, (_, outcome)) in needs_link.iter().zip(&round.outcomes[installs_at..]) {
            if outcome.is_ok() {
                self.mark(T_BACKLINKS, id, user);
            }
        }
        for &user in &missing {
            self.mark(T_AVAILQ, id, user);
        }
        if stale.contains(&me) {
            let _ = self.drop_availability_local(id);
        }
        self.unmark(T_AVAILQ, id, &stale)?;

        self.device
            .events()
            .publish_local("calendar.reconciled", &Value::from(id.raw()));
        self.device.journal().record(
            EventKind::Info,
            format!(
                "calendar.reconcile meeting={} status={:?} reserved={}",
                id.raw(),
                rec.status,
                rec.reserved.len()
            ),
        );
        Ok(rec.status)
    }

    fn reserve_change(rec: &Meeting) -> Value {
        Value::map([
            ("action", Value::str("reserve")),
            ("meeting", Value::from(rec.id.raw())),
            ("priority", Value::from(rec.priority.level() as u32)),
            ("record", rec.to_value()),
        ])
    }

    /// The back link installed at holder `user`: from their slot to the
    /// initiator's, a subscription for a supervisor and a negotiation-and
    /// link for everyone else.
    fn back_link(&self, rec: &Meeting, user: UserId) -> Link {
        let entity = slot_entity(rec.ordinal);
        Link {
            id: LinkId::new(0),
            kind: if rec.supervisors.contains(&user) {
                LinkKind::Subscription
            } else {
                LinkKind::Negotiation(Constraint::And)
            },
            status: LinkStatus::Permanent,
            refs: vec![LinkRef::new(
                rec.initiator,
                entity.clone(),
                format!("participant_changed:{}", rec.id.raw()),
            )],
            entity,
            priority: rec.priority,
            created: self.device.clock().now(),
            expires: None,
            corr: rec.corr.clone(),
        }
    }

    /// Sends one housekeeping batch under its span: one span per round,
    /// none per peer.
    fn housekeeping(&self, batch: &[Call<'_>]) -> syd_core::GroupResult {
        let mut span = self.device.node().tracer().span(names::SPAN_HOUSEKEEPING);
        span.attr("calls", batch.len() as u64);
        self.device.engine().invoke_batch(batch)
    }

    // The two initiator-local bookkeeping tables, `T_BACKLINKS` and
    // `T_AVAILQ`, are both sets of `(meeting, user)`.

    /// The users marked for `meeting` in `table`.
    fn marked(&self, table: &str, meeting: MeetingId) -> SydResult<Vec<UserId>> {
        self.store
            .query(table)
            .filter(Predicate::Eq("meeting".into(), Value::from(meeting.raw())))
            .column("user")?
            .iter()
            .map(|v| Ok(UserId::new(v.as_i64()? as u64)))
            .collect()
    }

    /// Marks `user`; marking twice is a no-op.
    fn mark(&self, table: &str, meeting: MeetingId, user: UserId) {
        let _ = self.store.insert(
            table,
            vec![Value::from(meeting.raw()), Value::from(user.raw())],
        );
    }

    fn unmark(&self, table: &str, meeting: MeetingId, users: &[UserId]) -> SydResult<()> {
        if users.is_empty() {
            return Ok(());
        }
        self.store.delete(
            table,
            &Predicate::Eq("meeting".into(), Value::from(meeting.raw())).and(Predicate::In(
                "user".into(),
                users.iter().map(|u| Value::from(u.raw())).collect(),
            )),
        )?;
        Ok(())
    }

    fn clear_backlinks(&self, meeting: MeetingId) -> SydResult<()> {
        self.store.delete(
            T_BACKLINKS,
            &Predicate::Eq("meeting".into(), Value::from(meeting.raw())),
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
        let guard = self.reconcile_guard(id);
        let _g = guard.lock();

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
        self.device.journal().record(
            EventKind::Info,
            format!("calendar.cancel meeting={}", id.raw()),
        );
        let reserved = rec.reserved.clone();
        rec.status = MeetingStatus::Cancelled;
        rec.reserved.clear();
        self.put_meeting(&rec)?;
        let svc = calendar_service();
        let participants = rec.all_participants();

        // Step 5: update the calendar databases (free the slots). This
        // fires permanent availability links at each device. A round of
        // its own, before the cascade: a waiter the cascade promotes
        // reconciles at once and must find the slot free.
        let _ = self.device.engine().invoke_group(
            &participants,
            &svc,
            "release_slot",
            vec![
                Value::from(rec.ordinal),
                Value::from(id.raw()),
                Value::str("cancelled"),
            ],
        );

        // Steps 1–4, 6–7: delete the link web; cascades along the corr and
        // promotes the highest-priority waiting links at every device.
        loop {
            let links = self.device.links().by_corr(&rec.corr)?;
            let Some(first) = links.first() else { break };
            let _ = self.device.links().delete(first.id, true);
        }
        self.clear_backlinks(id)?;

        // Housekeeping, one round: the cancelled record to everyone, the
        // availability queues of this meeting dropped where this initiator
        // queued one, and the notice to whoever held the slot.
        let me = self.user();
        let queued = self.marked(T_AVAILQ, id)?;
        let queued_peers = others(&queued, me);
        let mail_to = others(&reserved, me);
        let mail_svc = mailbox_service();
        let mut batch: Vec<Call<'_>> =
            Call::broadcast(&participants, &svc, "update_meeting", vec![rec.to_value()]).collect();
        batch.extend(Call::broadcast(
            &queued_peers,
            &svc,
            "drop_availability",
            vec![Value::from(id.raw())],
        ));
        batch.extend(Call::broadcast(
            &mail_to,
            &mail_svc,
            "deliver",
            Mailbox::deliver_args(
                &format!("cancelled: {}", rec.title),
                &format!("meeting {} was cancelled", rec.id),
            ),
        ));
        let _ = self.housekeeping(&batch);
        if queued.contains(&me) {
            let _ = self.drop_availability_local(id);
        }
        self.unmark(T_AVAILQ, id, &queued)
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
        let out = self.device.engine().invoke(
            rec.initiator,
            &calendar_service(),
            "change_request",
            vec![
                Value::from(id.raw()),
                Value::from(new_slot.ordinal()),
                Value::from(self.user().raw()),
            ],
        )?;
        out.as_bool()
    }

    /// Initiator side of a change request: negotiation-and over every
    /// current holder at the new slot; only if all can move does the
    /// meeting move.
    pub(crate) fn handle_change_request(&self, id: MeetingId, new_ordinal: u64) -> SydResult<bool> {
        let guard = self.reconcile_guard(id);
        let _g = guard.lock();
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
        let change = Self::reserve_change(&moved_rec);
        let parts: Vec<Participant> = holders
            .iter()
            .map(|&u| Participant::new(u, slot_entity(new_ordinal), change.clone()))
            .collect();
        let outcome = self.device.negotiator().negotiate_and(&parts)?;
        if !outcome.satisfied {
            return Ok(false);
        }

        let svc = calendar_service();
        let participants = rec.all_participants();
        // Free the old slots and retire the old link web.
        let _ = self.device.engine().invoke_group(
            &participants,
            &svc,
            "release_slot",
            vec![
                Value::from(old_ordinal),
                Value::from(id.raw()),
                Value::str(rec.status.as_str()),
            ],
        );
        loop {
            let links = self.device.links().by_corr(&rec.corr)?;
            let Some(first) = links.first() else { break };
            let _ = self.device.links().delete(first.id, true);
        }
        self.clear_backlinks(id)?;

        rec.ordinal = new_ordinal;
        self.put_meeting(&rec)?;
        // Fresh forward link at the new slot, then a repair round to
        // rebuild back links, availability queues and the status.
        let refs: Vec<LinkRef> = participants
            .iter()
            .map(|&u| LinkRef::new(u, slot_entity(new_ordinal), "reserve"))
            .collect();
        self.device.links().add_local(
            LinkSpec::negotiation(slot_entity(new_ordinal), Constraint::And, refs)
                .with_priority(rec.priority)
                .with_corr(rec.corr.clone()),
        )?;
        drop(_g);
        let _ = self.reconcile(id)?;
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
        let out = self.device.engine().invoke(
            rec.initiator,
            &calendar_service(),
            "leave_request",
            vec![Value::from(id.raw()), Value::from(self.user().raw())],
        )?;
        out.as_bool()
    }

    pub(crate) fn handle_leave_request(&self, id: MeetingId, user: UserId) -> SydResult<bool> {
        let guard = self.reconcile_guard(id);
        let _g = guard.lock();
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
            let change = Self::reserve_change(&rec);
            let parts: Vec<Participant> = candidates
                .iter()
                .map(|&u| Participant::new(u, slot_entity(rec.ordinal), change.clone()))
                .collect();
            let outcome = self.device.negotiator().negotiate_available(&parts)?;
            let mut extended = hypothetical.clone();
            extended.extend(outcome.committed.iter().copied());
            if !rec.constraints_satisfied_by(&extended) {
                // Release the recruits we grabbed but cannot use.
                let _ = self.device.engine().invoke_group(
                    &outcome.committed,
                    &calendar_service(),
                    "release_slot",
                    vec![
                        Value::from(rec.ordinal),
                        Value::from(id.raw()),
                        Value::str(rec.status.as_str()),
                    ],
                );
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
        let _ = self.device.engine().invoke(
            user,
            &calendar_service(),
            "release_slot",
            vec![
                Value::from(rec.ordinal),
                Value::from(id.raw()),
                Value::str(rec.status.as_str()),
            ],
        );
        let participants = rec.all_participants();
        let _ = self.device.engine().invoke_group(
            &participants,
            &calendar_service(),
            "update_meeting",
            vec![rec.to_value()],
        );
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
        self.release_local(rec.ordinal, id, rec.status.as_str())?;
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
                let _ = self.device.engine().invoke(
                    rec.initiator,
                    &calendar_service(),
                    "peer_available",
                    vec![Value::from(id.raw())],
                );
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
                .publish_local("calendar.reschedule_failed", &Value::str(err.to_string()));
        }
    }

    fn auto_reschedule_inner(&self, id: MeetingId, old_ordinal: u64) -> SydResult<()> {
        let Some(mut rec) = self.meeting(id)? else {
            return Ok(());
        };
        if rec.initiator != self.user() || rec.status == MeetingStatus::Cancelled {
            return Ok(());
        }
        let svc = calendar_service();
        let participants = rec.all_participants();

        // Release whatever remains of the old reservation and retire the
        // old link web (promoting any waiting links at those slots).
        let _ = self.device.engine().invoke_group(
            &participants,
            &svc,
            "release_slot",
            vec![
                Value::from(old_ordinal),
                Value::from(id.raw()),
                Value::str("bumped"),
            ],
        );
        loop {
            let links = self.device.links().by_corr(&rec.corr)?;
            let Some(first) = links.first() else { break };
            let _ = self.device.links().delete(first.id, true);
        }
        self.clear_backlinks(id)?;

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
        let refs: Vec<LinkRef> = participants
            .iter()
            .map(|&u| LinkRef::new(u, slot_entity(rec.ordinal), "reserve"))
            .collect();
        self.device.links().add_local(
            LinkSpec::negotiation(slot_entity(rec.ordinal), Constraint::And, refs)
                .with_priority(rec.priority)
                .with_corr(rec.corr.clone()),
        )?;
        let status = self.reconcile(id)?;
        let _ = self.mailbox.send_group(
            &others(&participants, self.user()),
            &format!("rescheduled: {}", rec.title),
            &format!("moved to ordinal {} ({status:?})", rec.ordinal),
        );
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::app::arg;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use syd_core::SydEnv;
    use syd_net::NetConfig;

    /// Counts the `drop_availability` calls `app` serves, then serves them.
    fn count_drops(app: &Arc<CalendarApp>) -> Arc<AtomicUsize> {
        let count = Arc::new(AtomicUsize::new(0));
        let (weak, counter) = (Arc::downgrade(app), Arc::clone(&count));
        app.device
            .register_service(
                &calendar_service(),
                "drop_availability",
                Arc::new(move |_ctx, args: &[Value]| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                    app.drop_availability_local(MeetingId::new(arg(args, 0)?.as_i64()? as u64))?;
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        count
    }

    fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// `drop_availability` goes only where this initiator queued an
    /// availability link: nowhere for a meeting nobody blocked, once to
    /// each member a promotion reserved, and nowhere again on the cancel
    /// that follows.
    #[test]
    fn drop_availability_follows_the_queued_links() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let apps: Vec<Arc<CalendarApp>> = (0..4)
            .map(|i| CalendarApp::install(&env.device(&format!("u{i}"), "").unwrap()).unwrap())
            .collect();
        let drops: Vec<Arc<AtomicUsize>> = apps.iter().map(count_drops).collect();
        let dropped = || -> Vec<usize> { drops.iter().map(|d| d.load(Ordering::SeqCst)).collect() };
        let (a, b) = (&apps[0], &apps[3]);
        let shared = vec![apps[1].user(), apps[2].user()];
        let slot = TimeSlot::new(2, 9);

        // Nobody blocked: no availability link anywhere, so no drop.
        let first = a
            .schedule(MeetingSpec::plain("first", slot, shared.clone()))
            .unwrap();
        assert_eq!(first.status, MeetingStatus::Confirmed);
        assert_eq!(dropped(), vec![0, 0, 0, 0]);

        // B's meeting queues behind it at both shared members.
        let second = b
            .schedule(MeetingSpec::plain("second", slot, shared.clone()))
            .unwrap();
        assert_eq!(second.status, MeetingStatus::Tentative);
        assert_eq!(b.marked(T_AVAILQ, second.meeting).unwrap(), shared);
        assert_eq!(dropped(), vec![0, 0, 0, 0]);

        // A cancels (it queued nothing: no drop); the promotion reserves
        // both members for B, and each is sent exactly one drop.
        a.cancel(first.meeting).unwrap();
        wait_for(
            || b.meeting(second.meeting).unwrap().unwrap().status == MeetingStatus::Confirmed,
            "the promotion",
        );
        wait_for(
            || dropped() == vec![0, 1, 1, 0],
            "one drop per promoted member",
        );
        wait_for(
            || b.marked(T_AVAILQ, second.meeting).unwrap().is_empty(),
            "the queue rows to go",
        );

        // Cancel after promotion: nothing is queued any more.
        b.cancel(second.meeting).unwrap();
        assert_eq!(dropped(), vec![0, 1, 1, 0]);
        for app in &apps {
            let left = app.device.links().all().unwrap();
            assert!(
                left.iter().all(|l| !l.corr.starts_with("avail:")),
                "{} keeps an availability link: {left:?}",
                app.user()
            );
        }
    }
}
