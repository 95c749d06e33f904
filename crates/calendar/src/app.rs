//! The per-user calendar application object (`SyDCalendar`).
//!
//! One [`CalendarApp`] wraps one [`DeviceRuntime`]: it owns the user's
//! slot and meeting tables, implements the kernel's [`EntityHandler`] (how
//! negotiated reservations apply to slots), the [`SubscriptionHandler`]
//! (how link notifications drive re-confirmation), the waiting-link
//! promotion hook, and the `calendar` service peers invoke.
//!
//! Scheduling *operations* (schedule / reconcile / cancel / change /
//! leave / bump) live in [`crate::app::ops`] as methods on the same type.

mod busy;
pub mod ops;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use syd_core::links::{Link, LinkSpec};
use syd_core::{
    DeviceRuntime, EntityHandler, InvokeCtx, Method, Methods, SubscriptionHandler, Verb,
};
use syd_store::{Column, ColumnType, Predicate, Row, Schema, Store};
use syd_telemetry::names;
use syd_telemetry::{Counter, Histogram};
use syd_types::sync::{Condvar, Mutex, Rank};
use syd_types::time::SLOTS_PER_DAY;
use syd_types::{
    MeetingId, Priority, ServiceName, SlotBitmap, SlotRange, SydError, SydResult, Text, TimeSlot,
    UserId, Value,
};
use syd_wire::{decode_from_slice, AsValue, Encoded, Record};

use self::busy::BusyWords;
use crate::delegation::AUTHORITY_CHECK;
use crate::mailbox::Mailbox;
use crate::model::{parse_slot_entity, slot_entity, Meeting, MeetingStatus, SlotState};

/// The calendar application's service.
pub const CALENDAR: &ServiceName = &ServiceName::constant("calendar");

/// The calendar application's service name.
pub fn calendar_service() -> ServiceName {
    CALENDAR.clone()
}

/// Availability over `[start, end)` ordinals (set bit = free). A window
/// longer than [`MAX_FREE_WINDOW`] is refused.
pub const FREE_SLOTS_BITMAP: Verb<(u64, u64), SlotBitmap> =
    Verb::new(CALENDAR, "free_slots_bitmap");
/// A slot's occupant and the occupant's priority.
pub const SLOT_STATUS: Verb<(u64,), (SlotState, Priority)> = Verb::new(CALENDAR, "slot_status");
/// The stored record of a meeting, if any.
pub const MEETING_INFO: Verb<(MeetingId,), Option<Record<Meeting>>> =
    Verb::new(CALENDAR, "meeting_info");
/// Upserts a meeting record and aligns the slot row it holds.
pub const UPDATE_MEETING: Verb<(Record<Meeting>,), ()> = Verb::new(CALENDAR, "update_meeting");
/// Gives a meeting's hold on an ordinal up: (ordinal, meeting, the status
/// to record, whether the meeting retires its links here); answers whether
/// the slot was freed.
pub const RELEASE_SLOT: Verb<(u64, MeetingId, MeetingStatus, bool), bool> =
    Verb::new(CALENDAR, "release_slot");
/// Queues an availability link for a meeting at an unavailable
/// participant's slot.
pub const QUEUE_AVAILABILITY: Verb<(u64, Record<Meeting>), ()> =
    Verb::new(CALENDAR, "queue_availability");
/// Served by initiators: a participant's slot opened up; answers whether
/// the meeting is confirmed.
pub const PEER_AVAILABLE: Verb<(MeetingId,), bool> = Verb::new(CALENDAR, "peer_available");
/// Served by initiators: a meeting was bumped off an ordinal.
pub const MEETING_BUMPED: Verb<(MeetingId, u64), ()> = Verb::new(CALENDAR, "meeting_bumped");
/// Served by initiators: move a meeting to a new ordinal; answers whether
/// it moved.
pub const CHANGE_REQUEST: Verb<(MeetingId, u64), bool> = Verb::new(CALENDAR, "change_request");
/// Removes this user's queued availability link for a meeting.
pub const DROP_AVAILABILITY: Verb<(MeetingId,), ()> = Verb::new(CALENDAR, "drop_availability");
/// Served by initiators: a user asks to leave a meeting; answers whether
/// they may.
pub const LEAVE_REQUEST: Verb<(MeetingId, UserId), bool> = Verb::new(CALENDAR, "leave_request");

pub(crate) const T_SLOTS: &str = "slots";
pub(crate) const T_MEETINGS: &str = "meetings";
/// Initiator-local bookkeeping: at which participants this initiator has
/// queued an availability link for a meeting (`queue_availability` sent,
/// the participant neither reserved nor sent `drop_availability` since).
/// An availability link exists nowhere else, so only these users are ever
/// sent a `drop_availability`.
pub(crate) const T_AVAILQ: &str = "availq";

/// The longest window `free_slots_bitmap` answers, in slots: a leap year
/// of hours. A longer one, or a negative bound, is refused before
/// anything is allocated for it.
pub const MAX_FREE_WINDOW: u64 = 366 * SLOTS_PER_DAY as u64;

/// Creates the two tables a proxy replicates (§5.2), on the device and the
/// replica alike: slot rows, and meeting records as their encoded bytes.
pub(crate) fn create_replicated_tables(store: &Store) -> SydResult<()> {
    store.create_table(Schema::new(
        T_SLOTS,
        vec![
            Column::required("ordinal", ColumnType::I64),
            // The holding meeting's status tag and id; both null for a
            // personal engagement.
            Column::nullable("status", ColumnType::I64),
            Column::nullable("meeting", ColumnType::I64),
            Column::required("priority", ColumnType::I64),
        ],
        &["ordinal"],
    )?)?;
    store.create_table(Schema::new(
        T_MEETINGS,
        vec![
            Column::required("id", ColumnType::I64),
            Column::required("data", ColumnType::Bytes),
        ],
        &["id"],
    )?)
}

/// One user's calendar application. Always used through `Arc`.
pub struct CalendarApp {
    /// This app, for the background jobs it hands to the pool.
    me: Weak<CalendarApp>,
    pub(crate) device: DeviceRuntime,
    pub(crate) store: Store,
    pub(crate) mailbox: Arc<Mailbox>,
    pub(crate) metrics: CalendarMetrics,
    /// The ordinals with a `slots` row. Only [`CalendarApp::set_slot`] and
    /// [`CalendarApp::clear_slot`] write a row, and each holds this guard
    /// across the write: a bit never disagrees with its row.
    busy: Mutex<BusyWords>,
    next_meeting: AtomicU64,
    /// Meetings with a reconcile round under way: an entry lives while a
    /// [`ReconcileGuard`] of the meeting does.
    pub(crate) reconciling: Mutex<HashSet<MeetingId>>,
    /// Notified when a reconcile round ends.
    round_over: Condvar,
    /// Meetings currently being rescheduled after a bump (dedup guard).
    pub(crate) rescheduling: Mutex<Vec<MeetingId>>,
}

/// Preregistered handles into the device's metrics registry; recording on
/// the scheduling paths never touches the registry lock.
pub(crate) struct CalendarMetrics {
    /// End-to-end `schedule()` latency ("calendar.schedule").
    pub(crate) schedule: Histogram,
    /// Per-round `reconcile()` latency ("calendar.reconcile").
    pub(crate) reconcile: Histogram,
    /// Meetings cancelled by this initiator ("calendar.cancels").
    pub(crate) cancels: Counter,
}

impl CalendarApp {
    /// Installs the calendar application on `device`: tables, mailbox,
    /// entity/subscription/promotion handlers and the `calendar` service.
    pub fn install(device: &DeviceRuntime) -> SydResult<Arc<CalendarApp>> {
        let store = device.store().clone();
        create_replicated_tables(&store)?;
        let mut busy = BusyWords::default();
        store.visit(T_SLOTS, &Predicate::True, |row| {
            busy.insert(row[0].as_i64()? as u64);
            Ok(())
        })?;
        store.create_table(Schema::new(
            T_AVAILQ,
            vec![
                Column::required("meeting", ColumnType::I64),
                Column::required("user", ColumnType::I64),
            ],
            &["meeting", "user"],
        )?)?;

        let mailbox = Mailbox::install(device)?;
        let registry = device.metrics();
        let metrics = CalendarMetrics {
            schedule: registry.histogram(names::CALENDAR_SCHEDULE),
            reconcile: registry.histogram(names::CALENDAR_RECONCILE),
            cancels: registry.counter(names::CALENDAR_CANCELS),
        };
        let app = Arc::new_cyclic(|me| CalendarApp {
            me: Weak::clone(me),
            device: device.clone(),
            store,
            mailbox,
            metrics,
            busy: Mutex::new(Rank::Calendar, busy),
            next_meeting: AtomicU64::new(1),
            reconciling: Mutex::new(Rank::Calendar, HashSet::new()),
            round_over: Condvar::new(),
            rescheduling: Mutex::new(Rank::Calendar, Vec::new()),
        });

        device.set_entity_handler(Arc::new(SlotEntityHandler(Arc::downgrade(&app))));
        device.set_subscription_handler(Arc::new(CalendarNotifications(Arc::downgrade(&app))));

        // Waiting-link promotion (§4.2 op. 3): a promoted availability link
        // is fired immediately — it notifies the waiting meeting's
        // initiator that this slot has opened up.
        let weak = Arc::downgrade(&app);
        device.links().set_promotion_handler(Arc::new(move |link| {
            let Some(app) = weak.upgrade() else { return };
            let link = link.clone();
            // Fire outside the deletion call stack.
            app.in_background(move |app| {
                let _ = app.device.links().fire_link(
                    &link,
                    &Value::str("promoted"),
                    app.device.negotiator(),
                );
            });
        }));

        device.serve(CALENDAR, &app, CALENDAR_METHODS);
        app.install_delegation()?;
        // The mailbox's service and the calendar's, in one wave.
        device.publish()?;
        Ok(app)
    }

    /// The owning user.
    pub fn user(&self) -> UserId {
        self.device.user()
    }

    /// The underlying device.
    pub fn device(&self) -> &DeviceRuntime {
        &self.device
    }

    /// This user's mailbox.
    pub fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }

    pub(crate) fn alloc_meeting(&self) -> MeetingId {
        MeetingId::new(
            (self.user().raw() << 24) | self.next_meeting.fetch_add(1, Ordering::Relaxed),
        )
    }

    // ---- local slot state --------------------------------------------------

    /// State of one local slot.
    pub fn slot_state(&self, ordinal: u64) -> SydResult<SlotState> {
        Ok(slot_of(&self.store, ordinal)?.0)
    }

    /// Priority attached to the slot's occupant (MIN when free).
    pub(crate) fn slot_priority(&self, ordinal: u64) -> SydResult<Priority> {
        Ok(slot_of(&self.store, ordinal)?.1)
    }

    /// Writes `ordinal`'s row: an update if the slot has one (its bit is
    /// set), else an insert. `holder` is the meeting holding the slot and
    /// its status, `None` for a personal engagement.
    pub(crate) fn set_slot(
        &self,
        ordinal: u64,
        holder: Option<(MeetingId, MeetingStatus)>,
        priority: Priority,
    ) -> SydResult<()> {
        let key = Value::from(ordinal);
        let (meeting, status) = match holder {
            Some((m, status)) => (Value::from(m.raw()), Value::from(status)),
            None => (Value::Null, Value::Null),
        };
        let priority = Value::from(priority.level() as u32);
        let mut busy = self.busy.lock();
        if busy.contains(ordinal) {
            self.store.update(
                T_SLOTS,
                &Predicate::Eq("ordinal".into(), key),
                &[
                    ("status".into(), status),
                    ("meeting".into(), meeting),
                    ("priority".into(), priority),
                ],
            )?;
        } else {
            self.store
                .insert(T_SLOTS, [key, status, meeting, priority])?;
            busy.insert(ordinal);
        }
        Ok(())
    }

    /// Deletes `ordinal`'s row — only if `held_by` holds the slot, when
    /// given — and returns whether there was a row to delete.
    pub(crate) fn clear_slot(&self, ordinal: u64, held_by: Option<MeetingId>) -> SydResult<bool> {
        let key = Value::from(ordinal);
        let mut busy = self.busy.lock();
        // The guard keeps the row as read here until the delete.
        let row = || self.store.get_by_key(T_SLOTS, std::slice::from_ref(&key));
        if let Some(m) = held_by {
            if !row()?.is_some_and(|row| row.values[2] == Value::from(m.raw())) {
                return Ok(false);
            }
        }
        let deleted = (self.store).delete(T_SLOTS, &Predicate::Eq("ordinal".into(), key))? > 0;
        if deleted {
            busy.remove(ordinal);
        }
        Ok(deleted)
    }

    /// Marks a personal (non-meeting) engagement.
    pub fn mark_busy(&self, slot: TimeSlot) -> SydResult<()> {
        match self.slot_state(slot.ordinal())? {
            SlotState::Free => self.set_slot(slot.ordinal(), None, Priority::MAX),
            other => Err(SydError::App(format!(
                "slot {slot} is not free ({other:?})"
            ))),
        }
    }

    /// Frees a personal engagement; fires availability links queued on the
    /// slot ("whenever C becomes available … it will get triggered", §5).
    pub fn free_personal(&self, slot: TimeSlot) -> SydResult<()> {
        match self.slot_state(slot.ordinal())? {
            SlotState::Busy => {
                self.clear_slot(slot.ordinal(), None)?;
                self.on_slot_freed(slot.ordinal());
                Ok(())
            }
            other => Err(SydError::App(format!(
                "slot {slot} is not a personal engagement ({other:?})"
            ))),
        }
    }

    /// Free slot ordinals within `[start, end)` ordinals: the list-form
    /// reference the bitmap path is tested against.
    pub fn free_ordinals(&self, start: u64, end: u64) -> SydResult<Vec<u64>> {
        let occupied: Vec<u64> = self
            .store
            .query(T_SLOTS)
            .filter(Predicate::Between(
                "ordinal".into(),
                Value::from(start),
                Value::from(end.saturating_sub(1)),
            ))
            .column("ordinal")?
            .into_iter()
            .filter_map(|v| v.as_i64().ok().map(|n| n as u64))
            .collect();
        Ok((start..end).filter(|o| !occupied.contains(o)).collect())
    }

    /// Availability over `[start, end)` ordinals as a packed bitmap (set
    /// bit = free). Same answer as [`CalendarApp::free_ordinals`] but one
    /// bit per slot on the wire, whatever the calendar's density. Built
    /// from the busy bits alone: no row is read (debug builds check the
    /// answer against the rows).
    pub fn free_bitmap(&self, start: u64, end: u64) -> SydResult<SlotBitmap> {
        let busy = self.busy.lock();
        let bm = busy.free_bitmap(start, end);
        #[cfg(debug_assertions)]
        assert_eq!(
            bm,
            free_bitmap_of(&self.store, start, end)?,
            "the busy bits disagree with the slot rows over [{start}, {end})"
        );
        Ok(bm)
    }

    // ---- local meeting records -----------------------------------------------

    /// The locally stored record of a meeting.
    pub fn meeting(&self, id: MeetingId) -> SydResult<Option<Meeting>> {
        let row = self.meeting_row(id)?;
        row.map(|row| decode_from_slice(row.values[1].as_bytes()?))
            .transpose()
    }

    /// The row of the locally stored record of a meeting, whose record
    /// [`stored`] reads in place.
    fn meeting_row(&self, id: MeetingId) -> SydResult<Option<Row>> {
        (self.store).get_by_key(T_MEETINGS, &[Value::from(id.raw())])
    }

    /// The status of the locally stored record of a meeting, read without
    /// decoding the record.
    pub(crate) fn meeting_status(&self, id: MeetingId) -> SydResult<Option<MeetingStatus>> {
        let row = self.meeting_row(id)?;
        let status = |row: &Row| Ok(stored(row)?.status);
        row.as_ref().map(status).transpose()
    }

    /// Upserts a meeting record, the one write of a `meetings` row: the
    /// encoding becomes the row's cell as it is, so a member stores the
    /// bytes it was sent. Two service calls of one batch may write the
    /// same new record at once (`update_meeting` and `queue_availability`
    /// of a corrective round), so losing the insert to the other writer
    /// falls back to the update instead of failing the call.
    pub(crate) fn put_meeting(&self, record: Record<Meeting>) -> SydResult<()> {
        let key = Value::from(Encoded::<Meeting>::of(record.value())?.id.raw());
        let by_id = Predicate::Eq("id".into(), key.clone());
        let data = [("data".into(), record.into_value())];
        if self.store.update(T_MEETINGS, &by_id, &data)? > 0 {
            return Ok(());
        }
        let [(_, record)] = &data;
        if let Err(err) = self.store.insert(T_MEETINGS, [key, record.clone()]) {
            if self.store.update(T_MEETINGS, &by_id, &data)? == 0 {
                return Err(err);
            }
        }
        Ok(())
    }

    // ---- slot-freed trigger ----------------------------------------------------

    /// Fires the highest-priority *permanent* availability link anchored on
    /// the freed slot. (Waiting/tentative availability links are promoted —
    /// and fired — by the kernel's cascade-delete path instead.)
    pub(crate) fn on_slot_freed(&self, ordinal: u64) {
        let entity = slot_entity(ordinal);
        let Ok(links) = self.device.links().permanent_on(&entity, true) else {
            return;
        };
        let best = links
            .into_iter()
            .filter(|l| {
                l.refs
                    .first()
                    .is_some_and(|r| r.action.starts_with("peer_available:"))
            })
            .max_by_key(|l| l.priority);
        if let Some(link) = best {
            self.in_background(move |app| {
                let _ = app.device.links().fire_link(
                    &link,
                    &Value::str("slot freed"),
                    app.device.negotiator(),
                );
            });
        }
    }

    /// Runs `work` as a job on the device's runtime pool, off the caller's
    /// call stack; it inherits the caller's trace, and the app is held
    /// only weakly until the job runs.
    pub(crate) fn in_background(&self, work: impl FnOnce(&CalendarApp) + Send + 'static) {
        let me = Weak::clone(&self.me);
        self.device.node().runtime().pool().execute(move || {
            if let Some(app) = me.upgrade() {
                work(&app);
            }
        });
    }

    /// Serializes `id`'s reconcile rounds: waits while another round of
    /// the meeting runs (announced, so that a pool worker hands its turn
    /// on) and keeps the meeting until the guard drops. No lock is held
    /// meanwhile, so the round may make remote calls.
    pub(crate) fn reconcile_guard(&self, id: MeetingId) -> ReconcileGuard<'_> {
        let mut reconciling = self.reconciling.lock();
        while !reconciling.insert(id) {
            reconciling = self.round_over.wait(reconciling);
        }
        ReconcileGuard { app: self, id }
    }
}

/// One meeting's reconcile round, under way until dropped.
pub(crate) struct ReconcileGuard<'a> {
    app: &'a CalendarApp,
    id: MeetingId,
}

impl Drop for ReconcileGuard<'_> {
    fn drop(&mut self) {
        self.app.reconciling.lock().remove(&self.id);
        self.app.round_over.notify_all();
    }
}

// ---------------------------------------------------------------------------
// EntityHandler: how negotiated changes apply to slots (§4.3 participant side)
// ---------------------------------------------------------------------------

struct SlotEntityHandler(Weak<CalendarApp>);

impl EntityHandler for SlotEntityHandler {
    fn prepare(&self, entity: &str, change: &Value) -> SydResult<()> {
        let app = self.0.upgrade().ok_or(SydError::Shutdown)?;
        let ordinal = parse_slot_entity(entity)?;
        match change.get("action")?.as_str()? {
            "reserve" => {
                let meeting = MeetingId::from_value(change.get("meeting")?.clone())?;
                let priority = Priority::from_value(change.get("priority")?.clone())?;
                match app.slot_state(ordinal)? {
                    SlotState::Free => Ok(()),
                    SlotState::Busy => Err(SydError::App(format!(
                        "slot {ordinal} is a personal engagement"
                    ))),
                    SlotState::Tentative(m) | SlotState::Reserved(m) if m == meeting => Ok(()),
                    SlotState::Tentative(_) | SlotState::Reserved(_) => {
                        let existing = app.slot_priority(ordinal)?;
                        if priority.outranks(existing) {
                            Ok(()) // bump allowed (§6)
                        } else {
                            Err(SydError::App(format!(
                                "slot {ordinal} is held at {existing} >= {priority}"
                            )))
                        }
                    }
                }
            }
            "release" => Ok(()),
            other => Err(SydError::Protocol(format!("bad change action `{other}`"))),
        }
    }

    fn commit(&self, entity: &str, mut change: Value) -> SydResult<()> {
        let app = self.0.upgrade().ok_or(SydError::Shutdown)?;
        let ordinal = parse_slot_entity(entity)?;
        match change.get("action")?.as_str()? {
            "reserve" => {
                let meeting = MeetingId::from_value(change.get("meeting")?.clone())?;
                let priority = Priority::from_value(change.get("priority")?.clone())?;
                // The record as it stands once this round's commits are
                // through, and the back link: both checked before anything
                // is written, and the record stored as it arrived.
                let record = Record::<Meeting>::from_value(change.take("record")?)?;
                let rec = Encoded::<Meeting>::of(record.value())?;
                let link = change.get("link").ok().map(Encoded::<Link>::of);
                let link = link.transpose()?;
                // A different current occupant means we are bumping it.
                let bumped = match app.slot_state(ordinal)? {
                    SlotState::Tentative(m) | SlotState::Reserved(m) if m != meeting => Some(m),
                    _ => None,
                };
                let confirmed = rec.status == MeetingStatus::Confirmed;
                let was_confirmed = app.meeting_status(meeting)? == Some(MeetingStatus::Confirmed);
                let status = if confirmed {
                    MeetingStatus::Confirmed
                } else {
                    MeetingStatus::Tentative
                };
                // E-mail on the tentative → confirmed edge (§5.1), written
                // before the record moves into the store.
                let to = rec.initiator;
                let mail = (confirmed && !was_confirmed && to != app.user()).then(|| {
                    let (id, at) = (rec.id, rec.ordinal);
                    let subject = Text::format(format_args!("confirmed: {}", rec.title));
                    let body = Text::format(format_args!("meeting {id} at ordinal {at}"));
                    (subject, body)
                });
                app.set_slot(ordinal, Some((meeting, status)), priority)?;
                app.put_meeting(record)?;
                // The back link, written before the entity lock goes: a
                // later meeting on this slot anchors its waiting link on
                // it (§4.2 op. 3), and that meeting's mark cannot get in
                // before this commit returns. A repair round re-commits
                // holders; the link they have stays (waiters hang on it).
                if let Some(link) = link {
                    let links = app.device.links();
                    if links.find(link.corr, entity)?.is_none() {
                        links.install_remote(&link)?;
                    }
                }
                // Reserved now: the availability link queued while this
                // user was missing has done its work.
                app.drop_availability_local(meeting)?;
                if let Some((subject, body)) = mail {
                    app.mailbox.deliver_local(to, subject, body)?;
                }
                if let Some(old) = bumped {
                    app.handle_local_bump(old, ordinal)?;
                }
                app.device
                    .events()
                    .publish_local("calendar.reserved", || Value::from(ordinal));
                Ok(())
            }
            "release" => {
                let meeting = MeetingId::from_value(change.get("meeting")?.clone())?;
                if app.clear_slot(ordinal, Some(meeting))? {
                    app.on_slot_freed(ordinal);
                }
                Ok(())
            }
            other => Err(SydError::Protocol(format!("bad change action `{other}`"))),
        }
    }

    fn abort(&self, _entity: &str, _change: &Value) {
        // prepare wrote nothing, so nothing to undo.
    }
}

impl CalendarApp {
    /// A reservation just bumped `old` off `ordinal` on this device:
    /// record it and notify the bumped meeting's initiator (§6 "a low
    /// priority meeting can be bumped … and is then automatically
    /// rescheduled").
    fn handle_local_bump(&self, old: MeetingId, ordinal: u64) -> SydResult<()> {
        if let Some(row) = self.meeting_row(old)? {
            let rec = stored(&row)?;
            self.put_meeting(rec.with_status(MeetingStatus::Bumped, false)?)?;
            let initiator = rec.initiator;
            self.in_background(move |app| {
                let engine = app.device.engine();
                let _ = engine.call(initiator, MEETING_BUMPED, (old, ordinal));
            });
        }
        self.device
            .events()
            .publish_local("calendar.bumped", || Value::from(old.raw()));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SubscriptionHandler: link notifications drive automatic repair
// ---------------------------------------------------------------------------

struct CalendarNotifications(Weak<CalendarApp>);

impl SubscriptionHandler for CalendarNotifications {
    fn on_notify(&self, _entity: &str, action: &str, _payload: &Value) -> SydResult<Value> {
        let app = self.0.upgrade().ok_or(SydError::Shutdown)?;
        let Some((kind, id)) = action.split_once(':') else {
            return Ok(Value::Null);
        };
        let Ok(raw) = id.parse::<u64>() else {
            return Ok(Value::Null);
        };
        let meeting = MeetingId::new(raw);
        match kind {
            // A pending participant's slot opened up, or a participant's
            // schedule changed: re-run the reservation round. A pool job,
            // so the notifying call chain is never blocked on a negotiation.
            "peer_available" | "participant_changed" => {
                let only_if_missing = kind == "peer_available";
                app.in_background(move |app| {
                    let _ = app.reconcile_round(meeting, only_if_missing);
                });
                Ok(Value::Null)
            }
            _ => Ok(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// the `calendar` service (peer-invocable methods)
// ---------------------------------------------------------------------------

/// The `calendar` service: what peers call on a user's device. Its three
/// reads are also what a proxy serves from the user's replica
/// ([`crate::proxy_support`]).
static CALENDAR_METHODS: &Methods<CalendarApp> = &[
    &Method::verb(FREE_SLOTS_BITMAP, free_slots_bitmap),
    &Method::verb(SLOT_STATUS, slot_status),
    &Method::verb(MEETING_INFO, meeting_info),
    &Method::verb(UPDATE_MEETING, |app: &CalendarApp, _, (rec,)| {
        // A held slot's row follows the meeting's status, while it is live.
        if matches!(
            rec.status,
            MeetingStatus::Confirmed | MeetingStatus::Tentative
        ) && app.slot_state(rec.ordinal)?.meeting() == Some(rec.id)
        {
            app.set_slot(rec.ordinal, Some((rec.id, rec.status)), rec.priority)?;
        }
        app.put_meeting(rec.to_record())
    }),
    &Method::verb(
        RELEASE_SLOT,
        |app: &CalendarApp, _, (ordinal, meeting, to, retire)| {
            app.release_local(ordinal, meeting, to, retire)
        },
    ),
    &Method::verb(
        QUEUE_AVAILABILITY,
        |app: &CalendarApp, _, (ordinal, rec)| app.queue_availability_local(ordinal, &rec),
    ),
    &Method::verb(PEER_AVAILABLE, |app: &CalendarApp, _, (meeting,)| {
        let status = app.reconcile_round(meeting, true)?.status;
        Ok(status == MeetingStatus::Confirmed)
    }),
    &Method::verb(
        MEETING_BUMPED,
        |app: &CalendarApp, _, (meeting, old_ordinal)| {
            app.auto_reschedule(meeting, old_ordinal);
            Ok(())
        },
    ),
    &Method::verb(
        CHANGE_REQUEST,
        |app: &CalendarApp, _, (meeting, new_ordinal)| {
            app.handle_change_request(meeting, new_ordinal)
        },
    ),
    &Method::verb(DROP_AVAILABILITY, |app: &CalendarApp, _, (meeting,)| {
        app.drop_availability_local(meeting)
    }),
    &Method::verb(LEAVE_REQUEST, |app: &CalendarApp, ctx, (meeting, user)| {
        // Only the user themself may ask to leave (when the deployment
        // authenticates, the claim is verified).
        if ctx.authenticated && ctx.caller != user {
            return Err(SydError::AuthFailed(ctx.caller));
        }
        app.handle_leave_request(meeting, user)
    }),
    &Method::verb(AUTHORITY_CHECK, crate::delegation::authority_check),
];

/// What the calendar's reads need: the store, and the free bitmap. A
/// device answers the bitmap from its busy bits; a proxy replica, which
/// has none, from a scan of its `slots` rows.
pub(crate) trait CalendarView {
    /// The store holding the `slots` and `meetings` tables.
    fn store(&self) -> &Store;
    /// Availability over `[start, end)` (set bit = free).
    fn free_bitmap(&self, start: u64, end: u64) -> SydResult<SlotBitmap>;
}

impl CalendarView for CalendarApp {
    fn store(&self) -> &Store {
        &self.store
    }

    fn free_bitmap(&self, start: u64, end: u64) -> SydResult<SlotBitmap> {
        CalendarApp::free_bitmap(self, start, end)
    }
}

impl CalendarView for Store {
    fn store(&self) -> &Store {
        self
    }

    fn free_bitmap(&self, start: u64, end: u64) -> SydResult<SlotBitmap> {
        free_bitmap_of(self, start, end)
    }
}

/// The free bitmap of `[start, end)`, a window checked where it enters:
/// one longer than [`MAX_FREE_WINDOW`] is a protocol error (a negative
/// bound never reads as a `u64`).
pub(crate) fn free_slots_bitmap<C: CalendarView>(
    cal: &C,
    _ctx: &InvokeCtx,
    (start, end): (u64, u64),
) -> SydResult<SlotBitmap> {
    if end.saturating_sub(start) > MAX_FREE_WINDOW {
        return Err(SydError::Protocol(format!(
            "free_slots_bitmap: a window of {} slots is longer than {MAX_FREE_WINDOW}",
            end - start
        )));
    }
    cal.free_bitmap(start, end)
}

pub(crate) fn slot_status<C: CalendarView>(
    cal: &C,
    _ctx: &InvokeCtx,
    (ordinal,): (u64,),
) -> SydResult<(SlotState, Priority)> {
    slot_of(cal.store(), ordinal)
}

/// The stored record, checked to decode before it is served on.
pub(crate) fn meeting_info<C: CalendarView>(
    cal: &C,
    _ctx: &InvokeCtx,
    (id,): (MeetingId,),
) -> SydResult<Option<Record<Meeting>>> {
    let row = cal
        .store()
        .get_by_key(T_MEETINGS, &[Value::from(id.raw())])?;
    row.map(|row| Record::from_value(row.values[1].clone()))
        .transpose()
}

/// [`CalendarApp::free_bitmap`] by a scan of the `slots` rows of any store
/// holding the table. A proxy answers from its replica this way, which
/// has no busy bits; on a device it is the reference the bits are
/// checked against. The occupied rows of the range are read in place;
/// the bitmap is all it allocates.
pub fn free_bitmap_of(store: &Store, start: u64, end: u64) -> SydResult<SlotBitmap> {
    let end = end.max(start);
    let range = SlotRange::new(TimeSlot::from_ordinal(start), TimeSlot::from_ordinal(end));
    let mut bm = SlotBitmap::all_free(range);
    let occupied = Predicate::Between(
        "ordinal".into(),
        Value::from(start),
        Value::from(end.saturating_sub(1)),
    );
    store.visit(T_SLOTS, &occupied, |row| {
        if let Ok(o) = row[0].as_i64() {
            bm.set_busy(TimeSlot::from_ordinal(o as u64));
        }
        Ok(())
    })?;
    Ok(bm)
}

/// A slot's occupant and the occupant's priority, from any store holding
/// the `slots` table: `(Free, MIN)` when no row holds the slot.
fn slot_of(store: &Store, ordinal: u64) -> SydResult<(SlotState, Priority)> {
    let Some(row) = store.get_by_key(T_SLOTS, &[Value::from(ordinal)])? else {
        return Ok((SlotState::Free, Priority::MIN));
    };
    let state = match (&row.values[1], &row.values[2]) {
        (Value::Null, Value::Null) => SlotState::Busy,
        (status, meeting) => {
            let m = MeetingId::new(meeting.as_i64()? as u64);
            match MeetingStatus::from_tag(status.as_i64()?)? {
                MeetingStatus::Tentative => SlotState::Tentative(m),
                MeetingStatus::Confirmed => SlotState::Reserved(m),
                other => {
                    return Err(SydError::Codec(format!(
                        "slot {ordinal} is held by a meeting in state {other:?}"
                    )))
                }
            }
        }
    };
    Ok((state, Priority::from_value(row.values[3].clone())?))
}

/// The record a `meetings` row stores, read in place.
fn stored(row: &Row) -> SydResult<Encoded<'_, Meeting>> {
    Encoded::of(&row.values[1])
}

/// The correlation id of `user`'s availability link for `meeting`.
fn avail_corr(meeting: MeetingId, user: UserId) -> Text {
    Text::format(format_args!("avail:{}:{}", meeting.raw(), user.raw()))
}

impl CalendarApp {
    /// Writes `status` into the local record of `meeting`, then frees
    /// `ordinal` if the meeting holds it; returns whether it did. A
    /// cancellation also empties the record's reserved list and leaves the
    /// notice (§5.1) where the slot was held.
    ///
    /// With `retire` the meeting is giving the slot up everywhere
    /// (cancelled, moved, bumped) and its links here go too — §4.4's
    /// cascade, delivered by the release instead of a round behind it:
    /// *after* the slot is free, so that the availability link this
    /// promotes and fires finds it free; with the whole roster as
    /// `visited`, since everyone on it is sent the same release. The
    /// initiator's own links stay for [`CalendarApp::retire`], which
    /// deletes them once it knows whom the release did not reach. A leaver
    /// or an unused recruit is released without `retire`: the meeting, and
    /// its links, live on.
    pub(crate) fn release_local(
        &self,
        ordinal: u64,
        meeting: MeetingId,
        status: MeetingStatus,
        retire: bool,
    ) -> SydResult<bool> {
        let cancelled = status == MeetingStatus::Cancelled;
        // The stored row is a snapshot: what is read of it below is the
        // record as it stood, which the write changes only in the status
        // and the reserved list.
        let row = self.meeting_row(meeting)?;
        let rec = row.as_ref().map(stored).transpose()?;
        if let Some(rec) = &rec {
            self.put_meeting(rec.with_status(status, cancelled)?)?;
        }
        let held = self.clear_slot(ordinal, Some(meeting))?;
        if held {
            if let Some(rec) = (rec.as_ref()).filter(|r| cancelled && r.initiator != self.user()) {
                self.mailbox.deliver_local(
                    rec.initiator,
                    Text::format(format_args!("cancelled: {}", rec.title)),
                    Text::format(format_args!("meeting {} was cancelled", rec.id)),
                )?;
            }
            self.on_slot_freed(ordinal);
        }
        // No record, no link: the commit that installs a back link writes
        // the record first.
        if let Some(rec) = rec.filter(|r| retire && r.initiator != self.user()) {
            self.device.links().delete_by_corr(rec.corr, rec.roster())?;
        }
        Ok(held)
    }

    /// Installs a tentative *availability link* at this (unavailable)
    /// participant: a subscription link back to the meeting's initiator,
    /// waiting (§4.2 op. 3) on the link of whatever occupies the slot.
    pub(crate) fn queue_availability_local(
        &self,
        ordinal: u64,
        rec: &Encoded<'_, Meeting>,
    ) -> SydResult<()> {
        self.put_meeting(rec.to_record())?;
        let entity = slot_entity(ordinal);
        let avail_corr = avail_corr(rec.id, self.user());
        // Idempotent: one availability link per (meeting, this user).
        if !self.device.links().ids_by_corr(&avail_corr)?.is_empty() {
            return Ok(());
        }
        let back_ref = syd_core::links::LinkRef::new(
            rec.initiator,
            entity.clone(),
            Text::format(format_args!("peer_available:{}", rec.id.raw())),
        );
        let mut spec = LinkSpec::subscription(entity.clone(), vec![back_ref])
            .with_priority(rec.priority)
            .with_corr(avail_corr);
        // If a meeting occupies the slot, wait on its back link so the
        // kernel promotes us when that meeting is torn down; a personal
        // engagement has no link, so the link stays permanent and
        // `free_personal` fires it directly.
        if let Some(occupier) = self.slot_state(ordinal)?.meeting() {
            let row = self.meeting_row(occupier)?;
            let occupier = row.as_ref().map(stored).transpose()?;
            let links = self.device.links();
            let anchor = occupier.and_then(|o| links.find(o.corr, &entity).ok()?);
            if let Some(link) = anchor {
                spec = spec.waiting_on(link, rec.id.raw());
            }
        }
        self.device.links().add_local(spec)?;
        // Slot already free (raced with a release): tell the initiator now.
        if self.slot_state(ordinal)?.is_free() {
            let initiator = rec.initiator;
            let id = rec.id;
            self.in_background(move |app| {
                let _ = app.device.engine().call(initiator, PEER_AVAILABLE, (id,));
            });
        }
        Ok(())
    }

    /// Removes this user's availability link for `meeting` (it got
    /// reserved, or the meeting is gone).
    pub(crate) fn drop_availability_local(&self, meeting: MeetingId) -> SydResult<()> {
        for link in self
            .device
            .links()
            .ids_by_corr(&avail_corr(meeting, self.user()))?
        {
            let _ = self.device.links().delete(link, false);
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::model::MeetingSpec;
    use syd_core::SydEnv;
    use syd_net::NetConfig;

    /// A `slots` row holds its meeting's status tag, or nothing for a
    /// personal engagement: an unknown tag, a status no meeting holds a
    /// slot in, or a tag without its meeting is an error, never read as
    /// one of the states.
    #[test]
    fn defective_slot_rows_are_errors_not_defaults() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let app = CalendarApp::install(&env.device("a", "").unwrap()).unwrap();
        let ordinal = TimeSlot::new(1, 9).ordinal();
        let (m, held) = (MeetingId::new(7), Value::from(7u64));
        app.set_slot(ordinal, Some((m, MeetingStatus::Confirmed)), Priority::MIN)
            .unwrap();
        assert_eq!(app.slot_state(ordinal).unwrap(), SlotState::Reserved(m));
        let by_ordinal = Predicate::Eq("ordinal".into(), Value::from(ordinal));
        for (status, meeting) in [
            (Value::I64(4), held.clone()),
            (Value::I64(-1), held.clone()),
            (Value::from(MeetingStatus::Cancelled), held.clone()),
            (Value::from(MeetingStatus::Confirmed), Value::Null),
            (Value::Null, held.clone()),
        ] {
            let cells = [("status".into(), status), ("meeting".into(), meeting)];
            app.store.update(T_SLOTS, &by_ordinal, &cells).unwrap();
            let [(_, status), (_, meeting)] = &cells;
            assert!(
                app.slot_state(ordinal).is_err(),
                "status {status}, meeting {meeting} was read"
            );
        }
    }

    #[test]
    fn reconcile_guards_go_with_their_last_user() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let apps: Vec<Arc<CalendarApp>> = ["phil", "andy", "suzy"]
            .iter()
            .map(|n| CalendarApp::install(&env.device(n, "").unwrap()).unwrap())
            .collect();
        let others = vec![apps[1].user(), apps[2].user()];
        for hour in 0..50u16 {
            let slot = TimeSlot::new(1 + u32::from(hour / 10), hour % 10);
            let spec = MeetingSpec::plain("m", slot, others.clone());
            let out = apps[0].schedule(spec).unwrap();
            apps[0].cancel(out.meeting).unwrap();
        }
        assert_eq!(
            apps[0].reconciling.lock().len(),
            0,
            "a guard outlived the rounds that used it"
        );
    }
}
