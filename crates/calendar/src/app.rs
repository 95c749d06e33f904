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

pub mod ops;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use syd_core::links::{LinkKind, LinkSpec, LinkStatus};
use syd_core::{DeviceRuntime, EntityHandler, SubscriptionHandler};
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_telemetry::names;
use syd_telemetry::{Counter, Histogram};
use syd_types::sync::Mutex;
use syd_types::{
    MeetingId, Priority, ServiceName, SlotBitmap, SlotRange, SydError, SydResult, TimeSlot, UserId,
    Value,
};

use crate::mailbox::Mailbox;
use crate::model::{parse_slot_entity, slot_entity, Meeting, MeetingStatus, SlotState};

/// The calendar application's service name.
pub fn calendar_service() -> ServiceName {
    ServiceName::new("calendar")
}

pub(crate) const T_SLOTS: &str = "slots";
pub(crate) const T_MEETINGS: &str = "meetings";
/// Initiator-local bookkeeping: at which participants this initiator has
/// queued an availability link for a meeting (`queue_availability` sent,
/// the participant neither reserved nor sent `drop_availability` since).
/// An availability link exists nowhere else, so only these users are ever
/// sent a `drop_availability`.
pub(crate) const T_AVAILQ: &str = "availq";

/// Creates the two tables a proxy replicates (§5.2), on the device and the
/// replica alike: slot rows, and meeting records as their encoded bytes.
pub(crate) fn create_replicated_tables(store: &Store) -> SydResult<()> {
    store.create_table(Schema::new(
        T_SLOTS,
        vec![
            Column::required("ordinal", ColumnType::I64),
            Column::required("status", ColumnType::Str),
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
    pub(crate) device: DeviceRuntime,
    pub(crate) store: Store,
    pub(crate) mailbox: Arc<Mailbox>,
    pub(crate) metrics: CalendarMetrics,
    next_meeting: AtomicU64,
    /// Per-meeting serialization of reconcile rounds.
    pub(crate) reconcile_locks: Mutex<HashMap<MeetingId, Arc<Mutex<()>>>>,
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
        let app = Arc::new(CalendarApp {
            device: device.clone(),
            store,
            mailbox,
            metrics,
            next_meeting: AtomicU64::new(1),
            reconcile_locks: Mutex::new(HashMap::new()),
            rescheduling: Mutex::new(Vec::new()),
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
            std::thread::spawn(move || {
                let _ = app.device.links().fire_link(
                    &link,
                    &Value::str("promoted"),
                    app.device.negotiator(),
                );
            });
        }));

        app.register_services()?;
        app.install_delegation()?;
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

    pub(crate) fn set_slot(
        &self,
        ordinal: u64,
        status: &str,
        meeting: Option<MeetingId>,
        priority: Priority,
    ) -> SydResult<()> {
        let row = vec![
            Value::from(ordinal),
            Value::str(status),
            meeting.map_or(Value::Null, |m| Value::from(m.raw())),
            Value::from(priority.level() as u32),
        ];
        if self
            .store
            .get_by_key(T_SLOTS, &[Value::from(ordinal)])?
            .is_some()
        {
            self.store.update(
                T_SLOTS,
                &Predicate::Eq("ordinal".into(), Value::from(ordinal)),
                &[
                    ("status".into(), row[1].clone()),
                    ("meeting".into(), row[2].clone()),
                    ("priority".into(), row[3].clone()),
                ],
            )?;
        } else {
            self.store.insert(T_SLOTS, row)?;
        }
        Ok(())
    }

    pub(crate) fn clear_slot(&self, ordinal: u64) -> SydResult<()> {
        self.store.delete(
            T_SLOTS,
            &Predicate::Eq("ordinal".into(), Value::from(ordinal)),
        )?;
        Ok(())
    }

    /// Marks a personal (non-meeting) engagement.
    pub fn mark_busy(&self, slot: TimeSlot) -> SydResult<()> {
        match self.slot_state(slot.ordinal())? {
            SlotState::Free => self.set_slot(slot.ordinal(), "busy", None, Priority::MAX),
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
                self.clear_slot(slot.ordinal())?;
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
    /// bit per slot on the wire, whatever the calendar's density.
    pub fn free_bitmap(&self, start: u64, end: u64) -> SydResult<SlotBitmap> {
        free_bitmap_of(&self.store, start, end)
    }

    // ---- local meeting records -----------------------------------------------

    /// The locally stored record of a meeting.
    pub fn meeting(&self, id: MeetingId) -> SydResult<Option<Meeting>> {
        match self
            .store
            .get_by_key(T_MEETINGS, &[Value::from(id.raw())])?
        {
            None => Ok(None),
            Some(row) => Ok(Some(Meeting::from_value(&row.values[1])?)),
        }
    }

    /// The status of the locally stored record of a meeting, read without
    /// decoding the record.
    pub(crate) fn meeting_status(&self, id: MeetingId) -> SydResult<Option<MeetingStatus>> {
        let row = self
            .store
            .get_by_key(T_MEETINGS, &[Value::from(id.raw())])?;
        row.map(|row| Meeting::status_of(row.values[1].as_bytes()?))
            .transpose()
    }

    /// Upserts a meeting record. Two service calls of one batch may write
    /// the same new record at once (`update_meeting` and
    /// `queue_availability` of a corrective round), so losing the insert
    /// to the other writer falls back to the update instead of failing
    /// the call.
    pub(crate) fn put_meeting(&self, meeting: &Meeting) -> SydResult<()> {
        let key = Value::from(meeting.id.raw());
        let by_id = Predicate::Eq("id".into(), key.clone());
        let data = [("data".to_owned(), meeting.to_value())];
        if self.store.update(T_MEETINGS, &by_id, &data)? > 0 {
            return Ok(());
        }
        // No such row yet: the record built above moves into the insert,
        // and only a lost race serialises it a second time.
        let [(column, record)] = data;
        if let Err(err) = self.store.insert(T_MEETINGS, vec![key, record]) {
            let data = [(column, meeting.to_value())];
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
        let Ok(links) = self.device.links().on_entity(&entity) else {
            return;
        };
        let best = links
            .into_iter()
            .filter(|l| {
                l.status == LinkStatus::Permanent
                    && matches!(l.kind, LinkKind::Subscription)
                    && l.refs
                        .first()
                        .is_some_and(|r| r.action.starts_with("peer_available:"))
            })
            .max_by_key(|l| l.priority);
        if let Some(link) = best {
            let app_device = self.device.clone();
            std::thread::spawn(move || {
                let _ = app_device.links().fire_link(
                    &link,
                    &Value::str("slot freed"),
                    app_device.negotiator(),
                );
            });
        }
    }

    pub(crate) fn reconcile_guard(&self, id: MeetingId) -> Arc<Mutex<()>> {
        Arc::clone(
            self.reconcile_locks
                .lock()
                .entry(id)
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
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
                let meeting = MeetingId::new(change.get("meeting")?.as_i64()? as u64);
                let priority = Priority::new(change.get("priority")?.as_i64()? as u8);
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

    fn commit(&self, entity: &str, change: &Value) -> SydResult<()> {
        let app = self.0.upgrade().ok_or(SydError::Shutdown)?;
        let ordinal = parse_slot_entity(entity)?;
        match change.get("action")?.as_str()? {
            "reserve" => {
                let meeting = MeetingId::new(change.get("meeting")?.as_i64()? as u64);
                let priority = Priority::new(change.get("priority")?.as_i64()? as u8);
                // The record as it stands once this round's commits are
                // through; everything below follows from it.
                let rec = Meeting::from_value(change.get("record")?)?;
                // A different current occupant means we are bumping it.
                let bumped = match app.slot_state(ordinal)? {
                    SlotState::Tentative(m) | SlotState::Reserved(m) if m != meeting => Some(m),
                    _ => None,
                };
                let confirmed = rec.status == MeetingStatus::Confirmed;
                let was_confirmed = app.meeting_status(meeting)? == Some(MeetingStatus::Confirmed);
                app.set_slot(
                    ordinal,
                    if confirmed { "conf" } else { "tent" },
                    Some(meeting),
                    priority,
                )?;
                app.put_meeting(&rec)?;
                // The back link, written before the entity lock goes: a
                // later meeting on this slot anchors its waiting link on
                // it (§4.2 op. 3), and that meeting's mark cannot get in
                // before this commit returns. A repair round re-commits
                // holders; the link they have stays (waiters hang on it).
                if let Ok(link) = change.get("link") {
                    let links = app.device.links();
                    if links.find(&rec.corr, entity)?.is_none() {
                        links.install_remote(link)?;
                    }
                }
                // Reserved now: the availability link queued while this
                // user was missing has done its work.
                app.drop_availability_local(meeting)?;
                // E-mail on the tentative → confirmed edge (§5.1).
                if confirmed && !was_confirmed && rec.initiator != app.user() {
                    app.mailbox.deliver_local(
                        rec.initiator,
                        &format!("confirmed: {}", rec.title),
                        &format!("meeting {} at ordinal {}", rec.id, rec.ordinal),
                    )?;
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
                let meeting = MeetingId::new(change.get("meeting")?.as_i64()? as u64);
                if app.slot_state(ordinal)?.meeting() == Some(meeting) {
                    app.clear_slot(ordinal)?;
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
        if let Some(mut rec) = self.meeting(old)? {
            rec.status = MeetingStatus::Bumped;
            self.put_meeting(&rec)?;
            let device = self.device.clone();
            let initiator = rec.initiator;
            std::thread::spawn(move || {
                let _ = device.engine().invoke(
                    initiator,
                    &calendar_service(),
                    "meeting_bumped",
                    vec![Value::from(old.raw()), Value::from(ordinal)],
                );
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
            // schedule changed: re-run the reservation round. Spawned so
            // the notifying call chain is never blocked on a negotiation.
            "peer_available" | "participant_changed" => {
                let only_if_missing = kind == "peer_available";
                std::thread::spawn(move || {
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

impl CalendarApp {
    fn register_services(self: &Arc<Self>) -> SydResult<()> {
        let svc = calendar_service();

        // free_slots_bitmap(start, end) -> packed SlotBitmap bytes
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "free_slots_bitmap",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let start = arg(args, 0)?.as_i64()? as u64;
                let end = arg(args, 1)?.as_i64()? as u64;
                Ok(Value::Bytes(app.free_bitmap(start, end)?.pack()))
            }),
        )?;

        // slot_status(ordinal) -> {status, meeting, priority}
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "slot_status",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                slot_status_of(&app.store, arg(args, 0)?.as_i64()? as u64)
            }),
        )?;

        // meeting_info(id) -> record | Null
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "meeting_info",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let id = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
                Ok(app.meeting(id)?.map_or(Value::Null, |m| m.to_value()))
            }),
        )?;

        // update_meeting(record) -> Null — upsert + align local slot row
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "update_meeting",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let rec = Meeting::from_value(arg(args, 0)?)?;
                // A held slot's row follows the meeting's status; the two
                // live statuses are spelt like the row states.
                if matches!(
                    rec.status,
                    MeetingStatus::Confirmed | MeetingStatus::Tentative
                ) && app.slot_state(rec.ordinal)?.meeting() == Some(rec.id)
                {
                    app.set_slot(rec.ordinal, rec.status.as_str(), Some(rec.id), rec.priority)?;
                }
                app.put_meeting(&rec)?;
                Ok(Value::Null)
            }),
        )?;

        // release_slot(ordinal, meeting, to_status, retire) -> Bool
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "release_slot",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let ordinal = arg(args, 0)?.as_i64()? as u64;
                let meeting = MeetingId::new(arg(args, 1)?.as_i64()? as u64);
                let to_status = arg(args, 2)?.as_str()?;
                let retire = arg(args, 3)?.as_bool()?;
                let freed = app.release_local(ordinal, meeting, to_status, retire)?;
                Ok(Value::Bool(freed))
            }),
        )?;

        // queue_availability(ordinal, record) -> Null
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "queue_availability",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let ordinal = arg(args, 0)?.as_i64()? as u64;
                let rec = Meeting::from_value(arg(args, 1)?)?;
                app.queue_availability_local(ordinal, &rec)?;
                Ok(Value::Null)
            }),
        )?;

        // peer_available(meeting) -> Bool(confirmed) — served by initiators
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "peer_available",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let meeting = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
                let status = app.reconcile_round(meeting, true)?.status;
                Ok(Value::Bool(status == MeetingStatus::Confirmed))
            }),
        )?;

        // meeting_bumped(meeting, old_ordinal) -> Null — initiator reschedules
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "meeting_bumped",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let meeting = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
                let old_ordinal = arg(args, 1)?.as_i64()? as u64;
                app.auto_reschedule(meeting, old_ordinal);
                Ok(Value::Null)
            }),
        )?;

        // change_request(meeting, new_ordinal, requester) -> Bool
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "change_request",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let meeting = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
                let new_ordinal = arg(args, 1)?.as_i64()? as u64;
                Ok(Value::Bool(
                    app.handle_change_request(meeting, new_ordinal)?,
                ))
            }),
        )?;

        // drop_availability(meeting) -> Null — remove this user's queued
        // availability link for a meeting (it got reserved or cancelled).
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "drop_availability",
            Arc::new(move |_ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let meeting = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
                app.drop_availability_local(meeting)?;
                Ok(Value::Null)
            }),
        )?;

        // leave_request(meeting, user) -> Bool
        let weak = Arc::downgrade(self);
        self.device.register_service(
            &svc,
            "leave_request",
            Arc::new(move |ctx, args: &[Value]| {
                let app = weak.upgrade().ok_or(SydError::Shutdown)?;
                let meeting = MeetingId::new(arg(args, 0)?.as_i64()? as u64);
                let user = UserId::new(arg(args, 1)?.as_i64()? as u64);
                // Only the user themself may ask to leave (when the
                // deployment authenticates, the claim is verified).
                if ctx.authenticated && ctx.caller != user {
                    return Err(SydError::AuthFailed(ctx.caller));
                }
                Ok(Value::Bool(app.handle_leave_request(meeting, user)?))
            }),
        )?;

        Ok(())
    }
}

/// [`CalendarApp::free_bitmap`] over any store holding the `slots` table:
/// the device's own, or the replica a proxy answers from.
pub(crate) fn free_bitmap_of(store: &Store, start: u64, end: u64) -> SydResult<SlotBitmap> {
    let end = end.max(start);
    let range = SlotRange::new(TimeSlot::from_ordinal(start), TimeSlot::from_ordinal(end));
    let mut bm = SlotBitmap::all_free(range);
    let occupied = store
        .query(T_SLOTS)
        .filter(Predicate::Between(
            "ordinal".into(),
            Value::from(start),
            Value::from(end.saturating_sub(1)),
        ))
        .column("ordinal")?;
    for v in occupied {
        if let Ok(o) = v.as_i64() {
            bm.set_busy(TimeSlot::from_ordinal(o as u64));
        }
    }
    Ok(bm)
}

/// A slot's occupant and the occupant's priority, from any store holding
/// the `slots` table: `(Free, MIN)` when no row holds the slot.
fn slot_of(store: &Store, ordinal: u64) -> SydResult<(SlotState, Priority)> {
    let Some(row) = store.get_by_key(T_SLOTS, &[Value::from(ordinal)])? else {
        return Ok((SlotState::Free, Priority::MIN));
    };
    let meeting = match &row.values[2] {
        Value::Null => None,
        v => Some(MeetingId::new(v.as_i64()? as u64)),
    };
    let state = match (row.values[1].as_str()?, meeting) {
        ("tent", Some(m)) => SlotState::Tentative(m),
        ("conf", Some(m)) => SlotState::Reserved(m),
        // "busy" rows and defective unknown rows both block.
        _ => SlotState::Busy,
    };
    Ok((state, Priority::new(row.values[3].as_i64()? as u8)))
}

/// The `slot_status` reply, `{status, meeting, priority}`, from any store
/// holding the `slots` table: the device's own, or the replica a proxy
/// answers from.
pub(crate) fn slot_status_of(store: &Store, ordinal: u64) -> SydResult<Value> {
    let (state, priority) = slot_of(store, ordinal)?;
    let (status, meeting) = match state {
        SlotState::Free => ("free", None),
        SlotState::Busy => ("busy", None),
        SlotState::Tentative(m) => ("tent", Some(m)),
        SlotState::Reserved(m) => ("conf", Some(m)),
    };
    Ok(Value::map([
        ("status", Value::str(status)),
        (
            "meeting",
            meeting.map_or(Value::Null, |m| Value::from(m.raw())),
        ),
        ("priority", Value::from(priority.level() as u32)),
    ]))
}

pub(crate) fn arg(args: &[Value], i: usize) -> SydResult<&Value> {
    args.get(i)
        .ok_or_else(|| SydError::Protocol(format!("missing argument {i}")))
}

impl CalendarApp {
    /// Writes `to_status` into the local record of `meeting`, then frees
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
        to_status: &str,
        retire: bool,
    ) -> SydResult<bool> {
        let status = MeetingStatus::parse(to_status).ok();
        let cancelled = status == Some(MeetingStatus::Cancelled);
        let mut rec = self.meeting(meeting)?;
        if let (Some(rec), Some(status)) = (&mut rec, status) {
            rec.status = status;
            if cancelled {
                rec.reserved.clear();
            }
            self.put_meeting(rec)?;
        }
        let held = self.slot_state(ordinal)?.meeting() == Some(meeting);
        if held {
            self.clear_slot(ordinal)?;
            if let Some(rec) = rec
                .as_ref()
                .filter(|r| cancelled && r.initiator != self.user())
            {
                self.mailbox.deliver_local(
                    rec.initiator,
                    &format!("cancelled: {}", rec.title),
                    &format!("meeting {} was cancelled", rec.id),
                )?;
            }
            self.on_slot_freed(ordinal);
        }
        // No record, no link: the commit that installs a back link writes
        // the record first.
        if let Some(rec) = rec.filter(|r| retire && r.initiator != self.user()) {
            let roster = rec.all_participants().iter().map(|u| u.raw()).collect();
            self.device.links().delete_by_corr(&rec.corr, roster)?;
        }
        Ok(held)
    }

    /// Installs a tentative *availability link* at this (unavailable)
    /// participant: a subscription link back to the meeting's initiator,
    /// waiting (§4.2 op. 3) on the link of whatever occupies the slot.
    pub(crate) fn queue_availability_local(&self, ordinal: u64, rec: &Meeting) -> SydResult<()> {
        self.put_meeting(rec)?;
        let entity = slot_entity(ordinal);
        let avail_corr = format!("avail:{}:{}", rec.id.raw(), self.user().raw());
        // Idempotent: one availability link per (meeting, this user).
        if !self.device.links().ids_by_corr(&avail_corr)?.is_empty() {
            return Ok(());
        }
        let back_ref = syd_core::links::LinkRef::new(
            rec.initiator,
            slot_entity(ordinal),
            format!("peer_available:{}", rec.id.raw()),
        );
        let mut spec = LinkSpec::subscription(entity.clone(), vec![back_ref])
            .with_priority(rec.priority)
            .with_corr(avail_corr);
        // If a meeting occupies the slot, wait on its back link so the
        // kernel promotes us when that meeting is torn down; a personal
        // engagement has no link, so the link stays permanent and
        // `free_personal` fires it directly.
        if let Some(occupier) = self.slot_state(ordinal)?.meeting() {
            let corr = self.meeting(occupier)?.map(|r| r.corr);
            let anchor = corr.and_then(|c| self.device.links().find(&c, &entity).ok().flatten());
            if let Some(link) = anchor {
                spec = spec.waiting_on(link, rec.id.raw());
            }
        }
        self.device.links().add_local(spec)?;
        // Slot already free (raced with a release): tell the initiator now.
        if self.slot_state(ordinal)?.is_free() {
            let device = self.device.clone();
            let initiator = rec.initiator;
            let id = rec.id;
            std::thread::spawn(move || {
                let _ = device.engine().invoke(
                    initiator,
                    &calendar_service(),
                    "peer_available",
                    vec![Value::from(id.raw())],
                );
            });
        }
        Ok(())
    }

    /// Removes this user's availability link for `meeting` (it got
    /// reserved, or the meeting is gone).
    pub(crate) fn drop_availability_local(&self, meeting: MeetingId) -> SydResult<()> {
        let corr = format!("avail:{}:{}", meeting.raw(), self.user().raw());
        for link in self.device.links().ids_by_corr(&corr)? {
            let _ = self.device.links().delete(link, false);
        }
        Ok(())
    }
}
