//! The SyD calendar-of-meetings application (§3.2, §5).
//!
//! "Several individuals maintain their independent schedule information in
//! their hand-held and other devices" (§1); this crate is that application,
//! built entirely on the `syd-core` kernel — coordination links do the
//! heavy lifting, exactly as the paper describes:
//!
//! * **Meeting setup** — find common free slots across participants
//!   (engine group query + intersection), then reserve through the §4.3
//!   negotiation protocol. If everyone reserves, the meeting is
//!   **confirmed**; otherwise it is **tentative**: slots are held at the
//!   available participants, and *availability links* are queued at the
//!   unavailable ones (waiting, per §4.2 op. 3, on the link of whatever
//!   occupies their slot).
//! * **Automatic confirmation** — when a blocking meeting is cancelled,
//!   the kernel's cascade delete promotes the highest-priority waiting
//!   link, which notifies the tentative meeting's initiator, who re-runs
//!   the reservation round — "automatic triggers … possibly convert
//!   tentative meetings into confirmed ones" with no human in the loop.
//! * **Priority bumping** — a higher-priority meeting may take a reserved
//!   slot; the bumped meeting's initiator is notified and automatically
//!   reschedules (§6).
//! * **Supervisors** — a supervisor's slot carries only a *subscription*
//!   back link, so they change their schedule at will; the meeting
//!   degrades to tentative and waits for them (§5).
//! * **Quorums** — must-attendees plus multiple OR-groups ("50% of
//!   Biology and at least two from Physics"), with leave requests granted
//!   only while quorums hold or a replacement commits (§5, §6).
//! * **E-mail notification** — participants get mailbox messages on
//!   meeting transitions ([`mailbox`], §5.1).
//!
//! The §3.3/§6 "current practice" calendar that the experiments compare
//! against is not part of this crate: it lives beside its callers, in the
//! workspace's `tests/support/baseline.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod delegation;
pub mod mailbox;
pub mod model;
pub mod proxy_support;

pub use app::CalendarApp;
pub use delegation::Delegation;
pub use mailbox::{Mail, Mailbox};
pub use model::{
    slot_entity, GroupSpec, Meeting, MeetingId, MeetingSpec, MeetingStatus, ScheduleOutcome,
    SlotState,
};
pub use proxy_support::host_calendar_on_proxy;
