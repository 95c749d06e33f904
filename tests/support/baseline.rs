//! The "current practice" calendar of §3.3/§6 — the benchmark baseline.
//!
//! The paper contrasts SyD with how contemporary calendar applications
//! worked: "each user stores a copy of every member's folder on his local
//! machine. Each time a meeting needs to be set up, the initiator sends an
//! email to the required participants. The recipients then manually have
//! to accept this meeting before it can be scheduled. There is no concept
//! of priority …, only the initiator of a meeting can cancel that meeting.
//! There is no option of automatic rescheduling" (§6).
//!
//! This module implements that workflow faithfully on the same network
//! substrate so the comparison (experiment E1) measures protocol
//! differences, not implementation differences:
//!
//! * **Replicated folders** — every user keeps a copy of every other
//!   user's busy list, refreshed only by polling
//!   ([`BaselineCalendar::refresh_replicas`]); views go stale between
//!   polls.
//! * **E-mail + manual accept** — meeting setup is an invite fan-out; a
//!   human must call [`BaselineCalendar::accept`] on each device; the
//!   meeting commits only after every RSVP arrives, and commits can fail
//!   because the free-slot view was stale.
//! * **No priorities, no bumping, no tentative meetings, no automatic
//!   anything** — failures are reported and the human starts over.
//!
//! Not part of any library: `tests/join_cost.rs`, `benches/e3_meetings.rs`
//! and `examples/experiments.rs` each take this file with `#[path]`, and
//! its unit tests run in `tests/join_cost.rs`.

// Each of the three targets uses only a part of the calendar.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use syd_core::{DeviceRuntime, InvokeCtx, Method, Methods, Verb};
use syd_store::{Column, ColumnType, Predicate, Schema, Store};
use syd_types::sync::{Mutex, Rank};
use syd_types::{ServiceName, SydError, SydResult, TimeSlot, UserId, Value};

/// The baseline calendar's service.
pub const BCAL: &ServiceName = &ServiceName::constant("bcal");

/// The busy ordinals of `[start, end)`: a polled folder.
pub const FOLDER: Verb<(u64, u64), Vec<u64>> = Verb::new(BCAL, "folder");
/// The e-mailed invite: (proposal, initiator, ordinal).
pub const INVITE: Verb<(u64, UserId, u64), ()> = Verb::new(BCAL, "invite");
/// A participant's answer: (proposal, participant, accepted).
pub const RSVP: Verb<(u64, UserId, bool), ()> = Verb::new(BCAL, "rsvp");
/// Writes a slot; `false` when it is taken (a stale view).
pub const COMMIT_SLOT: Verb<(u64,), bool> = Verb::new(BCAL, "commit_slot");
/// Frees a slot.
pub const FREE_SLOT: Verb<(u64,), ()> = Verb::new(BCAL, "free_slot");

const T_BSLOTS: &str = "bslots";
const T_REPLICAS: &str = "breplicas";

/// Counters for the E1 comparison.
#[derive(Debug, Default)]
pub struct BaselineStats {
    /// Poll rounds executed.
    pub polls: AtomicU64,
    /// Invites sent (initiator side).
    pub invites_sent: AtomicU64,
    /// RSVPs received.
    pub rsvps: AtomicU64,
    /// Finalize/commit attempts.
    pub commits: AtomicU64,
    /// Proposals that failed at commit time (stale view).
    pub stale_failures: AtomicU64,
}

/// Lifecycle of one proposal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProposalStatus {
    /// Waiting for RSVPs.
    Pending,
    /// Everyone accepted and slots were written.
    Scheduled,
    /// Someone declined.
    Declined,
    /// Commit failed (slot taken since the stale free-slot query).
    Failed,
}

struct Proposal {
    id: u64,
    slot: TimeSlot,
    participants: Vec<UserId>,
    accepted: Vec<UserId>,
    status: ProposalStatus,
}

/// One user's baseline calendar.
pub struct BaselineCalendar {
    device: DeviceRuntime,
    store: Store,
    proposals: Mutex<Vec<Proposal>>,
    /// Invites awaiting a human decision on this device:
    /// `(proposal, initiator, slot)`.
    inbox: Mutex<Vec<(u64, UserId, TimeSlot)>>,
    next_proposal: AtomicU64,
    /// Shared statistics.
    pub stats: Arc<BaselineStats>,
}

impl BaselineCalendar {
    /// Installs the baseline calendar on a device.
    pub fn install(device: &DeviceRuntime) -> SydResult<Arc<BaselineCalendar>> {
        let store = device.store().clone();
        store.create_table(Schema::new(
            T_BSLOTS,
            vec![Column::required("ordinal", ColumnType::I64)],
            &["ordinal"],
        )?)?;
        store.create_table(Schema::new(
            T_REPLICAS,
            vec![
                Column::required("user", ColumnType::I64),
                Column::required("ordinal", ColumnType::I64),
            ],
            &["user", "ordinal"],
        )?)?;

        let app = Arc::new(BaselineCalendar {
            device: device.clone(),
            store,
            proposals: Mutex::new(Rank::Calendar, Vec::new()),
            inbox: Mutex::new(Rank::Calendar, Vec::new()),
            next_proposal: AtomicU64::new(1),
            stats: Arc::new(BaselineStats::default()),
        });
        device.serve(BCAL, &app, BASELINE_METHODS);
        device.publish()?;
        Ok(app)
    }

    /// The owning user.
    pub fn user(&self) -> UserId {
        self.device.user()
    }

    // ---- local slots --------------------------------------------------------

    /// True iff the slot has no entry.
    pub fn is_free(&self, slot: TimeSlot) -> SydResult<bool> {
        Ok(self
            .store
            .get_by_key(T_BSLOTS, &[Value::from(slot.ordinal())])?
            .is_none())
    }

    /// Marks a slot busy.
    pub fn mark_busy(&self, slot: TimeSlot) -> SydResult<()> {
        if !self.is_free(slot)? {
            return Err(SydError::App(format!("slot {slot} already busy")));
        }
        self.store
            .insert(T_BSLOTS, vec![Value::from(slot.ordinal())])?;
        Ok(())
    }

    /// Frees a slot.
    pub fn free(&self, slot: TimeSlot) -> SydResult<()> {
        self.store.delete(
            T_BSLOTS,
            &Predicate::Eq("ordinal".into(), Value::from(slot.ordinal())),
        )?;
        Ok(())
    }

    fn busy_ordinals(&self, start: u64, end: u64) -> SydResult<Vec<u64>> {
        Ok(self
            .store
            .query(T_BSLOTS)
            .filter(Predicate::Between(
                "ordinal".into(),
                Value::from(start),
                Value::from(end.saturating_sub(1)),
            ))
            .column("ordinal")?
            .into_iter()
            .filter_map(|v| v.as_i64().ok().map(|n| n as u64))
            .collect())
    }

    // ---- replicated folders ---------------------------------------------------

    /// Polls every user's folder and replaces the local replicas — the
    /// §6 "copy of every member's folder", kept fresh only by polling.
    pub fn refresh_replicas(&self, users: &[UserId], start: u64, end: u64) -> SydResult<()> {
        self.stats.polls.fetch_add(1, Ordering::Relaxed);
        let result = self.device.engine().call_group(users, FOLDER, (start, end));
        for (user, outcome) in result.outcomes {
            let Ok(folder) = outcome else { continue };
            self.store.delete(
                T_REPLICAS,
                &Predicate::Eq("user".into(), Value::from(user.raw())),
            )?;
            for ordinal in folder {
                let row = vec![Value::from(user.raw()), Value::from(ordinal)];
                let _ = self.store.insert(T_REPLICAS, row);
            }
        }
        Ok(())
    }

    /// Free slots according to the (possibly stale) local replicas plus
    /// the local folder.
    pub fn replica_free_slots(
        &self,
        users: &[UserId],
        start: u64,
        end: u64,
    ) -> SydResult<Vec<TimeSlot>> {
        let mine = self.busy_ordinals(start, end)?;
        let replicated: Vec<u64> = self
            .store
            .select(T_REPLICAS, &Predicate::True)?
            .into_iter()
            .filter_map(|row| {
                let user = row.values[0].as_i64().ok()? as u64;
                let ordinal = row.values[1].as_i64().ok()? as u64;
                users.contains(&UserId::new(user)).then_some(ordinal)
            })
            .collect();
        Ok((start..end)
            .filter(|o| !mine.contains(o) && !replicated.contains(o))
            .map(TimeSlot::from_ordinal)
            .collect())
    }

    /// Total replica rows held locally (the §6 storage-footprint
    /// comparison: SyD stores "only that particular user's information").
    pub fn replica_rows(&self) -> SydResult<usize> {
        self.store.count(T_REPLICAS, &Predicate::True)
    }

    // ---- meeting workflow ---------------------------------------------------------

    /// Proposes a meeting: e-mails an invite to every participant. The
    /// humans must [`BaselineCalendar::accept`]; once every RSVP is in,
    /// the initiator commits.
    pub fn propose(&self, slot: TimeSlot, participants: &[UserId]) -> SydResult<u64> {
        let id = (self.user().raw() << 24) | self.next_proposal.fetch_add(1, Ordering::Relaxed);
        self.proposals.lock().push(Proposal {
            id,
            slot,
            participants: participants.to_vec(),
            accepted: Vec::new(),
            status: ProposalStatus::Pending,
        });
        for &user in participants {
            self.stats.invites_sent.fetch_add(1, Ordering::Relaxed);
            let invite = (id, self.user(), slot.ordinal());
            self.device.engine().call(user, INVITE, invite)?;
        }
        Ok(id)
    }

    /// Invites waiting for this user's decision.
    pub fn pending_invites(&self) -> Vec<(u64, UserId, TimeSlot)> {
        self.inbox.lock().clone()
    }

    /// The human accepts an invite; an RSVP travels back to the initiator,
    /// who commits once everyone has answered.
    pub fn accept(&self, proposal: u64) -> SydResult<()> {
        let entry = {
            let mut inbox = self.inbox.lock();
            let idx = inbox
                .iter()
                .position(|(id, _, _)| *id == proposal)
                .ok_or_else(|| SydError::App(format!("no invite {proposal}")))?;
            inbox.remove(idx)
        };
        let (_, initiator, _) = entry;
        let rsvp = (proposal, self.user(), true);
        self.device.engine().call(initiator, RSVP, rsvp)
    }

    /// The human declines an invite.
    pub fn decline(&self, proposal: u64) -> SydResult<()> {
        let entry = {
            let mut inbox = self.inbox.lock();
            let idx = inbox
                .iter()
                .position(|(id, _, _)| *id == proposal)
                .ok_or_else(|| SydError::App(format!("no invite {proposal}")))?;
            inbox.remove(idx)
        };
        let (_, initiator, _) = entry;
        let rsvp = (proposal, self.user(), false);
        self.device.engine().call(initiator, RSVP, rsvp)
    }

    /// Status of a proposal (initiator side).
    pub fn proposal_status(&self, proposal: u64) -> Option<ProposalStatus> {
        self.proposals
            .lock()
            .iter()
            .find(|p| p.id == proposal)
            .map(|p| p.status)
    }

    /// Cancels a scheduled meeting — initiator only, no automation: the
    /// other calendars just get told to free the slot.
    pub fn cancel(&self, proposal: u64, participants: &[UserId], slot: TimeSlot) -> SydResult<()> {
        {
            let mut proposals = self.proposals.lock();
            if let Some(p) = proposals.iter_mut().find(|p| p.id == proposal) {
                p.status = ProposalStatus::Failed;
            }
        }
        self.free(slot)?;
        for &user in participants {
            let _ = self
                .device
                .engine()
                .call(user, FREE_SLOT, (slot.ordinal(),));
        }
        Ok(())
    }

    fn try_finalize(&self, proposal: u64) -> SydResult<()> {
        let (slot, participants) = {
            let proposals = self.proposals.lock();
            let Some(p) = proposals.iter().find(|p| p.id == proposal) else {
                return Ok(());
            };
            if p.status != ProposalStatus::Pending || p.accepted.len() != p.participants.len() {
                return Ok(());
            }
            (p.slot, p.participants.clone())
        };
        // Commit: write the slot everywhere; stale views surface here.
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        let mut ok = self.is_free(slot)?;
        if ok {
            self.mark_busy(slot)?;
        }
        let mut written = vec![];
        if ok {
            for &user in &participants {
                let out = self
                    .device
                    .engine()
                    .call(user, COMMIT_SLOT, (slot.ordinal(),));
                if out != Ok(true) {
                    ok = false;
                    break;
                }
                written.push(user);
            }
        }
        if !ok {
            // Stale view: roll back manually, meeting failed, the human
            // starts over.
            self.stats.stale_failures.fetch_add(1, Ordering::Relaxed);
            let _ = self.free(slot);
            for &user in &written {
                let _ = self
                    .device
                    .engine()
                    .call(user, FREE_SLOT, (slot.ordinal(),));
            }
        }
        let mut proposals = self.proposals.lock();
        if let Some(p) = proposals.iter_mut().find(|p| p.id == proposal) {
            p.status = if ok {
                ProposalStatus::Scheduled
            } else {
                ProposalStatus::Failed
            };
        }
        Ok(())
    }
}

/// The baseline's service.
static BASELINE_METHODS: &Methods<BaselineCalendar> = &[
    &Method::verb(FOLDER, |app: &BaselineCalendar, _, (start, end)| {
        app.busy_ordinals(start, end)
    }),
    &Method::verb(
        INVITE,
        |app: &BaselineCalendar, _, (proposal, initiator, ordinal)| {
            let slot = TimeSlot::from_ordinal(ordinal);
            app.inbox.lock().push((proposal, initiator, slot));
            Ok(())
        },
    ),
    &Method::verb(RSVP, rsvp),
    &Method::verb(COMMIT_SLOT, |app: &BaselineCalendar, _, (ordinal,)| {
        let slot = TimeSlot::from_ordinal(ordinal);
        let free = app.is_free(slot)?;
        if free {
            app.mark_busy(slot)?;
        }
        Ok(free)
    }),
    &Method::verb(FREE_SLOT, |app: &BaselineCalendar, _, (ordinal,)| {
        app.free(TimeSlot::from_ordinal(ordinal))
    }),
];

fn rsvp(
    app: &BaselineCalendar,
    _ctx: &InvokeCtx,
    (proposal, user, accepted): (u64, UserId, bool),
) -> SydResult<()> {
    app.stats.rsvps.fetch_add(1, Ordering::Relaxed);
    {
        let mut proposals = app.proposals.lock();
        if let Some(p) = proposals.iter_mut().find(|p| p.id == proposal) {
            if accepted {
                if !p.accepted.contains(&user) {
                    p.accepted.push(user);
                }
            } else {
                p.status = ProposalStatus::Declined;
            }
        }
    }
    app.try_finalize(proposal)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::time::Duration;
    use syd_core::SydEnv;
    use syd_net::NetConfig;

    fn rig(n: usize) -> (SydEnv, Vec<Arc<BaselineCalendar>>) {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let apps = (0..n)
            .map(|i| {
                let d = env.device(&format!("user{i}"), "").unwrap();
                BaselineCalendar::install(&d).unwrap()
            })
            .collect();
        (env, apps)
    }

    fn wait_status(
        app: &BaselineCalendar,
        proposal: u64,
        expect: ProposalStatus,
    ) -> ProposalStatus {
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        loop {
            let status = app.proposal_status(proposal).unwrap();
            if status == expect || std::time::Instant::now() > deadline {
                return status;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn happy_path_requires_manual_accepts() {
        let (_env, apps) = rig(3);
        let slot = TimeSlot::new(1, 10);
        let participants = vec![apps[1].user(), apps[2].user()];
        let proposal = apps[0].propose(slot, &participants).unwrap();
        assert_eq!(
            apps[0].proposal_status(proposal).unwrap(),
            ProposalStatus::Pending
        );

        // Nothing happens until the humans click accept.
        assert_eq!(apps[1].pending_invites().len(), 1);
        apps[1].accept(proposal).unwrap();
        assert_eq!(
            apps[0].proposal_status(proposal).unwrap(),
            ProposalStatus::Pending
        );
        apps[2].accept(proposal).unwrap();
        assert_eq!(
            wait_status(&apps[0], proposal, ProposalStatus::Scheduled),
            ProposalStatus::Scheduled
        );
        // Slots written everywhere.
        for app in &apps {
            assert!(!app.is_free(slot).unwrap());
        }
    }

    #[test]
    fn decline_kills_the_proposal() {
        let (_env, apps) = rig(2);
        let slot = TimeSlot::new(1, 9);
        let proposal = apps[0].propose(slot, &[apps[1].user()]).unwrap();
        apps[1].decline(proposal).unwrap();
        assert_eq!(
            wait_status(&apps[0], proposal, ProposalStatus::Declined),
            ProposalStatus::Declined
        );
        assert!(apps[0].is_free(slot).unwrap());
        assert!(apps[1].is_free(slot).unwrap());
    }

    #[test]
    fn stale_view_fails_at_commit() {
        let (_env, apps) = rig(2);
        let slot = TimeSlot::new(2, 14);
        let proposal = apps[0].propose(slot, &[apps[1].user()]).unwrap();
        // Between invite and accept, the participant books the slot.
        apps[1].mark_busy(slot).unwrap();
        apps[1].accept(proposal).unwrap();
        assert_eq!(
            wait_status(&apps[0], proposal, ProposalStatus::Failed),
            ProposalStatus::Failed
        );
        // Initiator's write rolled back.
        assert!(apps[0].is_free(slot).unwrap());
        assert_eq!(apps[0].stats.stale_failures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn replicas_go_stale_between_polls() {
        let (_env, apps) = rig(2);
        let users = vec![apps[1].user()];
        apps[0].refresh_replicas(&users, 0, 48).unwrap();
        assert_eq!(apps[0].replica_free_slots(&users, 0, 48).unwrap().len(), 48);
        // Bob books a slot; Alice's replica doesn't know.
        apps[1].mark_busy(TimeSlot::new(0, 5)).unwrap();
        assert_eq!(
            apps[0].replica_free_slots(&users, 0, 48).unwrap().len(),
            48,
            "stale replica still shows the slot free"
        );
        apps[0].refresh_replicas(&users, 0, 48).unwrap();
        assert_eq!(apps[0].replica_free_slots(&users, 0, 48).unwrap().len(), 47);
        assert_eq!(apps[0].replica_rows().unwrap(), 1);
        assert_eq!(apps[0].stats.polls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cancel_frees_everywhere_but_nothing_else_happens() {
        let (_env, apps) = rig(2);
        let slot = TimeSlot::new(3, 9);
        let users = vec![apps[1].user()];
        let proposal = apps[0].propose(slot, &users).unwrap();
        apps[1].accept(proposal).unwrap();
        wait_status(&apps[0], proposal, ProposalStatus::Scheduled);
        apps[0].cancel(proposal, &users, slot).unwrap();
        assert!(apps[0].is_free(slot).unwrap());
        assert!(apps[1].is_free(slot).unwrap());
    }
}
