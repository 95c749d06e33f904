//! `syd-check` — protocol invariant checker for the SyD middleware.
//!
//! The paper's negotiation protocol (§4.3) and waiting-link promotion
//! table (§4.2 op. 3) are multi-device state machines: a subtle
//! interleaving bug — a leaked entity lock, a double-booked slot, a lost
//! waiter — corrupts calendars silently instead of crashing. This crate
//! turns the `syd-telemetry` journal plus live [`DeviceRuntime`] state
//! into a machine-checkable correctness criterion:
//!
//! * **ordering** — per session: mark → lock → (change | abort) → unlock;
//! * **lock leaks** — no entity lock survives its session's story;
//! * **double-book** — no entity committed by a session that does not
//!   hold its lock, and no two sessions hold one entity at once;
//! * **constraint arithmetic** — `and` commits all, `or` at least *k*,
//!   `xor` exactly *k* of the committed set;
//! * **waiting links** — no lost, duplicate, or orphaned waiter, and
//!   promotion respects priority;
//! * **cascade deletes** (strict) — no link halves left behind.
//!
//! What it reads is a value, not text: a journal record is a
//! [`syd_telemetry::Event`], the enum the kernel, `syd-model` and
//! [`synth`] all build, so entity names, refusal reasons and correlation
//! ids are compared, never tokenized. The lines of a violation's excerpt
//! are that enum's `Display` rendering.
//!
//! Run [`audit`] (or [`audit_strict`] after quiescing on a reliable
//! network) over the deployment's devices; the returned
//! [`AuditReport`] renders each violation with the offending session id
//! and a minimized journal excerpt. [`audit_journals`] checks captured
//! journals offline — that is also what the synthetic-journal oracle in
//! [`synth`] exercises. The `syd-bench` crate's `check` binary drives
//! hundreds of seeded negotiations through lossy and partitioned
//! networks and audits the aftermath.

pub mod event;
pub mod replay;
pub mod report;
pub mod state;
pub mod synth;

use syd_core::{DeviceRuntime, LinkStatus};
use syd_types::Value;

pub use replay::{audit_journals, AuditOptions};
pub use report::{AuditReport, Rule, Violation};
pub use state::{audit_states, DeviceState, HeldLock, LinkRecord, WaitingRecord};
pub use synth::Mutation;

/// Audits live devices with loss-tolerant checks: in-flight sessions and
/// locks awaiting the stale-session sweep are not violations. Suitable
/// after any run, including lossy or partitioned networks.
pub fn audit<'a, I>(devices: I) -> AuditReport
where
    I: IntoIterator<Item = &'a DeviceRuntime>,
{
    audit_with(devices, &AuditOptions::default())
}

/// Audits live devices with the strict checks added: every lock story
/// closed, no abort after commit, no cascade leftovers. Use after the
/// system quiesced on a reliable network (or after forcing
/// `sweep_stale_sessions` on every device).
pub fn audit_strict<'a, I>(devices: I) -> AuditReport
where
    I: IntoIterator<Item = &'a DeviceRuntime>,
{
    audit_with(devices, &AuditOptions::strict())
}

/// Audits live devices under explicit [`AuditOptions`]: snapshots each
/// runtime's journal, lock table, waiting-link queue, and link database
/// into a [`DeviceState`] and delegates to the pure
/// [`state::audit_states`] oracle (which the `syd-model` checker also
/// uses, so live runs and exhaustive model runs are judged identically).
pub fn audit_with<'a, I>(devices: I, opts: &AuditOptions) -> AuditReport
where
    I: IntoIterator<Item = &'a DeviceRuntime>,
{
    let states: Vec<DeviceState> = devices.into_iter().map(snapshot_device).collect();
    audit_states(&states, opts)
}

/// Reduces one live runtime to the plain snapshot the oracle audits.
fn snapshot_device(device: &DeviceRuntime) -> DeviceState {
    let locks = device
        .store()
        .locks()
        .held()
        .into_iter()
        .filter(|(_, key)| key.table == "syd.entity")
        .map(|(owner, key)| HeldLock {
            session: owner,
            entity: match key.key.first().map(syd_store::key::OrdValue::value) {
                Some(Value::Str(s)) => s.clone(),
                _ => key.to_string(),
            },
        })
        .collect();
    let links = device
        .links()
        .all()
        .unwrap_or_default()
        .into_iter()
        .map(|l| LinkRecord {
            id: l.id.raw(),
            tentative: l.status == LinkStatus::Tentative,
            corr: l.corr,
        })
        .collect();
    let waiting = device
        .links()
        .waiting()
        .unwrap_or_default()
        .into_iter()
        .map(|entry| WaitingRecord {
            link: entry.link.raw(),
            waits_on: entry.waits_on.raw(),
        })
        .collect();
    DeviceState {
        device: device.name().to_owned(),
        journal: device.journal().events(),
        locks,
        links,
        waiting,
    }
}
