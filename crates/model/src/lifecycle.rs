//! Abstract model of the §4.2 link lifecycle: one owner device deletes
//! a permanent link that has queued waiters and cross-device halves,
//! driving waiting-link promotion (op. 3) and the cascade delete
//! (op. 4) under bounded message loss.
//!
//! As with the negotiation model, the decisions are not re-implemented:
//! which waiters promote comes from [`lifecycle::promotion_plan`] and
//! which peers the cascade visits from [`lifecycle::cascade_peers`] —
//! the same pure cores `syd_core::links::LinksModule` executes — and
//! the journals use the runtime's `link.promoted` / `link.deleted`
//! records, judged by `syd_check::audit_states`.
//!
//! ## The fixed topology
//!
//! Device 0 owns the root link `link-1` (permanent, correlation
//! `corr:root`) with three tentative waiters queued on it: `link-2`
//! (priority 200, group 1), `link-3` (priority 50, group 1) and
//! `link-4` (priority 100, group 2). Every other device holds the
//! remote half of the root connection (`link-1{d}`, same correlation).
//! Deleting the root must promote group 1 whole (its top priority
//! wins), re-anchor `link-4` onto the first promoted link, and cascade
//! the delete to every peer. Small as it is, this exercises every
//! branch of both pure cores.

use syd_check::{DeviceState, LinkRecord, WaitingRecord};
use syd_core::links::lifecycle;
use syd_core::WaitingEntry;
use syd_telemetry::{Event, JournalEvent};
use syd_types::{LinkId, Priority, UserId};

use crate::explore::Model;
use crate::journal::JournalSet;

/// Lifecycle mutations for `--inject`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleInject {
    /// The cascade skips one peer, leaving its half of the connection
    /// behind — `syd_check::Rule::Cascade`.
    SkipCascade,
    /// The root is deleted without promoting or re-anchoring its
    /// waiters — `syd_check::Rule::Waiting`.
    SkipPromotion,
}

/// Model configuration.
#[derive(Clone, Copy, Debug)]
pub struct LifecycleModel {
    /// Total devices; device 0 owns the root link, the rest hold its
    /// remote halves. Must be at least 2.
    pub devices: usize,
    /// How many cascade messages the network may lose.
    pub loss_budget: u8,
    /// Optional planted bug.
    pub inject: Option<LifecycleInject>,
}

/// Progress of one peer's cascade delete.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Cascade {
    /// The root has not been deleted yet.
    NotSent,
    /// Cascade message in flight.
    Pending,
    /// The peer deleted its half.
    Delivered,
    /// The message was lost; the half stays until expiry.
    Dropped,
    /// The buggy cascade never addressed this peer.
    Skipped,
}

/// Abstract global state of the lifecycle system.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LifecycleState {
    root_deleted: bool,
    /// Promotion ran as part of the root delete (false before the
    /// delete, and forever under [`LifecycleInject::SkipPromotion`]).
    promoted: bool,
    /// One slot per peer device (index = device − 1).
    cascades: Vec<Cascade>,
    loss_left: u8,
    loss_used: bool,
}

/// One atomic step of the lifecycle system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LifecycleAction {
    /// Device 0 deletes the root link: waiters promote, the delete is
    /// journaled, and cascade messages go out to every peer.
    DeleteRoot,
    /// A cascade message reaches its peer, which deletes its half.
    DeliverCascade {
        /// Peer device index.
        device: usize,
    },
    /// A cascade message is lost.
    DropCascade {
        /// Peer device index.
        device: usize,
    },
}

impl std::fmt::Display for LifecycleAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LifecycleAction::DeleteRoot => {
                write!(f, "dev0: delete root link (promote waiters, cascade)")
            }
            LifecycleAction::DeliverCascade { device } => {
                write!(f, "cascade delete delivered to dev{device}")
            }
            LifecycleAction::DropCascade { device } => {
                write!(f, "cascade delete to dev{device} lost")
            }
        }
    }
}

/// The root's correlation id, shared by every device's half.
const CORR_ROOT: &str = "corr:root";

impl LifecycleModel {
    /// The waiting-link queue behind the root, as the runtime would
    /// hold it in its `T_WAIT` table.
    fn waiting_entries() -> Vec<WaitingEntry> {
        vec![
            WaitingEntry {
                link: LinkId::new(2),
                waits_on: LinkId::new(1),
                priority: Priority(200),
                group: 1,
            },
            WaitingEntry {
                link: LinkId::new(3),
                waits_on: LinkId::new(1),
                priority: Priority(50),
                group: 1,
            },
            WaitingEntry {
                link: LinkId::new(4),
                waits_on: LinkId::new(1),
                priority: Priority(100),
                group: 2,
            },
        ]
    }

    /// The remote half's link id on peer device `d`.
    fn peer_link(d: usize) -> u64 {
        10 + d as u64
    }

    /// The record of link `id` of the root connection going away in the
    /// cascade.
    fn deleted(id: u64) -> Event {
        Event::LinkDeleted {
            id,
            corr: CORR_ROOT.to_owned(),
            cascade: true,
        }
    }
}

impl Model for LifecycleModel {
    type State = LifecycleState;
    type Action = LifecycleAction;

    fn device_names(&self) -> Vec<String> {
        (0..self.devices).map(|i| format!("dev{i}")).collect()
    }

    fn initial(&self) -> LifecycleState {
        LifecycleState {
            root_deleted: false,
            promoted: false,
            cascades: vec![Cascade::NotSent; self.devices - 1],
            loss_left: self.loss_budget,
            loss_used: false,
        }
    }

    fn actions(&self, state: &LifecycleState) -> Vec<LifecycleAction> {
        let mut out = Vec::new();
        if !state.root_deleted {
            out.push(LifecycleAction::DeleteRoot);
            return out;
        }
        for (slot, cascade) in state.cascades.iter().enumerate() {
            if *cascade == Cascade::Pending {
                let device = slot + 1;
                out.push(LifecycleAction::DeliverCascade { device });
                if state.loss_left > 0 {
                    out.push(LifecycleAction::DropCascade { device });
                }
            }
        }
        out
    }

    fn apply(
        &self,
        state: &LifecycleState,
        action: &LifecycleAction,
        journal: &mut JournalSet,
    ) -> LifecycleState {
        let mut st = state.clone();
        match *action {
            LifecycleAction::DeleteRoot => {
                if self.inject != Some(LifecycleInject::SkipPromotion) {
                    // The model fixes the waiter set; an empty plan is a
                    // checker bug and must abort the run loudly.
                    #[allow(clippy::expect_used)]
                    let plan = lifecycle::promotion_plan(&Self::waiting_entries())
                        .expect("the root always has waiters queued");
                    for entry in &plan.promoted {
                        journal.record(
                            0,
                            Event::Promoted {
                                link: entry.link.raw(),
                                priority: i64::from(entry.priority.0),
                                group: entry.group as i64,
                            },
                        );
                    }
                    st.promoted = true;
                }
                journal.record(0, Self::deleted(1));
                // §4.2 op. 4: fan out to every referenced user not yet
                // visited by the cascade (device 0 is user 1).
                let refs = (1..self.devices).map(|d| UserId::new(d as u64 + 1));
                for user in lifecycle::cascade_peers(refs, &[1]) {
                    let device = user.raw() as usize - 1;
                    let skipped = self.inject == Some(LifecycleInject::SkipCascade)
                        && device == self.devices - 1;
                    st.cascades[device - 1] = if skipped {
                        Cascade::Skipped
                    } else {
                        Cascade::Pending
                    };
                }
                st.root_deleted = true;
            }
            LifecycleAction::DeliverCascade { device } => {
                journal.record(device, Self::deleted(Self::peer_link(device)));
                st.cascades[device - 1] = Cascade::Delivered;
            }
            LifecycleAction::DropCascade { device } => {
                st.loss_left -= 1;
                st.loss_used = true;
                st.cascades[device - 1] = Cascade::Dropped;
            }
        }
        st
    }

    fn safe_action(&self, state: &LifecycleState, enabled: &[LifecycleAction]) -> Option<usize> {
        // The root delete is the only initial action; once the loss
        // budget is spent, the remaining deliveries target distinct
        // devices and commute freely.
        if enabled.len() == 1 || state.loss_left == 0 {
            return Some(0);
        }
        None
    }

    fn finalize(&self, state: &LifecycleState, _journal: &mut JournalSet) -> LifecycleState {
        state.clone()
    }

    fn snapshot(
        &self,
        state: &LifecycleState,
        journals: Vec<(String, Vec<JournalEvent>)>,
    ) -> Vec<DeviceState> {
        journals
            .into_iter()
            .enumerate()
            .map(|(i, (device, journal))| {
                let mut links = Vec::new();
                let mut waiting = Vec::new();
                if i == 0 {
                    if !state.root_deleted {
                        links.push(LinkRecord {
                            id: 1,
                            tentative: false,
                            corr: CORR_ROOT.to_owned(),
                        });
                    }
                    for entry in Self::waiting_entries() {
                        let id = entry.link.raw();
                        let promoted = state.promoted && entry.group == 1;
                        links.push(LinkRecord {
                            id,
                            tentative: !promoted,
                            corr: format!("corr:w{id}"),
                        });
                    }
                    if state.promoted {
                        // Group 2 stays queued, re-anchored onto the
                        // first promoted link.
                        waiting.push(WaitingRecord {
                            link: 4,
                            waits_on: 2,
                        });
                    } else {
                        for entry in Self::waiting_entries() {
                            waiting.push(WaitingRecord {
                                link: entry.link.raw(),
                                waits_on: entry.waits_on.raw(),
                            });
                        }
                    }
                } else if state.cascades[i - 1] != Cascade::Delivered {
                    links.push(LinkRecord {
                        id: Self::peer_link(i),
                        tentative: false,
                        corr: CORR_ROOT.to_owned(),
                    });
                }
                DeviceState {
                    device,
                    journal,
                    locks: Vec::new(),
                    links,
                    waiting,
                }
            })
            .collect()
    }

    fn strict(&self, state: &LifecycleState) -> bool {
        // A lost cascade legitimately leaves a remote half behind until
        // expiry, which is exactly what the strict cascade check flags.
        !state.loss_used
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::explore::{audit_schedule, minimize, Explorer, Verdict};
    use syd_check::Rule;
    use syd_telemetry::Registry;

    fn model(inject: Option<LifecycleInject>, loss: u8) -> LifecycleModel {
        LifecycleModel {
            devices: 3,
            loss_budget: loss,
            inject,
        }
    }

    fn explore(m: &LifecycleModel) -> Verdict<LifecycleAction> {
        let registry = Registry::new();
        let mut explorer = Explorer::new(m, 100_000, &registry);
        let verdict = explorer.run();
        assert!(!explorer.stats().capped);
        verdict
    }

    #[test]
    fn clean_lifecycle_is_clean_strict_and_lossy() {
        for loss in [0, 1] {
            let verdict = explore(&model(None, loss));
            assert!(
                matches!(verdict, Verdict::Clean),
                "loss={loss}: {verdict:?}"
            );
        }
    }

    #[test]
    fn skip_cascade_trips_the_cascade_rule() {
        let m = model(Some(LifecycleInject::SkipCascade), 0);
        let Verdict::Violation { schedule, report } = explore(&m) else {
            panic!("skip-cascade produced no counterexample");
        };
        assert!(
            report.violations.iter().any(|v| v.rule == Rule::Cascade),
            "{report}"
        );
        let minimized = minimize(&m, schedule, Rule::Cascade);
        let replayed = audit_schedule(&m, &minimized).unwrap();
        assert!(replayed.violations.iter().any(|v| v.rule == Rule::Cascade));
    }

    #[test]
    fn skip_promotion_trips_the_waiting_rule() {
        let m = model(Some(LifecycleInject::SkipPromotion), 0);
        let Verdict::Violation { schedule, report } = explore(&m) else {
            panic!("skip-promotion produced no counterexample");
        };
        assert!(
            report.violations.iter().any(|v| v.rule == Rule::Waiting),
            "{report}"
        );
        // Minimization cannot drop the root delete, so the schedule
        // stays a valid witness.
        let minimized = minimize(&m, schedule, Rule::Waiting);
        assert!(!minimized.is_empty());
    }
}
