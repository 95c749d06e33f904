//! The explicit-state explorer: depth-first enumeration of every
//! schedule of a [`Model`], with visited-state deduplication, a simple
//! partial-order reduction, and counterexample minimization.
//!
//! # Soundness and its limits
//!
//! The exploration is exhaustive over the model's *abstract states*: two
//! schedules that reach the same abstract state are continued only once.
//! The oracle (`syd_check`) judges the journal a schedule produces, so
//! the abstraction is only sound if the abstract state captures every
//! journal distinction the oracle can observe. The models in this module
//! are built that way — per-participant protocol slots, lock holders,
//! and fault budgets fully determine which per-session stories exist in
//! the journal — and their unit tests cross-check the claim, but it is a
//! design obligation, not something the explorer can verify. Likewise
//! the checking is *bounded*: a clean verdict covers the configured
//! device/session counts and fault budgets, nothing beyond them.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use super::journal::JournalSet;
use crate::{audit_states, AuditOptions, AuditReport, DeviceState, Rule};

/// An abstract protocol instance the explorer can enumerate.
///
/// A model is a pure transition system: `actions` lists what can happen
/// in a state, `apply` computes the successor (journaling what the real
/// runtime would journal), and `snapshot` reduces a state to the
/// [`DeviceState`]s that `syd_check::audit_states` judges. Nothing here
/// may read clocks or randomness — determinism is what makes schedules
/// replayable and counterexamples minimizable.
pub trait Model {
    /// Abstract global state. `Hash`/`Eq` define the visited-set
    /// identity, so everything observable must be part of it.
    type State: Clone + Eq + Hash + fmt::Debug;
    /// One atomic step of the system (a delivery, a loss, a decision…).
    type Action: Clone + PartialEq + fmt::Debug + fmt::Display;

    /// Journal names, one per abstract device, in device order.
    fn device_names(&self) -> Vec<String>;

    /// The single initial state.
    fn initial(&self) -> Self::State;

    /// Every action enabled in `state`, in a deterministic order. An
    /// empty vector marks a terminal state, which the explorer audits.
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// The successor of `state` under `action`, recording what the real
    /// runtime journals for that step.
    fn apply(
        &self,
        state: &Self::State,
        action: &Self::Action,
        journal: &mut JournalSet,
    ) -> Self::State;

    /// Partial-order reduction hook: the index of one enabled action
    /// that commutes with every other enabled action (and has no pruned
    /// alternative such as a droppable delivery), or `None` to branch on
    /// all of them. When `Some(i)` is returned the explorer follows only
    /// `enabled[i]`, which is sound because any schedule taking another
    /// enabled action first reaches the same states with `enabled[i]`
    /// reordered across it.
    fn safe_action(&self, state: &Self::State, enabled: &[Self::Action]) -> Option<usize> {
        let _ = (state, enabled);
        None
    }

    /// End-of-run settling applied to a terminal state before auditing —
    /// ending every lease still held, in the negotiation model. Returns
    /// the settled state and journals what ending them journals.
    fn finalize(&self, state: &Self::State, journal: &mut JournalSet) -> Self::State;

    /// Reduces a settled terminal state plus its journals to the device
    /// snapshots the `syd-check` oracle audits.
    fn snapshot(
        &self,
        state: &Self::State,
        journals: Vec<(String, Vec<syd_telemetry::JournalEvent>)>,
    ) -> Vec<DeviceState>;

    /// Whether this run should be audited with strict options. Models
    /// return `false` when the schedule used behaviours that are legal
    /// on an at-least-once network but flagged by the strict checks
    /// (a duplicate delivery re-committing an entity, for instance).
    fn strict(&self, state: &Self::State) -> bool;
}

/// Exploration counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Distinct abstract states visited.
    pub states: u64,
    /// Transitions applied (tree edges; deduplicated states prune
    /// their subtree but still count the edge that reached them).
    pub transitions: u64,
    /// Terminal states audited.
    pub terminals: u64,
    /// True when the state cap stopped the search early — a clean
    /// verdict is then only partial.
    pub capped: bool,
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub enum Verdict<A> {
    /// Every audited terminal state satisfied the oracle.
    Clean,
    /// The first schedule whose terminal state the oracle rejected.
    Violation {
        /// The full (unminimized) schedule that reached the violation.
        schedule: Vec<A>,
        /// The oracle's report for that schedule.
        report: AuditReport,
    },
}

/// The visited-state cap: an exploration that reaches it stops and
/// reports [`Stats::capped`]. About ten times the largest configuration
/// the model tests explore (212 274 states).
pub const MAX_STATES: u64 = 2_000_000;

/// Depth-first explorer over one [`Model`].
pub struct Explorer<'m, M: Model> {
    model: &'m M,
    visited: HashSet<u64>,
    stats: Stats,
}

impl<'m, M: Model> Explorer<'m, M> {
    /// Builds an explorer over `model`, capped at [`MAX_STATES`].
    pub fn new(model: &'m M) -> Explorer<'m, M> {
        Explorer {
            model,
            visited: HashSet::new(),
            stats: Stats::default(),
        }
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Explores every schedule from the initial state, auditing each
    /// distinct terminal state, and stops at the first violation.
    pub fn run(&mut self) -> Verdict<M::Action> {
        let mut schedule = Vec::new();
        let mut mute = JournalSet::muted();
        match self.dfs(self.model.initial(), &mut schedule, &mut mute) {
            Some((schedule, report)) => Verdict::Violation { schedule, report },
            None => Verdict::Clean,
        }
    }

    fn dfs(
        &mut self,
        state: M::State,
        schedule: &mut Vec<M::Action>,
        mute: &mut JournalSet,
    ) -> Option<(Vec<M::Action>, AuditReport)> {
        if self.stats.capped || !self.visited.insert(fingerprint(&state)) {
            return None;
        }
        self.stats.states += 1;
        if self.stats.states >= MAX_STATES {
            self.stats.capped = true;
            return None;
        }
        let enabled = self.model.actions(&state);
        if enabled.is_empty() {
            self.stats.terminals += 1;
            // A schedule the explorer itself recorded must replay; a miss
            // is a checker bug and must abort the run loudly.
            #[allow(clippy::expect_used)]
            let report = audit_schedule(self.model, schedule)
                .expect("schedule recorded during exploration must replay");
            if report.ok() {
                return None;
            }
            return Some((schedule.clone(), report));
        }
        let follow: Vec<usize> = match self.model.safe_action(&state, &enabled) {
            Some(i) => vec![i],
            None => (0..enabled.len()).collect(),
        };
        for i in follow {
            self.stats.transitions += 1;
            let next = self.model.apply(&state, &enabled[i], mute);
            schedule.push(enabled[i].clone());
            let hit = self.dfs(next, schedule, mute);
            schedule.pop();
            if hit.is_some() {
                return hit;
            }
        }
        None
    }
}

/// Replays `schedule` from the initial state with a recording journal
/// set. Returns `None` if some action is not enabled where it appears —
/// which is how minimization candidates are rejected.
pub fn replay_schedule<M: Model>(
    model: &M,
    schedule: &[M::Action],
) -> Option<(M::State, JournalSet)> {
    let mut journal = JournalSet::recording(&model.device_names());
    let mut state = model.initial();
    for action in schedule {
        if !model.actions(&state).contains(action) {
            return None;
        }
        state = model.apply(&state, action, &mut journal);
    }
    Some((state, journal))
}

/// Replays `schedule`, settles the final state, and reduces it to the
/// snapshots the `syd-check` oracle audits, with the options the model
/// asks for. `None` if the schedule does not replay.
pub fn snapshot_schedule<M: Model>(
    model: &M,
    schedule: &[M::Action],
) -> Option<(Vec<DeviceState>, AuditOptions)> {
    let (state, mut journal) = replay_schedule(model, schedule)?;
    let settled = model.finalize(&state, &mut journal);
    let opts = if model.strict(&settled) {
        AuditOptions::strict()
    } else {
        AuditOptions::default()
    };
    Some((model.snapshot(&settled, journal.into_journals()), opts))
}

/// Runs the `syd-check` oracle over [`snapshot_schedule`]. `None` if the
/// schedule does not replay.
pub fn audit_schedule<M: Model>(model: &M, schedule: &[M::Action]) -> Option<AuditReport> {
    let (snapshots, opts) = snapshot_schedule(model, schedule)?;
    Some(audit_states(&snapshots, &opts))
}

/// Greedily minimizes a violating schedule: repeatedly drops any single
/// step whose removal leaves a schedule that still replays and still
/// trips `target`, until no single step can be removed. Greedy one-step
/// removal (ddmin with granularity one) is enough here because schedules
/// are short and removals mostly independent.
pub fn minimize<M: Model>(model: &M, mut schedule: Vec<M::Action>, target: Rule) -> Vec<M::Action> {
    let trips = |candidate: &[M::Action]| {
        audit_schedule(model, candidate)
            .is_some_and(|report| report.violations.iter().any(|v| v.rule == target))
    };
    debug_assert!(trips(&schedule), "minimization seed must trip {target}");
    loop {
        let mut improved = false;
        for i in 0..schedule.len() {
            let mut candidate = schedule.clone();
            candidate.remove(i);
            if trips(&candidate) {
                schedule = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return schedule;
        }
    }
}

/// Deterministic 64-bit FNV-1a fingerprint of a hashable state. The
/// standard library's default hasher is randomly seeded per process;
/// this one is stable, so visited-set sizes and exploration order are
/// reproducible run to run.
pub(crate) fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
    value.hash(&mut hasher);
    hasher.finish()
}

struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(&(1u8, 2u8)), fingerprint(&(1u8, 2u8)));
        assert_ne!(fingerprint(&(1u8, 2u8)), fingerprint(&(2u8, 1u8)));
        // The raw hasher matches the published FNV-1a 64 test vectors,
        // so fingerprints mean the same thing in every run.
        let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
        hasher.write(b"a");
        assert_eq!(hasher.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
