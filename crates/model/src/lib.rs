//! `syd-model` — an exhaustive explicit-state model checker for the SyD
//! negotiation (§4.3) and link-lifecycle (§4.2) protocols.
//!
//! The checker enumerates **every schedule** of an abstract SyD system —
//! `n` devices, concurrent negotiation sessions, link promotion and
//! cascade deletes — under a bounded fault budget: `k` lost messages,
//! `k` duplicated deliveries, and optionally a crashing coordinator.
//! Each distinct terminal state is judged by the *same oracle the
//! runtime is judged by*: the schedule's journals and device snapshots
//! are fed to `syd_check::audit_states`, so a protocol state the
//! invariant auditor would flag in production is a violation here too.
//!
//! Three design rules keep the model honest:
//!
//! 1. **Shared transition cores.** The models never re-implement
//!    protocol decisions; they call the pure functions the runtime
//!    itself executes (`syd_core::negotiate::fsm`,
//!    `syd_core::links::lifecycle`). If the implementation changes
//!    semantics, the model changes with it.
//! 2. **Shared event language.** Every step journals the
//!    `syd_telemetry::Event` value the runtime journals for it — one
//!    enum, so a record the model writes and the runtime does not (or
//!    the oracle does not read) is a compile error, like rule 1.
//! 3. **Closed loop on counterexamples.** A violating schedule is
//!    minimized and replayed into a fresh `JournalEvent` stream, which
//!    must trip the *same* `syd_check::Rule` — the counterexample is a
//!    real input to the production auditor, not just a model artifact.
//!
//! The `--inject` mutations plant known protocol bugs (double commit,
//! lock leak, skipped cascade, …) and demand a counterexample, which
//! regression-tests the oracle itself: a checker that cannot see a
//! planted double-book is not checking anything.
//!
//! Verification is **bounded**: a clean verdict covers the configured
//! devices, sessions, and fault budgets only. See
//! [`explore`] for the soundness obligations of the state abstraction.

pub mod explore;
pub mod journal;
pub mod lifecycle;
pub mod negotiation;

pub use explore::{audit_schedule, minimize, replay_schedule, Explorer, Model, Stats, Verdict};
pub use journal::JournalSet;
pub use lifecycle::{LifecycleAction, LifecycleInject, LifecycleModel, LifecycleState};
pub use negotiation::{NegotiationAction, NegotiationInject, NegotiationModel, NegotiationState};
