//! Cross-cutting observability for SyD.
//!
//! The paper's evaluation (Figures 3–4, §6) is a story about *where time
//! and messages go*: kernel layer crossings, negotiation rounds, link
//! cascades. This crate makes those costs visible at runtime rather than
//! only under Criterion:
//!
//! * [`metrics`] — a registry of named counters, gauges and log-bucketed
//!   latency histograms. Recording through a preregistered handle is a
//!   single relaxed atomic op: no locks, no allocation, cheap enough for
//!   the RPC hot path.
//! * [`trace`] — thread-local trace-context propagation. A root span is
//!   minted at the first outbound `Node::call`; servers re-enter the
//!   received context (hop + 1) before dispatching, so nested invocations
//!   (engine group invokes, negotiation fan-out, cancel cascades) inherit
//!   one trace id end to end. Also the process-wide clock
//!   ([`now_us`]) that journals and span rings both stamp from.
//! * [`journal`] — a bounded ring-buffer journal per device whose records
//!   are one typed [`Event`]: the negotiation state transitions
//!   (mark/lock/change/abort), waiting-link promotion and link deletion
//!   as values the `syd-check` auditor matches on, plus free-text notes
//!   for the timeline. The text of a postmortem dump is an export of
//!   those values, written in one `Display` impl and parsed by nobody.
//! * [`export`] — human-readable table and JSON-lines renderings of a
//!   metrics snapshot, shared by `DeviceRuntime`, `Network` and the
//!   `experiments` harness.
//! * [`names`] — the central registry of metric name constants; every
//!   call site registers through one of these (enforced statically by
//!   `syd-lint`'s `counter-registry` rule).
//!
//! The crate deliberately depends on nothing but `syd-types` (for its
//! poison-free locks and the `Constraint` a session's opening event
//! carries; it in turn needs only `std`) so every layer — wire, net,
//! kernel, apps — can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod journal;
pub mod metrics;
pub mod names;
pub mod trace;

pub use export::{json_escape, metrics_jsonl, metrics_table};
pub use journal::{Event, EventKind, Journal, JournalEvent, Vote};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use trace::{current, enter, fresh_id, now_us, root_span, SpanCtx, SpanGuard};
