//! Central registry of every telemetry metric name.
//!
//! All counters, gauges and histograms recorded anywhere in the workspace
//! must register under one of these constants. Inline string literals at
//! call sites are rejected by `syd-lint`'s `counter-registry` rule, which
//! cross-checks call sites against this file: a typo'd name can no longer
//! silently split a metric in two, and a constant that loses its last
//! call site is reported as orphaned.
//!
//! Grouped by owning subsystem; the `<subsystem>.<metric>` naming scheme
//! matches what `metrics_table`/`metrics_jsonl` render.

// --- rpc (syd-net node) ---------------------------------------------------

/// Histogram: latency of every answered outbound RPC, send to response,
/// µs. Fed by `PendingCall::wait` only.
pub const RPC_CALL: &str = "rpc.call";
/// Counter: requests sent again in a later wave after a transient failure.
/// Fed by `Node::call_many` only.
pub const RPC_RETRIES: &str = "rpc.retries";
/// Counter: sends that hit their deadline. Fed by `PendingCall::wait` only.
pub const RPC_TIMEOUTS: &str = "rpc.timeouts";
/// Counter: inbound RPC requests dispatched to a handler.
pub const RPC_REQUESTS_SERVED: &str = "rpc.requests_served";

// --- transport (syd-transport backends) -----------------------------------

/// Counter: connections currently or ever established (monotonic).
pub const TRANSPORT_CONNS: &str = "transport.conns";
/// Counter: inbound connections accepted by the listener.
pub const TRANSPORT_ACCEPTS: &str = "transport.accepts";
/// Counter: dial attempts made after a connection was lost.
pub const TRANSPORT_RECONNECTS: &str = "transport.reconnects";
/// Counter: payload bytes received off the wire.
pub const TRANSPORT_BYTES_IN: &str = "transport.bytes_in";
/// Counter: payload bytes written to the wire.
pub const TRANSPORT_BYTES_OUT: &str = "transport.bytes_out";
/// Counter: frames decoded from the wire.
pub const TRANSPORT_FRAMES_IN: &str = "transport.frames_in";
/// Counter: frames encoded onto the wire.
pub const TRANSPORT_FRAMES_OUT: &str = "transport.frames_out";
/// Counter: frames dropped due to decode/length errors.
pub const TRANSPORT_FRAME_ERRORS: &str = "transport.frame_errors";

// --- negotiation (syd-core §4.3 protocol) ----------------------------------

/// Counter: negotiation sessions started by this coordinator.
pub const NEGOTIATE_SESSIONS: &str = "negotiate.sessions";
/// Counter: negotiation sessions that ended in a protocol abort.
pub const NEGOTIATE_ABORTS: &str = "negotiate.aborts";

// --- engine (syd-core group invocation) ------------------------------------

/// Histogram: latency of one `SydEngine::invoke*` call, µs.
pub const ENGINE_INVOKE: &str = "engine.invoke";
/// Counter: group resolves served by one batched directory round trip.
pub const ENGINE_BATCH_RESOLVES: &str = "engine.batch_resolves";
/// Counter: serial network rounds issued — one per `invoke`, one per
/// batch fan-out whatever its size.
pub const ENGINE_ROUNDS: &str = "engine.rounds";

// --- listener (syd-core dispatch) ------------------------------------------

/// Counter: requests dispatched through `SydListener`.
pub const LISTENER_DISPATCH: &str = "listener.dispatch";
/// Counter: requests rejected by the listener's auth check.
pub const LISTENER_AUTH_FAILURES: &str = "listener.auth_failures";

// --- directory (syd-core SyDDirectory) -------------------------------------

/// Counter: single-entity directory lookups served.
pub const DIR_LOOKUPS: &str = "dir.lookups";
/// Counter: batched `lookup_many` round trips served.
pub const DIR_BATCH_LOOKUPS: &str = "dir.batch_lookups";
/// Counter: user entries resolved inside batched lookups.
pub const DIR_BATCH_LOOKUP_USERS: &str = "dir.batch_lookup_users";

// --- proxy (syd-core SyDProxy) ---------------------------------------------

/// Counter: requests answered from a proxy-cached snapshot.
pub const PROXY_SERVED: &str = "proxy.served";

// --- calendar (syd-calendar app) -------------------------------------------

/// Histogram: latency of one `schedule_meeting` negotiation, µs.
pub const CALENDAR_SCHEDULE: &str = "calendar.schedule";
/// Histogram: latency of one reconcile pass, µs.
pub const CALENDAR_RECONCILE: &str = "calendar.reconcile";
/// Counter: meetings cancelled (including cascade deletions).
pub const CALENDAR_CANCELS: &str = "calendar.cancels";

// --- span kinds (syd-trace timed spans) -------------------------------------
//
// Span kind strings share this registry so `syd-lint`'s registry rule can
// cross-check span call sites exactly like metric call sites: a typo'd
// kind would otherwise split one protocol phase across two tree labels.

/// Span: client side of one outbound RPC (send → response completion).
pub const SPAN_RPC_CLIENT: &str = "rpc.client";
/// Span: server side of one RPC (handler entry → response sent).
pub const SPAN_RPC_SERVER: &str = "rpc.server";
/// Span: directory resolution for a group invocation (cache + lookups).
pub const SPAN_DIR_RESOLVE: &str = "dir.resolve";
/// Span: the §4.3 negotiation mark/lock round, coordinator side.
pub const SPAN_MARK_ROUND: &str = "negotiate.mark_round";
/// Span: the §4.3 negotiation commit/abort round, coordinator side.
pub const SPAN_COMMIT_ROUND: &str = "negotiate.commit_round";
/// Span: cascade traversal over coordination links (delete/bump fan-out).
pub const SPAN_CASCADE: &str = "links.cascade";
/// Span: transport-level queueing of one frame (enqueue → flush/deliver).
pub const SPAN_TRANSPORT_QUEUE: &str = "transport.queue";
/// Span: bounded entity-lock acquisition inside a kernel mark handler.
pub const SPAN_LOCK_WAIT: &str = "device.lock_wait";
/// Span: one end-to-end `schedule_meeting` negotiation (root span).
pub const SPAN_SCHEDULE: &str = "calendar.schedule_op";
/// Span: one reconcile pass over the local store (root span).
pub const SPAN_RECONCILE: &str = "calendar.reconcile_op";
/// Span: one meeting cancellation, initiator side (root span); the §4.4
/// cascade span nests beneath it.
pub const SPAN_CANCEL: &str = "calendar.cancel_op";
/// Span: the third round of a reconcile, when there is one
/// (availability queues at the missing, the corrective record
/// broadcast) — one span per round, none per peer.
pub const SPAN_HOUSEKEEPING: &str = "calendar.housekeeping";

// --- model (syd-model state-space explorer) --------------------------------

/// Counter: distinct states visited by the DFS explorer.
pub const MODEL_STATES_EXPLORED: &str = "model.states_explored";
/// Counter: invariant violations found during exploration.
pub const MODEL_VIOLATIONS: &str = "model.violations";

/// Every registered metric name, for exhaustiveness checks and tooling.
pub const ALL: &[&str] = &[
    RPC_CALL,
    RPC_RETRIES,
    RPC_TIMEOUTS,
    RPC_REQUESTS_SERVED,
    TRANSPORT_CONNS,
    TRANSPORT_ACCEPTS,
    TRANSPORT_RECONNECTS,
    TRANSPORT_BYTES_IN,
    TRANSPORT_BYTES_OUT,
    TRANSPORT_FRAMES_IN,
    TRANSPORT_FRAMES_OUT,
    TRANSPORT_FRAME_ERRORS,
    NEGOTIATE_SESSIONS,
    NEGOTIATE_ABORTS,
    ENGINE_INVOKE,
    ENGINE_BATCH_RESOLVES,
    ENGINE_ROUNDS,
    LISTENER_DISPATCH,
    LISTENER_AUTH_FAILURES,
    DIR_LOOKUPS,
    DIR_BATCH_LOOKUPS,
    DIR_BATCH_LOOKUP_USERS,
    PROXY_SERVED,
    CALENDAR_SCHEDULE,
    CALENDAR_RECONCILE,
    CALENDAR_CANCELS,
    SPAN_RPC_CLIENT,
    SPAN_RPC_SERVER,
    SPAN_DIR_RESOLVE,
    SPAN_MARK_ROUND,
    SPAN_COMMIT_ROUND,
    SPAN_CASCADE,
    SPAN_TRANSPORT_QUEUE,
    SPAN_LOCK_WAIT,
    SPAN_SCHEDULE,
    SPAN_RECONCILE,
    SPAN_CANCEL,
    SPAN_HOUSEKEEPING,
    MODEL_STATES_EXPLORED,
    MODEL_VIOLATIONS,
];

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::ALL;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let set: BTreeSet<&str> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len(), "duplicate metric name in registry");
        for name in ALL {
            assert!(
                name.split('.').count() == 2
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "metric name {name:?} must be <subsystem>.<snake_case>"
            );
        }
    }
}
