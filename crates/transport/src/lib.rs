//! Pluggable transport layer for SyD.
//!
//! The paper's prototype spoke raw TCP sockets between iPAQ handhelds
//! (§3.1, §5.2); our earlier milestones replaced that hardware with an
//! in-process simulated network. This crate makes the substrate a
//! *subsystem*: everything above it (the RPC node, the SyD kernel, the
//! applications) talks to a [`Transport`] adapter and never learns
//! whether frames crossed a channel or a socket.
//!
//! Two backends implement the adapter:
//!
//! * [`Network`] — the simulated
//!   shared-medium network with latency/loss/partition fault models. It
//!   owns no thread: a frame waits in its destination's inbox until it
//!   falls due, and the reader — the runtime loop, woken at that time, or
//!   a thread blocked in [`TransportEndpoint::recv_event`] — takes it.
//! * [`FramedTcpTransport`] — length-prefixed `syd-wire` envelopes over
//!   blocking TCP: one accept thread per endpoint, one reader thread per
//!   connection, and sends that dial (when needed) and write on the
//!   caller's thread.
//!
//! Both encode every [`Envelope`] with the same `syd-wire` codec, so the
//! bytes a peer observes are identical regardless of backend (property
//! tested in `tests/byte_identity.rs`), and both thread the same
//! [`TransportMetrics`] counters through a `syd-telemetry` [`Registry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod framing;
pub mod sim;
pub mod tcp;

use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_telemetry::names;
use syd_telemetry::{Counter, Registry};
use syd_types::{NodeAddr, SydResult};
use syd_wire::{Envelope, Payload};

pub use config::{LatencyModel, NetConfig};
pub use sim::{Endpoint, Network};
pub use tcp::{node_addr_of, socket_addr_of, FramedTcpEndpoint, FramedTcpTransport};

/// Synthetic trace device id for the sim backend's queueing spans —
/// high enough to never collide with a node address.
pub const TRACE_DEVICE_SIM: u64 = u64::MAX;

/// Synthetic trace device id for the TCP backend's queueing spans.
pub const TRACE_DEVICE_TCP: u64 = u64::MAX - 1;

/// Bookkeeping for one pending `transport.queue` span: opened when a
/// traced request is accepted for transmission, recorded — as a child
/// of the request's RPC span — when the backend hands the frame onward
/// (taken by its reader on the sim, written to the socket on TCP). A
/// frame the backend drops (loss, failed dial or write) simply never
/// records its span; the assembler's lossy mode tolerates the hole.
pub(crate) struct QueueSpan {
    trace: u64,
    /// The request's RPC span id — the queue span's parent.
    rpc_span: u64,
    queued_us: u64,
}

impl QueueSpan {
    /// Opens bookkeeping for a traced request payload, `None` otherwise.
    pub(crate) fn of(payload: &Payload) -> Option<QueueSpan> {
        let Payload::Request(req) = payload else {
            return None;
        };
        req.trace.map(|tc| QueueSpan {
            trace: tc.trace_id,
            rpc_span: tc.span_id,
            queued_us: syd_trace::now_us(),
        })
    }

    /// Records the finished span, ending now.
    pub(crate) fn record(self, tracer: &syd_trace::Tracer) {
        tracer.record_span(
            names::SPAN_TRANSPORT_QUEUE,
            self.trace,
            syd_telemetry::trace::fresh_id(),
            self.rpc_span,
            self.queued_us,
            syd_trace::now_us(),
            &[],
        );
    }
}

/// Something a transport endpoint can observe.
///
/// Lifecycle events ([`TransportEvent::Connected`] and friends) describe
/// *connections*, which only the TCP backend materializes; the sim backend
/// emits them synthetically where the analogue is meaningful (an explicit
/// [`TransportEndpoint::connect`]). Consumers that only care about traffic
/// can ignore everything but [`TransportEvent::Message`].
// A decoded request holds its credentials and up to four arguments in
// place; boxing the message would bring back the allocation that saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum TransportEvent {
    /// An outbound connection to the peer was established.
    Connected(NodeAddr),
    /// An inbound connection from the peer was accepted.
    Accepted(NodeAddr),
    /// The connection to/from the peer was lost or closed.
    Disconnected(NodeAddr),
    /// A fully reassembled envelope arrived.
    Message(Envelope),
}

/// Readiness callback installed on an endpoint by an event-driven
/// runtime (the `syd-net` loop).
///
/// Backends call [`ReadyNotifier::notify`] after enqueueing an event, with
/// the time it falls due (now, or a sim frame's arrival), and again when a
/// drain finds the head event not yet due; the runtime then drains the
/// endpoint via [`TransportEndpoint::try_recv_event`] until empty. Hints,
/// not a count: backends may coalesce or over-notify freely.
/// Implementations must not block and must tolerate being called from
/// backend-internal threads while backend locks are held.
pub trait ReadyNotifier: Send + Sync + 'static {
    /// The endpoint at `addr` (its [`TransportEndpoint::addr`]) has an
    /// event that falls due at `due`, or has been closed.
    fn notify(&self, addr: NodeAddr, due: Instant);
}

/// A transport backend: a factory for addressed endpoints.
///
/// The two implementations are [`Network`] (simulated) and
/// [`FramedTcpTransport`] (real sockets). `SydEnv`, device runtimes and
/// directory servers take `&dyn Transport`, so the same application code
/// runs on either.
pub trait Transport: Send + Sync + 'static {
    /// Short backend identifier: `"sim"` or `"tcp"`.
    fn kind(&self) -> &'static str;

    /// Opens a new listening endpoint with a fresh address.
    fn listen(&self) -> SydResult<Arc<dyn TransportEndpoint>>;

    /// The telemetry registry holding this backend's
    /// [`TransportMetrics`] counters.
    fn metrics(&self) -> &Arc<Registry>;
}

/// One addressed endpoint of a transport: the network-facing half of a
/// device.
///
/// Endpoints are registered/bound by [`Transport::listen`] and speak in
/// whole [`Envelope`]s; framing, connection management and reconnect
/// policy are the backend's business.
pub trait TransportEndpoint: Send + Sync + 'static {
    /// This endpoint's address. For TCP the address encodes the socket
    /// address (see [`node_addr_of`]); for the sim it is a small integer.
    fn addr(&self) -> NodeAddr;

    /// Eagerly establishes a connection to `peer` (sends connect lazily
    /// otherwise). Emits [`TransportEvent::Connected`] once the peer is
    /// reachable; idempotent when already connected.
    fn connect(&self, peer: NodeAddr) -> SydResult<()>;

    /// Sends an envelope to `env.dst`, returning the encoded byte count
    /// accepted for transmission. Delivery may still fail afterwards. A
    /// request that provably cannot be delivered fails fast as
    /// `Disconnected`: TCP returns `Err(Disconnected(peer))` from `send`
    /// when the dial or the write fails, and the sim synthesizes a
    /// `Disconnected` error response.
    fn send(&self, env: Envelope) -> SydResult<usize>;

    /// Blocks until the next event (message or lifecycle) arrives.
    /// Returns `Err(Shutdown)` once the endpoint is closed and drained,
    /// and `Err(Codec(_))` for an undecodable frame (the connection
    /// survives; callers should skip and continue).
    fn recv_event(&self) -> SydResult<TransportEvent>;

    /// Like [`TransportEndpoint::recv_event`] with a deadline; returns
    /// `Err(Timeout)` when nothing arrived in time.
    fn recv_event_timeout(&self, timeout: Duration) -> SydResult<TransportEvent>;

    /// Non-blocking poll used by the event-driven runtime: returns the
    /// next queued event, `Some(Err(Shutdown))` once the endpoint is
    /// closed and drained, or `None` when the queue is currently empty.
    /// Never blocks.
    fn try_recv_event(&self) -> Option<SydResult<TransportEvent>>;

    /// Installs a readiness notifier. After installation the backend
    /// calls [`ReadyNotifier::notify`] with this endpoint's address
    /// whenever an event is enqueued (and once immediately on install,
    /// so events that raced installation are not stranded). Replaces
    /// any previous notifier.
    fn set_ready_notifier(&self, notifier: Arc<dyn ReadyNotifier>);

    /// Mobility fault hook: while disconnected the endpoint refuses new
    /// traffic (the paper's device going out of range). The TCP backend
    /// also drops live connections and rejects new accepts.
    fn set_connected(&self, connected: bool);

    /// True while the endpoint is accepting traffic.
    fn is_connected(&self) -> bool;

    /// Fault-injection hook: abruptly severs every live connection (a
    /// kill-the-socket fault) and returns how many were killed. The sim
    /// has no connections and returns 0.
    fn kill_connections(&self) -> usize;

    /// Installs a frame tap: every complete envelope frame delivered to
    /// this endpoint is mirrored (raw bytes, without length prefix) to
    /// `tx` before decoding. Test instrumentation for byte-identity
    /// checks across backends.
    fn set_frame_tap(&self, tx: syd_types::queue::Sender<Vec<u8>>);

    /// Closes the endpoint: severs connections and stops background
    /// threads; a frame TCP's `send` returned for is already written.
    /// After close, [`TransportEndpoint::recv_event`] drains buffered
    /// events and then returns `Err(Shutdown)`. Idempotent.
    fn close(&self);
}

/// Preregistered counters shared by every backend. All operations are
/// relaxed atomics — statistics, not synchronization.
#[derive(Clone)]
pub struct TransportMetrics {
    /// `transport.conns` — connections established (outbound + inbound).
    pub conns: Counter,
    /// `transport.accepts` — inbound connections accepted.
    pub accepts: Counter,
    /// `transport.reconnects` — re-established connections to a peer
    /// that had already been connected before.
    pub reconnects: Counter,
    /// `transport.bytes_in` — payload bytes received (frame bodies).
    pub bytes_in: Counter,
    /// `transport.bytes_out` — payload bytes accepted for transmission.
    pub bytes_out: Counter,
    /// `transport.frames_in` — complete frames received.
    pub frames_in: Counter,
    /// `transport.frames_out` — frames accepted for transmission.
    pub frames_out: Counter,
    /// `transport.frame_errors` — frames that failed framing or envelope
    /// decoding. Zero in every clean run.
    pub frame_errors: Counter,
    /// `transport.dropped_loss` — sim frames the loss model dropped.
    pub dropped_loss: Counter,
    /// `transport.dropped_partition` — sim frames a partition swallowed.
    pub dropped_partition: Counter,
    /// `transport.dropped_disconnected` — sim frames to a disconnected
    /// endpoint.
    pub dropped_disconnected: Counter,
    /// `transport.dropped_unreachable` — sim frames to an address that
    /// never registered or has left.
    pub dropped_unreachable: Counter,
}

impl TransportMetrics {
    /// Registers (or re-binds) the counters on `registry`.
    pub fn preregister(registry: &Registry) -> Self {
        Self {
            conns: registry.counter(names::TRANSPORT_CONNS),
            accepts: registry.counter(names::TRANSPORT_ACCEPTS),
            reconnects: registry.counter(names::TRANSPORT_RECONNECTS),
            bytes_in: registry.counter(names::TRANSPORT_BYTES_IN),
            bytes_out: registry.counter(names::TRANSPORT_BYTES_OUT),
            frames_in: registry.counter(names::TRANSPORT_FRAMES_IN),
            frames_out: registry.counter(names::TRANSPORT_FRAMES_OUT),
            frame_errors: registry.counter(names::TRANSPORT_FRAME_ERRORS),
            dropped_loss: registry.counter(names::TRANSPORT_DROPPED_LOSS),
            dropped_partition: registry.counter(names::TRANSPORT_DROPPED_PARTITION),
            dropped_disconnected: registry.counter(names::TRANSPORT_DROPPED_DISCONNECTED),
            dropped_unreachable: registry.counter(names::TRANSPORT_DROPPED_UNREACHABLE),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod trait_tests {
    use super::*;

    #[test]
    fn metrics_preregister_is_idempotent() {
        let registry = Registry::new();
        let a = TransportMetrics::preregister(&registry);
        let b = TransportMetrics::preregister(&registry);
        a.bytes_out.add(10);
        assert_eq!(b.bytes_out.get(), 10, "handles share one counter");
        assert_eq!(
            registry
                .get_counter(names::TRANSPORT_BYTES_OUT)
                .unwrap()
                .get(),
            10
        );
    }
}
