//! RPC layer for SyD over a pluggable transport.
//!
//! The paper's prototype ran on a wireless LAN of iPAQ handhelds, speaking
//! raw TCP sockets (§3.1, §5.2). The substrate lives in `syd-transport`
//! (the simulated [`Network`] and the real [`FramedTcpTransport`]); this
//! crate builds the RPC machinery on top of *either*, through the
//! [`Transport`] adapter:
//!
//! * **[`Node`]** — one addressed endpoint that demultiplexes incoming
//!   traffic (responses → pending-call table, requests/events → worker
//!   pool), with correlation ids and one send–wait–resend loop
//!   ([`Node::call_many`]) behind every blocking call.
//! * **[`SharedRuntime`]** — the event-driven device runtime: one loop
//!   (readiness, timed wake-ups and periodic tasks) and one shared
//!   [`WorkerPool`] carry an entire fleet of nodes.
//! * **[`WorkerPool`]** — one running worker per core, and a turn handed
//!   on by every job that waits, so nested invocations (cancel cascades,
//!   negotiations) can never deadlock a dispatch thread.
//!
//! A dropped TCP connection and a simulated message loss surface as the
//! same transient errors ([`syd_types::SydError::Disconnected`] /
//! [`syd_types::SydError::Timeout`]), so retry policy and the invariant
//! auditor behave identically on both backends.
//!
//! Everything above this crate (`syd-core`, the applications) sees only
//! logical operations: `call`, `call_async`, `publish_event`, `serve`.
//! The simulated network types are re-exported here (`syd_net::Network`,
//! `syd_net::NetConfig`, …) so existing code keeps compiling unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod pool;
pub mod rpc;
pub mod runtime;
mod timer;

pub use syd_transport::config;

pub use node::{EventSink, Node, RequestHandler};
pub use pool::WorkerPool;
pub use rpc::{Body, Call, CallOptions, PendingCall, Verb};
pub use runtime::{runtime_for, DrainOutcome, SharedRuntime};
pub use syd_transport::{
    Endpoint, FramedTcpTransport, LatencyModel, NetConfig, Network, Transport, TransportEndpoint,
    TransportEvent,
};
pub use timer::TimerId;
