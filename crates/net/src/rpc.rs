//! Client-side RPC plumbing: requests, call options and pending-call
//! futures.

use std::sync::Weak;
use std::time::{Duration, Instant};

use syd_types::queue::{Receiver, RecvError};
use syd_types::{RequestId, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::Args;

use crate::node::NodeShared;

/// One request of a [`crate::Node::call_many`] set.
#[derive(Clone, Debug)]
pub struct Call<'a> {
    /// Logical target user, stamped on the request: a proxy hosting
    /// several users' replicas routes by it, and an engine resolves it to
    /// an address. Calls to a plain address leave it at the default.
    pub user: UserId,
    /// Service to invoke at the target.
    pub service: &'a ServiceName,
    /// Method of that service.
    pub method: &'a str,
    /// Positional arguments; a shared handle, so a broadcast's calls (and
    /// every re-send) can all point at one pre-encoded body.
    pub args: Args,
}

impl<'a> Call<'a> {
    /// A single call with its own arguments.
    pub fn new(
        user: UserId,
        service: &'a ServiceName,
        method: &'a str,
        args: impl Into<Args>,
    ) -> Call<'a> {
        Call {
            user,
            service,
            method,
            args: args.into(),
        }
    }

    /// The same call to every user of `users`: the argument body is
    /// encoded **once** and shared by every outgoing request (and any
    /// retry) — a group of `n` pays one serialisation, not `n`.
    pub fn broadcast(
        users: &'a [UserId],
        service: &'a ServiceName,
        method: &'a str,
        args: Vec<Value>,
    ) -> impl Iterator<Item = Call<'a>> + 'a {
        let args = Args::from(args);
        if !users.is_empty() {
            args.preencode();
        }
        users.iter().map(move |&user| Call {
            user,
            service,
            method,
            args: args.clone(),
        })
    }
}

/// Deadline and retry budget of a [`crate::Node::call_many`] set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallOptions {
    /// How long to wait for the response before giving up.
    pub timeout: Duration,
    /// How many more waves re-send what failed *transiently* (timeout,
    /// lock timeout, disconnection, unreachable address). Retries use
    /// fresh request ids; the callee may observe a retried request twice,
    /// so retried methods should be idempotent — all SyD kernel internals
    /// are.
    pub retries: u32,
}

impl CallOptions {
    /// Default: 2 s deadline, no retries.
    pub const fn new() -> Self {
        Self {
            timeout: Duration::from_secs(2),
            retries: 0,
        }
    }

    /// Builder: replaces the timeout.
    pub const fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Builder: replaces the retry budget.
    pub const fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

impl Default for CallOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// An in-flight call whose response can be awaited later — the engine's
/// group invocation sends every request first, then collects, so a group
/// call takes one round-trip latency rather than `n` (§3.1 "execute a
/// service on a group of objects").
///
/// Dropping a `PendingCall` (after [`PendingCall::wait`], or without
/// ever waiting) removes the node's pending-table entry — an abandoned or
/// timed-out call cannot leak table slots.
pub struct PendingCall {
    pub(crate) id: RequestId,
    pub(crate) rx: Receiver<SydResult<Value>>,
    /// The issuing node: its pending table holds this call's reply slot,
    /// its registry the `rpc.call` / `rpc.timeouts` metrics.
    pub(crate) node: Weak<NodeShared>,
    /// When the request left, for `rpc.call`.
    pub(crate) sent: Instant,
    /// Open `rpc.client` span covering the call from send to response
    /// (or abandonment — the handle records on drop either way).
    pub(crate) span: Option<syd_trace::FinishSpan>,
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingCall").field("id", &self.id).finish()
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        if let Some(node) = self.node.upgrade() {
            node.pending.lock().remove(&self.id);
        }
    }
}

impl PendingCall {
    /// The request id correlating this call.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Waits up to `timeout` for the response. Every RPC ends here,
    /// whoever issued it, so this is where `rpc.call` (answered: send to
    /// response) and `rpc.timeouts` are fed.
    pub fn wait(mut self, timeout: Duration) -> SydResult<Value> {
        let result = match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvError::Empty) => Err(SydError::Timeout(self.id)),
            Err(RecvError::Disconnected) => Err(SydError::Shutdown),
        };
        if let Some(node) = self.node.upgrade() {
            match &result {
                Ok(_) => node.metrics.rpc_call.record_duration(self.sent.elapsed()),
                Err(SydError::Timeout(_)) => node.metrics.rpc_timeouts.inc(),
                Err(_) => {}
            }
        }
        if let Some(mut span) = self.span.take() {
            span.attr("ok", u64::from(result.is_ok()));
            span.finish();
        }
        result
    }

    /// Returns the response if it has already arrived.
    pub fn poll(&self) -> Option<SydResult<Value>> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_types::queue;

    /// A call no node issued: nothing to clean up, nothing to count.
    fn detached(id: u64, rx: Receiver<SydResult<Value>>) -> PendingCall {
        PendingCall {
            id: RequestId::new(id),
            rx,
            node: Weak::new(),
            sent: Instant::now(),
            span: None,
        }
    }

    #[test]
    fn options_builders() {
        let opts = CallOptions::new()
            .with_timeout(Duration::from_millis(10))
            .with_retries(3);
        assert_eq!(opts.timeout, Duration::from_millis(10));
        assert_eq!(opts.retries, 3);
        assert_eq!(CallOptions::default(), CallOptions::new());
    }

    #[test]
    fn pending_call_timeout_names_request() {
        let (_tx, rx) = queue::channel();
        assert_eq!(
            detached(9, rx).wait(Duration::from_millis(10)).unwrap_err(),
            SydError::Timeout(RequestId::new(9))
        );
    }

    #[test]
    fn pending_call_poll() {
        let (tx, rx) = queue::channel();
        let call = detached(1, rx);
        assert!(call.poll().is_none());
        tx.send(Ok(Value::I64(5))).unwrap();
        assert_eq!(call.poll().unwrap().unwrap(), Value::I64(5));
    }

    #[test]
    fn cleanup_runs_exactly_once_on_drop() {
        let net = crate::Network::ideal();
        let silent = net.register(); // receives, never replies
        let client = crate::Node::spawn(&net);
        let svc = ServiceName::new("svc");
        let first = client.call_async(silent.addr(), &svc, "m", vec![]).unwrap();
        let second = client.call_async(silent.addr(), &svc, "m", vec![]).unwrap();
        let node = first.node.upgrade().unwrap();
        assert_eq!(node.pending.lock().len(), 2);
        // A finished wait takes its own table slot with it, and only that.
        let _ = first.wait(Duration::from_millis(5));
        assert_eq!(node.pending.lock().len(), 1);
        drop(second);
        assert_eq!(node.pending.lock().len(), 0);
    }
}
