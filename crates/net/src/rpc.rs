//! Client-side RPC plumbing: requests, call options and pending-call
//! handles. A [`PendingCall`] owns no reply slot of its own: its reply
//! lands in the issuing node's pending table, which it names by id.

use std::marker::PhantomData;
use std::sync::Weak;
use std::time::Duration;

use syd_types::{RequestId, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::{Args, AsValue, Params};

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
    /// Positional arguments, encoded once: a broadcast's calls, and every
    /// re-send, copy or share these bytes.
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

    /// `verb` to `user`.
    pub fn verb<A, R>(user: UserId, verb: Verb<A, R>, args: impl Into<Body<A>>) -> Call<'static> {
        Call {
            user,
            service: verb.service,
            method: verb.name,
            args: args.into().args,
        }
    }

    /// `verb` to every user of `users`, with one body shared by all.
    pub fn verb_each<A: 'a, R: 'a>(
        users: &'a [UserId],
        verb: Verb<A, R>,
        args: impl Into<Body<A>>,
    ) -> impl Iterator<Item = Call<'a>> + 'a {
        let body = args.into();
        users
            .iter()
            .map(move |&user| Call::verb(user, verb, body.clone()))
    }
}

/// One remote method, declared once: its service, its wire name, its
/// argument tuple `A` and its reply `R`. The handler that serves it and
/// every caller name the same `const`, so a call that does not fit the
/// method does not compile; only the name travels.
pub struct Verb<A, R> {
    /// The service the method belongs to.
    pub service: &'static ServiceName,
    /// The method's name on the wire.
    pub name: &'static str,
    signature: PhantomData<fn(A) -> R>,
}

impl<A, R> Verb<A, R> {
    /// The method `name` of `service`.
    pub const fn new(service: &'static ServiceName, name: &'static str) -> Verb<A, R> {
        Verb {
            service,
            name,
            signature: PhantomData,
        }
    }
}

impl<A, R: AsValue> Verb<A, R> {
    /// A call's outcome read as this verb's reply.
    pub fn reply(self, outcome: SydResult<Value>) -> SydResult<R> {
        outcome.and_then(R::from_value)
    }
}

impl<A, R> Clone for Verb<A, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A, R> Copy for Verb<A, R> {}

/// The arguments of a [`Verb`], encoded once into their [`Args`]: calls
/// that carry the same arguments — a broadcast, a shared negotiation body
/// — clone it and pay one serialisation.
pub struct Body<A> {
    args: Args,
    params: PhantomData<fn(A)>,
}

impl<A: Params> From<A> for Body<A> {
    fn from(args: A) -> Body<A> {
        Body {
            args: args.into_args(),
            params: PhantomData,
        }
    }
}

impl<A> From<Body<A>> for Args {
    fn from(body: Body<A>) -> Args {
        body.args
    }
}

impl<A> Clone for Body<A> {
    fn clone(&self) -> Self {
        Body {
            args: self.args.clone(),
            params: PhantomData,
        }
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
/// [`PendingCall::wait`] takes the call's entry out of the node's pending
/// table; dropping a `PendingCall` that was never waited for removes it —
/// an abandoned or timed-out call cannot leak table slots.
pub struct PendingCall {
    pub(crate) id: RequestId,
    /// The issuing node, whose pending table holds this call's reply
    /// slot; empty once the slot has been taken.
    pub(crate) node: Weak<NodeShared>,
    /// Open `rpc.client` span covering the call from send to its response's
    /// arrival (or abandonment — the handle records on drop either way).
    /// Its start is the send time `rpc.call` measures from.
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

    /// Waits up to `timeout` for the response: the node's collect loop
    /// for a wave of one. A call whose node is gone fails with `Shutdown`.
    pub fn wait(self, timeout: Duration) -> SydResult<Value> {
        let mut result = [Err(SydError::Shutdown)];
        if let Some(node) = self.node.upgrade() {
            node.collect(&mut [(0, self)], timeout, &mut result);
        }
        let [result] = result;
        result
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

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
    fn a_broadcasts_calls_share_one_argument_buffer() {
        const SVC: &ServiceName = &ServiceName::constant("svc");
        const NOTE: Verb<(syd_types::Text,), ()> = Verb::new(SVC, "note");
        let users: Vec<UserId> = (1..=8).map(UserId::new).collect();
        let long = syd_types::Text::from("x".repeat(100));
        let calls: Vec<Call<'_>> = Call::verb_each(&users, NOTE, (long,)).collect();
        let buffer = calls[0].args.as_bytes();
        assert!(buffer.len() > syd_types::blob::INLINE_CAP);
        for call in &calls {
            assert_eq!(call.args.as_bytes().as_ptr(), buffer.as_ptr());
        }
    }

    #[test]
    fn pending_call_timeout_names_request() {
        let net = crate::Network::ideal();
        let silent = net.register(); // receives, never replies
        let client = crate::Node::spawn(&net);
        let call = client
            .call_async(silent.addr(), &ServiceName::new("svc"), "m", vec![])
            .unwrap();
        let id = call.id();
        assert_eq!(
            call.wait(Duration::from_millis(10)).unwrap_err(),
            SydError::Timeout(id)
        );
        assert_eq!(client.rpc_timeouts(), 1);
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
