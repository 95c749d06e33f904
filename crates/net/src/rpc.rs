//! Client-side RPC plumbing: call options and pending-call futures.

use std::time::Duration;

use syd_types::queue::{Receiver, RecvError};
use syd_types::{RequestId, SydError, SydResult, Value};

/// Per-call knobs for [`crate::Node::call_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallOptions {
    /// How long to wait for the response before giving up.
    pub timeout: Duration,
    /// How many times to re-send after a *transient* failure (timeout,
    /// lock timeout, disconnection). Retries use fresh request ids; the
    /// callee may observe a retried request twice, so retried methods
    /// should be idempotent — all SyD kernel internals are.
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
/// ever waiting) runs its cleanup hook, which removes the node's
/// pending-table entry and cancels any armed deadline timer — an
/// abandoned or timed-out call cannot leak table slots.
pub struct PendingCall {
    pub(crate) id: RequestId,
    pub(crate) rx: Receiver<SydResult<Value>>,
    /// Installed by the node: removes the pending-table entry (and any
    /// timer-wheel deadline) when this call is dropped.
    pub(crate) cleanup: Option<Box<dyn FnOnce() + Send>>,
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
        if let Some(cleanup) = self.cleanup.take() {
            cleanup();
        }
    }
}

impl PendingCall {
    /// The request id correlating this call.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Waits up to `timeout` for the response.
    pub fn wait(mut self, timeout: Duration) -> SydResult<Value> {
        let result = match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvError::Empty) => Err(SydError::Timeout(self.id)),
            Err(RecvError::Disconnected) => Err(SydError::Shutdown),
        };
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
        let call = PendingCall {
            id: RequestId::new(9),
            rx,
            cleanup: None,
            span: None,
        };
        assert_eq!(
            call.wait(Duration::from_millis(10)).unwrap_err(),
            SydError::Timeout(RequestId::new(9))
        );
    }

    #[test]
    fn pending_call_poll() {
        let (tx, rx) = queue::channel();
        let call = PendingCall {
            id: RequestId::new(1),
            rx,
            cleanup: None,
            span: None,
        };
        assert!(call.poll().is_none());
        tx.send(Ok(Value::I64(5))).unwrap();
        assert_eq!(call.poll().unwrap().unwrap(), Value::I64(5));
    }

    #[test]
    fn cleanup_runs_exactly_once_on_drop() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let (_tx, rx) = queue::channel();
        let call = PendingCall {
            id: RequestId::new(2),
            rx,
            cleanup: Some(Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            })),
            span: None,
        };
        let _ = call.wait(Duration::from_millis(5));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
