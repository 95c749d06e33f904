//! Thread-local trace-context propagation.
//!
//! A *trace* is one end-to-end operation (a meeting setup, a cancel
//! cascade); a *span* is one hop of it (a single RPC dispatch, one
//! reconcile round). The context travels two ways:
//!
//! * **in-process** — via a thread-local. SyD's RPC layer dispatches
//!   each inbound request on a worker thread and blocks that thread for
//!   nested outbound calls, so a thread-local set around the handler
//!   (`enter`) is inherited by every nested invocation the handler
//!   makes, with no API changes anywhere in between;
//! * **on the wire** — via the optional trace field of
//!   `syd_wire::Request`, written from [`current`] by the caller and
//!   re-entered (hop + 1) by the server before dispatch.
//!
//! Worker threads are pooled and reused, so [`SpanGuard`] restores the
//! previous context on drop instead of clearing it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Microseconds since the process-wide telemetry epoch (the first call).
///
/// Every journal event and every span of the process is stamped from
/// this one clock, so a journal line and a span of the same trace — or
/// the dumps of two devices — sit on one time axis.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The propagated context: which trace this thread is working for,
/// which span within it, and how many RPC hops deep it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// End-to-end operation id, stable across every hop.
    pub trace: u64,
    /// This hop's span id.
    pub span: u64,
    /// Number of RPC dispatches between the root and this context.
    pub hop: u32,
}

impl SpanCtx {
    /// A child context for an outbound call: same trace, fresh span,
    /// same hop count (the receiving server increments the hop).
    pub fn child(&self) -> SpanCtx {
        SpanCtx {
            trace: self.trace,
            span: fresh_id(),
            hop: self.hop,
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<SpanCtx>> = const { Cell::new(None) };
}

static NEXT: AtomicU64 = AtomicU64::new(0);
static SEED: OnceLock<u64> = OnceLock::new();

fn seed() -> u64 {
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        nanos ^ 0x9e37_79b9_7f4a_7c15
    })
}

/// Generates a process-unique, well-mixed, non-zero 64-bit id.
///
/// A splitmix64 step over a seeded counter: ids from concurrent threads
/// never collide (the counter is atomic) and look random enough that
/// trace ids from different runs are distinguishable in merged logs.
pub fn fresh_id() -> u64 {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut z = seed().wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// A fresh root context: new trace, new span, hop 0.
pub fn root_span() -> SpanCtx {
    SpanCtx {
        trace: fresh_id(),
        span: fresh_id(),
        hop: 0,
    }
}

/// The context the current thread is working under, if any.
pub fn current() -> Option<SpanCtx> {
    CURRENT.with(Cell::get)
}

/// Installs `ctx` as the current thread's context until the returned
/// guard drops, at which point the previous context is restored.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub fn enter(ctx: SpanCtx) -> SpanGuard {
    let previous = CURRENT.with(|c| c.replace(Some(ctx)));
    SpanGuard { previous }
}

/// Restores the previously-installed [`SpanCtx`] on drop.
///
/// Restoring (rather than clearing) matters because dispatch threads
/// are pooled: a cleared context would leak span state from one request
/// into the next, and a nested guard would clobber its parent.
#[derive(Debug)]
pub struct SpanGuard {
    previous: Option<SpanCtx>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        CURRENT.with(|c| c.set(previous));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn fresh_ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| fresh_id()).collect::<Vec<_>>()))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "cross-thread duplicate {id:#x}");
            }
        }
    }

    #[test]
    fn enter_nests_and_restores() {
        assert_eq!(current(), None);
        let outer = root_span();
        let g1 = enter(outer);
        assert_eq!(current(), Some(outer));
        {
            let inner = outer.child();
            assert_eq!(inner.trace, outer.trace);
            assert_ne!(inner.span, outer.span);
            let g2 = enter(inner);
            assert_eq!(current(), Some(inner));
            drop(g2);
        }
        assert_eq!(current(), Some(outer));
        drop(g1);
        assert_eq!(current(), None);
    }

    #[test]
    fn context_is_per_thread() {
        let ctx = root_span();
        let _g = enter(ctx);
        std::thread::spawn(|| assert_eq!(current(), None))
            .join()
            .unwrap();
        assert_eq!(current(), Some(ctx));
    }
}
