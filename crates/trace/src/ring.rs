//! Per-device span rings and the [`Tracer`] handle that instrumented
//! code records through.
//!
//! Each device (node, transport backend, …) owns one bounded
//! [`SpanRing`]; finishing a span is one push under the ring's mutex,
//! evicting the oldest record when full, so tracing holds a protocol
//! thread for a few stores and never grows without bound. Rings
//! self-register in a process
//! global registry (as weak refs) so `Collector::drain_global` and
//! `syd::obs::snapshot` can find every live ring without plumbing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use syd_telemetry::trace::{self, now_us, SpanCtx};
use syd_types::sync::Mutex;

/// Default per-ring capacity; drains are expected between operations.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One finished span, as recorded on the device that observed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// End-to-end operation id (same across every hop of the trace).
    pub trace: u64,
    /// This span's id. RPC client and server record under the same id.
    pub span: u64,
    /// Parent span id; 0 means "root or parent unknown".
    pub parent: u64,
    /// Kind string from `syd_telemetry::names` (`SPAN_*`).
    pub kind: &'static str,
    /// Device that recorded this view of the span.
    pub device: u64,
    /// Start, µs on the process-wide monotonic clock.
    pub start_us: u64,
    /// End, µs on the process-wide monotonic clock.
    pub end_us: u64,
    /// Numeric key/value attributes (participant count, retry count…).
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Wall time covered by this record, µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A bounded ring of finished spans for one device.
pub struct SpanRing {
    label: String,
    device: u64,
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` records.
    pub fn new(label: impl Into<String>, device: u64, capacity: usize) -> Arc<SpanRing> {
        let capacity = capacity.max(1);
        let ring = Arc::new(SpanRing {
            label: label.into(),
            device,
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        registry().lock().push(Arc::downgrade(&ring));
        ring
    }

    /// Pushes a finished record, evicting the oldest when full.
    pub fn push(&self, rec: SpanRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.buf.lock();
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(rec);
    }

    /// Pops the oldest buffered record, if any.
    pub fn pop(&self) -> Option<SpanRecord> {
        self.buf.lock().pop_front()
    }

    /// The device id this ring records for.
    pub fn device(&self) -> u64 {
        self.device
    }

    /// Human-readable device label (node address, backend name…).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Point-in-time counters for this ring.
    pub fn stats(&self) -> RingStats {
        RingStats {
            label: self.label.clone(),
            device: self.device,
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            buffered: self.buf.lock().len(),
        }
    }
}

/// Counters describing one ring, for live snapshots.
#[derive(Clone, Debug)]
pub struct RingStats {
    /// Ring label (who owns it).
    pub label: String,
    /// Device id the ring records for.
    pub device: u64,
    /// Spans ever recorded.
    pub recorded: u64,
    /// Spans evicted before a drain (lossy journal).
    pub dropped: u64,
    /// Spans currently buffered.
    pub buffered: usize,
}

fn registry() -> &'static Mutex<Vec<Weak<SpanRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<SpanRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Every live ring in the process (dead weak refs are pruned).
pub fn live_rings() -> Vec<Arc<SpanRing>> {
    let mut reg = registry().lock();
    reg.retain(|w| w.strong_count() > 0);
    reg.iter().filter_map(Weak::upgrade).collect()
}

/// Stats for every live ring, for `syd::obs::snapshot`-style views.
pub fn registry_stats() -> Vec<RingStats> {
    live_rings().iter().map(|r| r.stats()).collect()
}

/// Cloneable recording handle bound to one device's ring.
#[derive(Clone)]
pub struct Tracer {
    ring: Arc<SpanRing>,
}

impl Tracer {
    /// Creates a tracer (and its globally-registered ring) for a device.
    pub fn new(label: impl Into<String>, device: u64) -> Tracer {
        Tracer {
            ring: SpanRing::new(label, device, DEFAULT_RING_CAPACITY),
        }
    }

    /// The underlying ring, for targeted draining in tests.
    pub fn ring(&self) -> &Arc<SpanRing> {
        &self.ring
    }

    /// Opens a span as a child of the calling thread's current context
    /// (or as a fresh root when there is none) and installs it as the
    /// current context until the guard drops.
    #[must_use = "the span records when the guard drops"]
    pub fn span(&self, kind: &'static str) -> ActiveSpan {
        let (ctx, parent) = match trace::current() {
            Some(cur) => (cur.child(), cur.span),
            None => (trace::root_span(), 0),
        };
        self.open(kind, ctx, parent)
    }

    /// Opens a root span: a fresh trace id, no parent.
    #[must_use = "the span records when the guard drops"]
    pub fn span_root(&self, kind: &'static str) -> ActiveSpan {
        self.open(kind, trace::root_span(), 0)
    }

    fn open(&self, kind: &'static str, ctx: SpanCtx, parent: u64) -> ActiveSpan {
        ActiveSpan {
            ring: Arc::clone(&self.ring),
            kind,
            ctx,
            parent,
            start_us: now_us(),
            attrs: Vec::new(),
            _guard: trace::enter(ctx),
        }
    }

    /// Records an already-timed span (transport queueing, merged RPC
    /// views) without touching the thread-local context.
    #[allow(clippy::too_many_arguments)] // mirrors the record fields
    pub fn record_span(
        &self,
        kind: &'static str,
        trace: u64,
        span: u64,
        parent: u64,
        start_us: u64,
        end_us: u64,
        attrs: &[(&'static str, u64)],
    ) {
        self.ring.push(SpanRecord {
            trace,
            span,
            parent,
            kind,
            device: self.ring.device,
            start_us,
            end_us,
            attrs: attrs.to_vec(),
        });
    }

    /// Starts a span that finishes on another thread (an in-flight RPC):
    /// the returned handle records when finished or dropped.
    pub fn finish_handle(&self, kind: &'static str, ctx: SpanCtx, parent: u64) -> FinishSpan {
        FinishSpan {
            ring: Arc::clone(&self.ring),
            kind,
            trace: ctx.trace,
            span: ctx.span,
            parent,
            start_us: now_us(),
            attrs: Vec::new(),
            done: false,
        }
    }
}

/// An open span tied to the current thread; records itself on drop and
/// keeps the thread-local context pointing at it while alive.
#[must_use = "dropping immediately records a zero-length span"]
pub struct ActiveSpan {
    ring: Arc<SpanRing>,
    kind: &'static str,
    ctx: SpanCtx,
    parent: u64,
    start_us: u64,
    attrs: Vec<(&'static str, u64)>,
    _guard: trace::SpanGuard,
}

impl ActiveSpan {
    /// The context this span installed (its span id is `ctx().span`).
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }

    /// Attaches a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        self.attrs.push((key, value));
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        self.ring.push(SpanRecord {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent,
            kind: self.kind,
            device: self.ring.device,
            start_us: self.start_us,
            end_us: now_us(),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// A span whose end is observed on a different thread than its start.
///
/// Used for the client side of an RPC: minted at send, finished when
/// the response (or its abandonment) is observed. Dropping without
/// [`FinishSpan::finish`] records the span as ending at drop time.
#[must_use = "finish (or drop) records the span"]
#[derive(Debug)]
pub struct FinishSpan {
    ring: Arc<SpanRing>,
    kind: &'static str,
    trace: u64,
    span: u64,
    parent: u64,
    start_us: u64,
    attrs: Vec<(&'static str, u64)>,
    done: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("label", &self.ring.label)
            .field("device", &self.ring.device)
            .finish()
    }
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("label", &self.label)
            .field("device", &self.device)
            .field("buffered", &self.buf.lock().len())
            .finish()
    }
}

impl FinishSpan {
    /// Attaches a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        self.attrs.push((key, value));
    }

    /// Records the span, ending now.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.ring.push(SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            kind: self.kind,
            device: self.ring.device,
            start_us: self.start_us,
            end_us: now_us(),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

impl Drop for FinishSpan {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_telemetry::names;

    fn drain(ring: &SpanRing) -> Vec<SpanRecord> {
        std::iter::from_fn(|| ring.pop()).collect()
    }

    #[test]
    fn spans_nest_and_record_parentage() {
        let t = Tracer::new("dev-a", 7);
        {
            let outer = t.span(names::SPAN_SCHEDULE);
            let outer_ctx = outer.ctx();
            let inner = t.span(names::SPAN_MARK_ROUND);
            assert_eq!(inner.ctx().trace, outer_ctx.trace);
            drop(inner);
            drop(outer);
        }
        let recs = drain(t.ring());
        assert_eq!(recs.len(), 2);
        // Inner finished first; its parent is the outer span.
        assert_eq!(recs[0].kind, names::SPAN_MARK_ROUND);
        assert_eq!(recs[1].kind, names::SPAN_SCHEDULE);
        assert_eq!(recs[0].parent, recs[1].span);
        assert_eq!(recs[1].parent, 0);
        assert_eq!(recs[0].device, 7);
        assert!(recs[0].start_us <= recs[0].end_us);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = SpanRing::new("tiny", 1, 2);
        let t = Tracer {
            ring: Arc::clone(&ring),
        };
        for _ in 0..5 {
            let _s = t.span_root(names::SPAN_RECONCILE);
        }
        let stats = ring.stats();
        assert_eq!(stats.recorded, 5);
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.buffered, 2);

        // One push into a full ring costs exactly the oldest record.
        assert_eq!(drain(&ring).len(), 2);
        let ids: Vec<u64> = (0..3)
            .map(|_| t.span_root(names::SPAN_RECONCILE).ctx().span)
            .collect();
        assert_eq!(ring.stats().dropped, 4);
        let kept: Vec<u64> = drain(&ring).iter().map(|r| r.span).collect();
        assert_eq!(kept, ids[1..]);
    }

    #[test]
    fn finish_handle_records_once_even_if_dropped() {
        let t = Tracer::new("dev-b", 9);
        let ctx = syd_telemetry::trace::root_span();
        let mut h = t.finish_handle(names::SPAN_RPC_CLIENT, ctx, 42);
        h.attr("ok", 1);
        h.finish();
        let recs = drain(t.ring());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].span, ctx.span);
        assert_eq!(recs[0].parent, 42);
        assert_eq!(recs[0].attrs, vec![("ok", 1)]);

        let h2 = t.finish_handle(names::SPAN_RPC_CLIENT, ctx.child(), 0);
        drop(h2);
        assert_eq!(drain(t.ring()).len(), 1, "drop records exactly once");
    }

    #[test]
    fn registry_reports_live_rings_only() {
        let t = Tracer::new("live-ring-test", 1234);
        let before = registry_stats()
            .iter()
            .filter(|s| s.label == "live-ring-test")
            .count();
        assert_eq!(before, 1);
        drop(t);
        let after = registry_stats()
            .iter()
            .filter(|s| s.label == "live-ring-test")
            .count();
        assert_eq!(after, 0);
    }
}
