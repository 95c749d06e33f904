//! The handles instrumented code records spans through, into the span
//! ring of a device's log.
//!
//! Each device (node, transport backend, …) owns one bounded
//! [`Journal`], whose events the auditor reads and whose finished spans
//! a [`crate::Collector`] drains. A [`Tracer`] is a cloneable handle on
//! that log: finishing a span is one push under the log's mutex,
//! evicting the oldest span when the span ring is full, so tracing holds
//! a protocol thread for a few stores and never grows without bound. The
//! ring's reservation policy and the registry `Collector::drain_global`
//! walks live in `syd_telemetry::ring`.

use std::sync::Arc;
use syd_telemetry::trace::{self, now_us, SpanCtx};
use syd_telemetry::{Journal, SpanRecord};

/// Cloneable recording handle bound to one device's log.
#[derive(Clone)]
pub struct Tracer {
    journal: Arc<Journal>,
}

impl Tracer {
    /// Creates a tracer and the device log it records into, listed in
    /// the process registry.
    pub fn new(label: impl Into<String>, device: u64) -> Tracer {
        Tracer {
            journal: Journal::open(label, device),
        }
    }

    /// The log this tracer records into: the device's events and spans.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
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
            span: self.finish_handle(kind, ctx, parent),
            ctx,
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
        self.journal.push_span(SpanRecord {
            trace,
            span,
            parent,
            kind,
            device: self.journal.device(),
            start_us,
            end_us,
            attrs: attrs.into(),
        });
    }

    /// Starts a span that finishes on another thread (an in-flight RPC):
    /// the returned handle records when finished or dropped.
    pub fn finish_handle(&self, kind: &'static str, ctx: SpanCtx, parent: u64) -> FinishSpan {
        let rec = SpanRecord {
            trace: ctx.trace,
            span: ctx.span,
            parent,
            kind,
            device: self.journal.device(),
            start_us: now_us(),
            end_us: 0,
            attrs: Default::default(),
        };
        FinishSpan {
            journal: Arc::clone(&self.journal),
            rec: Some(rec),
        }
    }
}

/// An open span tied to the current thread; records itself on drop and
/// keeps the thread-local context pointing at it while alive.
#[must_use = "dropping immediately records a zero-length span"]
pub struct ActiveSpan {
    span: FinishSpan,
    ctx: SpanCtx,
    _guard: trace::SpanGuard,
}

impl ActiveSpan {
    /// The context this span installed (its span id is `ctx().span`).
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }

    /// Attaches a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        self.span.attr(key, value);
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
    journal: Arc<Journal>,
    /// The record to push, its end still open; `None` once pushed.
    rec: Option<SpanRecord>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("label", &self.journal.label())
            .field("device", &self.journal.device())
            .finish()
    }
}

impl FinishSpan {
    /// Attaches a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(rec) = &mut self.rec {
            rec.attrs.push((key, value));
        }
    }

    /// When the span started ([`now_us`] time base).
    pub fn start_us(&self) -> u64 {
        self.rec.as_ref().map_or(0, |rec| rec.start_us)
    }

    /// Records the span, ending now.
    pub fn finish(self) {
        self.finish_at(now_us());
    }

    /// Records the span, ending at `end_us` — a moment observed earlier
    /// on another thread ([`now_us`] time base).
    pub fn finish_at(mut self, end_us: u64) {
        self.record(end_us);
    }

    fn record(&mut self, end_us: u64) {
        if let Some(rec) = self.rec.take() {
            self.journal.push_span(SpanRecord { end_us, ..rec });
        }
    }
}

impl Drop for FinishSpan {
    fn drop(&mut self) {
        self.record(now_us());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_telemetry::names;

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
        let recs = t.journal().drain_spans();
        assert_eq!(recs.len(), 2);
        // Inner finished first; its parent is the outer span.
        assert_eq!(recs[0].kind, names::SPAN_MARK_ROUND);
        assert_eq!(recs[1].kind, names::SPAN_SCHEDULE);
        assert_eq!(recs[0].parent, recs[1].span);
        assert_eq!(recs[1].parent, 0);
        assert_eq!(recs[0].device, 7);
        assert!(recs[0].start_us <= recs[0].end_us);
        // Spans are not events: the auditor's sequence is untouched.
        assert_eq!(t.journal().stats().events, 0);
    }

    #[test]
    fn finish_handle_records_once_even_if_dropped() {
        let t = Tracer::new("dev-b", 9);
        let ctx = syd_telemetry::trace::root_span();
        let mut h = t.finish_handle(names::SPAN_RPC_CLIENT, ctx, 42);
        h.attr("ok", 1);
        h.finish();
        let recs = t.journal().drain_spans();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].span, ctx.span);
        assert_eq!(recs[0].parent, 42);
        assert_eq!(recs[0].attrs[..], [("ok", 1)]);

        let h2 = t.finish_handle(names::SPAN_RPC_CLIENT, ctx.child(), 0);
        drop(h2);
        assert_eq!(
            t.journal().drain_spans().len(),
            1,
            "drop records exactly once"
        );
    }

    #[test]
    fn a_finish_handle_ends_where_it_is_told() {
        let t = Tracer::new("dev-c", 10);
        let h = t.finish_handle(names::SPAN_RPC_CLIENT, syd_telemetry::trace::root_span(), 0);
        let start = h.start_us();
        h.finish_at(start + 7);
        let recs = t.journal().drain_spans();
        assert_eq!((recs[0].start_us, recs[0].end_us), (start, start + 7));
    }
}
