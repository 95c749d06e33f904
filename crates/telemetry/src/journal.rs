//! Bounded ring-buffer event journal for postmortems.
//!
//! Each device keeps one [`Journal`]. Hot paths append structured
//! events — span begin/end, the §4.3 negotiation state transitions
//! (mark/lock/change/abort), waiting-link promotion — and the ring
//! buffer keeps the most recent `capacity` of them. When a scenario
//! fails, `dump()` renders a human-readable timeline and `to_jsonl()`
//! a machine-readable one; both carry the trace/span ids captured from
//! [`crate::trace::current`] at record time, so events from different
//! devices can be stitched into one end-to-end story.

use crate::export::json_escape;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;
use syd_types::sync::Mutex;

/// What kind of thing happened. Mirrors the negotiation protocol's
/// state machine plus generic span and link events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A traced operation started.
    SpanBegin,
    /// A traced operation finished.
    SpanEnd,
    /// Negotiation mark request (vote + lock attempt).
    Mark,
    /// An entity lock was acquired for a negotiation session.
    Lock,
    /// Negotiation commit applied a change.
    Change,
    /// Negotiation abort — the detail carries the reason.
    Abort,
    /// A waiting link was promoted (§4.2 op. 3).
    Promotion,
    /// Anything else worth keeping in the timeline.
    Info,
}

impl EventKind {
    /// Stable short name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Mark => "mark",
            EventKind::Lock => "lock",
            EventKind::Change => "change",
            EventKind::Abort => "abort",
            EventKind::Promotion => "promotion",
            EventKind::Info => "info",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotonic sequence number; gaps reveal ring-buffer eviction.
    pub seq: u64,
    /// Microseconds since the journal was created.
    pub at_micros: u64,
    /// Trace id captured from the recording thread (0 when untraced).
    pub trace: u64,
    /// Span id captured from the recording thread (0 when untraced).
    pub span: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Free-form detail (entity, session, reason, …).
    pub detail: String,
}

struct JournalInner {
    next_seq: u64,
    events: VecDeque<JournalEvent>,
}

/// A bounded, thread-safe event ring buffer.
pub struct Journal {
    capacity: usize,
    epoch: Instant,
    inner: Mutex<JournalInner>,
}

/// Default ring capacity: enough for several meeting lifecycles on one
/// device without unbounded growth on long runs.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(JournalInner {
                next_seq: 0,
                events: VecDeque::with_capacity(capacity.clamp(1, 1024)),
            }),
        }
    }

    /// Appends an event, stamping it with the current thread's trace
    /// context (zeros when none is installed). Evicts the oldest event
    /// when full.
    pub fn record(&self, kind: EventKind, detail: impl Into<String>) {
        let (trace, span) = match crate::trace::current() {
            Some(ctx) => (ctx.trace, ctx.span),
            None => (0, 0),
        };
        let at_micros = self.epoch.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(JournalEvent {
            seq,
            at_micros,
            trace,
            span,
            kind,
            detail: detail.into(),
        });
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// True if any retained event carries `trace`.
    pub fn contains_trace(&self, trace: u64) -> bool {
        self.inner.lock().events.iter().any(|e| e.trace == trace)
    }

    /// Human-readable timeline, one line per event.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "#{:<6} +{:>10}us trace={:016x} span={:016x} {:<10} {}\n",
                e.seq, e.at_micros, e.trace, e.span, e.kind, e.detail
            ));
        }
        out
    }

    /// JSON-lines rendering, one object per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "{{\"seq\":{},\"at_us\":{},\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
                e.seq,
                e.at_micros,
                e.trace,
                e.span,
                e.kind,
                json_escape(&e.detail)
            ));
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::trace;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let j = Journal::new(16);
        j.record(EventKind::Mark, "entity=slot:1 session=7");
        j.record(EventKind::Change, "entity=slot:1 session=7");
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].kind, EventKind::Mark);
        assert!(events[0].at_micros <= events[1].at_micros);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let j = Journal::new(3);
        for i in 0..5 {
            j.record(EventKind::Info, format!("e{i}"));
        }
        let events = j.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "e2");
        assert_eq!(events[2].detail, "e4");
        assert_eq!(j.recorded(), 5);
    }

    #[test]
    fn captures_current_trace_context() {
        let j = Journal::new(8);
        j.record(EventKind::Info, "untraced");
        let ctx = trace::root_span();
        {
            let _g = trace::enter(ctx);
            j.record(EventKind::SpanBegin, "traced");
        }
        let events = j.events();
        assert_eq!(events[0].trace, 0);
        assert_eq!(events[1].trace, ctx.trace);
        assert_eq!(events[1].span, ctx.span);
        assert!(j.contains_trace(ctx.trace));
        assert!(!j.contains_trace(0xffff_ffff_ffff_ffff));
    }

    #[test]
    fn dump_and_jsonl_render_every_event() {
        let j = Journal::new(8);
        j.record(EventKind::Abort, "session=9 reason=\"constraint-failed\"");
        j.record(EventKind::Promotion, "link=4");
        let dump = j.dump();
        assert!(dump.contains("abort"), "{dump}");
        assert!(dump.contains("constraint-failed"), "{dump}");
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\\\"constraint-failed\\\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"promotion\""), "{jsonl}");
    }
}
