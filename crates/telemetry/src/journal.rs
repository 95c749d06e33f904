//! A device's one bounded log, for postmortems, for the auditor and for
//! the span collector.
//!
//! Each device keeps one [`Journal`]. Hot paths append [`Event`]s — the
//! §4.3 negotiation transitions on both sides of the protocol, the §4.2
//! waiting-link promotions and link deletions, and free-text notes for
//! everything else — and the journal keeps the most recent `capacity` of
//! them. Beside them it buffers the device's finished spans
//! ([`SpanRecord`]) until a collector drains them, in a ring of the same
//! capacity of their own (see [`crate::ring`]). The event records are
//! *values*: `syd-check` replays them by matching on the enum, and the
//! kernel and the model checker both build the same variants, so they
//! cannot disagree about what a record means. Text exists in one place,
//! [`Event`]'s `Display` impl, which `dump()`, `to_jsonl()` and the
//! checker's excerpts render through. Every record carries the trace/span
//! ids captured from [`crate::trace::current`] and a timestamp on the
//! process-wide clock ([`crate::trace::now_us`]), so events from different
//! devices — and the spans of the same trace — stitch into one end-to-end
//! story.

use crate::export::json_escape;
use crate::ring::{self, LogStats, SpanRecord};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use syd_types::sync::{Mutex, Rank};
use syd_types::{Constraint, Text};

/// The coarse class of a record: the column `dump()` and `to_jsonl()`
/// print beside the line. Derived from the [`Event`], except for notes,
/// which name their own.
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
    /// Negotiation abort — the record carries the reason.
    Abort,
    /// A waiting link was promoted (§4.2 op. 3).
    Promotion,
    /// Anything else worth keeping in the timeline.
    Info,
}

/// The stable short name both exporters print.
impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Mark => "mark",
            EventKind::Lock => "lock",
            EventKind::Change => "change",
            EventKind::Abort => "abort",
            EventKind::Promotion => "promotion",
            EventKind::Info => "info",
        })
    }
}

/// A participant's answer to a mark request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Vote {
    /// Locked and prepared.
    Yes,
    /// The entity lock was held by another session; none was taken.
    LockBusy,
    /// Prepare failed after locking (the lock is released again); the
    /// entity handler's error says why.
    Refused(String),
}

/// What happened: the vocabulary shared by every writer of a journal
/// (kernel, model checker) and its one reader that
/// judges it (`syd-check`).
///
/// `Lock`, `Vote`, `Commit` and `Release` are recorded by the device whose
/// entity is involved; `Begin`, `Tally`, `Committed`, `AbortUser` and `End`
/// by the session's coordinator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Participant acquired the entity lock for a session.
    Lock {
        /// Negotiation session id.
        session: u64,
        /// Locked entity.
        entity: Text,
    },
    /// Participant answered a mark request.
    Vote {
        /// Negotiation session id.
        session: u64,
        /// Marked entity.
        entity: Text,
        /// The answer.
        vote: Vote,
    },
    /// Participant applied (or failed to apply) a committed change.
    Commit {
        /// Negotiation session id.
        session: u64,
        /// Changed entity.
        entity: Text,
        /// Whether the entity handler applied the change.
        applied: bool,
    },
    /// Participant discarded a session's change on an entity (coordinator
    /// abort, or the end of the session's lease on the entity's lock).
    Release {
        /// Negotiation session id.
        session: u64,
        /// Released entity.
        entity: Text,
        /// Why (`coordinator-abort`, `lease`, `commit-unwound`).
        reason: &'static str,
    },
    /// Coordinator opened a negotiation session.
    Begin {
        /// Negotiation session id.
        session: u64,
        /// Constraint being negotiated.
        constraint: Constraint,
        /// Number of participants.
        participants: u32,
    },
    /// Coordinator tallied the mark phase.
    Tally {
        /// Negotiation session id.
        session: u64,
        /// Yes votes.
        yes: u32,
        /// Declines (including the contended ones).
        declined: u32,
        /// Lock-busy answers.
        contended: u32,
    },
    /// Coordinator counted the successful commits.
    Committed {
        /// Negotiation session id.
        session: u64,
        /// Participants whose commit succeeded.
        committed: u32,
    },
    /// Coordinator recorded an abort decision for one participant.
    AbortUser {
        /// Negotiation session id.
        session: u64,
        /// The aborted participant.
        user: u64,
        /// Why (`lock-contention`, `xor-overflow`, `commit-failed`, …).
        reason: &'static str,
    },
    /// Coordinator closed a negotiation session.
    End {
        /// Negotiation session id.
        session: u64,
        /// Final outcome: constraint satisfied and commits applied.
        satisfied: bool,
        /// Committed participant count.
        committed: u32,
        /// Aborted participant count.
        aborted: u32,
        /// Declined participant count.
        declined: u32,
    },
    /// A waiting link was promoted to permanent (§4.2 op. 3).
    Promoted {
        /// The promoted link.
        link: u64,
        /// Its queue priority.
        priority: i64,
        /// Its waiting group.
        group: i64,
    },
    /// A link was deleted, possibly fanning out along its correlation id.
    LinkDeleted {
        /// The deleted link.
        id: u64,
        /// Correlation id of the connection.
        corr: Text,
        /// Whether the deletion cascades to peers.
        cascade: bool,
    },
    /// Free text for the timeline; the checker ignores it.
    Note {
        /// The class the writer files it under.
        kind: EventKind,
        /// The line.
        text: String,
    },
}

impl Event {
    /// A [`Event::Lock`] record.
    pub fn lock(session: u64, entity: impl Into<Text>) -> Event {
        let entity = entity.into();
        Event::Lock { session, entity }
    }

    /// A [`Event::Vote`] record.
    pub fn vote(session: u64, entity: impl Into<Text>, vote: Vote) -> Event {
        let entity = entity.into();
        Event::Vote {
            session,
            entity,
            vote,
        }
    }

    /// A [`Event::Commit`] record.
    pub fn commit(session: u64, entity: impl Into<Text>, applied: bool) -> Event {
        let entity = entity.into();
        Event::Commit {
            session,
            entity,
            applied,
        }
    }

    /// A [`Event::Release`] record.
    pub fn release(session: u64, entity: impl Into<Text>, reason: &'static str) -> Event {
        let entity = entity.into();
        Event::Release {
            session,
            entity,
            reason,
        }
    }

    /// The class this record is listed under.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Lock { .. } => EventKind::Lock,
            Event::Vote { .. } | Event::Tally { .. } => EventKind::Mark,
            Event::Commit { .. } | Event::Committed { .. } => EventKind::Change,
            Event::Release { .. } | Event::AbortUser { .. } => EventKind::Abort,
            Event::Begin { .. } => EventKind::SpanBegin,
            Event::End { .. } => EventKind::SpanEnd,
            Event::Promoted { .. } => EventKind::Promotion,
            Event::LinkDeleted { .. } => EventKind::Info,
            Event::Note { kind, .. } => *kind,
        }
    }

    /// The negotiation session this record belongs to, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            Event::Lock { session, .. }
            | Event::Vote { session, .. }
            | Event::Commit { session, .. }
            | Event::Release { session, .. }
            | Event::Begin { session, .. }
            | Event::Tally { session, .. }
            | Event::Committed { session, .. }
            | Event::AbortUser { session, .. }
            | Event::End { session, .. } => Some(*session),
            Event::Promoted { .. } | Event::LinkDeleted { .. } | Event::Note { .. } => None,
        }
    }
}

/// The one place a record becomes text. Nothing parses these lines back.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Lock { session, entity } => write!(f, "session={session} entity={entity}"),
            Event::Vote {
                session,
                entity,
                vote,
            } => {
                write!(f, "session={session} entity={entity} ")?;
                match vote {
                    Vote::Yes => f.write_str("vote=yes"),
                    Vote::LockBusy => f.write_str("vote=no reason=lock-busy"),
                    Vote::Refused(reason) => write!(f, "vote=no reason={reason}"),
                }
            }
            Event::Commit {
                session,
                entity,
                applied,
            } => write!(f, "session={session} entity={entity} applied={applied}"),
            Event::Release {
                session,
                entity,
                reason,
            } => write!(f, "session={session} entity={entity} reason={reason}"),
            Event::Begin {
                session,
                constraint,
                participants,
            } => write!(
                f,
                "negotiate session={session} constraint={constraint:?} \
                 participants={participants}"
            ),
            Event::Tally {
                session,
                yes,
                declined,
                contended,
            } => write!(
                f,
                "session={session} yes={yes} declined={declined} contended={contended}"
            ),
            Event::Committed { session, committed } => {
                write!(f, "session={session} committed={committed}")
            }
            Event::AbortUser {
                session,
                user,
                reason,
            } => write!(f, "session={session} user={user} reason={reason}"),
            Event::End {
                session,
                satisfied,
                committed,
                aborted,
                declined,
            } => write!(
                f,
                "negotiate session={session} satisfied={satisfied} committed={committed} \
                 aborted={aborted} declined={declined}"
            ),
            Event::Promoted {
                link,
                priority,
                group,
            } => write!(
                f,
                "link.promoted group={group} id={link} priority={priority}"
            ),
            Event::LinkDeleted { id, corr, cascade } => {
                write!(f, "link.deleted cascade={cascade} corr={corr} id={id}")
            }
            Event::Note { text, .. } => f.write_str(text),
        }
    }
}

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotonic sequence number over the journal's events only (spans
    /// take none); gaps reveal ring-buffer eviction.
    pub seq: u64,
    /// Microseconds on the process-wide clock ([`crate::trace::now_us`]).
    pub at_micros: u64,
    /// Trace id captured from the recording thread (0 when untraced).
    pub trace: u64,
    /// Span id captured from the recording thread (0 when untraced).
    pub span: u64,
    /// What happened.
    pub event: Event,
}

#[derive(Default)]
pub(crate) struct JournalInner {
    /// Events ever emitted: the next event's `seq`.
    next_seq: u64,
    pub(crate) events: VecDeque<JournalEvent>,
    /// Finished spans not yet drained.
    pub(crate) spans: VecDeque<SpanRecord>,
    spans_recorded: u64,
    spans_dropped: u64,
}

/// A device's one bounded, thread-safe log: its events and its finished
/// spans, each kind kept to `capacity` records of its own (see
/// [`crate::ring`]), under one lock.
///
/// The two kinds keep separate horizons because they arrive at very
/// different rates: a busy device finishes several spans per event, and
/// one shared capacity would let spans evict the events the auditor
/// replays.
pub struct Journal {
    label: String,
    device: u64,
    capacity: usize,
    pub(crate) inner: Mutex<JournalInner>,
}

/// Default capacity of each kind: enough for several meeting lifecycles
/// on one device without unbounded growth on long runs.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// Creates a free-standing journal keeping at most `capacity` events
    /// and `capacity` spans. It belongs to no device and is not in the
    /// registry; see [`Journal::open`] for a device's log.
    pub fn new(capacity: usize) -> Self {
        Self {
            label: String::new(),
            device: 0,
            capacity: capacity.max(1),
            inner: Mutex::new(Rank::Leaf, JournalInner::default()),
        }
    }

    /// Creates the log of `device`, at the default capacity, and lists it
    /// in the process registry ([`crate::ring::live_logs`]).
    pub fn open(label: impl Into<String>, device: u64) -> Arc<Journal> {
        let log = Arc::new(Journal {
            label: label.into(),
            device,
            ..Journal::default()
        });
        ring::register(&log);
        log
    }

    /// Human-readable device label (node address, backend name…).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The device id this log records for.
    pub fn device(&self) -> u64 {
        self.device
    }

    /// Appends an event, stamping it with the process-wide clock and the
    /// current thread's trace context (zeros when none is installed).
    /// Evicts the oldest event when full.
    pub fn emit(&self, event: Event) {
        let (trace, span) = match crate::trace::current() {
            Some(ctx) => (ctx.trace, ctx.span),
            None => (0, 0),
        };
        let at_micros = crate::trace::now_us();
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let event = JournalEvent {
            seq,
            at_micros,
            trace,
            span,
            event,
        };
        ring::push(&mut inner.events, self.capacity, event);
    }

    /// Appends a free-text [`Event::Note`] for the timeline.
    pub fn record(&self, kind: EventKind, text: impl Into<String>) {
        self.emit(Event::Note {
            kind,
            text: text.into(),
        });
    }

    /// Appends a finished span, evicting the oldest buffered span when
    /// full. Events are not touched.
    pub fn push_span(&self, rec: SpanRecord) {
        let mut inner = self.inner.lock();
        inner.spans_recorded += 1;
        if ring::push(&mut inner.spans, self.capacity, rec) {
            inner.spans_dropped += 1;
        }
    }

    /// Takes every buffered span out, oldest first. Events stay.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().spans.drain(..).collect()
    }

    /// Point-in-time counters of both kinds.
    pub fn stats(&self) -> LogStats {
        let inner = self.inner.lock();
        LogStats {
            label: self.label.clone(),
            device: self.device,
            events: inner.next_seq,
            evicted: inner.next_seq - inner.events.len() as u64,
            spans: inner.spans_recorded,
            dropped: inner.spans_dropped,
            buffered: inner.spans.len(),
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Human-readable timeline, one line per event.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "#{:<6} +{:>10}us trace={:016x} span={:016x} {:<10} {}\n",
                e.seq,
                e.at_micros,
                e.trace,
                e.span,
                e.event.kind(),
                e.event
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
                e.event.kind(),
                json_escape(&e.event.to_string())
            ));
        }
        out
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("label", &self.label)
            .field("device", &self.device)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use crate::trace;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let j = Journal::new(16);
        j.emit(Event::lock(7, "slot:1"));
        j.emit(Event::commit(7, "slot:1", true));
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].event, Event::lock(7, "slot:1"));
        assert_eq!(events[0].event.session(), Some(7));
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
        assert_eq!(events[0].event.to_string(), "e2");
        assert_eq!(events[2].event.to_string(), "e4");
        assert_eq!(j.stats().events, 5);
    }

    #[test]
    fn a_journal_reserves_nothing_until_its_first_event() {
        let slots = |j: &Journal| j.inner.lock().events.capacity();
        let j = Journal::default();
        assert_eq!(slots(&j), 0);
        j.emit(Event::lock(7, "slot:1"));
        assert_eq!(slots(&j), 1);
        j.emit(Event::commit(7, "slot:1", true));
        assert_eq!(slots(&j), DEFAULT_JOURNAL_CAPACITY);
    }

    /// The auditor reads events; the collector takes spans. Neither
    /// disturbs the other's records or the event sequence.
    #[test]
    fn draining_spans_leaves_the_events() {
        let j = Journal::new(16);
        let span = |id| SpanRecord {
            trace: 1,
            span: id,
            parent: 0,
            kind: crate::names::SPAN_SCHEDULE,
            device: 0,
            start_us: 0,
            end_us: 1,
            attrs: Default::default(),
        };
        j.push_span(span(1));
        j.emit(Event::lock(7, "slot:1"));
        j.push_span(span(2));
        j.emit(Event::commit(7, "slot:1", true));
        let events = j.events();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(j.drain_spans(), [span(1), span(2)]);
        assert_eq!(j.events(), events);
        assert!(j.drain_spans().is_empty());
        assert_eq!((j.stats().events, j.stats().spans), (2, 2));
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
    }

    /// The text is an export, but people and the docs read it: every
    /// variant renders the line the kernel wrote when the journal held
    /// strings, under the kind it was filed under.
    #[test]
    fn dump_and_jsonl_render_every_event() {
        let j = Journal::new(16);
        j.emit(Event::lock(7, "slot:1:9"));
        j.emit(Event::vote(7, "slot:1:9", Vote::Yes));
        j.emit(Event::vote(7, "slot:1:9", Vote::LockBusy));
        j.emit(Event::vote(
            7,
            "a b",
            Vote::Refused("a b is \"busy\"".into()),
        ));
        j.emit(Event::commit(7, "slot:1:9", false));
        j.emit(Event::release(7, "slot:1:9", "lease"));
        j.emit(Event::Begin {
            session: 16_777_217,
            constraint: Constraint::AtLeast(2),
            participants: 3,
        });
        j.emit(Event::Tally {
            session: 5,
            yes: 2,
            declined: 1,
            contended: 0,
        });
        j.emit(Event::Committed {
            session: 5,
            committed: 2,
        });
        j.emit(Event::AbortUser {
            session: 5,
            user: 3,
            reason: "xor-overflow",
        });
        j.emit(Event::End {
            session: 5,
            satisfied: true,
            committed: 2,
            aborted: 0,
            declined: 1,
        });
        j.emit(Event::Promoted {
            link: 3,
            priority: 200,
            group: 7,
        });
        j.emit(Event::LinkDeleted {
            id: 4,
            corr: "corr:1:2".into(),
            cascade: true,
        });
        j.record(EventKind::SpanEnd, "calendar.schedule meeting=1");
        let lines = [
            "lock session=7 entity=slot:1:9",
            "mark session=7 entity=slot:1:9 vote=yes",
            "mark session=7 entity=slot:1:9 vote=no reason=lock-busy",
            "mark session=7 entity=a b vote=no reason=a b is \"busy\"",
            "change session=7 entity=slot:1:9 applied=false",
            "abort session=7 entity=slot:1:9 reason=lease",
            "span_begin negotiate session=16777217 constraint=AtLeast(2) participants=3",
            "mark session=5 yes=2 declined=1 contended=0",
            "change session=5 committed=2",
            "abort session=5 user=3 reason=xor-overflow",
            "span_end negotiate session=5 satisfied=true committed=2 aborted=0 declined=1",
            "promotion link.promoted group=7 id=3 priority=200",
            "info link.deleted cascade=true corr=corr:1:2 id=4",
            "span_end calendar.schedule meeting=1",
        ];
        let dump = j.dump();
        assert_eq!(dump.lines().count(), lines.len());
        for (got, want) in dump.lines().zip(lines) {
            assert!(got.ends_with(&format!("span={:016x} {want}", 0)), "{got}");
        }
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), lines.len());
        assert!(jsonl.contains("reason=a b is \\\"busy\\\"\"}"), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"promotion\""), "{jsonl}");
    }

    #[test]
    fn journals_created_apart_stamp_one_event_order() {
        let early = Journal::new(4);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let late = Journal::new(4);
        // With an epoch per journal the first record would read ~20 ms
        // and the second ~0: merged by time, effect before cause.
        early.record(EventKind::Info, "first");
        late.record(EventKind::Info, "second");
        let (first, second) = (early.events()[0].at_micros, late.events()[0].at_micros);
        assert!(first <= second, "{first} > {second}");
        assert!(second <= trace::now_us());
    }

    #[test]
    fn journal_event_stays_within_96_bytes() {
        let size = std::mem::size_of::<JournalEvent>();
        assert!(
            size <= 96,
            "JournalEvent is {size} bytes: a journal reserves one slot at its first event \
             and 4 096 at its second — box the wide field instead of growing the record"
        );
    }

    #[test]
    fn span_record_stays_within_96_bytes() {
        let size = std::mem::size_of::<SpanRecord>();
        assert!(
            size <= 96,
            "SpanRecord is {size} bytes: a full span ring holds 4 096 of them"
        );
    }
}
