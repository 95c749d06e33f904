//! Bounded ring-buffer event journal for postmortems and for the auditor.
//!
//! Each device keeps one [`Journal`]. Hot paths append [`Event`]s — the
//! §4.3 negotiation transitions on both sides of the protocol, the §4.2
//! waiting-link promotions and link deletions, and free-text notes for
//! everything else — and the ring keeps the most recent `capacity` of
//! them. The records are *values*: `syd-check` replays them by matching
//! on the enum, and the kernel, the model checker and the synthetic
//! generator all build the same variants, so they cannot disagree about
//! what a record means. Text exists in one place, [`Event`]'s `Display`
//! impl, which `dump()`, `to_jsonl()` and the checker's excerpts render
//! through. Every record carries the trace/span ids captured from
//! [`crate::trace::current`] and a timestamp on the process-wide clock
//! ([`crate::trace::now_us`]), so events from different devices — and the
//! spans of the same trace — stitch into one end-to-end story.

use crate::export::json_escape;
use std::collections::VecDeque;
use std::fmt;
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
/// (kernel, model checker, synthetic generator) and its one reader that
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
    /// Monotonic sequence number; gaps reveal ring-buffer eviction.
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

struct JournalInner {
    next_seq: u64,
    events: VecDeque<JournalEvent>,
}

/// A bounded, thread-safe event ring buffer.
pub struct Journal {
    capacity: usize,
    inner: Mutex<JournalInner>,
}

/// Default ring capacity: enough for several meeting lifecycles on one
/// device without unbounded growth on long runs.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Slots a journal reserves at its first event, so a busy device does not
/// regrow its ring event by event.
const FIRST_RESERVE: usize = 1024;

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal keeping at most `capacity` events. It reserves
    /// nothing until its first event: most of a large fleet's devices
    /// are idle and never journal.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(
                Rank::Leaf,
                JournalInner {
                    next_seq: 0,
                    events: VecDeque::new(),
                },
            ),
        }
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
        if inner.events.capacity() == 0 {
            inner.events.reserve_exact(self.capacity.min(FIRST_RESERVE));
        }
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(JournalEvent {
            seq,
            at_micros,
            trace,
            span,
            event,
        });
    }

    /// Appends a free-text [`Event::Note`] for the timeline.
    pub fn record(&self, kind: EventKind, text: impl Into<String>) {
        self.emit(Event::Note {
            kind,
            text: text.into(),
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
        assert_eq!(j.recorded(), 5);
    }

    #[test]
    fn a_journal_reserves_nothing_until_its_first_event() {
        let slots = |j: &Journal| j.inner.lock().events.capacity();
        let j = Journal::default();
        assert_eq!(slots(&j), 0);
        j.emit(Event::lock(7, "slot:1"));
        assert_eq!(slots(&j), FIRST_RESERVE);
        // A smaller ring reserves only its own capacity.
        let small = Journal::new(3);
        small.emit(Event::lock(7, "slot:1"));
        assert_eq!(slots(&small), 3);
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
            "JournalEvent is {size} bytes: every device that journals reserves 1 024 slots \
             at its first event — box the wide field instead of growing the record"
        );
    }
}
