//! Violation reports with minimized journal excerpts.

use std::fmt;

use syd_telemetry::JournalEvent;

/// The invariant class a violation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// §4.3 per-session ordering: mark → lock → (change | abort) → unlock.
    Ordering,
    /// A lock outlived its session, or a session story never closed.
    LockLeak,
    /// An entity was committed by a session that did not hold its lock,
    /// or committed twice.
    DoubleBook,
    /// A satisfied session's committed set does not meet its constraint.
    Constraint,
    /// The waiting-link queue lost, duplicated, or mis-ordered a waiter.
    Waiting,
    /// A cascade delete left link halves behind.
    Cascade,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::Ordering => "ordering",
            Rule::LockLeak => "lock-leak",
            Rule::DoubleBook => "double-book",
            Rule::Constraint => "constraint",
            Rule::Waiting => "waiting-link",
            Rule::Cascade => "cascade-delete",
        })
    }
}

/// One invariant violation, with enough journal context to debug it.
///
/// The derived ordering (device, then session, then rule, then message)
/// is the canonical report order — see [`AuditReport::normalize`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Device (journal) the violation was observed on.
    pub device: String,
    /// Offending negotiation session, when one is implicated.
    pub session: Option<u64>,
    /// Invariant class.
    pub rule: Rule,
    /// What went wrong.
    pub message: String,
    /// Minimized journal excerpt: the retained events of the offending
    /// session (or the triggering event), rendered one per line.
    pub excerpt: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] device={}", self.rule, self.device)?;
        if let Some(session) = self.session {
            write!(f, " session={session}")?;
        }
        write!(f, ": {}", self.message)?;
        for line in &self.excerpt {
            write!(f, "\n    | {line}")?;
        }
        Ok(())
    }
}

/// Outcome of an audit pass.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every violation found. The audit entry points normalize this to
    /// canonical order (see [`AuditReport::normalize`]); reports built
    /// by hand may hold violations in discovery order until normalized.
    pub violations: Vec<Violation>,
    /// Distinct negotiation sessions examined.
    pub sessions: usize,
    /// Journal events examined.
    pub events: usize,
    /// True when at least one journal had evicted (ring-truncated) events;
    /// ordering checks were suppressed for those journals.
    pub truncated: bool,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full report when any violation was found. The
    /// integration tests call this after their scenario completes.
    #[track_caller]
    pub fn assert_clean(&self) {
        assert!(self.ok(), "protocol invariants violated:\n{self}");
    }

    /// Folds another report into this one. The merged violation list is
    /// re-normalized, so merging the same reports in any order yields a
    /// byte-identical result.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
        self.sessions += other.sessions;
        self.events += other.events;
        self.truncated |= other.truncated;
        self.normalize();
    }

    /// Stable-sorts violations into canonical (device, session, rule,
    /// message) order and drops exact duplicates. CI diffs, counterexample
    /// comparison in `syd-model`, and cross-platform runs all rely on
    /// reports being byte-stable regardless of audit discovery order.
    pub fn normalize(&mut self) {
        self.violations.sort();
        self.violations.dedup();
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} violation(s) over {} session(s), {} event(s){}",
            self.violations.len(),
            self.sessions,
            self.events,
            if self.truncated {
                " [journal truncated]"
            } else {
                ""
            }
        )?;
        // Render in canonical order with duplicates elided even when the
        // report was never normalized (e.g. hand-built in tests).
        let mut ordered: Vec<&Violation> = self.violations.iter().collect();
        ordered.sort();
        ordered.dedup();
        for v in ordered {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Renders the journal lines that tell a session's story, newest last.
/// `limit` caps the excerpt; when more lines match, the excerpt keeps the
/// first and last few so both the setup and the failure stay visible.
pub(crate) fn session_excerpt(events: &[JournalEvent], session: u64, limit: usize) -> Vec<String> {
    let lines: Vec<String> = events
        .iter()
        .filter(|e| e.event.session() == Some(session))
        .map(render)
        .collect();
    if lines.len() <= limit || limit < 4 {
        return lines;
    }
    let head = limit / 2;
    let tail = limit - head - 1;
    let mut out: Vec<String> = lines[..head].to_vec();
    out.push(format!("… {} more …", lines.len() - head - tail));
    out.extend_from_slice(&lines[lines.len() - tail..]);
    out
}

/// Renders one journal event the way `Journal::dump` does, minus trace ids.
pub(crate) fn render(event: &JournalEvent) -> String {
    format!(
        "#{} +{}us {} {}",
        event.seq,
        event.at_micros,
        event.event.kind(),
        event.event
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_telemetry::{Event, EventKind};

    fn ev(seq: u64, event: Event) -> JournalEvent {
        JournalEvent {
            seq,
            at_micros: seq * 10,
            trace: 0,
            span: 0,
            event,
        }
    }

    #[test]
    fn excerpt_selects_exact_session_tokens() {
        let events = vec![
            ev(0, Event::lock(5, "a")),
            ev(1, Event::lock(50, "b")),
            // Text that merely *mentions* the session is not its story.
            ev(
                2,
                Event::Note {
                    kind: EventKind::Info,
                    text: "session=5 entity=c".into(),
                },
            ),
            ev(
                3,
                Event::End {
                    session: 5,
                    satisfied: true,
                    committed: 1,
                    aborted: 0,
                    declined: 0,
                },
            ),
        ];
        let lines = session_excerpt(&events, 5, 8);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("entity=a"), "{lines:?}");
        assert!(lines[1].contains("satisfied=true"), "{lines:?}");
    }

    #[test]
    fn excerpt_elides_the_middle() {
        let events: Vec<JournalEvent> = (0..20)
            .map(|i| ev(i, Event::lock(1, format!("step{i}"))))
            .collect();
        let lines = session_excerpt(&events, 1, 8);
        assert_eq!(lines.len(), 8);
        assert!(lines[4].contains("more"), "{lines:?}");
        assert!(lines[7].contains("entity=step19"), "{lines:?}");
    }

    #[test]
    fn report_renders_violations() {
        let mut report = AuditReport::default();
        assert!(report.ok());
        report.assert_clean();
        report.violations.push(Violation {
            device: "dev1".into(),
            session: Some(9),
            rule: Rule::LockLeak,
            message: "lock still held".into(),
            excerpt: vec!["#1 +10us lock session=9 entity=e".into()],
        });
        assert!(!report.ok());
        let text = report.to_string();
        assert!(text.contains("[lock-leak] device=dev1 session=9"), "{text}");
        assert!(text.contains("| #1"), "{text}");
    }

    #[test]
    fn merge_is_order_independent_and_dedupes() {
        let violation = |device: &str, session| Violation {
            device: device.into(),
            session,
            rule: Rule::Ordering,
            message: "m".into(),
            excerpt: vec![],
        };
        let part_a = AuditReport {
            violations: vec![violation("dev2", Some(2)), violation("dev1", None)],
            ..AuditReport::default()
        };
        let part_b = AuditReport {
            violations: vec![violation("dev1", None), violation("dev1", Some(1))],
            ..AuditReport::default()
        };
        let mut ab = AuditReport::default();
        ab.merge(part_a.clone());
        ab.merge(part_b.clone());
        let mut ba = AuditReport::default();
        ba.merge(part_b);
        ba.merge(part_a);
        assert_eq!(ab.violations, ba.violations);
        assert_eq!(ab.to_string(), ba.to_string());
        // The duplicate dev1/no-session violation collapses to one.
        assert_eq!(ab.violations.len(), 3, "{ab}");
    }

    #[test]
    fn render_sorts_and_dedupes_unnormalized_reports() {
        let violation = |device: &str| Violation {
            device: device.into(),
            session: None,
            rule: Rule::Waiting,
            message: "lost".into(),
            excerpt: vec![],
        };
        let report = AuditReport {
            violations: vec![violation("z"), violation("a"), violation("z")],
            ..AuditReport::default()
        };
        let text = report.to_string();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("device=a"), "{text}");
        assert!(lines[1].contains("device=z"), "{text}");
    }

    #[test]
    #[should_panic(expected = "protocol invariants violated")]
    fn assert_clean_panics_on_violation() {
        let report = AuditReport {
            violations: vec![Violation {
                device: "d".into(),
                session: None,
                rule: Rule::Cascade,
                message: "left behind".into(),
                excerpt: vec![],
            }],
            ..AuditReport::default()
        };
        report.assert_clean();
    }
}
