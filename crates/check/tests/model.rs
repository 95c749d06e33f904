//! The model checker's acceptance configurations (DESIGN.md §10): every
//! schedule of the §4.3 negotiation and the §4.2 link lifecycle, judged
//! by the syd-check oracle.
//!
//! The clean configurations pin their exact state counts, each
//! `Verdict::Clean` and under the state cap. An encoding that splits or
//! merges a state shows here, and so does an `fsm` change that adds or
//! removes a reachable one. Each planted bug must be caught under the
//! rule it breaks, with a minimized schedule that replays and still
//! trips that rule. A failure prints the minimized counterexample and
//! the oracle's report over its replay.
//!
//! What each planted bug has caught, from CHANGES.md:
//!
//! | injection          | rule             | real regression caught |
//! |--------------------|------------------|------------------------|
//! | `DoubleCommit`     | `double-book`    | none recorded          |
//! | `DoubleLock`       | `ordering`       | none recorded          |
//! | `LockLeak`         | `lock-leak`      | none recorded          |
//! | `BadArithmetic`    | `constraint`     | none recorded          |
//! | `CommitAfterLease` | `double-book`    | none recorded          |
//! | `SkipCascade`      | `cascade-delete` | none recorded          |
//! | `SkipPromotion`    | `waiting-link`   | none recorded          |
//!
//! The faults CHANGES.md records were found by lint rules, property
//! tests and kernel tests, not by a planted bug. The one entry where the
//! model saw a fault is a deliberate mutation: with `Entry::lapse`'s
//! comparison flipped, every clean configuration failed as `lock-leak`
//! and `CommitAfterLease` went uncaught.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::fmt::Write as _;

use syd_check::model::{
    minimize, snapshot_schedule, Explorer, LifecycleInject, LifecycleModel, Model,
    NegotiationInject, NegotiationModel, Verdict,
};
use syd_check::{audit_journals, audit_states, Rule};
use syd_core::Constraint;

/// Three devices, two sessions and one lost message.
fn negotiation(constraint: Constraint) -> NegotiationModel {
    NegotiationModel {
        devices: 3,
        sessions: 2,
        constraint,
        loss_budget: 1,
        dup_budget: 0,
        crash_budget: 0,
        inject: None,
    }
}

/// Three devices and one lost message.
fn lifecycle(inject: Option<LifecycleInject>) -> LifecycleModel {
    LifecycleModel {
        devices: 3,
        loss_budget: 1,
        inject,
    }
}

/// A violating schedule, minimized against `target` and replayed.
struct Diagnosis {
    /// The minimized counterexample and the oracle's report over it.
    text: String,
    /// The replayed device states trip `target` (`audit_states`).
    tripped: bool,
    /// The re-emitted journals alone trip `target` (`audit_journals`).
    journals_trip: bool,
}

fn diagnose<M: Model>(model: &M, schedule: Vec<M::Action>, target: Rule) -> Diagnosis {
    let full = schedule.len();
    let minimized = minimize(model, schedule, target);
    let (states, opts) =
        snapshot_schedule(model, &minimized).expect("minimized schedule must replay");
    let replayed = audit_states(&states, &opts);
    let journals: Vec<_> = states.into_iter().map(|s| (s.device, s.journal)).collect();
    let journal_report = audit_journals(&journals, &opts);
    let mut text = format!(
        "counterexample ({} steps, minimized from {full}):\n",
        minimized.len()
    );
    for (i, step) in minimized.iter().enumerate() {
        writeln!(text, "  {:>2}. {step}", i + 1).unwrap();
    }
    write!(
        text,
        "oracle verdict over the replayed schedule:\n{replayed}"
    )
    .unwrap();
    let trips =
        |report: &syd_check::AuditReport| report.violations.iter().any(|v| v.rule == target);
    Diagnosis {
        tripped: trips(&replayed),
        journals_trip: trips(&journal_report),
        text,
    }
}

/// Explores `model` and asserts it clean at exactly `states` states.
fn assert_clean<M: Model>(name: &str, model: &M, states: u64) {
    let mut explorer = Explorer::new(model);
    if let Verdict::Violation { schedule, report } = explorer.run() {
        let rule = report.violations[0].rule;
        panic!(
            "{name}: violation\n{}",
            diagnose(model, schedule, rule).text
        );
    }
    let stats = explorer.stats();
    assert!(!stats.capped, "{name}: state cap hit, verdict partial");
    assert_eq!(stats.states, states, "{name}: explored states");
}

/// Explores `model`, which plants a bug, and asserts a counterexample
/// under `rule` whose minimized schedule replays and trips it again;
/// `journals_alone` pins whether the re-emitted journals trip it too.
fn assert_caught<M: Model>(name: &str, model: &M, rule: Rule, journals_alone: bool) {
    let mut explorer = Explorer::new(model);
    let Verdict::Violation { schedule, report } = explorer.run() else {
        panic!("{name}: no counterexample for rule `{rule}`");
    };
    assert!(
        report.violations.iter().any(|v| v.rule == rule),
        "{name}: caught, but not as `{rule}`:\n{report}"
    );
    let found = diagnose(model, schedule, rule);
    assert!(
        found.tripped,
        "{name}: replay lost `{rule}`\n{}",
        found.text
    );
    assert_eq!(
        found.journals_trip, journals_alone,
        "{name}: journals alone trip `{rule}`\n{}",
        found.text
    );
}

#[test]
fn negotiation_is_clean_at_its_pinned_state_counts() {
    for (constraint, states) in [
        (Constraint::And, 7_517),
        (Constraint::AtLeast(2), 7_577),
        (Constraint::Exactly(1), 7_675),
    ] {
        assert_clean(&format!("{constraint:?}"), &negotiation(constraint), states);
    }
}

/// The largest configuration (≈ 5 s from a debug build), in a test of
/// its own so that it runs beside the others.
#[test]
fn negotiation_with_a_duplicate_and_a_crash_is_clean_at_212_274_states() {
    let model = NegotiationModel {
        dup_budget: 1,
        crash_budget: 1,
        ..negotiation(Constraint::AtLeast(2))
    };
    assert_clean("AtLeast(2) + dup + crash", &model, 212_274);
}

#[test]
fn lifecycle_is_clean_at_9_states() {
    assert_clean("lifecycle", &lifecycle(None), 9);
}

/// Each planted bug is caught by the rule it breaks; the two that apply
/// a change without the lock are both double-books. A lease lapses only
/// on the crash budget, so `CommitAfterLease` runs with it.
#[test]
fn every_injection_is_caught_under_its_rule() {
    use NegotiationInject as N;
    for (inject, rule, journals_alone) in [
        (N::DoubleCommit, Rule::DoubleBook, true),
        (N::DoubleLock, Rule::Ordering, true),
        (N::LockLeak, Rule::LockLeak, true),
        (N::BadArithmetic, Rule::Constraint, true),
        (N::CommitAfterLease, Rule::DoubleBook, true),
    ] {
        let model = NegotiationModel {
            crash_budget: u8::from(inject == N::CommitAfterLease),
            inject: Some(inject),
            ..negotiation(Constraint::And)
        };
        assert_caught(&format!("{inject:?}"), &model, rule, journals_alone);
    }
    for (inject, rule, journals_alone) in [
        (LifecycleInject::SkipCascade, Rule::Cascade, false),
        (LifecycleInject::SkipPromotion, Rule::Waiting, false),
    ] {
        assert_caught(
            &format!("{inject:?}"),
            &lifecycle(Some(inject)),
            rule,
            journals_alone,
        );
    }
}
