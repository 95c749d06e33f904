//! The checker judged on synthesised journals: random schedules of the
//! §4.3 negotiation and §4.2 lifecycle [`model`](crate::model)s, each
//! replayed into the journals and device snapshots the runtime would
//! leave. Test code only.
//!
//! Without an oracle of its own, a checker that accepts everything looks
//! identical to one that works. The model is that oracle: a model
//! without a planted bug must audit clean on every schedule, and each
//! `--inject` bug must be caught under its own [`Rule`](crate::Rule) and
//! no other — `lock-leak` a dropped release, `double-commit` and
//! `commit-after-lease` a change applied without the lock,
//! `bad-arithmetic` a misreported outcome.
//!
//! [`tests`] replays fixed seeds; [`proptests`] draws many.

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use syd_types::rng::Rng;
    use syd_types::Constraint;

    use crate::model::{
        audit_schedule, snapshot_schedule, JournalSet, LifecycleInject, LifecycleModel, Model,
        NegotiationInject, NegotiationModel,
    };
    use crate::report::{AuditReport, Rule};

    /// A random schedule of `model`, from its initial state to a terminal one.
    pub(super) fn walk<M: Model>(model: &M, rng: &mut Rng) -> Vec<M::Action> {
        let (mut state, mut schedule) = (model.initial(), Vec::new());
        let mut mute = JournalSet::muted();
        loop {
            let enabled = model.actions(&state);
            if enabled.is_empty() {
                return schedule;
            }
            let action = enabled[rng.below(enabled.len() as u64) as usize].clone();
            state = model.apply(&state, &action, &mut mute);
            schedule.push(action);
        }
    }

    /// A negotiation of 2–4 devices and 1–3 sessions under any constraint
    /// and fault budget the command line allows.
    pub(super) fn negotiation(
        rng: &mut Rng,
        inject: Option<NegotiationInject>,
    ) -> NegotiationModel {
        let devices = 2 + rng.below(3) as usize;
        let k = 1 + rng.below(devices as u64) as u32;
        NegotiationModel {
            devices,
            sessions: 1 + rng.below(3) as usize,
            constraint: [
                Constraint::And,
                Constraint::AtLeast(k),
                Constraint::Exactly(k),
            ][rng.below(3) as usize],
            loss_budget: rng.below(3) as u8,
            dup_budget: rng.below(2) as u8,
            // A lease lapses only on the crash budget.
            crash_budget: u8::from(
                rng.chance(1, 2) || inject == Some(NegotiationInject::CommitAfterLease),
            ),
            inject,
        }
    }

    pub(super) fn lifecycle(rng: &mut Rng, inject: Option<LifecycleInject>) -> LifecycleModel {
        LifecycleModel {
            devices: 2 + rng.below(3) as usize,
            loss_budget: rng.below(3) as u8,
            inject,
        }
    }

    pub(super) const NEGOTIATION_INJECTS: [(NegotiationInject, Rule); 5] = [
        (NegotiationInject::LockLeak, Rule::LockLeak),
        (NegotiationInject::DoubleCommit, Rule::DoubleBook),
        (NegotiationInject::CommitAfterLease, Rule::DoubleBook),
        (NegotiationInject::BadArithmetic, Rule::Constraint),
        (NegotiationInject::DoubleLock, Rule::Ordering),
    ];

    pub(super) const LIFECYCLE_INJECTS: [(LifecycleInject, Rule); 2] = [
        (LifecycleInject::SkipCascade, Rule::Cascade),
        (LifecycleInject::SkipPromotion, Rule::Waiting),
    ];

    /// The audit of a random walk of `model`.
    pub(super) fn audit_walk<M: Model>(model: &M, rng: &mut Rng) -> AuditReport {
        audit_schedule(model, &walk(model, rng)).expect("a walk replays")
    }

    /// The seeds the fixed-seed tests replay.
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=40;

    /// Over [`SEEDS`], a negotiation with `inject` planted trips only
    /// `rule`; returns in how many seeds it tripped it at all.
    fn caught(inject: NegotiationInject, rule: Rule) -> usize {
        let tripped = SEEDS.filter(|&seed| {
            let mut rng = Rng::new(seed);
            let report = audit_walk(&negotiation(&mut rng, Some(inject)), &mut rng);
            let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
            assert!(rules.iter().all(|&r| r == rule), "seed {seed}:\n{report}");
            !rules.is_empty()
        });
        tripped.count()
    }

    #[test]
    fn valid_journals_audit_clean() {
        for seed in SEEDS {
            let mut rng = Rng::new(seed);
            let model = negotiation(&mut rng, None);
            let report = audit_walk(&model, &mut rng);
            assert!(report.ok(), "seed {seed} {model:?}:\n{report}");
            assert_eq!(report.sessions, model.sessions, "seed {seed} {model:?}");

            let model = lifecycle(&mut rng, None);
            let report = audit_walk(&model, &mut rng);
            assert!(report.ok(), "seed {seed} {model:?}:\n{report}");
        }
    }

    /// A dropped unlock (`lock-leak`) leaves a lock no session story
    /// closes.
    #[test]
    fn drop_release_is_caught_as_lock_leak() {
        let n = caught(NegotiationInject::LockLeak, Rule::LockLeak);
        assert!(n >= 10, "lock leaks caught in only {n}/40 seeds");
    }

    /// A second commit of one entity by one session (`double-commit`)
    /// names its session and quotes its records.
    #[test]
    fn double_commit_is_caught_with_session_and_excerpt() {
        let mut n = 0;
        for seed in SEEDS {
            let mut rng = Rng::new(seed);
            let model = negotiation(&mut rng, Some(NegotiationInject::DoubleCommit));
            let report = audit_walk(&model, &mut rng);
            if let Some(v) = report
                .violations
                .iter()
                .find(|v| v.rule == Rule::DoubleBook)
            {
                assert!(v.session.is_some(), "{v}");
                assert!(!v.excerpt.is_empty(), "{v}");
                n += 1;
            }
        }
        assert!(n >= 10, "double commits caught in only {n}/40 seeds");
    }

    /// A change applied after the lock's lease lapsed
    /// (`commit-after-lease`) is a commit without the lock.
    #[test]
    fn commit_without_lock_is_caught() {
        let n = caught(NegotiationInject::CommitAfterLease, Rule::DoubleBook);
        assert!(
            n >= 4,
            "commits without the lock caught in only {n}/40 seeds"
        );
    }

    /// A misreported outcome (`bad-arithmetic`) breaks the constraint's
    /// count.
    #[test]
    fn bad_arithmetic_is_caught() {
        let n = caught(NegotiationInject::BadArithmetic, Rule::Constraint);
        assert!(n >= 20, "bad arithmetic caught in only {n}/40 seeds");
    }

    /// One seed names one walk and one set of journals: a seed cited in
    /// a bug report replays the same history.
    #[test]
    fn rng_is_deterministic() {
        for seed in SEEDS {
            let draw = || {
                let mut rng = Rng::new(seed);
                let model = negotiation(&mut rng, Some(NegotiationInject::DoubleCommit));
                let schedule = walk(&model, &mut rng);
                let (states, _) = snapshot_schedule(&model, &schedule).unwrap();
                let journals: Vec<_> = states.into_iter().map(|s| (s.device, s.journal)).collect();
                (schedule, journals)
            };
            assert_eq!(draw(), draw(), "seed {seed}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use std::collections::BTreeMap;

    use syd_telemetry::{Event, Vote};
    use syd_types::rng::{cases, Rng};

    use super::tests::{
        audit_walk, lifecycle, negotiation, walk, LIFECYCLE_INJECTS, NEGOTIATION_INJECTS,
    };
    use crate::model::{snapshot_schedule, Model, NegotiationInject};
    use crate::report::Rule;
    use crate::state::{audit_states, DeviceState};
    use crate::AuditOptions;

    #[test]
    fn valid_journals_always_audit_clean() {
        cases(256, |rng| {
            let model = negotiation(rng, None);
            let report = audit_walk(&model, rng);
            assert!(report.ok(), "{model:?}\n{report}");
            assert_eq!(report.sessions, model.sessions, "{model:?}");

            let model = lifecycle(rng, None);
            let report = audit_walk(&model, rng);
            assert!(report.ok(), "{model:?}\n{report}");
        });
    }

    /// A planted bug is reported under its own rule and no other, or not
    /// at all where the walk never reaches it (the target commit was
    /// lost, say); and some walks do reach it.
    #[test]
    fn mutations_never_pass_silently_as_wrong_rule() {
        let mut caught = BTreeMap::new();
        let mut judge = |inject: String, rule: Rule, tripped: Vec<Rule>| {
            assert!(tripped.iter().all(|&r| r == rule), "{inject}: {tripped:?}");
            *caught.entry(inject).or_insert(0) += u32::from(!tripped.is_empty());
        };
        let rules = |report: crate::AuditReport| report.violations.iter().map(|v| v.rule).collect();
        cases(128, |rng| {
            for (inject, rule) in NEGOTIATION_INJECTS {
                let tripped = rules(audit_walk(&negotiation(rng, Some(inject)), rng));
                judge(format!("{inject:?}"), rule, tripped);
            }
            for (inject, rule) in LIFECYCLE_INJECTS {
                let tripped = rules(audit_walk(&lifecycle(rng, Some(inject)), rng));
                judge(format!("{inject:?}"), rule, tripped);
            }
        });
        assert_eq!(caught.len(), 7);
        for (inject, count) in caught {
            assert!(count >= 8, "{inject} caught in only {count}/128 walks");
        }
    }

    /// A double booking names its session and the device it happened on,
    /// and quotes that session's records.
    #[test]
    fn double_commit_violations_carry_context() {
        let mut seen = 0;
        cases(128, |rng| {
            for inject in [
                NegotiationInject::DoubleCommit,
                NegotiationInject::CommitAfterLease,
            ] {
                let report = audit_walk(&negotiation(rng, Some(inject)), rng);
                for v in report
                    .violations
                    .iter()
                    .filter(|v| v.rule == Rule::DoubleBook)
                {
                    assert!(v.session.is_some(), "{v}");
                    assert!(!v.device.is_empty(), "{v}");
                    assert!(!v.excerpt.is_empty(), "{v}");
                    seen += 1;
                }
            }
        });
        assert!(seen >= 64, "only {seen} double books in 256 walks");
    }

    /// Maps every free string of the snapshots — entities, prepare-refusal
    /// reasons and correlation ids, in the journals and in the lock and
    /// link tables alike — through one injective renaming into arbitrary
    /// text (NUL, newlines, quotes, `=`, spaces, multi-byte).
    fn rename(states: &[DeviceState], rng: &mut Rng) -> Vec<DeviceState> {
        let mut names: BTreeMap<String, String> = BTreeMap::new();
        let mut fresh = |old: &str| {
            // The counter suffix keeps two draws that collide apart.
            let n = names.len();
            let new = names
                .entry(old.to_owned())
                .or_insert_with(|| format!("{}#{n}", rng.string(12)));
            new.clone()
        };
        let mut renamed = states.to_vec();
        for state in &mut renamed {
            for record in &mut state.journal {
                match &mut record.event {
                    Event::Lock { entity, .. }
                    | Event::Commit { entity, .. }
                    | Event::Release { entity, .. } => *entity = fresh(entity).into(),
                    Event::Vote { entity, vote, .. } => {
                        *entity = fresh(entity).into();
                        if let Vote::Refused(reason) = vote {
                            *reason = fresh(reason);
                        }
                    }
                    Event::LinkDeleted { corr, .. } => *corr = fresh(corr).into(),
                    _ => {}
                }
            }
            for lock in &mut state.locks {
                lock.entity = fresh(&lock.entity).into();
            }
            for link in &mut state.links {
                link.corr = fresh(&link.corr).into();
            }
        }
        renamed
    }

    /// The verdict depends on which strings are *equal*, never on what
    /// they contain: a record is a value, and no entity, reason or corr
    /// can be mistaken for syntax.
    #[test]
    fn the_verdict_holds_under_renaming() {
        fn verdict(
            states: &[DeviceState],
            opts: &AuditOptions,
        ) -> Vec<(String, Option<u64>, Rule)> {
            let report = audit_states(states, opts);
            let violations = report.violations.into_iter();
            violations.map(|v| (v.device, v.session, v.rule)).collect()
        }
        fn holds<M: Model>(model: &M, rng: &mut Rng) -> bool {
            let (states, opts) = snapshot_schedule(model, &walk(model, rng)).unwrap();
            let before = verdict(&states, &opts);
            assert_eq!(before, verdict(&rename(&states, rng), &opts), "{states:#?}");
            !before.is_empty()
        }
        let mut violating = 0;
        cases(256, |rng| {
            let pick = rng.below(NEGOTIATION_INJECTS.len() as u64 + 1) as usize;
            let inject = NEGOTIATION_INJECTS.get(pick).map(|&(inject, _)| inject);
            violating += u32::from(holds(&negotiation(rng, inject), rng));
            let pick = rng.below(LIFECYCLE_INJECTS.len() as u64 + 1) as usize;
            let inject = LIFECYCLE_INJECTS.get(pick).map(|&(inject, _)| inject);
            violating += u32::from(holds(&lifecycle(rng, inject), rng));
        });
        // Renaming is checked on verdicts with violations in them too.
        assert!(violating >= 64, "only {violating} violating walks");
    }
}
