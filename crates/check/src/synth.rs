//! Synthetic journal generator — the oracle for the checker itself.
//!
//! Generates per-device journals for batches of well-formed §4.3
//! negotiation sessions, then optionally applies one targeted
//! [`Mutation`] that breaks a specific invariant. The checker's own
//! tests assert that unmutated journals audit clean and every mutation
//! is caught with the right [`crate::Rule`] — without an oracle, a
//! checker that accepts everything would look identical to one that
//! works.
//!
//! The generator draws from the workspace's seeded [`Rng`], so a seed
//! cited in a bug report names the same journals on every platform; the
//! property tests below sweep seeds and shapes on top.

use syd_telemetry::{Event, JournalEvent, Vote};
use syd_types::rng::Rng;
use syd_types::Constraint;

/// A deliberate protocol defect to inject into one generated session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// No defect: the journals describe a correct run.
    None,
    /// A committed participant's `Change`/release record is dropped, so
    /// its lock story never closes (a leaked lock).
    DropRelease,
    /// An extra `Change` is recorded for a foreign session while the
    /// entity is locked by another (a double booking).
    DoubleCommit,
    /// A participant records `Change` without ever locking the entity.
    CommitWithoutLock,
    /// The coordinator reports `satisfied=true` with fewer commits than
    /// the constraint requires.
    BadArithmetic,
}

impl Mutation {
    /// Every mutation, for exhaustive oracle sweeps.
    pub const ALL: [Mutation; 5] = [
        Mutation::None,
        Mutation::DropRelease,
        Mutation::DoubleCommit,
        Mutation::CommitWithoutLock,
        Mutation::BadArithmetic,
    ];
}

/// One device's journal under construction: its name and its events.
type DeviceJournal = (String, Vec<JournalEvent>);

/// Appends `event`, stamped with the next tick of the logical clock `at`.
fn push(journal: &mut DeviceJournal, at: &mut u64, event: Event) {
    *at += 1;
    journal.1.push(JournalEvent {
        seq: journal.1.len() as u64,
        at_micros: *at,
        trace: 0,
        span: 0,
        event,
    });
}

/// Generates `sessions` sequential negotiation sessions across `devices`
/// devices, applying `mutation` to the middle session. Returns one
/// `(name, journal)` pair per device, shaped exactly like
/// [`crate::audit_journals`] expects.
pub fn generate(
    seed: u64,
    sessions: usize,
    devices: usize,
    mutation: Mutation,
) -> Vec<(String, Vec<JournalEvent>)> {
    let devices = devices.max(2);
    let mut rng = Rng::new(seed);
    let mut journals: Vec<DeviceJournal> = (0..devices)
        .map(|i| (format!("dev{i}"), Vec::new()))
        .collect();
    let mut at = 0u64;
    let target = sessions / 2;

    for i in 0..sessions {
        let m = if i == target {
            mutation
        } else {
            Mutation::None
        };
        gen_session(&mut rng, &mut journals, &mut at, i as u64, m);
    }
    journals
}

fn gen_session(
    rng: &mut Rng,
    journals: &mut [DeviceJournal],
    at: &mut u64,
    index: u64,
    mutation: Mutation,
) {
    let devices = journals.len();
    let coord = rng.below(devices as u64) as usize;
    let session = ((coord as u64 + 1) << 24) | (index + 1);
    // The mutated session gets its own entity: a leaked lock on a shared
    // slot would (correctly) trip double-book checks on *later* sessions
    // too, muddying the oracle's one-mutation → one-rule mapping.
    let entity = if mutation == Mutation::None {
        format!("slot:{}", rng.below(4))
    } else {
        "slot:mut".to_owned()
    };
    // Participants: every device except duplicates, 1..=devices of them.
    let count = 1 + rng.below(devices as u64) as usize;
    let mut participants: Vec<usize> = (0..devices).collect();
    for i in (1..participants.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        participants.swap(i, j);
    }
    participants.truncate(count);

    let constraint = if mutation == Mutation::BadArithmetic {
        // Force a constraint that the mutated counts will clearly violate.
        Constraint::And
    } else {
        match rng.below(3) {
            0 => Constraint::And,
            1 => Constraint::AtLeast(1 + rng.below(count as u64) as u32),
            _ => Constraint::Exactly(1 + rng.below(count as u64) as u32),
        }
    };
    let lock = || Event::lock(session, entity.as_str());
    let vote = |vote| Event::vote(session, entity.as_str(), vote);
    let commit = |session| Event::commit(session, entity.as_str(), true);

    push(
        &mut journals[coord],
        at,
        Event::Begin {
            session,
            constraint,
            participants: participants.len() as u32,
        },
    );

    // Mark phase: mostly yes votes; occasional declines and lock-busy.
    let mut yes = Vec::new();
    let mut declined = 0u32;
    let mut contended = 0u32;
    for &p in &participants {
        if mutation == Mutation::None && rng.chance(1, 8) {
            if rng.chance(1, 2) {
                // Lock-busy: no lock was ever taken on p.
                push(&mut journals[p], at, vote(Vote::LockBusy));
                // A lock-busy decline counts in both tallies: `contended`
                // is the transient subset of `declined`.
                declined += 1;
                contended += 1;
            } else {
                // Prepare failure: lock taken, then released.
                push(&mut journals[p], at, lock());
                push(
                    &mut journals[p],
                    at,
                    vote(Vote::Refused(format!("{entity} is busy"))),
                );
                declined += 1;
            }
        } else {
            push(&mut journals[p], at, lock());
            push(&mut journals[p], at, vote(Vote::Yes));
            yes.push(p);
        }
    }
    push(
        &mut journals[coord],
        at,
        Event::Tally {
            session,
            yes: yes.len() as u32,
            declined,
            contended,
        },
    );

    // Decide the outcome.
    let n = participants.len();
    let satisfied = match constraint {
        Constraint::And => yes.len() == n,
        Constraint::AtLeast(k) | Constraint::Exactly(k) => yes.len() >= k as usize,
    };
    let committed: Vec<usize> = if satisfied {
        match constraint {
            Constraint::Exactly(k) => yes.iter().copied().take(k as usize).collect(),
            _ => yes.clone(),
        }
    } else {
        Vec::new()
    };
    let aborted: Vec<usize> = yes
        .iter()
        .copied()
        .filter(|p| !committed.contains(p))
        .collect();

    // Commit fan-out.
    let mut dropped = false;
    for &p in &committed {
        if mutation == Mutation::DropRelease && !dropped {
            // The change (and therefore the release) never lands: the
            // participant's lock story stays open.
            dropped = true;
            continue;
        }
        if mutation == Mutation::CommitWithoutLock && p == committed[0] {
            // Recorded on a device that never locked the entity: pick a
            // non-participant if one exists, else reuse with a bogus
            // session id so no lock precedes it.
            let stranger = (0..journals.len()).find(|d| !participants.contains(d));
            match stranger {
                Some(d) => push(&mut journals[d], at, commit(session)),
                None => push(&mut journals[p], at, commit(session ^ 0xbad)),
            }
        }
        if mutation == Mutation::DoubleCommit && p == committed[0] {
            // A foreign session commits the entity while `session` still
            // holds its lock — the classic double booking.
            push(&mut journals[p], at, commit(session ^ 0xf00d));
        }
        push(&mut journals[p], at, commit(session));
    }
    if !committed.is_empty() {
        push(
            &mut journals[coord],
            at,
            Event::Committed {
                session,
                committed: committed.len() as u32,
            },
        );
    }

    // Abort fan-out: yes-voters not committed, plus decliners (broadcast
    // cleanup — legal without a lock).
    for &p in &aborted {
        let release = Event::release(session, entity.as_str(), "coordinator-abort");
        push(&mut journals[p], at, release);
    }

    let reported_committed = if mutation == Mutation::BadArithmetic {
        // Satisfied-and with one commit short of everyone.
        committed.len().saturating_sub(1)
    } else {
        committed.len()
    };
    let final_satisfied = if mutation == Mutation::BadArithmetic {
        true
    } else {
        satisfied && !committed.is_empty()
    };
    push(
        &mut journals[coord],
        at,
        Event::End {
            session,
            satisfied: final_satisfied,
            committed: reported_committed as u32,
            aborted: aborted.len() as u32,
            declined,
        },
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::replay::{audit_journals, AuditOptions};
    use crate::report::Rule;

    #[test]
    fn valid_journals_audit_clean() {
        for seed in 1..=20u64 {
            let journals = generate(seed, 12, 4, Mutation::None);
            let report = audit_journals(&journals, &AuditOptions::strict());
            assert!(report.ok(), "seed {seed}:\n{report}");
            assert!(report.sessions >= 12, "seed {seed}: {}", report.sessions);
        }
    }

    #[test]
    fn drop_release_is_caught_as_lock_leak() {
        for seed in 1..=20u64 {
            let journals = generate(seed, 9, 4, Mutation::DropRelease);
            let report = audit_journals(&journals, &AuditOptions::strict());
            // The drop may hit a session with no commits; those seeds
            // still audit clean, but most must trip the leak detector.
            if report.violations.is_empty() {
                continue;
            }
            assert!(
                report.violations.iter().any(|v| v.rule == Rule::LockLeak),
                "seed {seed}:\n{report}"
            );
        }
        // At least one seed in the sweep must produce the leak.
        let any = (1..=20u64).any(|seed| {
            let journals = generate(seed, 9, 4, Mutation::DropRelease);
            !audit_journals(&journals, &AuditOptions::strict()).ok()
        });
        assert!(any, "no seed produced a lock leak");
    }

    #[test]
    fn double_commit_is_caught_with_session_and_excerpt() {
        let mut caught = 0;
        for seed in 1..=20u64 {
            let journals = generate(seed, 9, 4, Mutation::DoubleCommit);
            let report = audit_journals(&journals, &AuditOptions::strict());
            if let Some(v) = report
                .violations
                .iter()
                .find(|v| v.rule == Rule::DoubleBook)
            {
                assert!(v.session.is_some(), "{v}");
                assert!(!v.excerpt.is_empty(), "{v}");
                caught += 1;
            }
        }
        assert!(
            caught >= 10,
            "double commits caught in only {caught}/20 seeds"
        );
    }

    #[test]
    fn commit_without_lock_is_caught() {
        let mut caught = 0;
        for seed in 1..=20u64 {
            let journals = generate(seed, 9, 4, Mutation::CommitWithoutLock);
            let report = audit_journals(&journals, &AuditOptions::strict());
            if report.violations.iter().any(|v| v.rule == Rule::DoubleBook) {
                caught += 1;
            }
        }
        assert!(caught >= 10, "caught only {caught}/20 seeds");
    }

    #[test]
    fn bad_arithmetic_is_caught() {
        let mut caught = 0;
        for seed in 1..=20u64 {
            let journals = generate(seed, 9, 4, Mutation::BadArithmetic);
            let report = audit_journals(&journals, &AuditOptions::strict());
            if report.violations.iter().any(|v| v.rule == Rule::Constraint) {
                caught += 1;
            }
        }
        assert!(caught >= 10, "caught only {caught}/20 seeds");
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let j1 = generate(3, 5, 3, Mutation::None);
        let j2 = generate(3, 5, 3, Mutation::None);
        assert_eq!(j1, j2);
    }

    /// FNV-1a over every journal field the replay reads.
    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[test]
    fn generate_is_seed_stable_across_platforms() {
        // Regression pin: fixed seed → fixed event stream, byte for byte,
        // on every platform. Model-checker counterexample replay and
        // seeded stress runs cite seeds in bug reports; if this hash
        // moves, every recorded seed silently means a different run. Only
        // update the constant for a *deliberate* generator change.
        let journals = generate(42, 10, 4, Mutation::None);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (name, events) in &journals {
            fnv(&mut hash, name.as_bytes());
            for e in events {
                fnv(&mut hash, &e.seq.to_le_bytes());
                fnv(&mut hash, &e.at_micros.to_le_bytes());
                fnv(&mut hash, e.event.kind().to_string().as_bytes());
                fnv(&mut hash, e.event.to_string().as_bytes());
            }
        }
        assert_eq!(
            hash, 0xe238_e09a_34b4_0304,
            "synth::generate event stream for seed 42 drifted (hash {hash:#x})"
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use std::collections::BTreeMap;

    use syd_types::rng::cases;

    use super::*;
    use crate::replay::{audit_journals, AuditOptions};
    use crate::report::Rule;

    #[test]
    fn valid_journals_always_audit_clean() {
        cases(256, |rng| {
            let (seed, sessions, devices) =
                (1 + rng.below(9_999), 1 + rng.below(23), 2 + rng.below(4));
            let journals = generate(seed, sessions as usize, devices as usize, Mutation::None);
            let report = audit_journals(&journals, &AuditOptions::strict());
            assert!(report.ok(), "{report}");
        });
    }

    /// Maps every free string of a history — entities, prepare-refusal
    /// reasons, correlation ids — through an injective renaming into
    /// arbitrary text (NUL, newlines, quotes, `=`, spaces, multi-byte).
    fn rename(
        journals: &[(String, Vec<JournalEvent>)],
        rng: &mut Rng,
    ) -> Vec<(String, Vec<JournalEvent>)> {
        let mut names: BTreeMap<String, String> = BTreeMap::new();
        let mut fresh = |old: &mut String| {
            // The counter suffix keeps two draws that collide apart.
            let n = names.len();
            let new = names
                .entry(old.clone())
                .or_insert_with(|| format!("{}#{n}", rng.string(12)));
            old.clone_from(new);
        };
        let mut renamed = journals.to_vec();
        for event in renamed.iter_mut().flat_map(|(_, events)| events) {
            match &mut event.event {
                Event::Lock { entity, .. }
                | Event::Commit { entity, .. }
                | Event::Release { entity, .. } => fresh(entity),
                Event::Vote { entity, vote, .. } => {
                    fresh(entity);
                    if let Vote::Refused(reason) = vote {
                        fresh(reason);
                    }
                }
                Event::LinkDeleted { corr, .. } => fresh(corr),
                _ => {}
            }
        }
        renamed
    }

    /// A mutation either leaves the journals accidentally valid (e.g. the
    /// target session committed nothing) or is reported under its own
    /// invariant class — never as random noise. And the verdict is
    /// metamorphic under [`rename`]: it depends on which strings are
    /// *equal*, never on what they contain, because a record is a value
    /// and no entity, reason or corr can be mistaken for syntax.
    #[test]
    fn mutations_never_pass_silently_as_wrong_rule() {
        cases(256, |rng| {
            let (seed, sessions, devices) =
                (1 + rng.below(9_999), 3 + rng.below(13), 2 + rng.below(4));
            let mutation = Mutation::ALL[rng.below(Mutation::ALL.len() as u64) as usize];
            let journals = generate(seed, sessions as usize, devices as usize, mutation);
            let verdict = |journals: &[(String, Vec<JournalEvent>)]| {
                audit_journals(journals, &AuditOptions::strict())
                    .violations
                    .into_iter()
                    .map(|v| (v.device, v.session, v.rule))
                    .collect::<Vec<_>>()
            };
            let renamed = verdict(&rename(&journals, rng));
            assert_eq!(verdict(&journals), renamed, "{mutation:?} seed {seed}");
            let expected = match mutation {
                Mutation::None => None,
                Mutation::DropRelease => Some(Rule::LockLeak),
                Mutation::DoubleCommit | Mutation::CommitWithoutLock => Some(Rule::DoubleBook),
                Mutation::BadArithmetic => Some(Rule::Constraint),
            };
            for (device, session, rule) in renamed {
                assert_eq!(Some(rule), expected, "{device} {session:?} {mutation:?}");
            }
        });
    }

    #[test]
    fn double_commit_violations_carry_context() {
        cases(256, |rng| {
            let (seed, devices) = (1 + rng.below(1_999), 2 + rng.below(4));
            let journals = generate(seed, 9, devices as usize, Mutation::DoubleCommit);
            let report = audit_journals(&journals, &AuditOptions::strict());
            for v in &report.violations {
                assert!(v.session.is_some());
                assert!(!v.device.is_empty());
            }
        });
    }
}
