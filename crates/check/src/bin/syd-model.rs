//! `syd-model` CLI: exhaustive model checking of the SyD negotiation
//! and link-lifecycle protocols ([`syd_check::model`]) against the
//! `syd-check` oracle.
//!
//! ```text
//! cargo run -p syd-check --bin syd-model -- --devices 3 --faults 1 --constraint or:2
//! cargo run -p syd-check --bin syd-model -- --inject double-commit
//! cargo run -p syd-check --bin syd-model -- --inject skip-cascade
//! ```
//!
//! Exit status 0 means the expectation held: a run without `--inject`
//! found no violation, a run with `--inject` found (and minimized) a
//! counterexample tripping the injected bug's rule. Anything else
//! exits 2.

// Model-checker CLI: a broken invocation or replay must abort loudly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use syd_check::model::{
    minimize, snapshot_schedule, Explorer, LifecycleInject, LifecycleModel, Model,
    NegotiationInject, NegotiationModel, Verdict,
};
use syd_check::{audit_journals, audit_states, Rule};
use syd_core::Constraint;
use syd_telemetry::names;
use syd_telemetry::Registry;

/// Which protocol to model-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scenario {
    Negotiate,
    Lifecycle,
}

/// Parsed `--inject` argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Inject {
    Negotiation(NegotiationInject),
    Lifecycle(LifecycleInject),
}

impl Inject {
    fn parse(text: &str) -> Option<Inject> {
        Some(match text {
            "double-commit" => Inject::Negotiation(NegotiationInject::DoubleCommit),
            "double-lock" => Inject::Negotiation(NegotiationInject::DoubleLock),
            "lock-leak" => Inject::Negotiation(NegotiationInject::LockLeak),
            "bad-arithmetic" => Inject::Negotiation(NegotiationInject::BadArithmetic),
            "commit-after-lease" => Inject::Negotiation(NegotiationInject::CommitAfterLease),
            "skip-cascade" => Inject::Lifecycle(LifecycleInject::SkipCascade),
            "skip-promotion" => Inject::Lifecycle(LifecycleInject::SkipPromotion),
            _ => return None,
        })
    }

    /// The `syd_check` rule the injected bug must trip.
    fn expected_rule(self) -> Rule {
        use NegotiationInject as N;
        match self {
            Inject::Negotiation(N::DoubleCommit | N::CommitAfterLease) => Rule::DoubleBook,
            Inject::Negotiation(N::DoubleLock) => Rule::Ordering,
            Inject::Negotiation(N::LockLeak) => Rule::LockLeak,
            Inject::Negotiation(N::BadArithmetic) => Rule::Constraint,
            Inject::Lifecycle(LifecycleInject::SkipCascade) => Rule::Cascade,
            Inject::Lifecycle(LifecycleInject::SkipPromotion) => Rule::Waiting,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Inject::Negotiation(NegotiationInject::DoubleCommit) => "double-commit",
            Inject::Negotiation(NegotiationInject::DoubleLock) => "double-lock",
            Inject::Negotiation(NegotiationInject::LockLeak) => "lock-leak",
            Inject::Negotiation(NegotiationInject::BadArithmetic) => "bad-arithmetic",
            Inject::Negotiation(NegotiationInject::CommitAfterLease) => "commit-after-lease",
            Inject::Lifecycle(LifecycleInject::SkipCascade) => "skip-cascade",
            Inject::Lifecycle(LifecycleInject::SkipPromotion) => "skip-promotion",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
struct Config {
    scenario: Scenario,
    devices: usize,
    sessions: usize,
    constraint: Constraint,
    faults: u8,
    dups: u8,
    crash: bool,
    inject: Option<Inject>,
    max_states: u64,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut scenario: Option<Scenario> = None;
    let mut devices = 3usize;
    let mut sessions = 2usize;
    let mut constraint = Constraint::And;
    let mut faults = 1u8;
    let mut dups = 0u8;
    let mut crash = false;
    let mut inject: Option<Inject> = None;
    let mut max_states = 2_000_000u64;

    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scenario" => {
                scenario = Some(match value("--scenario")?.as_str() {
                    "negotiate" => Scenario::Negotiate,
                    "lifecycle" => Scenario::Lifecycle,
                    other => return Err(format!("unknown scenario `{other}`")),
                });
            }
            "--devices" => {
                devices = value("--devices")?
                    .parse()
                    .map_err(|_| "--devices expects a number".to_owned())?;
            }
            "--sessions" => {
                sessions = value("--sessions")?
                    .parse()
                    .map_err(|_| "--sessions expects a number".to_owned())?;
            }
            "--constraint" => {
                constraint = parse_constraint(&value("--constraint")?)?;
            }
            "--faults" => {
                faults = value("--faults")?
                    .parse()
                    .map_err(|_| "--faults expects a number".to_owned())?;
            }
            "--dups" => {
                dups = value("--dups")?
                    .parse()
                    .map_err(|_| "--dups expects a number".to_owned())?;
            }
            "--crash" => crash = true,
            "--inject" => {
                let text = value("--inject")?;
                inject = Some(
                    Inject::parse(&text).ok_or_else(|| format!("unknown injection `{text}`"))?,
                );
            }
            "--max-states" => {
                max_states = value("--max-states")?
                    .parse()
                    .map_err(|_| "--max-states expects a number".to_owned())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    // Infer the scenario from the injection when not given explicitly.
    let scenario = scenario.unwrap_or(match inject {
        Some(Inject::Lifecycle(_)) => Scenario::Lifecycle,
        _ => Scenario::Negotiate,
    });
    match (scenario, inject) {
        (Scenario::Negotiate, Some(Inject::Lifecycle(i))) => {
            return Err(format!(
                "injection `{}` belongs to --scenario lifecycle",
                Inject::Lifecycle(i).name()
            ));
        }
        (Scenario::Lifecycle, Some(Inject::Negotiation(i))) => {
            return Err(format!(
                "injection `{}` belongs to --scenario negotiate",
                Inject::Negotiation(i).name()
            ));
        }
        _ => {}
    }
    let crash = crash || inject == Some(Inject::Negotiation(NegotiationInject::CommitAfterLease));
    if !(2..=8).contains(&devices) {
        return Err("--devices must be between 2 and 8".to_owned());
    }
    if !(1..=16).contains(&sessions) {
        return Err("--sessions must be between 1 and 16".to_owned());
    }
    Ok(Config {
        scenario,
        devices,
        sessions,
        constraint,
        faults,
        dups,
        crash,
        inject,
        max_states,
    })
}

fn parse_constraint(text: &str) -> Result<Constraint, String> {
    if text == "and" {
        return Ok(Constraint::And);
    }
    if let Some((kind, k)) = text.split_once(':') {
        let k: u32 = k
            .parse()
            .map_err(|_| format!("constraint `{text}` needs a numeric k"))?;
        return match kind {
            "or" => Ok(Constraint::AtLeast(k)),
            "xor" => Ok(Constraint::Exactly(k)),
            _ => Err(format!("unknown constraint `{text}`")),
        };
    }
    Err(format!(
        "unknown constraint `{text}` (use and, or:k, xor:k)"
    ))
}

fn usage() {
    eprintln!(
        "Usage: syd-model [options]

Exhaustively explores every schedule of an abstract SyD system and
judges each terminal state with the syd-check invariant oracle.

  --scenario negotiate|lifecycle  protocol to check (default negotiate,
                                  inferred from --inject when given)
  --devices N                     devices = participants (default 3)
  --sessions N                    concurrent negotiations (default 2)
  --constraint and|or:K|xor:K     session constraint (default and)
  --faults N                      message-loss budget (default 1)
  --dups N                        duplicate-delivery budget (default 0)
  --crash                         allow one coordinator crash or lease lapse
  --inject KIND                   plant a bug the checker must catch:
                                  double-commit double-lock lock-leak
                                  bad-arithmetic commit-after-lease
                                  skip-cascade skip-promotion
                                  (commit-after-lease implies --crash)
  --max-states N                  visited-state cap (default 2000000)"
    );
}

/// Runs one exploration and reports; returns the process exit status.
fn run_check<M: Model>(model: &M, banner: &str, inject: Option<Inject>, max_states: u64) -> u8 {
    let registry = Registry::new();
    let mut explorer = Explorer::new(model, max_states, &registry);
    let verdict = explorer.run();
    let stats = explorer.stats();
    println!("syd-model: {banner}");
    println!(
        "explored {} states, {} transitions, {} terminal states{}",
        stats.states,
        stats.transitions,
        stats.terminals,
        if stats.capped {
            " — STATE CAP HIT, verdict is partial"
        } else {
            ""
        }
    );
    println!(
        "telemetry: model.states_explored={} model.violations={}",
        registry.counter(names::MODEL_STATES_EXPLORED).get(),
        registry.counter(names::MODEL_VIOLATIONS).get()
    );

    match verdict {
        Verdict::Clean => {
            if let Some(inject) = inject {
                println!(
                    "result: FAIL — injection `{}` produced no counterexample for rule `{}`",
                    inject.name(),
                    inject.expected_rule()
                );
                return 2;
            }
            println!("result: clean — no reachable schedule violates the audited invariants");
            u8::from(stats.capped) * 2
        }
        Verdict::Violation { schedule, report } => {
            let target = match inject {
                Some(inject) => inject.expected_rule(),
                None => {
                    report
                        .violations
                        .first()
                        .expect("violating report has a violation")
                        .rule
                }
            };
            let full = schedule.len();
            let minimized = minimize(model, schedule, target);
            println!();
            println!(
                "counterexample ({} steps, minimized from {full}):",
                minimized.len()
            );
            for (i, step) in minimized.iter().enumerate() {
                println!("  {:>2}. {step}", i + 1);
            }

            // Closed loop, part 1: replay the minimized schedule from
            // scratch and let the full oracle judge it.
            let (states, opts) =
                snapshot_schedule(model, &minimized).expect("minimized schedule must replay");
            let replayed = audit_states(&states, &opts);
            println!();
            println!("oracle verdict (syd_check::audit_states over the replayed schedule):");
            print!("{replayed}");
            let tripped = replayed.violations.iter().any(|v| v.rule == target);

            // Closed loop, part 2: re-emit the schedule as a plain
            // journal stream and run the journal-only auditor over it —
            // the counterexample is a real syd-check input.
            let journals: Vec<_> = states.into_iter().map(|s| (s.device, s.journal)).collect();
            let journal_report = audit_journals(&journals, &opts);
            if journal_report.violations.iter().any(|v| v.rule == target) {
                println!(
                    "closed loop: re-emitted journal stream trips rule `{target}` in \
                     syd_check::audit_journals"
                );
            } else {
                println!(
                    "closed loop: rule `{target}` needs device state to witness — flagged by \
                     syd_check::audit_states above"
                );
            }

            match inject {
                Some(inject) if tripped => {
                    println!(
                        "result: injection `{}` caught as rule `{target}`",
                        inject.name()
                    );
                    0
                }
                Some(inject) => {
                    println!(
                        "result: FAIL — counterexample does not trip `{target}` for `{}`",
                        inject.name()
                    );
                    2
                }
                None => {
                    println!("result: VIOLATION — see counterexample above");
                    2
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("syd-model: {message}");
                eprintln!();
            }
            usage();
            return ExitCode::from(2);
        }
    };
    let code = match config.scenario {
        Scenario::Negotiate => {
            let inject = match config.inject {
                Some(Inject::Negotiation(i)) => Some(i),
                _ => None,
            };
            let model = NegotiationModel {
                devices: config.devices,
                sessions: config.sessions,
                constraint: config.constraint,
                loss_budget: config.faults,
                dup_budget: config.dups,
                crash_budget: u8::from(config.crash),
                inject,
            };
            let banner = format!(
                "scenario=negotiate devices={} sessions={} constraint={:?} faults={} dups={} \
                 crash={} inject={}",
                config.devices,
                config.sessions,
                config.constraint,
                config.faults,
                config.dups,
                config.crash,
                config.inject.map_or("none", Inject::name)
            );
            run_check(&model, &banner, config.inject, config.max_states)
        }
        Scenario::Lifecycle => {
            let inject = match config.inject {
                Some(Inject::Lifecycle(i)) => Some(i),
                _ => None,
            };
            let model = LifecycleModel {
                devices: config.devices,
                loss_budget: config.faults,
                inject,
            };
            let banner = format!(
                "scenario=lifecycle devices={} faults={} inject={}",
                config.devices,
                config.faults,
                config.inject.map_or("none", Inject::name)
            );
            run_check(&model, &banner, config.inject, config.max_states)
        }
    };
    ExitCode::from(code)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Config, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn defaults_match_the_acceptance_configuration() {
        let config = parse("").unwrap();
        assert_eq!(config.scenario, Scenario::Negotiate);
        assert_eq!(config.devices, 3);
        assert_eq!(config.sessions, 2);
        assert_eq!(config.constraint, Constraint::And);
        assert_eq!(config.faults, 1);
        assert_eq!(config.dups, 0);
        assert!(!config.crash);
        assert!(config.inject.is_none());
    }

    #[test]
    fn constraints_parse_the_paper_spellings() {
        assert_eq!(
            parse("--constraint or:2").unwrap().constraint,
            Constraint::AtLeast(2)
        );
        assert_eq!(
            parse("--constraint xor:1").unwrap().constraint,
            Constraint::Exactly(1)
        );
        assert!(parse("--constraint nand").is_err());
    }

    #[test]
    fn injections_infer_their_scenario() {
        let config = parse("--inject skip-cascade").unwrap();
        assert_eq!(config.scenario, Scenario::Lifecycle);
        assert_eq!(config.inject.unwrap().expected_rule(), Rule::Cascade);
        let config = parse("--inject double-commit").unwrap();
        assert_eq!(config.scenario, Scenario::Negotiate);
        assert!(!config.crash);
        // A late commit needs a lease to lapse, which the crash budget pays.
        assert!(parse("--inject commit-after-lease").unwrap().crash);
        // Mismatched pairs are rejected.
        assert!(parse("--scenario lifecycle --inject double-commit").is_err());
    }

    /// Each planted bug is caught by the rule it breaks; the two that
    /// apply a change without the lock are both double-books.
    #[test]
    fn every_injection_maps_to_its_rule() {
        let kinds = [
            ("double-commit", Rule::DoubleBook),
            ("double-lock", Rule::Ordering),
            ("lock-leak", Rule::LockLeak),
            ("bad-arithmetic", Rule::Constraint),
            ("commit-after-lease", Rule::DoubleBook),
            ("skip-cascade", Rule::Cascade),
            ("skip-promotion", Rule::Waiting),
        ];
        for (kind, rule) in kinds {
            let inject = Inject::parse(kind).unwrap();
            assert_eq!((inject.name(), inject.expected_rule()), (kind, rule));
        }
    }
}
