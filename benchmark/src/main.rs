//! The SyD calendar benchmark: four deployments on a network with a fixed
//! injected delay, a cycle of two meetings on each, end-to-end metrics
//! that are made of that delay or are counts and sizes, and per-layer
//! metrics from a traced pass. See `benchmark/README.md`.
//!
//! ```text
//! syd-benchmark --workload wlan_n8 --seed 1 --seconds 20 --trace 0
//! syd-benchmark                       # every workload, both passes
//! syd-benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output is the run's result as one JSON
//! object; everything meant for people goes to standard error.

mod alloc;
mod compare;
mod cycle;
mod deploy;
mod json;
mod probes;
mod proc;
mod run;
mod spans;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use run::{Outcome, RunConfig};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds of timed window when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str =
    "usage: syd-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
       syd-benchmark --compare A.jsonl B.jsonl
Without --workload every workload runs; without --trace both passes run.";

struct Cli {
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    /// Append each run's result, tagged with workload, seed and pass.
    record: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => cli.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 600")?;
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--record" => cli.record = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of the pass by name.
fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    ))
}

/// Runs one pass of one workload; prints the table for people to stderr
/// and the result line to stdout. Returns whether the run was correct.
fn run_pass(cli: &Cli, workload: &'static spec::Workload, trace: bool) -> Result<bool, String> {
    let cfg = RunConfig {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        spans_dir: "benchmark/out".into(),
    };
    eprintln!(
        "== {} seed {} trace {} window {} s ({} hardware threads)\n   {}",
        workload.name,
        cli.seed,
        u8::from(trace),
        cli.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        workload.why,
    );
    let outcome = run::run(&cfg)?;
    let described = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
    for (name, unit, better) in described {
        if let Some(value) = outcome.values.get(name) {
            eprintln!(
                "{name:<36} {value:>16.4} {unit:<7} ({} is better)",
                better.as_str()
            );
        }
    }
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    eprintln!(
        "correct {} — {} of {} operations failed",
        outcome.correct, outcome.failed, outcome.attempted
    );
    let line = result_json(&outcome, trace)?;
    if let Some(path) = &cli.record {
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            workload.name,
            cli.seed,
            u8::from(trace),
            &line[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{tagged}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("syd-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("syd-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&'static spec::Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let passes: &[bool] = match cli.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut all_correct = true;
    for w in workloads {
        for &trace in passes {
            match run_pass(&cli, w, trace) {
                Ok(correct) => all_correct &= correct,
                Err(e) => {
                    eprintln!("syd-benchmark: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// Runs both passes of `wlan_n8` over a one-second window and checks
    /// that the result line names exactly the metrics `BENCHMARK.json`
    /// declares for the pass, each with the declared unit.
    #[test]
    fn the_result_line_names_exactly_the_declared_metrics() {
        let declared = Json::parse(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json is readable"),
        )
        .expect("BENCHMARK.json is JSON");
        for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = RunConfig {
                workload: spec::workload("wlan_n8").expect("wlan_n8 is a workload"),
                seed: 3,
                seconds: 1,
                trace,
                spans_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/out/test").into(),
            };
            let outcome = run::run(&cfg).expect("the run completes");
            assert!(outcome.correct, "{:#?}", outcome.notes);
            assert!(outcome.attempted > 0 && outcome.failed == 0);

            let line = Json::parse(&result_json(&outcome, trace).expect("every metric measured"))
                .expect("the result line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<(&str, &str)> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.as_str(),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            let wanted: Vec<(&str, &str)> = declared
                .get(table)
                .and_then(Json::as_arr)
                .expect(table)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(printed, wanted);
            assert_eq!(
                outcome.values.len(),
                wanted.len(),
                "no metric beyond the declared"
            );
        }
    }
}
