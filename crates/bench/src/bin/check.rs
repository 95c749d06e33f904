//! Stress-and-audit driver for the protocol invariant checker.
//!
//! Runs hundreds of seeded concurrent negotiations over a lossy (and
//! optionally partitioning) simulated network, ends the leases left
//! behind, and audits every device journal and lock table with
//! `syd-check`. Exits non-zero — printing each violation with its
//! session id and a minimized journal excerpt — if any invariant broke.
//!
//! ```sh
//! cargo run --release -p syd-bench --bin check -- --sessions 500 --loss 0.05
//! cargo run --release -p syd-bench --bin check -- --inject lock-leak   # must fail
//! ```

use syd_bench::stress::{run, StressConfig};

fn usage() -> ! {
    eprintln!(
        "usage: check [--sessions N] [--devices N] [--workers N] [--entities N]\n\
         \x20            [--loss P] [--seed N] [--no-partition]\n\
         \x20            [--inject lock-leak|double-commit]"
    );
    std::process::exit(2)
}

fn main() {
    let cfg = StressConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });

    println!(
        "syd-check stress: {} sessions, {} devices, {} workers, {} entities, \
         loss {:.1}%, partition churn {}, seed {}",
        cfg.sessions,
        cfg.devices,
        cfg.workers,
        cfg.entities,
        cfg.loss * 100.0,
        if cfg.partition { "on" } else { "off" },
        cfg.seed
    );
    if let Some(fault) = cfg.inject {
        println!("injecting defect after quiesce: {fault:?}");
    }

    let outcome = run(&cfg);
    println!(
        "ran {} sessions ({} satisfied, {} errored), ended {} lapsed leases, \
         audited {} journal events across {} sessions truncated={}",
        outcome.completed + outcome.errors,
        outcome.satisfied,
        outcome.errors,
        outcome.lapsed,
        outcome.report.events,
        outcome.report.sessions,
        outcome.report.truncated,
    );
    println!(
        "rpc.retries={} rpc.timeouts={} longest_session_ms={}",
        outcome.rpc_retries,
        outcome.rpc_timeouts,
        outcome.longest_session.as_millis(),
    );

    if outcome.report.ok() {
        println!("audit clean: every protocol invariant held");
        if cfg.inject.is_some() {
            eprintln!("ERROR: injected defect was NOT detected");
            std::process::exit(3);
        }
    } else {
        println!("\n{}", outcome.report);
        std::process::exit(1);
    }
}
