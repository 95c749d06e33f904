//! `sydd` — a SyD fleet host: one OS process carrying the directory
//! server and a calendar-equipped device, reachable over loopback TCP.
//!
//! Used by the `two_process_fleet` example (and the CI transport job) to
//! exercise the framed TCP backend across real process boundaries:
//!
//! ```text
//! $ sydd
//! READY <directory-addr-raw> <host-user-raw>
//! ```
//!
//! The daemon then blocks until its peer writes a line to stdin (or
//! closes it), runs the protocol invariant audit over its device, prints
//! `AUDIT_OK` (or `AUDIT_FAIL <reason>`) and exits. Exit status 0 means
//! the audit was clean.
//!
//! With `--stats`, the shutdown sequence additionally dumps a one-shot
//! [`syd::obs::snapshot`] of every live device log, one row each (journal
//! events recorded and evicted, spans recorded, dropped and buffered), and
//! the host's services the directory has not acknowledged (prefixed
//! `STATS ` per line, so peers parsing stdout can skip it).

// Demo daemon: a host that cannot boot must abort loudly at startup.
#![allow(clippy::expect_used)]

use std::io::{BufRead, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd::calendar::CalendarApp;
use syd::kernel::SydEnv;
use syd::net::Transport;
use syd::transport::FramedTcpTransport;

fn main() {
    let mut stats = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--stats" => stats = true,
            other => {
                eprintln!("sydd: unknown flag {other} (supported: --stats)");
                std::process::exit(2);
            }
        }
    }
    let transport: Arc<dyn Transport> = Arc::new(FramedTcpTransport::loopback());
    let env = match SydEnv::new_on(Arc::clone(&transport), None) {
        Ok(env) => env,
        Err(err) => {
            eprintln!("sydd: cannot start deployment: {err}");
            std::process::exit(2);
        }
    };
    let host = env
        .device("andy", "pw-andy")
        .expect("sydd: cannot mint host device");
    let calendar = CalendarApp::install(&host).expect("sydd: cannot install calendar");

    // Hand the rendezvous coordinates to the peer process.
    println!("READY {} {}", env.dir_addr().raw(), calendar.user().raw());
    std::io::stdout().flush().expect("sydd: stdout");

    // Serve until the peer signals shutdown (any line, or EOF).
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);

    // Quiesce: let in-flight negotiation steps release their locks, then
    // end the leases left behind and audit.
    let deadline = Instant::now() + Duration::from_secs(2);
    while host.store().locks().held_count() > 0 && Instant::now() < deadline {
        syd::types::sync::sleep(Duration::from_millis(10));
    }
    host.end_leases();
    if stats {
        for line in syd::obs::snapshot().to_string().lines() {
            println!("STATS {line}");
        }
        println!("STATS unpublished {:?}", host.unpublished());
    }
    let report = syd::check::audit([&host]);
    if report.ok() {
        println!("AUDIT_OK");
    } else {
        println!("AUDIT_FAIL\n{report}");
        std::process::exit(1);
    }
}
