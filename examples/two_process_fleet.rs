//! Two OS processes negotiate a meeting over loopback TCP.
//!
//! This is the paper's deployment story with real process isolation: a
//! `sydd` daemon (spawned as a child process) hosts the SyDDirectory and
//! Andy's calendar device; this process mints Phil's device against the
//! *remote* directory and schedules a meeting with Andy. Every directory
//! lookup, lock, vote and commit of the §4.3 negotiation crosses a real
//! TCP socket — no shared memory, no in-process router.
//!
//! Run with `cargo run --example two_process_fleet` (builds `sydd`
//! automatically; set `SYDD_BIN` to point at the daemon explicitly).
//!
//! Both processes finish with a clean protocol-invariant audit.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // example code

use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd::kernel::DeviceRuntime;
use syd::transport::FramedTcpTransport;
use syd::types::{Blob, NodeAddr, TimeSlot, UserId};

/// Phil's identity in this process. `sydd` mints its users from 1
/// upwards, so a high fixed id keeps the two processes' id spaces
/// disjoint.
const PHIL: UserId = UserId::new(100);

fn sydd_binary() -> PathBuf {
    if let Ok(path) = std::env::var("SYDD_BIN") {
        return PathBuf::from(path);
    }
    // examples live in target/<profile>/examples/; sydd sits one level up.
    let mut path = std::env::current_exe().expect("current_exe");
    path.pop();
    path.pop();
    path.push("sydd");
    path
}

fn spawn_sydd() -> (
    Child,
    BufReader<std::process::ChildStdout>,
    NodeAddr,
    UserId,
) {
    let bin = sydd_binary();
    let mut child = Command::new(&bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|err| panic!("cannot spawn {}: {err}", bin.display()));
    let mut stdout = BufReader::new(child.stdout.take().expect("sydd stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("sydd stdout read");
    let mut parts = ready.split_whitespace();
    assert_eq!(parts.next(), Some("READY"), "unexpected banner: {ready}");
    let dir_addr = NodeAddr::new(parts.next().expect("dir addr").parse().expect("dir addr"));
    let host_user = UserId::new(parts.next().expect("host user").parse().expect("host user"));
    (child, stdout, dir_addr, host_user)
}

fn main() {
    // Process 1: the fleet host — directory + Andy's device.
    let (mut sydd, mut sydd_out, dir_addr, andy) = spawn_sydd();
    println!("sydd up: directory at {dir_addr}, host user {andy}");

    // Process 2 (this one): Phil's device, registered with the remote
    // directory over TCP.
    let tcp = FramedTcpTransport::loopback();
    let phil_device = DeviceRuntime::new(&tcp, dir_addr, PHIL, "phil", None)
        .expect("mint phil against remote directory");
    phil_device.node().set_identity(PHIL, Blob::default());
    let phil = CalendarApp::install(&phil_device).expect("install calendar");

    // The §4.3 negotiation, across the process boundary.
    let slot = TimeSlot::new(2, 10);
    let outcome = phil
        .schedule(MeetingSpec::plain("cross-process sync", slot, vec![andy]))
        .expect("schedule meeting");
    assert_eq!(outcome.status, MeetingStatus::Confirmed, "{outcome:?}");
    println!("meeting {:?} confirmed at day 2, slot 10", outcome.meeting);

    // Tracing quickstart: with SYD_TRACE_OUT set, dump this process's
    // span trees as a chrome trace_event file (open it in Perfetto or
    // chrome://tracing). Andy's and the directory's halves of each RPC
    // live inside the sydd process, so assembly runs in lossy mode and
    // flags those trees incomplete — the client spans and transport
    // queueing gaps are still all visible.
    if let Ok(path) = std::env::var("SYD_TRACE_OUT") {
        let mut collector = syd::trace::Collector::new(syd::trace::AssemblyMode::Lossy);
        collector.drain_global();
        let (trees, _) = collector.assemble_all();
        let doc = syd::trace::chrome_trace(&trees, collector.labels());
        std::fs::write(&path, doc).expect("write trace file");
        println!("phil: wrote {} span trees to {path}", trees.len());
    }

    // Audit this process's device…
    let deadline = Instant::now() + Duration::from_secs(2);
    while phil_device.store().locks().held_count() > 0 && Instant::now() < deadline {
        syd::types::sync::sleep(&**phil_device.clock(), Duration::from_millis(10));
    }
    phil_device.end_leases();
    syd::check::audit([&phil_device]).assert_clean();
    println!("phil: audit clean");

    // …and ask sydd to audit its side and exit.
    let mut stdin = sydd.stdin.take().expect("sydd stdin");
    writeln!(stdin, "exit").expect("signal sydd");
    drop(stdin);
    let verdict = {
        let mut line = String::new();
        sydd_out.read_line(&mut line).expect("sydd verdict");
        line.trim().to_string()
    };
    let status = sydd.wait().expect("sydd exit status");
    assert_eq!(verdict, "AUDIT_OK", "sydd audit failed");
    assert!(status.success(), "sydd exited with {status}");
    println!("andy: audit clean — two processes, one confirmed meeting");
}
