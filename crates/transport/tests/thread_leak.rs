//! Thread hygiene: closed endpoints leave no accept or reader thread
//! behind, and idle ones do not wake. Lives in its own integration binary,
//! its tests one at a time, so the counts aren't perturbed by sibling
//! tests running concurrently.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::Mutex;
use std::time::{Duration, Instant};

use syd_transport::{Transport, TransportEndpoint, TransportEvent};

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// The `/proc/self/task/*/status` of this process's `syd-tcp*` threads:
/// every accept and reader thread of every endpoint.
fn tcp_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter(|status| status.starts_with("Name:\tsyd-tcp"))
        .collect()
}

/// Voluntary context switches summed over the `syd-tcp*` threads.
fn tcp_thread_switches() -> u64 {
    tcp_threads()
        .iter()
        .filter_map(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
        })
        .sum()
}

fn wait_connected(ep: &dyn TransportEndpoint) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match ep.recv_event_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(TransportEvent::Connected(_)) => break,
            Ok(_) => {}
            Err(err) => panic!("waiting for Connected: {err}"),
        }
    }
}

#[test]
fn closed_endpoints_leak_no_threads() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for _ in 0..3 {
        let tcp = syd_transport::FramedTcpTransport::loopback();
        let a = tcp.listen().unwrap();
        let b = tcp.listen().unwrap();
        b.connect(a.addr()).unwrap();
        // A real connection to tear down.
        wait_connected(b.as_ref());
        a.close();
        b.close();
    }

    // close() joins the accept and reader threads, so none is left once
    // the kernel has reaped them.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = tcp_threads().len();
        if left == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "thread leak: {left} left");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Two connected endpoints with no traffic: their threads block in
/// `accept` and `read` and never wake. A poll tick of any period shows
/// here as hundreds of switches.
#[test]
fn idle_connected_endpoints_do_not_wake() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let tcp = syd_transport::FramedTcpTransport::loopback();
    let a = tcp.listen().unwrap();
    let b = tcp.listen().unwrap();
    b.connect(a.addr()).unwrap();
    wait_connected(b.as_ref());
    // Let the acceptor's reader take the hello and settle.
    std::thread::sleep(Duration::from_millis(50));

    let before = tcp_thread_switches();
    std::thread::sleep(Duration::from_millis(200));
    let woke = tcp_thread_switches() - before;
    assert!(woke <= 2, "idle tcp threads woke {woke} times in 200 ms");

    a.close();
    b.close();
}
