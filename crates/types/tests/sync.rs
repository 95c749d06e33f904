//! Semantics of `syd_types::sync`: a panicking holder does not wedge a
//! lock, waits hand the guard back usable, and waits are announced to
//! the thread's blocking hook.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_types::sync::{blocking, set_blocking_hook, BlockingHook, Condvar, Mutex, Rank, RwLock};
use syd_types::time::wall;
use syd_types::{Clock, SimClock};

/// `ms` milliseconds from now on the wall clock.
fn in_ms(ms: u64) -> Instant {
    wall().instant() + Duration::from_millis(ms)
}

#[test]
fn a_panic_under_the_lock_does_not_poison_it() {
    let m = Arc::new(Mutex::new(Rank::Engine, 1));
    let rw = Arc::new(RwLock::new(Rank::Leaf, 1));
    let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
    let joined = std::thread::spawn(move || {
        let _g = m2.lock();
        let _w = rw2.write();
        panic!("poison attempt");
    })
    .join();
    assert!(joined.is_err());
    *m.lock() += 1;
    *rw.write() += 1;
    assert_eq!((*m.lock(), *rw.read()), (2, 2));
}

#[test]
fn wait_releases_the_mutex_and_wakes_on_notify() {
    let pair = Arc::new((Mutex::new(Rank::Leaf, false), Condvar::new()));
    let (ready_tx, ready_rx) = mpsc::channel();
    let p2 = Arc::clone(&pair);
    let waiter = std::thread::spawn(move || {
        let mut g = p2.0.lock();
        ready_tx.send(()).unwrap();
        while !*g {
            g = p2.1.wait(g);
        }
        *g
    });
    ready_rx.recv().unwrap();
    // Taking the lock here proves the waiter released it inside `wait`
    // (it signalled `ready` while still holding it).
    *pair.0.lock() = true;
    pair.1.notify_all();
    assert!(waiter.join().unwrap());
}

#[test]
fn wait_until_reports_the_deadline_and_returns_a_usable_guard() {
    let m = Mutex::new(Rank::Leaf, 5);
    let cv = Condvar::new();
    let (mut g, timed_out) = cv.wait_until(m.lock(), &**wall(), in_ms(5));
    assert!(timed_out);
    *g += 1;
    assert_eq!(*g, 6);
}

/// A wait in virtual time ends when the clock is advanced to its deadline
/// — not before, however long it waits in wall time — or at a notify.
#[test]
fn a_wait_in_virtual_time_ends_at_the_clocks_advance_or_a_notify() {
    let clock = SimClock::new();
    let pair = Arc::new((Mutex::new(Rank::Leaf, false), Condvar::new()));
    let (ready_tx, ready_rx) = mpsc::channel();
    let (p2, c2) = (Arc::clone(&pair), clock.clone());
    let waiter = std::thread::spawn(move || {
        let mut ends = Vec::new();
        for _ in 0..2 {
            let g = p2.0.lock();
            ready_tx.send(()).unwrap();
            let deadline = c2.instant() + Duration::from_secs(1);
            let (g, due) = p2.1.wait_until(g, &c2, deadline);
            ends.push((due, *g));
        }
        ends
    });
    // Taking the lock proves the waiter is waiting; ten wall milliseconds
    // later it still is (it has not come round to wait again), until the
    // clock moves.
    ready_rx.recv().unwrap();
    drop(pair.0.lock());
    assert!(ready_rx.recv_timeout(Duration::from_millis(10)).is_err());
    clock.advance(Duration::from_secs(1));
    ready_rx.recv().unwrap();
    *pair.0.lock() = true;
    pair.1.notify_all();
    assert_eq!(waiter.join().unwrap(), [(true, false), (false, true)]);
}

/// Voluntary context switches summed over this process's threads named
/// `name`, read from `/proc/self/task/*/status`.
fn switches_of(name: &str) -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter(|status| status.starts_with(&format!("Name:\t{name}\n")))
        .filter_map(|status| {
            let line = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"));
            line?.trim().parse::<u64>().ok()
        })
        .sum()
}

/// A thread waiting on a far virtual deadline is parked until the clock
/// moves: it does not wake in 200 ms of wall time. A poll tick of any
/// period shows here as tens of switches or more.
#[test]
fn a_wait_on_a_far_virtual_deadline_does_not_wake() {
    let clock = SimClock::new();
    let pair = Arc::new((Mutex::new(Rank::Leaf, ()), Condvar::new()));
    let (ready_tx, ready_rx) = mpsc::channel();
    let (p2, c2) = (Arc::clone(&pair), clock.clone());
    let waiter = std::thread::Builder::new()
        .name("far-waiter".into())
        .spawn(move || {
            let g = p2.0.lock();
            ready_tx.send(()).unwrap();
            let deadline = c2.instant() + Duration::from_secs(3600);
            p2.1.wait_until(g, &c2, deadline).1
        })
        .unwrap();
    ready_rx.recv().unwrap();
    // Taking the lock proves the waiter has let it go: it waits.
    drop(pair.0.lock());
    let before = switches_of("far-waiter");
    std::thread::sleep(Duration::from_millis(200));
    let woke = switches_of("far-waiter") - before;
    clock.advance(Duration::from_secs(3600));
    assert!(waiter.join().unwrap(), "the wait ended before its deadline");
    assert!(
        woke <= 2,
        "a waiter on virtual time woke {woke} times in 200 ms"
    );
}

/// An advance ends exactly the waits it makes due: of two due at +1 s and
/// +2 s, advancing 1 s ends only the first.
#[test]
fn an_advance_ends_only_the_waits_it_makes_due() {
    let clock = SimClock::new();
    let epoch = clock.instant();
    let pair = Arc::new((Mutex::new(Rank::Leaf, ()), Condvar::new()));
    let (done_tx, done_rx) = mpsc::channel();
    let waiters = [1, 2].map(|secs| {
        let (p2, c2, done_tx) = (Arc::clone(&pair), clock.clone(), done_tx.clone());
        let (ready_tx, ready_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let g = p2.0.lock();
            ready_tx.send(()).unwrap();
            let due = p2.1.wait_until(g, &c2, epoch + Duration::from_secs(secs)).1;
            done_tx.send((secs, due)).unwrap();
        });
        ready_rx.recv().unwrap();
        drop(pair.0.lock());
        waiter
    });
    let ended = || done_rx.recv_timeout(Duration::from_secs(5));
    clock.advance(Duration::from_secs(1));
    assert_eq!(ended(), Ok((1, true)));
    let early = done_rx.recv_timeout(Duration::from_millis(50));
    assert!(early.is_err(), "the +2 s wait ended at +1 s: {early:?}");
    clock.advance(Duration::from_secs(1));
    assert_eq!(ended(), Ok((2, true)));
    for waiter in waiters {
        waiter.join().unwrap();
    }
}

/// An advance to a waiter's deadline that races its entry into the wait
/// — landing before the entry, between the entry and the park, or after
/// the park — ends the wait every time: no wake-up is lost. The waiter
/// starts each round as it sees its number, and the advance comes after
/// 0–7 yields of the advancing thread, across the waiter's way in.
#[test]
fn an_advance_racing_a_waiters_entry_is_never_lost() {
    const ROUNDS: u32 = 1000;
    let clock = SimClock::new();
    let epoch = clock.instant();
    let round = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let (c2, r2) = (clock.clone(), Arc::clone(&round));
    let waiter = std::thread::spawn(move || {
        let (m, cv) = (Mutex::new(Rank::Leaf, ()), Condvar::new());
        for n in 1..=ROUNDS {
            while r2.load(Ordering::Acquire) != n as usize {
                std::thread::yield_now();
            }
            let deadline = epoch + Duration::from_millis(n.into());
            done_tx
                .send(cv.wait_until(m.lock(), &c2, deadline).1)
                .unwrap();
        }
    });
    for n in 1..=ROUNDS {
        round.store(n as usize, Ordering::Release);
        for _ in 0..n % 8 {
            std::thread::yield_now();
        }
        clock.advance(Duration::from_millis(1));
        let ended = done_rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(ended, Ok(true), "round {n}: the wait outlived its deadline");
    }
    waiter.join().unwrap();
}

#[test]
fn a_panic_during_a_wait_leaves_the_mutex_usable() {
    let pair = Arc::new((Mutex::new(Rank::Leaf, 0), Condvar::new()));
    let p2 = Arc::clone(&pair);
    let joined = std::thread::spawn(move || {
        let (mut g, _) = p2.1.wait_until(p2.0.lock(), &**wall(), in_ms(1));
        *g = 1;
        panic!("poison attempt after a wait");
    })
    .join();
    assert!(joined.is_err());
    let g = pair.1.wait_until(pair.0.lock(), &**wall(), in_ms(1)).0;
    assert_eq!(*g, 1);
}

#[test]
fn rwlock_admits_many_readers() {
    let rw = RwLock::new(Rank::Leaf, 7);
    let a = rw.read();
    let b = std::thread::scope(|s| s.spawn(|| *rw.read()).join().unwrap());
    assert_eq!(*a + b, 14);
}

#[test]
fn try_lock_takes_a_free_lock_only() {
    let m = Mutex::new(Rank::Leaf, 1);
    let held = m.try_lock().expect("a free lock is taken");
    assert!(m.try_lock().is_none(), "a held lock is not");
    drop(held);
    assert!(m.try_lock().is_some());
}

/// Counts what a thread announces: `enter`s, and how deep it is now.
#[derive(Default)]
struct Tally {
    entered: AtomicUsize,
    inside: AtomicUsize,
}

impl BlockingHook for Tally {
    fn enter(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.inside.fetch_add(1, Ordering::SeqCst);
    }
    fn leave(&self) {
        self.inside.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn condvar_waits_and_blocking_sections_are_announced_once_each() {
    let tally = Arc::new(Tally::default());
    let hook: Arc<dyn BlockingHook> = Arc::clone(&tally) as Arc<dyn BlockingHook>;
    set_blocking_hook(Some(hook));
    let (m, cv) = (Mutex::new(Rank::Leaf, ()), Condvar::new());
    drop(cv.wait_until(m.lock(), &**wall(), in_ms(1)));
    assert_eq!(tally.entered.load(Ordering::SeqCst), 1);
    // A wait inside an announced section is not announced again.
    let depth = blocking(|| {
        drop(cv.wait_until(m.lock(), &**wall(), in_ms(1)));
        tally.inside.load(Ordering::SeqCst)
    });
    assert_eq!((depth, tally.entered.load(Ordering::SeqCst)), (1, 2));
    assert_eq!(tally.inside.load(Ordering::SeqCst), 0, "every enter left");
    set_blocking_hook(None);
    drop(cv.wait_until(m.lock(), &**wall(), in_ms(1)));
    assert_eq!(tally.entered.load(Ordering::SeqCst), 2, "no hook, no call");
}

#[test]
fn a_wait_that_unwinds_still_leaves() {
    let tally = Arc::new(Tally::default());
    let t2 = Arc::clone(&tally);
    let joined = std::thread::spawn(move || {
        set_blocking_hook(Some(t2 as Arc<dyn BlockingHook>));
        blocking(|| panic!("unwinds inside an announced wait"));
    })
    .join();
    assert!(joined.is_err());
    assert_eq!(tally.entered.load(Ordering::SeqCst), 1);
    assert_eq!(tally.inside.load(Ordering::SeqCst), 0);
}

/// The waits that announce nothing are refused by `cargo clippy` in
/// program code (the workspace's `clippy.toml`); program code reaches them
/// only through this module's announcing wrappers.
#[test]
fn clippy_refuses_the_waits_that_announce_nothing() {
    let config = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../clippy.toml"))
        .expect("the workspace's clippy.toml");
    for path in [
        "std::thread::sleep",
        "std::sync::mpsc::Receiver::recv",
        "std::sync::mpsc::Receiver::recv_timeout",
        "std::thread::JoinHandle::join",
        "std::net::TcpStream::connect",
        "std::net::TcpStream::connect_timeout",
    ] {
        assert!(
            config.contains(&format!("{{ path = \"{path}\",")),
            "{path} is not a disallowed method"
        );
    }
}

/// And it refuses a read of the wall clock: program code reads time
/// through the deployment's `Clock`.
#[test]
fn clippy_refuses_a_second_clock() {
    let config = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../clippy.toml"))
        .expect("the workspace's clippy.toml");
    for path in ["std::time::Instant::now", "std::time::Instant::elapsed"] {
        assert!(
            config.contains(&format!("{{ path = \"{path}\",")),
            "{path} is not a disallowed method"
        );
    }
}
