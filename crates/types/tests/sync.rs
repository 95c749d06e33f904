//! Semantics of `syd_types::sync`: a panicking holder does not wedge a
//! lock, waits hand the guard back usable, and waits are announced to
//! the thread's blocking hook.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use syd_types::sync::{blocking, set_blocking_hook, BlockingHook, Condvar, Mutex, Rank, RwLock};

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
fn wait_timeout_reports_the_timeout_and_returns_a_usable_guard() {
    let m = Mutex::new(Rank::Leaf, 5);
    let cv = Condvar::new();
    let (mut g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(5));
    assert!(timed_out);
    *g += 1;
    assert_eq!(*g, 6);
}

#[test]
fn a_panic_during_a_wait_leaves_the_mutex_usable() {
    let pair = Arc::new((Mutex::new(Rank::Leaf, 0), Condvar::new()));
    let p2 = Arc::clone(&pair);
    let joined = std::thread::spawn(move || {
        let (mut g, _) = p2.1.wait_timeout(p2.0.lock(), Duration::from_millis(1));
        *g = 1;
        panic!("poison attempt after a wait");
    })
    .join();
    assert!(joined.is_err());
    let g = pair
        .1
        .wait_timeout(pair.0.lock(), Duration::from_millis(1))
        .0;
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
    drop(cv.wait_timeout(m.lock(), Duration::from_millis(1)));
    assert_eq!(tally.entered.load(Ordering::SeqCst), 1);
    // A wait inside an announced section is not announced again.
    let depth = blocking(|| {
        drop(cv.wait_timeout(m.lock(), Duration::from_millis(1)));
        tally.inside.load(Ordering::SeqCst)
    });
    assert_eq!((depth, tally.entered.load(Ordering::SeqCst)), (1, 2));
    assert_eq!(tally.inside.load(Ordering::SeqCst), 0, "every enter left");
    set_blocking_hook(None);
    drop(cv.wait_timeout(m.lock(), Duration::from_millis(1)));
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
