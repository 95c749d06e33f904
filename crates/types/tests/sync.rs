//! Semantics of `syd_types::sync`: a panicking holder does not wedge a
//! lock, and waits hand the guard back usable.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use syd_types::sync::{Condvar, Mutex, RwLock};

#[test]
fn a_panic_under_the_lock_does_not_poison_it() {
    let m = Arc::new(Mutex::new(1));
    let rw = Arc::new(RwLock::new(1));
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
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
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
    let m = Mutex::new(5);
    let cv = Condvar::new();
    let (mut g, result) = cv.wait_timeout(m.lock(), Duration::from_millis(5));
    assert!(result.timed_out());
    *g += 1;
    assert_eq!(*g, 6);
}

#[test]
fn a_panic_during_a_wait_leaves_the_mutex_usable() {
    let pair = Arc::new((Mutex::new(0), Condvar::new()));
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
    let rw = RwLock::new(7);
    let (a, b) = (rw.read(), rw.read());
    assert_eq!(*a + *b, 14);
}
