//! The lock-order fixtures, each the shape of a deadlock: a lock taken
//! again on its thread, a lock taken under one of a higher rank, and
//! each of them through a helper. The ranks of `syd_types::sync` catch
//! every one at the acquisition itself, so a call chain needs no graph
//! and two files need no shared table. Ranks are kept in debug builds
//! only.

#![cfg(debug_assertions)]
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::panic::{catch_unwind, AssertUnwindSafe};

use syd_types::sync::{Mutex, Rank, RwLock};

/// The panic message of `f`, which must panic.
fn panic_of(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("no panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => (*payload.downcast::<&str>().unwrap()).to_owned(),
    }
}

/// A ledger whose one lock is taken twice in one function.
#[test]
fn lock_order_fixture_fires_once() {
    let ledger = Mutex::new(Rank::Store, 0u8);
    let outer = ledger.lock();
    let message = panic_of(|| drop(ledger.lock()));
    assert!(
        message.starts_with("lock order: taking the Store lock"),
        "{message}"
    );
    assert!(
        message.contains("while holding the Store lock"),
        "{message}"
    );
    drop(outer);
    // Once released, the lock is taken as before.
    assert_eq!(*ledger.lock(), 0);
}

struct Registry {
    entries: Mutex<u8>,
    index: Mutex<u8>,
}

impl Registry {
    fn new() -> Self {
        Self {
            entries: Mutex::new(Rank::Store, 0),
            index: Mutex::new(Rank::Engine, 0),
        }
    }

    /// Holds `entries` while `count` takes it again.
    fn insert(&self) {
        let _entries = self.entries.lock();
        self.count();
    }

    /// Holds `index` (Engine) while `count` takes `entries` (Store).
    fn reindex(&self) {
        let _index = self.index.lock();
        self.count();
    }

    fn count(&self) -> u8 {
        *self.entries.lock()
    }
}

/// A reentry that only a call chain shows: the helper re-locks a lock
/// its caller already holds.
#[test]
fn lock_chain_fixture_fires_once() {
    let registry = Registry::new();
    let message = panic_of(|| registry.insert());
    assert!(
        message.starts_with("lock order: taking the Store lock"),
        "{message}"
    );
    assert!(
        message.contains("while holding the Store lock"),
        "{message}"
    );
    assert_eq!(registry.count(), 0);
}

/// An inversion that no single function shows: the caller holds an
/// Engine lock while a helper takes a Store lock.
#[test]
fn rank_inversion_through_call_chain_fires() {
    let registry = Registry::new();
    let message = panic_of(|| registry.reindex());
    assert!(
        message.contains("taking the Store lock")
            && message.contains("while holding the Engine lock"),
        "{message}"
    );
    assert_eq!(registry.count(), 0);
}

/// The store's lock table and the engine's cache, built in two places:
/// the message names both ranks and where each lock was built.
#[test]
fn hierarchy_inversion_across_files_fires() {
    fn lock_table() -> Mutex<()> {
        Mutex::new(Rank::Store, ())
    }
    let (state, cache) = (lock_table(), RwLock::new(Rank::Engine, ()));
    let _cache = cache.read();
    let message = panic_of(|| drop(state.lock()));
    assert!(
        message.contains("taking the Store lock built at"),
        "{message}"
    );
    assert!(
        message.contains("while holding the Engine lock built at"),
        "{message}"
    );
    // Where each lock was built, and where the inverted lock was taken.
    assert_eq!(message.matches("fixtures.rs").count(), 3, "{message}");
}

/// The shared runtime's locks sit above a node's: the loop drains a
/// node's replies outside its own lock, so taking a node lock under a
/// runtime lock is the self-deadlock the order rules out.
#[test]
fn runtime_rank_sits_above_node_locks() {
    assert!(Rank::Node < Rank::Transport && Rank::Transport < Rank::Runtime);
    let (runtime, pending) = (Mutex::new(Rank::Runtime, ()), Mutex::new(Rank::Node, ()));
    {
        let _pending = pending.lock();
        let _runtime = runtime.lock();
    }
    let _runtime = runtime.lock();
    let message = panic_of(|| drop(pending.lock()));
    assert!(
        message.contains("taking the Node lock")
            && message.contains("while holding the Runtime lock"),
        "{message}"
    );
}
