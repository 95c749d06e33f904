//! Logical row locks with bounded waits.
//!
//! §4.3 writes every negotiation in terms of `Mark X for change and Lock X`.
//! These are *logical* entity locks — held across multiple statements and
//! multiple network round-trips — not the store's internal latches. A
//! participant that cannot obtain a lock within the bounded wait votes
//! **no** and the coordinator aborts, so distributed negotiations time out
//! instead of deadlocking (deadlock avoidance by timeout, the same policy
//! the prototype inherited from Oracle's lock waits).
//!
//! Locks are keyed by `(table, key-values)` and owned by an opaque `u64`
//! (a transaction id or a negotiation session id). Acquisition is
//! re-entrant for the same owner.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use syd_types::sync::{Condvar, Mutex};
use syd_types::{SydError, SydResult, Value};

use crate::key::OrdValue;

/// Identifies a lockable entity: a row (or slot) of a table.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LockKey {
    /// Table name.
    pub table: String,
    /// Key values (usually the primary key).
    pub key: Vec<OrdValue>,
}

impl LockKey {
    /// Builds a lock key from a table name and key values.
    pub fn new(table: impl Into<String>, key: impl IntoIterator<Item = Value>) -> Self {
        LockKey {
            table: table.into(),
            key: key.into_iter().map(OrdValue).collect(),
        }
    }
}

impl std::fmt::Display for LockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[", self.table)?;
        for (i, k) in self.key.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}", k.value())?;
        }
        f.write_str("]")
    }
}

#[derive(Debug)]
struct LockEntry {
    owner: u64,
    depth: u32,
}

/// Exclusive, re-entrant entity locks with bounded waits.
#[derive(Default)]
pub struct LockManager {
    state: Mutex<BTreeMap<LockKey, LockEntry>>,
    released: Condvar,
}

impl LockManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to take `key` for `owner` without waiting.
    pub fn try_acquire(&self, owner: u64, key: &LockKey) -> bool {
        let mut state = self.state.lock();
        match state.get_mut(key) {
            None => {
                state.insert(key.clone(), LockEntry { owner, depth: 1 });
                true
            }
            Some(entry) if entry.owner == owner => {
                entry.depth += 1;
                true
            }
            Some(_) => false,
        }
    }

    /// Takes `key` for `owner`, waiting up to `timeout` for the current
    /// holder to release. Fails with [`SydError::LockTimeout`].
    pub fn acquire(&self, owner: u64, key: &LockKey, timeout: Duration) -> SydResult<()> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            match state.get_mut(key) {
                None => {
                    state.insert(key.clone(), LockEntry { owner, depth: 1 });
                    return Ok(());
                }
                Some(entry) if entry.owner == owner => {
                    entry.depth += 1;
                    return Ok(());
                }
                Some(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(SydError::LockTimeout(key.to_string()));
                    }
                    let wait;
                    (state, wait) = self.released.wait_timeout(state, deadline - now);
                    if wait.timed_out() {
                        // Re-check once after the timed-out wait: the lock
                        // may have been released exactly at the deadline.
                        if let Some(entry) = state.get_mut(key) {
                            if entry.owner != owner {
                                return Err(SydError::LockTimeout(key.to_string()));
                            }
                            entry.depth += 1;
                            return Ok(());
                        }
                        state.insert(key.clone(), LockEntry { owner, depth: 1 });
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Releases one hold on `key` by `owner`. A re-entrant lock fully
    /// releases only when every acquisition is matched.
    pub fn release(&self, owner: u64, key: &LockKey) {
        let mut state = self.state.lock();
        if let Some(entry) = state.get_mut(key) {
            if entry.owner != owner {
                return; // not ours — ignore, as double releases are harmless
            }
            entry.depth -= 1;
            if entry.depth == 0 {
                state.remove(key);
                drop(state);
                self.released.notify_all();
            }
        }
    }

    /// Releases everything held by `owner` (transaction end / negotiation
    /// abort).
    pub fn release_all(&self, owner: u64) {
        let mut state = self.state.lock();
        let before = state.len();
        state.retain(|_, entry| entry.owner != owner);
        let released = before != state.len();
        drop(state);
        if released {
            self.released.notify_all();
        }
    }

    /// The owner currently holding `key`, if any.
    pub fn holder(&self, key: &LockKey) -> Option<u64> {
        self.state.lock().get(key).map(|e| e.owner)
    }

    /// Number of currently held locks.
    pub fn held_count(&self) -> usize {
        self.state.lock().len()
    }

    /// Snapshot of every held lock as `(owner, key)` pairs, ordered by
    /// key. Used by the invariant checker's lock-leak detector and the
    /// stale-session sweep.
    pub fn held(&self) -> Vec<(u64, LockKey)> {
        self.state
            .lock()
            .iter()
            .map(|(key, entry)| (entry.owner, key.clone()))
            .collect()
    }

    /// Number of locks currently held by `owner`.
    pub fn held_by(&self, owner: u64) -> usize {
        self.state
            .lock()
            .values()
            .filter(|e| e.owner == owner)
            .count()
    }

    /// The keys currently held by `owner`, ordered.
    pub fn keys_held_by(&self, owner: u64) -> Vec<LockKey> {
        self.state
            .lock()
            .iter()
            .filter(|(_, e)| e.owner == owner)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(n: i64) -> LockKey {
        LockKey::new("slots", [Value::I64(n)])
    }

    #[test]
    fn exclusive_between_owners() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, &key(5)));
        assert!(!lm.try_acquire(2, &key(5)));
        assert_eq!(lm.holder(&key(5)), Some(1));
        lm.release(1, &key(5));
        assert!(lm.try_acquire(2, &key(5)));
    }

    #[test]
    fn reentrant_for_same_owner() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, &key(5)));
        assert!(lm.try_acquire(1, &key(5)));
        lm.release(1, &key(5));
        // Still held: one release left.
        assert!(!lm.try_acquire(2, &key(5)));
        lm.release(1, &key(5));
        assert!(lm.try_acquire(2, &key(5)));
    }

    #[test]
    fn acquire_times_out() {
        let lm = LockManager::new();
        lm.try_acquire(1, &key(7));
        let err = lm
            .acquire(2, &key(7), Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, SydError::LockTimeout(_)), "{err}");
        assert!(err.to_string().contains("slots"), "{err}");
    }

    #[test]
    fn acquire_succeeds_when_released_concurrently() {
        let lm = Arc::new(LockManager::new());
        lm.try_acquire(1, &key(9));
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || lm2.acquire(2, &key(9), Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(30));
        lm.release(1, &key(9));
        waiter.join().unwrap().unwrap();
        assert_eq!(lm.holder(&key(9)), Some(2));
    }

    #[test]
    fn release_all_frees_every_lock() {
        let lm = LockManager::new();
        for n in 0..10 {
            lm.try_acquire(1, &key(n));
        }
        lm.try_acquire(2, &key(100));
        assert_eq!(lm.held_count(), 11);
        lm.release_all(1);
        assert_eq!(lm.held_count(), 1);
        assert_eq!(lm.holder(&key(100)), Some(2));
    }

    #[test]
    fn release_by_non_owner_is_ignored() {
        let lm = LockManager::new();
        lm.try_acquire(1, &key(3));
        lm.release(2, &key(3));
        assert_eq!(lm.holder(&key(3)), Some(1));
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let lm = LockManager::new();
        assert!(lm.try_acquire(1, &key(1)));
        assert!(lm.try_acquire(2, &key(2)));
        assert!(lm.try_acquire(3, &LockKey::new("other", [Value::I64(1)])));
    }

    #[test]
    fn contended_acquire_stress() {
        // 8 threads × 50 increments behind one lock: no lost updates.
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for owner in 0..8u64 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    lm.acquire(owner + 1, &key(0), Duration::from_secs(5))
                        .unwrap();
                    let mut c = counter.lock();
                    *c += 1;
                    drop(c);
                    lm.release(owner + 1, &key(0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn held_snapshot_and_per_owner_views() {
        let lm = LockManager::new();
        lm.try_acquire(1, &key(1));
        lm.try_acquire(1, &key(2));
        lm.try_acquire(2, &key(3));
        assert_eq!(lm.held_by(1), 2);
        assert_eq!(lm.held_by(9), 0);
        assert_eq!(lm.keys_held_by(1), vec![key(1), key(2)]);
        let held = lm.held();
        assert_eq!(held.len(), 3);
        assert!(held.contains(&(2, key(3))));
        lm.release_all(1);
        assert!(lm.keys_held_by(1).is_empty());
        assert_eq!(lm.held_by(2), 1);
    }

    #[test]
    fn display_formats_key() {
        let k = LockKey::new("slots", [Value::I64(3), Value::str("x")]);
        assert_eq!(k.to_string(), "slots[3, \"x\"]");
    }
}
