//! Logical row locks with bounded waits; §4.3's entity locks are leases.
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
//! (a transaction id or a negotiation session id). Taking a lock its owner
//! already holds succeeds without deepening it: one release frees it.
//!
//! A `Txn` row lock lasts until released; a §4.3 entity lock is a
//! [`Lease`], checked wherever the lock is touched (DESIGN.md §23).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_types::sync::{Condvar, Mutex};
use syd_types::{Clock, SydError, SydResult, Text, Timestamp, Value};

use crate::key::OrdValue;

/// Identifies a lockable entity: a row (or slot) of a table.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LockKey {
    /// Table name.
    pub table: Text,
    /// Key values (usually the primary key).
    pub key: Vec<OrdValue>,
}

impl LockKey {
    /// Builds a lock key from a table name and key values.
    pub fn new(table: impl Into<Text>, key: impl IntoIterator<Item = Value>) -> Self {
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

/// The terms of a §4.3 entity lock.
pub struct Lease {
    /// The deployment clock the lease runs on.
    pub clock: Arc<dyn Clock>,
    /// How long a lease lasts from the mark that takes it.
    pub length: Duration,
    /// Told whose lease on which key ended. It runs under the table's
    /// mutex, so what it journals comes before the next holder's records.
    pub lapsed: Lapsed,
}

type Lapsed = Box<dyn Fn(u64, &LockKey) + Send + Sync>;

#[derive(Debug)]
struct LockEntry {
    /// The holder, and the instant its lease ends (`None`: a row lock,
    /// held until released).
    held: Option<(u64, Option<Timestamp>)>,
    /// The last session whose lease ended on this key.
    lapsed: Option<u64>,
}

impl LockEntry {
    fn owner(&self) -> Option<u64> {
        self.held.map(|(owner, _)| owner)
    }

    /// Ends the holder's lease on `key` if it ran out by `now`: remembers
    /// the holder and tells `lease`. Returns whether it ended.
    fn lapse(&mut self, key: &LockKey, now: Timestamp, lease: &Lease) -> bool {
        match self.held {
            Some((owner, Some(until))) if until <= now => {
                self.held = None;
                self.lapsed = Some(owner);
                (lease.lapsed)(owner, key);
                true
            }
            _ => false,
        }
    }
}

/// Exclusive entity locks with bounded waits.
#[derive(Default)]
pub struct LockManager {
    /// Held keys, and keys that remember a lapsed lease.
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
        self.acquire(owner, key, Duration::ZERO).is_ok()
    }

    /// Takes `key` for `owner` as a row lock, waiting up to `timeout` for
    /// the current holder to release. Fails with [`SydError::LockTimeout`].
    pub fn acquire(&self, owner: u64, key: &LockKey, timeout: Duration) -> SydResult<()> {
        self.take(owner, key, timeout, None).map(drop)
    }

    /// Takes `key` for `owner`, under `lease` if given, waiting up to
    /// `wait` for a live holder (a lapsed one is ended). Returns whether it
    /// is newly taken: `false` if `owner` held it (its lease starts again).
    pub fn take(
        &self,
        owner: u64,
        key: &LockKey,
        wait: Duration,
        lease: Option<&Lease>,
    ) -> SydResult<bool> {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock();
        loop {
            let terms = lease.map(|lease| (lease, lease.clock.now()));
            let held = Some((owner, terms.map(|(lease, now)| now.after(lease.length))));
            let Some(entry) = state.get_mut(key) else {
                state.insert(key.clone(), LockEntry { held, lapsed: None });
                return Ok(true);
            };
            if let Some((lease, now)) = terms {
                entry.lapse(key, now, lease);
            }
            if entry.owner().is_none_or(|holder| holder == owner) {
                let fresh = entry.held.is_none();
                entry.held = held;
                return Ok(fresh);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SydError::LockTimeout(key.to_string()));
            }
            (state, _) = self.released.wait_timeout(state, deadline - now);
        }
    }

    /// Whether `owner` may apply its change to `key`: yes while it holds a
    /// live lease there, no once its lease lapsed there (ending a lapsed
    /// holder first), and yes to a commit sent again after its own.
    pub fn admits(&self, owner: u64, key: &LockKey, lease: &Lease) -> bool {
        let mut state = self.state.lock();
        let Some(entry) = state.get_mut(key) else {
            return true;
        };
        entry.lapse(key, lease.clock.now(), lease);
        entry.owner() == Some(owner) || entry.lapsed != Some(owner)
    }

    /// Releases `key` if `owner` holds it (a double release is harmless).
    pub fn release(&self, owner: u64, key: &LockKey) {
        let mut state = self.state.lock();
        match state.get_mut(key) {
            Some(entry) if entry.owner() == Some(owner) && entry.lapsed.is_some() => {
                entry.held = None;
            }
            Some(entry) if entry.owner() == Some(owner) => drop(state.remove(key)),
            _ => return,
        }
        drop(state);
        self.released.notify_all();
    }

    /// Releases everything held by `owner` (transaction end).
    pub fn release_all(&self, owner: u64) {
        let mut state = self.state.lock();
        let mut released = false;
        state.retain(|_, entry| {
            if entry.owner() == Some(owner) {
                entry.held = None;
                released = true;
            }
            entry.held.is_some() || entry.lapsed.is_some()
        });
        drop(state);
        if released {
            self.released.notify_all();
        }
    }

    /// Ends every held lease as if it had run out, telling `lease` of
    /// each. Returns how many ended.
    pub fn end_leases(&self, lease: &Lease) -> usize {
        let mut state = self.state.lock();
        let end = Timestamp::from_micros(u64::MAX);
        let ended = state
            .iter_mut()
            .map(|(key, entry)| entry.lapse(key, end, lease))
            .filter(|&ended| ended)
            .count();
        drop(state);
        self.released.notify_all();
        ended
    }

    /// The owner currently holding `key`, if any.
    pub fn holder(&self, key: &LockKey) -> Option<u64> {
        self.state.lock().get(key).and_then(LockEntry::owner)
    }

    /// Number of held locks, lapsed leases that nothing ended included.
    pub fn held_count(&self) -> usize {
        self.state
            .lock()
            .values()
            .filter(|entry| entry.held.is_some())
            .count()
    }

    /// Snapshot of every held lock as `(owner, key)` pairs, ordered by
    /// key. Used by the invariant checker's lock-leak detector.
    pub fn held(&self) -> Vec<(u64, LockKey)> {
        self.state
            .lock()
            .iter()
            .filter_map(|(key, entry)| Some((entry.owner()?, key.clone())))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_types::SimClock;

    fn key(n: i64) -> LockKey {
        LockKey::new("slots", [Value::I64(n)])
    }

    type Lapses = Arc<Mutex<Vec<(u64, LockKey)>>>;

    /// 50 ms leases on `clock`, and the lapses they report.
    fn terms(clock: &SimClock) -> (Lease, Lapses) {
        let lapses = Lapses::default();
        let log = Arc::clone(&lapses);
        let lease = Lease {
            clock: Arc::new(clock.clone()),
            length: Duration::from_millis(50),
            lapsed: Box::new(move |session, key| log.lock().push((session, key.clone()))),
        };
        (lease, lapses)
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
        assert_eq!(lm.held(), vec![(1, key(1)), (1, key(2)), (2, key(3))]);
        lm.release_all(1);
        assert_eq!(lm.held(), vec![(2, key(3))]);
        assert_eq!(lm.holder(&key(1)), None);
    }

    /// Taking a lock its owner holds succeeds and does not deepen it: one
    /// release frees it, however often it was taken.
    #[test]
    fn reacquiring_a_held_lock_is_idempotent() {
        let lm = LockManager::new();
        let (lease, lapses) = terms(&SimClock::new());
        assert!(lm.take(1, &key(5), Duration::ZERO, Some(&lease)).unwrap());
        assert!(!lm.take(1, &key(5), Duration::ZERO, Some(&lease)).unwrap());
        assert!(lm.try_acquire(2, &key(6)));
        assert!(lm.try_acquire(2, &key(6)));
        lm.release(1, &key(5));
        lm.release(2, &key(6));
        assert_eq!(lm.held_count(), 0);
        assert!(lapses.lock().is_empty());
    }

    /// A lapsed lease blocks nobody: the next mark takes the key over and
    /// hears whose lease ended, and the old holder may no longer commit —
    /// not even after the new holder let go.
    #[test]
    fn a_lapsed_lease_is_taken_over() {
        let lm = LockManager::new();
        let clock = SimClock::new();
        let (lease, lapses) = terms(&clock);
        assert!(lm.take(1, &key(5), Duration::ZERO, Some(&lease)).unwrap());
        clock.advance(Duration::from_millis(49));
        assert!(lm.take(2, &key(5), Duration::ZERO, Some(&lease)).is_err());
        assert!(lm.admits(1, &key(5), &lease));

        clock.advance(Duration::from_millis(1));
        assert!(lm.take(2, &key(5), Duration::ZERO, Some(&lease)).unwrap());
        assert_eq!(*lapses.lock(), vec![(1, key(5))]);
        assert_eq!(lm.holder(&key(5)), Some(2));
        assert!(!lm.admits(1, &key(5), &lease));
        assert!(lm.admits(2, &key(5), &lease));
        lm.release(2, &key(5));
        assert!(!lm.admits(1, &key(5), &lease));
        assert!(lm.admits(3, &key(5), &lease));
        assert_eq!(lm.held_count(), 0);
    }

    /// A re-mark starts its lease again; a lease that ran out with nobody
    /// waiting lapses when the commit looks at it.
    #[test]
    fn a_lease_lapses_when_next_touched() {
        let lm = LockManager::new();
        let clock = SimClock::new();
        let (lease, lapses) = terms(&clock);
        lm.take(1, &key(5), Duration::ZERO, Some(&lease)).unwrap();
        clock.advance(Duration::from_millis(40));
        assert!(!lm.take(1, &key(5), Duration::ZERO, Some(&lease)).unwrap());
        clock.advance(Duration::from_millis(40));
        assert!(lm.admits(1, &key(5), &lease), "the re-mark renewed it");

        clock.advance(Duration::from_millis(10));
        assert_eq!(lm.held_count(), 1, "nothing ends a lease but a touch");
        assert!(!lm.admits(1, &key(5), &lease));
        assert_eq!(*lapses.lock(), vec![(1, key(5))]);
        assert_eq!(lm.held_count(), 0);
        // Its own re-mark takes the key afresh, and it may commit again.
        assert!(lm.take(1, &key(5), Duration::ZERO, Some(&lease)).unwrap());
        assert!(lm.admits(1, &key(5), &lease));
    }

    /// Ending every lease is a lapse of each held one; row locks stay.
    #[test]
    fn end_leases_lapses_every_lease_and_no_row_lock() {
        let lm = LockManager::new();
        let (lease, lapses) = terms(&SimClock::new());
        lm.take(1, &key(1), Duration::ZERO, Some(&lease)).unwrap();
        lm.take(2, &key(2), Duration::ZERO, Some(&lease)).unwrap();
        assert!(lm.try_acquire(3, &key(3)));
        assert_eq!(lm.end_leases(&lease), 2);
        assert_eq!(*lapses.lock(), vec![(1, key(1)), (2, key(2))]);
        assert_eq!(lm.held(), vec![(3, key(3))]);
        assert!(!lm.admits(1, &key(1), &lease));
        assert_eq!(lm.end_leases(&lease), 0);
    }

    #[test]
    fn display_formats_key() {
        let k = LockKey::new("slots", [Value::I64(3), Value::str("x")]);
        assert_eq!(k.to_string(), "slots[3, \"x\"]");
    }
}
