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
//! A key's state is one [`Entry`], §4.3's participant with its lease; the
//! kernel runs it through [`LockManager`], by the store's [`LockRights`],
//! and the model checker on its own state. A `Txn` row lock is an entry with no
//! lease end (DESIGN.md §23).

use std::collections::BTreeMap;
use std::time::Duration;

use syd_types::sync::{Condvar, Mutex, Rank};
use syd_types::time::wall;
use syd_types::{Clock, SydError, SydResult, Text, Timestamp, Value};

use crate::key::Key;
use crate::store::Store;

/// Identifies a lockable entity: a row (or slot) of a table.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct LockKey {
    /// Table name.
    pub table: Text,
    /// Key values (usually the primary key).
    pub key: Key,
}

impl LockKey {
    /// Builds a lock key from a table name and key values.
    pub fn new(table: impl Into<Text>, key: impl IntoIterator<Item = Value>) -> Self {
        LockKey {
            table: table.into(),
            key: Key::of(key),
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

/// An instant past every lease end: [`Entry::lapse`] at it ends any lease.
pub const PAST_EVERY_LEASE: Timestamp = Timestamp::from_micros(u64::MAX);

/// One key's lock, and §4.3's participant: pure transitions over plain
/// data that allocate nothing. Each returns its outcome and the session
/// whose lease it ended first, if any.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Entry {
    /// The holder and the instant its lease ends (`None`: a row lock, or a
    /// commit being applied; held until released).
    pub held: Option<(u64, Option<Timestamp>)>,
    /// The last session whose lease ended on this key.
    pub lapsed: Option<u64>,
}

/// What a mark found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Taken {
    /// Another owner holds the key; nothing changed.
    Busy,
    /// The key was free and is now the marker's.
    Fresh,
    /// The marker held the key already; its lease starts again.
    Again,
}

impl Entry {
    /// The owner currently holding the key, if any.
    pub fn holder(&self) -> Option<u64> {
        self.held.map(|(owner, _)| owner)
    }

    /// Ends a lease that ran out by `now` and returns its holder.
    pub fn lapse(&mut self, now: Timestamp) -> Option<u64> {
        let (owner, _) = self
            .held
            .take_if(|(_, until)| until.is_some_and(|t| t <= now))?;
        self.lapsed = Some(owner);
        Some(owner)
    }

    /// §4.3's Mark X and Lock X by `session` on a lease of `lease` (`None`:
    /// a row lock). A re-mark renews the lease but keeps a pinned lock.
    pub fn mark(&mut self, now: Timestamp, session: u64, lease: Option<Duration>) -> Lapsed<Taken> {
        let lapsed = self.lapse(now);
        let until = lease.map(|length| now.after(length));
        let (taken, until) = match self.held {
            Some((holder, _)) if holder != session => return (Taken::Busy, lapsed),
            Some((_, pinned)) => (Taken::Again, pinned.and(until)),
            None => (Taken::Fresh, until),
        };
        self.held = Some((session, until));
        (taken, lapsed)
    }

    /// Whether `session`'s commit may apply: while it holds its lease, then
    /// pinned until its release so that it cannot lapse mid-commit, and
    /// when sent again after its own; not once its lease lapsed here.
    pub fn commit(&mut self, now: Timestamp, session: u64) -> Lapsed<bool> {
        let lapsed = self.lapse(now);
        let admitted = match &mut self.held {
            Some((holder, until)) if *holder == session => {
                *until = None;
                true
            }
            _ => self.lapsed != Some(session),
        };
        (admitted, lapsed)
    }

    /// §4.3's Unlock X, after an abort or an applied commit. Returns
    /// whether `session` held the key.
    pub fn abort(&mut self, session: u64) -> bool {
        self.held
            .take_if(|(holder, _)| *holder == session)
            .is_some()
    }
}

/// A transition's outcome, and the session whose lease it ended first.
pub type Lapsed<T> = (T, Option<u64>);

/// Exclusive entity locks with bounded waits: one [`Entry`] per key.
pub struct LockManager {
    /// Held keys, and keys that remember a lapsed lease.
    state: Mutex<BTreeMap<LockKey, Entry>>,
    released: Condvar,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager {
            state: Mutex::new(Rank::Store, BTreeMap::new()),
            released: Condvar::new(),
        }
    }
}

/// The right to change a store's entity locks: §4.3's mark, commit and
/// unlock, and ending leases. Only [`Store::new_owned`]'s caller gets
/// one — on a device, the kernel's handlers. A transaction ([`crate::Txn`])
/// takes and frees its row locks without it, and anyone may read the lock
/// table ([`Store::locks`]). It cannot be made any other way:
///
/// ```compile_fail
/// let store = syd_store::Store::new();
/// let rights = syd_store::LockRights(store.clone());
/// ```
pub struct LockRights(pub(crate) Store);

impl LockRights {
    /// [`Entry::mark`] on a lease of a length on a clock (`None`: a row
    /// lock), reading the clock at every look while it waits up to `wait`
    /// on that same clock. `lapsed` hears of an ended lease under the
    /// table's mutex.
    pub fn mark(
        &self,
        owner: u64,
        key: &LockKey,
        wait: Duration,
        lease: Option<(&dyn Clock, Duration)>,
        lapsed: impl FnMut(u64),
    ) -> Taken {
        self.0.locks().mark(owner, key, wait, lease, lapsed)
    }

    /// Whether [`Entry::commit`] admits `owner`'s commit at `now`;
    /// `lapsed` as in [`LockRights::mark`].
    pub fn commit(
        &self,
        owner: u64,
        key: &LockKey,
        now: Timestamp,
        lapsed: impl FnOnce(u64),
    ) -> bool {
        self.0.locks().commit(owner, key, now, lapsed)
    }

    /// Releases `key` if `owner` holds it ([`Entry::abort`]; a double
    /// release is harmless).
    pub fn release(&self, owner: u64, key: &LockKey) {
        self.0.locks().release(owner, key);
    }

    /// Ends every held lease as if it had run out, telling `lapsed` whose
    /// lease ended on which key. Returns how many ended.
    pub fn end_leases(&self, lapsed: impl FnMut(u64, &LockKey)) -> usize {
        self.0.locks().end_leases(lapsed)
    }
}

impl LockManager {
    /// Attempts to take `key` for `owner` without waiting.
    #[cfg(test)]
    pub(crate) fn try_acquire(&self, owner: u64, key: &LockKey) -> bool {
        self.acquire(owner, key, Duration::ZERO).is_ok()
    }

    /// Takes `key` for `owner` as a row lock, waiting up to `timeout` for
    /// the current holder to release. Fails with [`SydError::LockTimeout`].
    pub(crate) fn acquire(&self, owner: u64, key: &LockKey, timeout: Duration) -> SydResult<()> {
        if self.mark(owner, key, timeout, None, |_| {}) == Taken::Busy {
            return Err(SydError::LockTimeout(key.to_string()));
        }
        Ok(())
    }

    /// [`LockRights::mark`].
    pub(crate) fn mark(
        &self,
        owner: u64,
        key: &LockKey,
        wait: Duration,
        lease: Option<(&dyn Clock, Duration)>,
        mut lapsed: impl FnMut(u64),
    ) -> Taken {
        // A row lock ends no lease: it looks at the entry at the epoch,
        // and waits on the wall clock. A lease's wait reads the lease's
        // clock, so the two race in one time base.
        let now = || lease.map_or(Timestamp::default(), |(clock, _)| clock.now());
        let mark = |entry: &mut Entry| entry.mark(now(), owner, lease.map(|(_, length)| length));
        let clock = lease.map_or(&**wall(), |(clock, _)| clock);
        let deadline = clock.instant() + wait;
        let mut state = self.state.lock();
        loop {
            let (taken, ended) = match state.get_mut(key) {
                Some(entry) => mark(entry),
                None => {
                    let mut entry = Entry::default();
                    let step = mark(&mut entry);
                    state.insert(key.clone(), entry);
                    step
                }
            };
            if let Some(session) = ended {
                lapsed(session);
            }
            if taken != Taken::Busy || clock.instant() >= deadline {
                return taken;
            }
            (state, _) = self.released.wait_until(state, clock, deadline);
        }
    }

    /// [`LockRights::commit`].
    pub(crate) fn commit(
        &self,
        owner: u64,
        key: &LockKey,
        now: Timestamp,
        lapsed: impl FnOnce(u64),
    ) -> bool {
        let mut state = self.state.lock();
        let (admitted, ended) = state
            .get_mut(key)
            .map_or((true, None), |entry| entry.commit(now, owner));
        if let Some(session) = ended {
            lapsed(session);
        }
        admitted
    }

    /// [`LockRights::release`].
    pub(crate) fn release(&self, owner: u64, key: &LockKey) {
        let mut state = self.state.lock();
        if !state.get_mut(key).is_some_and(|entry| entry.abort(owner)) {
            return;
        }
        if state.get(key) == Some(&Entry::default()) {
            state.remove(key);
        }
        drop(state);
        self.released.notify_all();
    }

    /// Releases everything held by `owner` (transaction end).
    pub(crate) fn release_all(&self, owner: u64) {
        let mut state = self.state.lock();
        let mut released = false;
        state.retain(|_, entry| {
            released |= entry.abort(owner);
            *entry != Entry::default()
        });
        drop(state);
        if released {
            self.released.notify_all();
        }
    }

    /// [`LockRights::end_leases`].
    pub(crate) fn end_leases(&self, mut lapsed: impl FnMut(u64, &LockKey)) -> usize {
        let mut state = self.state.lock();
        let mut ended = 0;
        for (key, entry) in state.iter_mut() {
            if let Some(session) = entry.lapse(PAST_EVERY_LEASE) {
                lapsed(session, key);
                ended += 1;
            }
        }
        drop(state);
        self.released.notify_all();
        ended
    }

    /// The owner currently holding `key`, if any.
    pub fn holder(&self, key: &LockKey) -> Option<u64> {
        self.state.lock().get(key).and_then(Entry::holder)
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
            .filter_map(|(key, entry)| Some((entry.holder()?, key.clone())))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::sync::Arc;
    use syd_types::SimClock;

    const LEASE: Duration = Duration::from_millis(50);

    fn key(n: i64) -> LockKey {
        LockKey::new("slots", [Value::I64(n)])
    }

    fn at(ms: u64) -> Timestamp {
        Timestamp::from_micros(ms * 1000)
    }

    /// A mark on a 50 ms lease, and whose lease it ended.
    fn mark(lm: &LockManager, clock: &SimClock, owner: u64, n: i64) -> (Taken, Option<u64>) {
        let mut ended = None;
        let taken = lm.mark(owner, &key(n), Duration::ZERO, Some((clock, LEASE)), |s| {
            ended = Some(s);
        });
        (taken, ended)
    }

    /// Whether a commit now is admitted, and whose lease it ended.
    fn commit(lm: &LockManager, clock: &SimClock, owner: u64, n: i64) -> (bool, Option<u64>) {
        let mut ended = None;
        let admitted = lm.commit(owner, &key(n), clock.now(), |s| ended = Some(s));
        (admitted, ended)
    }

    #[test]
    fn entry_mark_takes_a_free_key_and_turns_others_away() {
        let mut entry = Entry::default();
        assert_eq!(entry.mark(at(0), 1, Some(LEASE)), (Taken::Fresh, None));
        assert_eq!(entry.mark(at(10), 2, Some(LEASE)), (Taken::Busy, None));
        assert_eq!(entry.held, Some((1, Some(at(50)))));
        assert_eq!(entry.mark(at(10), 1, Some(LEASE)), (Taken::Again, None));
        assert_eq!(
            entry.held,
            Some((1, Some(at(60)))),
            "the lease starts again"
        );
        assert!(!entry.abort(2));
        assert!(entry.abort(1));
        assert!(!entry.abort(1), "a second release is a no-op");
        assert_eq!(entry, Entry::default());
    }

    #[test]
    fn entry_lapse_ends_only_a_run_out_lease() {
        let mut entry = Entry::default();
        entry.mark(at(0), 1, Some(LEASE));
        assert_eq!(entry.lapse(at(49)), None);
        assert_eq!(entry.lapse(at(50)), Some(1));
        assert_eq!(
            entry,
            Entry {
                held: None,
                lapsed: Some(1)
            }
        );
        assert_eq!(entry.lapse(PAST_EVERY_LEASE), None);

        let mut row = Entry::default();
        row.mark(at(0), 7, None);
        assert_eq!(row.lapse(PAST_EVERY_LEASE), None, "a row lock has no lease");
        assert_eq!(row.holder(), Some(7));
    }

    #[test]
    fn entry_commit_refuses_only_a_lapsed_session() {
        let mut entry = Entry::default();
        entry.mark(at(0), 1, Some(LEASE));
        // The next mark past the lease ends it and takes the key over.
        assert_eq!(entry.mark(at(60), 2, Some(LEASE)), (Taken::Fresh, Some(1)));
        assert_eq!(entry.commit(at(61), 1), (false, None));
        assert_eq!(entry.commit(at(61), 3), (true, None), "a commit sent again");
        // A commit past its own lease end ends it and is refused.
        assert_eq!(entry.commit(at(200), 2), (false, Some(2)));
        assert_eq!(entry.holder(), None);
    }

    /// An admitted commit pins its entry: it cannot lapse while the change
    /// is applied, and its release frees the key.
    #[test]
    fn entry_an_admitted_commit_cannot_lapse() {
        let mut entry = Entry::default();
        entry.mark(at(0), 1, Some(LEASE));
        assert_eq!(entry.commit(at(49), 1), (true, None));
        assert_eq!(entry.held, Some((1, None)));
        assert_eq!(entry.lapse(PAST_EVERY_LEASE), None);
        assert_eq!(entry.mark(at(100), 2, Some(LEASE)), (Taken::Busy, None));
        assert_eq!(entry.mark(at(100), 1, Some(LEASE)), (Taken::Again, None));
        assert_eq!(entry.held, Some((1, None)), "a re-mark keeps the pin");
        assert!(entry.abort(1));
        assert_eq!(entry.mark(at(100), 2, Some(LEASE)), (Taken::Fresh, None));
    }

    #[test]
    fn exclusive_between_owners() {
        let lm = LockManager::default();
        assert!(lm.try_acquire(1, &key(5)));
        assert!(!lm.try_acquire(2, &key(5)));
        assert_eq!(lm.holder(&key(5)), Some(1));
        lm.release(1, &key(5));
        assert!(lm.try_acquire(2, &key(5)));
    }

    #[test]
    fn acquire_times_out() {
        let lm = LockManager::default();
        lm.try_acquire(1, &key(7));
        let err = lm
            .acquire(2, &key(7), Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, SydError::LockTimeout(_)), "{err}");
        assert!(err.to_string().contains("slots"), "{err}");
    }

    #[test]
    fn acquire_succeeds_when_released_concurrently() {
        let lm = Arc::new(LockManager::default());
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
        let lm = LockManager::default();
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
        let lm = LockManager::default();
        lm.try_acquire(1, &key(3));
        lm.release(2, &key(3));
        assert_eq!(lm.holder(&key(3)), Some(1));
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let lm = LockManager::default();
        assert!(lm.try_acquire(1, &key(1)));
        assert!(lm.try_acquire(2, &key(2)));
        assert!(lm.try_acquire(3, &LockKey::new("other", [Value::I64(1)])));
    }

    #[test]
    fn contended_acquire_stress() {
        // 8 threads × 50 increments behind one lock: no lost updates.
        let lm = Arc::new(LockManager::default());
        let counter = Arc::new(Mutex::new(Rank::Leaf, 0u32));
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
        let lm = LockManager::default();
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
        let lm = LockManager::default();
        let clock = SimClock::new();
        assert_eq!(mark(&lm, &clock, 1, 5), (Taken::Fresh, None));
        assert_eq!(mark(&lm, &clock, 1, 5), (Taken::Again, None));
        assert!(lm.try_acquire(2, &key(6)));
        assert!(lm.try_acquire(2, &key(6)));
        lm.release(1, &key(5));
        lm.release(2, &key(6));
        assert_eq!(lm.held_count(), 0);
    }

    /// A lapsed lease blocks nobody: the next mark takes the key over and
    /// hears whose lease ended, and the old holder may no longer commit —
    /// not even after the new holder let go.
    #[test]
    fn a_lapsed_lease_is_taken_over() {
        let lm = LockManager::default();
        let clock = SimClock::new();
        assert_eq!(mark(&lm, &clock, 1, 5).0, Taken::Fresh);
        assert_eq!(mark(&lm, &clock, 1, 6).0, Taken::Fresh);
        clock.advance(Duration::from_millis(49));
        assert_eq!(mark(&lm, &clock, 2, 5), (Taken::Busy, None));
        // A live holder's commit is admitted (on a twin key: it pins).
        assert_eq!(commit(&lm, &clock, 1, 6), (true, None));
        lm.release(1, &key(6));

        clock.advance(Duration::from_millis(1));
        assert_eq!(mark(&lm, &clock, 2, 5), (Taken::Fresh, Some(1)));
        assert_eq!(lm.holder(&key(5)), Some(2));
        assert_eq!(commit(&lm, &clock, 1, 5), (false, None));
        lm.release(2, &key(5));
        assert_eq!(commit(&lm, &clock, 1, 5), (false, None));
        assert_eq!(commit(&lm, &clock, 3, 5), (true, None));
        assert_eq!(lm.held_count(), 0);
    }

    /// A re-mark starts its lease again; a lease that ran out with nobody
    /// waiting lapses when the commit looks at it.
    #[test]
    fn a_lease_lapses_when_next_touched() {
        let lm = LockManager::default();
        let clock = SimClock::new();
        mark(&lm, &clock, 1, 5);
        clock.advance(Duration::from_millis(40));
        assert_eq!(mark(&lm, &clock, 1, 5).0, Taken::Again);
        clock.advance(Duration::from_millis(40));
        // Without the renewal the lease ended at 50 ms and this took it.
        assert_eq!(
            mark(&lm, &clock, 2, 5),
            (Taken::Busy, None),
            "the re-mark renewed it"
        );

        clock.advance(Duration::from_millis(10));
        assert_eq!(lm.held_count(), 1, "nothing ends a lease but a touch");
        assert_eq!(commit(&lm, &clock, 1, 5), (false, Some(1)));
        assert_eq!(lm.held_count(), 0);
        // Its own re-mark takes the key afresh, and it may commit again.
        assert_eq!(mark(&lm, &clock, 1, 5).0, Taken::Fresh);
        assert_eq!(commit(&lm, &clock, 1, 5), (true, None));
    }

    /// A commit being applied cannot lapse: once admitted, its lock holds
    /// past the lease end until its release, and nobody takes it over.
    #[test]
    fn a_commit_being_applied_cannot_lapse() {
        let lm = LockManager::default();
        let clock = SimClock::new();
        mark(&lm, &clock, 1, 5);
        assert_eq!(commit(&lm, &clock, 1, 5), (true, None));
        clock.advance(LEASE * 3);
        assert_eq!(mark(&lm, &clock, 2, 5), (Taken::Busy, None));
        assert_eq!(lm.end_leases(|_, _| {}), 0);
        assert_eq!(lm.holder(&key(5)), Some(1));
        lm.release(1, &key(5));
        assert_eq!(mark(&lm, &clock, 2, 5), (Taken::Fresh, None));
    }

    /// Ending every lease is a lapse of each held one; row locks stay.
    #[test]
    fn end_leases_lapses_every_lease_and_no_row_lock() {
        let lm = LockManager::default();
        let clock = SimClock::new();
        mark(&lm, &clock, 1, 1);
        mark(&lm, &clock, 2, 2);
        assert!(lm.try_acquire(3, &key(3)));
        let mut lapses = Vec::new();
        assert_eq!(lm.end_leases(|s, k| lapses.push((s, k.clone()))), 2);
        assert_eq!(lapses, vec![(1, key(1)), (2, key(2))]);
        assert_eq!(lm.held(), vec![(3, key(3))]);
        assert!(!commit(&lm, &clock, 1, 1).0);
        assert_eq!(lm.end_leases(|_, _| {}), 0);
    }

    #[test]
    fn display_formats_key() {
        let k = LockKey::new("slots", [Value::I64(3), Value::str("x")]);
        assert_eq!(k.to_string(), "slots[3, \"x\"]");
    }
}
