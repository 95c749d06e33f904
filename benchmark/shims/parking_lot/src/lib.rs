//! std-only stand-in for the `parking_lot` subset the SyD workspace uses:
//! [`Mutex`], [`RwLock`] and [`Condvar`] over `std::sync`, without
//! poisoning (a panic while a lock is held leaves it usable, as in the
//! real crate).
//!
//! Absolute timings on these primitives are std's (futex-backed on
//! Linux), not parking_lot's.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion without poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard of a [`Mutex`].
///
/// The std guard sits in an `Option` so that [`Condvar`] can hand it to
/// `std::sync::Condvar::wait` (which takes the guard by value) through
/// the `&mut MutexGuard` the parking_lot API passes; it is `Some` outside
/// those calls.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    fn std(&self) -> &sync::MutexGuard<'a, T> {
        self.0
            .as_ref()
            .expect("guard is present outside Condvar waits")
    }

    fn std_mut(&mut self) -> &mut sync::MutexGuard<'a, T> {
        self.0
            .as_mut()
            .expect("guard is present outside Condvar waits")
    }

    fn take(&mut self) -> sync::MutexGuard<'a, T> {
        self.0
            .take()
            .expect("guard is present outside Condvar waits")
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std()
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std_mut()
    }
}

/// Whether a timed wait ended by timing out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Releases the lock, blocks until notified, and re-acquires it.
    /// Spurious wake-ups are possible, as in the real crate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.take();
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] bounded by `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.take();
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// [`Condvar::wait`] bounded by a deadline.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// Reader-writer lock without poisoning.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

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
    fn try_lock_fails_only_while_held() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
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
                p2.1.wait(&mut g);
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
    fn timed_waits_report_timeouts_and_keep_the_guard_usable() {
        let m = Mutex::new(5);
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        *g += 1;
        let past = Instant::now() - Duration::from_millis(1);
        assert!(cv.wait_until(&mut g, past).timed_out());
        assert_eq!(*g, 6);
    }

    #[test]
    fn rwlock_admits_many_readers() {
        let rw = RwLock::new(7);
        let (a, b) = (rw.read(), rw.read());
        assert_eq!(*a + *b, 14);
    }
}
