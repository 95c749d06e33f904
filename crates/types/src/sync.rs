//! Poison-free locks over `std::sync`.
//!
//! A SyD device keeps serving after one of its handlers panics, so a
//! panic while a lock is held must leave the lock usable: every update
//! made under these locks leaves the data valid at each step, and the
//! panicking operation is reported to its caller as a failed request.
//! [`Mutex`], [`RwLock`] and [`Condvar`] are `std`'s, with the poison
//! flag ignored in one place (`ignore_poison`); the guards are the
//! `std` guards, and a wait takes and returns the guard by value as
//! `std`'s does.

use std::sync::{self, LockResult, PoisonError};
use std::sync::{RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult};
use std::time::Duration;

pub use std::sync::MutexGuard;

/// The guard (or guard pair) of a lock operation, whether or not a
/// previous holder panicked.
fn ignore_poison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Mutual exclusion that a panicking holder does not wedge.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held. Not reentrant: locking again on
    /// the same thread deadlocks or panics.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        ignore_poison(self.0.lock())
    }
}

/// Reader-writer lock that a panicking holder does not wedge.
#[derive(Debug, Default)]
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
        ignore_poison(self.0.read())
    }

    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        ignore_poison(self.0.write())
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
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
    /// Spurious wake-ups are possible: re-check the condition.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        ignore_poison(self.0.wait(guard))
    }

    /// [`Condvar::wait`] bounded by `timeout`; the second value says
    /// whether the timeout elapsed.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        ignore_poison(self.0.wait_timeout(guard, timeout))
    }
}
