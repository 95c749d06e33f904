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
//!
//! **Waits are announced.** A thread may carry a [`BlockingHook`]
//! ([`set_blocking_hook`]); the runtime's pool workers do. Every
//! [`Condvar`] wait, and any other wait wrapped in [`blocking`], tells the
//! hook before it parks and after it wakes, so the pool can hand the
//! waiting worker's turn to another job meanwhile. A thread without a
//! hook waits exactly as `std` does.

use std::cell::Cell;
use std::sync::{self, Arc, LockResult, PoisonError, TryLockError};
use std::sync::{RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult};
use std::time::Duration;

pub use std::sync::MutexGuard;

/// What a thread is told around each announced wait (see [`blocking`]).
pub trait BlockingHook: Send + Sync {
    /// The thread is about to wait.
    fn enter(&self);
    /// The wait is over; the thread runs again.
    fn leave(&self);
}

thread_local! {
    static HOOK: Cell<Option<Arc<dyn BlockingHook>>> = const { Cell::new(None) };
}

/// Installs `hook` as the calling thread's blocking hook, replacing any
/// other; `None` removes it.
pub fn set_blocking_hook(hook: Option<Arc<dyn BlockingHook>>) {
    HOOK.with(|slot| slot.set(hook));
}

/// Runs `wait`, a call that may block, announced to the thread's
/// [`BlockingHook`] if it has one. Waits nested inside `wait` are not
/// announced again.
pub fn blocking<R>(wait: impl FnOnce() -> R) -> R {
    /// Tells the hook the wait is over and puts it back, on unwind too.
    struct Announced(Option<Arc<dyn BlockingHook>>);
    impl Drop for Announced {
        fn drop(&mut self) {
            if let Some(hook) = self.0.take() {
                hook.leave();
                HOOK.with(|slot| slot.set(Some(hook)));
            }
        }
    }
    let hook = HOOK.with(Cell::take);
    if let Some(hook) = &hook {
        hook.enter();
    }
    let _announced = Announced(hook);
    wait()
}

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

    /// The lock if nobody holds it, without waiting.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
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
    /// Spurious wake-ups are possible: re-check the condition. The wait
    /// is announced ([`blocking`]).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        blocking(|| ignore_poison(self.0.wait(guard)))
    }

    /// [`Condvar::wait`] bounded by `timeout`; the second value says
    /// whether the timeout elapsed.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        blocking(|| ignore_poison(self.0.wait_timeout(guard, timeout)))
    }
}
