//! Poison-free, ranked locks over `std::sync`, and the waits that go
//! with them.
//!
//! A SyD device keeps serving after one of its handlers panics, so a
//! panic while a lock is held must leave the lock usable: every update
//! made under these locks leaves the data valid at each step, and the
//! panicking operation is reported to its caller as a failed request.
//! [`Mutex`], [`RwLock`] and [`Condvar`] are `std`'s, with the poison
//! flag ignored in one place (`ignore_poison`); a wait takes and returns
//! the guard by value as `std`'s does.
//!
//! **Locks are ranked.** Every lock is built with its [`Rank`], and a
//! thread may take a lock only while every lock it holds ranks strictly
//! lower. Debug builds check this at each acquisition: every thread keeps
//! the ranks it holds, and taking a lock at or below one of them panics
//! with both locks named by where they were built. A strict order has no
//! cycle, so no two threads can wait on each other through these locks,
//! however long the call chain between the two acquisitions.
//! [`assert_unlocked`] checks that a thread holds none of them, before a
//! remote call and on the runtime's loop. Release builds carry neither
//! the ranks nor the checks.
//!
//! **Waits are announced.** A thread may carry a [`BlockingHook`]
//! ([`set_blocking_hook`]); the runtime's pool workers do, and so does
//! its loop, which must never wait. Every [`Condvar`] wait, and any other
//! wait wrapped in [`blocking`] — [`sleep`], [`join`],
//! [`connect_timeout`] — tells the hook before it parks and after it
//! wakes, so the pool can hand the waiting worker's turn to another job
//! meanwhile. A thread without a hook waits exactly as `std` does. The
//! one wait nobody is told of is [`Condvar::idle`]: a parked pool worker
//! and the idle loop, which hold no turn to hand on.

use std::cell::Cell;
use std::net::{SocketAddr, TcpStream};
use std::sync::{self, Arc, LockResult, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A lock's place in the one order in which a thread may take locks:
/// a lock may be taken only while every lock held ranks strictly lower.
/// From the outermost to the innermost:
///
/// | rank | locks |
/// |---|---|
/// | `Calendar` | a calendar's state: its busy bits (held across the `slots` write they mirror), its reconcile and rescheduling sets, the baseline's proposals and inbox |
/// | `Store` | the store's table map, trigger list and tables, and its entity lock table |
/// | `Engine` | the kernel above the store: the engine's address cache and options, the directory, the listener, the link module's promotion handler, the proxy, the device's handlers and services, the event bus, credentials, the fleet's positions |
/// | `Node` | a node's reply table, handler, event sink and identity |
/// | `Transport` | the sim's network state, a TCP endpoint's state, tap, notifier and writer |
/// | `Runtimes` | the map of shared runtimes, held while one is built |
/// | `Runtime` | the loop's state, its node table and thread handle |
/// | `Leaf` | a queue's state, a device's log (events and spans) and the log registry, a metrics registry |
/// | `Pool` | the worker pool's state: its blocking hook takes it in every announced wait, whatever the waiter holds |
///
/// A lock takes the rank of the layer that owns it; the order is the
/// layering, so a call goes down the table only through code that holds
/// nothing. Each rank's doc names why it sits where it does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rank {
    /// A calendar application's state. Its busy bits are held across the
    /// write of the `slots` row they mirror, so it sits above the store.
    Calendar,
    /// A store's table map, its trigger list, its tables and its entity
    /// lock table: a statement takes one at a time.
    Store,
    /// The kernel's state between the store and the network.
    Engine,
    /// A node's reply table and its handlers.
    Node,
    /// A transport backend's state: the sim tells the loop of a frame
    /// under its network lock.
    Transport,
    /// The map of shared runtimes, one per transport backend: held while
    /// a runtime is built, so that a backend never gets two.
    Runtimes,
    /// The runtime's loop: its drains and ticks run outside these locks.
    Runtime,
    /// Locks that take none while held: a queue, a device's log, a metrics
    /// registry.
    Leaf,
    /// The worker pool's state, taken by a worker's blocking hook while
    /// the waiter still holds the lock it waits on.
    Pool,
}

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
    let announced = Announced(HOOK.with(Cell::take));
    if let Some(hook) = &announced.0 {
        hook.enter();
    }
    wait()
}

/// [`std::thread::sleep`], announced.
#[allow(clippy::disallowed_methods)] // the announced wrapper
pub fn sleep(length: Duration) {
    blocking(|| std::thread::sleep(length));
}

/// [`JoinHandle::join`], announced; whether the thread ended without
/// panicking.
#[allow(clippy::disallowed_methods)] // the announced wrapper
pub fn join<T>(handle: JoinHandle<T>) -> bool {
    blocking(|| handle.join().is_ok())
}

/// [`TcpStream::connect_timeout`], announced.
#[allow(clippy::disallowed_methods)] // the announced wrapper
pub fn connect_timeout(to: &SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    blocking(|| TcpStream::connect_timeout(to, timeout))
}

/// Panics in debug builds if the calling thread holds any lock of this
/// module; `what` names what the thread is about to do. A remote call or
/// a dispatch re-enters handlers that take locks of any rank, so it is
/// made holding none.
#[cfg_attr(debug_assertions, track_caller)]
#[inline]
pub fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    held::assert_empty(what);
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// The guard (or guard pair) of a lock operation, whether or not a
/// previous holder panicked.
fn ignore_poison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A lock's rank and where it was built, in debug builds; nothing in
/// release builds.
#[derive(Debug)]
struct Class {
    #[cfg(debug_assertions)]
    rank: Rank,
    #[cfg(debug_assertions)]
    built: &'static std::panic::Location<'static>,
}

impl Class {
    #[cfg_attr(debug_assertions, track_caller)]
    const fn new(rank: Rank) -> Class {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Class {
            #[cfg(debug_assertions)]
            rank,
            #[cfg(debug_assertions)]
            built: std::panic::Location::caller(),
        }
    }

    /// Checks that the calling thread may take the lock at `lock` and
    /// records it as held.
    #[cfg_attr(debug_assertions, track_caller)]
    #[inline]
    fn enter(&self, lock: *const ()) -> Held {
        #[cfg(debug_assertions)]
        held::check(self.rank, self.built);
        self.took(lock)
    }

    /// Records the lock at `lock` as held, unchecked: a `try_lock` that
    /// took it never waited.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(clippy::unused_self))] // empty in release
    fn took(&self, lock: *const ()) -> Held {
        #[cfg(debug_assertions)]
        return held::push(self.rank, self.built, lock);
        #[cfg(not(debug_assertions))]
        {
            let _ = lock;
            Held
        }
    }
}

#[cfg(not(debug_assertions))]
struct Held;

#[cfg(debug_assertions)]
use held::Held;

/// The ranks each thread holds, in debug builds.
#[cfg(debug_assertions)]
mod held {
    use super::Rank;
    use std::cell::RefCell;
    use std::panic::Location;

    /// A lock the thread holds.
    struct Entry {
        rank: Rank,
        built: &'static Location<'static>,
        lock: *const (),
    }

    thread_local! {
        static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }

    /// A held lock's entry, removed when the guard carrying it drops —
    /// in any order, and on unwind. It stays across a condvar wait.
    pub(super) struct Held {
        lock: *const (),
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // A thread-local already gone (a guard dropped in another
            // thread-local's destructor) has nothing left to remove.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(at) = held.iter().rposition(|e| e.lock == self.lock) {
                    held.remove(at);
                }
            });
        }
    }

    #[track_caller]
    pub(super) fn check(rank: Rank, built: &'static Location<'static>) {
        let clash = HELD.with(|held| {
            held.borrow()
                .iter()
                .find(|e| e.rank >= rank)
                .map(|e| (e.rank, e.built))
        });
        if let Some((held_rank, held_built)) = clash {
            panic!(
                "lock order: taking the {rank:?} lock built at {built} at {} while holding \
                 the {held_rank:?} lock built at {held_built}; a lock may be taken only \
                 under locks of strictly lower rank",
                Location::caller()
            );
        }
    }

    pub(super) fn push(rank: Rank, built: &'static Location<'static>, lock: *const ()) -> Held {
        HELD.with(|held| held.borrow_mut().push(Entry { rank, built, lock }));
        Held { lock }
    }

    /// The ranks the calling thread holds, oldest first.
    #[cfg(test)]
    pub(super) fn ranks() -> Vec<Rank> {
        HELD.with(|held| held.borrow().iter().map(|e| e.rank).collect())
    }

    #[track_caller]
    pub(super) fn assert_empty(what: &str) {
        let first = HELD.with(|held| held.borrow().first().map(|e| (e.rank, e.built)));
        if let Some((rank, built)) = first {
            panic!("{what} while holding the {rank:?} lock built at {built}");
        }
    }
}

/// Mutual exclusion that a panicking holder does not wedge.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    class: Class,
    inner: sync::Mutex<T>,
}

/// Exclusive access to a [`Mutex`]'s value; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex of rank `rank`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex {
            class: Class::new(rank),
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held. Not reentrant: locking again on
    /// the same thread panics in debug builds and deadlocks in release.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.class.enter(std::ptr::from_ref(self).cast());
        MutexGuard {
            guard: ignore_poison(self.inner.lock()),
            held,
        }
    }

    /// The lock if nobody holds it, without waiting. A try never waits,
    /// so it is not checked against the ranks held; once taken, the lock
    /// counts as held like any other.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        let held = self.class.took(std::ptr::from_ref(self).cast());
        Some(MutexGuard { guard, held })
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Reader-writer lock that a panicking holder does not wedge.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    class: Class,
    inner: sync::RwLock<T>,
}

/// Shared access to an [`RwLock`]'s value.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive access to an [`RwLock`]'s value.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// Creates an unlocked lock of rank `rank`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(rank: Rank, value: T) -> Self {
        RwLock {
            class: Class::new(rank),
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared access. Taking it again on the same thread panics in debug
    /// builds: a writer waiting between the two reads deadlocks both.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.class.enter(std::ptr::from_ref(self).cast());
        RwLockReadGuard {
            guard: ignore_poison(self.inner.read()),
            _held: held,
        }
    }

    /// Exclusive access.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.class.enter(std::ptr::from_ref(self).cast());
        RwLockWriteGuard {
            guard: ignore_poison(self.inner.write()),
            _held: held,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
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
    /// is announced ([`blocking`]); the lock counts as held throughout.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { guard, held } = guard;
        let guard = blocking(|| ignore_poison(self.0.wait(guard)));
        MutexGuard { guard, held }
    }

    /// [`Condvar::wait`] bounded by `timeout`; the second value says
    /// whether the timeout elapsed.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        blocking(|| self.idle(guard, Some(timeout)))
    }

    /// [`Condvar::wait_timeout`] (`None`: no bound) that nobody is told
    /// of: for a thread with no turn to hand on — a parked pool worker,
    /// the runtime's idle loop.
    pub fn idle<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, T>, bool) {
        let MutexGuard { guard, held } = guard;
        let (guard, timed_out) = match timeout {
            Some(timeout) => {
                let (guard, waited) = ignore_poison(self.0.wait_timeout(guard, timeout));
                (guard, waited.timed_out())
            }
            None => (ignore_poison(self.0.wait(guard)), false),
        };
        (MutexGuard { guard, held }, timed_out)
    }
}

#[cfg(test)]
#[cfg(debug_assertions)] // the ranks are kept in debug builds only
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use Rank::{Engine, Leaf, Node, Store};

    fn held() -> Vec<Rank> {
        held::ranks()
    }

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("no panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => (*payload.downcast::<&str>().unwrap()).to_owned(),
        }
    }

    #[test]
    fn unwinding_with_two_guards_held_leaves_none_held() {
        let (a, b) = (Mutex::new(Store, ()), RwLock::new(Node, ()));
        let message = panic_of(|| {
            let _a = a.lock();
            let _b = b.write();
            assert_eq!(held(), [Store, Node]);
            panic!("a handler fails");
        });
        assert_eq!(message, "a handler fails");
        assert!(held().is_empty());
        // The thread's next job takes them again, lowest first.
        let _a = a.lock();
        let _b = b.read();
    }

    #[test]
    fn guards_dropped_out_of_order_leave_the_others_held() {
        let (a, b, c) = (
            Mutex::new(Store, ()),
            Mutex::new(Node, ()),
            Mutex::new(Leaf, ()),
        );
        let (ga, gb, gc) = (a.lock(), b.lock(), c.lock());
        drop(gb);
        assert_eq!(held(), [Store, Leaf]);
        drop(ga);
        assert_eq!(held(), [Leaf]);
        drop(gc);
        assert!(held().is_empty());
        let _b = b.lock();
    }

    #[test]
    fn a_try_lock_that_takes_the_lock_holds_it_and_one_that_fails_does_not() {
        let (low, high) = (Mutex::new(Store, ()), Mutex::new(Node, ()));
        let _high = high.lock();
        // A try never waits: it may take a lower rank.
        let taken = low.try_lock().expect("free");
        assert_eq!(held(), [Node, Store]);
        let busy = std::thread::scope(|s| s.spawn(|| (low.try_lock().is_none(), held())).join());
        assert_eq!(busy.unwrap(), (true, vec![]));
        drop(taken);
        assert_eq!(held(), [Node]);
    }

    /// Records the ranks its thread holds at each announced wait.
    struct Observe(std::sync::Mutex<Vec<Vec<Rank>>>);

    impl BlockingHook for Observe {
        fn enter(&self) {
            self.0.lock().unwrap().push(held());
        }
        fn leave(&self) {}
    }

    #[test]
    fn a_condvar_wait_keeps_the_lock_held_across_the_wait() {
        let observe = Arc::new(Observe(std::sync::Mutex::new(Vec::new())));
        set_blocking_hook(Some(Arc::clone(&observe) as Arc<dyn BlockingHook>));
        let (outer, m, cv) = (
            Mutex::new(Engine, ()),
            Mutex::new(Leaf, false),
            Condvar::new(),
        );
        let _outer = outer.lock();
        let (guard, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(held(), [Engine, Leaf]);
        drop(guard);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    *m.lock() = true;
                    cv.notify_all();
                    std::thread::yield_now();
                }
            });
            let mut set = m.lock();
            while !*set {
                set = cv.wait(set);
            }
            assert_eq!(held(), [Engine, Leaf]);
            drop(set);
            done.store(true, Ordering::Release);
        });
        set_blocking_hook(None);
        assert_eq!(held(), [Engine]);
        let seen = observe.0.lock().unwrap().clone();
        assert!(seen.len() >= 2, "{seen:?}");
        assert!(
            seen.iter().all(|ranks| ranks == &[Engine, Leaf]),
            "{seen:?}"
        );
    }

    #[test]
    fn two_locks_of_one_rank_are_not_nested() {
        let (a, b) = (Mutex::new(Store, ()), Mutex::new(Store, ()));
        let _a = a.lock();
        let message = panic_of(|| drop(b.lock()));
        assert!(
            message.contains("while holding the Store lock"),
            "{message}"
        );
    }

    #[test]
    fn assert_unlocked_panics_while_a_lock_is_held() {
        assert_unlocked("nothing");
        let m = Mutex::new(Leaf, ());
        let guard = m.lock();
        let message = panic_of(|| assert_unlocked("a remote call"));
        assert!(
            message.starts_with("a remote call while holding the Leaf lock"),
            "{message}"
        );
        drop(guard);
        assert_unlocked("nothing");
    }
}
