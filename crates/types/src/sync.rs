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
//!
//! **Timed waits read the deployment's clock.** [`Condvar::wait_until`]
//! and [`sleep`] take a [`Clock`]: on the wall clock they are `std`'s
//! timed waits; on a [`SimClock`] the thread is entered in the process's
//! list of sleepers, which the loop of that clock's deployment reads to
//! decide how far to move time ([`SimClock::settle`]), and parks with no
//! wall-time bound until a notify or the advance that makes it due.

use std::cell::Cell;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{self, Arc, LockResult, PoisonError, TryLockError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::time::{Clock, SimClock};

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
/// | `Clock` | the process's list of threads waiting on virtual time |
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
    /// The threads waiting on virtual time: entered while the waiter
    /// still holds the lock it waits on, and read by a loop that holds
    /// its own and then looks at its pool.
    Clock,
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

/// Waits `length` on `clock`, announced: [`std::thread::sleep`] on the
/// wall clock, a sleeper woken by the clock's advance on a [`SimClock`].
#[allow(clippy::disallowed_methods)] // the announced wrapper
pub fn sleep(clock: &dyn Clock, length: Duration) {
    match clock.as_sim() {
        None => blocking(|| std::thread::sleep(length)),
        Some(sim) => sim.run_for(length),
    }
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
    /// The lock, which a wait in virtual time lets go and takes again.
    mutex: &'a Mutex<T>,
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
            mutex: self,
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
        Some(MutexGuard {
            mutex: self,
            guard,
            held,
        })
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
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads waiting on it in virtual time, which a notify marks woken.
    sleepers: AtomicU32,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            sleepers: AtomicU32::new(0),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.wake_sleepers();
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.wake_sleepers();
        self.inner.notify_all();
    }

    /// Wakes every thread waiting here in virtual time (which one a
    /// `notify_one` reaches is not known): its loop moves no time until
    /// the thread has run.
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let me = std::ptr::from_ref(self) as usize;
            for sleeper in SLEEPERS.lock().iter_mut().filter(|s| s.cv == me) {
                sleeper.wake();
            }
        }
    }

    /// Releases the lock, blocks until notified, and re-acquires it.
    /// Spurious wake-ups are possible: re-check the condition. The wait
    /// is announced ([`blocking`]); the lock counts as held throughout.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        blocking(|| self.idle(guard, None).0)
    }

    /// [`Condvar::wait`] until `clock` reaches `deadline`, the one timed
    /// wait; the second value says whether it has. On a [`SimClock`] the
    /// thread enters the clock's sleepers while it still holds the lock a
    /// notifier needs, then lets it go and parks, with no wall-time bound,
    /// until a notify or the advance that reaches its deadline wakes it.
    pub fn wait_until<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        clock: &dyn Clock,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let left = deadline.saturating_duration_since(clock.instant());
        let Some(sim) = clock.as_sim() else {
            return match left.is_zero() {
                true => (guard, true),
                false => blocking(|| self.idle(guard, Some(left))),
            };
        };
        let me = std::ptr::from_ref(self) as usize;
        let Some(sleeper) = enter(&sim.time, me, Some(deadline)) else {
            return (guard, true);
        };
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let MutexGuard { mutex, guard, held } = guard;
        let guard = blocking(|| {
            drop(guard);
            sleeper.park();
            ignore_poison(mutex.inner.lock())
        });
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        (MutexGuard { mutex, guard, held }, sim.instant() >= deadline)
    }

    /// A wait bounded by `timeout` of wall time (`None`: no bound) that
    /// nobody is told of: for a thread with no turn to hand on — a parked
    /// pool worker, the runtime's idle loop.
    pub fn idle<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, T>, bool) {
        let MutexGuard { mutex, guard, held } = guard;
        let (guard, timed_out) = match timeout {
            Some(timeout) => {
                let (guard, waited) = ignore_poison(self.inner.wait_timeout(guard, timeout));
                (guard, waited.timed_out())
            }
            None => (ignore_poison(self.inner.wait(guard)), false),
        };
        (MutexGuard { mutex, guard, held }, timed_out)
    }
}

/// A [`SimClock`]'s shared state.
#[derive(Debug)]
pub(crate) struct VirtualTime {
    pub(crate) origin: Instant,
    /// Microseconds past `origin`; only grows.
    micros: AtomicU64,
    /// Where its loop parks ([`SimClock::settle`]).
    parked: Condvar,
}

impl VirtualTime {
    pub(crate) fn new(origin: Instant) -> Self {
        VirtualTime {
            origin,
            micros: AtomicU64::new(0),
            parked: Condvar::new(),
        }
    }

    pub(crate) fn instant(&self) -> Instant {
        self.origin + Duration::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

/// A thread waiting on virtual time (`deadline`), or holding it still.
struct Sleeper {
    id: usize,
    time: Arc<VirtualTime>,
    /// The [`Condvar`] it waits on, by address; 0 for none.
    cv: usize,
    deadline: Option<Instant>,
    /// The parked thread, taken by its wake; `None` while it is woken and
    /// not yet running (a hold: always), when its loop moves no time.
    asleep: Option<Thread>,
}

impl Sleeper {
    /// Marks the sleeper woken and unparks its thread, once.
    fn wake(&mut self) {
        if let Some(thread) = self.asleep.take() {
            thread.unpark();
        }
    }
}

/// Every thread of the process waiting on virtual time, of any clock.
static SLEEPERS: Mutex<Vec<Sleeper>> = Mutex::new(Rank::Clock, Vec::new());
static NEXT_SLEEPER: AtomicUsize = AtomicUsize::new(1);

/// A thread's place among its clock's sleepers, left on drop — after its
/// blocking hook has been told that it runs again.
struct Entered<'a>(&'a VirtualTime, usize);

impl Entered<'_> {
    /// The one wait in virtual time: parks until the entry is woken. A wake
    /// before the park is not lost: it leaves the thread's park token.
    fn park(&self) {
        let asleep = |s: &Sleeper| s.id == self.1 && s.asleep.is_some();
        while SLEEPERS.lock().iter().any(asleep) {
            std::thread::park();
        }
    }
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        SLEEPERS.lock().retain(|s| s.id != self.1);
        self.0.parked.notify_all();
    }
}

/// Enters the caller among `time`'s sleepers until `deadline` (`None`: a
/// hold, woken from the start: its thread runs on); `None` if the deadline
/// has come.
fn enter(time: &Arc<VirtualTime>, cv: usize, deadline: Option<Instant>) -> Option<Entered<'_>> {
    let mut sleepers = SLEEPERS.lock();
    if deadline.is_some_and(|at| time.instant() >= at) {
        return None;
    }
    let id = NEXT_SLEEPER.fetch_add(1, Ordering::Relaxed);
    sleepers.push(Sleeper {
        id,
        time: Arc::clone(time),
        cv,
        deadline,
        asleep: deadline.map(|_| std::thread::current()),
    });
    time.parked.notify_all();
    Some(Entered(time, id))
}

/// Moves `time` to `at`, never back, waking the sleepers it makes due.
fn move_to(time: &Arc<VirtualTime>, sleepers: &mut [Sleeper], at: Instant) {
    let micros = at.saturating_duration_since(time.origin).as_micros() as u64;
    time.micros.fetch_max(micros, Ordering::SeqCst);
    let now = time.instant();
    let due =
        |s: &&mut Sleeper| Arc::ptr_eq(&s.time, time) && s.deadline.is_some_and(|at| at <= now);
    sleepers.iter_mut().filter(due).for_each(Sleeper::wake);
    time.parked.notify_all();
}

pub(crate) fn advance_to(time: &Arc<VirtualTime>, at: Instant) {
    move_to(time, &mut SLEEPERS.lock(), at);
}

impl SimClock {
    /// The discrete-event rule, for the loop on this clock once it has
    /// nothing to run; `held` is the loop's lock. If `quiet` (no pool job
    /// holds a turn or is queued) and no sleeper of this clock is woken,
    /// moves the clock to the earlier of `next_frame` (the next in-flight
    /// frame's due time) and the earliest sleeper's deadline, stopping at
    /// `next_task` on the way — a periodic task never moves time by itself
    /// — and returns true. Else lets `held` go, parks until something it
    /// waits for changes, and returns false.
    pub fn settle<G>(
        &self,
        held: G,
        next_frame: Option<Instant>,
        next_task: Option<Instant>,
        quiet: impl FnOnce() -> bool,
    ) -> bool {
        let mut sleepers = SLEEPERS.lock();
        let mine = || sleepers.iter().filter(|s| Arc::ptr_eq(&s.time, &self.time));
        let next = mine().filter_map(|s| s.deadline).chain(next_frame).min();
        if let Some(at) = next.filter(|_| mine().all(|s| s.asleep.is_some()) && quiet()) {
            let to = next_task.map_or(at, |task| task.min(at));
            move_to(&self.time, &mut sleepers, to);
            return true;
        }
        drop(held);
        let _ = self.time.parked.idle(sleepers, None);
        false
    }

    /// Lets `length` of virtual time pass while the loop of the deployment
    /// on this clock runs everything that falls due in it — a
    /// discrete-event simulation's `run(until)`, where [`SimClock::advance`]
    /// jumps. With no such loop it never returns.
    pub fn run_for(&self, length: Duration) {
        if let Some(sleeper) = enter(&self.time, 0, Some(self.instant() + length)) {
            blocking(|| sleeper.park());
        }
    }

    /// Holds time still until the guard drops: a thread outside the pool
    /// takes it to send a wave of requests at one instant.
    #[must_use = "time moves again once the guard drops"]
    pub fn hold(&self) -> impl Sized + '_ {
        enter(&self.time, 0, None)
    }

    /// Wakes the loop parked in [`SimClock::settle`]: what it waits for
    /// changed.
    pub fn kick(&self) {
        let _sleepers = SLEEPERS.lock();
        self.time.parked.notify_all();
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
        let wall = &**crate::time::wall();
        let soon = wall.instant() + Duration::from_millis(1);
        let (guard, timed_out) = cv.wait_until(m.lock(), wall, soon);
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
