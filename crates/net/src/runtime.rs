//! The shared event-driven device runtime: one loop, one worker pool —
//! thousands of devices.
//!
//! The loop is message-io's single listener of `Network | Signal`
//! events. It sleeps until an endpoint pushes a readiness notification
//! ([`ReadyNotifier`]) or the head of one due-ordered heap falls due. A
//! notification names when its event falls due: now queues the endpoint
//! for a drain, later (a sim frame in flight) arms a wake-up on the heap,
//! which also holds the periodic tasks (the pool watchdog, and the
//! link-expiry tick of each device that stored an expiring link). Drains
//! and due tasks run on the loop, outside its lock; requests and events
//! become jobs queued on the shared [`WorkerPool`], and the loop hands out
//! the turns they need once per pass — when no endpoint is ready, or after
//! [`DRAIN_BUDGET`] drained events — rather than one per job. Nothing that
//! runs on the loop may block — one waiting drain or tick stalls every
//! device of the process (DESIGN.md §21). In debug builds the loop's
//! blocking hook panics at any announced wait, at any depth below a drain
//! or a task; the loop's own idle wait is unannounced ([`Condvar::idle`]).
//!
//! Thread budget for a fleet of any size on one backend: `N running
//! workers (N = available_parallelism) + one per announced wait (≤ 48 in
//! all, soft cap) + 1 loop + backend threads` — the sim has none, TCP one
//! accept thread per endpoint and one reader per connection, each blocked
//! until a socket has something for it. One
//! runtime exists per transport backend (see [`runtime_for`]) and every
//! [`crate::Node`] of that backend is multiplexed onto it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use syd_telemetry::{trace, Registry};
use syd_transport::{ReadyNotifier, Transport};
use syd_types::sync::{self, Condvar, Mutex, Rank};
use syd_types::time::wall;
use syd_types::{Clock, NodeAddr};

use crate::pool::WorkerPool;
use crate::timer::{Action, TimerId, Timers};

/// How often the watchdog checks the shared pool for stalls.
const WATCHDOG_TICK: Duration = Duration::from_millis(50);

/// Events the loop drains between two hand-offs of the jobs they queued,
/// whether or not an endpoint is still ready; one drain takes at most this
/// many before its node yields to its peers (round-robin fairness).
pub const DRAIN_BUDGET: usize = 128;

/// What a node's drain callback reports back to the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// The endpoint's queue is empty; wait for the next notification.
    Idle,
    /// The drain budget ran out with events still queued: re-enqueue
    /// this node behind its peers (round-robin fairness).
    More,
    /// The endpoint reported shutdown; deregister the node.
    Closed,
}

/// A node's event-drain callback. It takes at most `budget` events,
/// counting each off, and reports [`DrainOutcome::More`] if it stopped with
/// events left. Must not block: it may only pop endpoint events, complete
/// pending calls and queue pool jobs ([`WorkerPool::queue`]).
pub type DrainFn = Arc<dyn Fn(&mut usize) -> DrainOutcome + Send + Sync>;

struct LoopState {
    /// Endpoints to drain now, round-robin.
    ready: VecDeque<NodeAddr>,
    /// Mirror of `ready` for O(1) duplicate suppression.
    queued: HashSet<NodeAddr>,
    /// Periodic tasks and timed wake-ups.
    timers: Timers,
    shutdown: bool,
}

/// The runtime's one loop: drains ready nodes, hands the jobs they queue
/// to `pool` and runs due tasks, on one thread.
pub struct Reactor {
    state: Mutex<LoopState>,
    cv: Condvar,
    nodes: Mutex<HashMap<NodeAddr, DrainFn>>,
    pool: WorkerPool,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// The deployment's clock: the heap's due times are read on it.
    clock: Arc<dyn Clock>,
}

impl Reactor {
    fn start(label: &str, pool: WorkerPool, clock: Arc<dyn Clock>) -> Arc<Reactor> {
        let reactor = Arc::new(Reactor {
            state: Mutex::new(
                Rank::Runtime,
                LoopState {
                    ready: VecDeque::new(),
                    queued: HashSet::new(),
                    timers: Timers::default(),
                    shutdown: false,
                },
            ),
            cv: Condvar::new(),
            nodes: Mutex::new(Rank::Runtime, HashMap::new()),
            pool,
            thread: Mutex::new(Rank::Runtime, None),
            clock,
        });
        let loop_reactor = Arc::clone(&reactor);
        // A runtime without its loop dispatches nothing; construction
        // failure is unrecoverable, so panicking is the contract.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name(format!("syd-loop-{label}"))
            .spawn(move || reactor_loop(&loop_reactor))
            .expect("spawn loop thread");
        *reactor.thread.lock() = Some(handle);
        reactor
    }

    /// Removes a node; its callback is never invoked again after the
    /// current drain (if any) completes.
    fn deregister(&self, addr: NodeAddr) {
        self.nodes.lock().remove(&addr);
    }

    /// Changes the loop's state under its lock, waking the loop if
    /// `change` made the heap's head earlier or queued an endpoint (on
    /// virtual time whatever it added: time moves to the earliest wake-up,
    /// wherever it sits in the heap).
    fn edit<T>(&self, change: impl FnOnce(&mut LoopState) -> T) -> T {
        let mut state = self.state.lock();
        let (head, ready) = (state.timers.next_due(), state.ready.len());
        let out = change(&mut state);
        // Edits only add: a changed head is an earlier one.
        let wake = state.timers.next_due() != head || state.ready.len() > ready;
        drop(state);
        match self.clock.as_sim() {
            Some(sim) => sim.kick(),
            None if wake => self.cv.notify_one(),
            None => {}
        }
        out
    }

    fn shutdown(&self) {
        let timers = {
            let mut state = self.state.lock();
            if state.shutdown {
                return;
            }
            state.shutdown = true;
            state.ready.clear();
            state.queued.clear();
            std::mem::take(&mut state.timers)
        };
        self.cv.notify_all();
        if let Some(sim) = self.clock.as_sim() {
            sim.kick();
        }
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                sync::join(handle);
            }
        }
        // Drop tasks and drain callbacks outside every lock: they hold
        // endpoint and device handles, and the endpoints' slots hold us
        // (as notifier) — break the cycle.
        drop(timers);
        let nodes = std::mem::take(&mut *self.nodes.lock());
        drop(nodes);
    }
}

impl ReadyNotifier for Reactor {
    fn notify(&self, addr: NodeAddr, due: Instant) {
        self.edit(|state| {
            if state.shutdown {
                return;
            }
            if due > self.clock.instant() {
                state.timers.wake_at(addr, due);
            } else if state.queued.insert(addr) {
                state.ready.push_back(addr);
            }
        });
    }
}

/// The loop: each turn drains one ready node and runs every task that
/// fell due, both outside the lock; with neither, it sleeps until the
/// heap's head falls due or a notification arrives. The jobs its drains
/// queue are handed out in one [`WorkerPool::hand_off`], outside the lock,
/// as soon as no endpoint is ready (before the tasks run or the loop
/// sleeps), and after every [`DRAIN_BUDGET`] drained events.
/// On a [`syd_types::SimClock`] the loop moves the clock itself instead
/// ([`syd_types::SimClock::settle`]).
fn reactor_loop(reactor: &Reactor) {
    #[cfg(debug_assertions)]
    sync::set_blocking_hook(Some(Arc::new(NeverWait)));
    let mut due: Vec<Action> = Vec::new();
    // Events left to drain before the next hand-off, and whether a drain
    // ran since the last one.
    let mut budget = DRAIN_BUDGET;
    let mut owed = false;
    loop {
        let ready = {
            let mut state = reactor.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let now = reactor.clock.instant();
                let LoopState {
                    ready,
                    queued,
                    timers,
                    ..
                } = &mut *state;
                timers.collect_due(now, &mut due, &mut |addr| {
                    if queued.insert(addr) {
                        ready.push_back(addr);
                    }
                });
                if let Some(addr) = state.ready.pop_front() {
                    state.queued.remove(&addr);
                    break Some(addr);
                }
                if !due.is_empty() || owed {
                    break None;
                }
                if let Some(sim) = reactor.clock.as_sim() {
                    let (frame, task) = (state.timers.next_wake(), state.timers.next_due());
                    sim.settle(state, frame, task, || reactor.pool.is_quiet());
                    state = reactor.state.lock();
                    continue;
                }
                let timeout = state
                    .timers
                    .next_due()
                    .map(|at| at.saturating_duration_since(now));
                state = reactor.cv.idle(state, timeout).0;
            }
        };
        if let Some(addr) = ready {
            let drain = reactor.nodes.lock().get(&addr).cloned();
            owed |= drain.is_some();
            match drain.map(|drain| drain(&mut budget)) {
                Some(DrainOutcome::More) => reactor.notify(addr, reactor.clock.instant()),
                Some(DrainOutcome::Closed) => reactor.deregister(addr),
                Some(DrainOutcome::Idle) | None => {}
            }
        }
        if owed && (ready.is_none() || budget == 0) {
            reactor.pool.hand_off();
            (budget, owed) = (DRAIN_BUDGET, false);
        }
        for action in due.drain(..) {
            action();
        }
    }
}

/// The loop's blocking hook in debug builds: the loop must never wait, so
/// an announced wait reached from a drain or a task, at any depth, panics.
#[cfg(debug_assertions)]
struct NeverWait;

#[cfg(debug_assertions)]
impl sync::BlockingHook for NeverWait {
    fn enter(&self) {
        panic!("a wait on the runtime's loop: a drain or a periodic task must not block");
    }

    fn leave(&self) {}
}

struct RuntimeInner {
    pool: WorkerPool,
    reactor: Arc<Reactor>,
    /// Fleet-level registry that scoped per-node registries delegate to.
    fleet_registry: Arc<Registry>,
    /// When set, new nodes get a scoped registry (shared metric cells)
    /// instead of pre-registering full families per device.
    scoped_metrics: AtomicBool,
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        self.reactor.shutdown();
        self.pool.shutdown();
    }
}

/// Cloneable handle to a shared runtime. The runtime's threads stop
/// when the last handle (every node spawned on it holds one) is gone.
#[derive(Clone)]
pub struct SharedRuntime {
    inner: Arc<RuntimeInner>,
}

impl SharedRuntime {
    /// Creates a standalone runtime on the wall clock (tests, explicit
    /// wiring). Most callers want [`runtime_for`], which shares one
    /// runtime per transport backend, on that backend's clock.
    #[must_use]
    pub fn new(label: &str) -> Self {
        Self::on_clock(label, Arc::clone(wall()))
    }

    fn on_clock(label: &str, clock: Arc<dyn Clock>) -> Self {
        let pool = WorkerPool::for_runtime(format!("syd-rt-{label}"), clock.as_sim().cloned());
        Self::with_pool(label, pool, clock)
    }

    fn with_pool(label: &str, pool: WorkerPool, clock: Arc<dyn Clock>) -> Self {
        let runtime = SharedRuntime {
            inner: Arc::new(RuntimeInner {
                reactor: Reactor::start(label, pool.clone(), clock),
                pool,
                fleet_registry: Arc::new(Registry::new()),
                scoped_metrics: AtomicBool::new(false),
            }),
        };
        // Liveness watchdog: if no job finishes while work is queued (a
        // turn held by a wait nobody announced, or every worker the cap
        // allows blocked on nested RPCs), grow the pool by one turn.
        let owner = Arc::downgrade(&runtime.inner);
        runtime.schedule_periodic(WATCHDOG_TICK, owner, |inner| inner.pool.kick());
        runtime
    }

    /// The shared worker pool jobs are dispatched onto.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// The deployment clock its loop, and every node on it, reads.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.reactor.clock
    }

    /// Schedules `action` to run on the loop on `owner` every `interval`,
    /// first one `interval` from now, while `owner` lives. Re-armed from
    /// the firing, so a slow action delays its next run instead of
    /// bursting to catch up. The action must not block — see the module
    /// docs.
    ///
    /// The loop outlives every device, so a task that held its owner
    /// strongly would keep it, and the runtime it holds, alive for ever.
    /// The owner is therefore held weakly, and the action is a function
    /// pointer, which captures nothing; a closure that captures does not
    /// compile:
    ///
    /// ```compile_fail
    /// # use std::sync::Arc;
    /// # use std::time::Duration;
    /// # let runtime = syd_net::SharedRuntime::new("doc");
    /// let device = Arc::new(7u32);
    /// let strong = Arc::clone(&device);
    /// runtime.schedule_periodic(Duration::from_secs(1), Arc::downgrade(&device), move |_| {
    ///     let _ = *strong;
    /// });
    /// ```
    ///
    /// The scheduler's trace context is captured here and re-entered
    /// around every firing, so periodic work stays attributed to its
    /// trace.
    pub fn schedule_periodic<T: Send + Sync + 'static>(
        &self,
        interval: Duration,
        owner: Weak<T>,
        action: fn(&T),
    ) -> TimerId {
        let ctx = trace::current();
        let action: Action = Arc::new(move || {
            if let Some(owner) = owner.upgrade() {
                let _span = ctx.map(trace::enter);
                action(&owner);
            }
        });
        let first = self.clock().instant() + interval;
        (self.inner.reactor).edit(|state| state.timers.schedule(first, interval, action))
    }

    /// Cancels a periodic task. Returns whether it was still scheduled.
    /// A firing already collected by the loop still runs; none is
    /// collected after `cancel_periodic` returns.
    pub fn cancel_periodic(&self, id: TimerId) -> bool {
        // The task is dropped after the lock is released.
        let task = self.inner.reactor.state.lock().timers.cancel(id);
        task.is_some()
    }

    /// Number of live periodic tasks (the watchdog included).
    #[must_use]
    pub fn periodic_tasks(&self) -> usize {
        self.inner.reactor.state.lock().timers.pending()
    }

    /// The loop as a transport readiness notifier, for
    /// [`syd_transport::TransportEndpoint::set_ready_notifier`].
    #[must_use]
    pub fn notifier(&self) -> Arc<dyn ReadyNotifier> {
        Arc::clone(&self.inner.reactor) as Arc<dyn ReadyNotifier>
    }

    /// Registers a node's drain callback with the loop and drains it at
    /// once (events may have raced registration).
    pub fn register_node(&self, addr: NodeAddr, drain: DrainFn) {
        self.inner.reactor.nodes.lock().insert(addr, drain);
        self.inner.reactor.notify(addr, self.clock().instant());
    }

    /// Deregisters a node (idempotent).
    pub fn deregister_node(&self, addr: NodeAddr) {
        self.inner.reactor.deregister(addr);
    }

    /// Number of nodes currently registered with the loop.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.inner.reactor.nodes.lock().len()
    }

    /// The fleet-level registry scoped per-node registries delegate to.
    #[must_use]
    pub fn fleet_registry(&self) -> &Arc<Registry> {
        &self.inner.fleet_registry
    }

    /// Enables/disables scoped per-node registries for *subsequently
    /// spawned* nodes (fleet mode: metric cells shared fleet-wide
    /// instead of duplicated 10k times). Off by default so unit tests
    /// keep per-device counters.
    pub fn set_scoped_metrics(&self, on: bool) {
        self.inner.scoped_metrics.store(on, Ordering::Relaxed);
    }

    /// Whether scoped per-node registries are enabled.
    #[must_use]
    pub fn scoped_metrics(&self) -> bool {
        self.inner.scoped_metrics.load(Ordering::Relaxed)
    }

    /// A registry for a newly spawned node: scoped (delegating to the
    /// fleet registry) in fleet mode, private otherwise.
    #[must_use]
    pub fn node_registry(&self) -> Arc<Registry> {
        if self.scoped_metrics() {
            Arc::new(Registry::with_parent(Arc::clone(
                &self.inner.fleet_registry,
            )))
        } else {
            Arc::new(Registry::new())
        }
    }
}

/// One shared runtime per transport backend, keyed by the backend's
/// registry identity and kept alive by the nodes spawned on it: the
/// map holds weak references, so an idle backend's runtime (threads
/// included) disappears with its last node.
fn runtime_map() -> &'static Mutex<HashMap<usize, Weak<RuntimeInner>>> {
    static RUNTIMES: OnceLock<Mutex<HashMap<usize, Weak<RuntimeInner>>>> = OnceLock::new();
    RUNTIMES.get_or_init(|| Mutex::new(Rank::Runtimes, HashMap::new()))
}

/// The shared runtime for `transport`, on its clock, creating it on first
/// use. Backend identity is the metrics registry allocation, which every
/// clone/handle of one backend shares.
#[must_use]
pub fn runtime_for(transport: &dyn Transport) -> SharedRuntime {
    let key = Arc::as_ptr(transport.metrics()) as usize;
    let mut map = runtime_map().lock();
    map.retain(|_, weak| weak.strong_count() > 0);
    if let Some(inner) = map.get(&key).and_then(Weak::upgrade) {
        return SharedRuntime { inner };
    }
    let runtime = SharedRuntime::on_clock(transport.kind(), Arc::clone(transport.clock()));
    map.insert(key, Arc::downgrade(&runtime.inner));
    runtime
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The loop refuses every announced wait, however deep in a task: a
    /// sleep, a channel receive or a join through `syd_types` announces
    /// itself, and the loop's hook panics. The idle wait is not announced.
    #[cfg(debug_assertions)]
    #[test]
    fn an_announced_wait_on_the_loop_panics() {
        fn drain_backlog(rx: &syd_types::queue::Receiver<u8>) {
            let _ = rx.recv_timeout(Duration::from_millis(1));
        }
        struct Probe {
            rx: syd_types::queue::Receiver<u8>,
            outcomes: Mutex<Vec<bool>>,
        }
        let rt = SharedRuntime::new("t-never-wait");
        let (_tx, rx) = syd_types::queue::channel();
        let probe = Arc::new(Probe {
            rx,
            outcomes: Mutex::new(Rank::Leaf, Vec::new()),
        });
        rt.schedule_periodic(Duration::from_millis(5), Arc::downgrade(&probe), |probe| {
            let waits: [fn(&Probe); 2] = [
                |_| sync::sleep(&**syd_types::time::wall(), Duration::from_millis(1)),
                |probe| drain_backlog(&probe.rx),
            ];
            for wait in waits {
                let wait = std::panic::AssertUnwindSafe(|| wait(probe));
                let panicked = std::panic::catch_unwind(wait).is_err();
                probe.outcomes.lock().push(panicked);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while probe.outcomes.lock().len() < 4 {
            assert!(Instant::now() < deadline, "the task stopped running");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(probe.outcomes.lock().iter().all(|&panicked| panicked));
    }

    #[test]
    fn reactor_drains_registered_nodes_round_robin() {
        let rt = SharedRuntime::new("t");
        let a_hits = Arc::new(AtomicUsize::new(0));
        let b_hits = Arc::new(AtomicUsize::new(0));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        let (ah, bh) = (Arc::clone(&a_hits), Arc::clone(&b_hits));
        // Both report More twice, then Idle: the reactor must interleave.
        rt.register_node(
            a,
            Arc::new(move |_: &mut usize| {
                if ah.fetch_add(1, Ordering::SeqCst) < 2 {
                    DrainOutcome::More
                } else {
                    DrainOutcome::Idle
                }
            }),
        );
        rt.register_node(
            b,
            Arc::new(move |_: &mut usize| {
                if bh.fetch_add(1, Ordering::SeqCst) < 2 {
                    DrainOutcome::More
                } else {
                    DrainOutcome::Idle
                }
            }),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while a_hits.load(Ordering::SeqCst) < 3 || b_hits.load(Ordering::SeqCst) < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "reactor starved a node"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn closed_outcome_deregisters() {
        let rt = SharedRuntime::new("t");
        let addr = NodeAddr::new(7);
        rt.register_node(addr, Arc::new(|_: &mut usize| DrainOutcome::Closed));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while rt.nodes() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "node not deregistered"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn duplicate_notifications_coalesce() {
        let rt = SharedRuntime::new("t");
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let addr = NodeAddr::new(3);
        rt.register_node(
            addr,
            Arc::new(move |_: &mut usize| {
                h.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                DrainOutcome::Idle
            }),
        );
        let notifier = rt.notifier();
        for _ in 0..100 {
            notifier.notify(addr, Instant::now());
        }
        std::thread::sleep(Duration::from_millis(300));
        let seen = hits.load(Ordering::SeqCst);
        // 100 notifications against a 20ms drain: far fewer drains than
        // notifications proves duplicate suppression.
        assert!(
            (1..30).contains(&seen),
            "expected coalescing, saw {seen} drains"
        );
    }

    #[test]
    fn a_timed_notification_drains_its_node_when_due() {
        let rt = SharedRuntime::new("t");
        let drains = Arc::new(Mutex::new(Rank::Leaf, Vec::new()));
        let d = Arc::clone(&drains);
        let addr = NodeAddr::new(4);
        // Registration drains once, at once.
        rt.register_node(
            addr,
            Arc::new(move |_: &mut usize| {
                d.lock().push(Instant::now());
                DrainOutcome::Idle
            }),
        );
        let due = Instant::now() + Duration::from_millis(30);
        rt.notifier().notify(addr, due + Duration::from_millis(10));
        rt.notifier().notify(addr, due);
        std::thread::sleep(Duration::from_millis(150));
        let drains = drains.lock();
        assert_eq!(drains.len(), 3, "one at registration, one per wake-up");
        assert!(drains[1] >= due, "drained {:?} early", due - drains[1]);
    }

    /// On virtual time a periodic task runs at each of its due times as
    /// the clock passes them, and never moves the clock by itself.
    #[test]
    fn on_virtual_time_tasks_run_as_time_passes_and_never_move_it() {
        let clock = syd_types::SimClock::new();
        let rt = SharedRuntime::on_clock("t-sim", Arc::new(clock.clone()));
        let ticks = Arc::new(AtomicUsize::new(0));
        rt.schedule_periodic(Duration::from_millis(10), Arc::downgrade(&ticks), |t| {
            t.fetch_add(1, Ordering::SeqCst);
        });
        clock.run_for(Duration::from_millis(105));
        assert_eq!(ticks.load(Ordering::SeqCst), 10);
        assert_eq!(clock.now().as_micros(), 105_000);
        // Nothing waits now: the task and the watchdog are due next, and
        // time stands still.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(clock.now().as_micros(), 105_000);
        assert_eq!(ticks.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn scoped_registries_share_fleet_cells() {
        let rt = SharedRuntime::new("t");
        rt.set_scoped_metrics(true);
        let a = rt.node_registry();
        let b = rt.node_registry();
        a.counter("x").inc();
        b.counter("x").inc();
        assert_eq!(rt.fleet_registry().counter("x").get(), 2);
    }

    #[test]
    fn runtime_threads_stop_with_last_handle() {
        // A thread names itself as it starts running, so wait for it.
        let await_threads = |done: &dyn Fn(usize) -> bool, what: &str| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !done(own_threads()) {
                assert!(std::time::Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        {
            let rt = SharedRuntime::new("zz");
            rt.register_node(
                NodeAddr::new(1),
                Arc::new(|_: &mut usize| DrainOutcome::Idle),
            );
            await_threads(&|n| n >= 1, "the loop thread never showed up");
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(own_threads(), 1, "one loop, and no timer thread");
        }
        await_threads(&|n| n == 0, "runtime threads leaked");
    }

    #[test]
    fn an_unannounced_wait_costs_a_queued_job_at_most_the_watchdog() {
        // One turn, held by a job that sleeps without announcing it: only
        // the loop's watchdog (`kick`) can start the job queued behind.
        let pool = WorkerPool::new("syd-rt-t", 1, 48, Duration::from_millis(500));
        let rt = SharedRuntime::with_pool("t", pool, Arc::clone(wall()));
        let (ran_tx, ran_rx) = syd_types::queue::channel();
        rt.pool()
            .execute(|| std::thread::sleep(Duration::from_millis(300)));
        let queued = Instant::now();
        rt.pool().execute(move || {
            let _ = ran_tx.send(Instant::now());
        });
        let ran = ran_rx.recv_timeout(Duration::from_secs(2)).expect("ran");
        let delay = ran - queued;
        assert!(
            delay <= Duration::from_millis(150),
            "queued job waited {delay:?} behind an unannounced sleep"
        );
    }

    /// A loop without a runtime, so without the watchdog: only its own
    /// hand-off can start a job its drains queue. `drain` is registered at
    /// `NodeAddr(1)` and drained at once; returns the loop and the number
    /// of jobs started so far.
    fn bare_loop(
        drain: impl Fn(&mut usize, &dyn Fn()) -> DrainOutcome + Send + Sync + 'static,
    ) -> (Arc<Reactor>, WorkerPool, Arc<AtomicUsize>) {
        let pool = WorkerPool::new("syd-rt-t", 2, 48, Duration::from_secs(60));
        let reactor = Reactor::start("t", pool.clone(), Arc::clone(wall()));
        let started = Arc::new(AtomicUsize::new(0));
        let (job_pool, count) = (pool.clone(), Arc::clone(&started));
        let queue_one = move || {
            let count = Arc::clone(&count);
            job_pool.queue(move || {
                count.fetch_add(1, Ordering::SeqCst);
            });
        };
        let addr = NodeAddr::new(1);
        reactor.nodes.lock().insert(
            addr,
            Arc::new(move |budget: &mut usize| drain(budget, &queue_one)),
        );
        reactor.notify(addr, Instant::now());
        (reactor, pool, started)
    }

    fn await_started(started: &AtomicUsize, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while started.load(Ordering::SeqCst) < n {
            let seen = started.load(Ordering::SeqCst);
            assert!(
                Instant::now() < deadline,
                "{seen} of {n} queued jobs started"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn jobs_a_pass_queues_have_all_started_once_it_ends() {
        // One drain queues 8 jobs and the endpoint runs dry: the pass ends
        // with no endpoint ready, and its one hand-off starts them all.
        let (reactor, pool, started) = bare_loop(|budget, queue_one| {
            for _ in 0..8 {
                *budget -= 1;
                queue_one();
            }
            DrainOutcome::Idle
        });
        await_started(&started, 8);
        reactor.shutdown();
        pool.shutdown();
    }

    #[test]
    fn a_loop_that_never_idles_hands_off_within_the_drain_budget() {
        // The endpoint is always ready. Its first DRAIN_BUDGET drains take
        // one event each and queue a job; later ones take none. Only a
        // hand-off made within those first drains can start the jobs.
        let drains = AtomicUsize::new(0);
        let (reactor, pool, started) = bare_loop(move |budget, queue_one| {
            if drains.fetch_add(1, Ordering::SeqCst) < DRAIN_BUDGET {
                *budget -= 1;
                queue_one();
            }
            DrainOutcome::More
        });
        await_started(&started, DRAIN_BUDGET);
        reactor.shutdown();
        pool.shutdown();
    }

    /// Live threads of the runtime labelled `zz` (short: the kernel keeps
    /// 15 bytes of a thread name), found by name: the other tests of this
    /// binary run in parallel and start and stop threads of their own, so
    /// a bare count of `/proc/self/task` races.
    fn own_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .flatten()
                .filter(|task| {
                    std::fs::read_to_string(task.path().join("comm"))
                        .is_ok_and(|name| name.trim_end().ends_with("-zz"))
                })
                .count()
        })
    }
}
