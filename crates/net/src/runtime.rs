//! The shared event-driven device runtime: one loop, one worker pool —
//! thousands of devices.
//!
//! The loop is message-io's single listener of `Network | Signal`
//! events. It sleeps until an endpoint pushes a readiness notification
//! ([`ReadyNotifier`]) or the head of one due-ordered heap falls due. A
//! notification names when its event falls due: now queues the endpoint
//! for a drain, later (a sim frame in flight) arms a wake-up on the heap,
//! which also holds the periodic tasks (link-expiry and stale-session
//! sweeps, the pool watchdog). Drains and due tasks run on the loop,
//! outside its lock; requests and events become jobs on the shared
//! [`WorkerPool`]. Nothing that runs on the loop may block — one waiting
//! drain or tick stalls every device of the process (DESIGN.md §21).
//!
//! Thread budget for a fleet of any size on one backend:
//! `workers (≤ 48, soft cap) + 1 loop + backend threads` — the sim has
//! none, TCP one poll thread per endpoint. One runtime exists per
//! transport backend (see [`runtime_for`]) and every [`crate::Node`] of
//! that backend is multiplexed onto it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use syd_telemetry::{trace, Registry};
use syd_transport::{ReadyNotifier, Transport};
use syd_types::sync::{Condvar, Mutex};
use syd_types::NodeAddr;

use crate::pool::WorkerPool;
use crate::timer::{Action, TimerId, Timers};

/// How often the watchdog checks the shared pool for stalls.
const WATCHDOG_TICK: Duration = Duration::from_millis(50);

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

/// A node's event-drain callback. Must not block: it may only pop
/// endpoint events, complete pending calls and enqueue pool jobs.
pub type DrainFn = Arc<dyn Fn() -> DrainOutcome + Send + Sync>;

struct LoopState {
    /// Endpoints to drain now, round-robin.
    ready: VecDeque<NodeAddr>,
    /// Mirror of `ready` for O(1) duplicate suppression.
    queued: HashSet<NodeAddr>,
    /// Periodic tasks and timed wake-ups.
    timers: Timers,
    shutdown: bool,
}

/// The runtime's one loop: drains ready nodes and runs due tasks on one
/// thread.
pub struct Reactor {
    state: Mutex<LoopState>,
    cv: Condvar,
    nodes: Mutex<HashMap<NodeAddr, DrainFn>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Reactor {
    fn start(label: &str) -> Arc<Reactor> {
        let reactor = Arc::new(Reactor {
            state: Mutex::new(LoopState {
                ready: VecDeque::new(),
                queued: HashSet::new(),
                timers: Timers::default(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            nodes: Mutex::new(HashMap::new()),
            thread: Mutex::new(None),
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
    /// `change` made the heap's head earlier or queued an endpoint.
    fn edit<T>(&self, change: impl FnOnce(&mut LoopState) -> T) -> T {
        let mut state = self.state.lock();
        let (head, ready) = (state.timers.next_due(), state.ready.len());
        let out = change(&mut state);
        // Edits only add: a changed head is an earlier one.
        let wake = state.timers.next_due() != head || state.ready.len() > ready;
        drop(state);
        if wake {
            self.cv.notify_one();
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
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
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
            if due > Instant::now() {
                state.timers.wake_at(addr, due);
            } else if state.queued.insert(addr) {
                state.ready.push_back(addr);
            }
        });
    }
}

/// The loop: each turn drains one ready node and runs every task that
/// fell due, both outside the lock; with neither, it sleeps until the
/// heap's head falls due or a notification arrives.
fn reactor_loop(reactor: &Reactor) {
    let mut due: Vec<Action> = Vec::new();
    loop {
        let ready = {
            let mut state = reactor.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let now = Instant::now();
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
                if !due.is_empty() {
                    break None;
                }
                state = match state.timers.next_due() {
                    Some(at) => {
                        reactor
                            .cv
                            .wait_timeout(state, at.saturating_duration_since(now))
                            .0
                    }
                    None => reactor.cv.wait(state),
                };
            }
        };
        if let Some(addr) = ready {
            let drain = reactor.nodes.lock().get(&addr).cloned();
            match drain.map(|drain| drain()) {
                Some(DrainOutcome::More) => reactor.notify(addr, Instant::now()),
                Some(DrainOutcome::Closed) => reactor.deregister(addr),
                Some(DrainOutcome::Idle) | None => {}
            }
        }
        for action in due.drain(..) {
            action();
        }
    }
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
    /// Creates a standalone runtime (tests, explicit wiring). Most
    /// callers want [`runtime_for`], which shares one runtime per
    /// transport backend.
    #[must_use]
    pub fn new(label: &str) -> Self {
        let runtime = SharedRuntime {
            inner: Arc::new(RuntimeInner {
                pool: WorkerPool::for_runtime(format!("syd-rt-{label}")),
                reactor: Reactor::start(label),
                fleet_registry: Arc::new(Registry::new()),
                scoped_metrics: AtomicBool::new(false),
            }),
        };
        // Liveness watchdog: if every worker is blocked on nested RPCs
        // with work still queued, grow the pool past its soft cap.
        let watchdog_pool = runtime.pool().clone();
        runtime.schedule_periodic(WATCHDOG_TICK, move || watchdog_pool.kick());
        runtime
    }

    /// The shared worker pool jobs are dispatched onto.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Schedules `action` to run on the loop every `interval`, first one
    /// `interval` from now. Re-armed from the firing, so a slow action
    /// delays its next run instead of bursting to catch up. The action
    /// must not block — see the module docs.
    ///
    /// The scheduler's trace context is captured here and re-entered
    /// around every firing, so periodic work stays attributed to its
    /// trace.
    pub fn schedule_periodic(
        &self,
        interval: Duration,
        action: impl Fn() + Send + Sync + 'static,
    ) -> TimerId {
        let ctx = trace::current();
        let action: Action = Arc::new(move || {
            let _span = ctx.map(trace::enter);
            action();
        });
        let first = Instant::now() + interval;
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
        self.inner.reactor.notify(addr, Instant::now());
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
    RUNTIMES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The shared runtime for `transport`, creating it on first use.
/// Backend identity is the metrics registry allocation, which every
/// clone/handle of one backend shares.
#[must_use]
pub fn runtime_for(transport: &dyn Transport) -> SharedRuntime {
    let key = Arc::as_ptr(transport.metrics()) as usize;
    let mut map = runtime_map().lock();
    map.retain(|_, weak| weak.strong_count() > 0);
    if let Some(inner) = map.get(&key).and_then(Weak::upgrade) {
        return SharedRuntime { inner };
    }
    let runtime = SharedRuntime::new(transport.kind());
    map.insert(key, Arc::downgrade(&runtime.inner));
    runtime
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
            Arc::new(move || {
                if ah.fetch_add(1, Ordering::SeqCst) < 2 {
                    DrainOutcome::More
                } else {
                    DrainOutcome::Idle
                }
            }),
        );
        rt.register_node(
            b,
            Arc::new(move || {
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
        rt.register_node(addr, Arc::new(|| DrainOutcome::Closed));
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
            Arc::new(move || {
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
        let drains = Arc::new(Mutex::new(Vec::new()));
        let d = Arc::clone(&drains);
        let addr = NodeAddr::new(4);
        // Registration drains once, at once.
        rt.register_node(
            addr,
            Arc::new(move || {
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
            rt.register_node(NodeAddr::new(1), Arc::new(|| DrainOutcome::Idle));
            await_threads(&|n| n >= 1, "the loop thread never showed up");
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(own_threads(), 1, "one loop, and no timer thread");
        }
        await_threads(&|n| n == 0, "runtime threads leaked");
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
