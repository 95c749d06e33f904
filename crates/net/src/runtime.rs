//! The shared event-driven device runtime: one reactor, one timer
//! wheel, one worker pool — thousands of devices.
//!
//! Following the signal/network split of message-io's `NodeEvent`,
//! transport endpoints *push readiness notifications* into a
//! [`Reactor`], and the reactor drains each ready endpoint's event
//! queue, dispatching work onto a shared [`WorkerPool`]. Periodic work
//! (link-expiry and stale-session sweeps, the pool watchdog) is entries
//! on a shared [`TimerWheel`]. A device is a state machine around the
//! pure cores — no threads of its own.
//!
//! Thread budget for a fleet of any size on one backend:
//! `workers (≤ 48, soft cap) + 1 reactor + 1 timer + backend threads`.
//!
//! One runtime exists per transport backend (see [`runtime_for`]) and
//! every [`crate::Node`] of that backend is multiplexed onto it.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use syd_telemetry::Registry;
use syd_transport::{ReadyNotifier, Transport};
use syd_types::sync::{Condvar, Mutex};
use syd_types::NodeAddr;

use crate::pool::WorkerPool;
use crate::timer::TimerWheel;

/// How often the watchdog checks the shared pool for stalls.
const WATCHDOG_TICK: Duration = Duration::from_millis(50);

/// What a node's drain callback reports back to the reactor.
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

struct ReadyQueue {
    queue: VecDeque<NodeAddr>,
    /// Mirror of `queue` for O(1) duplicate suppression.
    queued: HashSet<NodeAddr>,
    shutdown: bool,
}

/// The event dispatcher: receives readiness notifications from
/// transport endpoints and drains ready nodes on one thread.
pub struct Reactor {
    ready: Mutex<ReadyQueue>,
    cv: Condvar,
    nodes: Mutex<HashMap<NodeAddr, DrainFn>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Reactor {
    fn start(label: &str) -> Arc<Reactor> {
        let reactor = Arc::new(Reactor {
            ready: Mutex::new(ReadyQueue {
                queue: VecDeque::new(),
                queued: HashSet::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            nodes: Mutex::new(HashMap::new()),
            thread: Mutex::new(None),
        });
        let loop_reactor = Arc::clone(&reactor);
        // A runtime without its reactor dispatches nothing; construction
        // failure is unrecoverable, so panicking is the contract.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name(format!("syd-reactor-{label}"))
            .spawn(move || reactor_loop(&loop_reactor))
            .expect("spawn reactor thread");
        *reactor.thread.lock() = Some(handle);
        reactor
    }

    /// Registers a node's drain callback and schedules an immediate
    /// drain (events may have raced registration).
    fn register(&self, addr: NodeAddr, drain: DrainFn) {
        self.nodes.lock().insert(addr, drain);
        self.notify(addr);
    }

    /// Removes a node; its callback is never invoked again after the
    /// current drain (if any) completes.
    fn deregister(&self, addr: NodeAddr) {
        self.nodes.lock().remove(&addr);
    }

    fn registered_nodes(&self) -> usize {
        self.nodes.lock().len()
    }

    fn shutdown(&self) {
        {
            let mut ready = self.ready.lock();
            if ready.shutdown {
                return;
            }
            ready.shutdown = true;
            ready.queue.clear();
            ready.queued.clear();
        }
        self.cv.notify_all();
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        // Drop drain callbacks: they hold endpoint handles, and the
        // endpoints' slots hold us (as notifier) — break the cycle.
        self.nodes.lock().clear();
    }
}

impl ReadyNotifier for Reactor {
    fn notify(&self, addr: NodeAddr) {
        {
            let mut ready = self.ready.lock();
            if ready.shutdown {
                return;
            }
            if ready.queued.insert(addr) {
                ready.queue.push_back(addr);
            }
        }
        self.cv.notify_one();
    }
}

fn reactor_loop(reactor: &Reactor) {
    loop {
        let addr = {
            let mut ready = reactor.ready.lock();
            loop {
                if ready.shutdown {
                    return;
                }
                if let Some(addr) = ready.queue.pop_front() {
                    ready.queued.remove(&addr);
                    break addr;
                }
                ready = reactor.cv.wait(ready);
            }
        };
        let drain = reactor.nodes.lock().get(&addr).cloned();
        let Some(drain) = drain else { continue };
        match drain() {
            DrainOutcome::Idle => {}
            DrainOutcome::More => reactor.notify(addr),
            DrainOutcome::Closed => reactor.deregister(addr),
        }
    }
}

struct RuntimeInner {
    pool: WorkerPool,
    timer: TimerWheel,
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
        self.timer.shutdown();
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
        let pool = WorkerPool::for_runtime(format!("syd-rt-{label}"));
        let timer = TimerWheel::new(label);
        let reactor = Reactor::start(label);
        // Liveness watchdog: if every worker is blocked on nested RPCs
        // with work still queued, grow the pool past its soft cap.
        let watchdog_pool = pool.clone();
        timer.schedule_periodic(WATCHDOG_TICK, move || watchdog_pool.kick());
        SharedRuntime {
            inner: Arc::new(RuntimeInner {
                pool,
                timer,
                reactor,
                fleet_registry: Arc::new(Registry::new()),
                scoped_metrics: AtomicBool::new(false),
            }),
        }
    }

    /// The shared worker pool jobs are dispatched onto.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// The shared timer wheel for periodic sweeps.
    #[must_use]
    pub fn timer(&self) -> &TimerWheel {
        &self.inner.timer
    }

    /// The reactor as a transport readiness notifier, for
    /// [`syd_transport::TransportEndpoint::set_ready_notifier`].
    #[must_use]
    pub fn notifier(&self) -> Arc<dyn ReadyNotifier> {
        Arc::clone(&self.inner.reactor) as Arc<dyn ReadyNotifier>
    }

    /// Registers a node's drain callback with the reactor.
    pub fn register_node(&self, addr: NodeAddr, drain: DrainFn) {
        self.inner.reactor.register(addr, drain);
    }

    /// Deregisters a node (idempotent).
    pub fn deregister_node(&self, addr: NodeAddr) {
        self.inner.reactor.deregister(addr);
    }

    /// Number of nodes currently registered with the reactor.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.inner.reactor.registered_nodes()
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
            notifier.notify(addr);
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
        // A thread names itself as it starts running, so wait for both.
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
            await_threads(&|n| n >= 2, "reactor and timer threads never showed up");
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
