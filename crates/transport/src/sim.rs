//! The simulated shared-medium network and its router thread.
//!
//! All endpoints of one [`Network`] share a single router — deliberately so:
//! the paper's devices shared one 802.11b channel. The router keeps a
//! min-heap of in-flight messages ordered by due time and delivers each to
//! its destination endpoint's channel, applying the loss, partition and
//! connection rules along the way.
//!
//! Messages are fully encoded with the `syd-wire` codec at send time and
//! decoded by the receiving endpoint, so every hop exercises the real wire
//! format and the stats counters see real byte counts.
//!
//! [`Network`] implements [`Transport`] (and [`Endpoint`] implements
//! [`TransportEndpoint`]), making the simulator one backend among others;
//! [`SimTransport`] is the backend-style name for the same type.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_telemetry::Registry;
use syd_types::queue::{self, Receiver, RecvError, Sender};
use syd_types::rng::Rng;
use syd_types::sync::{Condvar, Mutex};
use syd_types::{NodeAddr, SydError, SydResult};
use syd_wire::{decode_from_slice, encode_to_vec, Envelope, Payload, Response};

use crate::config::NetConfig;
use crate::stats::{NetStats, StatsSnapshot};
use crate::{
    QueueSpan, ReadyNotifier, Transport, TransportEndpoint, TransportEvent, TransportMetrics,
};

/// Backend-style alias: the simulated network *is* the sim transport.
pub type SimTransport = Network;

/// What travels down an endpoint's channel: either a fully encoded frame
/// or a synthetic lifecycle event.
enum SimMsg {
    Frame(Vec<u8>),
    Control(TransportEvent),
}

/// An in-flight message.
struct Scheduled {
    due: Instant,
    seq: u64,
    src: NodeAddr,
    dst: NodeAddr,
    bytes: Vec<u8>,
    /// Queueing-span bookkeeping when the message is a traced request.
    queue_span: Option<QueueSpan>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Due-time order, sequence number as FIFO tie-break.
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}

struct EndpointSlot {
    tx: Sender<SimMsg>,
    connected: bool,
    /// Test instrumentation: mirror of every delivered frame body.
    tap: Option<Sender<Vec<u8>>>,
    /// Reactor readiness hook: pinged after every enqueue on `tx`.
    notifier: Option<Arc<dyn ReadyNotifier>>,
}

impl EndpointSlot {
    /// Enqueues a message and pings the readiness notifier, if any.
    /// Returns whether the endpoint still held its receiver.
    fn push(&self, addr: NodeAddr, msg: SimMsg) -> bool {
        let ok = self.tx.send(msg).is_ok();
        if let Some(notifier) = &self.notifier {
            notifier.notify(addr);
        }
        ok
    }
}

struct RouterState {
    heap: BinaryHeap<Reverse<Scheduled>>,
    endpoints: HashMap<NodeAddr, EndpointSlot>,
    /// Normalized (low, high) pairs that cannot exchange messages.
    partitions: HashSet<(NodeAddr, NodeAddr)>,
    rng: Rng,
    cfg: NetConfig,
    shutdown: bool,
}

struct Inner {
    state: Mutex<RouterState>,
    cv: Condvar,
    stats: NetStats,
    registry: Arc<Registry>,
    tmetrics: TransportMetrics,
    /// Records `transport.queue` spans for traced requests.
    tracer: syd_trace::Tracer,
    next_addr: AtomicU64,
    next_seq: AtomicU64,
}

/// Handle to a simulated network. Cloning shares the network; the router
/// thread stops when the last handle is dropped (or on [`Network::shutdown`]).
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
    _owner: Arc<OwnerToken>,
}

/// Shuts the router down when the last `Network` clone is dropped.
struct OwnerToken {
    inner: Arc<Inner>,
}

impl Drop for OwnerToken {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.shutdown = true;
        drop(state);
        self.inner.cv.notify_all();
    }
}

fn norm_pair(a: NodeAddr, b: NodeAddr) -> (NodeAddr, NodeAddr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Network {
    /// Creates a network and starts its router thread.
    pub fn new(cfg: NetConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let tmetrics = TransportMetrics::preregister(&registry);
        let inner = Arc::new(Inner {
            state: Mutex::new(RouterState {
                heap: BinaryHeap::new(),
                endpoints: HashMap::new(),
                partitions: HashSet::new(),
                rng: Rng::new(cfg.seed),
                cfg,
                shutdown: false,
            }),
            cv: Condvar::new(),
            stats: NetStats::default(),
            registry,
            tmetrics,
            tracer: syd_trace::Tracer::new("transport-sim", crate::TRACE_DEVICE_SIM),
            next_addr: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
        });
        let router_inner = Arc::clone(&inner);
        // A network without its router delivers nothing: construction
        // failure here is unrecoverable, so panicking is the contract.
        #[allow(clippy::expect_used)]
        std::thread::Builder::new()
            .name("syd-net-router".into())
            .spawn(move || router_loop(&router_inner))
            .expect("spawn router thread");
        let owner = Arc::new(OwnerToken {
            inner: Arc::clone(&inner),
        });
        Network {
            inner,
            _owner: owner,
        }
    }

    /// Creates a network with the ideal (lossless, instant) configuration.
    pub fn ideal() -> Self {
        Self::new(NetConfig::ideal())
    }

    /// Registers a new endpoint and returns its handle.
    pub fn register(&self) -> Endpoint {
        loop {
            let addr = NodeAddr::new(self.inner.next_addr.fetch_add(1, Ordering::Relaxed));
            if let Ok(ep) = self.register_with_addr(addr) {
                return ep;
            }
        }
    }

    /// Registers an endpoint at an explicit address (tests mirroring the
    /// TCP backend's socket-derived addresses). Errors if taken.
    pub fn register_with_addr(&self, addr: NodeAddr) -> SydResult<Endpoint> {
        let (tx, rx) = queue::channel();
        let mut state = self.inner.state.lock();
        if state.endpoints.contains_key(&addr) {
            return Err(SydError::Protocol(format!(
                "sim: address {addr:?} already registered"
            )));
        }
        state.endpoints.insert(
            addr,
            EndpointSlot {
                tx,
                connected: true,
                tap: None,
                notifier: None,
            },
        );
        drop(state);
        Ok(Endpoint {
            addr,
            rx,
            net: self.clone(),
        })
    }

    /// Removes an endpoint; all further traffic to it counts as unreachable.
    pub fn unregister(&self, addr: NodeAddr) {
        let removed = {
            let mut state = self.inner.state.lock();
            state.endpoints.remove(&addr)
        };
        // Dropping the slot disconnects the channel; ping the reactor so
        // an event-driven endpoint observes the terminal `Shutdown`.
        if let Some(slot) = removed {
            if let Some(notifier) = &slot.notifier {
                notifier.notify(addr);
            }
        }
    }

    /// Marks an endpoint (dis)connected — the paper's mobile device going
    /// out of range. Messages to a disconnected endpoint are dropped (or
    /// fail fast, per [`NetConfig::fail_fast_disconnected`]).
    pub fn set_connected(&self, addr: NodeAddr, connected: bool) {
        let mut state = self.inner.state.lock();
        if let Some(slot) = state.endpoints.get_mut(&addr) {
            slot.connected = connected;
        }
    }

    /// True if the endpoint exists and is connected.
    pub fn is_connected(&self, addr: NodeAddr) -> bool {
        let state = self.inner.state.lock();
        state.endpoints.get(&addr).is_some_and(|s| s.connected)
    }

    /// Inserts or removes a bidirectional partition between two endpoints.
    pub fn set_partitioned(&self, a: NodeAddr, b: NodeAddr, partitioned: bool) {
        let mut state = self.inner.state.lock();
        let pair = norm_pair(a, b);
        if partitioned {
            state.partitions.insert(pair);
        } else {
            state.partitions.remove(&pair);
        }
    }

    /// Removes every partition.
    pub fn heal_partitions(&self) {
        let mut state = self.inner.state.lock();
        state.partitions.clear();
    }

    /// Replaces the latency/loss configuration at runtime (the RNG keeps
    /// its state so traffic remains reproducible for a fixed seed).
    pub fn reconfigure(&self, cfg: NetConfig) {
        let mut state = self.inner.state.lock();
        state.cfg = cfg;
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Stops the router thread. Idempotent; messages still in flight are
    /// discarded.
    pub fn shutdown(&self) {
        let mut state = self.inner.state.lock();
        state.shutdown = true;
        drop(state);
        self.inner.cv.notify_all();
    }

    /// Injects an envelope into the network from `env.src`.
    ///
    /// Applies loss and fail-fast rules, samples latency, and schedules
    /// delivery. Returns the encoded size on success. `Unreachable` means
    /// the destination has never been registered (or was unregistered).
    pub fn send(&self, env: Envelope) -> SydResult<usize> {
        let bytes = encode_to_vec(&env);
        let size = bytes.len();
        let mut state = self.inner.state.lock();
        if state.shutdown {
            return Err(SydError::Shutdown);
        }
        self.inner.stats.on_sent(size);
        self.inner.tmetrics.frames_out.inc();
        self.inner.tmetrics.bytes_out.add(size as u64);

        let Some(slot) = state.endpoints.get(&env.dst) else {
            self.inner.stats.on_dropped_unreachable();
            return Err(SydError::Unreachable(env.dst));
        };

        // Fail fast for requests to a disconnected device: synthesize an
        // error response with the same latency as a real round trip half.
        if !slot.connected && state.cfg.fail_fast_disconnected {
            if let Payload::Request(req) = &env.payload {
                let reply = Envelope::new(
                    env.dst,
                    env.src,
                    Payload::Response(Response {
                        id: req.id,
                        result: Err(SydError::Disconnected(env.dst)),
                    }),
                );
                let reply_bytes = encode_to_vec(&reply);
                self.inner.stats.on_dropped_disconnected();
                let due = Instant::now() + sample_latency(&mut state);
                let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
                state.heap.push(Reverse(Scheduled {
                    due,
                    seq,
                    src: env.dst,
                    dst: env.src,
                    bytes: reply_bytes,
                    queue_span: None,
                }));
                drop(state);
                self.inner.cv.notify_all();
                return Ok(size);
            }
        }

        // Random loss.
        let loss = state.cfg.loss;
        if loss > 0.0 && state.rng.unit() < loss {
            self.inner.stats.on_dropped_loss();
            return Ok(size);
        }

        let due = Instant::now() + sample_latency(&mut state);
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        state.heap.push(Reverse(Scheduled {
            due,
            seq,
            src: env.src,
            dst: env.dst,
            bytes,
            queue_span: QueueSpan::of(&env.payload),
        }));
        drop(state);
        self.inner.cv.notify_all();
        Ok(size)
    }
}

impl Transport for Network {
    fn kind(&self) -> &'static str {
        "sim"
    }

    fn listen(&self) -> SydResult<Arc<dyn TransportEndpoint>> {
        Ok(Arc::new(self.register()))
    }

    fn metrics(&self) -> &Arc<Registry> {
        &self.inner.registry
    }
}

fn sample_latency(state: &mut RouterState) -> Duration {
    let model = state.cfg.latency;
    if model.jitter.is_zero() {
        return model.base;
    }
    let jitter_micros = state.rng.below(model.jitter.as_micros() as u64 + 1);
    model.base + Duration::from_micros(jitter_micros)
}

fn router_loop(inner: &Arc<Inner>) {
    let mut state = inner.state.lock();
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        // Deliver everything due.
        while let Some(Reverse(head)) = state.heap.peek() {
            if head.due > now {
                break;
            }
            let Some(Reverse(msg)) = state.heap.pop() else {
                break;
            };
            deliver(inner, &mut state, msg);
        }
        match state.heap.peek() {
            Some(Reverse(head)) => {
                let wait = head.due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    state = inner.cv.wait_timeout(state, wait).0;
                }
            }
            None => state = inner.cv.wait(state),
        }
    }
}

fn deliver(inner: &Inner, state: &mut RouterState, msg: Scheduled) {
    // Partition and connection state are re-checked at delivery time so a
    // partition raised while a message is in flight still swallows it.
    if state.partitions.contains(&norm_pair(msg.src, msg.dst)) {
        inner.stats.on_dropped_partition();
        return;
    }
    match state.endpoints.get(&msg.dst) {
        None => inner.stats.on_dropped_unreachable(),
        Some(slot) if !slot.connected => inner.stats.on_dropped_disconnected(),
        Some(slot) => {
            inner.tmetrics.frames_in.inc();
            inner.tmetrics.bytes_in.add(msg.bytes.len() as u64);
            if let Some(tap) = &slot.tap {
                let _ = tap.send(msg.bytes.clone());
            }
            let queue_span = msg.queue_span;
            if slot.push(msg.dst, SimMsg::Frame(msg.bytes)) {
                inner.stats.on_delivered();
                // Enqueue → delivery is the sim's queueing time; the
                // span hangs off the request's RPC span so the
                // critical-path analyzer can subtract it.
                if let Some(qs) = queue_span {
                    qs.record(&inner.tracer);
                }
            } else {
                inner.stats.on_dropped_unreachable();
            }
        }
    }
}

/// A registered endpoint: the network-facing half of a device.
pub struct Endpoint {
    addr: NodeAddr,
    rx: Receiver<SimMsg>,
    net: Network,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Sends a payload to `dst`.
    pub fn send(&self, dst: NodeAddr, payload: Payload) -> SydResult<usize> {
        self.net.send(Envelope::new(self.addr, dst, payload))
    }

    fn decode(&self, bytes: &[u8]) -> SydResult<Envelope> {
        let decoded = decode_from_slice(bytes);
        if decoded.is_err() {
            self.net.inner.tmetrics.frame_errors.inc();
        }
        decoded
    }

    /// Blocks until a message arrives (or the endpoint is unregistered).
    /// Synthetic lifecycle events are skipped; use
    /// [`TransportEndpoint::recv_event`] to observe them.
    pub fn recv(&self) -> SydResult<Envelope> {
        loop {
            match self.rx.recv().map_err(|_| SydError::Shutdown)? {
                SimMsg::Frame(bytes) => return self.decode(&bytes),
                SimMsg::Control(_) => {}
            }
        }
    }

    /// Blocks up to `timeout` for a message (lifecycle events skipped).
    pub fn recv_timeout(&self, timeout: Duration) -> SydResult<Envelope> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(SimMsg::Frame(bytes)) => return self.decode(&bytes),
                Ok(SimMsg::Control(_)) => {}
                Err(RecvError::Empty) => {
                    return Err(SydError::Timeout(syd_types::RequestId::new(0)))
                }
                Err(RecvError::Disconnected) => return Err(SydError::Shutdown),
            }
        }
    }

    /// Non-blocking receive (lifecycle events skipped).
    pub fn try_recv(&self) -> Option<SydResult<Envelope>> {
        loop {
            match self.rx.try_recv() {
                Ok(SimMsg::Frame(bytes)) => return Some(self.decode(&bytes)),
                Ok(SimMsg::Control(_)) => {}
                Err(RecvError::Empty) => return None,
                Err(RecvError::Disconnected) => return Some(Err(SydError::Shutdown)),
            }
        }
    }

    fn event_of(&self, msg: SimMsg) -> SydResult<TransportEvent> {
        match msg {
            SimMsg::Frame(bytes) => self.decode(&bytes).map(TransportEvent::Message),
            SimMsg::Control(ev) => Ok(ev),
        }
    }
}

impl TransportEndpoint for Endpoint {
    fn addr(&self) -> NodeAddr {
        self.addr
    }

    fn connect(&self, peer: NodeAddr) -> SydResult<()> {
        // The sim has no connections; validate reachability and emit the
        // synthetic lifecycle event the TCP backend would produce.
        let state = self.net.inner.state.lock();
        if !state.endpoints.contains_key(&peer) {
            return Err(SydError::Unreachable(peer));
        }
        let Some(own) = state.endpoints.get(&self.addr) else {
            return Err(SydError::Shutdown);
        };
        self.net.inner.tmetrics.conns.inc();
        own.push(self.addr, SimMsg::Control(TransportEvent::Connected(peer)));
        Ok(())
    }

    fn send(&self, env: Envelope) -> SydResult<usize> {
        self.net.send(env)
    }

    fn recv_event(&self) -> SydResult<TransportEvent> {
        let msg = self.rx.recv().map_err(|_| SydError::Shutdown)?;
        self.event_of(msg)
    }

    fn recv_event_timeout(&self, timeout: Duration) -> SydResult<TransportEvent> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => self.event_of(msg),
            Err(RecvError::Empty) => Err(SydError::Timeout(syd_types::RequestId::new(0))),
            Err(RecvError::Disconnected) => Err(SydError::Shutdown),
        }
    }

    fn try_recv_event(&self) -> Option<SydResult<TransportEvent>> {
        match self.rx.try_recv() {
            Ok(msg) => Some(self.event_of(msg)),
            Err(RecvError::Empty) => None,
            Err(RecvError::Disconnected) => Some(Err(SydError::Shutdown)),
        }
    }

    fn set_ready_notifier(&self, notifier: Arc<dyn ReadyNotifier>) {
        {
            let mut state = self.net.inner.state.lock();
            if let Some(slot) = state.endpoints.get_mut(&self.addr) {
                slot.notifier = Some(Arc::clone(&notifier));
            }
        }
        // Cover events that were enqueued before installation.
        notifier.notify(self.addr);
    }

    fn set_connected(&self, connected: bool) {
        self.net.set_connected(self.addr, connected);
    }

    fn is_connected(&self) -> bool {
        self.net.is_connected(self.addr)
    }

    fn kill_connections(&self) -> usize {
        0 // the sim keeps no connections to kill
    }

    fn set_frame_tap(&self, tx: Sender<Vec<u8>>) {
        let mut state = self.net.inner.state.lock();
        if let Some(slot) = state.endpoints.get_mut(&self.addr) {
            slot.tap = Some(tx);
        }
    }

    fn close(&self) {
        self.net.unregister(self.addr);
    }
}
