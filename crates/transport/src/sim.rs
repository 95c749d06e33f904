//! The simulated shared-medium network.
//!
//! All endpoints of one [`Network`] share one state lock — deliberately
//! so: the paper's devices shared one 802.11b channel. `send` applies the
//! loss and fail-fast rules, samples a latency, and files the encoded
//! frame in the destination endpoint's own inbox, ordered by due time.
//! No thread moves it after that: the endpoint's reader takes it once it
//! is due — the runtime loop, told the due time through the endpoint's
//! [`ReadyNotifier`], or a thread blocked in
//! [`TransportEndpoint::recv_event`]. The partition, connection and
//! registration rules are applied when a frame is taken, so a partition
//! raised while a frame is in flight still swallows it; and a frame is
//! counted delivered (`transport.frames_in`, the frame tap, the
//! `transport.queue` span) only then.
//!
//! Messages are fully encoded with the `syd-wire` codec at send time and
//! decoded by the receiving endpoint, so every hop exercises the real wire
//! format and the byte counters see real byte counts.
//!
//! [`Network`] implements [`Transport`] (and [`Endpoint`] implements
//! [`TransportEndpoint`]), making the simulator one backend among others.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_telemetry::Registry;
use syd_types::queue::Sender;
use syd_types::rng::Rng;
use syd_types::sync::{Condvar, Mutex, Rank};
use syd_types::time::wall;
use syd_types::Clock;
use syd_types::{NodeAddr, SydError, SydResult};
use syd_wire::{decode_from_slice, encode_to_vec, Envelope, Payload, Response};

use crate::config::NetConfig;
use crate::{
    QueueSpan, ReadyNotifier, Transport, TransportEndpoint, TransportEvent, TransportMetrics,
};

/// What waits in an endpoint's inbox: either a fully encoded frame or
/// the synthetic `Connected` event of an explicit `connect` — the only
/// lifecycle event the sim has. Kept small: an idle endpoint's inbox
/// keeps the capacity its first frames gave it.
enum SimMsg {
    Frame(Vec<u8>),
    Connected(NodeAddr),
}

/// An inbox entry.
struct Scheduled {
    due: Instant,
    seq: u64,
    src: NodeAddr,
    msg: SimMsg,
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
    /// Frames in flight to this endpoint, due-time order.
    inbox: BinaryHeap<Reverse<Scheduled>>,
    connected: bool,
    /// Test instrumentation: mirror of every delivered frame body.
    tap: Option<Sender<Vec<u8>>>,
    /// Runtime readiness hook: told when the inbox's head falls due.
    notifier: Option<Arc<dyn ReadyNotifier>>,
}

/// What [`NetState::take`] found at the head of an inbox.
enum Take {
    Got(SimMsg),
    /// Nothing due; the head falls due then.
    NotYet(Instant),
    Empty,
    /// The endpoint is unregistered.
    Closed,
}

struct NetState {
    endpoints: HashMap<NodeAddr, EndpointSlot>,
    /// Normalized (low, high) pairs that cannot exchange messages.
    partitions: HashSet<(NodeAddr, NodeAddr)>,
    rng: Rng,
    cfg: NetConfig,
    next_seq: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<NetState>,
    /// Wakes threads blocked in a raw endpoint's receive.
    cv: Condvar,
    registry: Arc<Registry>,
    tmetrics: TransportMetrics,
    /// Records `transport.queue` spans for traced requests.
    tracer: syd_trace::Tracer,
    next_addr: AtomicU64,
    /// Due times and receive deadlines are read here.
    clock: Arc<dyn Clock>,
}

/// Handle to a simulated network. Cloning shares the network.
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

fn norm_pair(a: NodeAddr, b: NodeAddr) -> (NodeAddr, NodeAddr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl NetState {
    /// Files `msg` in `dst`'s inbox, due at `due`, and tells its reader if
    /// it is the new head. False if `dst` is not registered.
    fn file(
        &mut self,
        cv: &Condvar,
        src: NodeAddr,
        dst: NodeAddr,
        due: Instant,
        msg: SimMsg,
        queue_span: Option<QueueSpan>,
    ) -> bool {
        self.next_seq += 1;
        let seq = self.next_seq;
        let Some(slot) = self.endpoints.get_mut(&dst) else {
            return false;
        };
        let head = slot.inbox.peek().is_none_or(|Reverse(h)| due < h.due);
        slot.inbox.push(Reverse(Scheduled {
            due,
            seq,
            src,
            msg,
            queue_span,
        }));
        match &slot.notifier {
            Some(notifier) if head => notifier.notify(dst, due),
            Some(_) => {}
            None => cv.notify_all(),
        }
        true
    }

    /// Takes the first due message of `addr`'s inbox, dropping the frames
    /// the partition and connection rules swallow. A head not yet due is
    /// re-announced to the notifier, which arms the runtime's wake-up.
    fn take(&mut self, inner: &Inner, addr: NodeAddr) -> Take {
        let now = inner.clock.instant();
        loop {
            let Some(slot) = self.endpoints.get_mut(&addr) else {
                return Take::Closed;
            };
            let Some(Reverse(head)) = slot.inbox.peek() else {
                return Take::Empty;
            };
            if head.due > now {
                if let Some(notifier) = &slot.notifier {
                    notifier.notify(addr, head.due);
                }
                return Take::NotYet(head.due);
            }
            let Some(Reverse(msg)) = slot.inbox.pop() else {
                return Take::Empty;
            };
            let bytes = match msg.msg {
                SimMsg::Frame(bytes) => bytes,
                connected @ SimMsg::Connected(_) => return Take::Got(connected),
            };
            if self.partitions.contains(&norm_pair(msg.src, addr)) {
                inner.tmetrics.dropped_partition.inc();
                continue;
            }
            if !slot.connected {
                inner.tmetrics.dropped_disconnected.inc();
                continue;
            }
            inner.tmetrics.frames_in.inc();
            inner.tmetrics.bytes_in.add(bytes.len() as u64);
            if let Some(tap) = &slot.tap {
                let _ = tap.send(bytes.clone());
            }
            // Send → take is the sim's queueing time; the span hangs off
            // the request's RPC span so the critical-path analyzer can
            // subtract it.
            if let Some(qs) = msg.queue_span {
                qs.record(&inner.tracer);
            }
            return Take::Got(SimMsg::Frame(bytes));
        }
    }
}

impl Network {
    /// Creates a network on the wall clock.
    pub fn new(cfg: NetConfig) -> Self {
        Self::with_clock(cfg, Arc::clone(wall()))
    }

    /// Creates a network on `clock`, the one place a deployment's clock
    /// is chosen ([`Transport::clock`]): on a [`syd_types::SimClock`] the
    /// loop serving it moves time itself (DESIGN.md §13).
    pub fn with_clock(cfg: NetConfig, clock: Arc<dyn Clock>) -> Self {
        let registry = Arc::new(Registry::new());
        let tmetrics = TransportMetrics::preregister(&registry);
        Network {
            inner: Arc::new(Inner {
                state: Mutex::new(
                    Rank::Transport,
                    NetState {
                        endpoints: HashMap::new(),
                        partitions: HashSet::new(),
                        rng: Rng::new(cfg.seed),
                        cfg,
                        next_seq: 0,
                        shutdown: false,
                    },
                ),
                cv: Condvar::new(),
                registry,
                tmetrics,
                tracer: syd_trace::Tracer::new("transport-sim", crate::TRACE_DEVICE_SIM),
                next_addr: AtomicU64::new(1),
                clock,
            }),
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
        let mut state = self.inner.state.lock();
        if state.endpoints.contains_key(&addr) {
            return Err(SydError::Protocol(format!(
                "sim: address {addr:?} already registered"
            )));
        }
        state.endpoints.insert(
            addr,
            EndpointSlot {
                inbox: BinaryHeap::new(),
                connected: true,
                tap: None,
                notifier: None,
            },
        );
        drop(state);
        Ok(Endpoint {
            addr,
            net: self.clone(),
        })
    }

    /// Removes an endpoint; all further traffic to it, and what is still
    /// in flight to it, counts as unreachable.
    pub fn unregister(&self, addr: NodeAddr) {
        let removed = self.inner.state.lock().endpoints.remove(&addr);
        let Some(slot) = removed else { return };
        for Reverse(msg) in slot.inbox {
            if matches!(msg.msg, SimMsg::Frame(_)) {
                self.inner.tmetrics.dropped_unreachable.inc();
            }
        }
        // Wake whoever reads the endpoint so it observes the terminal
        // `Shutdown`.
        if let Some(notifier) = &slot.notifier {
            notifier.notify(addr, self.inner.clock.instant());
        }
        self.inner.cv.notify_all();
    }

    /// Marks an endpoint (dis)connected — the paper's mobile device going
    /// out of range. A request to a disconnected endpoint is answered with
    /// `Disconnected` (a refused connection); any other message is dropped.
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

    /// Stops the network: every later send fails with `Shutdown`, and
    /// frames still in flight are discarded. Idempotent.
    pub fn shutdown(&self) {
        let mut state = self.inner.state.lock();
        state.shutdown = true;
        for slot in state.endpoints.values_mut() {
            slot.inbox.clear();
        }
    }

    /// Injects an envelope into the network from `env.src`.
    ///
    /// Applies loss and fail-fast rules, samples latency, and files the
    /// frame in the destination's inbox. Returns the encoded size on
    /// success. `Unreachable` means the destination has never been
    /// registered (or was unregistered).
    pub fn send(&self, env: Envelope) -> SydResult<usize> {
        let bytes = encode_to_vec(&env);
        let size = bytes.len();
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if state.shutdown {
            return Err(SydError::Shutdown);
        }
        inner.tmetrics.frames_out.inc();
        inner.tmetrics.bytes_out.add(size as u64);

        let Some(slot) = state.endpoints.get(&env.dst) else {
            inner.tmetrics.dropped_unreachable.inc();
            return Err(SydError::Unreachable(env.dst));
        };

        // Fail fast for requests to a disconnected device: synthesize an
        // error response with the same latency as a real round trip half.
        if !slot.connected {
            if let Payload::Request(req) = &env.payload {
                let reply: Envelope = Envelope::new(
                    env.dst,
                    env.src,
                    Payload::Response(Response {
                        id: req.id,
                        result: Err(SydError::Disconnected(env.dst)),
                    }),
                );
                inner.tmetrics.dropped_disconnected.inc();
                let due = inner.clock.instant() + sample_latency(&mut state);
                let reply = SimMsg::Frame(encode_to_vec(&reply));
                if !state.file(&inner.cv, env.dst, env.src, due, reply, None) {
                    inner.tmetrics.dropped_unreachable.inc();
                }
                return Ok(size);
            }
        }

        // Random loss.
        let loss = state.cfg.loss;
        if loss > 0.0 && state.rng.unit() < loss {
            inner.tmetrics.dropped_loss.inc();
            return Ok(size);
        }

        let due = inner.clock.instant() + sample_latency(&mut state);
        let queue_span = QueueSpan::of(&env.payload);
        state.file(
            &inner.cv,
            env.src,
            env.dst,
            due,
            SimMsg::Frame(bytes),
            queue_span,
        );
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

    fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }
}

fn sample_latency(state: &mut NetState) -> Duration {
    let model = state.cfg.latency;
    if model.jitter.is_zero() {
        return model.base;
    }
    let jitter_micros = state.rng.below(model.jitter.as_micros() as u64 + 1);
    model.base + Duration::from_micros(jitter_micros)
}

/// A registered endpoint: the network-facing half of a device.
pub struct Endpoint {
    addr: NodeAddr,
    net: Network,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
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

    /// The next message of the inbox, waiting until it falls due, or until
    /// `deadline` passes (`Timeout`); `Shutdown` once unregistered.
    fn next(&self, deadline: Option<Instant>) -> SydResult<SimMsg> {
        let inner = &*self.net.inner;
        let mut state = inner.state.lock();
        loop {
            let wake = match state.take(inner, self.addr) {
                Take::Got(msg) => return Ok(msg),
                Take::Closed => return Err(SydError::Shutdown),
                Take::Empty => deadline,
                Take::NotYet(due) => Some(deadline.map_or(due, |d| d.min(due))),
            };
            if deadline.is_some_and(|d| d <= inner.clock.instant()) {
                return Err(SydError::Timeout(syd_types::RequestId::new(0)));
            }
            state = match wake {
                Some(at) => inner.cv.wait_until(state, &*inner.clock, at).0,
                None => inner.cv.wait(state),
            };
        }
    }

    /// The next message, without waiting: `None` when nothing is due.
    fn try_next(&self) -> Option<SydResult<SimMsg>> {
        let inner = &*self.net.inner;
        match inner.state.lock().take(inner, self.addr) {
            Take::Got(msg) => Some(Ok(msg)),
            Take::Closed => Some(Err(SydError::Shutdown)),
            Take::NotYet(_) | Take::Empty => None,
        }
    }

    /// Blocks up to `timeout` for a message. Synthetic lifecycle events
    /// are skipped; use [`TransportEndpoint::recv_event`] to observe them.
    pub fn recv_timeout(&self, timeout: Duration) -> SydResult<Envelope> {
        let deadline = Some(self.net.inner.clock.instant() + timeout);
        loop {
            if let SimMsg::Frame(bytes) = self.next(deadline)? {
                return self.decode(&bytes);
            }
        }
    }

    /// Non-blocking receive (lifecycle events skipped).
    pub fn try_recv(&self) -> Option<SydResult<Envelope>> {
        loop {
            match self.try_next()? {
                Ok(SimMsg::Frame(bytes)) => return Some(self.decode(&bytes)),
                Ok(SimMsg::Connected(_)) => {}
                Err(err) => return Some(Err(err)),
            }
        }
    }

    fn event_of(&self, msg: SimMsg) -> SydResult<TransportEvent> {
        match msg {
            SimMsg::Frame(bytes) => self.decode(&bytes).map(TransportEvent::Message),
            SimMsg::Connected(peer) => Ok(TransportEvent::Connected(peer)),
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
        let inner = &*self.net.inner;
        let mut state = inner.state.lock();
        if !state.endpoints.contains_key(&peer) {
            return Err(SydError::Unreachable(peer));
        }
        let connected = SimMsg::Connected(peer);
        let now = inner.clock.instant();
        if !state.file(&inner.cv, self.addr, self.addr, now, connected, None) {
            return Err(SydError::Shutdown);
        }
        inner.tmetrics.conns.inc();
        Ok(())
    }

    fn send(&self, env: Envelope) -> SydResult<usize> {
        self.net.send(env)
    }

    fn recv_event(&self) -> SydResult<TransportEvent> {
        let msg = self.next(None)?;
        self.event_of(msg)
    }

    fn recv_event_timeout(&self, timeout: Duration) -> SydResult<TransportEvent> {
        let msg = self.next(Some(self.net.inner.clock.instant() + timeout))?;
        self.event_of(msg)
    }

    fn try_recv_event(&self) -> Option<SydResult<TransportEvent>> {
        Some(self.try_next()?.and_then(|msg| self.event_of(msg)))
    }

    fn set_ready_notifier(&self, notifier: Arc<dyn ReadyNotifier>) {
        {
            let mut state = self.net.inner.state.lock();
            if let Some(slot) = state.endpoints.get_mut(&self.addr) {
                slot.notifier = Some(Arc::clone(&notifier));
            }
        }
        // Cover what was filed before installation: the drain this
        // triggers re-announces a head that is not yet due.
        notifier.notify(self.addr, self.net.inner.clock.instant());
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
