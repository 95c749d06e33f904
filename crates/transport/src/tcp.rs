//! Framed TCP backend: `syd-wire` envelopes over real sockets.
//!
//! Each endpoint owns one non-blocking `TcpListener` plus a small poll
//! thread that accepts, reads, writes and dials — the adapter/poll split
//! of message-io, scaled down to `std::net`. Frames are the body produced
//! by `syd_wire::encode_to_vec` behind a 4-byte little-endian length
//! prefix (see [`crate::framing`]), so the envelope bytes a peer observes
//! are identical to what the sim backend delivers.
//!
//! **Addressing.** A [`NodeAddr`] *is* the socket address:
//! `(ipv4 as u64) << 16 | port` (see [`node_addr_of`]). Dialing needs no
//! lookup service, and the first frame on every outbound connection is a
//! "hello" carrying the dialer's own listener address so the acceptor can
//! route replies back over the inbound connection (the accepted socket's
//! ephemeral port is not the peer's address).
//!
//! **Connections.** At most one live connection per peer, each with its
//! own write queue. A send to an unconnected peer queues the frame and
//! arms a dial; dial failures synthesize a `Disconnected` error response
//! for every queued request — the same fail-fast surface the sim's
//! `fail_fast_disconnected` rule produces, so the RPC retry layer treats
//! both backends identically. Subsequent dials back off exponentially
//! (10 ms doubling to a 1 s cap) and re-establishing a previously live
//! peer counts `transport.reconnects`. Simultaneous-open ties are broken
//! by address: the connection dialed by the lower [`NodeAddr`] survives.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use syd_telemetry::Registry;
use syd_types::queue::{self, Receiver, RecvError, Sender};
use syd_types::sync::{Condvar, Mutex, MutexGuard};
use syd_types::{NodeAddr, RequestId, SydError, SydResult};
use syd_wire::{decode_from_slice, encode_to_vec, Envelope, Payload, Response};

use crate::framing::{encode_frame, FrameDecoder};
use crate::{
    QueueSpan, ReadyNotifier, Transport, TransportEndpoint, TransportEvent, TransportMetrics,
};

/// How long the poll thread sleeps when idle.
const POLL_TICK: Duration = Duration::from_micros(500);
/// Blocking dial timeout (loopback/LAN scale).
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);
/// First retry delay after a failed dial.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Retry delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(1);
/// How long `close` keeps flushing queued writes before severing.
const CLOSE_GRACE: Duration = Duration::from_secs(1);
/// Hello frame body: the dialer's `NodeAddr` as 8 LE bytes.
const HELLO_LEN: usize = 8;

/// Maps a socket address to the node address that encodes it.
pub fn node_addr_of(sock: SocketAddrV4) -> NodeAddr {
    NodeAddr::new((u64::from(u32::from(*sock.ip())) << 16) | u64::from(sock.port()))
}

/// Recovers the socket address a TCP-backend node address encodes.
pub fn socket_addr_of(addr: NodeAddr) -> SocketAddrV4 {
    let raw = addr.raw();
    SocketAddrV4::new(Ipv4Addr::from((raw >> 16) as u32), (raw & 0xFFFF) as u16)
}

/// The TCP transport backend: a factory for framed endpoints bound on one
/// local IP. All endpoints share the transport's telemetry registry.
pub struct FramedTcpTransport {
    ip: Ipv4Addr,
    registry: Arc<Registry>,
    metrics: TransportMetrics,
}

impl FramedTcpTransport {
    /// A transport binding endpoints on `ip`.
    pub fn new(ip: Ipv4Addr) -> Self {
        let registry = Arc::new(Registry::new());
        let metrics = TransportMetrics::preregister(&registry);
        Self {
            ip,
            registry,
            metrics,
        }
    }

    /// A transport on 127.0.0.1 — the multi-process examples and tests.
    pub fn loopback() -> Self {
        Self::new(Ipv4Addr::LOCALHOST)
    }

    /// Binds an endpoint on an explicit port (0 picks an ephemeral one).
    pub fn listen_on(&self, port: u16) -> SydResult<Arc<FramedTcpEndpoint>> {
        FramedTcpEndpoint::bind(SocketAddrV4::new(self.ip, port), self.metrics.clone())
            .map(Arc::new)
    }
}

impl Transport for FramedTcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn listen(&self) -> SydResult<Arc<dyn TransportEndpoint>> {
        Ok(self.listen_on(0)?)
    }

    fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }
}

/// One live connection (either direction).
struct Conn {
    stream: TcpStream,
    /// `None` until an inbound connection identifies itself with a hello.
    peer: Option<NodeAddr>,
    /// True while this connection was accepted (vs dialed).
    inbound: bool,
    decoder: FrameDecoder,
    /// Encoded frames (length prefix included) awaiting the socket.
    outq: VecDeque<OutFrame>,
    /// Write offset into the front frame.
    out_pos: usize,
    /// True while the hello frame is still at the front of `outq`.
    hello_queued: bool,
}

/// One encoded frame awaiting a connection's socket, plus the
/// `transport.queue` span it records once fully flushed (traced
/// requests only).
struct OutFrame {
    bytes: Vec<u8>,
    queue_span: Option<QueueSpan>,
}

impl OutFrame {
    fn untraced(bytes: Vec<u8>) -> OutFrame {
        OutFrame {
            bytes,
            queue_span: None,
        }
    }
}

impl Conn {
    fn sever(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// A frame waiting for its peer's connection to come up.
struct Pending {
    frame: OutFrame,
    /// Set for request frames so a failed dial can synthesize the
    /// fail-fast `Disconnected` error response.
    request: Option<RequestId>,
}

/// Per-peer connection bookkeeping.
struct PeerSlot {
    conn: Option<u64>,
    queue: VecDeque<Pending>,
    /// A dial for this peer is in flight on the poll thread.
    dialing: bool,
    /// Explicit `connect()` asked for a connection even with no traffic.
    want_connect: bool,
    next_dial: Instant,
    backoff: Duration,
    ever_connected: bool,
}

impl PeerSlot {
    fn new() -> Self {
        Self {
            conn: None,
            queue: VecDeque::new(),
            dialing: false,
            want_connect: false,
            next_dial: Instant::now(),
            backoff: BACKOFF_BASE,
            ever_connected: false,
        }
    }
}

struct State {
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    peers: HashMap<NodeAddr, PeerSlot>,
    connected: bool,
    shutdown: bool,
    /// In-flight dial threads; reaped by the poll loop, joined on close.
    dials: Vec<JoinHandle<()>>,
}

struct Shared {
    addr: NodeAddr,
    state: Mutex<State>,
    cv: Condvar,
    events_tx: Sender<TransportEvent>,
    metrics: TransportMetrics,
    /// Records `transport.queue` spans for traced requests.
    tracer: syd_trace::Tracer,
    tap: Mutex<Option<Sender<Vec<u8>>>>,
    notifier: Mutex<Option<Arc<dyn ReadyNotifier>>>,
}

impl Shared {
    fn emit(&self, ev: TransportEvent) {
        let _ = self.events_tx.send(ev);
        if let Some(notifier) = self.notifier.lock().as_ref() {
            notifier.notify(self.addr, Instant::now());
        }
    }
}

/// A bound TCP endpoint: listener, poll thread, per-peer write queues.
///
/// Closing (explicitly or on drop) flushes queued writes for up to one
/// second, severs connections and joins the poll thread — no thread
/// outlives the endpoint.
pub struct FramedTcpEndpoint {
    addr: NodeAddr,
    shared: Arc<Shared>,
    events_rx: Receiver<TransportEvent>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl FramedTcpEndpoint {
    fn bind(sock: SocketAddrV4, metrics: TransportMetrics) -> SydResult<Self> {
        let listener =
            TcpListener::bind(sock).map_err(|e| SydError::App(format!("tcp bind {sock}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SydError::App(format!("tcp set_nonblocking: {e}")))?;
        let local = match listener
            .local_addr()
            .map_err(|e| SydError::App(format!("tcp local_addr: {e}")))?
        {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(v6) => {
                return Err(SydError::App(format!("tcp bound to ipv6 {v6}")));
            }
        };
        let addr = node_addr_of(local);
        let (events_tx, events_rx) = queue::channel();
        let shared = Arc::new(Shared {
            addr,
            state: Mutex::new(State {
                conns: HashMap::new(),
                next_conn_id: 1,
                peers: HashMap::new(),
                connected: true,
                shutdown: false,
                dials: Vec::new(),
            }),
            cv: Condvar::new(),
            events_tx,
            metrics,
            tracer: syd_trace::Tracer::new(
                format!("transport-tcp-{}", local.port()),
                crate::TRACE_DEVICE_TCP,
            ),
            tap: Mutex::new(None),
            notifier: Mutex::new(None),
        });
        let poll_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("syd-tcp-{}", local.port()))
            .spawn(move || poll_loop(&listener, &poll_shared))
            .map_err(|e| SydError::App(format!("tcp poll thread: {e}")))?;
        Ok(Self {
            addr,
            shared,
            events_rx,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The socket address this endpooint listens on.
    pub fn socket_addr(&self) -> SocketAddrV4 {
        socket_addr_of(self.addr)
    }
}

impl TransportEndpoint for FramedTcpEndpoint {
    fn addr(&self) -> NodeAddr {
        self.addr
    }

    fn connect(&self, peer: NodeAddr) -> SydResult<()> {
        if peer == self.addr {
            return Ok(()); // self-delivery is local, never a socket
        }
        let mut state = self.shared.state.lock();
        if state.shutdown {
            return Err(SydError::Shutdown);
        }
        if !state.connected {
            return Err(SydError::Disconnected(self.addr));
        }
        let slot = state.peers.entry(peer).or_insert_with(PeerSlot::new);
        if slot.conn.is_some() || slot.dialing {
            return Ok(()); // double-connect is a no-op
        }
        slot.want_connect = true;
        slot.next_dial = Instant::now();
        drop(state);
        self.shared.cv.notify_all();
        Ok(())
    }

    fn send(&self, env: Envelope) -> SydResult<usize> {
        let body = encode_to_vec(&env);
        let size = body.len();
        let dst = env.dst;
        let mut state = self.shared.state.lock();
        if state.shutdown {
            return Err(SydError::Shutdown);
        }
        if !state.connected {
            return Err(SydError::Disconnected(self.addr));
        }
        self.shared.metrics.frames_out.inc();
        self.shared.metrics.bytes_out.add(size as u64);
        if dst == self.addr {
            // A device talking to itself (coordinators mark their own
            // entities in every §4.3 round) stays off the wire: dialing
            // our own listener would make one socket whose two ends
            // fight the simultaneous-open tie-break — with equal
            // addresses the displaced end severs the surviving one and
            // the frame is lost until the caller's deadline retries.
            drop(state);
            self.shared.metrics.frames_in.inc();
            self.shared.metrics.bytes_in.add(size as u64);
            if let Some(tap) = self.shared.tap.lock().as_ref() {
                let _ = tap.send(body.clone());
            }
            self.shared.emit(TransportEvent::Message(env));
            return Ok(size);
        }
        let frame = OutFrame {
            bytes: encode_frame(&body),
            queue_span: QueueSpan::of(&env.payload),
        };
        let request = match &env.payload {
            Payload::Request(req) => Some(req.id),
            _ => None,
        };
        let live = state.peers.get(&dst).and_then(|slot| slot.conn);
        if let Some(conn) = live.and_then(|id| state.conns.get_mut(&id)) {
            conn.outq.push_back(frame);
            drop(state);
            self.shared.cv.notify_all();
            return Ok(size);
        }
        let slot = state.peers.entry(dst).or_insert_with(PeerSlot::new);
        if slot.conn.is_some() {
            slot.conn = None; // conn id points at a dead connection
        }
        slot.queue.push_back(Pending { frame, request });
        drop(state);
        self.shared.cv.notify_all();
        Ok(size)
    }

    fn recv_event(&self) -> SydResult<TransportEvent> {
        loop {
            match self.events_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(ev) => return Ok(ev),
                Err(RecvError::Empty) => {
                    if self.shared.state.lock().shutdown && self.events_rx.is_empty() {
                        return Err(SydError::Shutdown);
                    }
                }
                Err(RecvError::Disconnected) => return Err(SydError::Shutdown),
            }
        }
    }

    fn recv_event_timeout(&self, timeout: Duration) -> SydResult<TransportEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let step = left.min(Duration::from_millis(50));
            match self.events_rx.recv_timeout(step) {
                Ok(ev) => return Ok(ev),
                Err(RecvError::Empty) => {
                    if self.shared.state.lock().shutdown && self.events_rx.is_empty() {
                        return Err(SydError::Shutdown);
                    }
                    if Instant::now() >= deadline {
                        return Err(SydError::Timeout(RequestId::new(0)));
                    }
                }
                Err(RecvError::Disconnected) => return Err(SydError::Shutdown),
            }
        }
    }

    fn try_recv_event(&self) -> Option<SydResult<TransportEvent>> {
        match self.events_rx.try_recv() {
            Ok(ev) => Some(Ok(ev)),
            Err(RecvError::Empty) => {
                if self.shared.state.lock().shutdown && self.events_rx.is_empty() {
                    Some(Err(SydError::Shutdown))
                } else {
                    None
                }
            }
            Err(RecvError::Disconnected) => Some(Err(SydError::Shutdown)),
        }
    }

    fn set_ready_notifier(&self, notifier: Arc<dyn ReadyNotifier>) {
        *self.shared.notifier.lock() = Some(Arc::clone(&notifier));
        // Cover events that were enqueued before installation.
        notifier.notify(self.addr, Instant::now());
    }

    fn set_connected(&self, connected: bool) {
        let mut state = self.shared.state.lock();
        if state.connected == connected {
            return;
        }
        state.connected = connected;
        if !connected {
            sever_all(&self.shared, &mut state);
        }
        drop(state);
        self.shared.cv.notify_all();
    }

    fn is_connected(&self) -> bool {
        self.shared.state.lock().connected
    }

    fn kill_connections(&self) -> usize {
        let mut state = self.shared.state.lock();
        let killed = sever_all(&self.shared, &mut state);
        drop(state);
        self.shared.cv.notify_all();
        killed
    }

    fn set_frame_tap(&self, tx: Sender<Vec<u8>>) {
        *self.shared.tap.lock() = Some(tx);
    }

    fn close(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.shutdown {
                return;
            }
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
        // Dial threads are bounded by DIAL_TIMEOUT; join any stragglers
        // so no thread outlives the endpoint.
        let dials: Vec<JoinHandle<()>> = {
            let mut state = self.shared.state.lock();
            state.dials.drain(..).collect()
        };
        for handle in dials {
            let _ = handle.join();
        }
        // Ping the runtime loop so an event-driven node drains any
        // buffered events and observes the terminal `Shutdown`.
        let notifier = self.shared.notifier.lock().clone();
        if let Some(notifier) = notifier {
            notifier.notify(self.addr, Instant::now());
        }
    }
}

impl Drop for FramedTcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

/// Severs every live connection, emitting `Disconnected` per known peer.
fn sever_all(shared: &Shared, state: &mut State) -> usize {
    let mut killed = 0;
    for (_, conn) in state.conns.drain() {
        conn.sever();
        killed += 1;
        if let Some(peer) = conn.peer {
            shared.emit(TransportEvent::Disconnected(peer));
        }
    }
    for slot in state.peers.values_mut() {
        slot.conn = None;
    }
    killed
}

fn hello_frame(addr: NodeAddr) -> Vec<u8> {
    encode_frame(&addr.raw().to_le_bytes())
}

fn poll_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut to_dial: Vec<NodeAddr> = Vec::new();
    loop {
        to_dial.clear();
        let mut state = shared.state.lock();
        if state.shutdown {
            flush_on_close(shared, state);
            return;
        }
        let mut progressed = false;

        // Accept new inbound connections.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if !state.connected {
                        drop(stream); // radio off: refuse
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = state.next_conn_id;
                    state.next_conn_id += 1;
                    state.conns.insert(
                        id,
                        Conn {
                            stream,
                            peer: None,
                            inbound: true,
                            decoder: FrameDecoder::new(),
                            outq: VecDeque::new(),
                            out_pos: 0,
                            hello_queued: false,
                        },
                    );
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Service every connection (read, reassemble, write).
        let ids: Vec<u64> = state.conns.keys().copied().collect();
        for id in ids {
            service_conn(shared, &mut state, id, &mut read_buf, &mut progressed);
        }

        // Collect dials that are due.
        let now = Instant::now();
        let connected = state.connected;
        for (&peer, slot) in &mut state.peers {
            if connected
                && slot.conn.is_none()
                && !slot.dialing
                && (!slot.queue.is_empty() || slot.want_connect)
                && now >= slot.next_dial
            {
                slot.dialing = true;
                to_dial.push(peer);
            }
        }

        if to_dial.is_empty() {
            if !progressed {
                state = shared.cv.wait_timeout(state, POLL_TICK).0;
            }
            drop(state);
        } else {
            // Hand each dial to a short-lived thread: connect_timeout
            // blocks for up to DIAL_TIMEOUT, and the poll thread must
            // keep servicing live connections meanwhile.
            for peer in to_dial.drain(..) {
                let dial_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("syd-tcp-dial".into())
                    .spawn(move || dial_peer(&dial_shared, peer));
                match spawned {
                    Ok(handle) => state.dials.push(handle),
                    Err(_) => fail_dial(shared, &mut state, peer),
                }
            }
            state.dials.retain(|h| !h.is_finished());
            drop(state);
        }
    }
}

/// Reads, reassembles frames, and writes for one connection; reaps it on
/// any terminal condition.
fn service_conn(
    shared: &Shared,
    state: &mut State,
    id: u64,
    read_buf: &mut [u8],
    progressed: &mut bool,
) {
    let Some(mut conn) = state.conns.remove(&id) else {
        return;
    };
    let mut alive = true;
    let mut eof = false;

    // Drain the socket into the frame decoder. EOF does not discard what
    // is already buffered: the peer may have sent-then-closed, and those
    // frames must still surface (close() relies on this grace).
    loop {
        match conn.stream.read(read_buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                *progressed = true;
                conn.decoder.extend(&read_buf[..n]);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                eof = true;
                break;
            }
        }
    }

    // Surface completed frames (hello first on inbound connections).
    while alive {
        match conn.decoder.next_frame() {
            Ok(Some(body)) => {
                *progressed = true;
                if conn.inbound && conn.peer.is_none() {
                    if body.len() != HELLO_LEN {
                        shared.metrics.frame_errors.inc();
                        alive = false;
                        break;
                    }
                    let mut raw_b = [0u8; HELLO_LEN];
                    raw_b.copy_from_slice(&body);
                    let peer = NodeAddr::new(u64::from_le_bytes(raw_b));
                    conn.peer = Some(peer);
                    // Adopt immediately, so `Accepted` is observed before
                    // any message that rode the same read batch.
                    if !adopt_inbound(shared, state, &mut conn, id, peer) {
                        // Our outbound connection won the simultaneous-open
                        // tie: drop this one silently (the dialer's side
                        // applies the mirror rule).
                        conn.sever();
                        return;
                    }
                } else {
                    shared.metrics.frames_in.inc();
                    shared.metrics.bytes_in.add(body.len() as u64);
                    if let Some(tap) = shared.tap.lock().as_ref() {
                        let _ = tap.send(body.clone());
                    }
                    match decode_from_slice::<Envelope>(&body) {
                        Ok(env) => shared.emit(TransportEvent::Message(env)),
                        Err(_) => shared.metrics.frame_errors.inc(),
                    }
                }
            }
            Ok(None) => break,
            Err(_) => {
                shared.metrics.frame_errors.inc();
                alive = false;
                break;
            }
        }
    }

    // Only after the buffered frames have surfaced does EOF retire the
    // connection.
    if eof {
        alive = false;
    }

    // Flush the write queue.
    while alive {
        let Some(front) = conn.outq.front() else {
            break;
        };
        match conn.stream.write(&front.bytes[conn.out_pos..]) {
            Ok(0) => {
                alive = false;
            }
            Ok(n) => {
                *progressed = true;
                conn.out_pos += n;
                if conn.out_pos == front.bytes.len() {
                    if let Some(frame) = conn.outq.pop_front() {
                        // Enqueue → full flush is the TCP backend's
                        // queueing time (dial wait + write-queue wait).
                        if let Some(qs) = frame.queue_span {
                            qs.record(&shared.tracer);
                        }
                    }
                    conn.out_pos = 0;
                    conn.hello_queued = false;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                alive = false;
            }
        }
    }

    if alive {
        state.conns.insert(id, conn);
    } else {
        conn.sever();
        if let Some(peer) = conn.peer {
            if let Some(slot) = state.peers.get_mut(&peer) {
                if slot.conn == Some(id) {
                    slot.conn = None;
                    shared.emit(TransportEvent::Disconnected(peer));
                }
            }
        }
    }
}

/// An inbound connection just identified itself: route the peer's slot
/// through it, displacing any previous connection. Returns `false` when
/// the simultaneous-open tie-break says our outbound connection wins and
/// the inbound one must be dropped.
fn adopt_inbound(
    shared: &Shared,
    state: &mut State,
    conn: &mut Conn,
    id: u64,
    peer: NodeAddr,
) -> bool {
    let slot = state.peers.entry(peer).or_insert_with(PeerSlot::new);
    let keep_existing = slot.conn.is_some_and(|old_id| {
        state
            .conns
            .get(&old_id)
            .is_some_and(|old| !old.inbound && shared.addr < peer)
    });
    if keep_existing {
        return false;
    }
    let slot = state.peers.entry(peer).or_insert_with(PeerSlot::new);
    if let Some(old_id) = slot.conn.take() {
        if let Some(mut old) = state.conns.remove(&old_id) {
            // Transfer unflushed frames; skip a still-queued
            // hello (the peer dialed us, it knows our address).
            if old.hello_queued {
                old.outq.pop_front();
                old.out_pos = 0;
            }
            conn.outq.extend(old.outq.drain(..));
            old.sever();
            shared.emit(TransportEvent::Disconnected(peer));
        }
    }
    let slot = state.peers.entry(peer).or_insert_with(PeerSlot::new);
    // Any frames queued while unconnected ride this connection.
    for pending in slot.queue.drain(..) {
        conn.outq.push_back(pending.frame);
    }
    slot.conn = Some(id);
    slot.backoff = BACKOFF_BASE;
    shared.metrics.accepts.inc();
    shared.metrics.conns.inc();
    if slot.ever_connected {
        shared.metrics.reconnects.inc();
    }
    slot.ever_connected = true;
    shared.emit(TransportEvent::Accepted(peer));
    true
}

/// Dials one peer on its own short-lived thread; the blocking connect
/// happens here, off the poll thread, and the result is integrated by
/// [`finish_dial`].
fn dial_peer(shared: &Arc<Shared>, peer: NodeAddr) {
    let target = SocketAddr::V4(socket_addr_of(peer));
    let result = TcpStream::connect_timeout(&target, DIAL_TIMEOUT);
    finish_dial(shared, peer, result);
}

/// Integrates a completed dial attempt back into the state.
fn finish_dial(shared: &Arc<Shared>, peer: NodeAddr, result: io::Result<TcpStream>) {
    let mut state = shared.state.lock();
    {
        let slot = state.peers.entry(peer).or_insert_with(PeerSlot::new);
        slot.dialing = false;
        slot.want_connect = false;
    }
    let stream = match result {
        Ok(stream) if !state.shutdown && state.connected => stream,
        // Failed, or shut down / radio off while the dial was in flight.
        _ => {
            fail_dial(shared, &mut state, peer);
            return;
        }
    };
    if state.peers.get(&peer).is_some_and(|s| s.conn.is_some()) {
        // An inbound connection from the peer won the race.
        if let Some(slot) = state.peers.get_mut(&peer) {
            slot.backoff = BACKOFF_BASE;
        }
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        fail_dial(shared, &mut state, peer);
        return;
    }
    let _ = stream.set_nodelay(true);
    let id = state.next_conn_id;
    state.next_conn_id += 1;
    let mut outq = VecDeque::new();
    outq.push_back(OutFrame::untraced(hello_frame(shared.addr)));
    let slot = state.peers.entry(peer).or_insert_with(PeerSlot::new);
    for pending in slot.queue.drain(..) {
        outq.push_back(pending.frame);
    }
    slot.conn = Some(id);
    slot.backoff = BACKOFF_BASE;
    let reconnect = slot.ever_connected;
    slot.ever_connected = true;
    state.conns.insert(
        id,
        Conn {
            stream,
            peer: Some(peer),
            inbound: false,
            decoder: FrameDecoder::new(),
            outq,
            out_pos: 0,
            hello_queued: true,
        },
    );
    shared.metrics.conns.inc();
    if reconnect {
        shared.metrics.reconnects.inc();
    }
    shared.emit(TransportEvent::Connected(peer));
}

/// A dial failed: back off, and fail-fast every queued request with the
/// same `Disconnected` error response the sim synthesizes for requests
/// to a disconnected endpoint.
fn fail_dial(shared: &Shared, state: &mut State, peer: NodeAddr) {
    let self_addr = shared.addr;
    let Some(slot) = state.peers.get_mut(&peer) else {
        return;
    };
    slot.next_dial = Instant::now() + slot.backoff;
    slot.backoff = (slot.backoff * 2).min(BACKOFF_CAP);
    let queued = std::mem::take(&mut slot.queue);
    for pending in queued {
        if let Some(id) = pending.request {
            shared.emit(TransportEvent::Message(Envelope::new(
                peer,
                self_addr,
                Payload::Response(Response {
                    id,
                    result: Err(SydError::Disconnected(peer)),
                }),
            )));
        }
        // Queued events and responses are dropped, like sim loss.
    }
}

/// Best-effort flush of queued writes before the endpoint goes away.
/// Waits on the condvar between rounds so the state lock is released
/// while idle — `close()` callers and late senders are never stalled
/// behind the grace period.
fn flush_on_close(shared: &Shared, mut state: MutexGuard<'_, State>) {
    let deadline = Instant::now() + CLOSE_GRACE;
    loop {
        let mut pending = false;
        for conn in state.conns.values_mut() {
            while let Some(front) = conn.outq.front() {
                match conn.stream.write(&front.bytes[conn.out_pos..]) {
                    Ok(0) => {
                        conn.outq.clear();
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        if conn.out_pos == front.bytes.len() {
                            if let Some(frame) = conn.outq.pop_front() {
                                if let Some(qs) = frame.queue_span {
                                    qs.record(&shared.tracer);
                                }
                            }
                            conn.out_pos = 0;
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.outq.clear();
                        break;
                    }
                }
            }
            if !conn.outq.is_empty() {
                pending = true;
            }
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        state = shared.cv.wait_timeout(state, POLL_TICK).0;
    }
    for conn in state.conns.values() {
        conn.sever();
    }
    state.conns.clear();
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn node_addr_socket_addr_round_trip() {
        let sock = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 45678);
        let addr = node_addr_of(sock);
        assert_eq!(socket_addr_of(addr), sock);
        // Distinct ports map to distinct addresses.
        assert_ne!(
            node_addr_of(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 1)),
            node_addr_of(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 2)),
        );
    }

    #[test]
    fn hello_frame_is_framed_addr() {
        let addr = NodeAddr::new(0x7F00_0001_ABCD);
        let frame = hello_frame(addr);
        assert_eq!(frame.len(), 4 + HELLO_LEN);
        assert_eq!(&frame[4..], &addr.raw().to_le_bytes());
    }
}
