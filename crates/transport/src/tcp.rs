//! Framed TCP backend: `syd-wire` envelopes over real sockets.
//!
//! Plain blocking `std::net`: each endpoint runs one accept thread and one
//! reader thread per connection, and [`TransportEndpoint::send`] writes
//! the frame on the caller's thread, dialing first when the peer has no
//! connection yet. Frames are the body produced by
//! `syd_wire::encode_to_vec` behind a 4-byte little-endian length prefix
//! (see [`crate::framing`]), so the envelope bytes a peer observes are
//! identical to what the sim backend delivers.
//!
//! **Addressing.** A [`NodeAddr`] *is* the socket address:
//! `(ipv4 as u64) << 16 | port` (see [`node_addr_of`]). Dialing needs no
//! lookup service, and the first frame on every outbound connection is a
//! "hello" carrying the dialer's own listener address so the acceptor can
//! route replies back over the inbound connection (the accepted socket's
//! ephemeral port is not the peer's address).
//!
//! **Routes.** A peer's *route* is the connection frames to it are
//! written to: the one `send` dialed, or the one the peer dialed, whichever
//! was registered first. A route changes only when it fails, so one
//! sender's frames arrive in order. A failed dial or write is `send`'s
//! `Err(Disconnected(peer))`, the transient error the RPC layer retries,
//! and a failed write drops its route at once so the next send re-dials.
//! There is no backoff: the caller's retry waves pace re-dials.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use syd_telemetry::Registry;
use syd_types::queue::{self, Receiver, RecvError, Sender};
use syd_types::sync::{self, Mutex, Rank};
use syd_types::{NodeAddr, RequestId, SydError, SydResult};
use syd_wire::{decode_from_slice, encode_to_vec, Envelope};

use crate::framing::{encode_frame, FrameDecoder};
use crate::{
    QueueSpan, ReadyNotifier, Transport, TransportEndpoint, TransportEvent, TransportMetrics,
};

/// How long a dial may take before `send` gives up on the peer
/// (loopback/LAN scale).
pub const DIAL_TIMEOUT: Duration = Duration::from_millis(250);
/// How long one frame's write may block on a peer that stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);
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

/// One live connection, either direction. Its reader thread reads the
/// socket; senders write whole frames to it under `writer`.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// Held across one frame's `write_all`, so frames never interleave.
    writer: Mutex<()>,
}

impl Conn {
    fn write_frame(&self, frame: &[u8]) -> io::Result<()> {
        let _writing = self.writer.lock();
        (&self.stream).write_all(frame)
    }

    fn sever(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

struct State {
    /// Every live connection, so a fault or `close` can sever them all.
    conns: HashMap<u64, Arc<Conn>>,
    /// The connection each peer's frames are written to.
    routes: HashMap<NodeAddr, Arc<Conn>>,
    /// Peers this endpoint has ever had a connection with, for
    /// `transport.reconnects`.
    seen: HashSet<NodeAddr>,
    next_conn_id: u64,
    connected: bool,
    shutdown: bool,
    /// The accept thread and every reader; joined on close.
    threads: Vec<JoinHandle<()>>,
}

impl State {
    /// Refuses traffic once closed or while the radio is off.
    fn check(&self, addr: NodeAddr) -> SydResult<()> {
        if self.shutdown {
            Err(SydError::Shutdown)
        } else if !self.connected {
            Err(SydError::Disconnected(addr))
        } else {
            Ok(())
        }
    }

    /// Counts a new connection with `peer`.
    fn count(&mut self, metrics: &TransportMetrics, peer: NodeAddr) {
        metrics.conns.inc();
        if !self.seen.insert(peer) {
            metrics.reconnects.inc();
        }
    }

    /// Stops routing `peer` through connection `id`.
    fn unroute(&mut self, peer: NodeAddr, id: u64) {
        if self.routes.get(&peer).is_some_and(|r| r.id == id) {
            self.routes.remove(&peer);
        }
    }

    /// Severs every connection and forgets every route; each reader then
    /// sees its socket end and reports the peer `Disconnected`.
    fn sever_all(&mut self) -> usize {
        self.routes.clear();
        let killed = self.conns.len();
        for (_, conn) in self.conns.drain() {
            conn.sever();
        }
        killed
    }
}

struct Shared {
    addr: NodeAddr,
    state: Mutex<State>,
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

    /// One received frame body: counted, tapped, decoded and emitted.
    fn deliver(&self, body: Vec<u8>) {
        self.metrics.frames_in.inc();
        self.metrics.bytes_in.add(body.len() as u64);
        if let Some(tap) = self.tap.lock().as_ref() {
            let _ = tap.send(body.clone());
        }
        match decode_from_slice::<Envelope>(&body) {
            Ok(env) => self.emit(TransportEvent::Message(env)),
            Err(_) => self.metrics.frame_errors.inc(),
        }
    }

    /// Registers a connection and starts its reader. `peer` is `None` for
    /// an accepted connection until its hello names the peer.
    fn open(
        self: &Arc<Self>,
        state: &mut State,
        stream: TcpStream,
        peer: Option<NodeAddr>,
    ) -> io::Result<Arc<Conn>> {
        let conn = Arc::new(Conn {
            id: state.next_conn_id,
            stream,
            writer: Mutex::new(Rank::Transport, ()),
        });
        state.next_conn_id += 1;
        let (shared, reader) = (Arc::clone(self), Arc::clone(&conn));
        let handle = std::thread::Builder::new()
            .name(format!("syd-tcpr-{}", socket_addr_of(self.addr).port()))
            .spawn(move || read_loop(&shared, &reader, peer))?;
        state.threads.retain(|h| !h.is_finished());
        state.threads.push(handle);
        state.conns.insert(conn.id, Arc::clone(&conn));
        Ok(conn)
    }

    /// An accepted connection's hello names `peer`: the connection becomes
    /// the peer's route unless it already has one. `false` when the
    /// connection was severed meanwhile.
    fn adopt(&self, conn: &Arc<Conn>, peer: NodeAddr) -> bool {
        let mut state = self.state.lock();
        if !state.conns.contains_key(&conn.id) {
            return false;
        }
        state.routes.entry(peer).or_insert_with(|| Arc::clone(conn));
        self.metrics.accepts.inc();
        state.count(&self.metrics, peer);
        drop(state);
        self.emit(TransportEvent::Accepted(peer));
        true
    }
}

/// A bound TCP endpoint: listener, accept thread, one reader per
/// connection.
///
/// Closing (explicitly or on drop) severs every connection and joins
/// every thread — no thread outlives the endpoint. Nothing needs flushing:
/// a frame is written by the time `send` returns.
pub struct FramedTcpEndpoint {
    addr: NodeAddr,
    shared: Arc<Shared>,
    events_rx: Receiver<TransportEvent>,
}

impl FramedTcpEndpoint {
    fn bind(sock: SocketAddrV4, metrics: TransportMetrics) -> SydResult<Self> {
        let listener =
            TcpListener::bind(sock).map_err(|e| SydError::App(format!("tcp bind {sock}: {e}")))?;
        let local = listener.local_addr();
        let Ok(SocketAddr::V4(local)) = local else {
            return Err(SydError::App(format!("tcp local_addr: {local:?}")));
        };
        let addr = node_addr_of(local);
        let (events_tx, events_rx) = queue::channel();
        let shared = Arc::new(Shared {
            addr,
            state: Mutex::new(
                Rank::Transport,
                State {
                    conns: HashMap::new(),
                    routes: HashMap::new(),
                    seen: HashSet::new(),
                    next_conn_id: 1,
                    connected: true,
                    shutdown: false,
                    threads: Vec::new(),
                },
            ),
            events_tx,
            metrics,
            tracer: syd_trace::Tracer::new(
                format!("transport-tcp-{}", local.port()),
                crate::TRACE_DEVICE_TCP,
            ),
            tap: Mutex::new(Rank::Transport, None),
            notifier: Mutex::new(Rank::Transport, None),
        });
        let accept_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("syd-tcpa-{}", local.port()))
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(|e| SydError::App(format!("tcp accept thread: {e}")))?;
        shared.state.lock().threads.push(thread);
        Ok(Self {
            addr,
            shared,
            events_rx,
        })
    }

    /// The socket address this endpoint listens on.
    pub fn socket_addr(&self) -> SocketAddrV4 {
        socket_addr_of(self.addr)
    }

    /// The connection frames to `peer` are written to, dialing one first
    /// when there is none.
    fn route(&self, peer: NodeAddr) -> SydResult<Arc<Conn>> {
        {
            let state = self.shared.state.lock();
            state.check(self.addr)?;
            if let Some(conn) = state.routes.get(&peer) {
                return Ok(Arc::clone(conn));
            }
        }
        let stream = self.dial(peer).map_err(|_| SydError::Disconnected(peer))?;
        // Registered here, before `send` returns, so the next send finds it.
        let mut state = self.shared.state.lock();
        state.check(self.addr)?;
        let conn = self
            .shared
            .open(&mut state, stream, Some(peer))
            .map_err(|_| SydError::Disconnected(peer))?;
        state.count(&self.shared.metrics, peer);
        // A route that appeared while this dial was in flight (a
        // concurrent send, or the peer dialing us) stays the route; the
        // new connection only reads.
        let route = Arc::clone(state.routes.entry(peer).or_insert(conn));
        drop(state);
        self.shared.emit(TransportEvent::Connected(peer));
        Ok(route)
    }

    /// Connects to `peer` and introduces this endpoint with the hello.
    fn dial(&self, peer: NodeAddr) -> io::Result<TcpStream> {
        let target = SocketAddr::V4(socket_addr_of(peer));
        // At most `DIAL_TIMEOUT`, announced: a pool worker hands its turn on.
        let stream = sync::connect_timeout(&target, DIAL_TIMEOUT);
        let stream = tune(stream?)?;
        (&stream).write_all(&hello_frame(self.addr))?;
        Ok(stream)
    }
}

/// Socket options every connection gets: frames leave at once, and a
/// write to a peer that stopped reading gives up.
fn tune(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    Ok(stream)
}

impl TransportEndpoint for FramedTcpEndpoint {
    fn addr(&self) -> NodeAddr {
        self.addr
    }

    fn connect(&self, peer: NodeAddr) -> SydResult<()> {
        if peer == self.addr {
            return Ok(()); // self-delivery is local, never a socket
        }
        self.route(peer).map(|_| ())
    }

    fn send(&self, env: Envelope) -> SydResult<usize> {
        let body = encode_to_vec(&env);
        let size = body.len();
        let dst = env.dst;
        self.shared.state.lock().check(self.addr)?;
        self.shared.metrics.frames_out.inc();
        self.shared.metrics.bytes_out.add(size as u64);
        if dst == self.addr {
            // A raw endpoint talking to itself stays off the wire.
            self.shared.deliver(body);
            return Ok(size);
        }
        // Dial and write are this backend's queueing time.
        let queue_span = QueueSpan::of(&env.payload);
        let conn = self.route(dst)?;
        if conn.write_frame(&encode_frame(&body)).is_err() {
            // Unrouted now, not at the reader's EOF: the caller's next
            // wave must re-dial rather than reuse the dead socket.
            conn.sever();
            self.shared.state.lock().unroute(dst, conn.id);
            return Err(SydError::Disconnected(dst));
        }
        if let Some(qs) = queue_span {
            qs.record(&self.shared.tracer);
        }
        Ok(size)
    }

    fn recv_event(&self) -> SydResult<TransportEvent> {
        loop {
            match self.recv_event_timeout(Duration::from_secs(60)) {
                Err(SydError::Timeout(_)) => {}
                done => return done,
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
        state.connected = connected;
        if !connected {
            state.sever_all();
        }
    }

    fn is_connected(&self) -> bool {
        self.shared.state.lock().connected
    }

    fn kill_connections(&self) -> usize {
        self.shared.state.lock().sever_all()
    }

    fn set_frame_tap(&self, tx: Sender<Vec<u8>>) {
        *self.shared.tap.lock() = Some(tx);
    }

    fn close(&self) {
        let threads = {
            let mut state = self.shared.state.lock();
            if state.shutdown {
                return;
            }
            state.shutdown = true;
            state.sever_all();
            std::mem::take(&mut state.threads)
        };
        // Wake the blocking `accept`; it sees `shutdown` and returns.
        let _ = sync::connect_timeout(&SocketAddr::V4(self.socket_addr()), DIAL_TIMEOUT);
        for handle in threads {
            sync::join(handle);
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

fn hello_frame(addr: NodeAddr) -> Vec<u8> {
    encode_frame(&addr.raw().to_le_bytes())
}

/// Accepts connections until the endpoint closes; refuses them while the
/// radio is off.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        let mut state = shared.state.lock();
        if state.shutdown {
            return;
        }
        if let Ok(stream) = stream.and_then(tune) {
            if state.connected {
                let _ = shared.open(&mut state, stream, None);
            }
        }
    }
}

/// Reads one connection until it ends: the hello first on an accepted
/// connection, then envelope frames. On EOF or error it retires the
/// connection and reports the peer `Disconnected`.
fn read_loop(shared: &Shared, conn: &Arc<Conn>, mut peer: Option<NodeAddr>) {
    let mut buf = vec![0u8; 16 * 1024];
    let mut decoder = FrameDecoder::new();
    'read: loop {
        let n = match (&conn.stream).read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        decoder.extend(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(body)) if peer.is_some() => shared.deliver(body),
                Ok(Some(body)) => {
                    let Ok(raw) = <[u8; HELLO_LEN]>::try_from(body.as_slice()) else {
                        shared.metrics.frame_errors.inc();
                        break 'read;
                    };
                    let hello = NodeAddr::new(u64::from_le_bytes(raw));
                    if !shared.adopt(conn, hello) {
                        break 'read;
                    }
                    peer = Some(hello);
                }
                Ok(None) => break,
                Err(_) => {
                    shared.metrics.frame_errors.inc();
                    break 'read;
                }
            }
        }
    }
    conn.sever();
    let mut state = shared.state.lock();
    state.conns.remove(&conn.id);
    if let Some(peer) = peer {
        state.unroute(peer, conn.id);
        drop(state);
        shared.emit(TransportEvent::Disconnected(peer));
    }
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
