//! A network node: transport endpoint + RPC client + dispatcher.
//!
//! [`Node`] is what the SyD kernel builds a device on. It owns one
//! transport endpoint (any [`TransportEndpoint`] — simulated channel or
//! real TCP socket), demultiplexes incoming traffic (responses →
//! pending-call table, requests/events → worker pool), and exposes
//! blocking [`Node::call`] / non-blocking [`Node::call_async`] semantics.
//! Deadlines and transient-failure retries are decided in one place,
//! [`Node::call_many`]; every blocking call above this crate is a caller
//! of it.
//!
//! The pending table is the reply slot: a response is written into its
//! call's entry with the moment it arrived, and a waiter collects its whole
//! wave in one condvar wait, woken once, by the wave's last reply.
//!
//! A call to the node's own address never reaches the transport: it is
//! served by the same pool job a received request gets, and the job
//! writes its result straight into the caller's entry. Handler,
//! credential check, counters, spans and the collect loop are the same;
//! there is no frame, so no latency, loss or partition.
//!
//! A node owns no thread. It is a state machine registered with its
//! backend's [`crate::runtime::SharedRuntime`]: the runtime's loop drains
//! the endpoint when the transport signals readiness, and requests and
//! events become jobs on the shared pool, queued without a hand-off: the
//! loop hands out the turns they need once per pass. An RPC's deadline is
//! the wait of the caller's own thread, on the deployment's clock.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
#[cfg(test)]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use syd_telemetry::{trace, Counter, Histogram, Journal, Registry, SpanCtx};
use syd_transport::{Network, Transport, TransportEndpoint, TransportEvent};
use syd_types::sync::{self, Condvar, Mutex, Rank, RwLock};
use syd_types::{
    Blob, NodeAddr, RequestId, ServiceName, SimClock, SydError, SydResult, UserId, Value,
};
use syd_wire::{Args, EventMsg, Payload, Request, Response, TraceContext};

use crate::rpc::{Call, CallOptions, PendingCall};
use crate::runtime::{runtime_for, DrainOutcome, SharedRuntime};
use syd_telemetry::names;
use syd_trace::{now_us, Tracer};

/// Serves incoming requests on a node.
///
/// The handler runs on a pool worker and may freely perform nested remote
/// calls (see [`crate::pool::WorkerPool`]). The returned value or error
/// travels back to the caller as the response.
pub trait RequestHandler: Send + Sync + 'static {
    /// Handles one request from `from`.
    fn handle(&self, from: NodeAddr, request: Request) -> SydResult<Value>;
}

impl<F> RequestHandler for F
where
    F: Fn(NodeAddr, Request) -> SydResult<Value> + Send + Sync + 'static,
{
    fn handle(&self, from: NodeAddr, request: Request) -> SydResult<Value> {
        self(from, request)
    }
}

/// Receives fire-and-forget events on a node.
pub trait EventSink: Send + Sync + 'static {
    /// Handles one event from `from`.
    fn on_event(&self, from: NodeAddr, event: EventMsg);
}

impl<F> EventSink for F
where
    F: Fn(NodeAddr, EventMsg) + Send + Sync + 'static,
{
    fn on_event(&self, from: NodeAddr, event: EventMsg) {
        self(from, event);
    }
}

/// Preregistered metric handles for the RPC hot path. Recording through
/// any of these is a relaxed atomic op — no lock, no allocation — which
/// is what keeps `rpc_round_trip/ideal` flat after instrumentation.
pub(crate) struct NodeMetrics {
    /// `rpc.call` — latency of every answered RPC, send to its own
    /// response's arrival (microseconds). Fed by `NodeShared::collect` only.
    rpc_call: Histogram,
    /// `rpc.retries` — re-sends, one per request of every wave after a
    /// set's first. Fed by [`Node::call_many`] only.
    rpc_retries: Counter,
    /// `rpc.timeouts` — sends that hit their deadline. Fed by
    /// `NodeShared::collect` only.
    rpc_timeouts: Counter,
    /// `rpc.requests_served` — inbound requests dispatched to a handler.
    requests_served: Counter,
}

impl NodeMetrics {
    fn preregister(registry: &Registry) -> Self {
        Self {
            rpc_call: registry.histogram(names::RPC_CALL),
            rpc_retries: registry.counter(names::RPC_RETRIES),
            rpc_timeouts: registry.counter(names::RPC_TIMEOUTS),
            requests_served: registry.counter(names::RPC_REQUESTS_SERVED),
        }
    }
}

/// A call's entry in its node's pending table.
#[derive(Default)]
pub(crate) struct Slot {
    /// The reply and when it arrived ([`now_us`]); `None` while waiting.
    reply: Option<(SydResult<Value>, u64)>,
    /// The wave collecting the call, named by its first call's id; set
    /// when a collector starts to wait for it.
    wave: Option<RequestId>,
    /// On a wave's first call: how many of the wave's calls still wait.
    open: usize,
}

/// Fills `id`'s slot if it still waits: duplicates and late replies drop.
/// Returns whether that answered the last open call of a collected wave.
fn fill(table: &mut HashMap<RequestId, Slot>, id: RequestId, result: SydResult<Value>) -> bool {
    let Some(slot @ Slot { reply: None, .. }) = table.get_mut(&id) else {
        return false;
    };
    slot.reply = Some((result, now_us()));
    let Some(wave) = slot.wave else {
        return false; // not collected yet: its collector counts it filled
    };
    table.get_mut(&wave).is_some_and(|first| {
        first.open = first.open.saturating_sub(1);
        first.open == 0
    })
}

pub(crate) struct NodeShared {
    addr: NodeAddr,
    link: Arc<dyn TransportEndpoint>,
    /// Reply slots of the calls in flight, taken by the collect loop or
    /// removed by a [`PendingCall`] dropped unwaited.
    pub(crate) pending: Mutex<HashMap<RequestId, Slot>>,
    /// Notified when a collected wave's last call is filled, and at
    /// shutdown.
    answered: Condvar,
    /// Times a collector woke from `answered`.
    #[cfg(test)]
    wakes: AtomicUsize,
    next_request: AtomicU64,
    handler: RwLock<Option<Arc<dyn RequestHandler>>>,
    events: RwLock<Option<Arc<dyn EventSink>>>,
    /// The calling user and its sealed credentials, copied into every
    /// request: inline, so the copy allocates nothing.
    identity: RwLock<(UserId, Blob)>,
    /// The runtime this node is multiplexed onto: its reactor drains
    /// `link`, its pool runs the handlers.
    runtime: SharedRuntime,
    registry: Arc<Registry>,
    metrics: NodeMetrics,
    /// Records into the node's one log: `rpc.client` / `rpc.server`
    /// spans land there, higher layers (kernel, calendar) record spans
    /// through it too, and the kernel journals its events into the same
    /// log ([`Node::journal`]).
    tracer: Tracer,
}

impl NodeShared {
    /// The one collect loop, of a [`Node::call_many`] wave or a lone
    /// [`PendingCall::wait`]: waits until every call has its reply or
    /// `timeout` has passed on the deployment's clock, then takes each out
    /// into `results[index]` (else `Timeout`). Every
    /// RPC ends here, so `rpc.call`, `rpc.timeouts` and `rpc.client` are fed here,
    /// each call timed to its own reply's arrival.
    pub(crate) fn collect(
        &self,
        wave: &mut [(usize, PendingCall)],
        timeout: Duration,
        results: &mut [SydResult<Value>],
    ) {
        let Some(first) = wave.first().map(|(_, call)| call.id) else {
            return;
        };
        let mut table = self.pending.lock();
        // Every call still waiting joins the wave, and its first call counts
        // them; `fill` notifies once that count reaches 0.
        let mut open = 0;
        for (_, call) in wave.iter() {
            if let Some(slot @ Slot { reply: None, .. }) = table.get_mut(&call.id) {
                slot.wave = Some(first);
                open += 1;
            }
        }
        if let Some(slot) = table.get_mut(&first) {
            slot.open = open;
        }
        let clock = &**self.runtime.clock();
        let deadline = clock.instant() + timeout;
        let mut due = timeout.is_zero();
        while !due && table.get(&first).is_some_and(|slot| slot.open > 0) {
            (table, due) = self.answered.wait_until(table, clock, deadline);
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
        for (i, call) in wave.iter_mut() {
            let reply = table.remove(&call.id).and_then(|slot| slot.reply);
            let (result, at) = reply.unwrap_or_else(|| (Err(SydError::Timeout(call.id)), now_us()));
            let sent = call
                .span
                .as_ref()
                .map_or(at, syd_trace::FinishSpan::start_us);
            match &result {
                Ok(_) => self.metrics.rpc_call.record(at.saturating_sub(sent)),
                Err(SydError::Timeout(_)) => self.metrics.rpc_timeouts.inc(),
                Err(_) => {}
            }
            if let Some(mut span) = call.span.take() {
                span.attr("ok", u64::from(result.is_ok()));
                span.finish_at(at);
            }
            results[*i] = result;
            call.node = Weak::new(); // its entry is gone: nothing to drop
        }
    }

    /// Fills `id`'s reply slot, waking its collector if that was the last
    /// open call of its wave.
    fn complete(&self, id: RequestId, result: SydResult<Value>) {
        if fill(&mut self.pending.lock(), id, result) {
            self.answered.notify_all();
        }
    }

    /// Answers request `id` from `to`: in this node's own table when `to`
    /// is this node, else as a response frame.
    fn reply(&self, to: NodeAddr, id: RequestId, result: SydResult<Value>) {
        if to == self.addr {
            self.complete(id, result);
        } else {
            let response = Payload::Response(Response { id, result });
            let _ = self.send(syd_wire::Envelope::new(self.addr, to, response));
        }
    }

    /// The one way a frame leaves this node: holding no lock, since the
    /// transport takes its own and may dial.
    fn send(&self, envelope: syd_wire::Envelope) -> SydResult<()> {
        sync::assert_unlocked("a send");
        self.link.send(envelope).map(|_| ())
    }
}

/// A live node on a transport. Cloning shares the node.
#[derive(Clone)]
pub struct Node {
    shared: Arc<NodeShared>,
}

impl Node {
    /// Registers a fresh endpoint on the simulated `net`. Convenience
    /// for the common single-process case; equivalent to
    /// [`Node::spawn_on`] with a [`Network`].
    pub fn spawn(net: &Network) -> Node {
        Node::spawn_with_runtime(Arc::new(net.register()), &runtime_for(net))
    }

    /// Opens a fresh endpoint on any [`Transport`] backend (simulated or
    /// TCP), multiplexed onto that backend's shared runtime.
    pub fn spawn_on(transport: &dyn Transport) -> SydResult<Node> {
        let runtime = runtime_for(transport);
        Ok(Node::spawn_with_runtime(transport.listen()?, &runtime))
    }

    /// Builds a node around an already-open endpoint, multiplexed onto
    /// `runtime`: the runtime's shared pool serves its requests and its
    /// reactor drains the endpoint on readiness notifications.
    pub fn spawn_with_runtime(link: Arc<dyn TransportEndpoint>, runtime: &SharedRuntime) -> Node {
        let addr = link.addr();
        let registry = runtime.node_registry();
        let metrics = NodeMetrics::preregister(&registry);
        let shared = Arc::new(NodeShared {
            addr,
            link,
            pending: Mutex::new(Rank::Node, HashMap::new()),
            answered: Condvar::new(),
            #[cfg(test)]
            wakes: AtomicUsize::new(0),
            next_request: AtomicU64::new(1),
            handler: RwLock::new(Rank::Node, None),
            events: RwLock::new(Rank::Node, None),
            identity: RwLock::new(Rank::Node, (UserId::default(), Blob::default())),
            runtime: runtime.clone(),
            registry,
            metrics,
            tracer: Tracer::new(format!("node{}", addr.raw()), addr.raw()),
        });
        // Register the drain callback first, then install the notifier:
        // installation fires an immediate notification, so events that
        // arrived before this point are drained right away.
        let drain_shared = Arc::downgrade(&shared);
        runtime.register_node(
            addr,
            Arc::new(move |budget: &mut usize| match drain_shared.upgrade() {
                Some(shared) => drain_events(&shared, budget),
                None => DrainOutcome::Closed,
            }),
        );
        shared.link.set_ready_notifier(runtime.notifier());
        Node { shared }
    }

    /// The shared runtime this node is multiplexed onto.
    pub fn runtime(&self) -> &SharedRuntime {
        &self.shared.runtime
    }

    /// This node's network address.
    pub fn addr(&self) -> NodeAddr {
        self.shared.addr
    }

    /// The transport endpoint this node speaks through. Mobility and
    /// fault hooks (`set_connected`, `kill_connections`) live here.
    pub fn link(&self) -> &Arc<dyn TransportEndpoint> {
        &self.shared.link
    }

    /// This node's span tracer. Its log is registered globally, so a
    /// [`syd_trace::Collector`] can drain it (or all logs) after a run.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// This node's one log: the events its device journals and the spans
    /// its tracer records, under one lock.
    pub fn journal(&self) -> &Arc<Journal> {
        self.shared.tracer.journal()
    }

    /// This node's metrics registry (`rpc.call`, `rpc.retries`,
    /// `rpc.timeouts`, `rpc.requests_served`, plus whatever higher
    /// layers register on it).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Number of re-sends performed by [`Node::call_many`].
    pub fn rpc_retries(&self) -> u64 {
        self.shared.metrics.rpc_retries.get()
    }

    /// Number of call attempts that hit their deadline.
    pub fn rpc_timeouts(&self) -> u64 {
        self.shared.metrics.rpc_timeouts.get()
    }

    /// Installs the request handler (replacing any previous one).
    pub fn set_handler(&self, handler: Arc<dyn RequestHandler>) {
        *self.shared.handler.write() = Some(handler);
    }

    /// Installs the event sink (replacing any previous one).
    pub fn set_event_sink(&self, sink: Arc<dyn EventSink>) {
        *self.shared.events.write() = Some(sink);
    }

    /// Sets the identity stamped on outgoing requests: the calling user and
    /// the TEA-encrypted credential blob (§5.4).
    pub fn set_identity(&self, user: UserId, credentials: Blob) {
        *self.shared.identity.write() = (user, credentials);
    }

    /// Blocking remote call with default options.
    pub fn call(
        &self,
        dst: NodeAddr,
        service: &ServiceName,
        method: &str,
        args: impl Into<Args>,
    ) -> SydResult<Value> {
        self.call_with(dst, service, method, args, CallOptions::default())
    }

    /// Blocking remote call with explicit deadline/retry options:
    /// [`Node::call_many`] with one request and a route that never moves.
    pub fn call_with(
        &self,
        dst: NodeAddr,
        service: &ServiceName,
        method: &str,
        args: impl Into<Args>,
        opts: CallOptions,
    ) -> SydResult<Value> {
        let call = Call::new(UserId::default(), service, method, args);
        self.call_many(std::slice::from_ref(&call), opts, &mut |_| vec![Ok(dst)])
            .pop()
            // One call in, one result out.
            .unwrap_or(Err(SydError::Shutdown))
    }

    /// The one way a request leaves this node and is given up or sent
    /// again. Runs `calls` to completion in **waves** and returns their
    /// results in call order.
    ///
    /// A wave asks `route` once, with the indices still outstanding, for
    /// one address per index in that order (an `Err` is that call's final
    /// result: the resolver has its own retries behind it); sends **every**
    /// request before awaiting any; and collects them all in one wait
    /// under one deadline, `opts.timeout` from the last send — so `k` lost
    /// calls cost one timeout, not `k`. What failed transiently, or at an
    /// address nobody is at, is outstanding for the next wave; there are at
    /// most `1 + opts.retries` waves, so a set returns within
    /// `(1 + opts.retries) × opts.timeout` plus whatever `route` takes.
    ///
    /// Re-sends copy or share the call's encoded [`Args`]: nothing is
    /// encoded again.
    pub fn call_many(
        &self,
        calls: &[Call<'_>],
        opts: CallOptions,
        route: &mut dyn FnMut(&[usize]) -> Vec<SydResult<NodeAddr>>,
    ) -> Vec<SydResult<Value>> {
        sync::assert_unlocked("a remote call");
        // The placeholder is never seen: wave 0 assigns every index.
        let mut results: Vec<SydResult<Value>> =
            calls.iter().map(|_| Err(SydError::Shutdown)).collect();
        let mut outstanding: Vec<usize> = (0..calls.len()).collect();
        let node = &self.shared;
        let sim = node.runtime.clock().as_sim();
        for wave in 0..=opts.retries {
            let routes = route(&outstanding);
            // On virtual time the wave leaves at one instant, whatever
            // thread sends it.
            let hold = sim.map(SimClock::hold);
            let mut sent = Vec::with_capacity(outstanding.len());
            // Every remote request leaves before a self-call is submitted:
            // a self-call may be served at once, and would hold back the
            // sends behind it. A failed send stays for the retry below.
            for self_calls in [false, true] {
                for (&i, to) in outstanding.iter().zip(&routes) {
                    let Ok(addr) = *to else { continue };
                    if (addr == node.addr) != self_calls {
                        continue;
                    }
                    let c = &calls[i];
                    match self.call_async_to(addr, c.user, c.service, c.method, c.args.clone()) {
                        Ok(pending) => sent.push((i, pending)),
                        Err(err) => results[i] = Err(err),
                    }
                }
            }
            drop(hold);
            // A routing error is final.
            let mut routes = routes.into_iter();
            outstanding.retain(|&i| match routes.next() {
                Some(Ok(_)) => true,
                Some(Err(err)) => {
                    results[i] = Err(err);
                    false
                }
                None => false,
            });
            node.collect(&mut sent, opts.timeout, &mut results);
            outstanding.retain(|&i| {
                results[i]
                    .as_ref()
                    .err()
                    .is_some_and(SydError::is_unanswered)
            });
            if outstanding.is_empty() || wave == opts.retries {
                break;
            }
            node.metrics.rpc_retries.add(outstanding.len() as u64);
        }
        results
    }

    /// Sends a request and returns immediately with a [`PendingCall`].
    pub fn call_async(
        &self,
        dst: NodeAddr,
        service: &ServiceName,
        method: &str,
        args: impl Into<Args>,
    ) -> SydResult<PendingCall> {
        self.call_async_to(dst, UserId::default(), service, method, args)
    }

    /// Like [`Node::call_async`] with an explicit logical target user —
    /// proxies hosting several users' replicas route requests by it.
    ///
    /// Accepts anything convertible to [`Args`]; a broadcaster passing
    /// clones of one [`Args`] to every recipient pays the body's encoding
    /// once for the whole group.
    ///
    /// A request to this node's own address is served in-process and is
    /// never handed to the transport.
    pub fn call_async_to(
        &self,
        dst: NodeAddr,
        target: UserId,
        service: &ServiceName,
        method: &str,
        args: impl Into<Args>,
    ) -> SydResult<PendingCall> {
        let id = RequestId::new(self.shared.next_request.fetch_add(1, Ordering::Relaxed));
        self.shared.pending.lock().insert(id, Slot::default());
        let (caller, credentials) = self.shared.identity.read().clone();
        // Continue the thread's current trace (nested invocation) or
        // mint a fresh root — either way every request carries context.
        let (span, parent) = match trace::current() {
            Some(ctx) => (ctx.child(), ctx.span),
            None => (trace::root_span(), 0),
        };
        // The client span covers send → response under the same span id
        // the server records, so the assembler can merge both views.
        let client_span = self
            .shared
            .tracer
            .finish_handle(names::SPAN_RPC_CLIENT, span, parent);
        let request = Request {
            id,
            caller,
            target,
            credentials,
            service: service.clone(),
            method: method.into(),
            args: args.into(),
            trace: Some(TraceContext {
                trace_id: span.trace,
                span_id: span.span,
                hop: span.hop,
            }),
        };
        if dst == self.shared.addr {
            serve_request(&self.shared, dst, request, false);
        } else if let Err(err) = self.shared.send(syd_wire::Envelope::new(
            self.shared.addr,
            dst,
            Payload::Request(request),
        )) {
            self.shared.pending.lock().remove(&id);
            return Err(err);
        }
        Ok(PendingCall {
            id,
            node: Arc::downgrade(&self.shared),
            span: Some(client_span),
        })
    }

    /// Publishes a fire-and-forget event to `dst`.
    pub fn publish_event(&self, dst: NodeAddr, topic: &str, payload: Value) -> SydResult<()> {
        let (source, _) = *self.shared.identity.read();
        self.shared.send(syd_wire::Envelope::new(
            self.shared.addr,
            dst,
            Payload::Event(EventMsg {
                topic: topic.into(),
                source,
                payload,
            }),
        ))
    }

    /// Closes the transport endpoint and deregisters this node from the
    /// reactor. The runtime's own threads stop with its *last* node, not
    /// here.
    pub fn shutdown(&self) {
        self.shared.runtime.deregister_node(self.shared.addr);
        self.shared.link.close();
        // Fail everything still waiting and close every wave; the
        // collectors take it out.
        let now = now_us();
        for slot in self.shared.pending.lock().values_mut() {
            slot.reply.get_or_insert((Err(SydError::Shutdown), now));
            slot.open = 0;
        }
        self.shared.answered.notify_all();
    }
}

/// The reactor's drain callback: pops events without blocking, counting
/// each off the loop's `budget`, and yields when that runs out so the loop
/// can hand its queued jobs out and serve peer nodes.
fn drain_events(shared: &Arc<NodeShared>, budget: &mut usize) -> DrainOutcome {
    sync::assert_unlocked("a drain");
    while *budget > 0 {
        let Some(event) = shared.link.try_recv_event() else {
            return DrainOutcome::Idle;
        };
        *budget -= 1;
        match event {
            Ok(event) => dispatch_event(shared, event),
            // Corrupt frames are dropped where they are counted.
            Err(SydError::Codec(_)) => {}
            Err(_) => return DrainOutcome::Closed,
        }
    }
    DrainOutcome::More
}

/// One transport event through the node: responses complete pending
/// calls inline, requests and application events are queued on the pool
/// for the loop's next hand-off. Runs on the runtime's loop, so it must
/// never block.
fn dispatch_event(shared: &Arc<NodeShared>, event: TransportEvent) {
    sync::assert_unlocked("a dispatch");
    let envelope = match event {
        TransportEvent::Message(env) => env,
        // Connection lifecycle is the transport's business (a request
        // that cannot be delivered fails its `send`, or comes back as a
        // synthesized error response on the sim) — nothing to do here.
        TransportEvent::Connected(_)
        | TransportEvent::Accepted(_)
        | TransportEvent::Disconnected(_) => return,
    };
    match envelope.payload {
        Payload::Response(resp) => shared.complete(resp.id, resp.result),
        Payload::Request(req) => serve_request(shared, envelope.src, req, true),
        Payload::Event(event) => {
            if let Some(sink) = shared.events.read().clone() {
                let from = envelope.src;
                shared
                    .runtime
                    .pool()
                    .queue(move || sink.on_event(from, event));
            }
        }
    }
}

/// Serves one request from `from` as a pool job: one received by the
/// loop (`on_loop`: queued for the loop's next hand-off), or one this node
/// made to its own address (submitted with a hand-off of its own). The
/// reply goes back the way the request came ([`NodeShared::reply`]). Runs
/// on the loop for a received request, so it must never block.
fn serve_request(shared: &Arc<NodeShared>, from: NodeAddr, req: Request, on_loop: bool) {
    let id = req.id;
    let job = Serve {
        node: Arc::clone(shared),
        handler: shared.handler.read().clone(),
        from,
        req,
    };
    if !shared.runtime.pool().serve(job, on_loop) {
        // Pool shut down: answer at once rather than burn the deadline.
        shared.reply(from, id, Err(SydError::Shutdown));
    }
}

/// A request on its way to its node's handler: the pool's typed job
/// ([`crate::pool::WorkerPool::serve`]).
pub(crate) struct Serve {
    node: Arc<NodeShared>,
    /// The handler installed when the request arrived.
    handler: Option<Arc<dyn RequestHandler>>,
    from: NodeAddr,
    req: Request,
}

impl Serve {
    /// Runs the handler under the caller's trace context, so nested
    /// outbound calls made by the handler inherit it, and sends the reply.
    pub(crate) fn run(self) {
        let Serve {
            node,
            handler,
            from,
            req,
        } = self;
        node.metrics.requests_served.inc();
        // Both `Copy`: read here so the handler can own the request.
        let (id, trace_ctx) = (req.id, req.trace);
        let _span = trace_ctx.map(|tc| {
            trace::enter(SpanCtx {
                trace: tc.trace_id,
                span: tc.span_id,
                hop: tc.hop + 1,
            })
        });
        let served_start = syd_trace::now_us();
        let result = match handler {
            // A handler that panics is answered at once, with an error no
            // wave sends again; the unwind still runs its clean-ups.
            Some(h) => std::panic::catch_unwind(AssertUnwindSafe(|| h.handle(from, req)))
                .unwrap_or_else(|_| {
                    node.registry.counter(names::RPC_HANDLER_PANICS).inc();
                    Err(SydError::App("the request's handler panicked".into()))
                }),
            None => Err(SydError::NoSuchService(req.service, req.method.to_string())),
        };
        // Server view of the RPC: same span id as the client's
        // `rpc.client`, parent 0 (the assembler merges the two
        // views; parentage comes from the client record).
        if let Some(tc) = trace_ctx {
            node.tracer.record_span(
                names::SPAN_RPC_SERVER,
                tc.trace_id,
                tc.span_id,
                0,
                served_start,
                syd_trace::now_us(),
                &[("hop", u64::from(tc.hop))],
            );
        }
        node.reply(from, id, result);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Instant;
    use syd_transport::NetConfig;

    fn echo_handler() -> Arc<dyn RequestHandler> {
        Arc::new(|_from: NodeAddr, req: Request| -> SydResult<Value> {
            Ok(Value::list(req.args.to_vec()?))
        })
    }

    #[test]
    fn call_round_trip() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(echo_handler());
        let client = Node::spawn(&net);
        let result = client
            .call(
                server.addr(),
                &ServiceName::new("echo"),
                "echo",
                vec![Value::I64(7), Value::str("x")],
            )
            .unwrap();
        assert_eq!(result, Value::list([Value::I64(7), Value::str("x")]));
    }

    #[test]
    fn spawn_on_trait_object_round_trips() {
        // The same code path core uses: nodes built from `&dyn Transport`.
        let net = Network::ideal();
        let transport: &dyn Transport = &net;
        let server = Node::spawn_on(transport).unwrap();
        server.set_handler(echo_handler());
        let client = Node::spawn_on(transport).unwrap();
        let result = client
            .call(
                server.addr(),
                &ServiceName::new("echo"),
                "m",
                vec![Value::I64(3)],
            )
            .unwrap();
        assert_eq!(result, Value::list([Value::I64(3)]));
        assert!(client.link().is_connected());
    }

    #[test]
    fn missing_handler_reports_no_such_service() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        let client = Node::spawn(&net);
        let err = client
            .call(server.addr(), &ServiceName::new("ghost"), "m", vec![])
            .unwrap_err();
        assert!(matches!(err, SydError::NoSuchService(_, _)), "{err}");
    }

    #[test]
    fn handler_errors_propagate() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(Arc::new(|_: NodeAddr, _: Request| -> SydResult<Value> {
            Err(SydError::App("boom".into()))
        }));
        let client = Node::spawn(&net);
        let err = client
            .call(server.addr(), &ServiceName::new("svc"), "m", vec![])
            .unwrap_err();
        assert_eq!(err, SydError::App("boom".into()));
    }

    #[test]
    fn a_handler_that_panics_is_answered_at_once_and_not_run_again() {
        let round_trip = Duration::from_millis(50);
        let link = syd_transport::LatencyModel::fixed(round_trip / 2);
        let net = Network::new(NetConfig::ideal().with_latency(link));
        let server = Node::spawn(&net);
        let runs = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&runs);
        server.set_handler(Arc::new(
            move |_: NodeAddr, _: Request| -> SydResult<Value> {
                counted.fetch_add(1, Ordering::Relaxed);
                // An unwind without the panic hook: a captured backtrace
                // would cost more than the round trip timed here.
                std::panic::resume_unwind(Box::new("the handler panics"))
            },
        ));
        let client = Node::spawn(&net);
        let opts = CallOptions::new()
            .with_timeout(Duration::from_secs(1))
            .with_retries(2);
        let started = Instant::now();
        let err = client
            .call_with(server.addr(), &ServiceName::new("svc"), "m", vec![], opts)
            .unwrap_err();
        let elapsed = started.elapsed();
        assert!(!err.is_unanswered(), "{err}");
        assert!(elapsed < round_trip * 3 / 2, "answered after {elapsed:?}");
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(client.rpc_retries(), 0);
        let panics = server.metrics().get_counter(names::RPC_HANDLER_PANICS);
        assert_eq!(panics.map(|c| c.get()), Some(1));
    }

    /// A periodic task or a drain that panics on the runtime's loop is
    /// caught and counted there; the loop goes on running the task and
    /// draining every endpoint, so a call on the same deployment is
    /// answered.
    #[test]
    fn a_panic_on_the_loop_is_counted_and_the_loop_goes_on() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(Arc::new(|_: NodeAddr, _: Request| -> SydResult<Value> {
            Ok(Value::I64(7))
        }));
        let client = Node::spawn(&net);
        let runtime = client.runtime().clone();
        let runs = Arc::new(AtomicU32::new(0));
        let id =
            runtime.schedule_periodic(Duration::from_millis(5), Arc::downgrade(&runs), |runs| {
                if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::panic::resume_unwind(Box::new("the task panics once"))
                }
            });
        let deadline = Instant::now() + Duration::from_secs(5);
        while runs.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "the loop stopped at the panic");
            std::thread::sleep(Duration::from_millis(2));
        }
        runtime.cancel_periodic(id);
        let answer = client.call(server.addr(), &ServiceName::new("svc"), "m", vec![]);
        assert_eq!(answer, Ok(Value::I64(7)));
        let panics = runtime
            .fleet_registry()
            .get_counter(names::RUNTIME_LOOP_PANICS);
        assert_eq!(panics.map(|c| c.get()), Some(1));
    }

    #[test]
    fn call_times_out_when_peer_never_answers() {
        let net = Network::ideal();
        // A raw endpoint that receives but never replies.
        let silent = net.register();
        let client = Node::spawn(&net);
        let opts = CallOptions::new().with_timeout(Duration::from_millis(50));
        let err = client
            .call_with(silent.addr(), &ServiceName::new("svc"), "m", vec![], opts)
            .unwrap_err();
        assert!(matches!(err, SydError::Timeout(_)), "{err}");
    }

    /// A call or a dispatch made holding a lock would hold it across every
    /// handler it reaches, on any device: debug builds refuse it at once.
    #[cfg(debug_assertions)]
    #[test]
    fn a_call_or_a_dispatch_holding_a_lock_panics() {
        let net = Network::ideal();
        let silent = net.register();
        let client = Node::spawn(&net);
        let pending = Mutex::new(Rank::Node, ());
        let guard = pending.lock();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            client.call(silent.addr(), &ServiceName::new("svc"), "ping", vec![])
        }));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.starts_with("a remote call while holding the Node lock"),
            "{message}"
        );
        assert!(silent.try_recv_event().is_none(), "a request left");
        // A dispatch runs handlers inline or queues them: refused alike.
        let event = TransportEvent::Connected(silent.addr());
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch_event(&client.shared, event);
        }));
        drop(guard);
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(message.starts_with("a dispatch while holding"), "{message}");
    }

    /// A periodic task runs on the runtime's loop, which must never wait:
    /// a task that makes a remote call panics at the call's first wait.
    #[cfg(debug_assertions)]
    #[test]
    fn a_remote_call_from_a_loop_task_panics_at_its_wait() {
        struct Tick {
            node: Node,
            to: NodeAddr,
            outcome: AtomicU32,
        }
        let net = Network::ideal();
        let silent = net.register();
        let tick = Arc::new(Tick {
            node: Node::spawn(&net),
            to: silent.addr(),
            outcome: AtomicU32::new(0),
        });
        let runtime = tick.node.runtime().clone();
        let id =
            runtime.schedule_periodic(Duration::from_millis(5), Arc::downgrade(&tick), |tick| {
                let call = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tick.node
                        .call(tick.to, &ServiceName::new("svc"), "ping", vec![])
                }));
                tick.outcome
                    .store(if call.is_err() { 1 } else { 2 }, Ordering::SeqCst);
            });
        let deadline = Instant::now() + Duration::from_secs(5);
        while tick.outcome.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the task never ran");
            std::thread::sleep(Duration::from_millis(2));
        }
        runtime.cancel_periodic(id);
        assert_eq!(tick.outcome.load(Ordering::SeqCst), 1, "the loop waited");
    }

    #[test]
    fn retries_recover_from_loss() {
        // 60% loss: with 20 retries the call should eventually succeed.
        let net = Network::new(NetConfig::ideal().with_loss(0.6).with_seed(3));
        let server = Node::spawn(&net);
        server.set_handler(echo_handler());
        let client = Node::spawn(&net);
        let opts = CallOptions::new()
            .with_timeout(Duration::from_millis(40))
            .with_retries(20);
        let result = client.call_with(
            server.addr(),
            &ServiceName::new("echo"),
            "m",
            vec![Value::I64(1)],
            opts,
        );
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn call_async_overlaps_requests() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(echo_handler());
        let client = Node::spawn(&net);
        let svc = ServiceName::new("echo");
        let calls: Vec<_> = (0..10)
            .map(|i| {
                client
                    .call_async(server.addr(), &svc, "m", vec![Value::I64(i)])
                    .unwrap()
            })
            .collect();
        for (i, call) in calls.into_iter().enumerate() {
            let v = call.wait(Duration::from_secs(1)).unwrap();
            assert_eq!(v, Value::list([Value::I64(i as i64)]));
        }
    }

    #[test]
    fn nested_call_back_into_caller_does_not_deadlock() {
        let net = Network::ideal();
        let a = Node::spawn(&net);
        let b = Node::spawn(&net);
        let svc = ServiceName::new("svc");

        // b's handler calls back into a ("pong"); a's handler answers
        // directly. A single-threaded dispatcher would deadlock on a→b→a.
        let a_clone = a.clone();
        let a_addr = a.addr();
        b.set_handler(Arc::new(move |_: NodeAddr, req: Request| {
            if req.method == "ping" {
                a_clone.call(a_addr, &ServiceName::new("svc"), "pong", vec![])
            } else {
                Ok(Value::Null)
            }
        }));
        a.set_handler(Arc::new(|_: NodeAddr, req: Request| {
            if req.method == "pong" {
                Ok(Value::str("pong"))
            } else {
                Ok(Value::Null)
            }
        }));

        let result = a.call(b.addr(), &svc, "ping", vec![]).unwrap();
        assert_eq!(result, Value::str("pong"));
    }

    #[test]
    fn trace_context_spans_nested_calls() {
        let net = Network::ideal();
        let a = Node::spawn(&net);
        let b = Node::spawn(&net);

        // b reports the trace context it observes on the wire.
        b.set_handler(Arc::new(|_: NodeAddr, req: Request| {
            let tc = req.trace.expect("request arrived without trace context");
            Ok(Value::list([
                Value::I64(tc.trace_id as i64),
                Value::I64(tc.hop as i64),
            ]))
        }));
        // a's handler makes a nested call to b from its worker thread.
        let a_clone = a.clone();
        let b_addr = b.addr();
        a.set_handler(Arc::new(move |_: NodeAddr, _: Request| {
            a_clone.call(b_addr, &ServiceName::new("svc"), "probe", vec![])
        }));

        let client = Node::spawn(&net);
        let root = syd_telemetry::root_span();
        let reported = {
            let _g = syd_telemetry::enter(root);
            client
                .call(a.addr(), &ServiceName::new("svc"), "relay", vec![])
                .unwrap()
        };
        // One trace id from client through a's handler to b, and b sees
        // the call one hop deeper than the client's root.
        assert_eq!(
            reported,
            Value::list([Value::I64(root.trace as i64), Value::I64(1)])
        );
    }

    #[test]
    fn a_request_queued_from_the_loop_runs_under_its_callers_trace() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        // The handler reports the context its worker runs under: the
        // pool captures none for a request, so this is the request's own.
        server.set_handler(Arc::new(|_: NodeAddr, _: Request| {
            let ctx = trace::current().expect("served outside any trace");
            Ok(Value::list([Value::from(ctx.trace), Value::from(ctx.span)]))
        }));
        let client = Node::spawn(&net);
        let root = syd_telemetry::root_span();
        let reported = {
            let _g = syd_telemetry::enter(root);
            client
                .call(server.addr(), &ServiceName::new("svc"), "who", vec![])
                .unwrap()
        };
        let Value::List(reported) = reported else {
            panic!("{reported:?}")
        };
        assert_eq!(reported[0], Value::from(root.trace));
        // `rpc.server` is recorded under the caller's trace and the span
        // id its `rpc.client` carries, which the handler ran under.
        let served: Vec<_> = server
            .journal()
            .drain_spans()
            .into_iter()
            .filter(|rec| rec.kind == names::SPAN_RPC_SERVER)
            .collect();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].trace, root.trace);
        assert_eq!(Value::from(served[0].span), reported[1]);
    }

    #[test]
    fn rpc_metrics_count_calls_timeouts_and_retries() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(echo_handler());
        let client = Node::spawn(&net);
        client
            .call(server.addr(), &ServiceName::new("echo"), "m", vec![])
            .unwrap();
        let hist = client.metrics().get_histogram(names::RPC_CALL).unwrap();
        assert_eq!(hist.count(), 1);
        assert!(
            server
                .metrics()
                .get_counter(names::RPC_REQUESTS_SERVED)
                .unwrap()
                .get()
                >= 1
        );

        // A silent peer: the first attempt and its single retry both
        // time out, so the call fails with two timeouts and one retry.
        let silent = net.register();
        let opts = CallOptions::new()
            .with_timeout(Duration::from_millis(30))
            .with_retries(1);
        let err = client
            .call_with(silent.addr(), &ServiceName::new("svc"), "m", vec![], opts)
            .unwrap_err();
        assert!(matches!(err, SydError::Timeout(_)), "{err}");
        assert_eq!(client.rpc_timeouts(), 2);
        assert_eq!(client.rpc_retries(), 1);
        // The successful call is still the only histogram sample.
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn events_reach_the_sink() {
        let net = Network::ideal();
        let receiver = Node::spawn(&net);
        let count = Arc::new(AtomicU32::new(0));
        let count_clone = Arc::clone(&count);
        receiver.set_event_sink(Arc::new(move |_: NodeAddr, ev: EventMsg| {
            assert_eq!(ev.topic, "tick");
            count_clone.fetch_add(1, Ordering::SeqCst);
        }));
        let sender = Node::spawn(&net);
        for _ in 0..5 {
            sender
                .publish_event(receiver.addr(), "tick", Value::Null)
                .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while count.load(Ordering::SeqCst) < 5 {
            assert!(std::time::Instant::now() < deadline, "events missing");
            std::thread::yield_now();
        }
    }

    #[test]
    fn identity_is_stamped_on_requests() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(Arc::new(|_: NodeAddr, req: Request| {
            Ok(Value::list([
                Value::I64(req.caller.raw() as i64),
                Value::Bytes(req.credentials[..].into()),
            ]))
        }));
        let client = Node::spawn(&net);
        client.set_identity(UserId::new(42), vec![9, 9].into());
        let v = client
            .call(server.addr(), &ServiceName::new("svc"), "id", vec![])
            .unwrap();
        assert_eq!(v, Value::list([Value::I64(42), Value::from(vec![9, 9])]));
    }

    #[test]
    fn shutdown_fails_pending_calls() {
        let net = Network::ideal();
        let silent = net.register();
        let client = Node::spawn(&net);
        let call = client
            .call_async(silent.addr(), &ServiceName::new("svc"), "m", vec![])
            .unwrap();
        client.shutdown();
        let err = call.wait(Duration::from_secs(1)).unwrap_err();
        assert_eq!(err, SydError::Shutdown);
    }

    #[test]
    fn shared_runtime_round_trip_without_driver_threads() {
        let net = Network::ideal();
        let rt = crate::runtime::SharedRuntime::new("node-rt");
        let server = Node::spawn_with_runtime(Arc::new(net.register()), &rt);
        server.set_handler(echo_handler());
        let client = Node::spawn_with_runtime(Arc::new(net.register()), &rt);
        assert_eq!(rt.nodes(), 2);
        let result = client
            .call(
                server.addr(),
                &ServiceName::new("echo"),
                "m",
                vec![Value::I64(7)],
            )
            .unwrap();
        assert_eq!(result, Value::list([Value::I64(7)]));
        server.shutdown();
        assert_eq!(rt.nodes(), 1, "shutdown must deregister from the reactor");
    }

    #[test]
    fn shared_runtime_deadlines_fire_from_the_wheel() {
        let net = Network::ideal();
        let rt = crate::runtime::SharedRuntime::new("node-rt");
        let silent = net.register(); // receives, never replies
        let client = Node::spawn_with_runtime(Arc::new(net.register()), &rt);
        let opts = CallOptions::new()
            .with_timeout(Duration::from_millis(40))
            .with_retries(1);
        let err = client
            .call_with(silent.addr(), &ServiceName::new("svc"), "m", vec![], opts)
            .unwrap_err();
        assert!(matches!(err, SydError::Timeout(_)), "{err}");
        // Both sends time out, one of them a re-send.
        assert_eq!(client.rpc_timeouts(), 2);
        assert_eq!(client.rpc_retries(), 1);
    }

    #[test]
    fn timed_out_calls_leave_no_pending_entries() {
        let net = Network::ideal();
        let silent = net.register();
        let client = Node::spawn(&net);
        let opts = CallOptions::new().with_timeout(Duration::from_millis(30));
        let _ = client
            .call_with(silent.addr(), &ServiceName::new("svc"), "m", vec![], opts)
            .unwrap_err();
        assert_eq!(
            client.shared.pending.lock().len(),
            0,
            "pending entry leaked"
        );
        // Abandoned async calls clean up on drop, too.
        drop(
            client
                .call_async(silent.addr(), &ServiceName::new("svc"), "m", vec![])
                .unwrap(),
        );
        assert_eq!(client.shared.pending.lock().len(), 0);

        // A reply that arrives after its wave timed out finds no entry and
        // is dropped: answer the first request now, then make sure the
        // client has drained it by finishing a call queued behind it.
        let late = silent.recv_timeout(Duration::from_secs(1)).unwrap();
        let Payload::Request(req) = late.payload else {
            panic!("expected the timed-out request, got {late:?}");
        };
        silent
            .send(
                client.addr(),
                Payload::Response(Response {
                    id: req.id,
                    result: Ok(Value::I64(1)),
                }),
            )
            .unwrap();
        let server = Node::spawn(&net);
        server.set_handler(echo_handler());
        client
            .call(server.addr(), &ServiceName::new("echo"), "m", vec![])
            .unwrap();
        assert_eq!(client.shared.pending.lock().len(), 0, "late reply kept");
    }

    /// `n` calls of `svc.m` with arguments `0..n`, all routed to `dst`.
    fn wave_to(
        client: &Node,
        dst: NodeAddr,
        svc: &ServiceName,
        n: i64,
        opts: CallOptions,
    ) -> Vec<SydResult<Value>> {
        let calls: Vec<Call<'_>> = (0..n)
            .map(|k| Call::new(UserId::default(), svc, "m", vec![Value::I64(k)]))
            .collect();
        client.call_many(&calls, opts, &mut |idx| {
            idx.iter().map(|_| Ok(dst)).collect()
        })
    }

    /// Echoes `[tag, arg]` after `(5 - arg) × 10 ms`: the later a call was
    /// sent, the sooner it is answered.
    fn reversing_server(net: &Network, tag: &'static str) -> Node {
        let server = Node::spawn(net);
        server.set_handler(Arc::new(move |_: NodeAddr, req: Request| {
            let k = req.args.to_vec().unwrap()[0].as_i64().unwrap();
            std::thread::sleep(Duration::from_millis(10 * (5 - k).max(0) as u64));
            Ok(Value::list([Value::str(tag), Value::I64(k)]))
        }));
        server
    }

    #[test]
    fn a_wave_answered_in_reverse_comes_back_in_call_order() {
        let net = Network::ideal();
        let server = reversing_server(&net, "s");
        let client = Node::spawn(&net);
        let hist = client.metrics().get_histogram(names::RPC_CALL).unwrap();
        let before = hist.count();
        let results = wave_to(
            &client,
            server.addr(),
            &ServiceName::new("svc"),
            6,
            CallOptions::new(),
        );
        for (k, result) in results.into_iter().enumerate() {
            let expected = Value::list([Value::str("s"), Value::I64(k as i64)]);
            assert_eq!(result.unwrap(), expected);
        }
        assert_eq!(hist.count() - before, 6);
        assert_eq!(client.shared.pending.lock().len(), 0);
    }

    #[test]
    fn two_waves_on_one_node_each_take_only_their_own_replies() {
        let net = Network::ideal();
        let (a, b) = (reversing_server(&net, "a"), reversing_server(&net, "b"));
        let client = Node::spawn(&net);
        let svc = ServiceName::new("svc");
        // Both waves of a round start together and wait on the one condvar
        // for ≥ 50 ms, so the first wave to complete wakes both waiters.
        let start = std::sync::Barrier::new(2);
        let rounds = std::thread::scope(|s| {
            let waves = [("a", &a), ("b", &b)].map(|(tag, server)| {
                let (client, svc, start) = (&client, &svc, &start);
                let wave = move || {
                    start.wait();
                    wave_to(client, server.addr(), svc, 6, CallOptions::new())
                };
                (
                    tag,
                    s.spawn(move || (0..5).map(|_| wave()).collect::<Vec<_>>()),
                )
            });
            waves.map(|(tag, handle)| (tag, handle.join().unwrap()))
        });
        // Checked after both threads are done: a failed check inside one
        // would leave the other parked on the barrier.
        for (tag, waves) in rounds {
            for results in waves {
                for (k, result) in results.into_iter().enumerate() {
                    let expected = Value::list([Value::str(tag), Value::I64(k as i64)]);
                    assert_eq!(result.unwrap(), expected);
                }
            }
        }
        assert_eq!(client.shared.pending.lock().len(), 0);
    }

    /// Takes `n` requests off a raw endpoint, in arrival order.
    fn take_requests(server: &syd_transport::Endpoint, n: usize) -> Vec<Request> {
        (0..n)
            .map(
                |_| match server.recv_timeout(Duration::from_secs(2)).unwrap().payload {
                    Payload::Request(req) => req,
                    other => panic!("expected a request, got {other:?}"),
                },
            )
            .collect()
    }

    /// Answers `req` from a raw endpoint with its first argument.
    fn answer(server: &syd_transport::Endpoint, to: NodeAddr, req: &Request) {
        let result = Ok(req.args.to_vec().unwrap()[0].clone());
        let response = Payload::Response(Response { id: req.id, result });
        server.send(to, response).unwrap();
    }

    #[test]
    fn a_wave_answered_in_reverse_wakes_its_collector_once() {
        let net = Network::ideal();
        let server = net.register();
        let client = Node::spawn(&net);
        let svc = ServiceName::new("svc");
        let results = std::thread::scope(|s| {
            let collector =
                s.spawn(|| wave_to(&client, server.addr(), &svc, 31, CallOptions::new()));
            let requests = take_requests(&server, 31);
            // Answer once the collector waits for all 31: its wave's first
            // call counts them, and the collector waits under the same lock.
            let deadline = Instant::now() + Duration::from_secs(2);
            while !client
                .shared
                .pending
                .lock()
                .values()
                .any(|slot| slot.open == 31)
            {
                assert!(Instant::now() < deadline, "the wave was never collected");
                std::thread::yield_now();
            }
            // Spaced out, so a collector woken per reply would wait again
            // between them.
            for req in requests.iter().rev() {
                answer(&server, client.addr(), req);
                std::thread::sleep(Duration::from_millis(1));
            }
            collector.join().unwrap()
        });
        for (k, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap(), Value::I64(k as i64));
        }
        assert_eq!(client.shared.wakes.load(Ordering::Relaxed), 1);
        assert_eq!(client.shared.pending.lock().len(), 0);
    }

    #[test]
    fn each_call_of_a_wave_is_timed_to_its_own_reply() {
        let net = Network::ideal();
        let server = net.register();
        let client = Node::spawn(&net);
        let hist = client.metrics().get_histogram(names::RPC_CALL).unwrap();
        let svc = ServiceName::new("svc");
        // Call 0 is answered at once, call 1 after 100 ms.
        let results = std::thread::scope(|s| {
            let collector =
                s.spawn(|| wave_to(&client, server.addr(), &svc, 2, CallOptions::new()));
            let mut requests = take_requests(&server, 2);
            requests.sort_by_key(|req| req.args.to_vec().unwrap()[0].as_i64().unwrap());
            answer(&server, client.addr(), &requests[0]);
            std::thread::sleep(Duration::from_millis(100));
            answer(&server, client.addr(), &requests[1]);
            collector.join().unwrap()
        });
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        // Timed to the wave's end, both calls would read ≥ 100 ms.
        assert_eq!(hist.count(), 2);
        assert!(hist.sum() < 160_000, "rpc.call summed {} µs", hist.sum());
        let spans: Vec<_> = client
            .journal()
            .drain_spans()
            .into_iter()
            .filter(|rec| rec.kind == names::SPAN_RPC_CLIENT)
            .map(|rec| rec.end_us - rec.start_us)
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(
            spans.iter().any(|&us| us < 60_000),
            "rpc.client spans {spans:?} µs"
        );
        assert!(
            spans.iter().any(|&us| us >= 100_000),
            "rpc.client spans {spans:?} µs"
        );
    }

    #[test]
    fn shutdown_fails_a_waiting_wave_at_once() {
        let net = Network::ideal();
        let silent: Vec<_> = (0..5).map(|_| net.register()).collect();
        let client = Node::spawn(&net);
        let svc = ServiceName::new("svc");
        let calls: Vec<Call<'_>> = (0..5)
            .map(|_| Call::new(UserId::default(), &svc, "m", vec![]))
            .collect();
        let started = Instant::now();
        let results = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                client.shutdown();
            });
            let opts = CallOptions::new().with_timeout(Duration::from_secs(2));
            client.call_many(&calls, opts, &mut |idx| {
                idx.iter().map(|&i| Ok(silent[i].addr())).collect()
            })
        });
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(results, vec![Err(SydError::Shutdown); 5]);
        assert_eq!(client.shared.pending.lock().len(), 0);
    }

    #[test]
    fn request_refused_by_a_stopped_pool_is_answered_with_shutdown() {
        let net = Network::ideal();
        let rt = crate::runtime::SharedRuntime::new("node-rt");
        let server = Node::spawn_with_runtime(Arc::new(net.register()), &rt);
        server.set_handler(echo_handler());
        let client = Node::spawn_with_runtime(Arc::new(net.register()), &rt);
        rt.pool().shutdown();
        let opts = CallOptions::new().with_timeout(Duration::from_millis(500));
        // To a peer and to itself alike.
        for dst in [server.addr(), client.addr()] {
            let started = Instant::now();
            let err = client
                .call_with(dst, &ServiceName::new("echo"), "m", vec![], opts)
                .unwrap_err();
            // The refusal must reach the caller under the request's own id,
            // not burn the whole deadline.
            assert_eq!(err, SydError::Shutdown);
            assert!(
                started.elapsed() < Duration::from_millis(250),
                "refusal took {:?}",
                started.elapsed()
            );
        }
        assert_eq!(client.shared.pending.lock().len(), 0);
    }

    fn served(node: &Node) -> u64 {
        node.metrics()
            .get_counter(names::RPC_REQUESTS_SERVED)
            .unwrap()
            .get()
    }

    fn frames_out(net: &Network) -> u64 {
        net.metrics().counter(names::TRANSPORT_FRAMES_OUT).get()
    }

    fn echo_node(net: &Network) -> Node {
        let node = Node::spawn(net);
        node.set_handler(echo_handler());
        node
    }

    fn call_self(node: &Node) -> SydResult<Value> {
        let opts = CallOptions::new().with_timeout(Duration::from_millis(500));
        node.call_with(
            node.addr(),
            &ServiceName::new("echo"),
            "m",
            vec![Value::I64(5)],
            opts,
        )
    }

    #[test]
    fn a_call_to_oneself_is_served_without_a_frame() {
        let net = Network::ideal();
        let node = echo_node(&net);
        let (frames, requests) = (frames_out(&net), served(&node));
        assert_eq!(call_self(&node).unwrap(), Value::list([Value::I64(5)]));
        assert_eq!(frames_out(&net), frames, "a self-call left the node");
        assert_eq!(served(&node), requests + 1);
        assert_eq!(node.shared.pending.lock().len(), 0);
    }

    #[test]
    fn a_call_to_oneself_is_answered_on_a_network_that_loses_everything() {
        let net = Network::new(NetConfig::ideal().with_loss(1.0));
        let node = echo_node(&net);
        assert_eq!(call_self(&node).unwrap(), Value::list([Value::I64(5)]));
    }

    #[test]
    fn a_disconnected_node_still_reaches_itself_and_nobody_else_reaches_it() {
        let net = Network::ideal();
        let node = echo_node(&net);
        let peer = Node::spawn(&net);
        net.set_connected(node.addr(), false);
        assert_eq!(call_self(&node).unwrap(), Value::list([Value::I64(5)]));
        let err = peer
            .call(node.addr(), &ServiceName::new("echo"), "m", vec![])
            .unwrap_err();
        assert_eq!(err, SydError::Disconnected(node.addr()));
    }

    #[test]
    fn a_wave_mixing_self_and_remote_calls_comes_back_in_call_order() {
        let net = Network::ideal();
        let server = reversing_server(&net, "remote");
        let client = reversing_server(&net, "self");
        let (svc, frames) = (ServiceName::new("svc"), frames_out(&net));
        let calls: Vec<Call<'_>> = (0..6)
            .map(|k| Call::new(UserId::default(), &svc, "m", vec![Value::I64(k)]))
            .collect();
        // Even indices to the client itself, odd ones to the server.
        let to = |i: usize| {
            if i.is_multiple_of(2) {
                (client.addr(), "self")
            } else {
                (server.addr(), "remote")
            }
        };
        let results = client.call_many(&calls, CallOptions::new(), &mut |idx| {
            idx.iter().map(|&i| Ok(to(i).0)).collect()
        });
        for (k, result) in results.into_iter().enumerate() {
            let tag = to(k).1;
            let expected = Value::list([Value::str(tag), Value::I64(k as i64)]);
            assert_eq!(result.unwrap(), expected);
        }
        assert_eq!(
            frames_out(&net) - frames,
            2 * 3,
            "only the remote half is framed"
        );
        assert_eq!(client.shared.pending.lock().len(), 0);
    }

    #[test]
    fn a_self_call_is_served_after_every_remote_request_of_its_wave_left() {
        let net = Network::ideal();
        let remotes: Vec<Node> = (0..8).map(|_| echo_node(&net)).collect();
        let node = Node::spawn(&net);
        let seen = net.clone();
        // The self-call answers with the frames sent so far.
        node.set_handler(Arc::new(move |_: NodeAddr, _: Request| {
            Ok(Value::from(frames_out(&seen)))
        }));
        let svc = ServiceName::new("svc");
        let calls: Vec<Call<'_>> = (0..=remotes.len())
            .map(|_| Call::new(UserId::default(), &svc, "m", vec![]))
            .collect();
        // The self-call first in the roster, as an initiator's own is.
        let addrs: Vec<NodeAddr> = std::iter::once(node.addr())
            .chain(remotes.iter().map(Node::addr))
            .collect();
        for _ in 0..20 {
            let before = frames_out(&net);
            let results = node.call_many(&calls, CallOptions::new(), &mut |idx| {
                idx.iter().map(|&i| Ok(addrs[i])).collect()
            });
            let at_self = results[0].as_ref().unwrap().as_i64().unwrap() as u64;
            assert!(
                at_self >= before + remotes.len() as u64,
                "the self-call ran after {} of {} remote sends",
                at_self - before,
                remotes.len()
            );
        }
    }

    #[test]
    fn a_self_call_nested_in_a_self_call_does_not_deadlock() {
        let net = Network::ideal();
        let node = Node::spawn(&net);
        let inner = node.clone();
        node.set_handler(Arc::new(move |_: NodeAddr, req: Request| {
            if req.method == "outer" {
                inner.call(inner.addr(), &ServiceName::new("svc"), "inner", vec![])
            } else {
                Ok(Value::str("inner"))
            }
        }));
        let result = node.call(node.addr(), &ServiceName::new("svc"), "outer", vec![]);
        node.set_handler(echo_handler()); // drops the handler's clone of the node
        assert_eq!(result.unwrap(), Value::str("inner"));
    }

    #[test]
    fn disconnected_server_fails_fast() {
        let net = Network::ideal();
        let server = Node::spawn(&net);
        server.set_handler(echo_handler());
        let client = Node::spawn(&net);
        net.set_connected(server.addr(), false);
        let err = client
            .call(server.addr(), &ServiceName::new("svc"), "m", vec![])
            .unwrap_err();
        assert_eq!(err, SydError::Disconnected(server.addr()));
    }
}
