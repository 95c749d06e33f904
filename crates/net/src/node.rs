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
//! A node owns no thread. It is a state machine registered with its
//! backend's [`crate::runtime::SharedRuntime`]: the runtime's loop drains
//! the endpoint when the transport signals readiness, and requests and
//! events become jobs on the shared pool. An RPC's deadline is the wait
//! of the caller's own thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use syd_telemetry::{trace, Counter, Histogram, Registry, SpanCtx};
use syd_transport::{Network, Transport, TransportEndpoint, TransportEvent};
use syd_types::queue::{self, Sender};
use syd_types::sync::{Mutex, RwLock};
use syd_types::{NodeAddr, RequestId, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::{Args, EventMsg, Payload, Request, Response, TraceContext};

use crate::rpc::{Call, CallOptions, PendingCall};
use crate::runtime::{runtime_for, DrainOutcome, SharedRuntime};
use syd_telemetry::names;
use syd_trace::Tracer;

/// Events drained per reactor wake-up before the node yields to its
/// peers (round-robin fairness under load).
const DRAIN_BUDGET: usize = 128;

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
    /// `rpc.call` — latency of every answered RPC, send to response
    /// (microseconds). Fed by [`PendingCall::wait`] only.
    pub(crate) rpc_call: Histogram,
    /// `rpc.retries` — re-sends, one per request of every wave after a
    /// set's first. Fed by [`Node::call_many`] only.
    rpc_retries: Counter,
    /// `rpc.timeouts` — sends that hit their deadline. Fed by
    /// [`PendingCall::wait`] only.
    pub(crate) rpc_timeouts: Counter,
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

pub(crate) struct NodeShared {
    addr: NodeAddr,
    link: Arc<dyn TransportEndpoint>,
    /// Reply slots of the calls in flight; a [`PendingCall`] removes its
    /// own when it is dropped.
    pub(crate) pending: Mutex<HashMap<RequestId, Sender<SydResult<Value>>>>,
    next_request: AtomicU64,
    handler: RwLock<Option<Arc<dyn RequestHandler>>>,
    events: RwLock<Option<Arc<dyn EventSink>>>,
    identity: RwLock<(UserId, Vec<u8>)>,
    /// The runtime this node is multiplexed onto: its reactor drains
    /// `link`, its pool runs the handlers.
    runtime: SharedRuntime,
    registry: Arc<Registry>,
    pub(crate) metrics: NodeMetrics,
    /// Per-node span ring: `rpc.client` / `rpc.server` spans land here,
    /// and higher layers (kernel, calendar) record through it too.
    tracer: Tracer,
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
            pending: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(1),
            handler: RwLock::new(None),
            events: RwLock::new(None),
            identity: RwLock::new((UserId::default(), Vec::new())),
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
            Arc::new(move || match drain_shared.upgrade() {
                Some(shared) => drain_events(&shared),
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

    /// This node's span tracer. Its ring is registered globally, so a
    /// [`syd_trace::Collector`] can drain it (or all rings) after a run.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
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
    pub fn set_identity(&self, user: UserId, credentials: Vec<u8>) {
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
    /// request before awaiting any; and awaits them all under one deadline,
    /// `opts.timeout` from the last send — so `k` lost calls cost one
    /// timeout, not `k`. What failed transiently, or at an address nobody
    /// is at, is outstanding for the next wave; there are at most
    /// `1 + opts.retries` waves, so a set returns within
    /// `(1 + opts.retries) × opts.timeout` plus whatever `route` takes.
    ///
    /// Re-sends share the call's [`Args`] handle: nothing is deep-copied or
    /// re-encoded.
    pub fn call_many(
        &self,
        calls: &[Call<'_>],
        opts: CallOptions,
        route: &mut dyn FnMut(&[usize]) -> Vec<SydResult<NodeAddr>>,
    ) -> Vec<SydResult<Value>> {
        // The placeholder is never seen: wave 0 assigns every index.
        let mut results: Vec<SydResult<Value>> =
            calls.iter().map(|_| Err(SydError::Shutdown)).collect();
        let mut outstanding: Vec<usize> = (0..calls.len()).collect();
        for wave in 0..=opts.retries {
            let mut sent = Vec::with_capacity(outstanding.len());
            for (&i, addr) in outstanding.iter().zip(route(&outstanding)) {
                let call = &calls[i];
                match addr {
                    Ok(addr) => sent.push((
                        i,
                        self.call_async_to(
                            addr,
                            call.user,
                            call.service,
                            call.method,
                            call.args.clone(),
                        ),
                    )),
                    Err(err) => results[i] = Err(err),
                }
            }
            let deadline = Instant::now() + opts.timeout;
            outstanding.clear();
            for (i, pending) in sent {
                results[i] = pending.and_then(|pending| {
                    pending.wait(deadline.saturating_duration_since(Instant::now()))
                });
                let again = results[i].as_ref().err().is_some_and(|err| {
                    err.is_transient() || matches!(err, SydError::Unreachable(_))
                });
                if again && wave < opts.retries {
                    outstanding.push(i);
                }
            }
            if outstanding.is_empty() {
                break;
            }
            self.shared
                .metrics
                .rpc_retries
                .add(outstanding.len() as u64);
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
    /// the same pre-encoded [`Args`] clone to every recipient pays the
    /// body encoding cost once for the whole group (see
    /// [`Args::preencode`]).
    pub fn call_async_to(
        &self,
        dst: NodeAddr,
        target: UserId,
        service: &ServiceName,
        method: &str,
        args: impl Into<Args>,
    ) -> SydResult<PendingCall> {
        let id = RequestId::new(self.shared.next_request.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = queue::channel();
        self.shared.pending.lock().insert(id, tx);
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
            method: method.to_owned(),
            args: args.into(),
            trace: Some(TraceContext {
                trace_id: span.trace,
                span_id: span.span,
                hop: span.hop,
            }),
        };
        let send_result = self.shared.link.send(syd_wire::Envelope::new(
            self.shared.addr,
            dst,
            Payload::Request(request),
        ));
        if let Err(err) = send_result {
            self.shared.pending.lock().remove(&id);
            return Err(err);
        }
        Ok(PendingCall {
            id,
            rx,
            node: Arc::downgrade(&self.shared),
            sent: Instant::now(),
            span: Some(client_span),
        })
    }

    /// Publishes a fire-and-forget event to `dst`.
    pub fn publish_event(&self, dst: NodeAddr, topic: &str, payload: Value) -> SydResult<()> {
        let (source, _) = *self.shared.identity.read();
        self.shared
            .link
            .send(syd_wire::Envelope::new(
                self.shared.addr,
                dst,
                Payload::Event(EventMsg {
                    topic: topic.to_owned(),
                    source,
                    payload,
                }),
            ))
            .map(|_| ())
    }

    /// Closes the transport endpoint and deregisters this node from the
    /// reactor. The runtime's own threads stop with its *last* node, not
    /// here.
    pub fn shutdown(&self) {
        self.shared.runtime.deregister_node(self.shared.addr);
        self.shared.link.close();
        // Fail everything still pending.
        let mut pending = self.shared.pending.lock();
        for (_, tx) in pending.drain() {
            let _ = tx.send(Err(SydError::Shutdown));
        }
    }
}

/// The reactor's drain callback: pops up to [`DRAIN_BUDGET`] events
/// without blocking, then yields so the reactor can serve peer nodes.
fn drain_events(shared: &Arc<NodeShared>) -> DrainOutcome {
    for _ in 0..DRAIN_BUDGET {
        match shared.link.try_recv_event() {
            None => return DrainOutcome::Idle,
            Some(Ok(event)) => dispatch_event(shared, event),
            // Corrupt frames are dropped where they are counted.
            Some(Err(SydError::Codec(_))) => {}
            Some(Err(_)) => return DrainOutcome::Closed,
        }
    }
    DrainOutcome::More
}

/// One transport event through the node: responses complete pending
/// calls inline, requests and application events become pool jobs.
/// Runs on the runtime's loop, so it must never block.
fn dispatch_event(shared: &Arc<NodeShared>, event: TransportEvent) {
    let envelope = match event {
        TransportEvent::Message(env) => env,
        // Connection lifecycle is the transport's business (requests
        // that a lost connection strands come back as synthesized
        // error responses) — nothing to do here.
        TransportEvent::Connected(_)
        | TransportEvent::Accepted(_)
        | TransportEvent::Disconnected(_) => return,
    };
    match envelope.payload {
        Payload::Response(resp) => {
            if let Some(tx) = shared.pending.lock().remove(&resp.id) {
                // Whoever removes the table entry owns the reply slot
                // and sends into it exactly once; `send` never blocks,
                // so the reactor is never parked here.
                let _ = tx.send(resp.result);
            }
            // Late responses for timed-out calls are dropped silently.
        }
        Payload::Request(req) => {
            let handler = shared.handler.read().clone();
            let from = envelope.src;
            // Both `Copy`: read here so the handler can own the request.
            let (id, trace_ctx) = (req.id, req.trace);
            let reply_shared = Arc::clone(shared);
            let job = move || {
                reply_shared.metrics.requests_served.inc();
                // Serve under the caller's trace context so nested
                // outbound calls made by the handler inherit it.
                let _span = trace_ctx.map(|tc| {
                    trace::enter(SpanCtx {
                        trace: tc.trace_id,
                        span: tc.span_id,
                        hop: tc.hop + 1,
                    })
                });
                let served_start = syd_trace::now_us();
                let result = match handler {
                    Some(h) => h.handle(from, req),
                    None => Err(SydError::NoSuchService(req.service, req.method)),
                };
                // Server view of the RPC: same span id as the client's
                // `rpc.client`, parent 0 (the assembler merges the two
                // views; parentage comes from the client record).
                if let Some(tc) = trace_ctx {
                    reply_shared.tracer.record_span(
                        names::SPAN_RPC_SERVER,
                        tc.trace_id,
                        tc.span_id,
                        0,
                        served_start,
                        syd_trace::now_us(),
                        &[("hop", u64::from(tc.hop))],
                    );
                }
                let _ = reply_shared.link.send(syd_wire::Envelope::new(
                    reply_shared.addr,
                    from,
                    Payload::Response(Response { id, result }),
                ));
            };
            if !shared.runtime.pool().execute(job) {
                // Pool shut down: best effort error response inline.
                let _ = shared.link.send(syd_wire::Envelope::new(
                    shared.addr,
                    from,
                    Payload::Response(Response {
                        id,
                        result: Err(SydError::Shutdown),
                    }),
                ));
            }
        }
        Payload::Event(event) => {
            if let Some(sink) = shared.events.read().clone() {
                let from = envelope.src;
                shared
                    .runtime
                    .pool()
                    .execute(move || sink.on_event(from, event));
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;
    use syd_transport::NetConfig;

    fn echo_handler() -> Arc<dyn RequestHandler> {
        Arc::new(|_from: NodeAddr, req: Request| -> SydResult<Value> {
            Ok(Value::list(req.args.to_vec()))
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
                Value::Bytes(req.credentials),
            ]))
        }));
        let client = Node::spawn(&net);
        client.set_identity(UserId::new(42), vec![9, 9]);
        let v = client
            .call(server.addr(), &ServiceName::new("svc"), "id", vec![])
            .unwrap();
        assert_eq!(v, Value::list([Value::I64(42), Value::Bytes(vec![9, 9])]));
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
        let started = Instant::now();
        let err = client
            .call_with(server.addr(), &ServiceName::new("echo"), "m", vec![], opts)
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
