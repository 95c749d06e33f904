//! SyDEngine: single and group remote invocation with result aggregation
//! (§3.1c).
//!
//! "SyDEngine allows users to execute single or group services remotely via
//! SyDListener and aggregate results." Targets are *users*, not addresses:
//! the engine resolves each user through the SyDDirectory on every call
//! (with a small positive cache invalidated on failure), which is what
//! makes SyD applications location transparent and lets proxies substitute
//! for disconnected devices mid-conversation.
//!
//! Group invocation sends all requests before collecting any response, so
//! a group of `n` costs one round-trip of latency, not `n`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use syd_net::{CallOptions, Node, PendingCall};
use syd_telemetry::{Counter, Histogram};
use syd_types::sync::Mutex;
use syd_types::{NodeAddr, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::Args;

use crate::directory::DirectoryClient;
use crate::qos::QosMonitor;
use syd_telemetry::names;

/// Result of a group invocation: per-user outcomes in request order.
#[derive(Debug)]
pub struct GroupResult {
    /// `(user, outcome)` for every target, in the order given.
    pub outcomes: Vec<(UserId, SydResult<Value>)>,
}

impl GroupResult {
    /// Users that answered successfully, with their values.
    pub fn oks(&self) -> impl Iterator<Item = (UserId, &Value)> {
        self.outcomes
            .iter()
            .filter_map(|(u, r)| r.as_ref().ok().map(|v| (*u, v)))
    }

    /// Users that failed, with their errors.
    pub fn errs(&self) -> impl Iterator<Item = (UserId, &SydError)> {
        self.outcomes
            .iter()
            .filter_map(|(u, r)| r.as_ref().err().map(|e| (*u, e)))
    }

    /// Number of successful outcomes.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|(_, r)| r.is_ok()).count()
    }

    /// True iff every target succeeded.
    pub fn all_ok(&self) -> bool {
        self.ok_count() == self.outcomes.len()
    }

    /// Aggregates successful values into a list (the engine's "result
    /// aggregation" service), preserving target order.
    pub fn aggregate(&self) -> Value {
        Value::list(self.oks().map(|(_, v)| v.clone()))
    }
}

/// One call of a [`SydEngine::invoke_batch`] fan-out.
#[derive(Clone, Debug)]
pub struct Call<'a> {
    /// Target user.
    pub user: UserId,
    /// Service to invoke at the target.
    pub service: &'a ServiceName,
    /// Method of that service.
    pub method: &'a str,
    /// Positional arguments; a shared handle, so a broadcast's calls can
    /// all point at one pre-encoded body.
    pub args: Args,
}

impl<'a> Call<'a> {
    /// A single call with its own arguments.
    pub fn new(
        user: UserId,
        service: &'a ServiceName,
        method: &'a str,
        args: impl Into<Args>,
    ) -> Call<'a> {
        Call {
            user,
            service,
            method,
            args: args.into(),
        }
    }

    /// The same call to every user of `users`: the argument body is
    /// encoded **once** and shared by every outgoing request (and any
    /// retry) — a group of `n` pays one serialisation, not `n`.
    pub fn broadcast(
        users: &'a [UserId],
        service: &'a ServiceName,
        method: &'a str,
        args: Vec<Value>,
    ) -> impl Iterator<Item = Call<'a>> + 'a {
        let args = Args::from(args);
        if !users.is_empty() {
            args.preencode();
        }
        users.iter().map(move |&user| Call {
            user,
            service,
            method,
            args: args.clone(),
        })
    }
}

/// The invocation engine bound to one device's node.
#[derive(Clone)]
pub struct SydEngine {
    node: Node,
    directory: DirectoryClient,
    /// Positive lookup cache: user -> address. Invalidated per-user when a
    /// call through it fails, so proxy switchovers are picked up.
    cache: Arc<Mutex<HashMap<UserId, NodeAddr>>>,
    /// Call options behind a shared cell: [`SydEngine::set_options`]
    /// retunes every clone of this engine at once (the negotiator and
    /// applications hold clones), while [`SydEngine::with_options`]
    /// detaches the new handle onto its own cell, builder style.
    opts: Arc<Mutex<CallOptions>>,
    qos: Option<Arc<QosMonitor>>,
    /// End-to-end invoke latency ("engine.invoke"), resolve included.
    invoke_hist: Histogram,
    /// `engine.batch_resolves` — batched directory round trips issued.
    batch_resolves: Counter,
    /// `engine.resolve_fallbacks` — batched resolutions that fell back
    /// to the per-user overlapped path.
    resolve_fallbacks: Counter,
    /// `engine.rounds` — serial network rounds issued: one per `invoke`,
    /// one per batch fan-out whatever its size.
    rounds: Counter,
}

impl SydEngine {
    /// Builds an engine over `node`, resolving names with `directory`.
    pub fn new(node: Node, directory: DirectoryClient) -> SydEngine {
        let invoke_hist = node.metrics().histogram(names::ENGINE_INVOKE);
        let batch_resolves = node.metrics().counter(names::ENGINE_BATCH_RESOLVES);
        let resolve_fallbacks = node.metrics().counter(names::ENGINE_RESOLVE_FALLBACKS);
        let rounds = node.metrics().counter(names::ENGINE_ROUNDS);
        SydEngine {
            node,
            directory,
            cache: Arc::new(Mutex::new(HashMap::new())),
            opts: Arc::new(Mutex::new(CallOptions::default())),
            qos: None,
            invoke_hist,
            batch_resolves,
            resolve_fallbacks,
            rounds,
        }
    }

    /// Attaches a QoS monitor: every `invoke` is observed, and
    /// [`SydEngine::invoke_with_deadline`] gains admission control.
    pub fn with_qos(mut self, qos: Arc<QosMonitor>) -> SydEngine {
        self.qos = Some(qos);
        self
    }

    /// The attached QoS monitor, if any.
    pub fn qos(&self) -> Option<&Arc<QosMonitor>> {
        self.qos.as_ref()
    }

    /// Replaces the default call options (builder style). The new handle
    /// gets its own options cell — clones made *before* this call keep
    /// their previous settings.
    pub fn with_options(mut self, opts: CallOptions) -> SydEngine {
        self.opts = Arc::new(Mutex::new(opts));
        self
    }

    /// Retunes the call options in place, visible to every clone of this
    /// engine (a device's negotiator and applications included).
    pub fn set_options(&self, opts: CallOptions) {
        *self.opts.lock() = opts;
    }

    /// Current call options.
    fn opts(&self) -> CallOptions {
        *self.opts.lock()
    }

    /// Drops every cached address, forcing the next resolution of each
    /// user back through the directory (cold-start benchmarking, or
    /// after bulk re-registration).
    pub fn flush_cache(&self) {
        self.cache.lock().clear();
    }

    /// The directory client this engine resolves through.
    pub fn directory(&self) -> &DirectoryClient {
        &self.directory
    }

    /// The underlying network node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    fn resolve(&self, user: UserId) -> SydResult<NodeAddr> {
        if let Some(&addr) = self.cache.lock().get(&user) {
            return Ok(addr);
        }
        let (addr, is_proxy) = self.directory.lookup(user)?;
        // Proxy addresses are never cached: while a user is proxied, every
        // call re-resolves, so the moment the primary reconnects peers
        // switch back to it ("once A comes back up, A takes over the
        // proxy", §5.2).
        if !is_proxy {
            self.cache.lock().insert(user, addr);
        }
        Ok(addr)
    }

    fn invalidate(&self, user: UserId) {
        self.cache.lock().remove(&user);
    }

    /// Resolves many users at once. Cache hits are served locally; the
    /// misses go to the directory in **one** batched `lookup_many` round
    /// trip, so a cold group call costs a single directory exchange
    /// regardless of group size. If the batch itself fails — lossy
    /// network, or a directory predating the batched method — the engine
    /// falls back to overlapped per-user lookups, which degrade
    /// gracefully one member at a time.
    pub fn resolve_many(&self, users: &[UserId]) -> Vec<(UserId, SydResult<NodeAddr>)> {
        // Directory resolution is one of the phases the critical-path
        // analyzer attributes; the lookup RPCs below nest under this span.
        let mut span = self.node.tracer().span(names::SPAN_DIR_RESOLVE);
        span.attr("users", users.len() as u64);
        let mut out: Vec<(UserId, Option<SydResult<NodeAddr>>)> = Vec::with_capacity(users.len());
        let mut misses: Vec<(usize, UserId)> = Vec::new();
        {
            let cache = self.cache.lock();
            for (i, &user) in users.iter().enumerate() {
                if let Some(&addr) = cache.get(&user) {
                    out.push((user, Some(Ok(addr))));
                } else {
                    out.push((user, None));
                    misses.push((i, user));
                }
            }
        }
        if !misses.is_empty() {
            let opts = self.opts();
            let miss_users: Vec<UserId> = misses.iter().map(|&(_, u)| u).collect();
            self.batch_resolves.inc();
            // The batch is idempotent, so retry it through loss; keep the
            // engine's own deadline so a drop fails over quickly.
            let batch = self.directory.lookup_many_with(
                &miss_users,
                CallOptions::new()
                    .with_timeout(opts.timeout)
                    .with_retries(opts.retries.max(4)),
            );
            match batch {
                Ok(entries) => {
                    for (&(i, user), entry) in misses.iter().zip(entries) {
                        let result = match entry {
                            Some((addr, is_proxy)) => {
                                // Proxy addresses are never cached (§5.2),
                                // same as the single-user path.
                                if !is_proxy {
                                    self.cache.lock().insert(user, addr);
                                }
                                Ok(addr)
                            }
                            None => Err(SydError::NotRegistered(user.to_string())),
                        };
                        out[i].1 = Some(result);
                    }
                }
                Err(_) => {
                    // Whole batch lost: fall back to the overlapped
                    // per-user path, which retries members independently.
                    self.resolve_fallbacks.inc();
                    return self.resolve_many_overlapped(users);
                }
            }
        }
        out.into_iter()
            .map(|(user, r)| {
                // Every slot is filled by the loop above; a miss is a
                // logic bug surfaced as an error, not a panic.
                let r = r.unwrap_or_else(|| Err(SydError::App("lookup slot left unfilled".into())));
                (user, r)
            })
            .collect()
    }

    /// The error path of a lost batch: overlapped single lookups for
    /// cache misses, so resolution still costs one lookup round trip of
    /// *latency* — but `n` request/response exchanges on the wire.
    fn resolve_many_overlapped(&self, users: &[UserId]) -> Vec<(UserId, SydResult<NodeAddr>)> {
        let opts = self.opts();
        let mut out: Vec<(UserId, Option<SydResult<NodeAddr>>)> = Vec::with_capacity(users.len());
        let mut pending: Vec<(usize, PendingCall)> = Vec::new();
        {
            let cache = self.cache.lock();
            for &user in users {
                if let Some(&addr) = cache.get(&user) {
                    out.push((user, Some(Ok(addr))));
                } else {
                    out.push((user, None));
                }
            }
            drop(cache);
            for (i, &user) in users.iter().enumerate() {
                if out[i].1.is_some() {
                    continue;
                }
                let sent = self.node.call_async(
                    self.directory.dir_addr(),
                    &crate::directory::dir_service(),
                    "lookup",
                    vec![Value::from(user.raw())],
                );
                match sent {
                    Ok(call) => pending.push((i, call)),
                    Err(e) => out[i].1 = Some(Err(e)),
                }
            }
        }
        for (i, call) in pending {
            let result = call.wait(opts.timeout).and_then(|v| {
                let addr = NodeAddr::new(v.get("addr")?.as_i64()? as u64);
                let is_proxy = v.get("is_proxy")?.as_bool()?;
                Ok((addr, is_proxy))
            });
            let result = match result {
                Ok((addr, is_proxy)) => {
                    if !is_proxy {
                        self.cache.lock().insert(users[i], addr);
                    }
                    Ok(addr)
                }
                // The overlapped fast path lost its message (lossy
                // network): fall back to a retrying lookup bounded by the
                // engine's own deadline, so a single drop cannot fail the
                // whole group member.
                Err(err) if err.is_transient() => self
                    .directory
                    .lookup_with(
                        users[i],
                        CallOptions::new()
                            .with_timeout(opts.timeout)
                            .with_retries(opts.retries.max(4)),
                    )
                    .map(|(addr, is_proxy)| {
                        if !is_proxy {
                            self.cache.lock().insert(users[i], addr);
                        }
                        addr
                    }),
                Err(e) => Err(e),
            };
            out[i].1 = Some(result);
        }
        out.into_iter()
            .map(|(user, r)| {
                // Every slot is filled by the loop above; a miss is a
                // logic bug surfaced as an error, not a panic.
                let r = r.unwrap_or_else(|| Err(SydError::App("lookup slot left unfilled".into())));
                (user, r)
            })
            .collect()
    }

    /// One blocking call to a resolved address, with the logical target
    /// user stamped on the request (proxy routing) and this engine's
    /// deadline/retry options applied. Takes [`Args`] so retry attempts
    /// (and group broadcasts) clone a shared handle, not the values.
    fn call_at(
        &self,
        addr: NodeAddr,
        target: UserId,
        service: &ServiceName,
        method: &str,
        args: Args,
    ) -> SydResult<Value> {
        let opts = self.opts();
        let mut attempts = 0;
        loop {
            let pending = self
                .node
                .call_async_to(addr, target, service, method, args.clone())?;
            match pending.wait(opts.timeout) {
                Ok(v) => return Ok(v),
                Err(err) if err.is_transient() && attempts < opts.retries => attempts += 1,
                Err(err) => return Err(err),
            }
        }
    }

    /// Invokes `service.method(args)` on `user`'s device (or its proxy).
    ///
    /// On a transient failure the engine re-resolves the user once — this
    /// is the moment a proxy silently replaces a disconnected device.
    pub fn invoke(
        &self,
        user: UserId,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> SydResult<Value> {
        let started = std::time::Instant::now();
        let result = self.invoke_inner(user, service, method, args);
        self.invoke_hist.record_duration(started.elapsed());
        if let Some(qos) = &self.qos {
            qos.observe(user, service, started.elapsed(), result.is_ok());
        }
        result
    }

    /// QoS-aware invocation (§3.2, companion paper \[4\]): refuse targets
    /// whose observed latency cannot plausibly meet `deadline`, and bound
    /// the call by it. Requires [`SydEngine::with_qos`].
    pub fn invoke_with_deadline(
        &self,
        user: UserId,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
        deadline: Duration,
    ) -> SydResult<Value> {
        if let Some(qos) = &self.qos {
            qos.admit(user, service, deadline)?;
        }
        let bounded = self.clone().with_options(
            CallOptions::new()
                .with_timeout(deadline)
                .with_retries(self.opts().retries),
        );
        let started = std::time::Instant::now();
        let result = bounded.invoke_inner(user, service, method, args);
        self.invoke_hist.record_duration(started.elapsed());
        if let Some(qos) = &self.qos {
            qos.observe(user, service, started.elapsed(), result.is_ok());
        }
        result
    }

    fn invoke_inner(
        &self,
        user: UserId,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> SydResult<Value> {
        self.rounds.inc();
        let args = Args::from(args);
        let addr = self.resolve(user)?;
        match self.call_at(addr, user, service, method, args.clone()) {
            Ok(v) => Ok(v),
            Err(err) if err.is_transient() || matches!(err, SydError::Unreachable(_)) => {
                // Re-resolve: the directory may now point at a proxy (or at
                // the primary again after recovery).
                self.invalidate(user);
                let fresh = self.resolve(user)?;
                if fresh == addr {
                    return Err(err);
                }
                self.call_at(fresh, user, service, method, args)
            }
            Err(err) => Err(err),
        }
    }

    /// Invokes the same method on every user concurrently and collects
    /// per-user outcomes. One [`SydEngine::invoke_batch`] round over a
    /// [`Call::broadcast`].
    pub fn invoke_group(
        &self,
        users: &[UserId],
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> GroupResult {
        let calls: Vec<Call<'_>> = Call::broadcast(users, service, method, args).collect();
        self.invoke_batch(&calls)
    }

    /// Invokes a method on every member of a *named directory group* —
    /// "user/object groups can also be formed on SyDDirectory" (§3.1a) and
    /// the engine "execute\[s\] a service on a group of objects".
    pub fn invoke_group_by_name(
        &self,
        group: &str,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> SydResult<GroupResult> {
        let group_id = self.directory.group_by_name(group)?;
        let members = self.directory.group_members(group_id)?;
        Ok(self.invoke_group(&members, service, method, args))
    }

    /// Like [`SydEngine::invoke_group`] but with per-user arguments — the
    /// negotiation protocol marks each participant's *own* entity, so every
    /// request differs (and nothing can be encode-shared).
    pub fn invoke_group_varied(
        &self,
        calls: &[(UserId, Vec<Value>)],
        service: &ServiceName,
        method: &str,
    ) -> GroupResult {
        let calls: Vec<Call<'_>> = calls
            .iter()
            .map(|(user, args)| Call::new(*user, service, method, args.as_slice()))
            .collect();
        self.invoke_batch(&calls)
    }

    /// The one fan-out primitive: resolves every target once (one batched
    /// directory round trip for the misses), sends **every** request
    /// before collecting any response, then collects in call order. The
    /// calls may differ in target, service, method and arguments, and
    /// several may go to the same user; a batch of any size costs one
    /// round trip of latency.
    ///
    /// Every failed call gets the same single re-resolve retry as
    /// [`SydEngine::invoke`]: transient wait failures *and*
    /// transient/unreachable send failures invalidate the cached address,
    /// re-resolve (the directory may now point at a proxy) and try once
    /// more at the fresh address.
    pub fn invoke_batch(&self, calls: &[Call<'_>]) -> GroupResult {
        if calls.is_empty() {
            return GroupResult {
                outcomes: Vec::new(),
            };
        }
        self.rounds.inc();
        let mut users: Vec<UserId> = calls.iter().map(|c| c.user).collect();
        users.sort_unstable();
        users.dedup();
        let resolved = self.resolve_many(&users);
        let sent: Vec<SydResult<PendingCall>> = calls
            .iter()
            .map(|call| {
                // `users` is sorted and holds every call's user, and
                // `resolved` answers it position by position.
                let slot = users.partition_point(|u| *u < call.user);
                resolved[slot].1.clone().and_then(|addr| {
                    self.node.call_async_to(
                        addr,
                        call.user,
                        call.service,
                        call.method,
                        call.args.clone(),
                    )
                })
            })
            .collect();
        let timeout = self.opts().timeout;
        let outcomes = calls
            .iter()
            .zip(sent)
            .map(|(call, sent)| {
                let outcome = match sent.and_then(|pending| pending.wait(timeout)) {
                    Ok(v) => Ok(v),
                    Err(err) if err.is_transient() || matches!(err, SydError::Unreachable(_)) => {
                        self.invalidate(call.user);
                        self.resolve(call.user).and_then(|addr| {
                            self.call_at(
                                addr,
                                call.user,
                                call.service,
                                call.method,
                                call.args.clone(),
                            )
                        })
                    }
                    Err(err) => Err(err),
                };
                (call.user, outcome)
            })
            .collect();
        GroupResult { outcomes }
    }

    /// Timeout used for collection (diagnostic accessor).
    pub fn timeout(&self) -> Duration {
        self.opts().timeout
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::directory::DirectoryServer;
    use syd_net::{Network, RequestHandler};
    use syd_wire::Request;

    /// Spin up a directory plus `n` plain echo servers registered as users
    /// 1..=n, each answering `svc.echo(args) -> [user, args...]`.
    fn setup(n: u64) -> (Network, DirectoryServer, SydEngine, Vec<Node>) {
        let net = Network::ideal();
        let dir = DirectoryServer::start(&net);
        let mut servers = Vec::new();
        let client_node = Node::spawn(&net);
        let dirc = DirectoryClient::new(client_node.clone(), dir.addr());
        for id in 1..=n {
            let server = Node::spawn(&net);
            let user = UserId::new(id);
            server.set_handler(Arc::new(move |_from, req: Request| {
                if req.method == "boom" {
                    return Err(SydError::App("boom".into()));
                }
                let mut out = vec![Value::from(id)];
                out.extend(req.args.iter().cloned());
                Ok(Value::list(out))
            }) as Arc<dyn RequestHandler>);
            dirc.register(user, &format!("user{id}"), server.addr())
                .unwrap();
            servers.push(server);
        }
        let engine = SydEngine::new(client_node, dirc);
        (net, dir, engine, servers)
    }

    #[test]
    fn single_invoke_resolves_by_user() {
        let (_net, _dir, engine, _servers) = setup(2);
        let out = engine
            .invoke(
                UserId::new(2),
                &ServiceName::new("svc"),
                "echo",
                vec![Value::str("hi")],
            )
            .unwrap();
        assert_eq!(out, Value::list([Value::I64(2), Value::str("hi")]));
    }

    #[test]
    fn group_invoke_collects_everyone_in_order() {
        let (_net, _dir, engine, _servers) = setup(5);
        let users: Vec<UserId> = (1..=5).map(UserId::new).collect();
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        assert!(result.all_ok());
        assert_eq!(result.ok_count(), 5);
        let ids: Vec<u64> = result.outcomes.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(
            result.aggregate(),
            Value::list((1..=5).map(|i| Value::list([Value::I64(i)])))
        );
    }

    #[test]
    fn group_invoke_mixes_successes_and_failures() {
        let (_net, _dir, engine, _servers) = setup(3);
        let users: Vec<UserId> = (1..=3).map(UserId::new).collect();
        // Everyone fails method "boom".
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "boom", vec![]);
        assert_eq!(result.ok_count(), 0);
        assert_eq!(result.errs().count(), 3);
        assert!(!result.all_ok());
        assert_eq!(result.aggregate(), Value::list([]));
    }

    #[test]
    fn unknown_user_fails_cleanly_in_group() {
        let (_net, _dir, engine, _servers) = setup(1);
        let users = vec![UserId::new(1), UserId::new(404)];
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        assert_eq!(result.ok_count(), 1);
        let (bad_user, err) = result.errs().next().unwrap();
        assert_eq!(bad_user, UserId::new(404));
        assert!(matches!(err, SydError::NotRegistered(_)));
    }

    #[test]
    fn cache_invalidation_follows_address_changes() {
        let (net, _dir, engine, servers) = setup(1);
        let user = UserId::new(1);
        let svc = ServiceName::new("svc");
        // Prime the cache.
        engine.invoke(user, &svc, "echo", vec![]).unwrap();
        // Move the user to a new node (re-register), kill the old node.
        let new_server = Node::spawn(&net);
        new_server.set_handler(
            Arc::new(move |_from, _req: Request| Ok(Value::str("new home")))
                as Arc<dyn RequestHandler>,
        );
        engine
            .directory()
            .register(user, "user1", new_server.addr())
            .unwrap();
        servers[0].shutdown();
        // Old address unreachable -> engine re-resolves and succeeds.
        let out = engine.invoke(user, &svc, "echo", vec![]).unwrap();
        assert_eq!(out, Value::str("new home"));
    }

    #[test]
    fn app_errors_do_not_trigger_reresolution() {
        let (_net, _dir, engine, _servers) = setup(1);
        let err = engine
            .invoke(UserId::new(1), &ServiceName::new("svc"), "boom", vec![])
            .unwrap_err();
        assert_eq!(err, SydError::App("boom".into()));
    }

    /// Reads a directory-server counter, defaulting to 0 if untouched.
    fn dir_counter(dir: &DirectoryServer, name: &str) -> u64 {
        dir.metrics().get_counter(name).map_or(0, |c| c.get())
    }

    #[test]
    fn cold_group_invoke_uses_one_directory_round_trip() {
        let (_net, dir, engine, _servers) = setup(8);
        let users: Vec<UserId> = (1..=8).map(UserId::new).collect();
        let before = dir_counter(&dir, "dir.batch_lookups");
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        assert!(result.all_ok());
        // One batched exchange served the whole cold group; no single
        // lookups at all (registration goes through "register", and the
        // setup helper never resolves).
        assert_eq!(dir_counter(&dir, "dir.batch_lookups") - before, 1);
        assert_eq!(dir_counter(&dir, "dir.batch_lookup_users"), 8);
        assert_eq!(dir_counter(&dir, "dir.lookups"), 0);
        // Warm repeat: served fully from cache, zero directory traffic.
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        assert!(result.all_ok());
        assert_eq!(dir_counter(&dir, "dir.batch_lookups") - before, 1);
        assert_eq!(dir_counter(&dir, "dir.lookups"), 0);
    }

    #[test]
    fn flush_cache_forces_reresolution() {
        let (_net, dir, engine, _servers) = setup(2);
        let users: Vec<UserId> = (1..=2).map(UserId::new).collect();
        engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        engine.flush_cache();
        engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        assert_eq!(dir_counter(&dir, "dir.batch_lookups"), 2);
    }

    /// A stand-in for a directory predating the batched method: it serves
    /// `lookup` for the `setup` users and nothing else, so `lookup_many`
    /// comes back `NoSuchService`. Returns it with an engine on `engine`'s
    /// node that resolves through it.
    fn old_directory(net: &Network, engine: &SydEngine, servers: &[Node]) -> (Node, SydEngine) {
        let addrs: Vec<NodeAddr> = servers.iter().map(Node::addr).collect();
        let old_dir = Node::spawn(net);
        old_dir.set_handler(Arc::new(move |_from, req: Request| {
            if req.method != "lookup" {
                return Err(SydError::NoSuchService(req.service, req.method));
            }
            let user = req.args.to_vec()[0].as_i64()? as usize;
            Ok(Value::map([
                ("addr", Value::from(addrs[user - 1].raw())),
                ("is_proxy", Value::Bool(false)),
            ]))
        }) as Arc<dyn RequestHandler>);
        let node = engine.node().clone();
        let dirc = DirectoryClient::new(node.clone(), old_dir.addr());
        (old_dir, SydEngine::new(node, dirc))
    }

    #[test]
    fn lost_batch_falls_back_to_per_user_lookups() {
        let (net, dir, engine, servers) = setup(4);
        let (_old_dir, engine) = old_directory(&net, &engine, &servers);
        let users: Vec<UserId> = (1..=4).map(UserId::new).collect();
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        assert!(result.all_ok(), "outcomes: {:?}", result.outcomes);
        let fallbacks = engine
            .node()
            .metrics()
            .counter(names::ENGINE_RESOLVE_FALLBACKS);
        assert_eq!(fallbacks.get(), 1);
        // The real directory saw none of it.
        assert_eq!(dir_counter(&dir, "dir.batch_lookups"), 0);
        assert_eq!(dir_counter(&dir, "dir.lookups"), 0);
    }

    /// Under message loss, a dropped lookup must not fail its sibling
    /// group members — and whatever the loss, every successful resolution
    /// must land in the cache so the next round is free.
    fn resolve_many_survives_loss(net: &Network, engine: &SydEngine) {
        // At 40 % loss one attempt (request and reply both delivered)
        // fails with probability 0.64. Forty retries put a member's
        // failure below 0.64^41 ≈ 1e-8, so the outcome does not depend on
        // which RNG stream the loss model draws from; the expected cost
        // stays under two retries per member.
        engine.set_options(
            CallOptions::new()
                .with_timeout(Duration::from_millis(40))
                .with_retries(40),
        );
        let users: Vec<UserId> = (1..=6).map(UserId::new).collect();
        // The batched exchange is only a couple of messages, so a single
        // seed may sail through loss-free; walk seeds (deterministically)
        // until the loss model has actually dropped something.
        for seed in 0..20 {
            net.reconfigure(syd_net::NetConfig::ideal().with_loss(0.4).with_seed(seed));
            engine.flush_cache();
            let resolved = engine.resolve_many(&users);
            for (user, r) in &resolved {
                assert!(r.is_ok(), "user {user} failed (seed {seed}): {r:?}");
            }
            if net.stats().dropped_loss > 0 {
                break;
            }
        }
        assert!(net.stats().dropped_loss > 0, "loss model never fired");
        // Cut the network entirely: resolution must now come from cache.
        net.reconfigure(syd_net::NetConfig::ideal().with_loss(1.0).with_seed(8));
        let resolved = engine.resolve_many(&users);
        for (user, r) in &resolved {
            assert!(r.is_ok(), "user {user} not cached: {r:?}");
        }
    }

    #[test]
    fn batched_resolve_survives_loss_and_populates_cache() {
        let (net, _dir, engine, _servers) = setup(6);
        resolve_many_survives_loss(&net, &engine);
    }

    #[test]
    fn overlapped_resolve_survives_loss_and_populates_cache() {
        // Behind a directory without `lookup_many`, the error path.
        let (net, _dir, engine, servers) = setup(6);
        let (_old_dir, engine) = old_directory(&net, &engine, &servers);
        resolve_many_survives_loss(&net, &engine);
    }

    #[test]
    fn varied_group_retries_after_stale_cache_entry() {
        let (net, _dir, engine, servers) = setup(2);
        let svc = ServiceName::new("svc");
        let users: Vec<UserId> = (1..=2).map(UserId::new).collect();
        // Prime the cache for both users.
        assert!(engine.invoke_group(&users, &svc, "echo", vec![]).all_ok());
        // User 1 moves to a new node; the old one dies. The cached address
        // is now stale, so the send fails Unreachable — the varied group
        // call must re-resolve and retry, like `invoke` does.
        let user = UserId::new(1);
        let new_server = Node::spawn(&net);
        new_server.set_handler(
            Arc::new(move |_from, _req: Request| Ok(Value::str("moved")))
                as Arc<dyn RequestHandler>,
        );
        engine
            .directory()
            .register(user, "user1", new_server.addr())
            .unwrap();
        servers[0].shutdown();
        let calls: Vec<(UserId, Vec<Value>)> = users
            .iter()
            .map(|&u| (u, vec![Value::from(u.raw())]))
            .collect();
        let result = engine.invoke_group_varied(&calls, &svc, "echo");
        assert!(result.all_ok(), "outcomes: {:?}", result.outcomes);
        assert_eq!(result.outcomes[0].1.as_ref().unwrap(), &Value::str("moved"));
    }

    #[test]
    fn shared_encode_serialises_the_broadcast_body_once() {
        use syd_wire::Encode;
        let (net, _dir, engine, _servers) = setup(8);
        let users: Vec<UserId> = (1..=8).map(UserId::new).collect();
        // Warm the cache so both rounds below differ only in body bytes.
        assert!(engine
            .invoke_group(&users, &ServiceName::new("svc"), "echo", vec![])
            .all_ok());
        let payload = vec![Value::str("x".repeat(512))];
        let body_len = {
            let args = Args::from(payload.clone());
            args.encoded_len() as u64
        };
        let before = net.stats().bytes_sent;
        assert!(engine
            .invoke_group(&users, &ServiceName::new("svc"), "echo", payload)
            .all_ok());
        let wire_bytes = net.stats().bytes_sent - before;
        // Every recipient still receives the full body on the wire; the
        // saving is CPU (one encode) and heap (one buffer), not bytes.
        assert!(
            wire_bytes >= 8 * body_len,
            "expected >= {} broadcast bytes, saw {wire_bytes}",
            8 * body_len
        );
    }
}
