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
//! a group of `n` costs one round-trip of latency, not `n`. When a request
//! is given up and sent again is not decided here: every invocation is
//! [`syd_net::Node::call_many`] plus this engine's resolver.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

pub use syd_net::Call;
use syd_net::{Body, CallOptions, Node, Verb};
use syd_telemetry::{Counter, Histogram};
use syd_types::sync::{Mutex, Rank};
use syd_types::{NodeAddr, ServiceName, SydError, SydResult, Text, UserId, Value};
use syd_wire::{Args, AsValue, Params};

use crate::directory::{DirectoryClient, GROUP_BY_NAME, GROUP_MEMBERS, LOOKUP_MANY};
use crate::negotiate::{ABORT, COMMIT, LINK, MARK};
use syd_telemetry::names;

/// Result of a group invocation: per-user outcomes in request order,
/// each a `Value` or, for a [`SydEngine::call_group`], the verb's reply.
#[derive(Debug)]
pub struct GroupResult<R = Value> {
    /// `(user, outcome)` for every target, in the order given.
    pub outcomes: Vec<(UserId, SydResult<R>)>,
}

impl<R> GroupResult<R> {
    /// Users that answered successfully, with their values.
    pub fn oks(&self) -> impl Iterator<Item = (UserId, &R)> {
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
}

impl GroupResult {
    /// Aggregates successful values into a list (the engine's "result
    /// aggregation" service), preserving target order.
    pub fn aggregate(&self) -> Value {
        Value::list(self.oks().map(|(_, v)| v.clone()))
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
    /// Call options, set by [`SydEngine::with_options`]; each clone
    /// carries its own copy.
    opts: CallOptions,
    /// End-to-end invoke latency ("engine.invoke"), resolve included.
    invoke_hist: Histogram,
    /// `engine.batch_resolves` — batched directory round trips issued.
    batch_resolves: Counter,
    /// `engine.rounds` — serial network rounds issued: one per `invoke`,
    /// one per batch fan-out whatever its size.
    rounds: Counter,
}

impl SydEngine {
    /// Builds an engine over `node`, resolving names with `directory`.
    pub fn new(node: Node, directory: DirectoryClient) -> SydEngine {
        let invoke_hist = node.metrics().histogram(names::ENGINE_INVOKE);
        let batch_resolves = node.metrics().counter(names::ENGINE_BATCH_RESOLVES);
        let rounds = node.metrics().counter(names::ENGINE_ROUNDS);
        SydEngine {
            node,
            directory,
            cache: Arc::new(Mutex::new(Rank::Engine, HashMap::new())),
            opts: CallOptions::default(),
            invoke_hist,
            batch_resolves,
            rounds,
        }
    }

    /// Replaces the default call options (builder style).
    pub fn with_options(mut self, opts: CallOptions) -> SydEngine {
        self.opts = opts;
        self
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

    /// Resolves many users at once. Cache hits are served locally; the
    /// misses go to the directory in **one** batched `lookup_many` round
    /// trip, so a cold group call costs a single directory exchange
    /// regardless of group size. The exchange is idempotent and retried
    /// through loss at least four times; if it still fails, every miss
    /// fails with its error.
    pub fn resolve_many(&self, users: &[UserId]) -> Vec<(UserId, SydResult<NodeAddr>)> {
        // Directory resolution is one of the phases the critical-path
        // analyzer attributes; the lookup RPC below nests under this span.
        let mut span = self.node.tracer().span(names::SPAN_DIR_RESOLVE);
        span.attr("users", users.len() as u64);
        let mut misses: Vec<usize> = Vec::new();
        let mut out: Vec<(UserId, SydResult<NodeAddr>)> = {
            let cache = self.cache.lock();
            users
                .iter()
                .enumerate()
                .map(|(i, &user)| match cache.get(&user) {
                    Some(&addr) => (user, Ok(addr)),
                    None => {
                        misses.push(i);
                        // Overwritten below with the directory's answer.
                        (user, Err(SydError::NotRegistered(String::new())))
                    }
                })
                .collect()
        };
        if misses.is_empty() {
            return out;
        }
        let opts = self.opts;
        let miss_users: Vec<UserId> = misses.iter().map(|&i| users[i]).collect();
        self.batch_resolves.inc();
        // The engine's own deadline, so a drop is re-sent quickly.
        let batch = self
            .directory
            .call_with(
                LOOKUP_MANY,
                (miss_users,),
                opts.with_retries(opts.retries.max(4)),
            )
            .and_then(|entries| {
                if entries.len() == misses.len() {
                    return Ok(entries);
                }
                Err(SydError::Protocol(format!(
                    "lookup_many returned {} entries for {} users",
                    entries.len(),
                    misses.len()
                )))
            });
        for (k, &i) in misses.iter().enumerate() {
            let user = users[i];
            out[i].1 = match &batch {
                Ok(entries) => match entries[k] {
                    Some((addr, is_proxy)) => {
                        // Proxy addresses are never cached: while a user
                        // is proxied every call re-resolves, so the moment
                        // the primary reconnects peers switch back to it
                        // ("once A comes back up, A takes over the proxy",
                        // §5.2).
                        if !is_proxy {
                            self.cache.lock().insert(user, addr);
                        }
                        Ok(addr)
                    }
                    None => Err(SydError::NotRegistered(user.to_string())),
                },
                Err(err) => Err(err.clone()),
            };
        }
        out
    }

    /// Invokes `service.method(args)` on `user`'s device (or its proxy):
    /// an [`SydEngine::invoke_batch`] of one call.
    pub fn invoke(
        &self,
        user: UserId,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> SydResult<Value> {
        self.one(Call::new(user, service, method, args))
    }

    /// Calls `verb` on `user`'s device (or its proxy) and reads its reply:
    /// [`SydEngine::invoke`] of a declared verb.
    pub fn call<A: Params, R: AsValue>(
        &self,
        user: UserId,
        verb: Verb<A, R>,
        args: impl Into<Body<A>>,
    ) -> SydResult<R> {
        verb.reply(self.one(Call::verb(user, verb, args)))
    }

    /// Calls `verb` on every user of `users` at once, one body shared by
    /// all, and reads each reply: [`SydEngine::invoke_group`] of a
    /// declared verb.
    pub fn call_group<A: Params, R: AsValue>(
        &self,
        users: &[UserId],
        verb: Verb<A, R>,
        args: impl Into<Body<A>>,
    ) -> GroupResult<R> {
        let calls: Vec<Call<'_>> = Call::verb_each(users, verb, args).collect();
        let outcomes = self.invoke_batch(&calls).outcomes.into_iter();
        GroupResult {
            outcomes: outcomes.map(|(u, r)| (u, verb.reply(r))).collect(),
        }
    }

    /// One call, timed into `engine.invoke`.
    fn one(&self, call: Call<'_>) -> SydResult<Value> {
        // `engine.invoke` is a wall-latency histogram, whatever the clock.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let result = self
            .invoke_batch(std::slice::from_ref(&call))
            .outcomes
            .pop()
            // One call in, one outcome out.
            .map_or(Err(SydError::Shutdown), |(_, outcome)| outcome);
        #[allow(clippy::disallowed_methods)] // wall latency, as above
        self.invoke_hist.record_duration(started.elapsed());
        result
    }

    /// An [`SydEngine::invoke`] bounded by `deadline`: every send of the
    /// call waits at most that long for its answer.
    pub fn invoke_with_deadline(
        &self,
        user: UserId,
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
        deadline: Duration,
    ) -> SydResult<Value> {
        // The clone shares this engine's histogram and counters.
        self.clone()
            .with_options(self.opts.with_timeout(deadline))
            .invoke(user, service, method, args)
    }

    /// Invokes the same method on every user concurrently and collects
    /// per-user outcomes. One [`SydEngine::invoke_batch`] round, its calls
    /// sharing one encoding of `args`.
    pub fn invoke_group(
        &self,
        users: &[UserId],
        service: &ServiceName,
        method: &str,
        args: Vec<Value>,
    ) -> GroupResult {
        let args = Args::from(args);
        let calls: Vec<Call<'_>> = (users.iter())
            .map(|&user| Call::new(user, service, method, args.clone()))
            .collect();
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
        refuse_protocol_verb(service, method)?;
        let group_id = self.directory.call(GROUP_BY_NAME, (Text::from(group),))?;
        let members = self.directory.call(GROUP_MEMBERS, (group_id,))?;
        Ok(self.invoke_group(&members, service, method, args))
    }

    /// The one fan-out primitive: [`Node::call_many`] with this engine as
    /// its router. The calls may differ in target, service, method and
    /// arguments, and several may go to the same user; outcomes come back
    /// in call order, and a batch of any size costs one round trip of
    /// latency.
    ///
    /// The §4.3 verbs — `mark`, `commit` and `abort` of the link service —
    /// are the negotiator's alone ([`crate::Negotiator`]): a batch that
    /// holds one is refused whole with [`SydError::Protocol`], before
    /// anything is sent.
    ///
    /// ```
    /// # use syd_core::{negotiate::link_service, SydEnv};
    /// # use syd_types::{SydError, Value};
    /// # let env = SydEnv::new_insecure(syd_net::NetConfig::ideal());
    /// # let (a, b) = (env.device("a", "").unwrap(), env.device("b", "").unwrap());
    /// let args = vec![Value::from(1u64), Value::str("slot:1"), Value::Null];
    /// let refused = a.engine().invoke_group(&[b.user()], &link_service(), "mark", args);
    /// assert!(matches!(refused.outcomes[0].1, Err(SydError::Protocol(_))));
    /// ```
    pub fn invoke_batch(&self, calls: &[Call<'_>]) -> GroupResult {
        let refused = calls
            .iter()
            .find_map(|call| refuse_protocol_verb(call.service, call.method).err());
        if let Some(err) = refused {
            return GroupResult {
                outcomes: calls
                    .iter()
                    .map(|call| (call.user, Err(err.clone())))
                    .collect(),
            };
        }
        self.batch(calls)
    }

    /// [`SydEngine::invoke_batch`] with the §4.3 verbs allowed: the
    /// negotiator's way out.
    ///
    /// The first wave goes to the addresses [`SydEngine::resolve_many`]
    /// knows (one batched directory round trip for the misses). Every
    /// later wave first forgets the cached address of each user it still
    /// owes a call and resolves them again, together — the moment a proxy
    /// silently replaces a disconnected device, or a moved user is found.
    /// That first re-resolved wave is not charged to the retry budget, so
    /// a failing call is sent `2 + retries` times and the whole batch
    /// returns within `(2 + retries) × timeout`.
    pub(crate) fn batch(&self, calls: &[Call<'_>]) -> GroupResult {
        if calls.is_empty() {
            return GroupResult {
                outcomes: Vec::new(),
            };
        }
        self.rounds.inc();
        let opts = self.opts;
        let mut first_wave = true;
        let results = self.node.call_many(
            calls,
            opts.with_retries(opts.retries.saturating_add(1)),
            &mut |outstanding| {
                let mut users: Vec<UserId> = outstanding.iter().map(|&i| calls[i].user).collect();
                users.sort_unstable();
                users.dedup();
                if !std::mem::take(&mut first_wave) {
                    let mut cache = self.cache.lock();
                    for user in &users {
                        cache.remove(user);
                    }
                }
                let resolved = self.resolve_many(&users);
                outstanding
                    .iter()
                    .map(|&i| {
                        // `users` is sorted and holds every outstanding
                        // call's user; `resolved` answers it position by
                        // position.
                        let slot = users.partition_point(|u| *u < calls[i].user);
                        resolved[slot].1.clone()
                    })
                    .collect()
            },
        );
        GroupResult {
            outcomes: calls.iter().map(|call| call.user).zip(results).collect(),
        }
    }

    /// Timeout used for collection (diagnostic accessor).
    pub fn timeout(&self) -> Duration {
        self.opts.timeout
    }
}

/// `Err(Protocol)` for a §4.3 verb of the link service.
fn refuse_protocol_verb(service: &ServiceName, method: &str) -> SydResult<()> {
    let verbs = [MARK.name, COMMIT.name, ABORT.name];
    if verbs.contains(&method) && service == LINK {
        return Err(SydError::Protocol(format!(
            "`{method}` is sent by the negotiator only"
        )));
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use crate::directory::DirectoryServer;
    use crate::directory::{REGISTER, REGISTER_PROXY, SET_CONNECTED};
    use crate::negotiate::link_service;
    use syd_net::{Network, RequestHandler, Transport};
    use syd_wire::Request;

    /// The network's `transport.*` counter called `name`.
    fn net_count(net: &Network, name: &str) -> u64 {
        net.metrics().counter(name).get()
    }

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
                out.extend(req.args.to_vec()?);
                Ok(Value::list(out))
            }) as Arc<dyn RequestHandler>);
            dirc.call(REGISTER, (user, format!("user{id}").into(), server.addr()))
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
            .call(REGISTER, (user, "user1".into(), new_server.addr()))
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

    /// Under message loss, a dropped lookup must not fail its sibling
    /// group members — and whatever the loss, every successful resolution
    /// must land in the cache so the next round is free.
    #[test]
    fn batched_resolve_survives_loss_and_populates_cache() {
        let (net, _dir, engine, _servers) = setup(6);
        // At 40 % loss one attempt (request and reply both delivered)
        // fails with probability 0.64. Forty retries put the batch's
        // failure below 0.64^41 ≈ 1e-8, so the outcome does not depend on
        // which RNG stream the loss model draws from; the expected cost
        // stays under two retries.
        let engine = engine.with_options(
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
            if net_count(&net, names::TRANSPORT_DROPPED_LOSS) > 0 {
                break;
            }
        }
        let dropped = net_count(&net, names::TRANSPORT_DROPPED_LOSS);
        assert!(dropped > 0, "loss model never fired");
        // Cut the network entirely: resolution must now come from cache.
        net.reconfigure(syd_net::NetConfig::ideal().with_loss(1.0).with_seed(8));
        let resolved = engine.resolve_many(&users);
        for (user, r) in &resolved {
            assert!(r.is_ok(), "user {user} not cached: {r:?}");
        }
    }

    #[test]
    fn varied_group_retries_after_stale_cache_entry() {
        let (net, _dir, engine, servers) = setup(2);
        let svc = ServiceName::new("svc");
        let users: Vec<UserId> = (1..=2).map(UserId::new).collect();
        // Prime the cache for both users.
        assert!(engine.invoke_group(&users, &svc, "echo", vec![]).all_ok());
        // User 1 moves to a new node; the old one dies. The cached address
        // is now stale, so the send fails Unreachable — the batch must
        // re-resolve and re-send, with no retry budget at all.
        let user = UserId::new(1);
        let new_server = Node::spawn(&net);
        new_server.set_handler(
            Arc::new(move |_from, _req: Request| Ok(Value::str("moved")))
                as Arc<dyn RequestHandler>,
        );
        engine
            .directory()
            .call(REGISTER, (user, "user1".into(), new_server.addr()))
            .unwrap();
        servers[0].shutdown();
        let calls: Vec<Call<'_>> = users
            .iter()
            .map(|&u| Call::new(u, &svc, "echo", vec![Value::from(u.raw())]))
            .collect();
        let result = engine.invoke_batch(&calls);
        assert!(result.all_ok(), "outcomes: {:?}", result.outcomes);
        assert_eq!(result.outcomes[0].1.as_ref().unwrap(), &Value::str("moved"));
    }

    #[test]
    fn shared_encode_serialises_the_broadcast_body_once() {
        let (net, _dir, engine, _servers) = setup(8);
        let users: Vec<UserId> = (1..=8).map(UserId::new).collect();
        // Warm the cache so both rounds below differ only in body bytes.
        assert!(engine
            .invoke_group(&users, &ServiceName::new("svc"), "echo", vec![])
            .all_ok());
        let payload = vec![Value::str("x".repeat(512))];
        let body_len = Args::from(payload.clone()).as_bytes().len() as u64;
        let before = net_count(&net, names::TRANSPORT_BYTES_OUT);
        assert!(engine
            .invoke_group(&users, &ServiceName::new("svc"), "echo", payload)
            .all_ok());
        let wire_bytes = net_count(&net, names::TRANSPORT_BYTES_OUT) - before;
        // Every recipient still receives the full body on the wire; the
        // saving is CPU (one encode) and heap (one buffer), not bytes.
        assert!(
            wire_bytes >= 8 * body_len,
            "expected >= {} broadcast bytes, saw {wire_bytes}",
            8 * body_len
        );
    }

    // ---- the wave loop, seen from the engine ---------------------------------

    const WAVE: Duration = Duration::from_millis(40);

    /// Registers `user` at an endpoint that receives and never replies.
    fn silent_user(net: &Network, engine: &SydEngine, id: u64) -> syd_net::Endpoint {
        let silent = net.register();
        engine
            .directory()
            .call(
                REGISTER,
                (UserId::new(id), format!("silent{id}").into(), silent.addr()),
            )
            .unwrap();
        silent
    }

    #[test]
    fn lost_calls_of_a_batch_share_each_waves_deadline() {
        let (net, _dir, engine, _servers) = setup(2);
        let _silent: Vec<_> = (3..=5).map(|id| silent_user(&net, &engine, id)).collect();
        let engine = engine.with_options(CallOptions::new().with_timeout(WAVE).with_retries(1));
        let svc = ServiceName::new("svc");
        let users: Vec<UserId> = [3, 1, 4, 2, 5].map(UserId::new).to_vec();
        let started = std::time::Instant::now();
        let result = engine.invoke_group(&users, &svc, "echo", vec![Value::str("x")]);
        let took = started.elapsed();
        // Three waves (cached address, re-resolved address, one retry) of
        // one timeout each — not three timeouts per lost call.
        assert!(took >= 3 * WAVE, "returned after {took:?}");
        assert!(took < 5 * WAVE, "three lost calls cost {took:?}");
        let order: Vec<u64> = result.outcomes.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(order, vec![3, 1, 4, 2, 5]);
        for (user, outcome) in &result.outcomes {
            match user.raw() {
                live @ 1..=2 => assert_eq!(
                    outcome.as_ref().unwrap(),
                    &Value::list([Value::from(live), Value::str("x")])
                ),
                _ => assert!(matches!(outcome, Err(SydError::Timeout(_))), "{outcome:?}"),
            }
        }
        // The counters see engine traffic: 3 lost calls × 3 sends.
        assert_eq!(engine.node().rpc_timeouts(), 9);
        assert_eq!(engine.node().rpc_retries(), 6);
    }

    /// §4.3's verbs are the negotiator's: the public engine refuses a
    /// group, a batch or a single call that names one, and sends nothing.
    #[test]
    fn a_protocol_verb_is_refused_before_anything_is_sent() {
        let (net, _dir, engine, _servers) = setup(2);
        let (link, users) = (link_service(), [UserId::new(1), UserId::new(2)]);
        let sent = net_count(&net, names::TRANSPORT_FRAMES_OUT);
        for verb in ["mark", "commit", "abort"] {
            let group = engine.invoke_group(&users, &link, verb, vec![Value::from(1u64)]);
            assert_eq!(group.outcomes.len(), 2);
            for (_, outcome) in &group.outcomes {
                assert!(matches!(outcome, Err(SydError::Protocol(_))), "{outcome:?}");
            }
            let one = engine.invoke(users[0], &link, verb, vec![]);
            assert!(matches!(one, Err(SydError::Protocol(_))), "{one:?}");
            let named = engine.invoke_group_by_name("everyone", &link, verb, vec![]);
            assert!(matches!(named, Err(SydError::Protocol(_))), "{named:?}");
        }
        let now = net_count(&net, names::TRANSPORT_FRAMES_OUT);
        assert_eq!(now, sent, "a refused verb was sent");
        // The same method names on another service are anybody's.
        let echoed = engine.invoke(users[0], &ServiceName::new("svc"), "mark", vec![]);
        assert!(echoed.is_ok(), "{echoed:?}");
    }

    #[test]
    fn invoke_to_a_silent_peer_is_counted_where_it_happens() {
        let (net, _dir, engine, _servers) = setup(0);
        let _silent = silent_user(&net, &engine, 1);
        let engine = engine.with_options(CallOptions::new().with_timeout(WAVE).with_retries(1));
        let err = engine
            .invoke(UserId::new(1), &ServiceName::new("svc"), "echo", vec![])
            .unwrap_err();
        assert!(matches!(err, SydError::Timeout(_)), "{err}");
        assert_eq!(engine.node().rpc_timeouts(), 3);
        assert_eq!(engine.node().rpc_retries(), 2);
    }

    #[test]
    fn only_the_failed_call_of_a_user_is_sent_again() {
        let (net, _dir, engine, _servers) = setup(0);
        let served = Arc::new(Mutex::new(Rank::Leaf, Vec::<String>::new()));
        let server = Node::spawn(&net);
        let log = Arc::clone(&served);
        server.set_handler(Arc::new(move |_from, req: Request| {
            log.lock().push(req.method.to_string());
            match req.method.as_str() {
                "busy" => Err(SydError::LockTimeout("held".into())),
                _ => Ok(Value::Null),
            }
        }) as Arc<dyn RequestHandler>);
        let user = UserId::new(1);
        engine
            .directory()
            .call(REGISTER, (user, "user1".into(), server.addr()))
            .unwrap();
        let engine = engine.with_options(CallOptions::new().with_retries(1));
        let svc = ServiceName::new("svc");
        let calls = [
            Call::new(user, &svc, "echo", vec![]),
            Call::new(user, &svc, "busy", vec![]),
        ];
        let result = engine.invoke_batch(&calls);
        assert_eq!(result.outcomes[0].1, Ok(Value::Null));
        assert_eq!(
            result.outcomes[1].1,
            Err(SydError::LockTimeout("held".into()))
        );
        let mut served = served.lock().clone();
        served.sort();
        assert_eq!(served, ["busy", "busy", "busy", "echo"]);
    }

    #[test]
    fn a_waves_failures_are_resolved_again_in_one_directory_round_trip() {
        let (_net, dir, engine, servers) = setup(3);
        let svc = ServiceName::new("svc");
        let users: Vec<UserId> = (1..=3).map(UserId::new).collect();
        assert!(engine.invoke_group(&users, &svc, "echo", vec![]).all_ok());
        // Two of the three go away without telling the directory.
        servers[0].shutdown();
        servers[1].shutdown();
        let batches = dir_counter(&dir, "dir.batch_lookups");
        let result = engine.invoke_group(&users, &svc, "echo", vec![]);
        assert_eq!(result.ok_count(), 1);
        assert_eq!(dir_counter(&dir, "dir.batch_lookups") - batches, 1);
        assert_eq!(dir_counter(&dir, "dir.batch_lookup_users"), 3 + 2);
        assert_eq!(dir_counter(&dir, "dir.lookups"), 0);
    }

    #[test]
    fn a_proxy_takeover_is_found_without_a_retry_budget() {
        let (net, _dir, engine, servers) = setup(1);
        let user = UserId::new(1);
        let svc = ServiceName::new("svc");
        // Prime the cache with the primary's address.
        engine.invoke(user, &svc, "echo", vec![]).unwrap();
        let proxy = Node::spawn(&net);
        proxy.set_handler(
            Arc::new(move |_from, _req: Request| Ok(Value::str("proxy")))
                as Arc<dyn RequestHandler>,
        );
        engine
            .directory()
            .call(REGISTER_PROXY, (user, proxy.addr()))
            .unwrap();
        engine
            .directory()
            .call(SET_CONNECTED, (user, false))
            .unwrap();
        net.set_connected(servers[0].addr(), false);
        // `retries` is 0: the re-resolved wave is not charged to it.
        assert_eq!(engine.timeout(), CallOptions::new().timeout);
        let out = engine.invoke(user, &svc, "echo", vec![]).unwrap();
        assert_eq!(out, Value::str("proxy"));
        let result = engine.invoke_batch(&[Call::new(user, &svc, "echo", vec![])]);
        assert_eq!(result.outcomes[0].1, Ok(Value::str("proxy")));
    }

    #[test]
    fn an_unreachable_directory_fails_every_miss_with_the_batchs_error() {
        let (net, _dir, engine, _servers) = setup(0);
        // A directory that hears everything and answers nothing.
        let deaf = net.register();
        let engine = SydEngine::new(
            engine.node().clone(),
            DirectoryClient::new(engine.node().clone(), deaf.addr()),
        )
        .with_options(CallOptions::new().with_timeout(Duration::from_millis(20)));
        let users: Vec<UserId> = (1..=3).map(UserId::new).collect();
        let result = engine.invoke_group(&users, &ServiceName::new("svc"), "echo", vec![]);
        for (user, outcome) in &result.outcomes {
            assert!(
                matches!(outcome, Err(SydError::Timeout(_))),
                "user {user}: {outcome:?}"
            );
        }
        // One batched lookup, re-sent four times, and nothing per user: a
        // failed resolution is final for its wave set.
        let mut heard = Vec::new();
        while let Some(Ok(env)) = deaf.try_recv() {
            if let syd_wire::Payload::Request(req) = env.payload {
                heard.push(req.method);
            }
        }
        assert_eq!(heard, ["lookup_many"; 5]);
    }
}
