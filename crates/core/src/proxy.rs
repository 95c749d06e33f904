//! Proxy support (§5.2): standing in for disconnected devices.
//!
//! "If a SyD calendar object A is down or disconnected, a proxy takes over
//! the place of A. Once A comes back up, A takes over the proxy. The proxy
//! and the SyD object act as a single entity for an outsider."
//!
//! A [`ProxyHost`] is a well-connected node (the paper imagines an
//! application server) that keeps one *replica store* per hosted user:
//!
//! * While the primary is connected it streams row-level sync operations
//!   to the proxy (installed by [`enable_replication`]), keeping the
//!   replica warm.
//! * The directory maps the user to the proxy whenever the primary is
//!   disconnected, so peers' requests land here transparently; the proxy
//!   serves them from the replica with the same [`Method`] tables a device
//!   serves, through the same [`Listener`] dispatch, and **journals**
//!   every local mutation.
//! * `syd.proxy/drain_journal` hands the journal to whoever takes over,
//!   and [`replay_journal`] applies it to the primary's store ("A takes
//!   over the proxy"). [`DeviceRuntime::reconnect`] does neither: an
//!   application that lets a replica write drains it itself. The
//!   calendar's replica serves reads only, so it never journals anything.
//!
//! When the deployment authenticates, the `syd.proxy` verbs act only for
//! their caller: `drain_journal(user)` and `sync` of a `user`'s row are
//! refused with `AuthFailed` unless the verified caller is that user. The
//! `proxy.sync` *event* carries no credentials, like every event, and is
//! applied as it comes.
//!
//! Sync operations are row-granular upserts/deletes keyed by primary key,
//! so replay is idempotent and order-tolerant — the right semantics for
//! the paper's weakly connected mobile environment.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use syd_crypto::Authenticator;
use syd_net::{EventSink, Node, RequestHandler, Transport, Verb};
use syd_types::sync::{Mutex, Rank, RwLock};
use syd_types::{NodeAddr, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::{EventMsg, Request};

use crate::device::DeviceRuntime;
use crate::directory::{DirectoryClient, CLEAR_PROXY, REGISTER, REGISTER_PROXY};
use crate::listener::{InvokeCtx, Listener, Method, Methods};
use syd_store::{Predicate, Store, Trigger, TriggerEvent};
use syd_telemetry::names;

/// The proxy-internal service.
pub const PROXY: &ServiceName = &ServiceName::constant("syd.proxy");

/// A hosted user's journal of row operations, cleared as it is handed
/// over.
pub const DRAIN_JOURNAL: Verb<(UserId,), Vec<Value>> = Verb::new(PROXY, "drain_journal");
/// One row operation applied to a hosted user's replica: the
/// request-based alternative to the fire-and-forget `proxy.sync` event
/// (used where a caller needs confirmation).
pub const SYNC: Verb<(Value,), ()> = Verb::new(PROXY, "sync");

/// One hosted user's replica and the tables served from it.
struct Replica {
    store: Arc<Store>,
    /// Row ops performed while acting for the user, to be replayed by the
    /// primary.
    journal: Mutex<Vec<Value>>,
    /// The user's services, each table answering from `store`.
    listener: Listener,
}

thread_local! {
    /// Depth of sync applications on this thread. After-triggers run
    /// synchronously on the mutating thread, so a positive depth means
    /// "this mutation is replication, don't journal it" — precise, with
    /// no cross-thread races.
    static SYNC_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

struct ProxyInner {
    user: UserId,
    name: String,
    node: Node,
    directory: DirectoryClient,
    auth: Option<Arc<Authenticator>>,
    /// The proxy's own `syd.proxy` verbs.
    listener: Listener,
    replicas: RwLock<HashMap<UserId, Arc<Replica>>>,
    /// Requests routed to a hosted user's replica ("proxy.served").
    served: syd_telemetry::Counter,
}

/// The proxy's own verbs.
static PROXY_METHODS: &Methods<ProxyInner> = &[
    &Method::verb(DRAIN_JOURNAL, |inner: &ProxyInner, ctx, (user,)| {
        acting_for(ctx, user)?;
        let replica = replica_of(inner, user)?;
        let ops = replica.journal.lock().drain(..).collect();
        Ok(ops)
    }),
    &Method::verb(SYNC, |inner: &ProxyInner, ctx, (op,)| {
        acting_for(ctx, op_user(&op)?)?;
        apply_sync_event(inner, &op)
    }),
];

/// A proxy host. Cloning shares the host.
#[derive(Clone)]
pub struct ProxyHost {
    inner: Arc<ProxyInner>,
}

impl ProxyHost {
    /// Starts a proxy host node registered in the directory as user
    /// `user`/`name` (so it can make authenticated outgoing calls).
    pub fn new(
        net: &dyn Transport,
        dir_addr: NodeAddr,
        user: UserId,
        name: &str,
        auth: Option<Arc<Authenticator>>,
    ) -> SydResult<ProxyHost> {
        let node = Node::spawn_on(net)?;
        let directory = DirectoryClient::new(node.clone(), dir_addr);
        let served = node.metrics().counter(names::PROXY_SERVED);
        let listener = Listener::new(auth.clone(), node.metrics());
        let inner = Arc::new(ProxyInner {
            user,
            name: name.to_owned(),
            node,
            directory,
            auth,
            listener,
            replicas: RwLock::new(Rank::Engine, HashMap::new()),
            served,
        });
        inner.listener.serve(PROXY, &inner, PROXY_METHODS);
        let host = ProxyHost {
            inner: Arc::clone(&inner),
        };
        let handler_inner = Arc::clone(&inner);
        inner.node.set_handler(
            Arc::new(move |from, req: Request| route(&handler_inner, from, &req))
                as Arc<dyn RequestHandler>,
        );
        let sink_inner = Arc::clone(&inner);
        inner
            .node
            .set_event_sink(Arc::new(move |_from, ev: EventMsg| {
                if ev.topic == "proxy.sync" {
                    let _ = apply_sync_event(&sink_inner, &ev.payload);
                }
            }) as Arc<dyn EventSink>);
        // Found only once it serves its verbs. A refused join must not
        // leave the endpoint and its reactor registration behind.
        inner
            .directory
            .call(REGISTER, (user, name.into(), inner.node.addr()))
            .inspect_err(|_| inner.node.shutdown())?;
        Ok(host)
    }

    /// The proxy's own user id.
    pub fn user(&self) -> UserId {
        self.inner.user
    }

    /// The proxy's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The proxy's address.
    pub fn addr(&self) -> NodeAddr {
        self.inner.node.addr()
    }

    /// The proxy's node.
    pub fn node(&self) -> &Node {
        &self.inner.node
    }

    /// Begins hosting `user`: creates the replica store, lets `setup`
    /// create tables and name the service tables to serve from it,
    /// installs journaling, and registers the proxy mapping in the
    /// directory.
    ///
    /// If the prototype's embedded device "does not have the capability of
    /// using a database server, the database server could potentially be
    /// placed on the proxy" (§5.2) — `setup` is exactly that hook.
    pub fn host_user(
        &self,
        user: UserId,
        setup: impl FnOnce(&Store) -> SydResult<Vec<(ServiceName, &'static Methods<Store>)>>,
    ) -> SydResult<()> {
        let store = Arc::new(Store::new());
        let listener = Listener::new(self.inner.auth.clone(), self.inner.node.metrics());
        for (service, table) in setup(&store)? {
            listener.serve(&service, &store, table);
        }
        let replica = Arc::new(Replica {
            store: Arc::clone(&store),
            journal: Mutex::new(Rank::Engine, Vec::new()),
            listener,
        });
        // Journal every mutation that is not a sync application.
        for table in store.table_names() {
            let journal_replica = Arc::clone(&replica);
            let table_name = table.clone();
            store.add_trigger(Trigger::after(
                format!("proxy-journal-{table}"),
                &table,
                vec![
                    TriggerEvent::Insert,
                    TriggerEvent::Update,
                    TriggerEvent::Delete,
                ],
                move |ctx| {
                    if SYNC_DEPTH.with(std::cell::Cell::get) > 0 {
                        return Ok(());
                    }
                    let op = row_change_to_op(&table_name, ctx);
                    journal_replica.journal.lock().push(op);
                    Ok(())
                },
            ))?;
        }
        self.inner.replicas.write().insert(user, replica);
        (self.inner.directory).call(REGISTER_PROXY, (user, self.addr()))?;
        Ok(())
    }

    /// Stops hosting `user` (directory mapping removed; replica dropped).
    pub fn drop_user(&self, user: UserId) -> SydResult<()> {
        self.inner.replicas.write().remove(&user);
        self.inner.directory.call(CLEAR_PROXY, (user,))
    }

    /// Direct access to a hosted user's replica store (tests/diagnostics).
    pub fn replica_store(&self, user: UserId) -> Option<Store> {
        let replicas = self.inner.replicas.read();
        replicas.get(&user).map(|r| Store::clone(&r.store))
    }

    /// Number of journaled (un-drained) operations for `user`.
    pub fn journal_len(&self, user: UserId) -> usize {
        replica_of(&self.inner, user).map_or(0, |r| r.journal.lock().len())
    }
}

/// `user`'s replica, out of the map: its journal's lock ranks with the
/// map's, so the map is not held while it is taken.
fn replica_of(inner: &ProxyInner, user: UserId) -> SydResult<Arc<Replica>> {
    let replicas = inner.replicas.read();
    let replica = replicas.get(&user);
    replica
        .cloned()
        .ok_or_else(|| SydError::NotRegistered(user.to_string()))
}

/// The proxy's own verbs go to its listener; any other request to the
/// listener of the replica it targets.
fn route(inner: &ProxyInner, from: NodeAddr, req: &Request) -> SydResult<Value> {
    if req.service == *PROXY {
        return inner.listener.dispatch(from, req);
    }
    let replica = replica_of(inner, req.target).map_err(|_| {
        SydError::NotRegistered(format!(
            "{} (not hosted by proxy {})",
            req.target, inner.name
        ))
    })?;
    inner.served.inc();
    replica.listener.dispatch(from, req)
}

/// When the deployment authenticates, a verb naming `user` acts only for
/// `user` (as `leave_request` and `authority_check` do).
fn acting_for(ctx: &InvokeCtx, user: UserId) -> SydResult<()> {
    if ctx.authenticated && ctx.caller != user {
        return Err(SydError::AuthFailed(ctx.caller));
    }
    Ok(())
}

/// Serializes one row change as a sync/journal operation.
// Trigger contract: insert/update always carries the new row, delete the
// old one — the store populates both before firing.
#[allow(clippy::expect_used)]
fn row_change_to_op(table: &str, ctx: &syd_store::TriggerCtx<'_>) -> Value {
    let (kind, row): (&str, &[Value]) = match ctx.event {
        TriggerEvent::Insert | TriggerEvent::Update => {
            ("upsert", ctx.new.expect("insert/update has new row"))
        }
        TriggerEvent::Delete => ("delete", ctx.old.expect("delete has old row")),
    };
    let key = ctx.schema.key_of(row);
    Value::map([
        ("user", Value::from(0u64)), // filled by the sender when pushing
        ("table", Value::str(table)),
        ("kind", Value::str(kind)),
        ("key", Value::list(key)),
        ("row", Value::list(row.to_vec())),
    ])
}

/// The user whose replica a sync operation changes.
fn op_user(op: &Value) -> SydResult<UserId> {
    Ok(UserId::new(op.get("user")?.as_i64()? as u64))
}

/// Applies one sync operation to the matching replica.
fn apply_sync_event(inner: &ProxyInner, payload: &Value) -> SydResult<()> {
    let replica = replica_of(inner, op_user(payload)?)?;
    SYNC_DEPTH.with(|d| d.set(d.get() + 1));
    let result = apply_op_to_store(&replica.store, payload);
    SYNC_DEPTH.with(|d| d.set(d.get() - 1));
    result
}

/// Applies one row operation (`upsert`/`delete` by primary key) to any
/// store. Used by the proxy (sync path) and by the primary (journal
/// replay). Idempotent.
pub fn apply_op_to_store(store: &Store, op: &Value) -> SydResult<()> {
    let table = op.get("table")?.as_str()?;
    let kind = op.get("kind")?.as_str()?;
    let key = op.get("key")?.as_list()?;
    let schema = store.schema_of(table)?;
    let key_pred = |key: &[Value]| -> Predicate {
        let mut conj = Vec::new();
        for (i, &col_idx) in schema.primary_key.iter().enumerate() {
            conj.push(Predicate::Eq(
                schema.columns[col_idx].name.as_str().into(),
                key[i].clone(),
            ));
        }
        Predicate::And(conj)
    };
    match kind {
        "upsert" => {
            let row = op.get("row")?.as_list()?.to_vec();
            if !key.is_empty() && store.get_by_key(table, key)?.is_some() {
                store.delete(table, &key_pred(key))?;
            }
            store.insert(table, row)?;
            Ok(())
        }
        "delete" => {
            if key.is_empty() {
                return Err(SydError::Protocol(
                    "delete sync op needs a primary key".into(),
                ));
            }
            store.delete(table, &key_pred(key))?;
            Ok(())
        }
        other => Err(SydError::Protocol(format!("bad sync op kind `{other}`"))),
    }
}

/// Installs replication from `device`'s store to a proxy for the listed
/// tables: every row change is pushed as a fire-and-forget `proxy.sync`
/// event. Call after the proxy's [`ProxyHost::host_user`] so the replica
/// tables exist.
///
/// A trigger runs on the writer's thread, under whatever locks the writer
/// holds, so it only queues the change; a pool job sends the queue in
/// order, holding none.
pub fn enable_replication(
    device: &DeviceRuntime,
    proxy_addr: NodeAddr,
    tables: &[&str],
) -> SydResult<()> {
    let outbox = Arc::new(Outbox {
        node: device.node().clone(),
        proxy: proxy_addr,
        ops: Mutex::new(Rank::Leaf, VecDeque::new()),
        sending: AtomicBool::new(false),
    });
    for table in tables {
        let outbox = Arc::clone(&outbox);
        let user = device.user();
        let table_name = (*table).to_owned();
        device.store().add_trigger(Trigger::after(
            format!("proxy-replication-{table}"),
            *table,
            vec![
                TriggerEvent::Insert,
                TriggerEvent::Update,
                TriggerEvent::Delete,
            ],
            move |ctx| {
                let mut op = row_change_to_op(&table_name, ctx);
                if let Value::Map(m) = &mut op {
                    m.insert("user".into(), Value::from(user.raw()));
                }
                outbox.push(op);
                Ok(())
            },
        ))?;
    }
    Ok(())
}

/// A device's replicated changes not sent yet, in commit order, and
/// whether a pool job is sending them.
struct Outbox {
    node: Node,
    proxy: NodeAddr,
    ops: Mutex<VecDeque<Value>>,
    sending: AtomicBool,
}

impl Outbox {
    /// Queues `op`, starting a sender unless one runs.
    fn push(self: &Arc<Self>, op: Value) {
        self.ops.lock().push_back(op);
        if !self.sending.swap(true, Ordering::AcqRel) {
            let outbox = Arc::clone(self);
            if !self.node.runtime().pool().execute(move || outbox.send()) {
                self.sending.store(false, Ordering::Release);
            }
        }
    }

    /// Sends until the queue is empty. Fire-and-forget: replication loss
    /// is tolerated, the journal/snapshot path reconciles on reconnect.
    fn send(&self) {
        loop {
            let op = self.ops.lock().pop_front();
            if let Some(op) = op {
                let _ = self.node.publish_event(self.proxy, "proxy.sync", op);
                continue;
            }
            self.sending.store(false, Ordering::Release);
            // A push between the pop and the store found a sender running.
            if self.ops.lock().is_empty() || self.sending.swap(true, Ordering::AcqRel) {
                return;
            }
        }
    }
}

/// Replays a drained journal into the primary's store ("A takes over the
/// proxy"). Returns the number of operations applied.
pub fn replay_journal(store: &Store, ops: &[Value]) -> SydResult<usize> {
    let mut applied = 0;
    for op in ops {
        apply_op_to_store(store, op)?;
        applied += 1;
    }
    Ok(applied)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use crate::directory::DESCRIBE;
    use crate::env::SydEnv;
    use syd_net::{NetConfig, Network};
    use syd_store::{Column, ColumnType, Schema};
    use syd_types::Text;

    fn slots_schema() -> Schema {
        Schema::new(
            "slots",
            vec![
                Column::required("day", ColumnType::I64),
                Column::required("status", ColumnType::Str),
            ],
            &["day"],
        )
        .unwrap()
    }

    const CALENDAR: &ServiceName = &ServiceName::constant("calendar");
    /// The status of a day, or `None`.
    const STATUS: Verb<(i64,), Option<Text>> = Verb::new(CALENDAR, "status");
    /// Sets a day's status.
    const SET: Verb<(i64, Text), ()> = Verb::new(CALENDAR, "set");

    fn status(store: &Store, _ctx: &InvokeCtx, (day,): (i64,)) -> SydResult<Option<Text>> {
        match store.get_by_key("slots", &[Value::I64(day)])? {
            Some(row) => Ok(Some(row.values[1].as_text()?.clone())),
            None => Ok(None),
        }
    }

    fn set(store: &Store, _ctx: &InvokeCtx, (day, status): (i64, Text)) -> SydResult<()> {
        if store.get_by_key("slots", &[Value::I64(day)])?.is_some() {
            store.update(
                "slots",
                &Predicate::Eq("day".into(), Value::I64(day)),
                &[("status".into(), Value::Str(status.clone()))],
            )?;
        } else {
            store.insert("slots", vec![Value::I64(day), Value::Str(status.clone())])?;
        }
        Ok(())
    }

    /// What the primary serves: reads only.
    static READS: &Methods<Store> = &[&Method::verb(STATUS, status)];
    /// What the replica serves: the same read, and a write.
    static READS_AND_WRITES: &Methods<Store> =
        &[&Method::verb(STATUS, status), &Method::verb(SET, set)];

    /// A peer that resolves a new proxy at once reaches its `syd.proxy`
    /// verbs: the directory here calls the proxy before it answers
    /// `register`.
    #[test]
    fn a_proxy_serves_before_it_can_be_found() {
        let net = Network::ideal();
        let (dir, peer) = (Node::spawn(&net), Node::spawn(&net));
        let answered = Arc::new(Mutex::new(Rank::Leaf, Vec::new()));
        let seen = Arc::clone(&answered);
        dir.set_handler(Arc::new(
            move |from: NodeAddr, request: Request| -> SydResult<Value> {
                if request.method == "register" {
                    let args = vec![Value::I64(1)];
                    let drained = peer.call(from, PROXY, "drain_journal", args);
                    seen.lock().push(drained);
                }
                Ok(Value::Null)
            },
        ));
        let proxy = ProxyHost::new(&net, dir.addr(), UserId::new(9), "proxy", None);
        assert!(proxy.is_ok());
        // The verb ran and refused a user the proxy hosts no replica of.
        let answered = answered.lock();
        assert!(
            matches!(answered[..], [Err(SydError::NotRegistered(_))]),
            "{answered:?}"
        );
    }

    /// Full §5.2 lifecycle: replicate → disconnect → serve via proxy →
    /// journal writes → reconnect → replay.
    #[test]
    fn proxy_takeover_and_recovery() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = env.device("phil", "").unwrap();
        let andy = env.device("andy", "").unwrap();
        let proxy = env.proxy("asp-proxy", "").unwrap();
        let svc = ServiceName::new("calendar");

        // Phil's primary store and service.
        phil.store().create_table(slots_schema()).unwrap();
        let primary = Arc::new(phil.store().clone());
        phil.serve(&svc, &primary, READS);

        // Proxy hosts phil: same schema, the same read and a write.
        proxy
            .host_user(phil.user(), |store| {
                store.create_table(slots_schema())?;
                Ok(vec![(svc.clone(), READS_AND_WRITES)])
            })
            .unwrap();
        enable_replication(&phil, proxy.addr(), &["slots"]).unwrap();

        // Live replication: phil writes, replica follows.
        phil.store()
            .insert("slots", vec![Value::I64(1), Value::str("free")])
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let replicated = proxy
                .replica_store(phil.user())
                .unwrap()
                .get_by_key("slots", &[Value::I64(1)])
                .unwrap()
                .is_some();
            if replicated {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "replication lag");
            std::thread::yield_now();
        }
        // Replication application is NOT journaled.
        assert_eq!(proxy.journal_len(phil.user()), 0);

        // Phil drops off the network; andy's request transparently reaches
        // the proxy.
        phil.disconnect().unwrap();
        let status = andy
            .engine()
            .invoke(phil.user(), &svc, "status", vec![Value::I64(1)])
            .unwrap();
        assert_eq!(status, Value::str("free"));

        // Andy writes through the proxy; the write is journaled.
        andy.engine()
            .invoke(
                phil.user(),
                &svc,
                "set",
                vec![Value::I64(1), Value::str("reserved")],
            )
            .unwrap();
        assert_eq!(proxy.journal_len(phil.user()), 1);

        // Phil reconnects and takes over: drain + replay.
        phil.reconnect().unwrap();
        let ops = phil
            .node()
            .call(
                proxy.addr(),
                PROXY,
                "drain_journal",
                vec![Value::from(phil.user().raw())],
            )
            .unwrap();
        let ops = ops.into_list().unwrap();
        assert_eq!(ops.len(), 1);
        let applied = replay_journal(phil.store(), &ops).unwrap();
        assert_eq!(applied, 1);
        let row = phil
            .store()
            .get_by_key("slots", &[Value::I64(1)])
            .unwrap()
            .unwrap();
        assert_eq!(row.values[1], Value::str("reserved"));
        assert_eq!(proxy.journal_len(phil.user()), 0);

        // And requests now go to the primary again.
        let status = andy
            .engine()
            .invoke(phil.user(), &svc, "status", vec![Value::I64(1)])
            .unwrap();
        assert_eq!(status, Value::str("reserved"));
    }

    /// With authentication on, the proxy's verbs act only for the user
    /// they name: a third party can neither drain a hosted user's journal
    /// nor rewrite their replica's rows.
    #[test]
    fn proxy_verbs_act_only_for_their_caller() {
        let env = SydEnv::new(NetConfig::ideal(), "pw");
        let phil = env.device("phil", "p").unwrap();
        let andy = env.device("andy", "a").unwrap();
        let eve = env.device("eve", "e").unwrap();
        let proxy = env.proxy("asp-proxy", "x").unwrap();
        let svc = ServiceName::new("calendar");
        proxy
            .host_user(phil.user(), |store| {
                store.create_table(slots_schema())?;
                Ok(vec![(svc.clone(), READS_AND_WRITES)])
            })
            .unwrap();

        // Andy writes through the proxy while phil is away: one journaled op.
        phil.disconnect().unwrap();
        andy.engine()
            .invoke(
                phil.user(),
                &svc,
                "set",
                vec![Value::I64(1), Value::str("reserved")],
            )
            .unwrap();
        phil.reconnect().unwrap();
        assert_eq!(proxy.journal_len(phil.user()), 1);

        let call = |who: &DeviceRuntime, method: &str, arg: Value| {
            who.node().call(proxy.addr(), PROXY, method, vec![arg])
        };
        let op = |status: &str| {
            Value::map([
                ("user", Value::from(phil.user().raw())),
                ("table", Value::str("slots")),
                ("kind", Value::str("upsert")),
                ("key", Value::list([Value::I64(1)])),
                ("row", Value::list([Value::I64(1), Value::str(status)])),
            ])
        };
        let row = || {
            let replica = proxy.replica_store(phil.user()).unwrap();
            replica
                .get_by_key("slots", &[Value::I64(1)])
                .unwrap()
                .unwrap()
                .values[1]
                .clone()
        };

        let phil_id = Value::from(phil.user().raw());
        let refused = call(&eve, "drain_journal", phil_id.clone());
        assert_eq!(refused, Err(SydError::AuthFailed(eve.user())));
        let refused = call(&eve, "sync", op("free"));
        assert_eq!(refused, Err(SydError::AuthFailed(eve.user())));
        assert_eq!(proxy.journal_len(phil.user()), 1);
        assert_eq!(row(), Value::str("reserved"));

        // Phil's own calls go through; a sync is replication, not journaled.
        call(&phil, "sync", op("busy")).unwrap();
        assert_eq!(row(), Value::str("busy"));
        let ops = call(&phil, "drain_journal", phil_id).unwrap();
        assert_eq!(ops.into_list().unwrap().len(), 1);
        assert_eq!(proxy.journal_len(phil.user()), 0);
    }

    #[test]
    fn proxy_rejects_unhosted_users() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = env.device("phil", "").unwrap();
        let proxy = env.proxy("proxy", "").unwrap();
        let err = phil
            .node()
            .call_async_to(
                proxy.addr(),
                UserId::new(99),
                &ServiceName::new("calendar"),
                "status",
                vec![],
            )
            .unwrap()
            .wait(std::time::Duration::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, SydError::NotRegistered(_)), "{err}");
    }

    #[test]
    fn drop_user_clears_mapping() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = env.device("phil", "").unwrap();
        let proxy = env.proxy("proxy", "").unwrap();
        proxy
            .host_user(phil.user(), |store| {
                store.create_table(slots_schema())?;
                Ok(Vec::new())
            })
            .unwrap();
        let rec = env
            .directory_client()
            .call(DESCRIBE, (phil.user(),))
            .unwrap();
        assert_eq!(rec.proxy, Some(proxy.addr()));
        proxy.drop_user(phil.user()).unwrap();
        let rec = env
            .directory_client()
            .call(DESCRIBE, (phil.user(),))
            .unwrap();
        assert_eq!(rec.proxy, None);
        assert!(proxy.replica_store(phil.user()).is_none());
    }

    #[test]
    fn sync_request_path_applies_ops() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let phil = env.device("phil", "").unwrap();
        let proxy = env.proxy("proxy", "").unwrap();
        proxy
            .host_user(phil.user(), |store| {
                store.create_table(slots_schema())?;
                Ok(Vec::new())
            })
            .unwrap();
        let op = Value::map([
            ("user", Value::from(phil.user().raw())),
            ("table", Value::str("slots")),
            ("kind", Value::str("upsert")),
            ("key", Value::list([Value::I64(7)])),
            ("row", Value::list([Value::I64(7), Value::str("busy")])),
        ]);
        phil.node()
            .call(proxy.addr(), PROXY, "sync", vec![op.clone()])
            .unwrap();
        // Idempotent: applying the same op twice keeps one row.
        phil.node()
            .call(proxy.addr(), PROXY, "sync", vec![op])
            .unwrap();
        let replica = proxy.replica_store(phil.user()).unwrap();
        assert_eq!(replica.row_count("slots").unwrap(), 1);
        assert_eq!(
            replica
                .get_by_key("slots", &[Value::I64(7)])
                .unwrap()
                .unwrap()
                .values[1],
            Value::str("busy")
        );
    }

    #[test]
    fn apply_op_rejects_garbage() {
        let store = Store::new();
        store.create_table(slots_schema()).unwrap();
        let bad = Value::map([
            ("table", Value::str("slots")),
            ("kind", Value::str("explode")),
            ("key", Value::list([])),
            ("row", Value::list([])),
        ]);
        assert!(apply_op_to_store(&store, &bad).is_err());
    }
}
