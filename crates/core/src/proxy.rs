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
//!   serves them from the replica with application-registered methods and
//!   **journals** every local mutation.
//! * On reconnect the primary calls [`drain journal`](ProxyHost) via
//!   `syd.proxy/drain_journal`, replays the operations into its own store
//!   ("A takes over the proxy"), and resumes.
//!
//! Sync operations are row-granular upserts/deletes keyed by primary key,
//! so replay is idempotent and order-tolerant — the right semantics for
//! the paper's weakly connected mobile environment.

use std::collections::HashMap;
use std::sync::Arc;

use syd_crypto::Authenticator;
use syd_net::{EventSink, Node, RequestHandler, Transport};
use syd_types::sync::{Mutex, RwLock};
use syd_types::{Clock, NodeAddr, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::{EventMsg, Request};

use crate::device::DeviceRuntime;
use crate::directory::DirectoryClient;
use crate::listener::InvokeCtx;
use syd_store::{Predicate, Store, Trigger, TriggerEvent};
use syd_telemetry::names;

/// The proxy-internal service name.
pub fn proxy_service() -> ServiceName {
    ServiceName::new("syd.proxy")
}

/// A method served by a proxy on behalf of a hosted user; receives the
/// user's replica store.
pub type ProxyMethod = Arc<dyn Fn(&InvokeCtx, &Store, &[Value]) -> SydResult<Value> + Send + Sync>;

struct Replica {
    store: Store,
    /// Row ops performed while acting for the user, to be replayed by the
    /// primary on reconnect.
    journal: Mutex<Vec<Value>>,
    methods: HashMap<(String, String), ProxyMethod>,
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
    replicas: RwLock<HashMap<UserId, Arc<Replica>>>,
    #[allow(dead_code)]
    clock: Arc<dyn Clock>,
    /// Requests answered from a replica on behalf of a hosted user
    /// ("proxy.served").
    served: syd_telemetry::Counter,
}

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
        clock: Arc<dyn Clock>,
    ) -> SydResult<ProxyHost> {
        let node = Node::spawn_on(net)?;
        let directory = DirectoryClient::new(node.clone(), dir_addr);
        // A refused join must not leave the endpoint and its reactor
        // registration behind.
        directory
            .register(user, name, node.addr())
            .inspect_err(|_| node.shutdown())?;
        let served = node.metrics().counter(names::PROXY_SERVED);
        let inner = Arc::new(ProxyInner {
            user,
            name: name.to_owned(),
            node,
            directory,
            auth,
            replicas: RwLock::new(HashMap::new()),
            clock,
            served,
        });
        let host = ProxyHost {
            inner: Arc::clone(&inner),
        };
        let handler_inner = Arc::clone(&inner);
        inner.node.set_handler(
            Arc::new(move |from, req: Request| serve(&handler_inner, from, &req))
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
    /// create tables and register service methods, installs journaling,
    /// and registers the proxy mapping in the directory.
    ///
    /// If the prototype's embedded device "does not have the capability of
    /// using a database server, the database server could potentially be
    /// placed on the proxy" (§5.2) — `setup` is exactly that hook.
    pub fn host_user(
        &self,
        user: UserId,
        setup: impl FnOnce(&Store) -> SydResult<Vec<((ServiceName, String), ProxyMethod)>>,
    ) -> SydResult<()> {
        let store = Store::new();
        let methods_list = setup(&store)?;
        let mut methods = HashMap::new();
        for ((service, method), handler) in methods_list {
            methods.insert((service.as_str().to_owned(), method), handler);
        }
        let replica = Arc::new(Replica {
            store: store.clone(),
            journal: Mutex::new(Vec::new()),
            methods,
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
        self.inner.directory.register_proxy(user, self.addr())?;
        Ok(())
    }

    /// Stops hosting `user` (directory mapping removed; replica dropped).
    pub fn drop_user(&self, user: UserId) -> SydResult<()> {
        self.inner.replicas.write().remove(&user);
        self.inner.directory.clear_proxy(user)
    }

    /// Direct access to a hosted user's replica store (tests/diagnostics).
    pub fn replica_store(&self, user: UserId) -> Option<Store> {
        self.inner
            .replicas
            .read()
            .get(&user)
            .map(|r| r.store.clone())
    }

    /// Number of journaled (un-drained) operations for `user`.
    pub fn journal_len(&self, user: UserId) -> usize {
        self.inner
            .replicas
            .read()
            .get(&user)
            .map_or(0, |r| r.journal.lock().len())
    }
}

fn serve(inner: &Arc<ProxyInner>, from: NodeAddr, req: &Request) -> SydResult<Value> {
    // §5.4 applies at the proxy too.
    let ctx = match &inner.auth {
        Some(auth) => {
            let caller = auth.verify(&req.credentials)?;
            InvokeCtx {
                caller,
                from,
                authenticated: true,
            }
        }
        None => InvokeCtx {
            caller: req.caller,
            from,
            authenticated: false,
        },
    };

    // Proxy-internal service.
    if req.service.as_str() == "syd.proxy" {
        return match req.method.as_str() {
            // drain_journal(user) -> [ops]; clears the journal.
            "drain_journal" => {
                let user = UserId::new(
                    req.args
                        .first()
                        .ok_or_else(|| SydError::Protocol("drain_journal needs user".into()))?
                        .as_i64()? as u64,
                );
                let replicas = inner.replicas.read();
                let replica = replicas
                    .get(&user)
                    .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
                let ops: Vec<Value> = replica.journal.lock().drain(..).collect();
                Ok(Value::List(ops))
            }
            // sync(user, op) -> Null; request-based alternative to the
            // fire-and-forget event (used by tests needing confirmation).
            "sync" => {
                let payload = req
                    .args
                    .first()
                    .ok_or_else(|| SydError::Protocol("sync needs op".into()))?;
                apply_sync_event(inner, payload)?;
                Ok(Value::Null)
            }
            other => Err(SydError::NoSuchService(proxy_service(), other.to_owned())),
        };
    }

    // Application service on a hosted user's replica, routed by target.
    let replicas = inner.replicas.read();
    let replica = replicas.get(&req.target).ok_or_else(|| {
        SydError::NotRegistered(format!(
            "{} (not hosted by proxy {})",
            req.target, inner.name
        ))
    })?;
    let replica = Arc::clone(replica);
    drop(replicas);
    let handler = replica
        .methods
        .get(&(req.service.as_str().to_owned(), req.method.clone()))
        .cloned()
        .ok_or_else(|| SydError::NoSuchService(req.service.clone(), req.method.clone()))?;
    inner.served.inc();
    handler(&ctx, &replica.store, &req.args)
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

/// Applies one sync operation to the matching replica.
fn apply_sync_event(inner: &Arc<ProxyInner>, payload: &Value) -> SydResult<()> {
    let user = UserId::new(payload.get("user")?.as_i64()? as u64);
    let replicas = inner.replicas.read();
    let replica = replicas
        .get(&user)
        .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
    let replica = Arc::clone(replica);
    drop(replicas);
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
                schema.columns[col_idx].name.clone(),
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
pub fn enable_replication(
    device: &DeviceRuntime,
    proxy_addr: NodeAddr,
    tables: &[&str],
) -> SydResult<()> {
    for table in tables {
        let node = device.node().clone();
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
                // Fire-and-forget: replication loss is tolerated, the
                // journal/snapshot path reconciles on reconnect.
                let _ = node.publish_event(proxy_addr, "proxy.sync", op);
                Ok(())
            },
        ))?;
    }
    Ok(())
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
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::env::SydEnv;
    use syd_net::NetConfig;
    use syd_store::{Column, ColumnType, Schema};

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

    fn read_method() -> ProxyMethod {
        Arc::new(|_ctx: &InvokeCtx, store: &Store, args: &[Value]| {
            let day = args[0].as_i64()?;
            match store.get_by_key("slots", &[Value::I64(day)])? {
                Some(row) => Ok(row.values[1].clone()),
                None => Ok(Value::Null),
            }
        })
    }

    fn write_method() -> ProxyMethod {
        Arc::new(|_ctx: &InvokeCtx, store: &Store, args: &[Value]| {
            let day = args[0].as_i64()?;
            let status = args[1].as_str()?;
            if store.get_by_key("slots", &[Value::I64(day)])?.is_some() {
                store.update(
                    "slots",
                    &Predicate::Eq("day".into(), Value::I64(day)),
                    &[("status".into(), Value::str(status))],
                )?;
            } else {
                store.insert("slots", vec![Value::I64(day), Value::str(status)])?;
            }
            Ok(Value::Null)
        })
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
        {
            let store = phil.store().clone();
            phil.register_service(
                &svc,
                "status",
                Arc::new(move |_ctx, args: &[Value]| {
                    let day = args[0].as_i64()?;
                    match store.get_by_key("slots", &[Value::I64(day)])? {
                        Some(row) => Ok(row.values[1].clone()),
                        None => Ok(Value::Null),
                    }
                }),
            )
            .unwrap();
        }

        // Proxy hosts phil: same schema, read+write methods.
        proxy
            .host_user(phil.user(), |store| {
                store.create_table(slots_schema())?;
                Ok(vec![
                    ((svc.clone(), "status".to_owned()), read_method()),
                    ((svc.clone(), "set".to_owned()), write_method()),
                ])
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
                &proxy_service(),
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
                Ok(vec![])
            })
            .unwrap();
        let rec = env.directory_client().describe(phil.user()).unwrap();
        assert_eq!(rec.proxy, Some(proxy.addr()));
        proxy.drop_user(phil.user()).unwrap();
        let rec = env.directory_client().describe(phil.user()).unwrap();
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
                Ok(vec![])
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
            .call(proxy.addr(), &proxy_service(), "sync", vec![op.clone()])
            .unwrap();
        // Idempotent: applying the same op twice keeps one row.
        phil.node()
            .call(proxy.addr(), &proxy_service(), "sync", vec![op])
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
