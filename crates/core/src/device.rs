//! A complete SyD device: store + listener + engine + events + links on
//! one network node (the paper's "SyD deviceware" plus its slice of the
//! groupware, Figure 1's bottom two layers as seen from one device).
//!
//! A [`DeviceRuntime`] is what the paper calls a SyD device object host:
//! it encapsulates the local data store, publishes services through the
//! listener, reaches peers through the engine, and maintains the link
//! database. Applications build on exactly four extension points:
//!
//! * [`DeviceRuntime::register_service`] — publish methods (§3.1b),
//! * [`EntityHandler`] — how negotiation changes apply to local entities
//!   (mark/commit/abort of §4.3),
//! * [`SubscriptionHandler`] — how subscription-link notifications are
//!   consumed,
//! * the link acceptor — whether an offered link is accepted (§4.2 op. 2).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syd_crypto::Authenticator;
use syd_net::{Node, Transport};
use syd_store::{LockKey, Store};
use syd_telemetry::{names, Event, Journal, Registry, Vote};
use syd_types::sync::{Mutex, RwLock};
use syd_types::{Clock, NodeAddr, ServiceName, SydError, SydResult, UserId, Value};

use crate::directory::DirectoryClient;
use crate::engine::SydEngine;
use crate::events::EventHandler;
use crate::links::LinksModule;
use crate::listener::{InvokeCtx, Listener, ListenerHandler, ServiceMethod};
use crate::negotiate::{fsm, link_service, Negotiator};

/// How long a participant waits for an entity lock before voting no.
const MARK_LOCK_WAIT: Duration = Duration::from_millis(200);

/// Negotiation sessions older than this are presumed abandoned (their
/// coordinator crashed between phases) and their locks are swept.
const STALE_SESSION_AGE: Duration = Duration::from_secs(10);

/// Swept sessions a device remembers, to refuse their late commits.
const SWEPT_MEMORY: usize = 256;

/// Applies negotiated changes to local entities (§4.3's Mark / Change /
/// Unlock, from the participant's side).
pub trait EntityHandler: Send + Sync + 'static {
    /// Availability check, called with the entity lock already held. An
    /// error makes this participant vote **no**.
    fn prepare(&self, entity: &str, change: &Value) -> SydResult<()>;
    /// Applies the change. Called only after the constraint was satisfied.
    fn commit(&self, entity: &str, change: &Value) -> SydResult<()>;
    /// Discards the marked change (constraint failed elsewhere). May be
    /// called even when `prepare` never ran or failed on this device (the
    /// coordinator aborts broadly to clean up lost-message locks), so it
    /// must be a safe no-op in that case.
    fn abort(&self, entity: &str, change: &Value);
}

/// Consumes subscription-link notifications (§4.2 op. 5's destination
/// method, and the "automatic flow of information" of §4.1).
pub trait SubscriptionHandler: Send + Sync + 'static {
    /// Handles a notification on `entity` with the link's `action` tag.
    fn on_notify(&self, entity: &str, action: &str, payload: &Value) -> SydResult<Value>;
}

/// Decides whether to accept an offered link (§4.2 op. 2 availability).
pub type LinkAcceptor = Arc<dyn Fn(&str, &str, UserId) -> bool + Send + Sync>;

struct DeviceInner {
    user: UserId,
    name: String,
    node: Node,
    store: Store,
    listener: Arc<Listener>,
    engine: SydEngine,
    events: EventHandler,
    links: Arc<LinksModule>,
    negotiator: Negotiator,
    journal: Arc<Journal>,
    clock: Arc<dyn Clock>,
    entity_handler: RwLock<Option<Arc<dyn EntityHandler>>>,
    subscription_handler: RwLock<Option<Arc<dyn SubscriptionHandler>>>,
    link_acceptor: RwLock<Option<LinkAcceptor>>,
    /// Services whose `publish` the directory has acknowledged (see
    /// [`DeviceRuntime::register_service`]); a device names one to three.
    published: Mutex<Vec<ServiceName>>,
    /// Active negotiation sessions touching this device's entities, with
    /// their start times (for the stale-session sweep).
    sessions: Mutex<HashMap<u64, Instant>>,
    /// Sessions whose locks the sweep released, oldest first. A coordinator
    /// may be slow, not dead (a lossy mark round can outlast the sweep age);
    /// its commit is refused: the entity may have changed hands since.
    swept: Mutex<VecDeque<u64>>,
    /// Set while a pool job deletes expired links: the next ticks leave
    /// them to it instead of queueing the same deletions again.
    expiring: AtomicBool,
}

/// One SyD device. Cloning shares the device.
#[derive(Clone)]
pub struct DeviceRuntime {
    inner: Arc<DeviceInner>,
}

impl DeviceRuntime {
    /// Assembles a device for `user` on any transport backend (simulated
    /// network or real TCP), registering it in the directory. `auth`
    /// enables §5.4 request authentication when present.
    pub fn new(
        net: &dyn Transport,
        dir_addr: NodeAddr,
        user: UserId,
        name: &str,
        auth: Option<Arc<Authenticator>>,
        clock: Arc<dyn Clock>,
    ) -> SydResult<DeviceRuntime> {
        let node = Node::spawn_on(net)?;
        let directory = DirectoryClient::new(node.clone(), dir_addr);
        // A join that fails from here on (the directory refuses the name or
        // cannot be reached) must not leave the endpoint and its reactor
        // registration behind.
        directory
            .register(user, name, node.addr())
            .inspect_err(|_| node.shutdown())?;

        let store = Store::new();
        let listener = Arc::new(Listener::new(auth));
        listener.attach_metrics(node.metrics());
        node.set_handler(Arc::new(ListenerHandler(Arc::clone(&listener))));
        let journal = Arc::new(Journal::default());

        // Kernel and application methods are idempotent by design, so the
        // engine retries transient failures — the paper's weakly-connected
        // wireless environment loses individual messages routinely.
        let engine = SydEngine::new(node.clone(), directory)
            .with_options(syd_net::CallOptions::new().with_retries(2));
        // The handler's periodic work rides the fleet runtime's loop.
        let events = EventHandler::new(node.runtime().clone());
        // Global events arriving on the node feed the local event handler
        // (§3.1d: the event handler covers "local and global event
        // registration, monitoring, and triggering").
        {
            let events = events.clone();
            node.set_event_sink(Arc::new(move |_from, ev: syd_wire::EventMsg| {
                events.publish_local(&ev.topic, || ev.payload);
            }));
        }
        let links = LinksModule::new(
            store.clone(),
            engine.clone(),
            user,
            Arc::clone(&clock),
            events.clone(),
            // §4.2 op. 3's promotions and §4.4's deletions go into the
            // postmortem journal from the kernel itself.
            Arc::clone(&journal),
        )
        .inspect_err(|_| node.shutdown())?;
        let links = Arc::new(links);
        let negotiator =
            Negotiator::new(engine.clone(), user, node.metrics(), Arc::clone(&journal));

        let inner = Arc::new(DeviceInner {
            user,
            name: name.to_owned(),
            node,
            store,
            listener,
            engine,
            events,
            links,
            negotiator,
            journal,
            clock,
            entity_handler: RwLock::new(None),
            subscription_handler: RwLock::new(None),
            link_acceptor: RwLock::new(None),
            published: Mutex::new(Vec::new()),
            sessions: Mutex::new(HashMap::new()),
            swept: Mutex::new(VecDeque::new()),
            expiring: AtomicBool::new(false),
        });
        let device = DeviceRuntime { inner };
        device.register_kernel_services();
        device.register_periodic_tasks();
        Ok(device)
    }

    // ---- accessors -----------------------------------------------------------

    /// The owning user.
    pub fn user(&self) -> UserId {
        self.inner.user
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// This device's network address.
    pub fn addr(&self) -> NodeAddr {
        self.inner.node.addr()
    }

    /// The embedded store.
    pub fn store(&self) -> &Store {
        &self.inner.store
    }

    /// The invocation engine.
    pub fn engine(&self) -> &SydEngine {
        &self.inner.engine
    }

    /// The event handler.
    pub fn events(&self) -> &EventHandler {
        &self.inner.events
    }

    /// The link database.
    pub fn links(&self) -> &LinksModule {
        &self.inner.links
    }

    /// The negotiation coordinator.
    pub fn negotiator(&self) -> &Negotiator {
        &self.inner.negotiator
    }

    /// The underlying node (identity stamping, raw calls).
    pub fn node(&self) -> &Node {
        &self.inner.node
    }

    /// This device's metrics registry (shared with the node, engine,
    /// listener, and negotiator).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.inner.node.metrics()
    }

    /// The postmortem event journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.inner.journal
    }

    /// Human-readable telemetry dump: the metrics table followed by the
    /// journal timeline. For postmortems and harness output.
    pub fn telemetry_dump(&self) -> String {
        format!(
            "== device {} ({}) metrics ==\n{}\n== journal ==\n{}",
            self.inner.user,
            self.inner.name,
            syd_telemetry::metrics_table(&self.metrics().snapshot()),
            self.inner.journal.dump()
        )
    }

    /// Machine-readable telemetry dump: metrics then journal, one JSON
    /// object per line.
    pub fn telemetry_jsonl(&self) -> String {
        format!(
            "{}{}",
            syd_telemetry::metrics_jsonl(&self.metrics().snapshot()),
            self.inner.journal.to_jsonl()
        )
    }

    /// The deployment clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    // ---- application extension points ----------------------------------------

    /// Installs the entity handler (negotiation participant logic).
    pub fn set_entity_handler(&self, handler: Arc<dyn EntityHandler>) {
        *self.inner.entity_handler.write() = Some(handler);
    }

    /// Installs the subscription-notification handler.
    pub fn set_subscription_handler(&self, handler: Arc<dyn SubscriptionHandler>) {
        *self.inner.subscription_handler.write() = Some(handler);
    }

    /// Installs the link-offer acceptor (`(entity, action, from) -> bool`).
    /// Without one, every offer is accepted.
    pub fn set_link_acceptor(&self, acceptor: LinkAcceptor) {
        *self.inner.link_acceptor.write() = Some(acceptor);
    }

    /// Serves `method` of an application service on this device and
    /// publishes the service in the directory.
    ///
    /// Publication belongs to the *service*: the directory is told once,
    /// when the service's first method is registered, and every later
    /// registration for it is local only. A service counts as published
    /// only once the directory has acknowledged it: a failed `publish`
    /// returns its error with the method already served locally, and the
    /// next registration for that service sends it again.
    /// [`Listener::unregister`] does not unpublish the service.
    pub fn register_service(
        &self,
        service: &ServiceName,
        method: &str,
        handler: ServiceMethod,
    ) -> SydResult<()> {
        self.inner.listener.register(service, method, handler);
        let published = self.inner.published.lock().contains(service);
        if !published {
            self.inner
                .engine
                .directory()
                .publish(self.inner.user, service)?;
            self.inner.published.lock().push(service.clone());
        }
        Ok(())
    }

    /// Fires the links anchored on a local entity (app-facing trigger
    /// entry point; see [`LinksModule::entity_changed`]).
    pub fn entity_changed(
        &self,
        entity: &str,
        payload: &Value,
    ) -> SydResult<Vec<crate::links::FireResult>> {
        self.inner
            .links
            .entity_changed(entity, payload, &self.inner.negotiator)
    }

    // ---- mobility ---------------------------------------------------------------

    /// Takes the device off the network (out of radio range): the network
    /// drops its traffic and the directory marks it disconnected so
    /// lookups fail over to the proxy (§5.2).
    pub fn disconnect(&self) -> SydResult<()> {
        // Order matters: mark the directory first, then drop connectivity
        // (the directory call itself needs the network).
        self.inner
            .engine
            .directory()
            .set_connected(self.inner.user, false)?;
        self.inner.node.link().set_connected(false);
        Ok(())
    }

    /// Brings the device back: reconnects, then re-registers as connected.
    pub fn reconnect(&self) -> SydResult<()> {
        self.inner.node.link().set_connected(true);
        self.inner
            .engine
            .directory()
            .set_connected(self.inner.user, true)
    }

    /// True iff the device is currently connected.
    pub fn is_connected(&self) -> bool {
        self.inner.node.link().is_connected()
    }

    // ---- kernel services -----------------------------------------------------

    fn register_kernel_services(&self) {
        let svc = link_service();
        let listener = &self.inner.listener;

        // mark(session, entity, change) -> Bool vote
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "mark",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let session = args_get(args, 0)?.as_i64()? as u64;
                let entity = args_get(args, 1)?.as_str()?;
                let change = args_get(args, 2)?;
                let key = entity_lock_key(entity);
                if !inner.store.locks().try_acquire(session, &key) {
                    // Bounded wait, then give up and vote no. The wait is
                    // contention with another in-flight negotiation —
                    // worth its own span on the serving device.
                    let mut wait_span = inner.node.tracer().span(names::SPAN_LOCK_WAIT);
                    wait_span.attr("session", session);
                    if inner
                        .store
                        .locks()
                        .acquire(session, &key, MARK_LOCK_WAIT)
                        .is_err()
                    {
                        let vote = fsm::Vote::NoLockBusy;
                        inner
                            .journal
                            .emit(Event::vote(session, entity, Vote::LockBusy));
                        // Distinguishable from a durable prepare refusal:
                        // the coordinator treats any non-true vote as a
                        // decline, but a greedy grab must not commit while
                        // another negotiation holds this lock.
                        return Ok(vote.wire_reply());
                    }
                }
                inner.journal.emit(Event::lock(session, entity));
                inner.sessions.lock().insert(session, Instant::now());
                let handler = inner.entity_handler.read().clone();
                // No entity handler prepares trivially: pure mutual
                // exclusion semantics, as in `fsm::participant_mark`.
                let prepared = match handler {
                    Some(h) => h.prepare(entity, change),
                    None => Ok(()),
                };
                // Journal-before-release, as in commit.
                let (vote, journaled) = match &prepared {
                    Ok(()) => (fsm::Vote::Yes, Vote::Yes),
                    Err(err) => (fsm::Vote::NoPrepare, Vote::Refused(err.to_string())),
                };
                inner.journal.emit(Event::vote(session, entity, journaled));
                if vote.releases_lock() {
                    inner.store.locks().release(session, &key);
                }
                Ok(vote.wire_reply())
            }),
        );

        // commit(session, entity, change) -> Null
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "commit",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let session = args_get(args, 0)?.as_i64()? as u64;
                let entity = args_get(args, 1)?.as_str()?;
                let change = args_get(args, 2)?;
                let key = entity_lock_key(entity);
                if inner.store.locks().holder(&key) != Some(session)
                    && inner.swept.lock().contains(&session)
                {
                    return Err(SydError::App(format!(
                        "session {session} expired: its lock on {entity} was swept"
                    )));
                }
                let handler = inner.entity_handler.read().clone();
                let result = match handler {
                    Some(h) => h.commit(entity, change),
                    None => Ok(()),
                };
                // Journal before releasing: the next session's `Lock`
                // record must sequence after this `Change`, or the journal
                // would show two holders of one entity.
                inner
                    .journal
                    .emit(Event::commit(session, entity, result.is_ok()));
                inner.store.locks().release(session, &key);
                // Forget the session only once it holds no other lock on
                // this device: a session may cover several local entities,
                // and dropping it on the first commit would hide its
                // remaining locks from the stale-session sweep if a later
                // commit message is lost.
                if inner.store.locks().held_by(session) == 0 {
                    inner.sessions.lock().remove(&session);
                }
                result.map(|()| Value::Null)
            }),
        );

        // abort(session, entity, change) -> Null
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "abort",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let session = args_get(args, 0)?.as_i64()? as u64;
                let entity = args_get(args, 1)?.as_str()?;
                let change = args_get(args, 2)?;
                if let Some(h) = inner.entity_handler.read().clone() {
                    h.abort(entity, change);
                }
                // Journal-before-release, as in commit.
                inner
                    .journal
                    .emit(Event::release(session, entity, "coordinator-abort"));
                inner
                    .store
                    .locks()
                    .release(session, &entity_lock_key(entity));
                // Same rule as commit: see the multi-entity note there.
                if inner.store.locks().held_by(session) == 0 {
                    inner.sessions.lock().remove(&session);
                }
                Ok(Value::Null)
            }),
        );

        // offer_link(entity, action, from_user) -> Bool
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "offer_link",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let entity = args_get(args, 0)?.as_str()?;
                let action = args_get(args, 1)?.as_str()?;
                let from = UserId::new(args_get(args, 2)?.as_i64()? as u64);
                let acceptor = inner.link_acceptor.read().clone();
                let accept = match acceptor {
                    Some(f) => f(entity, action, from),
                    None => true,
                };
                Ok(Value::Bool(accept))
            }),
        );

        // install_link(link value) -> link id
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "install_link",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let id = inner.links.install_remote(args_get(args, 0)?)?;
                Ok(Value::from(id.raw()))
            }),
        );

        // delete_by_corr(corr, visited list) -> deleted count
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "delete_by_corr",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let corr = args_get(args, 0)?.as_str()?;
                let visited = args_get(args, 1)?
                    .as_list()?
                    .iter()
                    .map(|v| Ok(v.as_i64()? as u64))
                    .collect::<SydResult<Vec<u64>>>()?;
                let report = inner.links.delete_by_corr(corr, visited)?;
                Ok(Value::from(report.deleted.len() as u64))
            }),
        );

        // notify(entity, action, payload) -> handler result
        let inner = Arc::downgrade(&self.inner);
        listener.register(
            &svc,
            "notify",
            Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                let inner = inner.upgrade().ok_or(SydError::Shutdown)?;
                let entity = args_get(args, 0)?.as_str()?;
                let action = args_get(args, 1)?.as_str()?;
                let payload = args_get(args, 2)?;
                inner
                    .events
                    .publish_local(&format!("link.notify.{action}"), || payload.clone());
                let handler = inner.subscription_handler.read().clone();
                match handler {
                    Some(h) => h.on_notify(entity, action, payload),
                    None => Ok(Value::Null),
                }
            }),
        );

        // ping() -> "pong" (liveness probe; proxies use it)
        listener.register(
            &ServiceName::new("syd.ping"),
            "ping",
            Arc::new(|_ctx: &InvokeCtx, _args: &[Value]| Ok(Value::str("pong"))),
        );
    }

    fn register_periodic_tasks(&self) {
        // Both ticks run on the runtime's loop, so neither may block. Each
        // captures a weak handle: the runtime owns these closures, and a
        // strong `inner` here would pin the device (and through its node,
        // the whole runtime) alive after the last external handle drops.
        let inner = Arc::downgrade(&self.inner);
        self.inner
            .events
            .register_periodic("link-expiry", Duration::from_millis(500), move || {
                if let Some(inner) = inner.upgrade() {
                    expiry_tick(&inner);
                }
            });

        // Stale negotiation sessions: a coordinator that died between mark
        // and commit leaves entities locked; sweep them.
        let inner = Arc::downgrade(&self.inner);
        self.inner
            .events
            .register_periodic("stale-sessions", Duration::from_secs(5), move || {
                if let Some(inner) = inner.upgrade() {
                    sweep_sessions(&inner, STALE_SESSION_AGE);
                }
            });
    }

    /// Sweeps negotiation sessions older than `older_than`, releasing any
    /// entity locks they still hold (the §4.3 lost-message cleanup,
    /// normally run by the periodic `stale-sessions` task). Returns the
    /// number of sessions swept. Exposed so fault-injection tests can
    /// force a sweep without waiting for the scheduler.
    pub fn sweep_stale_sessions(&self, older_than: Duration) -> usize {
        sweep_sessions(&self.inner, older_than)
    }

    /// Stops the device: unregisters from the network, stops pools and
    /// the event scheduler.
    pub fn shutdown(&self) {
        self.inner.events.shutdown();
        self.inner.node.shutdown();
    }
}

/// The lock key guarding a named entity on a device.
pub fn entity_lock_key(entity: &str) -> LockKey {
    LockKey::new("syd.entity", [Value::str(entity)])
}

/// The `link-expiry` tick (§4.2 op. 6) finds the expired links on the loop
/// and hands their deletion to the pool, one job per device at a time: a
/// cascade may wait out every deadline against an unreachable peer, and on
/// the loop it would stall every device of the process.
fn expiry_tick(inner: &Arc<DeviceInner>) {
    let expired = inner.links.expired().unwrap_or_default();
    if expired.is_empty() || inner.expiring.swap(true, Ordering::AcqRel) {
        return;
    }
    let device = Arc::downgrade(inner);
    inner.node.runtime().pool().execute(move || {
        if let Some(inner) = device.upgrade() {
            inner.links.expire(&expired);
            inner.expiring.store(false, Ordering::Release);
        }
    });
}

/// Releases the locks of sessions older than `older_than` and forgets
/// them, journaling a `Release` per reclaimed entity lock so the invariant
/// checker sees the cleanup instead of reporting a leak. Sessions that
/// lost a lock this way are remembered, so that a late commit is refused.
fn sweep_sessions(inner: &DeviceInner, older_than: Duration) -> usize {
    let mut sessions = inner.sessions.lock();
    let now = Instant::now();
    let mut swept = 0;
    let mut released = Vec::new();
    sessions.retain(|&session, &mut started| {
        if now.duration_since(started) > older_than {
            let keys = inner.store.locks().keys_held_by(session);
            if !keys.is_empty() {
                released.push(session);
            }
            for key in keys {
                if key.table == "syd.entity" {
                    if let Some(syd_store::OrdValue(Value::Str(entity))) = key.key.first() {
                        inner
                            .journal
                            .emit(Event::release(session, entity, "stale-sweep"));
                    }
                }
            }
            inner.store.locks().release_all(session);
            debug_assert_eq!(
                inner.store.locks().held_by(session),
                0,
                "session {session} still holds locks after sweep"
            );
            swept += 1;
            false
        } else {
            true
        }
    });
    drop(sessions);
    let mut remembered = inner.swept.lock();
    remembered.extend(released);
    let excess = remembered.len().saturating_sub(SWEPT_MEMORY);
    remembered.drain(..excess);
    swept
}

fn args_get(args: &[Value], i: usize) -> SydResult<&Value> {
    args.get(i)
        .ok_or_else(|| SydError::Protocol(format!("missing argument {i}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::directory::DirectoryServer;
    use crate::links::{Constraint, LinkSpec};
    use crate::negotiate::Participant;
    use syd_net::Network;
    use syd_types::SystemClock;

    fn rig(n: usize) -> (Network, DirectoryServer, Vec<DeviceRuntime>) {
        let net = Network::ideal();
        let dir = DirectoryServer::start(&net);
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let devices = (1..=n as u64)
            .map(|id| {
                DeviceRuntime::new(
                    &net,
                    dir.addr(),
                    UserId::new(id),
                    &format!("user{id}"),
                    None,
                    Arc::clone(&clock),
                )
                .unwrap()
            })
            .collect();
        (net, dir, devices)
    }

    /// Entity handler over a shared status map: prepare succeeds when the
    /// entity is "free"; commit sets it to the payload string.
    struct MapHandler {
        state: Arc<Mutex<HashMap<String, String>>>,
    }

    impl EntityHandler for MapHandler {
        fn prepare(&self, entity: &str, _change: &Value) -> SydResult<()> {
            let state = self.state.lock();
            match state.get(entity).map(String::as_str) {
                None | Some("free") => Ok(()),
                Some(other) => Err(SydError::App(format!("{entity} is {other}"))),
            }
        }
        fn commit(&self, entity: &str, change: &Value) -> SydResult<()> {
            self.state
                .lock()
                .insert(entity.to_owned(), change.as_str()?.to_owned());
            Ok(())
        }
        fn abort(&self, _entity: &str, _change: &Value) {}
    }

    fn install_map_handlers(devices: &[DeviceRuntime]) -> Vec<Arc<Mutex<HashMap<String, String>>>> {
        devices
            .iter()
            .map(|d| {
                let state = Arc::new(Mutex::new(HashMap::new()));
                d.set_entity_handler(Arc::new(MapHandler {
                    state: Arc::clone(&state),
                }));
                state
            })
            .collect()
    }

    #[test]
    fn ping_service_answers() {
        let (_net, _dir, devices) = rig(2);
        let out = devices[0]
            .engine()
            .invoke(
                devices[1].user(),
                &ServiceName::new("syd.ping"),
                "ping",
                vec![],
            )
            .unwrap();
        assert_eq!(out, Value::str("pong"));
    }

    #[test]
    fn negotiation_and_commits_everywhere() {
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "slot:1:9", Value::str("reserved")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_and(&participants)
            .unwrap();
        assert!(outcome.satisfied, "{outcome:?}");
        assert_eq!(outcome.committed.len(), 3);
        for state in &states {
            assert_eq!(state.lock().get("slot:1:9").unwrap(), "reserved");
        }
        // All locks released.
        for d in &devices {
            assert_eq!(d.store().locks().held_count(), 0);
        }
    }

    #[test]
    fn negotiation_and_aborts_when_one_declines() {
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        // Device 2's slot is already busy.
        states[2]
            .lock()
            .insert("slot:1:9".to_owned(), "busy".to_owned());
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "slot:1:9", Value::str("reserved")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_and(&participants)
            .unwrap();
        assert!(!outcome.satisfied);
        assert!(outcome.committed.is_empty());
        assert_eq!(outcome.declined, vec![devices[2].user()]);
        // Nobody changed.
        assert!(states[0].lock().get("slot:1:9").is_none());
        assert!(states[1].lock().get("slot:1:9").is_none());
        for d in &devices {
            assert_eq!(d.store().locks().held_count(), 0);
        }
    }

    #[test]
    fn greedy_grab_aborts_under_lock_contention() {
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        // A foreign negotiation session holds device 2's entity lock, as
        // if another coordinator were mid-negotiation on the same slot.
        let key = entity_lock_key("slot:1:9");
        assert!(devices[2].store().locks().try_acquire(0xdead, &key));
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "slot:1:9", Value::str("reserved")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_available(&participants)
            .unwrap();
        // Devices 0 and 1 voted yes but nothing may commit: grabbing a
        // partial set while another coordinator holds the rest is how a
        // slot ends up split between two meetings.
        assert_eq!(outcome.contended, vec![devices[2].user()]);
        assert!(outcome.committed.is_empty(), "{outcome:?}");
        assert!(!outcome.satisfied);
        for state in &states {
            assert!(state.lock().get("slot:1:9").is_none());
        }
        for d in &devices[..2] {
            assert_eq!(d.store().locks().held_count(), 0);
        }
        // Once the other session is gone the same grab commits everyone.
        devices[2].store().locks().release(0xdead, &key);
        let outcome = devices[0]
            .negotiator()
            .negotiate_available(&participants)
            .unwrap();
        assert!(outcome.satisfied, "{outcome:?}");
        assert_eq!(outcome.committed.len(), 3);
    }

    /// Riders leave in the batch of the commits, their outcomes are
    /// reported, and a contended round — which commits nothing — sends
    /// none.
    #[test]
    fn riders_travel_with_the_commits_but_not_from_a_contended_round() {
        use crate::negotiate::Phase2;
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        states[2].lock().insert("e".to_owned(), "busy".to_owned());
        let svc = ServiceName::new("app");
        let told = Arc::new(Mutex::new(0u32));
        let tc = Arc::clone(&told);
        devices[2]
            .register_service(
                &svc,
                "left_out",
                Arc::new(move |_ctx, _args| {
                    *tc.lock() += 1;
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "e", Value::str("x")))
            .collect();
        // Tell whoever was not chosen, and somebody nobody can reach.
        let nobody = UserId::new(99);
        let phase2 = |chosen: &[&Participant]| {
            let left_out = participants.iter().filter(|p| !chosen.contains(p));
            let riders = left_out
                .map(|p| p.user)
                .chain([nobody])
                .map(|user| crate::Call::new(user, &svc, "left_out", vec![]))
                .collect();
            Phase2 {
                changes: chosen.iter().map(|p| p.change.clone()).collect(),
                riders,
            }
        };
        let rounds = devices[0]
            .metrics()
            .get_counter(names::ENGINE_ROUNDS)
            .unwrap();
        let before = rounds.get();
        let outcome = devices[0]
            .negotiator()
            .negotiate_available_with(&participants, &phase2)
            .unwrap();
        assert_eq!(rounds.get() - before, 2, "mark, and commits with riders");
        assert_eq!(outcome.committed.len(), 2);
        assert_eq!(outcome.rode, vec![devices[2].user()]);
        assert_eq!(*told.lock(), 1);

        let key = entity_lock_key("e");
        assert!(devices[1].store().locks().try_acquire(0xdead, &key));
        let outcome = devices[0]
            .negotiator()
            .negotiate_available_with(&participants, &phase2)
            .unwrap();
        assert_eq!(outcome.contended, vec![devices[1].user()]);
        assert!(outcome.committed.is_empty() && outcome.rode.is_empty());
        assert_eq!(*told.lock(), 1, "a contended round sent a rider");
    }

    #[test]
    fn negotiation_or_commits_available_subset() {
        let (_net, _dir, devices) = rig(4);
        let states = install_map_handlers(&devices);
        states[1].lock().insert("e".to_owned(), "busy".to_owned());
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "e", Value::str("x")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_or(2, &participants)
            .unwrap();
        assert!(outcome.satisfied);
        assert_eq!(outcome.committed.len(), 3); // everyone available commits
        assert_eq!(outcome.declined, vec![devices[1].user()]);
    }

    #[test]
    fn negotiation_or_fails_below_k() {
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        states[1].lock().insert("e".to_owned(), "busy".to_owned());
        states[2].lock().insert("e".to_owned(), "busy".to_owned());
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "e", Value::str("x")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_or(2, &participants)
            .unwrap();
        assert!(!outcome.satisfied);
        assert!(outcome.committed.is_empty());
        // The one yes-voter was aborted, not committed.
        assert!(states[0].lock().get("e").is_none());
    }

    #[test]
    fn negotiation_xor_commits_exactly_k() {
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "e", Value::str("x")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_xor(1, &participants)
            .unwrap();
        assert!(outcome.satisfied);
        assert_eq!(outcome.committed.len(), 1);
        assert_eq!(outcome.aborted.len(), 2);
        let changed = states.iter().filter(|s| s.lock().contains_key("e")).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn concurrent_negotiations_on_same_entity_dont_double_commit() {
        let (_net, _dir, devices) = rig(3);
        let states = install_map_handlers(&devices);
        // Two coordinators race to reserve the same slot on all three
        // devices. Exactly one negotiation-and may win (handler refuses
        // non-"free" entities); the loser must abort cleanly.
        let d0 = devices[0].clone();
        let d1 = devices[1].clone();
        let p0: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "s", Value::str("meeting-A")))
            .collect();
        let p1: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "s", Value::str("meeting-B")))
            .collect();
        let t0 = std::thread::spawn(move || d0.negotiator().negotiate_and(&p0).unwrap());
        let t1 = std::thread::spawn(move || d1.negotiator().negotiate_and(&p1).unwrap());
        let o0 = t0.join().unwrap();
        let o1 = t1.join().unwrap();
        let winners = [o0.satisfied, o1.satisfied].iter().filter(|&&b| b).count();
        assert!(winners <= 1, "both negotiations committed: {o0:?} {o1:?}");
        if winners == 1 {
            let value = if o0.satisfied {
                "meeting-A"
            } else {
                "meeting-B"
            };
            for state in &states {
                assert_eq!(state.lock().get("s").unwrap(), value);
            }
        }
        for d in &devices {
            assert_eq!(d.store().locks().held_count(), 0);
        }
    }

    #[test]
    fn subscription_link_notifies_peers() {
        let (_net, _dir, devices) = rig(3);
        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
        struct Recorder(Arc<Mutex<Vec<(String, String)>>>);
        impl SubscriptionHandler for Recorder {
            fn on_notify(&self, entity: &str, action: &str, _payload: &Value) -> SydResult<Value> {
                self.0.lock().push((entity.to_owned(), action.to_owned()));
                Ok(Value::Null)
            }
        }
        for d in &devices[1..] {
            d.set_subscription_handler(Arc::new(Recorder(Arc::clone(&seen))));
        }
        let link = devices[0]
            .links()
            .add_local(LinkSpec::subscription(
                "my-slot",
                vec![
                    crate::links::LinkRef::new(devices[1].user(), "their-slot", "sync"),
                    crate::links::LinkRef::new(devices[2].user(), "their-slot", "sync"),
                ],
            ))
            .unwrap();
        let results = devices[0]
            .entity_changed("my-slot", &Value::str("changed"))
            .unwrap();
        assert_eq!(results.len(), 1);
        match &results[0] {
            crate::links::FireResult::Notified {
                link: l,
                delivered,
                failed,
            } => {
                assert_eq!(*l, link.id);
                assert_eq!(*delivered, 2);
                assert_eq!(*failed, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(seen.lock().len(), 2);
    }

    /// A subscription link notifies all its references in one batch, and
    /// method coupling invokes all its destinations in one.
    #[test]
    fn a_link_with_three_references_notifies_in_one_round() {
        let (_net, _dir, devices) = rig(4);
        let refs = devices[1..]
            .iter()
            .map(|d| crate::links::LinkRef::new(d.user(), "their-slot", "sync"))
            .collect();
        devices[0]
            .links()
            .add_local(LinkSpec::subscription("my-slot", refs))
            .unwrap();
        devices[3].shutdown();
        let rounds = devices[0]
            .metrics()
            .get_counter(names::ENGINE_ROUNDS)
            .unwrap();
        let before = rounds.get();
        let results = devices[0]
            .entity_changed("my-slot", &Value::str("changed"))
            .unwrap();
        assert_eq!(rounds.get() - before, 1);
        match &results[..] {
            [crate::links::FireResult::Notified {
                delivered, failed, ..
            }] => assert_eq!((*delivered, *failed), (2, 1)),
            other => panic!("unexpected {other:?}"),
        }

        let svc = ServiceName::new("calendar");
        for d in &devices[1..3] {
            d.register_service(&svc, "refresh", Arc::new(|_ctx, _args| Ok(Value::Null)))
                .unwrap();
            devices[0]
                .links()
                .couple_method(&svc, "update", d.user(), &svc, "refresh")
                .unwrap();
        }
        let before = rounds.get();
        let outcomes = devices[0]
            .links()
            .invoke_coupled(&svc, "update", vec![])
            .unwrap();
        assert_eq!(rounds.get() - before, 1);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|(_, out)| out.is_ok()));
    }

    #[test]
    fn negotiated_link_creation_installs_back_links() {
        let (_net, _dir, devices) = rig(3);
        let spec = LinkSpec::negotiation(
            "slot:2:10",
            Constraint::And,
            vec![
                crate::links::LinkRef::new(devices[1].user(), "slot:2:10", "reserve"),
                crate::links::LinkRef::new(devices[2].user(), "slot:2:10", "reserve"),
            ],
        );
        let forward = devices[0]
            .links()
            .create_negotiated(spec, "inform")
            .unwrap();
        assert_eq!(devices[0].links().count().unwrap(), 1);
        // Each peer holds a back subscription link under the same corr.
        for d in &devices[1..] {
            let links = d.links().by_corr(&forward.corr).unwrap();
            assert_eq!(links.len(), 1);
            assert_eq!(links[0].kind, crate::links::LinkKind::Subscription);
            assert_eq!(links[0].refs[0].user, devices[0].user());
        }
        // One offer round and one install round, whatever the peer count.
        let rounds = devices[0]
            .metrics()
            .get_counter(names::ENGINE_ROUNDS)
            .unwrap();
        assert_eq!(rounds.get(), 2);
    }

    /// A web where peer 2 also references a third party (4) the origin
    /// does not know: the cascade reaches 2 and 3 in one round carrying
    /// the origin's whole peer set, and 2 forwards it to 4 exactly once.
    #[test]
    fn cascade_fans_out_with_the_full_peer_set_and_reaches_third_parties_once() {
        let (_net, _dir, devices) = rig(4);
        let [origin, two, three, four] = [0, 1, 2, 3].map(|i| devices[i].user());
        let corr = "web";
        // Record every delete_by_corr a device serves, then serve it.
        let seen = Arc::new(Mutex::new(Vec::<(UserId, Vec<u64>)>::new()));
        for d in &devices {
            let (device, seen) = (d.clone(), Arc::clone(&seen));
            d.register_service(
                &link_service(),
                "delete_by_corr",
                Arc::new(move |_ctx: &InvokeCtx, args: &[Value]| {
                    let visited = args_get(args, 1)?
                        .as_list()?
                        .iter()
                        .map(|v| Ok(v.as_i64()? as u64))
                        .collect::<SydResult<Vec<u64>>>()?;
                    seen.lock().push((device.user(), visited.clone()));
                    let report = device
                        .links()
                        .delete_by_corr(args_get(args, 0)?.as_str()?, visited)?;
                    Ok(Value::from(report.deleted.len() as u64))
                }),
            )
            .unwrap();
        }
        let deleted_at_four = Arc::new(Mutex::new(0));
        let counter = Arc::clone(&deleted_at_four);
        devices[3].events().subscribe(
            "link.deleted",
            Arc::new(move |_topic, _payload| *counter.lock() += 1),
        );

        let link = |peer: UserId| crate::links::LinkRef::new(peer, "e", "a");
        let forward = devices[0]
            .links()
            .add_local(
                LinkSpec::negotiation("e", Constraint::And, vec![link(two), link(three)])
                    .with_corr(corr),
            )
            .unwrap();
        for (d, peer) in [(1, origin), (1, four), (2, origin), (3, two)] {
            devices[d]
                .links()
                .add_local(LinkSpec::subscription("e", vec![link(peer)]).with_corr(corr))
                .unwrap();
        }

        let report = devices[0].links().delete(forward.id, true).unwrap();
        assert_eq!(report.cascaded_to, vec![two, three]);
        for d in &devices {
            assert_eq!(d.links().count().unwrap(), 0, "{} keeps links", d.name());
        }
        assert_eq!(
            *deleted_at_four.lock(),
            1,
            "4's link is deleted exactly once"
        );

        let mut seen = seen.lock().clone();
        seen.sort();
        let peer_set = [origin.raw(), two.raw(), three.raw()];
        assert_eq!(
            seen.iter().map(|(user, _)| *user).collect::<Vec<_>>(),
            vec![two, three, four],
            "one delete_by_corr per device reached"
        );
        for (user, visited) in &seen {
            assert!(
                peer_set.iter().all(|p| visited.contains(p)),
                "delete_by_corr at {user} lacks the origin's peer set: {visited:?}"
            );
        }
        assert!(seen[2].1.contains(&four.raw()));
        for d in &devices {
            d.shutdown();
        }
    }

    #[test]
    fn declined_link_offer_creates_nothing() {
        let (_net, _dir, devices) = rig(2);
        devices[1].set_link_acceptor(Arc::new(|_entity, _action, _from| false));
        let spec = LinkSpec::negotiation(
            "e",
            Constraint::And,
            vec![crate::links::LinkRef::new(devices[1].user(), "e", "a")],
        );
        let err = devices[0]
            .links()
            .create_negotiated(spec, "back")
            .unwrap_err();
        assert!(matches!(err, SydError::ConstraintFailed(_)), "{err}");
        assert_eq!(devices[0].links().count().unwrap(), 0);
        assert_eq!(devices[1].links().count().unwrap(), 0);
    }

    #[test]
    fn cascade_delete_removes_all_halves() {
        let (_net, _dir, devices) = rig(3);
        let spec = LinkSpec::negotiation(
            "e",
            Constraint::And,
            vec![
                crate::links::LinkRef::new(devices[1].user(), "e", "a"),
                crate::links::LinkRef::new(devices[2].user(), "e", "a"),
            ],
        );
        let forward = devices[0].links().create_negotiated(spec, "back").unwrap();
        assert_eq!(devices[1].links().count().unwrap(), 1);
        let report = devices[0].links().delete(forward.id, true).unwrap();
        assert_eq!(report.deleted, vec![forward.id]);
        assert_eq!(report.cascaded_to.len(), 2);
        for d in &devices {
            assert_eq!(
                d.links().count().unwrap(),
                0,
                "{} still has links",
                d.name()
            );
        }
    }

    #[test]
    fn waiting_link_promotion_follows_priority() {
        let (_net, _dir, devices) = rig(1);
        let d = &devices[0];
        let permanent = d
            .links()
            .add_local(LinkSpec::subscription("e", vec![]))
            .unwrap();
        let low = d
            .links()
            .add_local(
                LinkSpec::subscription("e", vec![])
                    .with_priority(Priority::new(10))
                    .waiting_on(permanent.id, 1),
            )
            .unwrap();
        let high = d
            .links()
            .add_local(
                LinkSpec::subscription("e", vec![])
                    .with_priority(Priority::new(200))
                    .waiting_on(permanent.id, 2),
            )
            .unwrap();

        let promoted: Arc<Mutex<Vec<LinkId>>> = Arc::new(Mutex::new(Vec::new()));
        let pc = Arc::clone(&promoted);
        d.links()
            .set_promotion_handler(Arc::new(move |link| pc.lock().push(link.id)));

        let report = d.links().delete(permanent.id, false).unwrap();
        assert_eq!(report.promoted, vec![high.id]);
        assert_eq!(*promoted.lock(), vec![high.id]);
        assert_eq!(
            d.links().get(high.id).unwrap().unwrap().status,
            crate::links::LinkStatus::Permanent
        );
        // Low-priority waiter is still tentative, re-anchored on `high`.
        assert_eq!(
            d.links().get(low.id).unwrap().unwrap().status,
            crate::links::LinkStatus::Tentative
        );
        // Deleting the newly permanent link promotes the survivor.
        let report = d.links().delete(high.id, false).unwrap();
        assert_eq!(report.promoted, vec![low.id]);

        // The kernel journals its own transitions, nobody subscribed, and
        // a creation is not one of them.
        let journaled: Vec<Event> = d.journal().events().into_iter().map(|e| e.event).collect();
        let promoted = |link: LinkId, priority: i64, group: i64| Event::Promoted {
            link: link.raw(),
            priority,
            group,
        };
        let deleted = |link: &crate::links::Link| Event::LinkDeleted {
            id: link.id.raw(),
            corr: link.corr.clone(),
            cascade: false,
        };
        assert_eq!(
            journaled,
            vec![
                promoted(high.id, 200, 2),
                deleted(&permanent),
                promoted(low.id, 10, 1),
                deleted(&high),
            ]
        );
    }

    #[test]
    fn waiting_group_promotes_together() {
        let (_net, _dir, devices) = rig(1);
        let d = &devices[0];
        let permanent = d
            .links()
            .add_local(LinkSpec::subscription("e", vec![]))
            .unwrap();
        // Two links in group 7, one in group 8, all same priority.
        let a = d
            .links()
            .add_local(LinkSpec::subscription("e1", vec![]).waiting_on(permanent.id, 7))
            .unwrap();
        let b = d
            .links()
            .add_local(LinkSpec::subscription("e2", vec![]).waiting_on(permanent.id, 7))
            .unwrap();
        let c = d
            .links()
            .add_local(LinkSpec::subscription("e3", vec![]).waiting_on(permanent.id, 8))
            .unwrap();
        let report = d.links().delete(permanent.id, false).unwrap();
        let mut promoted = report.promoted.clone();
        promoted.sort();
        assert_eq!(promoted, vec![a.id, b.id]);
        assert_eq!(
            d.links().get(c.id).unwrap().unwrap().status,
            crate::links::LinkStatus::Tentative
        );
    }

    #[test]
    fn expiry_scan_deletes_expired_links() {
        use syd_types::SimClock;
        let net = Network::ideal();
        let dir = DirectoryServer::start(&net);
        let clock = SimClock::new();
        let clock_arc: Arc<dyn Clock> = Arc::new(clock.clone());
        let d = DeviceRuntime::new(&net, dir.addr(), UserId::new(1), "u", None, clock_arc).unwrap();
        d.links()
            .add_local(
                LinkSpec::subscription("e", vec![])
                    .with_expiry(syd_types::Timestamp::from_micros(1000)),
            )
            .unwrap();
        d.links()
            .add_local(LinkSpec::subscription("e2", vec![]))
            .unwrap();
        assert!(d.links().expire(&d.links().expired().unwrap()).is_empty());
        clock.advance(Duration::from_millis(2));
        let expired = d.links().expire(&d.links().expired().unwrap());
        assert_eq!(expired.len(), 1);
        assert_eq!(d.links().count().unwrap(), 1); // unexpiring link remains
    }

    #[test]
    fn method_coupling_invokes_destinations() {
        let (_net, _dir, devices) = rig(2);
        let svc = ServiceName::new("calendar");
        let hits = Arc::new(Mutex::new(0u32));
        let hc = Arc::clone(&hits);
        devices[1]
            .register_service(
                &svc,
                "refresh",
                Arc::new(move |_ctx, _args| {
                    *hc.lock() += 1;
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        devices[0]
            .links()
            .couple_method(&svc, "update", devices[1].user(), &svc, "refresh")
            .unwrap();
        let outcomes = devices[0]
            .links()
            .invoke_coupled(&svc, "update", vec![])
            .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].1.is_ok());
        assert_eq!(*hits.lock(), 1);
        // Uncoupled methods invoke nothing.
        assert!(devices[0]
            .links()
            .invoke_coupled(&svc, "other", vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_failed_publish_is_sent_again_by_the_next_registration() {
        let (net, dir, devices) = rig(2);
        let device = &devices[0];
        let served = || {
            dir.metrics()
                .get_counter(names::RPC_REQUESTS_SERVED)
                .map_or(0, |c| c.get())
        };
        let svc = ServiceName::new("app");
        let method = |n: i64| -> ServiceMethod { Arc::new(move |_, _| Ok(Value::I64(n))) };
        let kernel_methods = device.inner.listener.registered().len();

        // The directory is out of range: the publish fails, and the method
        // is served locally all the same.
        net.set_connected(dir.addr(), false);
        let before = served();
        let err = device.register_service(&svc, "one", method(1)).unwrap_err();
        assert!(matches!(err, SydError::Disconnected(_)), "{err}");
        assert_eq!(served(), before);
        assert!(device
            .inner
            .listener
            .registered()
            .contains(&("app".to_owned(), "one".to_owned())));

        // Back in range: the next registration sends the publish again,
        // and the one after that has nothing left to send.
        net.set_connected(dir.addr(), true);
        device.register_service(&svc, "two", method(2)).unwrap();
        assert_eq!(served(), before + 1);
        device.register_service(&svc, "three", method(3)).unwrap();
        assert_eq!(served(), before + 1);

        assert_eq!(device.inner.listener.registered().len(), kernel_methods + 3);
        let rec = device.engine().directory().describe(device.user()).unwrap();
        assert_eq!(rec.services, vec!["app"]);
        let out = devices[1]
            .engine()
            .invoke(device.user(), &svc, "one", vec![]);
        assert_eq!(out.unwrap(), Value::I64(1));
    }

    #[test]
    fn disconnect_isolates_device() {
        let (_net, _dir, devices) = rig(2);
        devices[1].disconnect().unwrap();
        assert!(!devices[1].is_connected());
        let err = devices[0]
            .engine()
            .invoke(
                devices[1].user(),
                &ServiceName::new("syd.ping"),
                "ping",
                vec![],
            )
            .unwrap_err();
        assert!(
            matches!(err, SydError::Disconnected(_) | SydError::Timeout(_)),
            "{err}"
        );
        devices[1].reconnect().unwrap();
        let out = devices[0]
            .engine()
            .invoke(
                devices[1].user(),
                &ServiceName::new("syd.ping"),
                "ping",
                vec![],
            )
            .unwrap();
        assert_eq!(out, Value::str("pong"));
    }

    use syd_types::{LinkId, Priority};
}
