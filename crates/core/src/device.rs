//! A complete SyD device: store + listener + engine + events + links on
//! one network node (the paper's "SyD deviceware" plus its slice of the
//! groupware, Figure 1's bottom two layers as seen from one device).
//!
//! A [`DeviceRuntime`] is what the paper calls a SyD device object host:
//! it encapsulates the local data store, publishes services through the
//! listener, reaches peers through the engine, and maintains the link
//! database. Applications build on exactly four extension points:
//!
//! * [`DeviceRuntime::serve`] — serve a service's method table, which
//!   [`DeviceRuntime::publish`] announces in the directory (§3.1b),
//! * [`EntityHandler`] — how negotiation changes apply to local entities
//!   (mark/commit/abort of §4.3),
//! * [`SubscriptionHandler`] — how subscription-link notifications are
//!   consumed,
//! * the link acceptor — whether an offered link is accepted (§4.2 op. 2).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use syd_crypto::Authenticator;
use syd_net::{Node, Transport, Verb};
use syd_store::{LockKey, LockRights, OrdValue, Store};
use syd_telemetry::{names, Event, EventKind, Journal, Registry, Vote};
use syd_types::sync::{Mutex, Rank, RwLock};
use syd_types::{Clock, NodeAddr, ServiceName, SydError, SydResult, Text, UserId, Value};

use crate::directory::{DirectoryClient, PUBLISH, REGISTER, SET_CONNECTED};
use crate::engine::SydEngine;
use crate::events::EventHandler;
use crate::links::LinksModule;
use crate::links::{DELETE_BY_CORR, INSTALL_LINK, NOTIFY, OFFER_LINK};
use crate::listener::{InvokeCtx, Listener, Method, Methods};
use crate::negotiate::{fsm, Negotiator, ABORT, COMMIT, LINK, MARK};

/// How long a participant waits for an entity lock before voting no.
const MARK_LOCK_WAIT: Duration = Duration::from_millis(200);

/// How long a participant's entity lock lasts from its mark. A
/// coordinator that has neither committed nor aborted by then has lost the
/// entity: the next mark takes it over, and its own commit is refused
/// (DESIGN.md §23).
pub const LOCK_LEASE: Duration = Duration::from_secs(10);

/// Applies negotiated changes to local entities (§4.3's Mark / Change /
/// Unlock, from the participant's side).
pub trait EntityHandler: Send + Sync + 'static {
    /// Availability check, called with the entity lock already held. An
    /// error makes this participant vote **no**.
    fn prepare(&self, entity: &str, change: &Value) -> SydResult<()>;
    /// Applies the change. Called only after the constraint was satisfied.
    /// The change is the commit's own, decoded from its request: what the
    /// handler stores of it moves in without a copy.
    fn commit(&self, entity: &str, change: Value) -> SydResult<()>;
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
    /// The right to change `store`'s entity locks: the kernel handlers'.
    lock_rights: LockRights,
    listener: Arc<Listener>,
    engine: SydEngine,
    events: EventHandler,
    links: Arc<LinksModule>,
    negotiator: Negotiator,
    entity_handler: RwLock<Option<Arc<dyn EntityHandler>>>,
    subscription_handler: RwLock<Option<Arc<dyn SubscriptionHandler>>>,
    link_acceptor: RwLock<Option<LinkAcceptor>>,
    /// Application services served here, each with where its `publish`
    /// stands (see [`DeviceRuntime::publish`]); a device names one to three.
    services: Mutex<Vec<(ServiceName, Published)>>,
    /// Set by [`DeviceRuntime::shutdown`].
    stopped: AtomicBool,
}

/// Where a served service stands with the directory.
#[derive(PartialEq, Eq)]
enum Published {
    No,
    InFlight,
    Acknowledged,
}

/// One SyD device. Cloning shares the device.
#[derive(Clone)]
pub struct DeviceRuntime {
    inner: Arc<DeviceInner>,
}

impl DeviceRuntime {
    /// Assembles a device for `user` on any transport backend (simulated
    /// network or real TCP), registering it in the directory once it
    /// serves its kernel methods. `auth` enables §5.4 request
    /// authentication when present.
    pub fn new(
        net: &dyn Transport,
        dir_addr: NodeAddr,
        user: UserId,
        name: &str,
        auth: Option<Arc<Authenticator>>,
    ) -> SydResult<DeviceRuntime> {
        let node = Node::spawn_on(net)?;
        let directory = DirectoryClient::new(node.clone(), dir_addr);
        let (store, lock_rights) = Store::new_owned();
        let listener = Arc::new(Listener::new(auth, node.metrics()));
        node.set_handler(Arc::clone(&listener) as Arc<dyn syd_net::RequestHandler>);

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
            Arc::clone(node.runtime().clock()),
            events.clone(),
        )
        .inspect_err(|_| node.shutdown())?;
        let negotiator = Negotiator::new(engine.clone(), user, node.metrics());
        let inner = Arc::new(DeviceInner {
            user,
            name: name.to_owned(),
            node,
            store,
            lock_rights,
            listener,
            engine,
            events,
            links,
            negotiator,
            entity_handler: RwLock::new(Rank::Engine, None),
            subscription_handler: RwLock::new(Rank::Engine, None),
            link_acceptor: RwLock::new(Rank::Engine, None),
            services: Mutex::new(Rank::Engine, Vec::new()),
            stopped: AtomicBool::new(false),
        });
        inner.listener.serve(LINK, &inner, LINK_METHODS);
        inner.listener.serve(PING_SERVICE, &inner, PING_METHODS);
        let device = DeviceRuntime { inner };
        // Found only once it serves its kernel methods. A refused join (the
        // name is taken, the directory is out of reach) leaves no endpoint.
        let directory = device.engine().directory();
        directory
            .call(REGISTER, (user, name.into(), device.addr()))
            .inspect_err(|_| device.shutdown())?;
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

    /// The listener: every service and method this device serves.
    pub fn listener(&self) -> &Listener {
        &self.inner.listener
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

    /// The device's one log, its node's: the postmortem event journal
    /// `syd-check` audits, and the spans the node's tracer records.
    pub fn journal(&self) -> &Arc<Journal> {
        self.inner.node.journal()
    }

    /// Human-readable telemetry dump: the metrics table followed by the
    /// journal timeline. For postmortems and harness output.
    pub fn telemetry_dump(&self) -> String {
        format!(
            "== device {} ({}) metrics ==\n{}\n== journal ==\n{}",
            self.inner.user,
            self.inner.name,
            syd_telemetry::metrics_table(&self.metrics().snapshot()),
            self.journal().dump()
        )
    }

    /// Machine-readable telemetry dump: metrics then journal, one JSON
    /// object per line.
    pub fn telemetry_jsonl(&self) -> String {
        format!(
            "{}{}",
            syd_telemetry::metrics_jsonl(&self.metrics().snapshot()),
            self.journal().to_jsonl()
        )
    }

    /// The deployment clock: its transport's ([`Transport::clock`]).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        self.inner.node.runtime().clock()
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

    /// Serves an application service on this device: every method of
    /// `table`, answering from `state` (held weakly, see
    /// [`Listener::serve`]). Serving a service again replaces its table.
    /// This is local only: a service the device has not served before is
    /// noted as unpublished, and [`DeviceRuntime::publish`] tells the
    /// directory.
    pub fn serve<S: Send + Sync + 'static>(
        &self,
        service: &ServiceName,
        state: &Arc<S>,
        table: &'static Methods<S>,
    ) {
        self.inner.listener.serve(service, state, table);
        let mut services = self.inner.services.lock();
        if !services.iter().any(|(s, _)| s == service) {
            services.push((service.clone(), Published::No));
        }
    }

    /// Publishes every unpublished service in the directory, all in one
    /// wave (§3.1b's "globally via directory services") that a pool job
    /// sends, and returns without waiting for it. An application's install
    /// calls it once, after its last registration.
    ///
    /// A service is in flight until the directory answers. A failed one is
    /// journaled, counted under `dir.publish_failures` and sent again by
    /// the next `publish`. Fails only once the device is shut down.
    pub fn publish(&self) -> SydResult<()> {
        if self.inner.stopped.load(Ordering::Acquire) {
            return Err(SydError::Shutdown);
        }
        let mut pending = Vec::new();
        for (service, state) in self.inner.services.lock().iter_mut() {
            if *state == Published::No {
                *state = Published::InFlight;
                pending.push(service.clone());
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        // Like a periodic task, the job holds the device weakly: the wave
        // holds only the node, whose shutdown ends it at once.
        let device = Arc::downgrade(&self.inner);
        let directory = self.engine().directory().clone();
        let user = self.inner.user;
        let job = move || {
            let publish = pending.iter().map(|s| (user, Text::from(s.as_str())));
            let results = directory.call_each(PUBLISH, publish);
            let Some(inner) = device.upgrade() else {
                return;
            };
            // `pending` is in the notes' order, and notes are only appended.
            let mut services = inner.services.lock();
            let sent = services.iter_mut().filter(|(s, _)| pending.contains(s));
            for ((service, state), result) in sent.zip(results) {
                *state = Published::Acknowledged;
                if let Err(err) = result {
                    *state = Published::No;
                    let note = format!("publish of {service} failed: {err}");
                    inner.node.journal().record(EventKind::Info, note);
                    let metrics = inner.node.metrics();
                    metrics.counter(names::DIR_PUBLISH_FAILURES).inc();
                }
            }
        };
        let pool = self.inner.node.runtime().pool();
        pool.execute(job).then_some(()).ok_or(SydError::Shutdown)
    }

    /// The services the directory has not acknowledged yet.
    pub fn unpublished(&self) -> Vec<ServiceName> {
        let services = self.inner.services.lock();
        let waiting = services
            .iter()
            .filter(|(_, state)| *state != Published::Acknowledged);
        waiting.map(|(service, _)| service.clone()).collect()
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
        let directory = self.inner.engine.directory();
        directory.call(SET_CONNECTED, (self.inner.user, false))?;
        self.inner.node.link().set_connected(false);
        Ok(())
    }

    /// Brings the device back: reconnects, re-registers as connected, and
    /// publishes what the directory has not acknowledged.
    pub fn reconnect(&self) -> SydResult<()> {
        self.inner.node.link().set_connected(true);
        let directory = self.inner.engine.directory();
        directory.call(SET_CONNECTED, (self.inner.user, true))?;
        self.publish()
    }

    /// True iff the device is currently connected.
    pub fn is_connected(&self) -> bool {
        self.inner.node.link().is_connected()
    }

    /// Ends every entity lock's lease on this device at once, journaled as
    /// a lapse is, and returns how many it ended. Harnesses call it once a
    /// run quiesced, so a lock whose commit and abort were both lost closes
    /// its story before a strict audit instead of waiting out [`LOCK_LEASE`].
    pub fn end_leases(&self) -> usize {
        let journal = self.journal();
        self.inner.lock_rights.end_leases(|holder, key| {
            if let Some(OrdValue(Value::Str(entity))) = key.key.first() {
                journal.emit(Event::release(holder, entity, "lease"));
            }
        })
    }

    /// Stops the device: unregisters from the network, stops pools and
    /// the event scheduler.
    pub fn shutdown(&self) {
        self.inner.stopped.store(true, Ordering::Release);
        self.inner.events.shutdown();
        self.inner.node.shutdown();
    }
}

/// The lock key guarding a named entity on a device.
pub fn entity_lock_key(entity: &str) -> LockKey {
    LockKey::new("syd.entity", [Value::str(entity)])
}

/// An admitted commit's pinned lock (DESIGN.md §23), released on drop:
/// a pinned entry has no lease end, so a handler that unwinds frees it too.
struct Pinned<'a>(&'a DeviceInner, u64, &'a str, LockKey);

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        let Pinned(inner, session, entity, ref key) = *self;
        if std::thread::panicking() {
            inner
                .node
                .journal()
                .emit(Event::release(session, entity, "commit-unwound"));
        }
        inner.lock_rights.release(session, key);
    }
}

// ---- kernel services ---------------------------------------------------------

/// The link service (§4.2–§4.4): what a peer's links and negotiations
/// call on this device.
static LINK_METHODS: &Methods<DeviceInner> = &[
    &Method::verb(MARK, mark),
    &Method::verb(COMMIT, commit),
    &Method::verb(ABORT, abort),
    &Method::verb(
        OFFER_LINK,
        |inner: &DeviceInner, _, (entity, action, from)| {
            let acceptor = inner.link_acceptor.read().clone();
            Ok(acceptor.is_none_or(|accept| accept(&entity, &action, from)))
        },
    ),
    &Method::verb(INSTALL_LINK, |inner: &DeviceInner, _, (link,)| {
        inner.links.install_remote(&link)
    }),
    &Method::verb(DELETE_BY_CORR, delete_by_corr),
    &Method::verb(NOTIFY, notify),
];

/// The liveness probe's service.
pub const PING_SERVICE: &ServiceName = &ServiceName::constant("syd.ping");
/// The liveness probe proxies use: answers `"pong"`.
pub const PING: Verb<(), Text> = Verb::new(PING_SERVICE, "ping");

/// The liveness probe's service.
static PING_METHODS: &Methods<DeviceInner> =
    &[&Method::verb(PING, |_, _, ()| Ok(Text::from("pong")))];

/// mark(session, entity, change) -> vote
fn mark(
    inner: &DeviceInner,
    _ctx: &InvokeCtx,
    (session, entity, change): (u64, Text, Value),
) -> SydResult<Value> {
    let entity = entity.as_str();
    let (locks, key) = (&inner.lock_rights, entity_lock_key(entity));
    let journal = inner.node.journal();
    let lapsed = |holder| journal.emit(Event::release(holder, entity, "lease"));
    let lease = Some((&**inner.node.runtime().clock(), LOCK_LEASE));
    let mut taken = locks.mark(session, &key, Duration::ZERO, lease, lapsed);
    if taken == fsm::Taken::Busy {
        // Bounded wait, then give up and vote no: contention worth its own
        // span on the serving device.
        let mut wait_span = inner.node.tracer().span(names::SPAN_LOCK_WAIT);
        wait_span.attr("session", session);
        taken = locks.mark(session, &key, MARK_LOCK_WAIT, lease, lapsed);
    }
    if taken == fsm::Taken::Busy {
        // Not a durable refusal: a greedy grab must not commit while
        // another negotiation holds this lock.
        let busy = Event::vote(session, entity, Vote::LockBusy);
        journal.emit(busy);
        return Ok(fsm::Vote::NoLockBusy.wire_reply());
    }
    // A mark delivered again finds its own lock: it votes again, and one
    // commit or abort still frees the entity.
    if taken == fsm::Taken::Fresh {
        journal.emit(Event::lock(session, entity));
    }
    let handler = inner.entity_handler.read().clone();
    let prepared = match handler {
        Some(h) => h.prepare(entity, &change),
        None => Ok(()),
    };
    let vote = fsm::Vote::on_mark(taken, prepared.is_ok());
    let journaled = match prepared {
        Ok(()) => Vote::Yes,
        Err(err) => Vote::Refused(err.to_string()),
    };
    // Journal-before-release, as in commit.
    journal.emit(Event::vote(session, entity, journaled));
    if vote == fsm::Vote::NoPrepare {
        locks.release(session, &key);
    }
    Ok(vote.wire_reply())
}

/// commit(session, entity, change)
fn commit(
    inner: &DeviceInner,
    _ctx: &InvokeCtx,
    (session, entity, change): (u64, Text, Value),
) -> SydResult<()> {
    let entity = entity.as_str();
    let (locks, key) = (&inner.lock_rights, entity_lock_key(entity));
    // A coordinator may be slow, not dead: its commit after its lease
    // lapsed is refused, as the entity may have changed hands since. An
    // admitted commit holds the entity until its release below, however
    // long the handler runs.
    let journal = inner.node.journal();
    let lapsed = |holder| journal.emit(Event::release(holder, entity, "lease"));
    if !locks.commit(session, &key, inner.node.runtime().clock().now(), lapsed) {
        return Err(SydError::App(format!(
            "session {session} expired: its lease on {entity} lapsed"
        )));
    }
    let pinned = Pinned(inner, session, entity, key);
    let handler = inner.entity_handler.read().clone();
    let result = match handler {
        Some(h) => h.commit(entity, change),
        None => Ok(()),
    };
    // Journal before releasing: the next session's `Lock` record must
    // sequence after this `Change`, or the journal would show two holders
    // of one entity.
    journal.emit(Event::commit(session, entity, result.is_ok()));
    drop(pinned);
    result
}

/// abort(session, entity, change)
fn abort(
    inner: &DeviceInner,
    _ctx: &InvokeCtx,
    (session, entity, change): (u64, Text, Value),
) -> SydResult<()> {
    let entity = entity.as_str();
    if let Some(h) = inner.entity_handler.read().clone() {
        h.abort(entity, &change);
    }
    // Journal-before-release, as in commit.
    inner
        .node
        .journal()
        .emit(Event::release(session, entity, "coordinator-abort"));
    (inner.lock_rights).release(session, &entity_lock_key(entity));
    Ok(())
}

/// delete_by_corr(corr, visited) -> deleted count
fn delete_by_corr(
    inner: &DeviceInner,
    _ctx: &InvokeCtx,
    (corr, visited): (Text, Vec<UserId>),
) -> SydResult<u64> {
    let report = inner.links.delete_by_corr(&corr, visited.iter().copied())?;
    Ok(report.deleted.len() as u64)
}

/// notify(entity, action, payload) -> handler result
fn notify(
    inner: &DeviceInner,
    _ctx: &InvokeCtx,
    (entity, action, payload): (Text, Text, Value),
) -> SydResult<Value> {
    inner
        .events
        .publish_local(&format!("link.notify.{action}"), || payload.clone());
    let handler = inner.subscription_handler.read().clone();
    match handler {
        Some(h) => h.on_notify(&entity, &action, &payload),
        None => Ok(Value::Null),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code
mod tests {
    use super::*;
    use crate::directory::DirectoryServer;
    use crate::directory::DESCRIBE;
    use crate::links::{Constraint, LinkSpec};
    use crate::negotiate::link_service;
    use crate::negotiate::Participant;
    use std::collections::HashMap;
    use syd_net::Network;

    fn rig(n: usize) -> (Network, DirectoryServer, Vec<DeviceRuntime>) {
        let net = Network::ideal();
        let dir = DirectoryServer::start(&net);
        let devices = (1..=n as u64)
            .map(|id| {
                DeviceRuntime::new(
                    &net,
                    dir.addr(),
                    UserId::new(id),
                    &format!("user{id}"),
                    None,
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
        fn commit(&self, entity: &str, change: Value) -> SydResult<()> {
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
                let state = Arc::new(Mutex::new(Rank::Leaf, HashMap::new()));
                d.set_entity_handler(Arc::new(MapHandler {
                    state: Arc::clone(&state),
                }));
                state
            })
            .collect()
    }

    /// The link and ping services serve each of their declared verbs
    /// once, and a verb reads its arguments the one way every verb does.
    #[test]
    fn the_kernel_serves_its_verbs_once_and_checks_their_arguments() {
        let (_net, _dir, devices) = rig(2);
        let link = [
            MARK.name,
            COMMIT.name,
            ABORT.name,
            OFFER_LINK.name,
            INSTALL_LINK.name,
            DELETE_BY_CORR.name,
            NOTIFY.name,
        ];
        let mut expected: Vec<(String, String)> = link
            .iter()
            .map(|m| ("syd.link".to_owned(), (*m).to_owned()))
            .chain([("syd.ping".to_owned(), PING.name.to_owned())])
            .collect();
        expected.sort();
        assert_eq!(devices[0].listener().registered(), expected);

        let node = devices[0].node();
        for args in [vec![], vec![Value::I64(1)]] {
            let out = node.call(devices[1].addr(), LINK, OFFER_LINK.name, args.clone());
            assert!(
                matches!(out, Err(SydError::Protocol(_))),
                "{args:?}: {out:?}"
            );
        }
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
        let taken = devices[2]
            .inner
            .lock_rights
            .mark(0xdead, &key, Duration::ZERO, None, |_| {});
        assert_eq!(taken, fsm::Taken::Fresh);
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
        devices[2].inner.lock_rights.release(0xdead, &key);
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
        const LEFT_OUT_VERB: Verb<(), ()> = Verb::new(APP, "left_out");
        static LEFT_OUT: &Methods<Mutex<u32>> =
            &[&Method::verb(LEFT_OUT_VERB, |told: &Mutex<u32>, _, ()| {
                *told.lock() += 1;
                Ok(())
            })];
        let told = Arc::new(Mutex::new(Rank::Leaf, 0u32));
        devices[2].serve(&svc, &told, LEFT_OUT);
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
                changes: chosen.iter().map(|p| Arc::clone(&p.change)).collect(),
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
        let taken = devices[1]
            .inner
            .lock_rights
            .mark(0xdead, &key, Duration::ZERO, None, |_| {});
        assert_eq!(taken, fsm::Taken::Fresh);
        let outcome = devices[0]
            .negotiator()
            .negotiate_available_with(&participants, &phase2)
            .unwrap();
        assert_eq!(outcome.contended, vec![devices[1].user()]);
        assert!(outcome.committed.is_empty() && outcome.rode.is_empty());
        assert_eq!(*told.lock(), 1, "a contended round sent a rider");
    }

    /// One body per distinct `(entity, change)` of a wave changes nothing
    /// on the wire: every mark and commit frame is byte for byte the one a
    /// call built with its own arguments makes. A participant handed a
    /// change of its own — the coordinator's own commit, which no frame
    /// carries, and a fourth device's — gets that change.
    #[test]
    fn shared_wave_bodies_put_per_call_bytes_on_the_wire() {
        use crate::negotiate::Phase2;
        use syd_wire::{decode_from_slice, encode_to_vec, Args, Envelope, Payload};
        let (_net, _dir, devices) = rig(4);
        let states = install_map_handlers(&devices);
        let taps: Vec<_> = devices[1..]
            .iter()
            .map(|d| {
                let (tx, rx) = syd_types::queue::channel();
                d.node().link().set_frame_tap(tx);
                rx
            })
            .collect();
        let mark = Arc::new(Value::str("reserve"));
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "e", Arc::clone(&mark)))
            .collect();
        let wants = ["own", "shared", "shared", "apart"];
        let shared = Arc::new(Value::str("shared"));
        let phase2 = |chosen: &[&Participant]| Phase2 {
            changes: (chosen.iter())
                .map(|p| match wants[p.user.raw() as usize - 1] {
                    "shared" => Arc::clone(&shared),
                    own => Arc::new(Value::str(own)),
                })
                .collect(),
            riders: Vec::new(),
        };
        let outcome = devices[0]
            .negotiator()
            .negotiate_available_with(&participants, &phase2)
            .unwrap();
        assert_eq!(outcome.committed.len(), 4, "{outcome:?}");
        for (state, want) in states.iter().zip(wants) {
            assert_eq!(state.lock().get("e").map(String::as_str), Some(want));
        }
        for (tap, want) in taps.iter().zip(&wants[1..]) {
            let mut methods = Vec::new();
            while let Ok(frame) = tap.try_recv() {
                let envelope: Envelope = decode_from_slice(&frame).unwrap();
                let Payload::Request(request) = &envelope.payload else {
                    continue;
                };
                let change = match request.method.as_str() {
                    "mark" => "reserve",
                    "commit" => want,
                    _ => continue,
                };
                methods.push(request.method.clone());
                let own = vec![
                    Value::from(outcome.session),
                    Value::str("e"),
                    Value::str(change),
                ];
                let mut per_call = request.clone();
                per_call.args = Args::from(own);
                let per_call =
                    Envelope::new(envelope.src, envelope.dst, Payload::Request(per_call));
                assert_eq!(
                    encode_to_vec(&per_call),
                    frame,
                    "{} to {want}",
                    request.method
                );
            }
            assert_eq!(methods, ["mark", "commit"]);
        }
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

    /// An admitted commit pins its lock, and the pin ends with the commit
    /// even when the entity handler unwinds: the entity is freed and the
    /// release journaled, not left locked with no lease end.
    #[test]
    fn a_commit_whose_handler_unwinds_frees_its_entity() {
        struct Unwinds;
        impl EntityHandler for Unwinds {
            fn prepare(&self, _entity: &str, _change: &Value) -> SydResult<()> {
                Ok(())
            }
            fn commit(&self, _entity: &str, _change: Value) -> SydResult<()> {
                panic!("the entity handler unwinds");
            }
            fn abort(&self, _entity: &str, _change: &Value) {}
        }
        let (_net, _dir, devices) = rig(1);
        let device = &devices[0];
        device.set_entity_handler(Arc::new(Unwinds));
        let call = |method: &str| {
            let request = syd_wire::Request {
                id: syd_types::RequestId::new(1),
                caller: device.user(),
                target: UserId::default(),
                credentials: syd_types::Blob::default(),
                service: link_service(),
                method: method.into(),
                args: vec![Value::from(7u64), Value::str("slot:1"), Value::Null].into(),
                trace: None,
            };
            device.inner.listener.dispatch(NodeAddr::new(9), &request)
        };
        assert_eq!(call("mark").unwrap(), Value::Bool(true));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call("commit")));
        assert!(unwound.is_err());
        assert_eq!(device.store().locks().held_count(), 0);
        let released = device.journal().events().into_iter().any(|e| {
            matches!(
                e.event,
                Event::Release {
                    session: 7,
                    reason: "commit-unwound",
                    ..
                }
            )
        });
        assert!(released, "{}", device.journal().dump());
    }

    /// A commit answered with an error is final: the participant released
    /// its entity when it refused, so a commit sent again would apply the
    /// change with nothing locked.
    #[test]
    fn a_commit_answered_with_an_error_is_not_sent_again() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct FailsFirstCommit(AtomicU32);
        impl EntityHandler for FailsFirstCommit {
            fn prepare(&self, _entity: &str, _change: &Value) -> SydResult<()> {
                Ok(())
            }
            fn commit(&self, _entity: &str, _change: Value) -> SydResult<()> {
                match self.0.fetch_add(1, Ordering::SeqCst) {
                    0 => Err(SydError::App("the first commit fails".into())),
                    _ => Ok(()),
                }
            }
            fn abort(&self, _entity: &str, _change: &Value) {}
        }
        let (_net, _dir, devices) = rig(2);
        let handler = Arc::new(FailsFirstCommit(AtomicU32::new(0)));
        devices[1].set_entity_handler(Arc::clone(&handler) as Arc<dyn EntityHandler>);
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "slot:1:9", Value::str("reserved")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_and(&participants)
            .unwrap();
        assert_eq!(handler.0.load(Ordering::SeqCst), 1, "{outcome:?}");
        assert!(!outcome.satisfied, "{outcome:?}");
        assert_eq!(outcome.aborted, vec![devices[1].user()]);
        let failed = devices[0].journal().events().into_iter().any(|e| {
            matches!(
                e.event,
                Event::AbortUser {
                    reason: "commit-failed",
                    ..
                }
            )
        });
        assert!(failed, "{}", devices[0].journal().dump());
        for d in &devices {
            assert_eq!(d.store().locks().held_count(), 0);
        }
    }

    /// A lock-busy vote took no lock: the participant is sent nothing after
    /// its mark, so it journals no release for the session.
    #[test]
    fn a_participant_that_answered_lock_busy_is_sent_no_abort() {
        let (_net, _dir, devices) = rig(3);
        install_map_handlers(&devices);
        let key = entity_lock_key("slot:1:9");
        let taken = devices[2]
            .inner
            .lock_rights
            .mark(0xdead, &key, Duration::ZERO, None, |_| {});
        assert_eq!(taken, fsm::Taken::Fresh);
        let participants: Vec<Participant> = devices
            .iter()
            .map(|d| Participant::new(d.user(), "slot:1:9", Value::str("reserved")))
            .collect();
        let outcome = devices[0]
            .negotiator()
            .negotiate_and(&participants)
            .unwrap();
        assert_eq!(outcome.contended, vec![devices[2].user()]);
        assert_eq!(outcome.aborted.len(), 2, "{outcome:?}");
        let released = |d: &DeviceRuntime| {
            let events = d.journal().events().into_iter();
            events
                .filter(|e| matches!(e.event, Event::Release { session, .. } if session == outcome.session))
                .count()
        };
        assert_eq!(released(&devices[1]), 1, "the yes-voter is aborted");
        assert_eq!(released(&devices[2]), 0, "{}", devices[2].journal().dump());
        assert_eq!(
            devices[2].store().locks().held_count(),
            1,
            "the foreign lock stays"
        );
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
        let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Rank::Leaf, Vec::new()));
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
            serve(d, &svc, REFRESH);
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
        // Record every delete_by_corr a device serves, then serve it: the
        // link service is this one method here.
        type Seen = Mutex<Vec<(UserId, Vec<u64>)>>;
        struct Recorder {
            device: DeviceRuntime,
            seen: Arc<Seen>,
        }
        static RECORDING: &Methods<Recorder> = &[&Method::verb(
            DELETE_BY_CORR,
            |r: &Recorder, ctx, (corr, visited)| {
                let raw = visited.iter().map(|u| u.raw()).collect();
                r.seen.lock().push((r.device.user(), raw));
                delete_by_corr(&r.device.inner, ctx, (corr, visited))
            },
        )];
        let seen = Arc::new(Mutex::new(Rank::Leaf, Vec::<(UserId, Vec<u64>)>::new()));
        let _recorders: Vec<_> = devices
            .iter()
            .map(|d| {
                let device = d.clone();
                let recorder = Arc::new(Recorder {
                    device,
                    seen: Arc::clone(&seen),
                });
                d.serve(&link_service(), &recorder, RECORDING);
                recorder
            })
            .collect();
        let deleted_at_four = Arc::new(Mutex::new(Rank::Leaf, 0));
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

        let promoted: Arc<Mutex<Vec<LinkId>>> = Arc::new(Mutex::new(Rank::Leaf, Vec::new()));
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
        let clock = SimClock::new();
        let net = Network::with_clock(syd_net::NetConfig::ideal(), Arc::new(clock.clone()));
        let dir = DirectoryServer::start(&net);
        let d = DeviceRuntime::new(&net, dir.addr(), UserId::new(1), "u", None).unwrap();
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
        static COUNTED: &Methods<Mutex<u32>> =
            &[&Method::verb(REFRESH_VERB, |hits: &Mutex<u32>, _, ()| {
                *hits.lock() += 1;
                Ok(())
            })];
        let hits = Arc::new(Mutex::new(Rank::Leaf, 0u32));
        devices[1].serve(&svc, &hits, COUNTED);
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

    fn served(dir: &DirectoryServer) -> u64 {
        dir.metrics()
            .get_counter(names::RPC_REQUESTS_SERVED)
            .map_or(0, |c| c.get())
    }

    fn publish_failures(device: &DeviceRuntime) -> u64 {
        device
            .metrics()
            .get_counter(names::DIR_PUBLISH_FAILURES)
            .map_or(0, |c| c.get())
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "waited 5 s for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn in_flight(device: &DeviceRuntime) -> usize {
        let services = device.inner.services.lock();
        services
            .iter()
            .filter(|(_, state)| *state == Published::InFlight)
            .count()
    }

    /// Serves `service` with `table`, from the device's own state.
    fn serve(device: &DeviceRuntime, service: &ServiceName, table: &'static Methods<DeviceInner>) {
        device.serve(service, &device.inner, table);
    }

    const APP: &ServiceName = &ServiceName::constant("app");
    const REFRESH_VERB: Verb<(), ()> = Verb::new(APP, "refresh");
    const ONE: Verb<(), i64> = Verb::new(APP, "one");
    const TWO: Verb<(), i64> = Verb::new(APP, "two");
    const THREE: Verb<(), i64> = Verb::new(APP, "three");
    const X: Verb<(), i64> = Verb::new(APP, "x");
    static REFRESH: &Methods<DeviceInner> = &[&Method::verb(REFRESH_VERB, |_, _, ()| Ok(()))];
    static ONE_TABLE: &Methods<DeviceInner> = &[&Method::verb(ONE, |_, _, ()| Ok(1))];
    static ONE_TWO: &Methods<DeviceInner> = &[
        &Method::verb(ONE, |_, _, ()| Ok(1)),
        &Method::verb(TWO, |_, _, ()| Ok(2)),
    ];
    static ONE_TWO_THREE: &Methods<DeviceInner> = &[
        &Method::verb(ONE, |_, _, ()| Ok(1)),
        &Method::verb(TWO, |_, _, ()| Ok(2)),
        &Method::verb(THREE, |_, _, ()| Ok(4)),
    ];

    #[test]
    fn a_failed_publish_is_sent_again_by_the_next_publish() {
        let (net, dir, devices) = rig(2);
        let device = &devices[0];
        let (app, other) = (ServiceName::new("app"), ServiceName::new("other"));
        let kernel_methods = device.listener().registered().len();

        // Registration is local; one publish sends the service once.
        let before = served(&dir);
        serve(device, &app, ONE_TWO);
        assert_eq!(served(&dir), before);
        assert_eq!(device.unpublished(), std::slice::from_ref(&app));
        device.publish().unwrap();
        wait_for("the acknowledgement", || device.unpublished().is_empty());
        assert_eq!(served(&dir), before + 1);

        // The directory is out of range: the wave fails in the background,
        // and the new methods are served locally all the same.
        static X_TABLE: &Methods<DeviceInner> = &[&Method::verb(X, |_, _, ()| Ok(3))];
        serve(device, &other, X_TABLE);
        serve(device, &app, ONE_TWO_THREE);
        net.set_connected(dir.addr(), false);
        device.publish().unwrap();
        wait_for("the failure", || publish_failures(device) == 1);
        assert_eq!(device.unpublished(), std::slice::from_ref(&other));
        assert_eq!(served(&dir), before + 1);
        assert_eq!(device.listener().registered().len(), kernel_methods + 4);
        let journaled = device.journal().dump();
        assert!(journaled.contains("publish of other failed"), "{journaled}");

        // Back in range: the next publish sends only what was not
        // acknowledged, and the one after that has nothing left to send.
        net.set_connected(dir.addr(), true);
        device.publish().unwrap();
        wait_for("the acknowledgement", || device.unpublished().is_empty());
        assert_eq!(served(&dir), before + 2);
        device.publish().unwrap();
        assert_eq!(in_flight(device), 0);
        assert_eq!(served(&dir), before + 2);
        assert_eq!(publish_failures(device), 1);

        let rec = device
            .engine()
            .directory()
            .call(DESCRIBE, (device.user(),))
            .unwrap();
        assert_eq!(rec.services, vec!["app", "other"]);
        let out = devices[1]
            .engine()
            .invoke(device.user(), &other, "x", vec![]);
        assert_eq!(out.unwrap(), Value::I64(3));
    }

    #[test]
    fn a_device_shut_down_mid_publish_ends_its_wave_at_once() {
        let (net, dir, mut devices) = rig(1);
        let device = devices.pop().unwrap();
        // Nothing crosses: each of the wave's sends would wait out a 2 s
        // deadline.
        net.set_partitioned(device.addr(), dir.addr(), true);
        serve(&device, &ServiceName::new("app"), ONE_TABLE);
        let frames_out = net.metrics().counter(names::TRANSPORT_FRAMES_OUT);
        let (started, sent) = (std::time::Instant::now(), frames_out.get());
        device.publish().unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "{:?}",
            started.elapsed()
        );
        wait_for("the send", || frames_out.get() > sent);
        assert_eq!(in_flight(&device), 1);

        let stopped = std::time::Instant::now();
        device.shutdown();
        wait_for("the wave", || publish_failures(&device) == 1);
        assert!(
            stopped.elapsed() < Duration::from_millis(250),
            "{:?}",
            stopped.elapsed()
        );
        assert_eq!(in_flight(&device), 0);
        assert_eq!(device.unpublished(), [ServiceName::new("app")]);
        let journaled = device.journal().dump();
        assert!(
            journaled.contains(&SydError::Shutdown.to_string()),
            "{journaled}"
        );
        assert_eq!(device.publish(), Err(SydError::Shutdown));

        // The job held the device weakly and has ended: nothing else holds it.
        let weak = Arc::downgrade(&device.inner);
        drop(device);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn concurrent_publishes_send_each_service_once() {
        let (_net, dir, devices) = rig(1);
        let device = &devices[0];
        let before = served(&dir);
        let shared = ServiceName::new("shared");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for i in 0..4 {
                let (shared, start) = (&shared, &start);
                s.spawn(move || {
                    let own = ServiceName::new(format!("own{i}"));
                    for _ in 0..3 {
                        serve(device, shared, ONE_TABLE);
                        serve(device, &own, ONE_TABLE);
                        start.wait();
                        device.publish().unwrap();
                    }
                });
            }
        });
        wait_for("the acknowledgements", || device.unpublished().is_empty());
        assert_eq!(
            served(&dir) - before,
            5,
            "four own services and the shared one"
        );
        let rec = device
            .engine()
            .directory()
            .call(DESCRIBE, (device.user(),))
            .unwrap();
        assert_eq!(rec.services, ["own0", "own1", "own2", "own3", "shared"]);
    }

    #[test]
    fn a_device_that_installs_out_of_range_publishes_when_it_reconnects() {
        let (net, dir, devices) = rig(1);
        let device = &devices[0];
        net.set_connected(dir.addr(), false);
        serve(device, &ServiceName::new("app"), ONE_TABLE);
        device.publish().unwrap();
        wait_for("the failure", || publish_failures(device) == 1);

        net.set_connected(dir.addr(), true);
        device.reconnect().unwrap();
        wait_for("the acknowledgement", || device.unpublished().is_empty());
        let rec = device
            .engine()
            .directory()
            .call(DESCRIBE, (device.user(),))
            .unwrap();
        assert_eq!(rec.services, ["app"]);
    }

    /// A peer that resolves a new user at once reaches its kernel methods:
    /// the directory here calls the device before it answers `register`.
    #[test]
    fn a_device_serves_before_it_can_be_found() {
        let net = Network::ideal();
        let (dir, peer) = (Node::spawn(&net), Node::spawn(&net));
        let answered = Arc::new(Mutex::new(Rank::Leaf, Vec::new()));
        let seen = Arc::clone(&answered);
        dir.set_handler(Arc::new(
            move |from: NodeAddr, request: syd_wire::Request| -> SydResult<Value> {
                if request.method == "register" {
                    let ping = peer.call(from, &ServiceName::new("syd.ping"), "ping", vec![]);
                    seen.lock().push(ping);
                }
                Ok(Value::Null)
            },
        ));
        let device = DeviceRuntime::new(&net, dir.addr(), UserId::new(1), "phil", None);
        assert!(device.is_ok());
        assert_eq!(*answered.lock(), [Ok(Value::str("pong"))]);
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
