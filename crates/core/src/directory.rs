//! SyDDirectory: the name server (§3.1a, §5.2).
//!
//! The directory provides "user/group/service publishing, management, and
//! lookup services … also supports intelligent proxy maintenance for
//! users/devices". It runs as an ordinary SyD node whose [`Listener`]
//! serves one more method table, `syd.dir`, with no authenticator; every
//! other module reaches it through [`DirectoryClient`], and only the
//! engine resolves users to addresses.
//!
//! Proxy-aware lookup is the heart of §5.2: while a user's device is
//! connected, `lookup_many` returns the device address; when it is
//! disconnected and a proxy is registered, it transparently returns the
//! proxy address, so "the proxy and the SyD object act as a single entity
//! for an outsider".

use std::collections::HashMap;
use std::sync::Arc;

use syd_net::{Body, Call, CallOptions, Network, Node, Transport, Verb};
use syd_telemetry::names;
use syd_telemetry::{Counter, Registry};
use syd_types::sync::{Rank, RwLock};
use syd_types::{GroupId, NodeAddr, ServiceName, SydError, SydResult, Text, UserId, Value};
use syd_wire::{read_owned, AsValue, Params, Reader};

use crate::listener::{InvokeCtx, Listener, Method, Methods};

/// The directory's service.
pub const DIR: &ServiceName = &ServiceName::constant("syd.dir");

/// Registers a user's device address under a unique name.
pub const REGISTER: Verb<(UserId, Text, NodeAddr), ()> = Verb::new(DIR, "register");
/// Publishes a service name under a user (a set insert).
pub const PUBLISH: Verb<(UserId, Text), ()> = Verb::new(DIR, "publish");
/// Resolves a whole group of users in one round trip, aligned with the
/// input: `(address, is_proxy)`, or `None` for a user the directory does
/// not know (the batch itself still succeeds).
pub const LOOKUP_MANY: Verb<(Vec<UserId>,), Vec<Resolved>> = Verb::new(DIR, "lookup_many");
/// A user's address and whether it is its proxy's; `None` for a user the
/// directory does not know.
pub type Resolved = Option<(NodeAddr, bool)>;
/// A user name's user id.
pub const LOOKUP_NAME: Verb<(Text,), UserId> = Verb::new(DIR, "lookup_name");
/// Everything the directory knows about a user.
pub const DESCRIBE: Verb<(UserId,), UserRecord> = Verb::new(DIR, "describe");
/// Marks a user's device (dis)connected.
pub const SET_CONNECTED: Verb<(UserId, bool), ()> = Verb::new(DIR, "set_connected");
/// Registers a proxy address for a user.
pub const REGISTER_PROXY: Verb<(UserId, NodeAddr), ()> = Verb::new(DIR, "register_proxy");
/// Removes a user's proxy registration.
pub const CLEAR_PROXY: Verb<(UserId,), ()> = Verb::new(DIR, "clear_proxy");
/// Creates a named group.
pub const CREATE_GROUP: Verb<(Text,), GroupId> = Verb::new(DIR, "create_group");
/// Adds a user to a group.
pub const GROUP_ADD: Verb<(GroupId, UserId), ()> = Verb::new(DIR, "group_add");
/// Removes a user from a group.
pub const GROUP_REMOVE: Verb<(GroupId, UserId), ()> = Verb::new(DIR, "group_remove");
/// A group's members.
pub const GROUP_MEMBERS: Verb<(GroupId,), Vec<UserId>> = Verb::new(DIR, "group_members");
/// A group's id by name.
pub const GROUP_BY_NAME: Verb<(Text,), GroupId> = Verb::new(DIR, "group_by_name");

/// Everything the directory knows about one user/device.
#[derive(Clone, Debug, PartialEq)]
pub struct UserRecord {
    /// The user.
    pub user: UserId,
    /// Human-readable name ("phil").
    pub name: String,
    /// Device address.
    pub addr: NodeAddr,
    /// Registered proxy address, if any.
    pub proxy: Option<NodeAddr>,
    /// Whether the primary device is currently connected.
    pub connected: bool,
    /// Services this user has published, sorted.
    pub services: Vec<String>,
}

/// A record travels as the tuple of its fields.
type RecordFields = (
    UserId,
    String,
    NodeAddr,
    Option<NodeAddr>,
    bool,
    Vec<String>,
);

impl AsValue for UserRecord {
    type View<'a> = UserRecord;

    fn view(r: &mut Reader<'_>) -> SydResult<UserRecord> {
        read_owned(r)
    }

    fn from_value(value: Value) -> SydResult<UserRecord> {
        let (user, name, addr, proxy, connected, services) = RecordFields::from_value(value)?;
        Ok(UserRecord {
            user,
            name,
            addr,
            proxy,
            connected,
            services,
        })
    }

    fn into_value(self) -> Value {
        let UserRecord {
            user,
            name,
            addr,
            proxy,
            connected,
            services,
        } = self;
        (user, name, addr, proxy, connected, services).into_value()
    }
}

/// A dynamic group (§2: "formation and maintenance of dynamic groups").
#[derive(Clone, Debug, PartialEq)]
pub struct GroupInfo {
    /// Group id.
    pub id: GroupId,
    /// Group name ("biology-faculty").
    pub name: String,
    /// Current members.
    pub members: Vec<UserId>,
}

#[derive(Default)]
struct DirState {
    users: HashMap<UserId, UserRecord>,
    by_name: HashMap<String, UserId>,
    groups: HashMap<GroupId, GroupInfo>,
    group_by_name: HashMap<String, GroupId>,
    next_group: u64,
}

impl DirState {
    fn user_mut(&mut self, user: UserId) -> SydResult<&mut UserRecord> {
        self.users
            .get_mut(&user)
            .ok_or_else(|| SydError::NotRegistered(user.to_string()))
    }
}

/// The `syd.dir` service's state: the records and the preregistered
/// counters of the lookup paths. The counters count *served requests*, so
/// a benchmark can verify "a cold group invoke over n members costs one
/// directory round trip" from the server's own telemetry rather than from
/// wall clock.
struct Directory {
    state: RwLock<DirState>,
    /// `dir.lookups`: single-entity reads served (`lookup_name`,
    /// `describe`).
    lookups: Counter,
    /// `dir.batch_lookups`: `lookup_many` requests served.
    batch_lookups: Counter,
    /// `dir.batch_lookup_users`: users resolved across all `lookup_many`
    /// requests (batching efficiency = users / requests).
    batch_lookup_users: Counter,
}

/// The directory server: the node serving `syd.dir` and the state its
/// listener answers from.
pub struct DirectoryServer {
    node: Node,
    dir: Arc<Directory>,
}

impl DirectoryServer {
    /// Starts a directory on the simulated `net`. Infallible convenience
    /// for the single-process case; see [`DirectoryServer::start_on`].
    pub fn start(net: &Network) -> DirectoryServer {
        #[allow(clippy::expect_used)] // sim listen allocates an address; it cannot fail
        Self::start_on(net).expect("simulated transport cannot fail to listen")
    }

    /// Starts a directory on any transport backend (simulated or TCP).
    pub fn start_on(transport: &dyn Transport) -> SydResult<DirectoryServer> {
        let node = Node::spawn_on(transport)?;
        let registry = node.metrics();
        let dir = Arc::new(Directory {
            state: RwLock::new(Rank::Engine, DirState::default()),
            lookups: registry.counter(names::DIR_LOOKUPS),
            batch_lookups: registry.counter(names::DIR_BATCH_LOOKUPS),
            batch_lookup_users: registry.counter(names::DIR_BATCH_LOOKUP_USERS),
        });
        let listener = Listener::new(None, registry);
        listener.serve(DIR, &dir, DIR_METHODS);
        node.set_handler(Arc::new(listener));
        Ok(DirectoryServer { node, dir })
    }

    /// Address other nodes use to reach the directory.
    pub fn addr(&self) -> NodeAddr {
        self.node.addr()
    }

    /// Number of registered users (diagnostics).
    pub fn user_count(&self) -> usize {
        self.dir.state.read().users.len()
    }

    /// The directory node's metrics registry (`dir.lookups`,
    /// `dir.batch_lookups`, `dir.batch_lookup_users`, plus the node's
    /// own RPC metrics).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.node.metrics()
    }
}

/// The `syd.dir` service.
static DIR_METHODS: &Methods<Directory> = &[
    &Method::verb(REGISTER, register),
    &Method::verb(PUBLISH, publish),
    &Method::verb(LOOKUP_MANY, lookup_many),
    &Method::verb(LOOKUP_NAME, |dir: &Directory, _, (name,)| {
        dir.lookups.inc();
        let s = dir.state.read();
        let user = s.by_name.get(name.as_str()).copied();
        user.ok_or_else(|| SydError::NotRegistered(name.to_string()))
    }),
    &Method::verb(DESCRIBE, |dir: &Directory, _, (user,)| {
        dir.lookups.inc();
        let s = dir.state.read();
        let rec = s.users.get(&user).cloned();
        rec.ok_or_else(|| SydError::NotRegistered(user.to_string()))
    }),
    &Method::verb(SET_CONNECTED, |dir: &Directory, _, (user, connected)| {
        dir.state.write().user_mut(user)?.connected = connected;
        Ok(())
    }),
    &Method::verb(REGISTER_PROXY, |dir: &Directory, _, (user, proxy)| {
        dir.state.write().user_mut(user)?.proxy = Some(proxy);
        Ok(())
    }),
    &Method::verb(CLEAR_PROXY, |dir: &Directory, _, (user,)| {
        dir.state.write().user_mut(user)?.proxy = None;
        Ok(())
    }),
    &Method::verb(CREATE_GROUP, create_group),
    &Method::verb(GROUP_ADD, |dir, _, (group, user)| {
        group_member(dir, group, user, true)
    }),
    &Method::verb(GROUP_REMOVE, |dir, _, (group, user)| {
        group_member(dir, group, user, false)
    }),
    &Method::verb(GROUP_MEMBERS, |dir: &Directory, _, (group,)| {
        let s = dir.state.read();
        let info = s.groups.get(&group);
        let info = info.ok_or_else(|| SydError::NotRegistered(group.to_string()))?;
        Ok(info.members.clone())
    }),
    &Method::verb(GROUP_BY_NAME, |dir: &Directory, _, (name,)| {
        let s = dir.state.read();
        let group = s.group_by_name.get(name.as_str()).copied();
        group.ok_or_else(|| SydError::NotRegistered(name.to_string()))
    }),
];

fn register(
    dir: &Directory,
    _ctx: &InvokeCtx,
    (user, name, addr): (UserId, Text, NodeAddr),
) -> SydResult<()> {
    let name = name.to_string();
    let mut s = dir.state.write();
    if let Some(&existing) = s.by_name.get(&name) {
        if existing != user {
            return Err(SydError::App(format!("name `{name}` is taken")));
        }
    }
    s.by_name.insert(name.clone(), user);
    let old = s.users.remove(&user);
    if let Some(old) = old.as_ref().filter(|old| old.name != name) {
        s.by_name.remove(&old.name);
    }
    // The client sends `register` at least once: a repeat from the
    // same address is a late duplicate and must not undo what the
    // device has published since. A new address is a new device.
    let rec = match old.filter(|old| old.addr == addr) {
        Some(old) => UserRecord { name, ..old },
        None => UserRecord {
            user,
            name,
            addr,
            proxy: None,
            connected: true,
            services: Vec::new(),
        },
    };
    s.users.insert(user, rec);
    Ok(())
}

fn publish(dir: &Directory, _ctx: &InvokeCtx, (user, service): (UserId, Text)) -> SydResult<()> {
    let mut s = dir.state.write();
    let rec = s.user_mut(user)?;
    // Kept sorted: the publishes of one wave arrive in any order.
    if let Err(at) = rec.services.binary_search_by(|s| s.as_str().cmp(&service)) {
        rec.services.insert(at, service.to_string());
    }
    Ok(())
}

/// One round trip resolves a whole group. An unregistered user yields
/// `None` in its slot instead of failing the batch, so one unknown member
/// can never poison its siblings' resolutions.
fn lookup_many(
    dir: &Directory,
    _ctx: &InvokeCtx,
    (users,): (Vec<UserId>,),
) -> SydResult<Vec<Resolved>> {
    dir.batch_lookups.inc();
    dir.batch_lookup_users.add(users.len() as u64);
    let s = dir.state.read();
    let entries = users.iter().map(|user| {
        // Proxy-aware resolution (§5.2): connected → device address,
        // disconnected with a proxy → proxy address, otherwise the device
        // address as-is (the caller will observe the disconnect).
        s.users.get(user).map(|rec| match rec.proxy {
            Some(proxy) if !rec.connected => (proxy, true),
            _ => (rec.addr, false),
        })
    });
    Ok(entries.collect())
}

fn create_group(dir: &Directory, _ctx: &InvokeCtx, (name,): (Text,)) -> SydResult<GroupId> {
    let name = name.to_string();
    let mut s = dir.state.write();
    if s.group_by_name.contains_key(&name) {
        return Err(SydError::App(format!("group `{name}` already exists")));
    }
    s.next_group += 1;
    let id = GroupId::new(s.next_group);
    s.group_by_name.insert(name.clone(), id);
    s.groups.insert(
        id,
        GroupInfo {
            id,
            name,
            members: Vec::new(),
        },
    );
    Ok(id)
}

/// group_add / group_remove
fn group_member(dir: &Directory, group: GroupId, user: UserId, add: bool) -> SydResult<()> {
    let mut s = dir.state.write();
    if !s.users.contains_key(&user) {
        return Err(SydError::NotRegistered(user.to_string()));
    }
    let info = s
        .groups
        .get_mut(&group)
        .ok_or_else(|| SydError::NotRegistered(group.to_string()))?;
    if !add {
        info.members.retain(|&m| m != user);
    } else if !info.members.contains(&user) {
        info.members.push(user);
    }
    Ok(())
}

/// The options of the directory's own calls: its operations are
/// idempotent, so retrying through loss is safe — the prototype's TCP
/// transport retransmitted transparently.
pub const DIR_CALLS: CallOptions = CallOptions::new().with_retries(4);

/// A client of the `syd.dir` service: its verbs are the `const`s above.
#[derive(Clone)]
pub struct DirectoryClient {
    node: Node,
    dir_addr: NodeAddr,
}

impl DirectoryClient {
    /// Builds a client that calls the directory at `dir_addr` from `node`.
    pub fn new(node: Node, dir_addr: NodeAddr) -> Self {
        DirectoryClient { node, dir_addr }
    }

    /// The directory's network address.
    pub fn dir_addr(&self) -> NodeAddr {
        self.dir_addr
    }

    /// Calls `verb` at the directory with [`DIR_CALLS`].
    pub fn call<A: Params, R: AsValue>(
        &self,
        verb: Verb<A, R>,
        args: impl Into<Body<A>>,
    ) -> SydResult<R> {
        self.call_with(verb, args, DIR_CALLS)
    }

    /// Calls `verb` at the directory with `opts`: the engine resolves with
    /// its own (typically much shorter) deadline so that a lossy batch
    /// fails over quickly.
    pub fn call_with<A: Params, R: AsValue>(
        &self,
        verb: Verb<A, R>,
        args: impl Into<Body<A>>,
        opts: CallOptions,
    ) -> SydResult<R> {
        let (service, method) = (verb.service, verb.name);
        let reply = (self.node).call_with(self.dir_addr, service, method, args.into(), opts);
        verb.reply(reply)
    }

    /// Calls `verb` once per element of `args`, every request in one wave:
    /// none waits for another. The results are aligned with `args`.
    pub fn call_each<A: Params, R: AsValue>(
        &self,
        verb: Verb<A, R>,
        args: impl IntoIterator<Item = A>,
    ) -> Vec<SydResult<R>> {
        let calls: Vec<Call<'_>> = args
            .into_iter()
            .map(|args| Call::verb(UserId::default(), verb, args))
            .collect();
        let dir_addr = self.dir_addr;
        let results = self.node.call_many(&calls, DIR_CALLS, &mut |idx| {
            idx.iter().map(|_| Ok(dir_addr)).collect()
        });
        results
            .into_iter()
            .map(|result| verb.reply(result))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_net::Network;

    fn publish(client: &DirectoryClient, user: UserId, services: &[&str]) {
        let services = services.iter().map(|&s| (user, Text::from(s)));
        for result in client.call_each(PUBLISH, services) {
            result.unwrap();
        }
    }

    fn setup() -> (Network, DirectoryServer, DirectoryClient) {
        let net = Network::ideal();
        let dir = DirectoryServer::start(&net);
        let client_node = Node::spawn(&net);
        let client = DirectoryClient::new(client_node, dir.addr());
        (net, dir, client)
    }

    #[test]
    fn register_lookup_describe() {
        let (_net, dir, client) = setup();
        let phil = UserId::new(1);
        let addr = NodeAddr::new(77);
        client.call(REGISTER, (phil, "phil".into(), addr)).unwrap();
        assert_eq!(dir.user_count(), 1);
        assert_eq!(
            client.call(LOOKUP_MANY, (vec![phil],)).unwrap(),
            [Some((addr, false))]
        );
        assert_eq!(client.call(LOOKUP_NAME, ("phil".into(),)).unwrap(), phil);
        let rec = client.call(DESCRIBE, (phil,)).unwrap();
        assert_eq!(rec.name, "phil");
        assert!(rec.connected);
        assert!(rec.proxy.is_none());
        // The two single-entity reads count as lookups; a batch does not.
        let lookups = dir.metrics().get_counter(names::DIR_LOOKUPS).unwrap();
        assert_eq!(lookups.get(), 2);
    }

    #[test]
    fn duplicate_name_rejected() {
        let (_net, _dir, client) = setup();
        client
            .call(REGISTER, (UserId::new(1), "phil".into(), NodeAddr::new(1)))
            .unwrap();
        let err = client
            .call(REGISTER, (UserId::new(2), "phil".into(), NodeAddr::new(2)))
            .unwrap_err();
        assert!(err.to_string().contains("taken"), "{err}");
        // Re-registering the same user under the same name is fine
        // (device rebooted with a new address).
        client
            .call(REGISTER, (UserId::new(1), "phil".into(), NodeAddr::new(9)))
            .unwrap();
        let found = client.call(LOOKUP_MANY, (vec![UserId::new(1)],)).unwrap();
        assert_eq!(found, [Some((NodeAddr::new(9), false))]);
    }

    #[test]
    fn a_duplicate_register_keeps_what_was_published() {
        let (_net, _dir, client) = setup();
        let (user, addr, proxy) = (UserId::new(1), NodeAddr::new(1), NodeAddr::new(20));
        client.call(REGISTER, (user, "phil".into(), addr)).unwrap();
        publish(&client, user, &["calendar"]);
        client.call(REGISTER_PROXY, (user, proxy)).unwrap();
        client.call(SET_CONNECTED, (user, false)).unwrap();
        let before = client.call(DESCRIBE, (user,)).unwrap();

        // The join's own `register`, resent and landing late.
        client.call(REGISTER, (user, "phil".into(), addr)).unwrap();
        assert_eq!(client.call(DESCRIBE, (user,)).unwrap(), before);
        assert_eq!(before.services, vec!["calendar"]);
        assert_eq!((before.proxy, before.connected), (Some(proxy), false));
    }

    #[test]
    fn renaming_a_user_releases_the_old_name() {
        let (_net, _dir, client) = setup();
        let (phil, suzy) = (UserId::new(1), UserId::new(2));
        client
            .call(REGISTER, (phil, "phil".into(), NodeAddr::new(1)))
            .unwrap();
        publish(&client, phil, &["calendar"]);
        client
            .call(REGISTER, (suzy, "suzy".into(), NodeAddr::new(2)))
            .unwrap();

        // A name held by another user stays refused, and changes nothing.
        let err = client
            .call(REGISTER, (phil, "suzy".into(), NodeAddr::new(1)))
            .unwrap_err();
        assert!(err.to_string().contains("taken"), "{err}");
        assert_eq!(client.call(LOOKUP_NAME, ("phil".into(),)).unwrap(), phil);

        client
            .call(REGISTER, (phil, "philip".into(), NodeAddr::new(1)))
            .unwrap();
        assert_eq!(client.call(LOOKUP_NAME, ("philip".into(),)).unwrap(), phil);
        assert!(
            client.call(LOOKUP_NAME, ("phil".into(),)).is_err(),
            "old name released"
        );
        let rec = client.call(DESCRIBE, (phil,)).unwrap();
        assert_eq!(
            (rec.name.as_str(), rec.services),
            ("philip", vec!["calendar".to_owned()])
        );
        // The released name is free for someone else.
        client
            .call(REGISTER, (UserId::new(3), "phil".into(), NodeAddr::new(3)))
            .unwrap();
    }

    #[test]
    fn unknown_user_lookup_fails() {
        let (_net, _dir, client) = setup();
        // An unknown user is a hole in the batch; an unknown name errs.
        assert_eq!(
            client.call(LOOKUP_MANY, (vec![UserId::new(404)],)).unwrap(),
            [None]
        );
        assert!(matches!(
            client.call(LOOKUP_NAME, ("ghost".into(),)).unwrap_err(),
            SydError::NotRegistered(_)
        ));
    }

    #[test]
    fn proxy_lookup_switchover() {
        let (_net, _dir, client) = setup();
        let user = UserId::new(3);
        let primary = NodeAddr::new(10);
        let proxy = NodeAddr::new(20);
        client
            .call(REGISTER, (user, "suzy".into(), primary))
            .unwrap();
        client.call(REGISTER_PROXY, (user, proxy)).unwrap();
        let lookup = || client.call(LOOKUP_MANY, (vec![user],)).unwrap()[0];

        // Connected: primary wins.
        assert_eq!(lookup(), Some((primary, false)));
        // Disconnected: proxy takes over.
        client.call(SET_CONNECTED, (user, false)).unwrap();
        assert_eq!(lookup(), Some((proxy, true)));
        // Reconnected: primary again.
        client.call(SET_CONNECTED, (user, true)).unwrap();
        assert_eq!(lookup(), Some((primary, false)));
        // Disconnected with no proxy: primary address returned as-is.
        client.call(CLEAR_PROXY, (user,)).unwrap();
        client.call(SET_CONNECTED, (user, false)).unwrap();
        assert_eq!(lookup(), Some((primary, false)));
    }

    #[test]
    fn service_publication_is_recorded() {
        let (_net, dir, client) = setup();
        let dir_requests = |dir: &DirectoryServer| {
            dir.metrics()
                .get_counter(names::RPC_REQUESTS_SERVED)
                .map_or(0, |c| c.get())
        };
        let user = UserId::new(1);
        client
            .call(REGISTER, (user, "phil".into(), NodeAddr::new(1)))
            .unwrap();
        publish(&client, user, &["mailbox"]);
        // Idempotent.
        publish(&client, user, &["mailbox"]);
        // One wave: served in any order, recorded sorted.
        publish(&client, user, &["fleet", "calendar", "mailbox"]);
        let rec = client.call(DESCRIBE, (user,)).unwrap();
        assert_eq!(rec.services, vec!["calendar", "fleet", "mailbox"]);
        // A wave is one request per service, and nothing for no service.
        let served = dir_requests(&dir);
        publish(&client, user, &[]);
        assert_eq!(dir_requests(&dir), served);
        publish(&client, user, &["a", "b"]);
        assert_eq!(dir_requests(&dir), served + 2);
    }

    #[test]
    fn groups_form_and_change_dynamically() {
        let (_net, _dir, client) = setup();
        for (id, name) in [(1, "ann"), (2, "bob"), (3, "cal")] {
            client
                .call(
                    REGISTER,
                    (UserId::new(id), Text::from(name), NodeAddr::new(id)),
                )
                .unwrap();
        }
        let biology = client.call(CREATE_GROUP, ("biology".into(),)).unwrap();
        assert_eq!(
            client.call(GROUP_BY_NAME, ("biology".into(),)).unwrap(),
            biology
        );
        assert!(client.call(CREATE_GROUP, ("biology".into(),)).is_err());

        client.call(GROUP_ADD, (biology, UserId::new(1))).unwrap();
        client.call(GROUP_ADD, (biology, UserId::new(2))).unwrap();
        client.call(GROUP_ADD, (biology, UserId::new(2))).unwrap(); // idempotent
        assert_eq!(
            client.call(GROUP_MEMBERS, (biology,)).unwrap(),
            vec![UserId::new(1), UserId::new(2)]
        );

        client
            .call(GROUP_REMOVE, (biology, UserId::new(1)))
            .unwrap();
        assert_eq!(
            client.call(GROUP_MEMBERS, (biology,)).unwrap(),
            vec![UserId::new(2)]
        );

        // Unknown users can't join.
        assert!(client.call(GROUP_ADD, (biology, UserId::new(99))).is_err());
    }

    #[test]
    fn lookup_many_resolves_a_group_in_one_round_trip() {
        let (_net, dir, client) = setup();
        for (id, name) in [(1, "ann"), (2, "bob"), (3, "cal")] {
            client
                .call(
                    REGISTER,
                    (UserId::new(id), Text::from(name), NodeAddr::new(id)),
                )
                .unwrap();
        }
        // Bob is disconnected behind a proxy; 404 is unknown.
        client
            .call(REGISTER_PROXY, (UserId::new(2), NodeAddr::new(20)))
            .unwrap();
        client.call(SET_CONNECTED, (UserId::new(2), false)).unwrap();

        let users = [
            UserId::new(1),
            UserId::new(404),
            UserId::new(2),
            UserId::new(3),
        ];
        let got = client.call(LOOKUP_MANY, (users.to_vec(),)).unwrap();
        assert_eq!(
            got,
            vec![
                Some((NodeAddr::new(1), false)),
                None, // unknown user: a hole, not a batch failure
                Some((NodeAddr::new(20), true)),
                Some((NodeAddr::new(3), false)),
            ]
        );
        // The whole batch was one served request, and the per-user
        // counter confirms all four rode in it.
        assert_eq!(
            dir.metrics()
                .get_counter(names::DIR_BATCH_LOOKUPS)
                .unwrap()
                .get(),
            1
        );
        assert_eq!(
            dir.metrics()
                .get_counter(names::DIR_BATCH_LOOKUP_USERS)
                .unwrap()
                .get(),
            4
        );
        assert_eq!(
            dir.metrics().get_counter(names::DIR_LOOKUPS).unwrap().get(),
            0
        );
    }

    #[test]
    fn lookup_many_of_nothing_is_empty() {
        let (_net, _dir, client) = setup();
        assert_eq!(client.call(LOOKUP_MANY, (vec![],)).unwrap(), vec![]);
    }

    /// `syd.dir` serves each of its declared verbs once, and a verb reads
    /// its arguments the one way every verb does.
    #[test]
    fn the_directory_serves_its_verbs_once_and_checks_their_arguments() {
        let registry = Registry::new();
        let dir = Arc::new(Directory {
            state: RwLock::new(Rank::Engine, DirState::default()),
            lookups: registry.counter(names::DIR_LOOKUPS),
            batch_lookups: registry.counter(names::DIR_BATCH_LOOKUPS),
            batch_lookup_users: registry.counter(names::DIR_BATCH_LOOKUP_USERS),
        });
        let listener = Listener::new(None, &registry);
        listener.serve(DIR, &dir, DIR_METHODS);
        let mut declared = [
            REGISTER.name,
            PUBLISH.name,
            LOOKUP_MANY.name,
            LOOKUP_NAME.name,
            DESCRIBE.name,
            SET_CONNECTED.name,
            REGISTER_PROXY.name,
            CLEAR_PROXY.name,
            CREATE_GROUP.name,
            GROUP_ADD.name,
            GROUP_REMOVE.name,
            GROUP_MEMBERS.name,
            GROUP_BY_NAME.name,
        ];
        declared.sort_unstable();
        let served: Vec<(String, String)> = listener.registered();
        let expected: Vec<(String, String)> = declared
            .iter()
            .map(|m| ("syd.dir".to_owned(), (*m).to_owned()))
            .collect();
        assert_eq!(served, expected, "each declared verb, once");

        let (net, server, _client) = setup();
        let node = Node::spawn(&net);
        for args in [vec![], vec![Value::I64(1)]] {
            let out = node.call(server.addr(), DIR, LOOKUP_NAME.name, args.clone());
            assert!(
                matches!(out, Err(SydError::Protocol(_))),
                "{args:?}: {out:?}"
            );
        }
    }

    #[test]
    fn unknown_method_is_no_such_service() {
        let (net, dir, _client) = setup();
        let node = Node::spawn(&net);
        let err = node
            .call(dir.addr(), DIR, "frobnicate", vec![])
            .unwrap_err();
        assert!(matches!(err, SydError::NoSuchService(_, _)));
        // A real verb under another service name is refused as any
        // device refuses it.
        let other = ServiceName::new("calendar");
        let err = node
            .call(dir.addr(), &other, "lookup_many", vec![Value::list([])])
            .unwrap_err();
        assert_eq!(err, SydError::NoSuchService(other, "lookup_many".into()));
    }
}
