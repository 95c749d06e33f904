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

use syd_net::{Call, CallOptions, Network, Node, Transport};
use syd_telemetry::names;
use syd_telemetry::{Counter, Registry};
use syd_types::sync::{Rank, RwLock};
use syd_types::{GroupId, NodeAddr, ServiceName, SydError, SydResult, UserId, Value};

use crate::listener::{arg, InvokeCtx, Listener, Method};

/// The directory's service name.
pub fn dir_service() -> ServiceName {
    ServiceName::new("syd.dir")
}

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
        listener.serve(&dir_service(), &dir, DIR_METHODS);
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
static DIR_METHODS: &[Method<Directory>] = &[
    Method::new("register", register),
    Method::new("publish", publish),
    Method::new("lookup_many", lookup_many),
    Method::new("lookup_name", lookup_name),
    Method::new("describe", describe),
    Method::new("set_connected", set_connected),
    Method::new("register_proxy", register_proxy),
    Method::new("clear_proxy", clear_proxy),
    Method::new("create_group", create_group),
    Method::new("group_add", |dir, _, args| group_member(dir, args, true)),
    Method::new("group_remove", |dir, _, args| {
        group_member(dir, args, false)
    }),
    Method::new("group_members", group_members),
    Method::new("group_by_name", group_by_name),
];

fn user_arg(args: &[Value], i: usize) -> SydResult<UserId> {
    Ok(UserId::new(arg(args, i)?.as_i64()? as u64))
}

fn user_record_to_value(rec: &UserRecord) -> Value {
    Value::map([
        ("user", Value::from(rec.user.raw())),
        ("name", Value::str(rec.name.clone())),
        ("addr", Value::from(rec.addr.raw())),
        (
            "proxy",
            rec.proxy.map_or(Value::Null, |p| Value::from(p.raw())),
        ),
        ("connected", Value::Bool(rec.connected)),
        (
            "services",
            Value::list(rec.services.iter().map(|s| Value::str(s.clone()))),
        ),
    ])
}

/// register(user, name, addr) -> null
fn register(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let user = user_arg(args, 0)?;
    let name = arg(args, 1)?.as_str()?.to_owned();
    let addr = NodeAddr::new(arg(args, 2)?.as_i64()? as u64);
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
    Ok(Value::Null)
}

/// publish(user, service) -> null
fn publish(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let user = user_arg(args, 0)?;
    let service = arg(args, 1)?.as_str()?.to_owned();
    let mut s = dir.state.write();
    let rec = s.user_mut(user)?;
    // Kept sorted: the publishes of one wave arrive in any order.
    if let Err(at) = rec.services.binary_search(&service) {
        rec.services.insert(at, service);
    }
    Ok(Value::Null)
}

/// lookup_many([user ids]) -> [{addr, is_proxy} | null, ...]
///
/// One round trip resolves a whole group. The reply is aligned with the
/// input: an unregistered user yields `null` in its slot instead of
/// failing the batch, so one unknown member can never poison its
/// siblings' resolutions.
fn lookup_many(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    dir.batch_lookups.inc();
    let users = arg(args, 0)?.as_list()?;
    dir.batch_lookup_users.add(users.len() as u64);
    let s = dir.state.read();
    let entries = users
        .iter()
        .map(|u| {
            let user = UserId::new(u.as_i64()? as u64);
            Ok(match s.users.get(&user) {
                Some(rec) => {
                    // Proxy-aware resolution (§5.2): connected → device
                    // address, disconnected with a proxy → proxy address,
                    // otherwise the device address as-is (the caller will
                    // observe the disconnect).
                    let (addr, is_proxy) = match rec.proxy {
                        Some(proxy) if !rec.connected => (proxy, true),
                        _ => (rec.addr, false),
                    };
                    Value::map([
                        ("addr", Value::from(addr.raw())),
                        ("is_proxy", Value::Bool(is_proxy)),
                    ])
                }
                None => Value::Null,
            })
        })
        .collect::<SydResult<Vec<Value>>>()?;
    Ok(Value::list(entries))
}

/// lookup_name(name) -> user id
fn lookup_name(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    dir.lookups.inc();
    let name = arg(args, 0)?.as_str()?;
    let s = dir.state.read();
    s.by_name
        .get(name)
        .map(|u| Value::from(u.raw()))
        .ok_or_else(|| SydError::NotRegistered(name.to_owned()))
}

/// describe(user) -> full record
fn describe(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    dir.lookups.inc();
    let user = user_arg(args, 0)?;
    let s = dir.state.read();
    s.users
        .get(&user)
        .map(user_record_to_value)
        .ok_or_else(|| SydError::NotRegistered(user.to_string()))
}

/// set_connected(user, bool) -> null
fn set_connected(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let user = user_arg(args, 0)?;
    let connected = arg(args, 1)?.as_bool()?;
    dir.state.write().user_mut(user)?.connected = connected;
    Ok(Value::Null)
}

/// register_proxy(user, proxy_addr) -> null
fn register_proxy(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let user = user_arg(args, 0)?;
    let proxy = NodeAddr::new(arg(args, 1)?.as_i64()? as u64);
    dir.state.write().user_mut(user)?.proxy = Some(proxy);
    Ok(Value::Null)
}

/// clear_proxy(user) -> null
fn clear_proxy(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let user = user_arg(args, 0)?;
    dir.state.write().user_mut(user)?.proxy = None;
    Ok(Value::Null)
}

/// create_group(name) -> group id
fn create_group(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let name = arg(args, 0)?.as_str()?.to_owned();
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
    Ok(Value::from(id.raw()))
}

/// group_add(group, user) / group_remove(group, user) -> null
fn group_member(dir: &Directory, args: &[Value], add: bool) -> SydResult<Value> {
    let group = GroupId::new(arg(args, 0)?.as_i64()? as u64);
    let user = user_arg(args, 1)?;
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
    Ok(Value::Null)
}

/// group_members(group) -> [user ids]
fn group_members(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let group = GroupId::new(arg(args, 0)?.as_i64()? as u64);
    let s = dir.state.read();
    let info = s
        .groups
        .get(&group)
        .ok_or_else(|| SydError::NotRegistered(group.to_string()))?;
    Ok(Value::list(
        info.members.iter().map(|u| Value::from(u.raw())),
    ))
}

/// group_by_name(name) -> group id
fn group_by_name(dir: &Directory, _ctx: &InvokeCtx, args: &[Value]) -> SydResult<Value> {
    let name = arg(args, 0)?.as_str()?;
    let s = dir.state.read();
    s.group_by_name
        .get(name)
        .map(|g| Value::from(g.raw()))
        .ok_or_else(|| SydError::NotRegistered(name.to_owned()))
}

/// The options of the directory's own calls: its operations are
/// idempotent, so retrying through loss is safe — the prototype's TCP
/// transport retransmitted transparently.
pub const DIR_CALLS: CallOptions = CallOptions::new().with_retries(4);

/// Client-side typed wrapper over the `syd.dir` service.
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

    fn call(&self, method: &str, args: Vec<Value>) -> SydResult<Value> {
        self.node
            .call_with(self.dir_addr, &dir_service(), method, args, DIR_CALLS)
    }

    /// Registers a user's device address under a unique name.
    pub fn register(&self, user: UserId, name: &str, addr: NodeAddr) -> SydResult<()> {
        self.call(
            "register",
            vec![
                Value::from(user.raw()),
                Value::str(name),
                Value::from(addr.raw()),
            ],
        )
        .map(|_| ())
    }

    /// Publishes service names under a user: one `publish` request per
    /// service, all sent in one wave. Each is a set insert, so none waits
    /// for another. The results are aligned with `services`.
    pub fn publish(&self, user: UserId, services: &[ServiceName]) -> Vec<SydResult<()>> {
        let dir = dir_service();
        let calls: Vec<Call<'_>> = services
            .iter()
            .map(|service| {
                let args = vec![Value::from(user.raw()), Value::str(service.as_str())];
                Call::new(UserId::default(), &dir, "publish", args)
            })
            .collect();
        let dir_addr = self.dir_addr;
        self.node
            .call_many(&calls, DIR_CALLS, &mut |idx| {
                idx.iter().map(|_| Ok(dir_addr)).collect()
            })
            .into_iter()
            .map(|result| result.map(|_| ()))
            .collect()
    }

    /// Resolves a whole group of users in one round trip. The result is
    /// aligned with `users`: `None` marks a user the directory does not
    /// know (the batch itself still succeeds). The engine passes its own
    /// (typically much shorter) deadline so a lossy batch fails over
    /// quickly; other callers pass [`DIR_CALLS`].
    pub fn lookup_many(
        &self,
        users: &[UserId],
        opts: CallOptions,
    ) -> SydResult<Vec<Option<(NodeAddr, bool)>>> {
        let ids = Value::list(users.iter().map(|u| Value::from(u.raw())));
        let v = self.node.call_with(
            self.dir_addr,
            &dir_service(),
            "lookup_many",
            vec![ids],
            opts,
        )?;
        let entries = v.as_list()?;
        if entries.len() != users.len() {
            return Err(SydError::Protocol(format!(
                "lookup_many returned {} entries for {} users",
                entries.len(),
                users.len()
            )));
        }
        entries
            .iter()
            .map(|e| match e {
                Value::Null => Ok(None),
                found => {
                    let addr = NodeAddr::new(found.get("addr")?.as_i64()? as u64);
                    let is_proxy = found.get("is_proxy")?.as_bool()?;
                    Ok(Some((addr, is_proxy)))
                }
            })
            .collect()
    }

    /// Resolves a user name to a user id.
    pub fn lookup_name(&self, name: &str) -> SydResult<UserId> {
        let v = self.call("lookup_name", vec![Value::str(name)])?;
        Ok(UserId::new(v.as_i64()? as u64))
    }

    /// Full record for a user.
    pub fn describe(&self, user: UserId) -> SydResult<UserRecord> {
        let v = self.call("describe", vec![Value::from(user.raw())])?;
        Ok(UserRecord {
            user: UserId::new(v.get("user")?.as_i64()? as u64),
            name: v.get("name")?.as_str()?.to_owned(),
            addr: NodeAddr::new(v.get("addr")?.as_i64()? as u64),
            proxy: match v.get("proxy")? {
                Value::Null => None,
                other => Some(NodeAddr::new(other.as_i64()? as u64)),
            },
            connected: v.get("connected")?.as_bool()?,
            services: v
                .get("services")?
                .as_list()?
                .iter()
                .map(|s| s.as_str().map(str::to_owned))
                .collect::<SydResult<_>>()?,
        })
    }

    /// Marks a user's device (dis)connected in the directory.
    pub fn set_connected(&self, user: UserId, connected: bool) -> SydResult<()> {
        self.call(
            "set_connected",
            vec![Value::from(user.raw()), Value::Bool(connected)],
        )
        .map(|_| ())
    }

    /// Registers `proxy_addr` as the user's proxy.
    pub fn register_proxy(&self, user: UserId, proxy_addr: NodeAddr) -> SydResult<()> {
        self.call(
            "register_proxy",
            vec![Value::from(user.raw()), Value::from(proxy_addr.raw())],
        )
        .map(|_| ())
    }

    /// Removes the user's proxy registration.
    pub fn clear_proxy(&self, user: UserId) -> SydResult<()> {
        self.call("clear_proxy", vec![Value::from(user.raw())])
            .map(|_| ())
    }

    /// Creates a named group.
    pub fn create_group(&self, name: &str) -> SydResult<GroupId> {
        let v = self.call("create_group", vec![Value::str(name)])?;
        Ok(GroupId::new(v.as_i64()? as u64))
    }

    /// Adds a user to a group.
    pub fn group_add(&self, group: GroupId, user: UserId) -> SydResult<()> {
        self.call(
            "group_add",
            vec![Value::from(group.raw()), Value::from(user.raw())],
        )
        .map(|_| ())
    }

    /// Removes a user from a group.
    pub fn group_remove(&self, group: GroupId, user: UserId) -> SydResult<()> {
        self.call(
            "group_remove",
            vec![Value::from(group.raw()), Value::from(user.raw())],
        )
        .map(|_| ())
    }

    /// Members of a group.
    pub fn group_members(&self, group: GroupId) -> SydResult<Vec<UserId>> {
        let v = self.call("group_members", vec![Value::from(group.raw())])?;
        v.as_list()?
            .iter()
            .map(|u| Ok(UserId::new(u.as_i64()? as u64)))
            .collect()
    }

    /// Group id by name.
    pub fn group_by_name(&self, name: &str) -> SydResult<GroupId> {
        let v = self.call("group_by_name", vec![Value::str(name)])?;
        Ok(GroupId::new(v.as_i64()? as u64))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_net::Network;

    fn publish(client: &DirectoryClient, user: UserId, services: &[&str]) {
        let services: Vec<ServiceName> = services.iter().map(|&s| ServiceName::new(s)).collect();
        for result in client.publish(user, &services) {
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
        client.register(phil, "phil", addr).unwrap();
        assert_eq!(dir.user_count(), 1);
        assert_eq!(
            client.lookup_many(&[phil], DIR_CALLS).unwrap(),
            [Some((addr, false))]
        );
        assert_eq!(client.lookup_name("phil").unwrap(), phil);
        let rec = client.describe(phil).unwrap();
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
            .register(UserId::new(1), "phil", NodeAddr::new(1))
            .unwrap();
        let err = client
            .register(UserId::new(2), "phil", NodeAddr::new(2))
            .unwrap_err();
        assert!(err.to_string().contains("taken"), "{err}");
        // Re-registering the same user under the same name is fine
        // (device rebooted with a new address).
        client
            .register(UserId::new(1), "phil", NodeAddr::new(9))
            .unwrap();
        let found = client.lookup_many(&[UserId::new(1)], DIR_CALLS).unwrap();
        assert_eq!(found, [Some((NodeAddr::new(9), false))]);
    }

    #[test]
    fn a_duplicate_register_keeps_what_was_published() {
        let (_net, _dir, client) = setup();
        let (user, addr, proxy) = (UserId::new(1), NodeAddr::new(1), NodeAddr::new(20));
        client.register(user, "phil", addr).unwrap();
        publish(&client, user, &["calendar"]);
        client.register_proxy(user, proxy).unwrap();
        client.set_connected(user, false).unwrap();
        let before = client.describe(user).unwrap();

        // The join's own `register`, resent and landing late.
        client.register(user, "phil", addr).unwrap();
        assert_eq!(client.describe(user).unwrap(), before);
        assert_eq!(before.services, vec!["calendar"]);
        assert_eq!((before.proxy, before.connected), (Some(proxy), false));
    }

    #[test]
    fn renaming_a_user_releases_the_old_name() {
        let (_net, _dir, client) = setup();
        let (phil, suzy) = (UserId::new(1), UserId::new(2));
        client.register(phil, "phil", NodeAddr::new(1)).unwrap();
        publish(&client, phil, &["calendar"]);
        client.register(suzy, "suzy", NodeAddr::new(2)).unwrap();

        // A name held by another user stays refused, and changes nothing.
        let err = client.register(phil, "suzy", NodeAddr::new(1)).unwrap_err();
        assert!(err.to_string().contains("taken"), "{err}");
        assert_eq!(client.lookup_name("phil").unwrap(), phil);

        client.register(phil, "philip", NodeAddr::new(1)).unwrap();
        assert_eq!(client.lookup_name("philip").unwrap(), phil);
        assert!(client.lookup_name("phil").is_err(), "old name released");
        let rec = client.describe(phil).unwrap();
        assert_eq!(
            (rec.name.as_str(), rec.services),
            ("philip", vec!["calendar".to_owned()])
        );
        // The released name is free for someone else.
        client
            .register(UserId::new(3), "phil", NodeAddr::new(3))
            .unwrap();
    }

    #[test]
    fn unknown_user_lookup_fails() {
        let (_net, _dir, client) = setup();
        // An unknown user is a hole in the batch; an unknown name errs.
        assert_eq!(
            client.lookup_many(&[UserId::new(404)], DIR_CALLS).unwrap(),
            [None]
        );
        assert!(matches!(
            client.lookup_name("ghost").unwrap_err(),
            SydError::NotRegistered(_)
        ));
    }

    #[test]
    fn proxy_lookup_switchover() {
        let (_net, _dir, client) = setup();
        let user = UserId::new(3);
        let primary = NodeAddr::new(10);
        let proxy = NodeAddr::new(20);
        client.register(user, "suzy", primary).unwrap();
        client.register_proxy(user, proxy).unwrap();
        let lookup = || client.lookup_many(&[user], DIR_CALLS).unwrap()[0];

        // Connected: primary wins.
        assert_eq!(lookup(), Some((primary, false)));
        // Disconnected: proxy takes over.
        client.set_connected(user, false).unwrap();
        assert_eq!(lookup(), Some((proxy, true)));
        // Reconnected: primary again.
        client.set_connected(user, true).unwrap();
        assert_eq!(lookup(), Some((primary, false)));
        // Disconnected with no proxy: primary address returned as-is.
        client.clear_proxy(user).unwrap();
        client.set_connected(user, false).unwrap();
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
        client.register(user, "phil", NodeAddr::new(1)).unwrap();
        publish(&client, user, &["mailbox"]);
        // Idempotent.
        publish(&client, user, &["mailbox"]);
        // One wave: served in any order, recorded sorted.
        publish(&client, user, &["fleet", "calendar", "mailbox"]);
        let rec = client.describe(user).unwrap();
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
                .register(UserId::new(id), name, NodeAddr::new(id))
                .unwrap();
        }
        let biology = client.create_group("biology").unwrap();
        assert_eq!(client.group_by_name("biology").unwrap(), biology);
        assert!(client.create_group("biology").is_err());

        client.group_add(biology, UserId::new(1)).unwrap();
        client.group_add(biology, UserId::new(2)).unwrap();
        client.group_add(biology, UserId::new(2)).unwrap(); // idempotent
        assert_eq!(
            client.group_members(biology).unwrap(),
            vec![UserId::new(1), UserId::new(2)]
        );

        client.group_remove(biology, UserId::new(1)).unwrap();
        assert_eq!(client.group_members(biology).unwrap(), vec![UserId::new(2)]);

        // Unknown users can't join.
        assert!(client.group_add(biology, UserId::new(99)).is_err());
    }

    #[test]
    fn lookup_many_resolves_a_group_in_one_round_trip() {
        let (_net, dir, client) = setup();
        for (id, name) in [(1, "ann"), (2, "bob"), (3, "cal")] {
            client
                .register(UserId::new(id), name, NodeAddr::new(id))
                .unwrap();
        }
        // Bob is disconnected behind a proxy; 404 is unknown.
        client
            .register_proxy(UserId::new(2), NodeAddr::new(20))
            .unwrap();
        client.set_connected(UserId::new(2), false).unwrap();

        let users = [
            UserId::new(1),
            UserId::new(404),
            UserId::new(2),
            UserId::new(3),
        ];
        let got = client.lookup_many(&users, DIR_CALLS).unwrap();
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
        assert_eq!(client.lookup_many(&[], DIR_CALLS).unwrap(), vec![]);
    }

    #[test]
    fn unknown_method_is_no_such_service() {
        let (net, dir, _client) = setup();
        let node = Node::spawn(&net);
        let err = node
            .call(dir.addr(), &dir_service(), "frobnicate", vec![])
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
