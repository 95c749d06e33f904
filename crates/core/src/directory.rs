//! SyDDirectory: the name server (§3.1a, §5.2).
//!
//! The directory provides "user/group/service publishing, management, and
//! lookup services … also supports intelligent proxy maintenance for
//! users/devices". It runs as an ordinary SyD node serving the `syd.dir`
//! service; every other module reaches it through [`DirectoryClient`].
//!
//! Proxy-aware lookup is the heart of §5.2: while a user's device is
//! connected, `lookup` returns the device address; when it is disconnected
//! and a proxy is registered, `lookup` transparently returns the proxy
//! address, so "the proxy and the SyD object act as a single entity for an
//! outsider".

use std::collections::HashMap;
use std::sync::Arc;

use syd_net::{Network, Node, RequestHandler, Transport};
use syd_telemetry::names;
use syd_telemetry::{Counter, Registry};
use syd_types::sync::RwLock;
use syd_types::{GroupId, NodeAddr, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::Request;

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
    /// Services this user has published.
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

/// Preregistered round-trip counters for the lookup hot path. They count
/// *served requests*, so a benchmark can verify "a cold group invoke over
/// n members costs one directory round trip" from the server's own
/// telemetry rather than from wall clock.
struct DirMetrics {
    /// `dir.lookups` — single `lookup` requests served.
    lookups: Counter,
    /// `dir.batch_lookups` — `lookup_many` requests served.
    batch_lookups: Counter,
    /// `dir.batch_lookup_users` — users resolved across all
    /// `lookup_many` requests (batching efficiency = users / requests).
    batch_lookup_users: Counter,
}

impl DirMetrics {
    fn preregister(registry: &Registry) -> Self {
        Self {
            lookups: registry.counter(names::DIR_LOOKUPS),
            batch_lookups: registry.counter(names::DIR_BATCH_LOOKUPS),
            batch_lookup_users: registry.counter(names::DIR_BATCH_LOOKUP_USERS),
        }
    }
}

/// The directory server: state plus the node serving `syd.dir`.
pub struct DirectoryServer {
    node: Node,
    state: Arc<RwLock<DirState>>,
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
        let state = Arc::new(RwLock::new(DirState::default()));
        let handler_state = Arc::clone(&state);
        let metrics = DirMetrics::preregister(node.metrics());
        node.set_handler(
            Arc::new(move |_from, req: Request| serve(&handler_state, &metrics, &req))
                as Arc<dyn RequestHandler>,
        );
        Ok(DirectoryServer { node, state })
    }

    /// Address other nodes use to reach the directory.
    pub fn addr(&self) -> NodeAddr {
        self.node.addr()
    }

    /// Number of registered users (diagnostics).
    pub fn user_count(&self) -> usize {
        self.state.read().users.len()
    }

    /// The directory node's metrics registry (`dir.lookups`,
    /// `dir.batch_lookups`, `dir.batch_lookup_users`, plus the node's
    /// own RPC metrics).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.node.metrics()
    }
}

fn arg(req: &Request, i: usize) -> SydResult<&Value> {
    req.args
        .get(i)
        .ok_or_else(|| SydError::Protocol(format!("{} needs arg {i}", req.method)))
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

/// Proxy-aware address resolution (§5.2): connected → device address,
/// disconnected with a proxy → proxy address, otherwise the device
/// address as-is (the caller will observe the disconnect).
fn resolve_record(rec: &UserRecord) -> (NodeAddr, bool) {
    if rec.connected {
        (rec.addr, false)
    } else if let Some(proxy) = rec.proxy {
        (proxy, true)
    } else {
        (rec.addr, false)
    }
}

fn serve(state: &RwLock<DirState>, metrics: &DirMetrics, req: &Request) -> SydResult<Value> {
    match req.method.as_str() {
        // register(user, name, addr) -> null
        "register" => {
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let name = arg(req, 1)?.as_str()?.to_owned();
            let addr = NodeAddr::new(arg(req, 2)?.as_i64()? as u64);
            let mut s = state.write();
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
        // publish(user, service) -> null
        "publish" => {
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let service = arg(req, 1)?.as_str()?.to_owned();
            let mut s = state.write();
            let rec = s
                .users
                .get_mut(&user)
                .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
            if !rec.services.contains(&service) {
                rec.services.push(service);
            }
            Ok(Value::Null)
        }
        // lookup(user) -> {addr, is_proxy}
        "lookup" => {
            metrics.lookups.inc();
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let s = state.read();
            let rec = s
                .users
                .get(&user)
                .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
            let (addr, is_proxy) = resolve_record(rec);
            Ok(Value::map([
                ("addr", Value::from(addr.raw())),
                ("is_proxy", Value::Bool(is_proxy)),
            ]))
        }
        // lookup_many([user ids]) -> [{addr, is_proxy} | null, ...]
        //
        // One round trip resolves a whole group. The reply is aligned
        // with the input: an unregistered user yields `null` in its slot
        // instead of failing the batch, so one unknown member can never
        // poison its siblings' resolutions.
        "lookup_many" => {
            metrics.batch_lookups.inc();
            let users = arg(req, 0)?.as_list()?;
            metrics.batch_lookup_users.add(users.len() as u64);
            let s = state.read();
            let entries = users
                .iter()
                .map(|u| {
                    let user = UserId::new(u.as_i64()? as u64);
                    Ok(match s.users.get(&user) {
                        Some(rec) => {
                            let (addr, is_proxy) = resolve_record(rec);
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
        // lookup_name(name) -> user id
        "lookup_name" => {
            let name = arg(req, 0)?.as_str()?;
            let s = state.read();
            s.by_name
                .get(name)
                .map(|u| Value::from(u.raw()))
                .ok_or_else(|| SydError::NotRegistered(name.to_owned()))
        }
        // describe(user) -> full record
        "describe" => {
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let s = state.read();
            s.users
                .get(&user)
                .map(user_record_to_value)
                .ok_or_else(|| SydError::NotRegistered(user.to_string()))
        }
        // set_connected(user, bool) -> null
        "set_connected" => {
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let connected = arg(req, 1)?.as_bool()?;
            let mut s = state.write();
            let rec = s
                .users
                .get_mut(&user)
                .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
            rec.connected = connected;
            Ok(Value::Null)
        }
        // register_proxy(user, proxy_addr) -> null
        "register_proxy" => {
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let proxy = NodeAddr::new(arg(req, 1)?.as_i64()? as u64);
            let mut s = state.write();
            let rec = s
                .users
                .get_mut(&user)
                .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
            rec.proxy = Some(proxy);
            Ok(Value::Null)
        }
        // clear_proxy(user) -> null
        "clear_proxy" => {
            let user = UserId::new(arg(req, 0)?.as_i64()? as u64);
            let mut s = state.write();
            let rec = s
                .users
                .get_mut(&user)
                .ok_or_else(|| SydError::NotRegistered(user.to_string()))?;
            rec.proxy = None;
            Ok(Value::Null)
        }
        // create_group(name) -> group id
        "create_group" => {
            let name = arg(req, 0)?.as_str()?.to_owned();
            let mut s = state.write();
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
        // group_add(group, user) / group_remove(group, user) -> null
        "group_add" | "group_remove" => {
            let group = GroupId::new(arg(req, 0)?.as_i64()? as u64);
            let user = UserId::new(arg(req, 1)?.as_i64()? as u64);
            let mut s = state.write();
            if !s.users.contains_key(&user) {
                return Err(SydError::NotRegistered(user.to_string()));
            }
            let info = s
                .groups
                .get_mut(&group)
                .ok_or_else(|| SydError::NotRegistered(group.to_string()))?;
            if req.method == "group_add" {
                if !info.members.contains(&user) {
                    info.members.push(user);
                }
            } else {
                info.members.retain(|&m| m != user);
            }
            Ok(Value::Null)
        }
        // group_members(group) -> [user ids]
        "group_members" => {
            let group = GroupId::new(arg(req, 0)?.as_i64()? as u64);
            let s = state.read();
            let info = s
                .groups
                .get(&group)
                .ok_or_else(|| SydError::NotRegistered(group.to_string()))?;
            Ok(Value::list(
                info.members.iter().map(|u| Value::from(u.raw())),
            ))
        }
        // group_by_name(name) -> group id
        "group_by_name" => {
            let name = arg(req, 0)?.as_str()?;
            let s = state.read();
            s.group_by_name
                .get(name)
                .map(|g| Value::from(g.raw()))
                .ok_or_else(|| SydError::NotRegistered(name.to_owned()))
        }
        // list_users() -> [user ids]
        "list_users" => {
            let s = state.read();
            let mut ids: Vec<u64> = s.users.keys().map(|u| u.raw()).collect();
            ids.sort_unstable();
            Ok(Value::list(ids.into_iter().map(Value::from)))
        }
        other => Err(SydError::NoSuchService(dir_service(), other.to_owned())),
    }
}

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
        // Directory operations are idempotent, so retrying through loss is
        // safe — the prototype's TCP transport retransmitted transparently.
        self.node.call_with(
            self.dir_addr,
            &dir_service(),
            method,
            args,
            syd_net::CallOptions::new().with_retries(4),
        )
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

    /// Publishes a service name under a user.
    pub fn publish(&self, user: UserId, service: &ServiceName) -> SydResult<()> {
        self.call(
            "publish",
            vec![Value::from(user.raw()), Value::str(service.as_str())],
        )
        .map(|_| ())
    }

    /// Resolves a user to a reachable address. Returns `(addr, is_proxy)`.
    pub fn lookup(&self, user: UserId) -> SydResult<(NodeAddr, bool)> {
        let v = self.call("lookup", vec![Value::from(user.raw())])?;
        let addr = NodeAddr::new(v.get("addr")?.as_i64()? as u64);
        let is_proxy = v.get("is_proxy")?.as_bool()?;
        Ok((addr, is_proxy))
    }

    /// Resolves a whole group of users in one round trip. The result is
    /// aligned with `users`: `None` marks a user the directory does not
    /// know (the batch itself still succeeds).
    pub fn lookup_many(&self, users: &[UserId]) -> SydResult<Vec<Option<(NodeAddr, bool)>>> {
        self.lookup_many_with(users, syd_net::CallOptions::new().with_retries(4))
    }

    /// [`DirectoryClient::lookup_many`] with explicit deadline/retry
    /// options — the engine passes its own (typically much shorter)
    /// timeout so a lossy batch fails over quickly.
    pub fn lookup_many_with(
        &self,
        users: &[UserId],
        opts: syd_net::CallOptions,
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

    /// All registered users.
    pub fn list_users(&self) -> SydResult<Vec<UserId>> {
        let v = self.call("list_users", vec![])?;
        v.as_list()?
            .iter()
            .map(|u| Ok(UserId::new(u.as_i64()? as u64)))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_net::Network;

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
        assert_eq!(client.lookup(phil).unwrap(), (addr, false));
        assert_eq!(client.lookup_name("phil").unwrap(), phil);
        let rec = client.describe(phil).unwrap();
        assert_eq!(rec.name, "phil");
        assert!(rec.connected);
        assert!(rec.proxy.is_none());
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
        assert_eq!(client.lookup(UserId::new(1)).unwrap().0, NodeAddr::new(9));
    }

    #[test]
    fn a_duplicate_register_keeps_what_was_published() {
        let (_net, _dir, client) = setup();
        let (user, addr, proxy) = (UserId::new(1), NodeAddr::new(1), NodeAddr::new(20));
        client.register(user, "phil", addr).unwrap();
        client.publish(user, &ServiceName::new("calendar")).unwrap();
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
        client.publish(phil, &ServiceName::new("calendar")).unwrap();
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
        assert!(matches!(
            client.lookup(UserId::new(404)).unwrap_err(),
            SydError::NotRegistered(_)
        ));
        assert!(client.lookup_name("ghost").is_err());
    }

    #[test]
    fn proxy_lookup_switchover() {
        let (_net, _dir, client) = setup();
        let user = UserId::new(3);
        let primary = NodeAddr::new(10);
        let proxy = NodeAddr::new(20);
        client.register(user, "suzy", primary).unwrap();
        client.register_proxy(user, proxy).unwrap();

        // Connected: primary wins.
        assert_eq!(client.lookup(user).unwrap(), (primary, false));
        // Disconnected: proxy takes over.
        client.set_connected(user, false).unwrap();
        assert_eq!(client.lookup(user).unwrap(), (proxy, true));
        // Reconnected: primary again.
        client.set_connected(user, true).unwrap();
        assert_eq!(client.lookup(user).unwrap(), (primary, false));
        // Disconnected with no proxy: primary address returned as-is.
        client.clear_proxy(user).unwrap();
        client.set_connected(user, false).unwrap();
        assert_eq!(client.lookup(user).unwrap(), (primary, false));
    }

    #[test]
    fn service_publication_is_recorded() {
        let (_net, _dir, client) = setup();
        let user = UserId::new(1);
        client.register(user, "phil", NodeAddr::new(1)).unwrap();
        client.publish(user, &ServiceName::new("calendar")).unwrap();
        client.publish(user, &ServiceName::new("calendar")).unwrap(); // idempotent
        client.publish(user, &ServiceName::new("mailbox")).unwrap();
        let rec = client.describe(user).unwrap();
        assert_eq!(rec.services, vec!["calendar", "mailbox"]);
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
    fn list_users_sorted() {
        let (_net, _dir, client) = setup();
        for id in [5u64, 1, 3] {
            client
                .register(UserId::new(id), &format!("u{id}"), NodeAddr::new(id))
                .unwrap();
        }
        assert_eq!(
            client.list_users().unwrap(),
            vec![UserId::new(1), UserId::new(3), UserId::new(5)]
        );
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
        let got = client.lookup_many(&users).unwrap();
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
        assert_eq!(client.lookup_many(&[]).unwrap(), vec![]);
    }

    #[test]
    fn unknown_method_is_no_such_service() {
        let (net, dir, _client) = setup();
        let node = Node::spawn(&net);
        let err = node
            .call(dir.addr(), &dir_service(), "frobnicate", vec![])
            .unwrap_err();
        assert!(matches!(err, SydError::NoSuchService(_, _)));
    }
}
