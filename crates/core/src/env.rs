//! Deployment environment: transport + directory + authenticator + clock.
//!
//! `SydEnv` plays the role of the paper's deployment scripts: it stands up
//! the network substrate (the simulated wireless LAN by default, loopback
//! TCP via [`SydEnv::new_on`]), starts the name server (SyDDirectory),
//! holds the deployment's shared TEA key, and mints devices and proxies.
//! It is the entry point every example and benchmark uses.

use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use syd_crypto::{Authenticator, Credentials};
use syd_net::{NetConfig, Network, Node, Transport};
use syd_types::{Clock, NodeAddr, SydResult, SystemClock, UserId};

use crate::device::DeviceRuntime;
use crate::directory::{DirectoryClient, DirectoryServer};
use crate::proxy::ProxyHost;

/// A running SyD deployment.
pub struct SydEnv {
    transport: Arc<dyn Transport>,
    /// Set when the transport is the simulated network — fault models and
    /// wire statistics ([`SydEnv::network`]) only exist there.
    sim: Option<Network>,
    directory: DirectoryServer,
    auth: Option<Arc<Authenticator>>,
    clock: Arc<dyn Clock>,
    next_user: AtomicU64,
}

impl SydEnv {
    /// Starts a deployment with §5.4 authentication enabled, deriving the
    /// shared TEA key from `passphrase`.
    pub fn new(cfg: NetConfig, passphrase: &str) -> SydEnv {
        Self::build(
            cfg,
            Some(Arc::new(Authenticator::from_passphrase(passphrase))),
        )
    }

    /// Starts a deployment without authentication (every request trusted).
    pub fn new_insecure(cfg: NetConfig) -> SydEnv {
        Self::build(cfg, None)
    }

    fn build(cfg: NetConfig, auth: Option<Arc<Authenticator>>) -> SydEnv {
        let network = Network::new(cfg);
        let directory = DirectoryServer::start(&network);
        SydEnv {
            transport: Arc::new(network.clone()),
            sim: Some(network),
            directory,
            auth,
            clock: Arc::new(SystemClock::new()),
            next_user: AtomicU64::new(1),
        }
    }

    /// Starts a deployment on an arbitrary transport backend — the same
    /// environment the sim constructors build, but with the directory and
    /// every subsequent device speaking through `transport` (e.g. a
    /// [`syd_net::FramedTcpTransport`] on loopback). Pass `passphrase`
    /// `Some(..)` for §5.4 authentication.
    pub fn new_on(transport: Arc<dyn Transport>, passphrase: Option<&str>) -> SydResult<SydEnv> {
        let directory = DirectoryServer::start_on(&*transport)?;
        Ok(SydEnv {
            transport,
            sim: None,
            directory,
            auth: passphrase.map(|p| Arc::new(Authenticator::from_passphrase(p))),
            clock: Arc::new(SystemClock::new()),
            next_user: AtomicU64::new(1),
        })
    }

    /// Replaces the deployment clock (tests use a
    /// [`syd_types::SimClock`]). Devices created afterwards use it.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> SydEnv {
        self.clock = clock;
        self
    }

    /// The transport substrate devices are minted on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The simulated network.
    ///
    /// # Panics
    ///
    /// Panics when the deployment runs on a non-simulated transport (see
    /// [`SydEnv::new_on`]) — fault injection and network statistics are
    /// sim-only concepts; check [`syd_net::Transport::kind`] first.
    pub fn network(&self) -> &Network {
        #[allow(clippy::expect_used)] // documented panic contract (see above)
        self.sim
            .as_ref()
            .expect("SydEnv::network(): deployment runs on a real transport, not the sim")
    }

    /// The directory's address.
    pub fn dir_addr(&self) -> NodeAddr {
        self.directory.addr()
    }

    /// The running directory server — benchmarks and diagnostics read its
    /// request counters (`dir.lookups`, `dir.batch_lookups`, …) to verify
    /// round-trip budgets from the server's side, not wall clock.
    pub fn directory(&self) -> &DirectoryServer {
        &self.directory
    }

    /// The deployment clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The shared device runtime multiplexing this deployment's devices.
    /// Fleet tooling uses it to enable scoped metrics before a mass spawn
    /// and to read reactor/pool occupancy afterwards.
    pub fn runtime(&self) -> syd_net::SharedRuntime {
        syd_net::runtime_for(&*self.transport)
    }

    /// The deployment authenticator, when security is on.
    pub fn authenticator(&self) -> Option<&Arc<Authenticator>> {
        self.auth.as_ref()
    }

    /// Creates a device for a new user named `name` with `password`,
    /// registering the user in the directory and (when security is on)
    /// the authorized-user table, and stamping the device's outgoing
    /// requests with sealed credentials.
    pub fn device(&self, name: &str, password: &str) -> SydResult<DeviceRuntime> {
        let user = UserId::new(self.next_user.fetch_add(1, Ordering::Relaxed));
        let device = DeviceRuntime::new(
            &*self.transport,
            self.directory.addr(),
            user,
            name,
            self.auth.clone(),
            Arc::clone(&self.clock),
        )?;
        device.node().set_identity(user, self.enrol(user, password));
        Ok(device)
    }

    /// Creates a proxy host able to stand in for disconnected devices
    /// (§5.2). Proxies authenticate their outgoing traffic as the
    /// dedicated proxy user.
    pub fn proxy(&self, name: &str, password: &str) -> SydResult<ProxyHost> {
        let user = UserId::new(self.next_user.fetch_add(1, Ordering::Relaxed));
        let proxy = ProxyHost::new(
            &*self.transport,
            self.directory.addr(),
            user,
            name,
            self.auth.clone(),
            Arc::clone(&self.clock),
        )?;
        proxy.node().set_identity(user, self.enrol(user, password));
        Ok(proxy)
    }

    /// Adds `user` to the authorized-user table and seals their
    /// credentials under a fresh IV; empty when security is off.
    fn enrol(&self, user: UserId, password: &str) -> Vec<u8> {
        let Some(auth) = &self.auth else {
            return Vec::new();
        };
        auth.table().authorize(user, password);
        auth.seal(&Credentials::new(user, password), fresh_iv())
    }

    /// A fresh directory client on its own node (for tools/tests that are
    /// not devices).
    pub fn directory_client(&self) -> DirectoryClient {
        #[allow(clippy::expect_used)] // infallible on the sim; tool/test convenience
        let node = Node::spawn_on(&*self.transport).expect("transport cannot open endpoint");
        DirectoryClient::new(node, self.directory.addr())
    }
}

/// A CBC initialisation vector that does not repeat within the process
/// and cannot be predicted from outside it: SipHash of a call counter
/// under the key `std` draws from OS entropy for its hash maps. Never
/// seeded — the same credentials sealed twice must differ.
fn fresh_iv() -> [u8; 8] {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    static CALLS: AtomicU64 = AtomicU64::new(0);
    KEY.get_or_init(RandomState::new)
        .hash_one(CALLS.fetch_add(1, Ordering::Relaxed))
        .to_le_bytes()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_telemetry::names;
    use syd_types::{ServiceName, Value};

    #[test]
    fn secure_env_round_trip() {
        let env = SydEnv::new(NetConfig::ideal(), "deployment");
        let a = env.device("alice", "pw-a").unwrap();
        let b = env.device("bob", "pw-b").unwrap();
        // Authenticated kernel call works.
        let out = a
            .engine()
            .invoke(b.user(), &ServiceName::new("syd.ping"), "ping", vec![])
            .unwrap();
        assert_eq!(out, Value::str("pong"));
    }

    #[test]
    fn forged_identity_is_rejected() {
        let env = SydEnv::new(NetConfig::ideal(), "deployment");
        let a = env.device("alice", "pw-a").unwrap();
        let b = env.device("bob", "pw-b").unwrap();
        // Tamper with a's credentials.
        a.node().set_identity(a.user(), vec![0xBA, 0xD1]);
        let err = a
            .engine()
            .invoke(b.user(), &ServiceName::new("syd.ping"), "ping", vec![])
            .unwrap_err();
        assert!(matches!(err, syd_types::SydError::AuthFailed(_)), "{err}");
    }

    #[test]
    fn sealing_the_same_credentials_twice_gives_different_blobs() {
        let env = SydEnv::new(NetConfig::ideal(), "deployment");
        let user = UserId::new(77);
        let (first, second) = (env.enrol(user, "pw"), env.enrol(user, "pw"));
        assert_ne!(first, second, "the IV must be fresh per seal");
        // Both still open to the same credentials.
        let auth = env.authenticator().unwrap();
        assert_eq!(auth.verify(&first).unwrap(), auth.verify(&second).unwrap());
        assert!(SydEnv::new_insecure(NetConfig::ideal())
            .enrol(user, "pw")
            .is_empty());
    }

    #[test]
    fn insecure_env_trusts_callers() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let a = env.device("alice", "").unwrap();
        let b = env.device("bob", "").unwrap();
        let out = a
            .engine()
            .invoke(b.user(), &ServiceName::new("syd.ping"), "ping", vec![])
            .unwrap();
        assert_eq!(out, Value::str("pong"));
    }

    #[test]
    fn env_on_tcp_transport_round_trips() {
        // The whole deployment — directory, devices, authenticated RPC —
        // over real loopback sockets instead of the sim.
        let transport: Arc<dyn Transport> = Arc::new(syd_net::FramedTcpTransport::loopback());
        let env = SydEnv::new_on(transport, Some("deployment")).unwrap();
        let a = env.device("alice", "pw-a").unwrap();
        let b = env.device("bob", "pw-b").unwrap();
        let out = a
            .engine()
            .invoke(b.user(), &ServiceName::new("syd.ping"), "ping", vec![])
            .unwrap();
        assert_eq!(out, Value::str("pong"));
        assert_eq!(env.transport().kind(), "tcp");
    }

    /// Requests the directory node has served so far.
    fn dir_requests(env: &SydEnv) -> u64 {
        env.directory()
            .metrics()
            .get_counter(names::RPC_REQUESTS_SERVED)
            .map_or(0, |c| c.get())
    }

    #[test]
    fn a_device_joins_in_one_directory_request() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let before = dir_requests(&env);
        let a = env.device("alice", "").unwrap();
        assert_eq!(
            dir_requests(&env) - before,
            1,
            "`register` and nothing else"
        );

        // One more per distinct service, however many methods it has.
        let (cal, mail) = (ServiceName::new("calendar"), ServiceName::new("mailbox"));
        for (service, method) in [(&cal, "a"), (&cal, "b"), (&mail, "c"), (&cal, "d")] {
            a.register_service(service, method, Arc::new(|_, _| Ok(Value::Null)))
                .unwrap();
        }
        assert_eq!(dir_requests(&env) - before, 3);
        let rec = a.engine().directory().describe(a.user()).unwrap();
        assert_eq!(rec.services, vec!["calendar", "mailbox"]);
    }

    #[test]
    fn a_refused_join_leaves_no_node_behind() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let _alice = env.device("alice", "").unwrap();
        let nodes = env.runtime().nodes();
        assert!(env.device("alice", "").is_err(), "the name is taken");
        assert_eq!(env.runtime().nodes(), nodes, "refused device");
        assert!(env.proxy("alice", "").is_err(), "the name is taken");
        assert_eq!(env.runtime().nodes(), nodes, "refused proxy");
    }

    #[test]
    fn users_get_distinct_ids_and_names() {
        let env = SydEnv::new_insecure(NetConfig::ideal());
        let a = env.device("alice", "").unwrap();
        let b = env.device("bob", "").unwrap();
        assert_ne!(a.user(), b.user());
        let dirc = env.directory_client();
        assert_eq!(dirc.lookup_name("alice").unwrap(), a.user());
        assert_eq!(dirc.lookup_name("bob").unwrap(), b.user());
        assert!(env.device("alice", "").is_err(), "duplicate name");
    }
}
