//! SyDListener: service tables and authenticated dispatch (§3.1b).
//!
//! "SyDListener enables SyD device objects to publish services … as
//! listeners locally on the device and globally via directory services."
//! Locally, a service is a static table of [`Method`]s, each the handler
//! of one [`Verb`] (the method's name, arguments and reply, declared once
//! for the handler and every caller), served from one state the listener
//! holds weakly; globally,
//! [`crate::device::DeviceRuntime`] publishes each service name in the
//! SyDDirectory once — the directory lists services, the listener alone
//! knows methods. A device and a proxy replica serve the same tables
//! through the same dispatch.
//!
//! Every inbound request is authenticated first when the deployment runs
//! with security enabled (§5.4): the TEA credential blob is decrypted and
//! checked against the device's authorized-user table *before* the method
//! runs, and the authenticated user (not the claimed `caller` field) is
//! what the method sees.

use std::marker::PhantomData;
use std::sync::{Arc, Weak};

use syd_crypto::Authenticator;
use syd_net::{RequestHandler, Verb};
use syd_telemetry::names;
use syd_telemetry::{Counter, Registry};
use syd_types::sync::{Rank, RwLock};
use syd_types::{NodeAddr, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::{Args, AsValue, Params, Request};

/// Context passed to every service method.
#[derive(Clone, Debug)]
pub struct InvokeCtx {
    /// The authenticated caller (or the unverified claimed caller when the
    /// deployment runs without authentication — see `authenticated`).
    pub caller: UserId,
    /// Network address the request arrived from.
    pub from: NodeAddr,
    /// True iff `caller` was cryptographically verified.
    pub authenticated: bool,
}

/// One served method, its types erased: what a table holds.
pub trait Handler<S>: Sync {
    /// The wire name the method answers under.
    fn name(&self) -> &'static str;
    /// Reads `args` as the verb's arguments and runs the method.
    fn serve(&self, state: &S, ctx: &InvokeCtx, args: &Args) -> SydResult<Value>;
}

/// A service's method table: `&[&Method::verb(..), ..]`, built once per
/// process and served by every device (and proxy replica) that offers it.
pub type Methods<S> = [&'static dyn Handler<S>];

/// The handler of one [`Verb`]: `serve` is handed the verb's arguments,
/// already read (a missing or mistyped one never reaches it), and answers
/// the verb's reply type.
pub struct Method<S, A, R, F> {
    verb: Verb<A, R>,
    serve: F,
    state: PhantomData<fn(&S)>,
}

impl<S, A: Params, R: AsValue, F> Method<S, A, R, F>
where
    F: for<'a> Fn(&S, &InvokeCtx, A::View<'a>) -> SydResult<R>,
{
    /// `verb`, answered by `serve` from the service's state.
    pub const fn verb(verb: Verb<A, R>, serve: F) -> Self {
        Method {
            verb,
            serve,
            state: PhantomData,
        }
    }
}

impl<S, A: Params, R: AsValue, F> Handler<S> for Method<S, A, R, F>
where
    F: for<'a> Fn(&S, &InvokeCtx, A::View<'a>) -> SydResult<R> + Sync,
{
    fn name(&self) -> &'static str {
        self.verb.name
    }

    fn serve(&self, state: &S, ctx: &InvokeCtx, args: &Args) -> SydResult<Value> {
        (self.serve)(state, ctx, A::parse(args)?).map(R::into_value)
    }
}

/// A served table with its state's type erased.
trait Served: Send + Sync {
    /// Runs `method`, or `None` when the table has no such method.
    fn call(&self, method: &str, ctx: &InvokeCtx, args: &Args) -> Option<SydResult<Value>>;
    /// The table's method names, in table order.
    fn names(&self) -> Vec<&'static str>;
}

struct Table<S: 'static> {
    state: Weak<S>,
    methods: &'static Methods<S>,
}

impl<S: Send + Sync + 'static> Served for Table<S> {
    fn call(&self, method: &str, ctx: &InvokeCtx, args: &Args) -> Option<SydResult<Value>> {
        let handler = self.methods.iter().find(|m| m.name() == method)?;
        Some(match self.state.upgrade() {
            Some(state) => handler.serve(&state, ctx, args),
            None => Err(SydError::Shutdown),
        })
    }

    fn names(&self) -> Vec<&'static str> {
        self.methods.iter().map(|m| m.name()).collect()
    }
}

/// The per-device service tables and request dispatcher.
pub struct Listener {
    /// One entry per served service; a device serves a handful.
    services: RwLock<Vec<(ServiceName, Arc<dyn Served>)>>,
    auth: Option<Arc<Authenticator>>,
    /// "listener.dispatch" and "listener.auth_failures".
    dispatches: Counter,
    auth_failures: Counter,
}

impl Listener {
    /// Creates a listener counting into `registry`. With
    /// `Some(authenticator)` every request must carry valid credentials;
    /// with `None` requests are trusted (the paper's prototype also ran in
    /// both modes during development).
    pub fn new(auth: Option<Arc<Authenticator>>, registry: &Registry) -> Listener {
        Listener {
            services: RwLock::new(Rank::Engine, Vec::new()),
            auth,
            dispatches: registry.counter(names::LISTENER_DISPATCH),
            auth_failures: registry.counter(names::LISTENER_AUTH_FAILURES),
        }
    }

    /// Serves `service` with the methods of `table`, each answering from
    /// `state`, and replaces any table the service had. The listener holds
    /// `state` weakly: once its owner drops it, the service answers
    /// `Shutdown`.
    pub fn serve<S: Send + Sync + 'static>(
        &self,
        service: &ServiceName,
        state: &Arc<S>,
        table: &'static Methods<S>,
    ) {
        let served: Arc<dyn Served> = Arc::new(Table {
            state: Arc::downgrade(state),
            methods: table,
        });
        let mut services = self.services.write();
        match services.iter_mut().find(|(s, _)| s == service) {
            Some((_, entry)) => *entry = served,
            None => services.push((service.clone(), served)),
        }
    }

    /// All served `(service, method)` pairs, sorted.
    pub fn registered(&self) -> Vec<(String, String)> {
        let services = self.services.read();
        let mut v: Vec<_> = services
            .iter()
            .flat_map(|(service, table)| {
                let names = table.names().into_iter();
                names.map(|m| (service.as_str().to_owned(), m.to_owned()))
            })
            .collect();
        v.sort();
        v
    }

    /// Dispatches one request: authenticate, look up, invoke.
    pub fn dispatch(&self, from: NodeAddr, req: &Request) -> SydResult<Value> {
        self.dispatches.inc();
        let ctx = match &self.auth {
            Some(auth) => {
                let caller = auth
                    .verify(&req.credentials)
                    .inspect_err(|_| self.auth_failures.inc())?;
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
        // The method runs with no lock held: it may call out.
        let table = {
            let services = self.services.read();
            let entry = services.iter().find(|(s, _)| *s == req.service);
            entry.map(|(_, table)| Arc::clone(table))
        };
        let out = table.and_then(|table| table.call(req.method.as_str(), &ctx, &req.args));
        out.unwrap_or_else(|| {
            Err(SydError::NoSuchService(
                req.service.clone(),
                req.method.to_string(),
            ))
        })
    }
}

impl RequestHandler for Listener {
    fn handle(&self, from: NodeAddr, request: Request) -> SydResult<Value> {
        self.dispatch(from, &request)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use syd_crypto::Credentials;
    use syd_types::RequestId;

    fn request(service: &str, method: &str, credentials: &[u8]) -> Request {
        Request {
            id: RequestId::new(1),
            caller: UserId::new(42),
            target: UserId::default(),
            credentials: credentials.into(),
            service: ServiceName::new(service),
            method: method.into(),
            args: vec![Value::I64(5)].into(),
            trace: None,
        }
    }

    const SVC: &ServiceName = &ServiceName::constant("svc");
    const ECHO: Verb<(Value,), (UserId, bool, Value)> = Verb::new(SVC, "echo");

    /// `echo` answers who called, whether that was verified, and its
    /// argument; it notes in its state that it ran.
    static ECHO_TABLE: &Methods<AtomicBool> =
        &[&Method::verb(ECHO, |ran: &AtomicBool, ctx, (arg,)| {
            ran.store(true, Ordering::SeqCst);
            Ok((ctx.caller, ctx.authenticated, arg.clone()))
        })];

    fn echo_listener(auth: Option<Arc<Authenticator>>) -> (Listener, Arc<AtomicBool>) {
        let listener = Listener::new(auth, &Registry::new());
        let ran = Arc::new(AtomicBool::new(false));
        listener.serve(SVC, &ran, ECHO_TABLE);
        (listener, ran)
    }

    #[test]
    fn unauthenticated_mode_trusts_claimed_caller() {
        let (listener, _ran) = echo_listener(None);
        let out = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", &[]))
            .unwrap();
        assert_eq!(
            out,
            Value::list([Value::I64(42), Value::Bool(false), Value::I64(5)])
        );
    }

    #[test]
    fn authenticated_mode_uses_verified_identity() {
        let auth = Arc::new(Authenticator::from_passphrase("k"));
        auth.table().authorize(UserId::new(7), "pw");
        let (listener, _ran) = echo_listener(Some(Arc::clone(&auth)));

        let blob = auth.seal(&Credentials::new(UserId::new(7), "pw"), [1; 8]);
        let out = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", &blob))
            .unwrap();
        // The verified user (7) wins over the claimed caller (42).
        assert_eq!(
            out,
            Value::list([Value::I64(7), Value::Bool(true), Value::I64(5)])
        );
    }

    #[test]
    fn bad_credentials_rejected_before_dispatch() {
        let auth = Arc::new(Authenticator::from_passphrase("k"));
        auth.table().authorize(UserId::new(7), "pw");
        let (listener, ran) = echo_listener(Some(Arc::clone(&auth)));
        let err = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", &[1, 2, 3]))
            .unwrap_err();
        assert!(matches!(err, SydError::AuthFailed(_)), "{err}");
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn wrong_password_names_claimed_user() {
        let auth = Arc::new(Authenticator::from_passphrase("k"));
        auth.table().authorize(UserId::new(7), "pw");
        let listener = Listener::new(Some(Arc::clone(&auth)), &Registry::new());
        let blob = auth.seal(&Credentials::new(UserId::new(7), "wrong"), [1; 8]);
        let err = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", &blob))
            .unwrap_err();
        assert_eq!(err, SydError::AuthFailed(UserId::new(7)));
    }

    #[test]
    fn missing_method_reported() {
        let (listener, _ran) = echo_listener(None);
        for (service, method) in [("svc", "nope"), ("other", "echo")] {
            let err = listener
                .dispatch(NodeAddr::new(1), &request(service, method, &[]))
                .unwrap_err();
            assert!(matches!(err, SydError::NoSuchService(_, _)), "{err}");
        }
    }

    const M: Verb<(), i64> = Verb::new(SVC, "m");
    const N: Verb<(), i64> = Verb::new(SVC, "n");
    static ONE: &Methods<()> = &[&Method::verb(M, |(), _, ()| Ok(1))];
    static TWO: &Methods<()> = &[
        &Method::verb(M, |(), _, ()| Ok(2)),
        &Method::verb(N, |(), _, ()| Ok(3)),
    ];

    /// Serving a service again replaces its whole table.
    #[test]
    fn register_replace_unregister() {
        let listener = Listener::new(None, &Registry::new());
        let (svc, state) = (ServiceName::new("svc"), Arc::new(()));
        listener.serve(&svc, &state, ONE);
        listener.serve(&svc, &state, TWO);
        assert_eq!(
            listener.registered(),
            vec![
                ("svc".to_owned(), "m".to_owned()),
                ("svc".to_owned(), "n".to_owned())
            ]
        );
        let out = listener
            .dispatch(NodeAddr::new(1), &request("svc", "m", &[]))
            .unwrap();
        assert_eq!(out, Value::I64(2));
    }

    #[test]
    fn a_dropped_state_answers_shutdown() {
        let (listener, ran) = echo_listener(None);
        drop(ran);
        let err = listener
            .dispatch(NodeAddr::new(1), &request("svc", "echo", &[]))
            .unwrap_err();
        assert_eq!(err, SydError::Shutdown);
        let err = listener
            .dispatch(NodeAddr::new(1), &request("svc", "nope", &[]))
            .unwrap_err();
        assert!(matches!(err, SydError::NoSuchService(_, _)), "{err}");
    }
}
