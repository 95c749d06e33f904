//! SyDListener: service registration and authenticated dispatch (§3.1b).
//!
//! "SyDListener enables SyD device objects to publish services … as
//! listeners locally on the device and globally via directory services."
//! Locally, this is a registry from `(service, method)` to a handler
//! closure; globally, [`crate::device::DeviceRuntime`] publishes each
//! service name in the SyDDirectory once, with the service's first method
//! — the directory lists services, the listener alone knows methods.
//!
//! Every inbound request is authenticated first when the deployment runs
//! with security enabled (§5.4): the TEA credential blob is decrypted and
//! checked against the device's authorized-user table *before* the method
//! runs, and the authenticated user (not the claimed `caller` field) is
//! what the handler sees.

use std::collections::HashMap;
use std::sync::Arc;

use syd_crypto::Authenticator;
use syd_net::RequestHandler;
use syd_telemetry::names;
use syd_telemetry::{Counter, Registry};
use syd_types::sync::RwLock;
use syd_types::{NodeAddr, ServiceName, SydError, SydResult, UserId, Value};
use syd_wire::Request;

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

/// A registered service method.
pub type ServiceMethod = Arc<dyn Fn(&InvokeCtx, &[Value]) -> SydResult<Value> + Send + Sync>;

struct ListenerState {
    /// Service → method → handler, so a lookup borrows both names.
    methods: HashMap<String, HashMap<String, ServiceMethod>>,
}

/// Preregistered dispatch counters (see [`Listener::attach_metrics`]).
struct ListenerMetrics {
    dispatches: Counter,
    auth_failures: Counter,
}

/// The per-device service registry and request dispatcher.
pub struct Listener {
    state: RwLock<ListenerState>,
    auth: Option<Arc<Authenticator>>,
    metrics: RwLock<Option<ListenerMetrics>>,
}

impl Listener {
    /// Creates a listener. With `Some(authenticator)` every request must
    /// carry valid credentials; with `None` requests are trusted (the
    /// paper's prototype also ran in both modes during development).
    pub fn new(auth: Option<Arc<Authenticator>>) -> Listener {
        Listener {
            state: RwLock::new(ListenerState {
                methods: HashMap::new(),
            }),
            auth,
            metrics: RwLock::new(None),
        }
    }

    /// Attaches dispatch counters ("listener.dispatch",
    /// "listener.auth_failures") to `registry`. Handles are resolved once
    /// here, not per request.
    pub fn attach_metrics(&self, registry: &Registry) {
        *self.metrics.write() = Some(ListenerMetrics {
            dispatches: registry.counter(names::LISTENER_DISPATCH),
            auth_failures: registry.counter(names::LISTENER_AUTH_FAILURES),
        });
    }

    /// Registers (or replaces) a method under `service`.
    pub fn register(&self, service: &ServiceName, method: &str, handler: ServiceMethod) {
        self.state
            .write()
            .methods
            .entry(service.as_str().to_owned())
            .or_default()
            .insert(method.to_owned(), handler);
    }

    /// Unregisters a method.
    pub fn unregister(&self, service: &ServiceName, method: &str) {
        if let Some(methods) = self.state.write().methods.get_mut(service.as_str()) {
            methods.remove(method);
        }
    }

    /// All registered `(service, method)` pairs, sorted.
    pub fn registered(&self) -> Vec<(String, String)> {
        let state = self.state.read();
        let mut v: Vec<_> = state
            .methods
            .iter()
            .flat_map(|(service, methods)| methods.keys().map(|m| (service.clone(), m.clone())))
            .collect();
        v.sort();
        v
    }

    /// Dispatches one request: authenticate, look up, invoke.
    pub fn dispatch(&self, from: NodeAddr, req: &Request) -> SydResult<Value> {
        if let Some(m) = &*self.metrics.read() {
            m.dispatches.inc();
        }
        let ctx = match &self.auth {
            Some(auth) => {
                let caller = match auth.verify(&req.credentials) {
                    Ok(caller) => caller,
                    Err(err) => {
                        if let Some(m) = &*self.metrics.read() {
                            m.auth_failures.inc();
                        }
                        return Err(err);
                    }
                };
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
        let handler = {
            let state = self.state.read();
            state
                .methods
                .get(req.service.as_str())
                .and_then(|methods| methods.get(req.method.as_str()))
                .cloned()
        };
        match handler {
            Some(h) => h(&ctx, &req.args),
            None => Err(SydError::NoSuchService(
                req.service.clone(),
                req.method.clone(),
            )),
        }
    }
}

/// Adapter wiring a [`Listener`] into a network node.
pub struct ListenerHandler(pub Arc<Listener>);

impl RequestHandler for ListenerHandler {
    fn handle(&self, from: NodeAddr, request: Request) -> SydResult<Value> {
        self.0.dispatch(from, &request)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use syd_crypto::Credentials;
    use syd_types::RequestId;

    fn request(service: &str, method: &str, credentials: Vec<u8>) -> Request {
        Request {
            id: RequestId::new(1),
            caller: UserId::new(42),
            target: UserId::default(),
            credentials,
            service: ServiceName::new(service),
            method: method.to_owned(),
            args: vec![Value::I64(5)].into(),
            trace: None,
        }
    }

    fn echo_method() -> ServiceMethod {
        Arc::new(|ctx: &InvokeCtx, args: &[Value]| {
            Ok(Value::list([
                Value::from(ctx.caller.raw()),
                Value::Bool(ctx.authenticated),
                args[0].clone(),
            ]))
        })
    }

    #[test]
    fn unauthenticated_mode_trusts_claimed_caller() {
        let listener = Listener::new(None);
        listener.register(&ServiceName::new("svc"), "echo", echo_method());
        let out = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", vec![]))
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
        let listener = Listener::new(Some(Arc::clone(&auth)));
        listener.register(&ServiceName::new("svc"), "echo", echo_method());

        let blob = auth.seal(&Credentials::new(UserId::new(7), "pw"), [1; 8]);
        let out = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", blob))
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
        let listener = Listener::new(Some(Arc::clone(&auth)));
        let called = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let called_clone = Arc::clone(&called);
        listener.register(
            &ServiceName::new("svc"),
            "echo",
            Arc::new(move |_, _| {
                called_clone.store(true, std::sync::atomic::Ordering::SeqCst);
                Ok(Value::Null)
            }),
        );
        let err = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", vec![1, 2, 3]))
            .unwrap_err();
        assert!(matches!(err, SydError::AuthFailed(_)), "{err}");
        assert!(!called.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn wrong_password_names_claimed_user() {
        let auth = Arc::new(Authenticator::from_passphrase("k"));
        auth.table().authorize(UserId::new(7), "pw");
        let listener = Listener::new(Some(Arc::clone(&auth)));
        let blob = auth.seal(&Credentials::new(UserId::new(7), "wrong"), [1; 8]);
        let err = listener
            .dispatch(NodeAddr::new(9), &request("svc", "echo", blob))
            .unwrap_err();
        assert_eq!(err, SydError::AuthFailed(UserId::new(7)));
    }

    #[test]
    fn missing_method_reported() {
        let listener = Listener::new(None);
        let err = listener
            .dispatch(NodeAddr::new(1), &request("svc", "nope", vec![]))
            .unwrap_err();
        assert!(matches!(err, SydError::NoSuchService(_, _)));
    }

    #[test]
    fn register_replace_unregister() {
        let listener = Listener::new(None);
        let svc = ServiceName::new("svc");
        listener.register(&svc, "m", Arc::new(|_, _| Ok(Value::I64(1))));
        listener.register(&svc, "m", Arc::new(|_, _| Ok(Value::I64(2))));
        listener.register(&svc, "n", Arc::new(|_, _| Ok(Value::I64(3))));
        assert_eq!(
            listener.registered(),
            vec![
                ("svc".to_owned(), "m".to_owned()),
                ("svc".to_owned(), "n".to_owned())
            ]
        );
        let out = listener
            .dispatch(NodeAddr::new(1), &request("svc", "m", vec![]))
            .unwrap();
        assert_eq!(out, Value::I64(2));
        listener.unregister(&svc, "m");
        assert!(listener
            .dispatch(NodeAddr::new(1), &request("svc", "m", vec![]))
            .is_err());
    }
}
