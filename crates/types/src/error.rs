//! Unified error type for every SyD layer.
//!
//! Errors cross the simulated network, so [`SydError`] is cheap to construct,
//! `Clone`, and round-trips through the wire codec via a stable
//! `(kind, message)` projection (see [`SydError::kind_code`] and
//! [`SydError::from_wire`]).

use core::fmt;

use crate::id::{LinkId, NodeAddr, RequestId, ServiceName, UserId};

/// Result alias used throughout the workspace.
pub type SydResult<T> = Result<T, SydError>;

/// Any failure produced by the SyD middleware or its substrates.
#[derive(Clone, Debug, PartialEq)]
pub enum SydError {
    // ---- transport (syd-net) ----
    /// Destination endpoint is not registered on the network.
    Unreachable(NodeAddr),
    /// Destination is registered but currently disconnected and has no proxy.
    Disconnected(NodeAddr),
    /// An RPC did not complete within its deadline.
    Timeout(RequestId),
    /// The network (or a device runtime) has been shut down.
    Shutdown,

    // ---- codec / protocol (syd-wire) ----
    /// Malformed bytes on the wire.
    Codec(String),
    /// Structurally valid but semantically wrong message (bad arity, missing
    /// field, unexpected reply…).
    Protocol(String),

    // ---- store (syd-store) ----
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced column does not exist in the table's schema.
    NoSuchColumn(String),
    /// Row value violates the schema (wrong type / arity / uniqueness).
    SchemaViolation(String),
    /// A row lock could not be acquired within the bounded wait.
    LockTimeout(String),
    /// The enclosing transaction was aborted (deadlock avoidance, explicit
    /// rollback, or trigger veto).
    TxnAborted(String),

    // ---- kernel (syd-core) ----
    /// Name not found in the SyDDirectory.
    NotRegistered(String),
    /// Service/method not registered with the SyDListener.
    NoSuchService(ServiceName, String),
    /// A negotiation constraint (and / or / xor / k-of-n) was not satisfied.
    ConstraintFailed(String),
    /// Link operation referenced a link that does not exist.
    NoSuchLink(LinkId),
    /// Authentication failed (§5.4: unknown user or bad credentials).
    AuthFailed(UserId),

    // ---- applications ----
    /// Application-level failure with a human-readable message.
    App(String),
}

impl SydError {
    /// Builds the canonical type-mismatch error used by [`crate::Value`]
    /// accessors.
    pub fn type_mismatch(expected: &str, got: &str) -> Self {
        SydError::Protocol(format!("type mismatch: expected {expected}, got {got}"))
    }

    /// True for failures that are transient from the caller's perspective
    /// (worth retrying at the RPC layer): timeouts, lock timeouts and
    /// disconnections that a proxy may shortly absorb.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SydError::Timeout(_) | SydError::LockTimeout(_) | SydError::Disconnected(_)
        )
    }

    /// True when no answer came back, so the callee may or may not have
    /// acted: a transient failure, or an address that could not be
    /// reached. The call is worth sending again, and only then.
    pub fn is_unanswered(&self) -> bool {
        self.is_transient() || matches!(self, SydError::Unreachable(_))
    }

    /// Stable numeric code identifying the error kind on the wire.
    pub fn kind_code(&self) -> u8 {
        match self {
            SydError::Unreachable(_) => 1,
            SydError::Disconnected(_) => 2,
            SydError::Timeout(_) => 3,
            SydError::Shutdown => 4,
            SydError::Codec(_) => 5,
            SydError::Protocol(_) => 6,
            SydError::NoSuchTable(_) => 7,
            SydError::NoSuchColumn(_) => 8,
            SydError::SchemaViolation(_) => 9,
            SydError::LockTimeout(_) => 10,
            SydError::TxnAborted(_) => 11,
            SydError::NotRegistered(_) => 12,
            SydError::NoSuchService(_, _) => 13,
            SydError::ConstraintFailed(_) => 14,
            SydError::NoSuchLink(_) => 15,
            SydError::AuthFailed(_) => 16,
            SydError::App(_) => 17,
        }
    }

    /// Message component carried on the wire next to [`Self::kind_code`].
    pub fn wire_message(&self) -> String {
        match self {
            SydError::Unreachable(addr) | SydError::Disconnected(addr) => addr.raw().to_string(),
            SydError::Timeout(req) => req.raw().to_string(),
            SydError::Shutdown => String::new(),
            SydError::Codec(m)
            | SydError::Protocol(m)
            | SydError::NoSuchTable(m)
            | SydError::NoSuchColumn(m)
            | SydError::SchemaViolation(m)
            | SydError::LockTimeout(m)
            | SydError::TxnAborted(m)
            | SydError::NotRegistered(m)
            | SydError::ConstraintFailed(m)
            | SydError::App(m) => m.clone(),
            SydError::NoSuchService(svc, method) => format!("{svc}/{method}"),
            SydError::NoSuchLink(id) => id.raw().to_string(),
            SydError::AuthFailed(user) => user.raw().to_string(),
        }
    }

    /// Reconstructs an error from its wire projection. Unknown codes decode
    /// as [`SydError::Protocol`] so old peers never panic on new errors.
    pub fn from_wire(code: u8, message: String) -> Self {
        fn num(message: &str) -> u64 {
            message.parse().unwrap_or(0)
        }
        match code {
            1 => SydError::Unreachable(NodeAddr::new(num(&message))),
            2 => SydError::Disconnected(NodeAddr::new(num(&message))),
            3 => SydError::Timeout(RequestId::new(num(&message))),
            4 => SydError::Shutdown,
            5 => SydError::Codec(message),
            6 => SydError::Protocol(message),
            7 => SydError::NoSuchTable(message),
            8 => SydError::NoSuchColumn(message),
            9 => SydError::SchemaViolation(message),
            10 => SydError::LockTimeout(message),
            11 => SydError::TxnAborted(message),
            12 => SydError::NotRegistered(message),
            13 => match message.split_once('/') {
                Some((svc, method)) => {
                    SydError::NoSuchService(ServiceName::new(svc), method.to_owned())
                }
                None => SydError::NoSuchService(ServiceName::new(message), String::new()),
            },
            14 => SydError::ConstraintFailed(message),
            15 => SydError::NoSuchLink(LinkId::new(num(&message))),
            16 => SydError::AuthFailed(UserId::new(num(&message))),
            17 => SydError::App(message),
            other => SydError::Protocol(format!("unknown error code {other}: {message}")),
        }
    }
}

impl fmt::Display for SydError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SydError::Unreachable(addr) => write!(f, "endpoint {addr} is not on the network"),
            SydError::Disconnected(addr) => write!(f, "endpoint {addr} is disconnected"),
            SydError::Timeout(req) => write!(f, "request {req} timed out"),
            SydError::Shutdown => f.write_str("network is shut down"),
            SydError::Codec(m) => write!(f, "codec error: {m}"),
            SydError::Protocol(m) => write!(f, "protocol error: {m}"),
            SydError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            SydError::NoSuchColumn(c) => write!(f, "no such column `{c}`"),
            SydError::SchemaViolation(m) => write!(f, "schema violation: {m}"),
            SydError::LockTimeout(m) => write!(f, "lock timeout: {m}"),
            SydError::TxnAborted(m) => write!(f, "transaction aborted: {m}"),
            SydError::NotRegistered(n) => write!(f, "`{n}` is not registered in the directory"),
            SydError::NoSuchService(svc, method) => {
                write!(f, "no service `{svc}` with method `{method}`")
            }
            SydError::ConstraintFailed(m) => write!(f, "negotiation constraint failed: {m}"),
            SydError::NoSuchLink(id) => write!(f, "no such link {id}"),
            SydError::AuthFailed(user) => write!(f, "authentication failed for {user}"),
            SydError::App(m) => write!(f, "application error: {m}"),
        }
    }
}

impl std::error::Error for SydError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn all_samples() -> Vec<SydError> {
        vec![
            SydError::Unreachable(NodeAddr::new(4)),
            SydError::Disconnected(NodeAddr::new(5)),
            SydError::Timeout(RequestId::new(6)),
            SydError::Shutdown,
            SydError::Codec("bad byte".into()),
            SydError::Protocol("arity".into()),
            SydError::NoSuchTable("slots".into()),
            SydError::NoSuchColumn("day".into()),
            SydError::SchemaViolation("dup key".into()),
            SydError::LockTimeout("slot 3".into()),
            SydError::TxnAborted("veto".into()),
            SydError::NotRegistered("phil".into()),
            SydError::NoSuchService(ServiceName::new("calendar"), "reserve".into()),
            SydError::ConstraintFailed("xor got 2".into()),
            SydError::NoSuchLink(LinkId::new(8)),
            SydError::AuthFailed(UserId::new(9)),
            SydError::App("quorum".into()),
        ]
    }

    #[test]
    fn wire_round_trip_preserves_every_kind() {
        for err in all_samples() {
            let back = SydError::from_wire(err.kind_code(), err.wire_message());
            assert_eq!(back, err);
        }
    }

    #[test]
    fn kind_codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for err in all_samples() {
            assert!(seen.insert(err.kind_code()), "duplicate code for {err:?}");
        }
    }

    #[test]
    fn unknown_code_degrades_to_protocol_error() {
        let e = SydError::from_wire(200, "future".into());
        assert!(matches!(e, SydError::Protocol(_)));
        assert!(e.to_string().contains("200"));
    }

    #[test]
    fn transient_classification() {
        assert!(SydError::Timeout(RequestId::new(1)).is_transient());
        assert!(SydError::LockTimeout("x".into()).is_transient());
        assert!(SydError::Disconnected(NodeAddr::new(1)).is_transient());
        assert!(!SydError::Shutdown.is_transient());
        assert!(!SydError::AuthFailed(UserId::new(1)).is_transient());
    }

    #[test]
    fn display_mentions_key_detail() {
        assert!(SydError::NoSuchTable("slots".into())
            .to_string()
            .contains("slots"));
        assert!(SydError::NoSuchService(ServiceName::new("cal"), "m".into())
            .to_string()
            .contains("cal"));
    }

    #[test]
    fn no_such_service_without_slash_decodes() {
        let e = SydError::from_wire(13, "plain".into());
        assert_eq!(
            e,
            SydError::NoSuchService(ServiceName::new("plain"), String::new())
        );
    }
}
