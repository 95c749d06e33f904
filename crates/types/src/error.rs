//! Unified error type for every SyD layer.
//!
//! Errors cross the simulated network, so [`SydError`] is cheap to construct,
//! `Clone`, and round-trips through the wire codec: `syd-wire` writes a tag
//! byte per variant, then the variant's fields.

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
}
