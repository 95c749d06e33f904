//! Embedded per-device relational store — the Oracle 8i stand-in.
//!
//! Every SyD device in the paper embeds its own database: "Each user has a
//! database embedded in his/her device" (§5.1), with Oracle triggers and
//! Java stored procedures providing the event-based update path (§5.3).
//! This crate provides the equivalent substrate:
//!
//! * typed [`Schema`]s with optional primary keys and secondary indexes,
//! * a [`Predicate`] language and a small [`Query`] builder (filter /
//!   order-by / limit) standing in for the prototype's SQL,
//! * **row-level locks** with bounded waits — the `Mark X and Lock X`
//!   primitive that §4.3's negotiation semantics are written in,
//! * explicit [`Txn`] transactions with undo logs (commit/rollback),
//! * an **ECA trigger engine** ([`Trigger`]): `before` triggers may veto a
//!   mutation, `after` triggers observe it — the same event-condition-action
//!   shape as the paper's Oracle trigger + Java stored procedure route, and
//! * binary snapshots through the `syd-wire` codec for device persistence.
//!
//! Like the prototype, the store is **local** to one device; cross-device
//! coordination belongs to the SyD kernel above (`syd-core`), which builds
//! the link tables (`SyD_Link`, `SyD_WaitingLink`, `SyD_LinkMethod`, §4.2)
//! on this engine.
//!
//! Ownership: a stored row is an immutable, shared `Arc<[Value]>` and a
//! table's schema an `Arc<Schema>`. Reads hand out reference-count bumps,
//! a write replaces the row with one built once per statement, and a
//! [`Row`] a caller holds is a snapshot no later statement can change.
//!
//! Isolation: single statements are atomic and serialized per table;
//! transactions take exclusive row locks (2PL) and undo on rollback.
//! Readers do not block and may observe uncommitted writes ("read
//! uncommitted") — faithful to the prototype, whose coordination relied on
//! explicit mark/status columns rather than SQL isolation, which is exactly
//! how `syd-core` uses this store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod key;
pub mod lock;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod snapshot;
pub mod store;
pub mod table;
pub mod trigger;
pub mod txn;

pub use key::OrdValue;
pub use lock::{LockKey, LockManager, LockRights};
pub use predicate::Predicate;
pub use query::Query;
pub use schema::{Column, ColumnType, Schema};
pub use store::Store;
pub use table::{Row, RowId};
pub use trigger::{Trigger, TriggerCtx, TriggerEvent, TriggerTiming};
pub use txn::{Txn, TxnId};
