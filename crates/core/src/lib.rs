//! The SyD Kernel — the paper's contribution (Figures 1–3), in Rust.
//!
//! System on Devices (SyD) is middleware that lets independent per-device
//! data stores collaborate without a global schema. The kernel has the five
//! modules of §3.1 plus the coordination-link machinery of §4:
//!
//! | paper module      | here                  | role |
//! |-------------------|-----------------------|------|
//! | SyDDirectory      | [`directory`]         | user/group/service publishing, lookup, proxy maintenance |
//! | SyDListener       | [`listener`]          | serves a device's service tables, authenticates and dispatches remote invocations |
//! | SyDEngine         | [`engine`]            | single and group remote invocation, result aggregation |
//! | SyDEventHandler   | [`events`]            | local/global event registration, periodic tasks (link expiry) |
//! | SyDLinks          | [`links`]             | coordination links: subscription & negotiation, tentative/permanent, priority, waiting-link promotion, cascade delete, expiry, method coupling |
//!
//! Supporting pieces: [`negotiate`] implements §4.3's mark/lock → change
//! protocol (the distributed transaction under negotiation links),
//! [`device`] assembles a full SyD device (store + listener + links +
//! events on one network node), [`proxy`] provides §5.2's proxy takeover
//! for disconnected devices, and [`mod@env`] wires a whole deployment together
//! (network, directory, authenticator, clock).
//!
//! ```no_run
//! use syd_core::env::SydEnv;
//! use syd_net::NetConfig;
//!
//! let env = SydEnv::new(NetConfig::ideal(), "deployment passphrase");
//! let phil = env.device("phil", "phils-password").unwrap();
//! let andy = env.device("andy", "andys-password").unwrap();
//! // phil's applications can now publish services, create coordination
//! // links to andy, and invoke andy's services by user id alone.
//! # drop((phil, andy));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod directory;
pub mod engine;
pub mod env;
pub mod events;
pub mod links;
pub mod listener;
pub mod negotiate;
pub mod proxy;

pub use device::{DeviceRuntime, EntityHandler, SubscriptionHandler};
pub use directory::{DirectoryClient, DirectoryServer, GroupInfo, UserRecord};
pub use engine::{Call, GroupResult, SydEngine};
pub use env::SydEnv;
pub use events::EventHandler;
pub use links::{Constraint, Link, LinkKind, LinkRef, LinkStatus, LinksModule, WaitingEntry};
pub use listener::{InvokeCtx, Listener, Method};
pub use negotiate::{NegotiationOutcome, Negotiator, Participant};
pub use proxy::ProxyHost;
