//! # SyD — System on Devices, in Rust
//!
//! A full reproduction of *Implementation of a Calendar Application Based
//! on SyD Coordination Links* (Prasad et al., IPDPS 2003): the SyD
//! middleware kernel, its coordination links, and the three sample
//! applications (calendar, fleet, bidding) on a simulated mobile network.
//!
//! This crate is a façade re-exporting the workspace members, plus the
//! modules it carries itself:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `syd-types` | ids, values, time, errors |
//! | [`wire`] | `syd-wire` | binary codec + message envelopes |
//! | [`transport`] | `syd-transport` | pluggable transport: simulated router + framed loopback/LAN TCP |
//! | [`net`] | `syd-net` | RPC nodes, worker pools, deadlines/retries |
//! | [`store`] | `syd-store` | embedded relational store with triggers |
//! | [`crypto`] | `syd-crypto` | TEA cipher + request authentication |
//! | [`kernel`] | `syd-core` | SyD kernel: directory, listener, engine, events, links, negotiation, proxies |
//! | [`check`] | `syd-check` | protocol invariant checker: journal replay, lock-leak and double-book oracles |
//! | [`calendar`] | `syd-calendar` | the calendar-of-meetings application |
//! | [`trace`] | `syd-trace` | timed span trees, cross-device assembly, critical-path attribution |
//! | [`obs`] | (this crate) | one-shot span-ring snapshot (`sydtop`-style) |
//! | [`fleet`] | (this crate) | vehicle fleet application (Figure 2) |
//! | [`bidding`] | (this crate) | price-is-right application (Figure 2) |
//!
//! ## Quickstart
//!
//! ```
//! use syd::kernel::SydEnv;
//! use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
//! use syd::net::NetConfig;
//! use syd::types::TimeSlot;
//!
//! // A deployment: simulated network + directory + TEA authentication.
//! let env = SydEnv::new(NetConfig::ideal(), "deployment passphrase");
//! let phil = CalendarApp::install(&env.device("phil", "pw-phil").unwrap()).unwrap();
//! let andy = CalendarApp::install(&env.device("andy", "pw-andy").unwrap()).unwrap();
//!
//! // Phil calls a meeting with Andy; both are free, so it confirms.
//! let outcome = phil
//!     .schedule(MeetingSpec::plain("design review", TimeSlot::new(1, 14), vec![andy.user()]))
//!     .unwrap();
//! assert_eq!(outcome.status, MeetingStatus::Confirmed);
//! ```

#![forbid(unsafe_code)]

pub mod bidding;
pub mod fleet;
pub mod obs;

pub use syd_calendar as calendar;
pub use syd_check as check;
pub use syd_core as kernel;
pub use syd_crypto as crypto;
pub use syd_net as net;
pub use syd_store as store;
pub use syd_trace as trace;
pub use syd_transport as transport;
pub use syd_types as types;
pub use syd_wire as wire;
