//! Common vocabulary types for the SyD middleware.
//!
//! System on Devices (SyD) coordinates heterogeneous, independent per-device
//! data stores (Prasad et al., *Implementation of a Calendar Application
//! Based on SyD Coordination Links*, IPDPS 2003). Every layer of this
//! reproduction — the simulated network, the embedded store, the kernel and
//! the applications — shares the identifiers, dynamic values, clocks and
//! error types defined here.
//!
//! The crate depends on nothing but `std`: it must be usable from the
//! lowest substrate (the wire codec) upward, and it is where the
//! workspace keeps the few primitives it would otherwise import — locks
//! that ignore poisoning ([`sync`]), the one channel ([`queue`]) and the
//! one seeded generator with its property-test runner ([`rng`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod constraint;
pub mod error;
pub mod id;
pub mod priority;
pub mod queue;
pub mod rng;
pub mod sync;
pub mod time;
pub mod value;

pub use bitmap::SlotBitmap;
pub use constraint::Constraint;
pub use error::{SydError, SydResult};
pub use id::{DeviceId, GroupId, LinkId, MeetingId, NodeAddr, RequestId, ServiceName, UserId};
pub use priority::Priority;
pub use time::{Clock, Day, SimClock, SlotIndex, SlotRange, SystemClock, TimeSlot, Timestamp};
pub use value::Value;
