//! Compact binary wire format for SyD messages.
//!
//! The paper's prototype used raw TCP sockets "for small foot-print and
//! maximum flexibility" (§3.1) rather than a heavyweight serialization
//! stack. This crate is the equivalent substrate: a hand-rolled,
//! length-prefixed, varint-based codec over plain byte vectors, with no
//! reflection and no allocation beyond the decoded values themselves.
//!
//! Two layers:
//!
//! * [`codec`] — [`Encode`]/[`Decode`] traits and implementations for
//!   primitives, collections and every `syd-types` type.
//! * [`envelope`] — the message envelopes that actually travel between
//!   device endpoints: requests, responses and events.
//!
//! Every encoding starts from the message itself; framing (length prefix on
//! a stream) is the transport's concern. The format is canonical: encoding
//! a decoded message yields identical bytes, which the tests enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod codec;
pub mod envelope;

pub use args::Args;
pub use codec::{decode_from_slice, encode_to_vec, Decode, Encode, Reader};
pub use envelope::{Envelope, EventMsg, Payload, Request, Response, TraceContext};
