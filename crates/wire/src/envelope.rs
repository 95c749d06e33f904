//! Message envelopes exchanged between SyD endpoints.
//!
//! Three payload kinds cover everything in the paper's runtime (Fig. 3):
//!
//! * [`Request`] — a remote method invocation dispatched by the SyDEngine
//!   and served by a SyDListener. Carries encrypted credentials (§5.4).
//! * [`Response`] — the correlated reply.
//! * [`EventMsg`] — a fire-and-forget global event published through the
//!   SyDEventHandler (link triggers, proxy heartbeats, mailbox pushes).
//!
//! An [`Envelope`] adds source/destination addressing for the simulated
//! network; a version byte leads every encoding so future formats can
//! coexist.

use syd_types::{Blob, NodeAddr, RequestId, ServiceName, SydError, SydResult, Text, UserId, Value};

use crate::args::Args;
use crate::codec::{encoded_len, put_varint, Decode, Encode, Reader, Sink};

/// Wire format version tag.
pub const WIRE_VERSION: u8 = 1;

/// Marker byte introducing an optional trailing [`TraceContext`] on a
/// [`Request`].
const TRACE_MARKER: u8 = 1;

/// Distributed trace context carried on requests (see `syd-telemetry`).
///
/// The context is encoded as an *optional trailing extension* of
/// [`Request`]: a request without one encodes to exactly the bytes the
/// pre-trace format produced (keeping the format canonical), and a
/// decoder that finds no bytes after `args` yields `None`. That gives
/// two-way compatibility: old bytes decode under the new code, and
/// trace-free new bytes are byte-identical to old ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// End-to-end operation id, stable across every hop of a trace.
    pub trace_id: u64,
    /// Id of the span this request belongs to.
    pub span_id: u64,
    /// Number of RPC dispatches between the trace root and this request.
    pub hop: u32,
}

impl Encode for TraceContext {
    fn encode(&self, buf: &mut impl Sink) {
        self.trace_id.encode(buf);
        self.span_id.encode(buf);
        self.hop.encode(buf);
    }
}

impl Decode for TraceContext {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(TraceContext {
            trace_id: u64::decode(r)?,
            span_id: u64::decode(r)?,
            hop: u32::decode(r)?,
        })
    }
}

/// A remote method invocation.
///
/// `C` is where the credential blob lives. Every request the runtime
/// sends or decodes holds it inline, as a [`Blob`]; a request built by
/// hand may hold any byte container (`Vec<u8>`), and encodes to the same
/// bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Request<C = Blob> {
    /// Correlation id, unique per caller endpoint.
    pub id: RequestId,
    /// The invoking user (for auditing; authentication uses `credentials`).
    pub caller: UserId,
    /// The logical user the request is addressed to (the owner of the
    /// target service). Devices hosting a single user ignore it; a proxy
    /// hosting several disconnected users' replicas routes by it (§5.2).
    /// `UserId(0)` = unspecified.
    pub target: UserId,
    /// TEA-encrypted `user:password` envelope (§5.4); empty when the
    /// network runs with authentication disabled.
    pub credentials: C,
    /// Target service, e.g. `"calendar"`.
    pub service: ServiceName,
    /// Target method, e.g. `"reserve_slot"`.
    pub method: Text,
    /// Positional arguments, as their encoded list ([`Args`]: the bytes
    /// `Vec<Value>` encodes to). A caller's list is encoded once and shared
    /// by a whole group broadcast; a received one is the request's own
    /// copy of those bytes, which the handler reads its arguments out of.
    pub args: Args,
    /// Optional distributed trace context, encoded as a trailing
    /// extension so trace-free requests keep the pre-trace byte format.
    pub trace: Option<TraceContext>,
}

impl<C: AsRef<[u8]>> Encode for Request<C> {
    fn encode(&self, buf: &mut impl Sink) {
        self.id.encode(buf);
        self.caller.encode(buf);
        self.target.encode(buf);
        self.credentials.as_ref().encode(buf);
        self.service.encode(buf);
        self.method.encode(buf);
        self.args.encode(buf);
        // Trailing extension: nothing when absent (old-format bytes),
        // marker + context when present.
        if let Some(trace) = &self.trace {
            buf.push(TRACE_MARKER);
            trace.encode(buf);
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let id = RequestId::decode(r)?;
        let caller = UserId::decode(r)?;
        let target = UserId::decode(r)?;
        let credentials = Blob::decode(r)?;
        let service = ServiceName::decode(r)?;
        let method = Text::decode(r)?;
        // The list is checked and copied as it arrived; the trace
        // extension follows it. A request always ends its enclosing
        // frame, so any bytes left are that extension; none means an
        // old-format (or deliberately untraced) request.
        let args = Args::decode(r)?;
        let trace = if r.remaining() > 0 {
            match r.u8()? {
                TRACE_MARKER => Some(TraceContext::decode(r)?),
                other => {
                    return Err(SydError::Codec(format!(
                        "invalid request extension marker {other}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Request {
            id,
            caller,
            target,
            credentials,
            service,
            method,
            args,
            trace,
        })
    }
}

/// Reply to a [`Request`] with the same `id`.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Correlation id copied from the request.
    pub id: RequestId,
    /// Result of the invocation.
    pub result: Result<Value, SydError>,
}

impl Encode for Response {
    fn encode(&self, buf: &mut impl Sink) {
        self.id.encode(buf);
        self.result.encode(buf);
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Response {
            id: RequestId::decode(r)?,
            result: Result::<Value, SydError>::decode(r)?,
        })
    }
}

/// Fire-and-forget published event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventMsg {
    /// Hierarchical topic, e.g. `"link.deleted"` or `"calendar.changed"`.
    pub topic: Text,
    /// Publishing user.
    pub source: UserId,
    /// Event payload.
    pub payload: Value,
}

impl Encode for EventMsg {
    fn encode(&self, buf: &mut impl Sink) {
        self.topic.encode(buf);
        self.source.encode(buf);
        self.payload.encode(buf);
    }
}

impl Decode for EventMsg {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(EventMsg {
            topic: Text::decode(r)?,
            source: UserId::decode(r)?,
            payload: Value::decode(r)?,
        })
    }
}

/// The three kinds of traffic on a SyD network; `C` is its request's
/// credential storage ([`Request`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Payload<C = Blob> {
    /// Remote invocation.
    Request(Request<C>),
    /// Correlated reply.
    Response(Response),
    /// Published event.
    Event(EventMsg),
}

const TAG_REQUEST: u8 = 0;
const TAG_RESPONSE: u8 = 1;
const TAG_EVENT: u8 = 2;

impl<C: AsRef<[u8]>> Encode for Payload<C> {
    fn encode(&self, buf: &mut impl Sink) {
        match self {
            Payload::Request(m) => {
                buf.push(TAG_REQUEST);
                m.encode(buf);
            }
            Payload::Response(m) => {
                buf.push(TAG_RESPONSE);
                m.encode(buf);
            }
            Payload::Event(m) => {
                buf.push(TAG_EVENT);
                m.encode(buf);
            }
        }
    }
}

impl Decode for Payload {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        match r.u8()? {
            TAG_REQUEST => Ok(Payload::Request(Request::decode(r)?)),
            TAG_RESPONSE => Ok(Payload::Response(Response::decode(r)?)),
            TAG_EVENT => Ok(Payload::Event(EventMsg::decode(r)?)),
            other => Err(SydError::Codec(format!("invalid payload tag {other}"))),
        }
    }
}

/// An addressed message on the simulated network; `C` is its request's
/// credential storage ([`Request`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<C = Blob> {
    /// Sending endpoint.
    pub src: NodeAddr,
    /// Receiving endpoint.
    pub dst: NodeAddr,
    /// Message body.
    pub payload: Payload<C>,
}

impl<C> Envelope<C> {
    /// Convenience constructor.
    pub fn new(src: NodeAddr, dst: NodeAddr, payload: Payload<C>) -> Self {
        Self { src, dst, payload }
    }
}

impl<C: AsRef<[u8]>> Envelope<C> {
    /// Wire footprint in bytes, version byte included.
    pub fn wire_len(&self) -> usize {
        encoded_len(self)
    }
}

impl<C: AsRef<[u8]>> Encode for Envelope<C> {
    fn encode(&self, buf: &mut impl Sink) {
        buf.push(WIRE_VERSION);
        self.src.encode(buf);
        self.dst.encode(buf);
        // Length-prefixed payload lets routers forward without decoding it.
        let body = encoded_len(&self.payload);
        put_varint(buf, body as u64);
        buf.put_counted(&self.payload, body);
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(SydError::Codec(format!(
                "unsupported wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        let src = NodeAddr::decode(r)?;
        let dst = NodeAddr::decode(r)?;
        let body_len = r.len_prefix()?;
        let before = r.remaining();
        let payload = Payload::decode(r)?;
        let consumed = before - r.remaining();
        if consumed != body_len {
            return Err(SydError::Codec(format!(
                "payload length prefix {body_len} != actual {consumed}"
            )));
        }
        Ok(Envelope { src, dst, payload })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

    fn sample_request() -> Request {
        Request {
            id: RequestId::new(17),
            caller: UserId::new(3),
            target: UserId::new(4),
            credentials: vec![0xde, 0xad].into(),
            service: ServiceName::new("calendar"),
            method: "find_free_slots".into(),
            args: vec![Value::I64(1), Value::str("d1..d2")].into(),
            trace: None,
        }
    }

    /// Encodes a request exactly as the pre-`TraceContext` format did:
    /// the seven original fields and nothing after `args`.
    fn encode_legacy(req: &Request) -> Vec<u8> {
        let mut buf = Vec::new();
        req.id.encode(&mut buf);
        req.caller.encode(&mut buf);
        req.target.encode(&mut buf);
        req.credentials.encode(&mut buf);
        req.service.encode(&mut buf);
        req.method.encode(&mut buf);
        // The legacy format carried a plain `Vec<Value>`; encoding the
        // values through that path proves `Args` is byte-compatible.
        req.args.to_vec().unwrap().encode(&mut buf);
        buf
    }

    #[test]
    fn request_round_trip() {
        let env = Envelope::new(
            NodeAddr::new(1),
            NodeAddr::new(2),
            Payload::Request(sample_request()),
        );
        let bytes = encode_to_vec(&env);
        assert_eq!(bytes.len(), env.wire_len());
        let back: Envelope = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn response_round_trip_ok_and_err() {
        for result in [
            Ok(Value::list([Value::I64(9)])),
            Err(SydError::ConstraintFailed("xor".into())),
        ] {
            let env = Envelope::new(
                NodeAddr::new(2),
                NodeAddr::new(1),
                Payload::Response(Response {
                    id: RequestId::new(17),
                    result,
                }),
            );
            let bytes = encode_to_vec(&env);
            let back: Envelope = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn event_round_trip() {
        let env = Envelope::new(
            NodeAddr::new(5),
            NodeAddr::new(6),
            Payload::Event(EventMsg {
                topic: "link.deleted".into(),
                source: UserId::new(8),
                payload: Value::map([("link", Value::I64(12))]),
            }),
        );
        let bytes = encode_to_vec(&env);
        assert_eq!(decode_from_slice::<Envelope>(&bytes).unwrap(), env);
    }

    #[test]
    fn wrong_version_rejected() {
        let env: Envelope = Envelope::new(
            NodeAddr::new(1),
            NodeAddr::new(2),
            Payload::Event(EventMsg {
                topic: "t".into(),
                source: UserId::new(0),
                payload: Value::Null,
            }),
        );
        let mut bytes = encode_to_vec(&env);
        bytes[0] = 99;
        let err = decode_from_slice::<Envelope>(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let env = Envelope::new(
            NodeAddr::new(1),
            NodeAddr::new(2),
            Payload::Request(sample_request()),
        );
        let mut bytes = encode_to_vec(&env);
        // The length prefix sits right after version + two 1-byte addrs.
        bytes[3] = bytes[3].wrapping_add(1);
        assert!(decode_from_slice::<Envelope>(&bytes).is_err());
    }

    #[test]
    fn traced_request_round_trips() {
        let mut req = sample_request();
        req.trace = Some(TraceContext {
            trace_id: 0xdead_beef_0042,
            span_id: 7,
            hop: 3,
        });
        let env = Envelope::new(NodeAddr::new(1), NodeAddr::new(2), Payload::Request(req));
        let bytes = encode_to_vec(&env);
        assert_eq!(bytes.len(), env.wire_len());
        let back: Envelope = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn legacy_request_bytes_still_decode() {
        // Bytes produced by the pre-trace encoder must decode, with the
        // trace absent.
        let req = sample_request();
        let legacy = encode_legacy(&req);
        let back: Request = decode_from_slice(&legacy).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.trace, None);
    }

    #[test]
    fn untraced_request_encodes_to_legacy_bytes() {
        // The other direction of compatibility: a request without a
        // trace must be byte-identical to the old format, so old
        // decoders (and stored captures) see nothing new.
        let req = sample_request();
        assert_eq!(encode_to_vec(&req), encode_legacy(&req));
    }

    #[test]
    fn unknown_extension_marker_rejected() {
        let mut bytes = encode_to_vec(&sample_request());
        bytes.push(9); // not TRACE_MARKER
        let err = decode_from_slice::<Request>(&bytes).unwrap_err();
        assert!(err.to_string().contains("extension marker"), "{err}");
    }

    #[test]
    fn truncated_trace_extension_rejected() {
        let mut req = sample_request();
        req.trace = Some(TraceContext {
            trace_id: u64::MAX,
            span_id: u64::MAX,
            hop: u32::MAX,
        });
        let bytes = encode_to_vec(&req);
        let legacy_len = encode_legacy(&req).len();
        for cut in legacy_len + 1..bytes.len() {
            assert!(
                decode_from_slice::<Request>(&bytes[..cut]).is_err(),
                "truncation at {cut} should fail"
            );
        }
    }

    #[test]
    fn empty_credentials_mean_unauthenticated() {
        let mut req = sample_request();
        req.credentials = Blob::default();
        let bytes = encode_to_vec(&req);
        let back: Request = decode_from_slice(&bytes).unwrap();
        assert!(back.credentials.is_empty());
        assert_eq!(back, req);
    }

    #[test]
    fn credentials_decode_in_place_up_to_the_inline_capacity() {
        for len in [24, 72, syd_types::blob::INLINE_CAP, 80, 200] {
            let mut req = sample_request();
            req.credentials = vec![0xC3; len].into();
            let back: Request = decode_from_slice(&encode_to_vec(&req)).unwrap();
            assert_eq!(back, req);
            let inline = len <= syd_types::blob::INLINE_CAP;
            assert_eq!(back.credentials.is_inline(), inline, "{len} bytes");
        }
    }

    #[test]
    fn a_hand_built_request_encodes_as_the_runtime_one() {
        let req = sample_request();
        let by_hand = Request {
            id: req.id,
            caller: req.caller,
            target: req.target,
            credentials: req.credentials.to_vec(),
            service: req.service,
            method: req.method,
            args: req.args,
            trace: req.trace,
        };
        let env = Envelope::new(
            NodeAddr::new(1),
            NodeAddr::new(2),
            Payload::Request(by_hand),
        );
        let bytes = encode_to_vec(&env);
        assert_eq!(bytes.len(), env.wire_len());
        let back: Envelope = decode_from_slice(&bytes).unwrap();
        let Payload::Request(back) = back.payload else {
            panic!("a request decodes as a request")
        };
        assert_eq!(back, sample_request());
    }

    #[test]
    fn credentials_running_past_the_end_are_a_codec_error() {
        // The credential length prefix sits after three one-byte varints
        // (id, caller, target); claim more bytes than the request holds.
        let mut bytes = encode_to_vec(&sample_request());
        assert_eq!(bytes[3], 2);
        bytes[3] = 100;
        let err = decode_from_slice::<Request>(&bytes).unwrap_err();
        assert!(matches!(err, SydError::Codec(_)), "{err}");
    }

    #[test]
    fn wire_len_tracks_payload_size() {
        let small: Envelope = Envelope::new(
            NodeAddr::new(1),
            NodeAddr::new(2),
            Payload::Event(EventMsg {
                topic: "t".into(),
                source: UserId::new(0),
                payload: Value::Null,
            }),
        );
        let big: Envelope = Envelope::new(
            NodeAddr::new(1),
            NodeAddr::new(2),
            Payload::Event(EventMsg {
                topic: "t".into(),
                source: UserId::new(0),
                payload: Value::from(vec![0; 1000]),
            }),
        );
        assert!(big.wire_len() > small.wire_len() + 900);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};
    use syd_types::rng::{cases, Rng};

    fn arb_value(rng: &mut Rng) -> Value {
        match rng.below(5) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(1, 2)),
            2 => Value::I64(rng.any_u64() as i64),
            3 => Value::str(rng.string(16)),
            _ => Value::from(rng.bytes(15)),
        }
    }

    fn arb_trace(rng: &mut Rng) -> Option<TraceContext> {
        rng.chance(1, 2).then(|| TraceContext {
            trace_id: rng.any_u64(),
            span_id: rng.any_u64(),
            hop: rng.any_u64() as u32,
        })
    }

    /// 1..=`max` characters drawn from `alphabet`.
    fn arb_name(rng: &mut Rng, alphabet: &[u8], max: u64) -> String {
        (0..1 + rng.below(max))
            .map(|_| char::from(alphabet[rng.below(alphabet.len() as u64) as usize]))
            .collect()
    }

    fn arb_payload(rng: &mut Rng) -> Payload {
        match rng.below(3) {
            0 => Payload::Request(Request {
                id: RequestId::new(rng.any_u64()),
                caller: UserId::new(rng.any_u64()),
                target: UserId::new(rng.any_u64()),
                credentials: rng.bytes(31).into(),
                service: ServiceName::new(arb_name(rng, b"abcdefghijklmnopqrstuvwxyz.", 12)),
                method: arb_name(rng, b"abcdefghijklmnopqrstuvwxyz_", 12).into(),
                args: (0..rng.below(4))
                    .map(|_| arb_value(rng))
                    .collect::<Vec<_>>()
                    .into(),
                trace: arb_trace(rng),
            }),
            1 => Payload::Response(Response {
                id: RequestId::new(rng.any_u64()),
                result: Ok(arb_value(rng)),
            }),
            _ => Payload::Event(EventMsg {
                topic: arb_name(rng, b"abcdefghijklmnopqrstuvwxyz.", 16).into(),
                source: UserId::new(rng.any_u64()),
                payload: arb_value(rng),
            }),
        }
    }

    #[test]
    fn envelope_round_trip() {
        cases(256, |rng| {
            let env = Envelope::new(
                NodeAddr::new(rng.any_u64()),
                NodeAddr::new(rng.any_u64()),
                arb_payload(rng),
            );
            let bytes = encode_to_vec(&env);
            assert_eq!(bytes.len(), env.wire_len());
            let back: Envelope = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, env);
        });
    }

    #[test]
    fn trace_extension_round_trip() {
        cases(256, |rng| {
            let req = Request {
                id: RequestId::new(rng.any_u64()),
                caller: UserId::new(1),
                target: UserId::new(2),
                credentials: Blob::default(),
                service: ServiceName::new("s"),
                method: "m".into(),
                args: vec![].into(),
                trace: arb_trace(rng),
            };
            let bytes = encode_to_vec(&req);
            assert_eq!(bytes.len(), encoded_len(&req));
            let back: Request = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, req);
        });
    }

    #[test]
    fn envelope_decoder_never_panics() {
        cases(256, |rng| {
            let _ = decode_from_slice::<Envelope>(&rng.bytes(199));
        });
    }

    #[test]
    fn single_bit_flips_never_panic() {
        cases(256, |rng| {
            let env = Envelope::new(NodeAddr::new(1), NodeAddr::new(2), arb_payload(rng));
            let mut bytes = encode_to_vec(&env);
            let flip = rng.below(64) as usize;
            let idx = flip % bytes.len();
            bytes[idx] ^= 1 << (flip % 8);
            // Either decodes to something or errors; never panics, and a
            // successful decode re-encodes without panicking.
            if let Ok(back) = decode_from_slice::<Envelope>(&bytes) {
                let _ = encode_to_vec(&back);
            }
        });
    }
}
