//! Length-prefixed framing for the TCP backend.
//!
//! A frame is a 4-byte little-endian length `n` followed by `n` bytes of
//! body — for envelope frames the body is exactly what
//! `syd_wire::encode_to_vec(&envelope)` produces, so a frame body on TCP
//! is byte-identical to the message the sim delivers.
//!
//! [`FrameDecoder`] makes **no** assumption about read boundaries: bytes
//! may arrive one at a time or with several frames coalesced into one
//! read, exactly as a TCP stream delivers them. The property tests below
//! split encoded frames at every byte boundary and re-assemble them.

use syd_types::{SydError, SydResult};

/// Upper bound on a frame body, mirroring the codec's `MAX_LEN`. A
/// length prefix above this is unrecoverable garbage (we would never
/// resynchronize), so the decoder reports it as a framing error and the
/// connection must be dropped.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Bytes of the length prefix.
pub const HEADER_LEN: usize = 4;

/// Encodes one frame: length prefix + body.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    assert!(
        body.len() <= MAX_FRAME_LEN as usize,
        "frame body exceeds MAX_FRAME_LEN"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Incremental frame reassembler over an arbitrary chunking of the byte
/// stream.
///
/// Push bytes with [`FrameDecoder::extend`], pull complete frame bodies
/// with [`FrameDecoder::next_frame`]. Once a framing error is reported
/// the decoder is poisoned — the stream cannot be resynchronized and the
/// connection must be closed.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends newly read bytes to the buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so the buffer does not creep upward on
        // long-lived connections.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, if one has fully arrived.
    ///
    /// * `Ok(Some(body))` — a complete frame.
    /// * `Ok(None)` — need more bytes.
    /// * `Err(Codec)` — the stream is corrupt (oversized length prefix);
    ///   the decoder stays poisoned and keeps returning the error.
    pub fn next_frame(&mut self) -> SydResult<Option<Vec<u8>>> {
        if self.poisoned {
            return Err(SydError::Codec("framing: poisoned stream".into()));
        }
        let avail = self.buf.len() - self.pos;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&self.buf[self.pos..self.pos + HEADER_LEN]);
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(SydError::Codec(format!(
                "framing: length {len} exceeds MAX_FRAME_LEN"
            )));
        }
        let total = HEADER_LEN + len as usize;
        if avail < total {
            return Ok(None);
        }
        let body = self.buf[self.pos + HEADER_LEN..self.pos + total].to_vec();
        self.pos += total;
        Ok(Some(body))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn bodies(decoder: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(body) = decoder.next_frame().unwrap() {
            out.push(body);
        }
        out
    }

    #[test]
    fn whole_frame_round_trips() {
        let mut d = FrameDecoder::new();
        d.extend(&encode_frame(b"hello"));
        assert_eq!(bodies(&mut d), vec![b"hello".to_vec()]);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn empty_body_is_a_valid_frame() {
        let mut d = FrameDecoder::new();
        d.extend(&encode_frame(b""));
        assert_eq!(bodies(&mut d), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn byte_at_a_time_reassembles() {
        let frame = encode_frame(b"partial reads are the common case");
        let mut d = FrameDecoder::new();
        for (i, b) in frame.iter().enumerate() {
            d.extend(std::slice::from_ref(b));
            let got = d.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "yielded early at byte {i}");
            } else {
                assert_eq!(got.unwrap(), b"partial reads are the common case");
            }
        }
    }

    #[test]
    fn coalesced_frames_split_apart() {
        let mut stream = encode_frame(b"one");
        stream.extend_from_slice(&encode_frame(b"two"));
        stream.extend_from_slice(&encode_frame(b"three"));
        let mut d = FrameDecoder::new();
        d.extend(&stream);
        assert_eq!(
            bodies(&mut d),
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn oversized_length_poisons_the_decoder() {
        let mut d = FrameDecoder::new();
        d.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(d.next_frame().is_err());
        // Poisoned: even after more (valid-looking) bytes, still an error.
        d.extend(&encode_frame(b"x"));
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn buffer_compacts_after_consumption() {
        let mut d = FrameDecoder::new();
        let frame = encode_frame(&vec![7u8; 5000]);
        d.extend(&frame);
        assert!(d.next_frame().unwrap().is_some());
        assert_eq!(d.pending(), 0);
        // Next extend triggers compaction (pos > 4096).
        d.extend(&encode_frame(b"next"));
        assert_eq!(bodies(&mut d), vec![b"next".to_vec()]);
        assert!(d.buf.len() < 100, "buffer not compacted: {}", d.buf.len());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod prop_tests {
    use super::*;
    use syd_types::rng::{cases, Rng};
    use syd_types::{NodeAddr, RequestId, ServiceName, UserId, Value};
    use syd_wire::{encode_to_vec, Envelope, EventMsg, Payload, Request};

    /// 1..=`max` characters drawn from `alphabet`.
    fn arb_name(rng: &mut Rng, alphabet: &[u8], max: u64) -> String {
        (0..1 + rng.below(max))
            .map(|_| char::from(alphabet[rng.below(alphabet.len() as u64) as usize]))
            .collect()
    }

    /// A small generator of structurally varied envelopes.
    fn arb_envelope(rng: &mut Rng) -> Envelope {
        let value = match rng.below(5) {
            0 => Value::Null,
            1 => Value::I64(rng.any_u64() as i64),
            2 => Value::Bool(rng.chance(1, 2)),
            3 => Value::Str(rng.string(40)),
            _ => Value::Bytes(rng.bytes(63)),
        };
        let payload = if rng.chance(1, 2) {
            Payload::Request(Request {
                id: RequestId::new(rng.any_u64()),
                caller: UserId::new(rng.any_u64()),
                target: UserId::default(),
                credentials: vec![],
                service: ServiceName::new("svc"),
                method: arb_name(rng, b"abcdefghijklmnopqrstuvwxyz", 12),
                args: vec![value].into(),
                trace: None,
            })
        } else {
            Payload::Event(EventMsg {
                topic: arb_name(rng, b"abcdefghijklmnopqrstuvwxyz.", 16),
                source: UserId::new(rng.any_u64()),
                payload: value,
            })
        };
        Envelope::new(
            NodeAddr::new(rng.any_u64()),
            NodeAddr::new(rng.any_u64()),
            payload,
        )
    }

    /// Satellite: split the encoded stream at *every* byte boundary
    /// (chunk sizes drawn per step) and reassemble; the decoded
    /// envelopes must be identical to what was sent, in order.
    #[test]
    fn any_chunking_reassembles_identically() {
        cases(256, |rng| {
            let envelopes: Vec<Envelope> =
                (0..1 + rng.below(5)).map(|_| arb_envelope(rng)).collect();
            let chunk_sizes: Vec<usize> = (0..1 + rng.below(63))
                .map(|_| 1 + rng.below(15) as usize)
                .collect();
            let mut stream = Vec::new();
            let mut expected = Vec::new();
            for env in &envelopes {
                let body = encode_to_vec(env);
                stream.extend_from_slice(&encode_frame(&body));
                expected.push(body);
            }

            let mut d = FrameDecoder::new();
            let mut got = Vec::new();
            let mut off = 0;
            let mut chunk_iter = chunk_sizes.iter().cycle();
            while off < stream.len() {
                let n = (*chunk_iter.next().unwrap()).min(stream.len() - off);
                d.extend(&stream[off..off + n]);
                off += n;
                while let Some(body) = d.next_frame().unwrap() {
                    got.push(body);
                }
            }
            assert_eq!(&got, &expected);
            assert_eq!(d.pending(), 0);

            // Reassembled bodies decode back to the original envelopes.
            for (body, env) in got.iter().zip(&envelopes) {
                let decoded: Envelope = syd_wire::decode_from_slice(body).unwrap();
                assert_eq!(&decoded, env);
            }
        });
    }

    /// Degenerate chunkings: the entire multi-frame stream in one
    /// read (full coalescing) and one byte per read both yield the
    /// same frames.
    #[test]
    fn coalesced_equals_byte_at_a_time() {
        cases(256, |rng| {
            let mut stream = Vec::new();
            for _ in 0..1 + rng.below(4) {
                stream.extend_from_slice(&encode_frame(&encode_to_vec(&arb_envelope(rng))));
            }

            let mut one = FrameDecoder::new();
            one.extend(&stream);
            let mut coalesced = Vec::new();
            while let Some(b) = one.next_frame().unwrap() {
                coalesced.push(b);
            }

            let mut per_byte = FrameDecoder::new();
            let mut dripped = Vec::new();
            for b in &stream {
                per_byte.extend(std::slice::from_ref(b));
                while let Some(body) = per_byte.next_frame().unwrap() {
                    dripped.push(body);
                }
            }
            assert_eq!(coalesced, dripped);
        });
    }
}
