//! Positional arguments for [`Request`]s, as they travel: the list's
//! canonical bytes, encoded once where the caller builds it and read where
//! it arrived.
//!
//! A group invocation sends the *same* argument list to every member of a
//! group (§4.1: "the SyDEngine dispatches the invocation to each of the
//! group's devices"). An [`Args`] is the encoded list in a [`Blob`]: inline
//! when short, one shared `Arc<[u8]>` when long, so every request of a
//! broadcast (and every re-send) copies or shares one buffer and nothing
//! is encoded twice. A received list is checked and copied out of its
//! frame, and a handler reads its arguments from those bytes
//! ([`crate::Params::parse`]).
//!
//! The bytes are **identical** to the `Vec<Value>` encoding (varint
//! element count followed by the tagged elements), so requests carrying
//! [`Args`] are byte-for-byte compatible with the pre-`Args` wire format —
//! the envelope and golden tests enforce this.
//!
//! [`Request`]: crate::envelope::Request

use std::fmt;

use syd_types::{Blob, SydResult, Value};

use crate::codec::{decode_from_slice, encode_to_bytes, skip_value, Decode, Encode, Reader, Sink};

/// An immutable argument list, as its encoding; a clone shares a long one.
#[derive(Clone, PartialEq)]
pub struct Args(Blob);

impl Args {
    /// Encodes `values` as a list, once.
    pub fn new(values: &[Value]) -> Args {
        Args(encode_to_bytes(values))
    }

    /// The list's canonical bytes: the varint count, then the values.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The arguments decoded into a freshly allocated `Vec`.
    pub fn to_vec(&self) -> SydResult<Vec<Value>> {
        decode_from_slice(&self.0)
    }
}

impl Encode for Args {
    /// Exactly the `Vec<Value>` wire format, copied as it was encoded.
    fn encode(&self, buf: &mut impl Sink) {
        buf.extend_from_slice(&self.0);
    }
}

impl Decode for Args {
    /// Finds the end of a list in `Vec<Value>`'s format by stepping over
    /// its values — refusing what decoding them refuses, with the same
    /// error — and copies its bytes.
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let mut list = r.clone();
        for _ in 0..r.len_prefix()? {
            skip_value(r)?;
        }
        let bytes = list.bytes(list.remaining() - r.remaining())?;
        Ok(Args(Blob::from(bytes)))
    }
}

impl From<Vec<Value>> for Args {
    fn from(values: Vec<Value>) -> Self {
        Args::new(&values)
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_vec() {
            Ok(values) => f.debug_list().entries(values).finish(),
            Err(_) => write!(f, "{:?}", self.as_bytes()),
        }
    }
}

impl Default for Args {
    /// The empty list.
    fn default() -> Self {
        Args::new(&[])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::codec::{encode_to_vec, encoded_len};

    fn sample() -> Vec<Value> {
        vec![
            Value::I64(7),
            Value::str("free_slots"),
            Value::from(vec![1, 2, 3]),
            Value::list([Value::Bool(true), Value::Null]),
        ]
    }

    #[test]
    fn bytes_identical_to_vec_encoding() {
        let values = sample();
        let args = Args::from(values.clone());
        assert_eq!(encode_to_vec(&args), encode_to_vec(&values));
        assert_eq!(args.as_bytes(), encode_to_vec(&values));
        assert_eq!(encoded_len(&args), encoded_len(&values));
    }

    #[test]
    fn round_trip() {
        let args = Args::from(sample());
        let bytes = encode_to_vec(&args);
        let back: Args = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, args);
        assert_eq!(back.to_vec().unwrap(), sample());
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn every_decoded_length_round_trips_inline_or_not() {
        let mut values = sample();
        values.extend(sample());
        values.push(Value::from(vec![9; 64]));
        for n in 0..=values.len() {
            let built = Args::from(values[..n].to_vec());
            let bytes = encode_to_vec(&built);
            let back: Args = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, built, "{n} values");
            assert_eq!(back.to_vec().unwrap(), &values[..n]);
            assert_eq!(encoded_len(&back), bytes.len());
            assert_eq!(encode_to_vec(&back), bytes);
        }
    }

    /// A long list is one buffer, whoever holds a clone of it; a short one
    /// is copied inline, bytes and all.
    #[test]
    fn a_long_list_is_shared_by_its_clones() {
        let long = Args::from(vec![Value::from(vec![7; 100])]);
        let clone = long.clone();
        assert_eq!(clone.as_bytes().as_ptr(), long.as_bytes().as_ptr());
        let short = Args::from(sample());
        assert!(short.as_bytes().len() <= syd_types::blob::INLINE_CAP);
        assert_ne!(short.clone().as_bytes().as_ptr(), short.as_bytes().as_ptr());
        assert_eq!(short.clone(), short);
    }

    #[test]
    fn reads_back_as_its_values() {
        let args = Args::from(sample());
        assert_eq!(args.to_vec().unwrap(), sample());
        assert_eq!(format!("{args:?}"), format!("{:?}", sample()));
        let empty = Args::default();
        assert_eq!(empty.as_bytes(), [0]);
        assert!(empty.to_vec().unwrap().is_empty());
    }
}
