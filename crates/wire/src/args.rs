//! Shared, encode-once positional arguments for [`Request`]s.
//!
//! A group invocation sends the *same* argument list to every member of a
//! group (§4.1: "the SyDEngine dispatches the invocation to each of the
//! group's devices"). With a plain `Vec<Value>` that costs one deep clone
//! plus one full re-encoding per recipient at the network send boundary.
//! [`Args`] keeps the values behind an [`Arc`] so cloning is a reference
//! count bump, and lets the broadcaster pre-encode the canonical byte form
//! once ([`Args::preencode`]) so every subsequent [`Encode::encode`] is a
//! single `memcpy` of the shared buffer.
//!
//! The byte format is **identical** to the `Vec<Value>` encoding (varint
//! element count followed by the elements), so requests carrying [`Args`]
//! are byte-for-byte compatible with the pre-`Args` wire format — the
//! envelope tests enforce this.
//!
//! [`Request`]: crate::envelope::Request

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use syd_types::{SydResult, Value};

use crate::codec::{put_varint, varint_len, Decode, Encode, Reader};

/// Interior of [`Args`]: the values plus the lazily cached canonical
/// encoding. Shared (never mutated) between all clones of an [`Args`].
struct ArgsInner {
    values: Vec<Value>,
    /// Canonical encoding of `values` (varint count + elements), filled
    /// at most once by [`Args::preencode`] and shared by every clone.
    encoded: OnceLock<Vec<u8>>,
}

/// An immutable, cheaply clonable argument list with an optional cached
/// canonical encoding.
///
/// Dereferences to `[Value]`, so read sites written against `Vec<Value>`
/// (`args.get(i)`, iteration, `&req.args` as `&[Value]`) keep compiling
/// unchanged. Construction sites use `From<Vec<Value>>`.
#[derive(Clone)]
pub struct Args {
    inner: Arc<ArgsInner>,
}

impl Args {
    /// Wraps an argument list. No encoding happens until the value is
    /// sent (or [`Args::preencode`] is called).
    pub fn new(values: Vec<Value>) -> Self {
        Args {
            inner: Arc::new(ArgsInner {
                values,
                encoded: OnceLock::new(),
            }),
        }
    }

    /// Encodes the canonical byte form once and caches it; subsequent
    /// [`Encode::encode`] calls on this value *and every clone of it*
    /// copy the cached buffer instead of re-encoding element by element.
    ///
    /// Returns the encoded length in bytes. Idempotent.
    pub fn preencode(&self) -> usize {
        self.inner
            .encoded
            .get_or_init(|| {
                let mut buf = Vec::with_capacity(self.values_encoded_len());
                self.encode_values(&mut buf);
                buf
            })
            .len()
    }

    /// Whether the canonical encoding has been cached (by this handle or
    /// any clone sharing it).
    pub fn is_preencoded(&self) -> bool {
        self.inner.encoded.get().is_some()
    }

    /// The arguments as a freshly allocated `Vec` (deep clone).
    pub fn to_vec(&self) -> Vec<Value> {
        self.inner.values.clone()
    }

    /// Encodes the element form: varint count followed by the elements —
    /// exactly the `Vec<Value>` wire format.
    fn encode_values(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.inner.values.len() as u64);
        for v in &self.inner.values {
            v.encode(buf);
        }
    }

    /// Length of the element form, computed without encoding.
    fn values_encoded_len(&self) -> usize {
        varint_len(self.inner.values.len() as u64)
            + self
                .inner
                .values
                .iter()
                .map(Encode::encoded_len)
                .sum::<usize>()
    }
}

impl Encode for Args {
    fn encode(&self, buf: &mut Vec<u8>) {
        // The cached buffer *is* the canonical element encoding, so both
        // branches produce identical bytes.
        if let Some(bytes) = self.inner.encoded.get() {
            buf.extend_from_slice(bytes);
        } else {
            self.encode_values(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        match self.inner.encoded.get() {
            Some(bytes) => bytes.len(),
            None => self.values_encoded_len(),
        }
    }
}

impl Decode for Args {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Args::new(Vec::<Value>::decode(r)?))
    }
}

impl Deref for Args {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.inner.values
    }
}

impl From<Vec<Value>> for Args {
    fn from(values: Vec<Value>) -> Self {
        Args::new(values)
    }
}

impl From<&[Value]> for Args {
    fn from(values: &[Value]) -> Self {
        Args::new(values.to_vec())
    }
}

impl FromIterator<Value> for Args {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Args::new(iter.into_iter().collect())
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        // Equality is over the values; the encoding cache is invisible.
        self.inner.values == other.inner.values
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.inner.values.iter()).finish()
    }
}

impl Default for Args {
    fn default() -> Self {
        Args::new(Vec::new())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

    fn sample() -> Vec<Value> {
        vec![
            Value::I64(-42),
            Value::str("free_slots"),
            Value::Bytes(vec![1, 2, 3]),
            Value::Null,
        ]
    }

    #[test]
    fn bytes_identical_to_vec_encoding() {
        let values = sample();
        let args = Args::from(values.clone());
        assert_eq!(encode_to_vec(&args), encode_to_vec(&values));
        // Pre-encoding must not change a single byte.
        args.preencode();
        assert_eq!(encode_to_vec(&args), encode_to_vec(&values));
    }

    #[test]
    fn encoded_len_matches_with_and_without_cache() {
        let args = Args::from(sample());
        let plain = args.encoded_len();
        assert_eq!(args.preencode(), plain);
        assert_eq!(args.encoded_len(), plain);
        assert_eq!(encode_to_vec(&args).len(), plain);
    }

    #[test]
    fn clones_share_the_preencoded_buffer() {
        let args = Args::from(sample());
        let clone = args.clone();
        assert!(!clone.is_preencoded());
        args.preencode();
        // The cache lives in the shared inner, so the clone sees it too.
        assert!(clone.is_preencoded());
        assert_eq!(encode_to_vec(&clone), encode_to_vec(&args));
    }

    #[test]
    fn round_trip() {
        let args = Args::from(sample());
        let bytes = encode_to_vec(&args);
        let back: Args = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, args);
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn derefs_like_a_slice() {
        let args = Args::from(sample());
        assert_eq!(args.len(), 4);
        assert_eq!(args.get(1), Some(&Value::str("free_slots")));
        assert_eq!(args.to_vec(), sample());
        let empty = Args::default();
        assert!(empty.is_empty());
    }
}
