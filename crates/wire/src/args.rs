//! Positional arguments for [`Request`]s: encode-once when a caller
//! shares them, inline when a request is decoded.
//!
//! A group invocation sends the *same* argument list to every member of a
//! group (§4.1: "the SyDEngine dispatches the invocation to each of the
//! group's devices"). With a plain `Vec<Value>` that costs one deep clone
//! plus one full re-encoding per recipient at the network send boundary.
//! A caller's [`Args`] keeps the values behind an [`Arc`] so cloning is a
//! reference count bump, and lets the broadcaster pre-encode the canonical
//! byte form once ([`Args::preencode`]) so every subsequent
//! [`Encode::encode`] is a single `memcpy` of the shared buffer.
//!
//! A received list is read once, by the one handler it reaches, so a
//! decoded list of up to four values lives in the [`Args`] (and so in its
//! [`Request`]) itself, with nothing to share and no allocation.
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

use crate::codec::{encode_to_vec, encoded_len, put_varint, Decode, Encode, Reader, Sink};

/// How many decoded values an [`Args`] holds in place: `mark`, `commit`
/// and `release_slot` take at most four, so a received argument list
/// allocates nothing of its own.
const INLINE: usize = 4;

/// A caller's list: the values plus the lazily cached canonical encoding,
/// shared (never mutated) between all clones of its [`Args`].
struct Shared {
    values: Vec<Value>,
    /// Canonical encoding of `values` (varint count + elements), filled
    /// at most once by [`Args::preencode`] and shared by every clone.
    encoded: OnceLock<Vec<u8>>,
}

/// Where an [`Args`]'s values live.
#[derive(Clone)]
enum Repr {
    /// A decoded list of up to [`INLINE`] values; the rest are `Null`.
    /// A clone copies the values.
    Inline(u8, [Value; INLINE]),
    /// A list built by the caller, or a longer decoded one.
    Shared(Arc<Shared>),
}

/// An immutable argument list: a caller's is cheaply clonable with an
/// optional cached canonical encoding, a decoded one holds up to four
/// values in place.
///
/// Dereferences to `[Value]`, so read sites written against `Vec<Value>`
/// (`args.get(i)`, iteration, `&req.args` as `&[Value]`) keep compiling
/// unchanged. Construction sites use `From<Vec<Value>>`.
#[derive(Clone)]
pub struct Args(Repr);

impl Args {
    /// Wraps an argument list. No encoding happens until the value is
    /// sent (or [`Args::preencode`] is called).
    pub fn new(values: Vec<Value>) -> Self {
        Args(Repr::Shared(Arc::new(Shared {
            values,
            encoded: OnceLock::new(),
        })))
    }

    /// Encodes the canonical byte form once and caches it; subsequent
    /// [`Encode::encode`] calls on this value *and every clone of it*
    /// copy the cached buffer instead of re-encoding element by element.
    /// A decoded list has no clones to share a cache with and is only
    /// counted.
    ///
    /// Returns the encoded length in bytes. Idempotent.
    pub fn preencode(&self) -> usize {
        match &self.0 {
            // The cell is empty until this closure returns, so `encode`
            // writes the values here.
            Repr::Shared(shared) => shared.encoded.get_or_init(|| encode_to_vec(self)).len(),
            Repr::Inline(..) => encoded_len(self),
        }
    }

    /// Whether the canonical encoding has been cached (by this handle or
    /// any clone sharing it).
    pub fn is_preencoded(&self) -> bool {
        matches!(&self.0, Repr::Shared(shared) if shared.encoded.get().is_some())
    }

    /// The arguments as a freshly allocated `Vec` (deep clone).
    pub fn to_vec(&self) -> Vec<Value> {
        self[..].to_vec()
    }
}

impl Encode for Args {
    /// Exactly the `Vec<Value>` wire format: a varint count, then the
    /// elements. The cached buffer *is* that encoding, so both branches
    /// write identical bytes, and a preencoded list counts in O(1).
    fn encode(&self, buf: &mut impl Sink) {
        if let Repr::Shared(shared) = &self.0 {
            if let Some(bytes) = shared.encoded.get() {
                buf.extend_from_slice(bytes);
                return;
            }
        }
        put_varint(buf, self.len() as u64);
        for v in self.iter() {
            v.encode(buf);
        }
    }
}

impl Decode for Args {
    /// Decodes `Vec<Value>`'s format; a list of up to four values lands
    /// in place.
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let n = r.len_prefix()?;
        if n > INLINE {
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(Value::decode(r)?);
            }
            return Ok(Args::new(values));
        }
        let mut values: [Value; INLINE] = Default::default();
        for slot in &mut values[..n] {
            *slot = Value::decode(r)?;
        }
        Ok(Args(Repr::Inline(n as u8, values)))
    }
}

impl Deref for Args {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline(n, values) => &values[..usize::from(*n)],
            Repr::Shared(shared) => &shared.values,
        }
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
        // Equality is over the values; the encoding cache and where the
        // values live are invisible.
        self[..] == other[..]
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Default for Args {
    /// The empty list, in place.
    fn default() -> Self {
        Args(Repr::Inline(0, Default::default()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encoded_len};

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
        let plain = encoded_len(&args);
        assert_eq!(args.preencode(), plain);
        assert_eq!(encoded_len(&args), plain);
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
    fn every_decoded_length_round_trips_inline_or_not() {
        let mut values = sample();
        values.extend(sample());
        for n in 0..=values.len() {
            let built = Args::from(values[..n].to_vec());
            let bytes = encode_to_vec(&built);
            let back: Args = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, built, "{n} values");
            assert_eq!(&back[..], &values[..n]);
            assert_eq!(matches!(back.0, Repr::Inline(..)), n <= INLINE);
            assert_eq!(encoded_len(&back), bytes.len());
            assert_eq!(back.preencode(), bytes.len());
            assert_eq!(back.is_preencoded(), n > INLINE);
            assert_eq!(encode_to_vec(&back), bytes);
        }
    }

    /// Every caller-built list sent is one `Arc` of this: the values'
    /// `Vec` and the encoding cache, with no room for the inline slots
    /// only a decoded list uses.
    #[test]
    fn a_shared_list_stays_within_72_bytes() {
        let arc_counts = 2 * std::mem::size_of::<usize>();
        assert!(arc_counts + std::mem::size_of::<Shared>() <= 72);
    }

    #[test]
    fn a_decoded_clone_copies_and_a_built_clone_shares() {
        let built = Args::from(sample());
        let Repr::Shared(inner) = &built.clone().0 else {
            panic!("a built list is shared")
        };
        assert_eq!(Arc::strong_count(inner), 2);
        let decoded: Args = decode_from_slice(&encode_to_vec(&built)).unwrap();
        let copy = decoded.clone();
        assert!(matches!(copy.0, Repr::Inline(4, _)));
        assert_eq!(copy, built);
        assert!(matches!(Args::default().0, Repr::Inline(0, _)));
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
