//! [`Bytes`]: the immutable byte string that names, credentials, call
//! arguments and stored records all rest on, inline when short and shared
//! when long.
//!
//! Every request carries its device's TEA-sealed `user ‖ password` (§5.4):
//! an 8-byte IV and a body of a few blocks, 24–72 bytes for any password
//! of up to 55. A [`Blob`] (a `Bytes` of up to [`INLINE_CAP`] bytes
//! inline) holds it, and a call's encoded arguments, without touching the
//! heap. A [`Value::Bytes`](crate::Value::Bytes) cell — a meeting or link
//! record, a link's `refs`, a free-slot bitmap — is a `Bytes` of up to 22
//! inline, and a [`Text`](crate::Text) is the same representation with
//! its UTF-8 invariant. Longer bytes live in one `Arc`, which a copy
//! shares: a record read out of the store, put in a change map or sent to
//! a whole group is one buffer.

use core::fmt;
use core::ops::Deref;
use std::sync::Arc;

/// The longest blob a [`Blob`] keeps inline (78 bytes): a tag byte and a
/// length byte fill the rest of its 80. That covers the 72 bytes of an
/// IV and the 64-byte body the §5.4 check decrypts on the stack.
pub const INLINE_CAP: usize = 78;

/// The one inline-or-shared representation: up to `N` bytes (at most 255)
/// inline, else an `Arc<S>` — `[u8]`, or `str` for a [`crate::Text`],
/// which then reads its long string with no UTF-8 check. Equality and
/// order are the bytes', which for `str` is `str`'s order.
pub(crate) enum Repr<const N: usize, S: ?Sized> {
    Inline { len: u8, buf: [u8; N] },
    Shared(Arc<S>),
}

impl<const N: usize, S: ?Sized + AsRef<[u8]>> Repr<N, S> {
    /// `bytes` inline; more than `N` of them panic.
    pub(crate) const fn inline(bytes: &[u8]) -> Self {
        let mut buf = [0; N];
        buf.split_at_mut(bytes.len()).0.copy_from_slice(bytes);
        Repr::Inline {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// A copy of `s`: inline when it fits, else in a new shared buffer.
    pub(crate) fn copy(s: &S) -> Self
    where
        for<'a> Arc<S>: From<&'a S>,
    {
        match s.as_ref() {
            bytes if bytes.len() <= N => Repr::inline(bytes),
            _ => Repr::Shared(Arc::from(s)),
        }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(shared) => (**shared).as_ref(),
        }
    }

    pub(crate) fn is_inline(&self) -> bool {
        matches!(self, Repr::Inline { .. })
    }
}

impl<const N: usize, S: ?Sized> Clone for Repr<N, S> {
    fn clone(&self) -> Self {
        match self {
            Repr::Inline { len, buf } => Repr::Inline {
                len: *len,
                buf: *buf,
            },
            Repr::Shared(shared) => Repr::Shared(Arc::clone(shared)),
        }
    }
}

impl<const N: usize, S: ?Sized + AsRef<[u8]>> PartialEq for Repr<N, S> {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl<const N: usize, S: ?Sized + AsRef<[u8]>> Eq for Repr<N, S> {}

impl<const N: usize, S: ?Sized + AsRef<[u8]>> PartialOrd for Repr<N, S> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize, S: ?Sized + AsRef<[u8]>> Ord for Repr<N, S> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// An immutable byte string: inline up to `N` bytes, shared beyond.
/// Dereferences to `[u8]`; the empty string is inline. Without `N` it is
/// a [`Value::Bytes`](crate::Value::Bytes) cell's: inline up to 22 bytes,
/// 24 in all, as a [`crate::Text`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bytes<const N: usize = { crate::text::INLINE_CAP }>(Repr<N, [u8]>);

/// A sealed credential or a call's encoded arguments: [`Bytes`] inline up
/// to [`INLINE_CAP`] bytes.
pub type Blob = Bytes<INLINE_CAP>;

impl<const N: usize> Bytes<N> {
    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Whether the bytes live inline (there are at most `N`).
    pub fn is_inline(&self) -> bool {
        self.0.is_inline()
    }

    /// The `len` bytes `fill` writes: inline when they fit, else in one
    /// shared buffer, allocated once and filled before it is shared.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut buf = [0; N];
        if let Some(head) = buf.get_mut(..len) {
            fill(head);
            let len = len as u8; // at most N
            return Bytes(Repr::Inline { len, buf });
        }
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // The buffer has no other owner yet, so this copies nothing.
        fill(Arc::make_mut(&mut bytes));
        Bytes(Repr::Shared(bytes))
    }

    /// `parts` one after another, written straight into the one buffer.
    pub fn concat(parts: &[&[u8]]) -> Self {
        let len = parts.iter().map(|part| part.len()).sum();
        Bytes::build(len, |mut buf| {
            for part in parts {
                let (head, rest) = core::mem::take(&mut buf).split_at_mut(part.len());
                head.copy_from_slice(part);
                buf = rest;
            }
        })
    }
}

impl<const N: usize> Default for Bytes<N> {
    fn default() -> Self {
        Bytes(Repr::inline(&[]))
    }
}

impl<const N: usize> Deref for Bytes<N> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl<const N: usize> AsRef<[u8]> for Bytes<N> {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl<const N: usize> From<&[u8]> for Bytes<N> {
    /// Copies `bytes` inline when they fit, else into one shared buffer.
    fn from(bytes: &[u8]) -> Self {
        Bytes(Repr::copy(bytes))
    }
}

impl<const N: usize> From<Vec<u8>> for Bytes<N> {
    fn from(bytes: Vec<u8>) -> Self {
        Bytes::from(bytes.as_slice())
    }
}

impl<const N: usize> fmt::Debug for Bytes<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    /// A request holds its blob inline: growing it grows every request.
    #[test]
    fn size_is_pinned() {
        assert_eq!(core::mem::size_of::<Blob>(), 80);
    }

    #[test]
    fn the_inline_limit_is_78_bytes() {
        for n in [0, 1, 24, 72, 77, 78] {
            let bytes: Vec<u8> = (0..n as u8).collect();
            let blob = Blob::from(bytes.as_slice());
            assert!(blob.is_inline(), "{n} bytes");
            assert_eq!(&blob[..], &bytes[..]);
        }
        let long: Vec<u8> = (0..79).collect();
        let blob = Blob::from(long.clone());
        assert!(!blob.is_inline());
        assert_eq!(&blob[..], &long[..]);
        // A copy of a shared blob shares it.
        assert_eq!(blob.clone().as_ptr(), blob.as_ptr());
        assert_eq!(blob.clone(), blob);
    }

    #[test]
    fn build_fills_inline_or_shared_bytes() {
        for n in [0, 22, 23, 100] {
            let bytes = Bytes::<22>::build(n, |buf| buf.fill(3));
            assert_eq!((bytes.is_inline(), &bytes[..]), (n <= 22, &vec![3; n][..]));
        }
        let joined = Bytes::<22>::concat(&[&[1; 20], &[], &[2; 3]]);
        assert_eq!(
            (joined.is_inline(), joined.len(), joined[19], joined[20]),
            (false, 23, 1, 2)
        );
    }

    #[test]
    fn equality_and_debug_are_the_bytes() {
        assert!(Blob::default().is_empty());
        assert_eq!(Blob::default(), Blob::from(Vec::new()));
        assert_ne!(Blob::from(&[1, 2][..]), Blob::from(&[1, 2, 0][..]));
        assert_eq!(format!("{:?}", Blob::from(&[1, 2][..])), "[1, 2]");
        // Inline and shared bytes compare as slices do.
        let (short, long) = (Bytes::<22>::from(vec![1; 3]), Bytes::from(vec![1; 30]));
        assert!(short < long && long < Bytes::from(vec![2]));
        assert_eq!(long, Bytes::from(vec![1; 30]));
    }
}
