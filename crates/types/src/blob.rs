//! [`Blob`]: the immutable byte string a sealed credential and a call's
//! encoded arguments travel as.
//!
//! Every request carries its device's TEA-sealed `user ‖ password` (§5.4):
//! an 8-byte IV and a body of a few blocks, 24–72 bytes for any password
//! of up to 55. As a `Vec<u8>` each request's copy on the sender and each
//! decode on the receiver was an allocation. A `Blob` of up to
//! [`INLINE_CAP`] bytes lives inline, as [`crate::Text`] keeps a short
//! string; a longer one lives in an `Arc<[u8]>`, which a copy shares, so
//! the one encoding of a group call's arguments is shared by all its
//! requests.

use core::fmt;
use core::ops::Deref;
use std::sync::Arc;

/// The longest blob a [`Blob`] keeps inline (78 bytes): a tag byte and a
/// length byte fill the rest of its 80. That covers the 72 bytes of an
/// IV and the 64-byte body the §5.4 check decrypts on the stack.
pub const INLINE_CAP: usize = 78;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<[u8]>),
}

/// An immutable byte string: inline up to [`INLINE_CAP`] bytes, shared
/// beyond. Dereferences to `[u8]`; the empty blob (a request sent with
/// authentication off) is inline.
#[derive(Clone)]
pub struct Blob(Repr);

impl Blob {
    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(bytes) => bytes,
        }
    }

    /// Whether the bytes live inline (there are at most [`INLINE_CAP`]).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The `len` bytes `fill` writes: inline when they fit, else in one
    /// shared buffer, allocated once and filled before it is shared.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Blob {
        let mut buf = [0; INLINE_CAP];
        if let Some(head) = buf.get_mut(..len) {
            fill(head);
            let len = len as u8; // at most INLINE_CAP
            return Blob(Repr::Inline { len, buf });
        }
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // The buffer has no other owner yet, so this copies nothing.
        fill(Arc::make_mut(&mut bytes));
        Blob(Repr::Shared(bytes))
    }
}

impl Default for Blob {
    fn default() -> Self {
        Blob::from(&[][..])
    }
}

impl Deref for Blob {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Blob {
    /// Copies `bytes` inline when they fit, else into one shared buffer.
    fn from(bytes: &[u8]) -> Self {
        Blob::build(bytes.len(), |buf| buf.copy_from_slice(bytes))
    }
}

impl From<Vec<u8>> for Blob {
    fn from(bytes: Vec<u8>) -> Self {
        Blob::from(bytes.as_slice())
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Blob {
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
        assert!(!blob.clone().is_inline());
        assert_eq!(blob.clone(), blob);
    }

    #[test]
    fn equality_and_debug_are_the_bytes() {
        assert!(Blob::default().is_empty());
        assert_eq!(Blob::default(), Blob::from(Vec::new()));
        assert_ne!(Blob::from(&[1, 2][..]), Blob::from(&[1, 2, 0][..]));
        assert_eq!(format!("{:?}", Blob::from(&[1, 2][..])), "[1, 2]");
    }
}
