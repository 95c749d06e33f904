//! [`Text`]: the immutable string every short name in the system travels as.
//!
//! Map keys (`action`, `meeting`), method, service and column names,
//! entities (`slot:100`) and correlation ids (`meeting:16777217`) are a
//! few bytes long; as `String`s each copy and each decode was an
//! allocation. A `Text` of up to [`INLINE_CAP`] bytes lives inline in the
//! 24 bytes a `String` takes, a longer one in an `Arc<str>`: the
//! representation of [`crate::Bytes`], with its UTF-8 invariant. `Eq`, `Ord`
//! and `Hash` are `str`'s, so a `BTreeMap<Text, _>` orders, looks up
//! (through `Borrow<str>`) and encodes as a `BTreeMap<String, _>` does.

use core::borrow::Borrow;
use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::Deref;

use crate::blob::Repr;

/// The longest string a [`Text`] keeps inline (22 bytes): a tag byte and a
/// length byte fill the rest of its 24.
pub const INLINE_CAP: usize = 22;

/// An immutable UTF-8 string: inline up to [`INLINE_CAP`] bytes, shared
/// beyond, in the representation of a [`crate::Bytes`] whose bytes are
/// always a whole `str`. Dereferences to `str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Text(Repr<INLINE_CAP, str>);

impl Text {
    /// The string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Shared(s) => s,
            // Inline bytes are always a whole `&str` copied in: the empty
            // fallback is never taken.
            inline => core::str::from_utf8(inline.as_bytes()).unwrap_or_default(),
        }
    }

    /// `format!` into a `Text`: a result of up to [`INLINE_CAP`] bytes is
    /// written inline and never touches the heap, one of up to 128 is
    /// formatted on the stack and costs only its shared copy.
    pub fn format(args: fmt::Arguments<'_>) -> Text {
        const FORMAT_BUF: usize = 128;
        let mut buf = [0; FORMAT_BUF];
        let mut rest = &mut buf[..];
        if std::io::Write::write_fmt(&mut rest, args).is_ok() {
            let len = FORMAT_BUF - rest.len();
            return Text::from(core::str::from_utf8(&buf[..len]).unwrap_or_default());
        }
        Text::from(std::fmt::format(args))
    }

    /// A constant name: `s` copied inline at compile time. A string longer
    /// than [`INLINE_CAP`] bytes does not compile (in a `const`).
    pub const fn constant(s: &str) -> Text {
        assert!(s.len() <= INLINE_CAP, "a constant Text is inline");
        Text(Repr::inline(s.as_bytes()))
    }

    /// Whether the string lives inline (it is at most [`INLINE_CAP`] bytes).
    pub fn is_inline(&self) -> bool {
        self.0.is_inline()
    }
}

impl Default for Text {
    fn default() -> Self {
        Text::from("")
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Repr::copy(s))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::from(s.as_str())
    }
}

impl From<&Text> for Text {
    fn from(s: &Text) -> Self {
        s.clone()
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.0.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.0.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::rng::cases;
    use std::collections::{BTreeMap, HashMap};

    /// A stored row is `Value`s, and a `Value::Str` is a `Text` and a
    /// `Value::Bytes` a `Bytes` of the same representation: growing any
    /// of them grows every row.
    #[test]
    fn sizes_are_pinned() {
        use crate::blob::{Blob, Bytes};
        use core::mem::size_of;
        assert_eq!(size_of::<Text>(), 24);
        assert_eq!(size_of::<Option<Text>>(), 24);
        assert_eq!(size_of::<Bytes>(), 24);
        assert_eq!(size_of::<Option<Bytes>>(), 24);
        assert_eq!(size_of::<crate::Value>(), 32);
        assert_eq!(size_of::<Blob>(), 80);
    }

    #[test]
    fn the_inline_limit_is_22_bytes() {
        for n in [0, 1, 21, 22] {
            let s = "x".repeat(n);
            let t = Text::from(s.as_str());
            assert!(t.is_inline(), "{n} bytes");
            assert_eq!(t, *s);
            assert_eq!(t.len(), n);
        }
        let long = Text::from("y".repeat(23));
        assert!(!long.is_inline());
        assert_eq!(long, *"y".repeat(23));
        // A clone of a shared text shares it.
        assert!(!long.clone().is_inline());
        assert_eq!(long.clone(), long);
    }

    #[test]
    fn multi_byte_characters_around_the_limit() {
        // 20 ASCII bytes then a 2-, 3- or 4-byte character: 22 bytes stay
        // inline, 23 and 24 are shared, and none is split.
        for (tail, inline) in [("é", true), ("€", false), ("𝄞", false)] {
            let s = format!("{}{tail}", "a".repeat(20));
            let t = Text::from(s.as_str());
            assert_eq!(t.is_inline(), inline, "{s:?}");
            assert_eq!(t.as_str(), s);
            assert!(t.ends_with(tail));
        }
    }

    #[test]
    fn order_equality_and_hash_agree_with_str() {
        cases(128, |rng| {
            // Short and long strings both, multi-byte and astral scalars
            // included: inline and shared texts compare with each other.
            let strings: Vec<String> = (0..rng.below(12))
                .map(|_| {
                    let max = if rng.chance(1, 2) { 6 } else { 30 };
                    rng.string(max)
                })
                .collect();
            let by_string: BTreeMap<String, usize> = strings.iter().cloned().zip(0..).collect();
            let by_text: BTreeMap<Text, usize> = strings
                .iter()
                .map(|s| Text::from(s.as_str()))
                .zip(0..)
                .collect();
            let keys: Vec<&str> = by_text.keys().map(Text::as_str).collect();
            let expected: Vec<&str> = by_string.keys().map(String::as_str).collect();
            assert_eq!(keys, expected);
            assert!(by_string.values().eq(by_text.values()));
            let hashed: HashMap<Text, usize> = by_text.clone().into_iter().collect();
            for s in &strings {
                assert_eq!(by_text.get(s.as_str()), by_string.get(s));
                assert_eq!(hashed.get(s.as_str()), by_string.get(s));
            }
        });
    }

    #[test]
    fn format_writes_inline_until_it_overflows() {
        let short = Text::format(format_args!("slot:{}", 100));
        assert!(short.is_inline());
        assert_eq!(short, "slot:100");
        let edge = Text::format(format_args!("{}:{}", "a".repeat(10), 1_234_567_890));
        assert_eq!((edge.len(), edge.is_inline()), (21, true));
        let long = Text::format(format_args!("participant_changed:{}", 16_777_217));
        assert!(!long.is_inline());
        assert_eq!(long, "participant_changed:16777217");
        assert_eq!(Text::format(format_args!("")), "");
        // Past the stack buffer the result is formatted on the heap.
        let huge = "x".repeat(129);
        assert_eq!(Text::format(format_args!("{huge}")), huge.as_str());
    }

    #[test]
    fn conversions_and_formatting() {
        assert_eq!(Text::default(), "");
        assert_eq!(Text::from("abc").to_string(), "abc");
        assert_eq!(Text::from(String::from("abc")), Text::from("abc"));
        assert_eq!(format!("{}", Text::from("a\"b")), "a\"b");
        assert_eq!(format!("{:?}", Text::from("a\"b")), "\"a\\\"b\"");
        let (abc, abd) = (Text::from("abc"), Text::from("abd"));

        assert!(abd > abc);
    }
}
