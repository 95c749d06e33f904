//! `Encode`/`Decode` traits and implementations.
//!
//! Layout conventions:
//!
//! * Unsigned integers are LEB128 varints (`u64`); signed integers are
//!   zigzag-encoded varints.
//! * Strings and byte blobs are a varint length followed by raw bytes.
//! * Sums ([`syd_types::Value`], payloads, errors) are a one-byte tag
//!   followed by the variant body.
//! * Collections are a varint count followed by the elements.
//!
//! Decoding is strict: trailing bytes, truncated input, bad tags and invalid
//! UTF-8 are all [`SydError::Codec`] errors, never panics. Resource bounds
//! (`MAX_LEN`) cap a single collection/string so a corrupt length prefix
//! cannot trigger an enormous allocation.

use syd_types::{
    Bytes, Day, DeviceId, GroupId, LinkId, MeetingId, NodeAddr, Priority, RequestId, ServiceName,
    SlotBitmap, SlotIndex, SlotRange, SydError, SydResult, Text, TimeSlot, Timestamp, UserId,
    Value,
};

/// Upper bound on a decoded collection length or string size (16 MiB).
///
/// A single corrupt varint must not make the decoder reserve gigabytes.
pub const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Types that can serialize themselves.
///
/// `encode` is a type's only statement of its layout: [`encoded_len`]
/// runs it into a byte counter, and [`encode_to_vec`] sizes its buffer
/// from that count.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut impl Sink);
}

/// Where [`Encode::encode`] writes: a byte vector, or the counter behind
/// [`encoded_len`]. The method names are `Vec`'s, so an encoder reads the
/// same whichever it writes to.
pub trait Sink {
    /// Appends one byte.
    fn push(&mut self, byte: u8);
    /// Appends a slice.
    fn extend_from_slice(&mut self, bytes: &[u8]);
    /// Appends `value`, whose [`encoded_len`] the caller has already
    /// counted as `len`: the counter adds `len` rather than running
    /// `encode` once more.
    #[inline]
    fn put_counted<T: Encode + ?Sized>(&mut self, value: &T, len: usize)
    where
        Self: Sized,
    {
        let _ = len;
        value.encode(self);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// Counts the bytes an encoding writes; a slice costs O(1) whatever its
/// length.
struct Counter(usize);

impl Sink for Counter {
    #[inline]
    fn push(&mut self, _: u8) {
        self.0 += 1;
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    #[inline]
    fn put_counted<T: Encode + ?Sized>(&mut self, _: &T, len: usize) {
        self.0 += len;
    }
}

/// Writes an encoding into a slice of exactly its counted length.
struct Fill<'a>(&'a mut [u8]);

impl Sink for Fill<'_> {
    #[inline]
    fn push(&mut self, byte: u8) {
        self.extend_from_slice(&[byte]);
    }
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = rest;
    }
}

/// Types that can deserialize themselves from a [`Reader`].
pub trait Decode: Sized {
    /// Consumes bytes from `r`, producing a value or a codec error.
    fn decode(r: &mut Reader<'_>) -> SydResult<Self>;
}

/// A checked cursor over an input slice.
///
/// Every read is bounds-checked and produces [`SydError::Codec`]
/// instead of panicking on truncated input.
#[derive(Clone)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps an input slice.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> SydResult<u8> {
        if self.input.is_empty() {
            return Err(SydError::Codec("unexpected end of input".into()));
        }
        let b = self.input[0];
        self.input = &self.input[1..];
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> SydResult<&'a [u8]> {
        if self.input.len() < n {
            return Err(SydError::Codec(format!(
                "need {n} bytes, only {} remain",
                self.input.len()
            )));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> SydResult<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(SydError::Codec("varint overflows u64".into()));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(SydError::Codec("varint too long".into()));
            }
        }
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> SydResult<&'a str> {
        let n = self.len_prefix()?;
        core::str::from_utf8(self.bytes(n)?)
            .map_err(|e| SydError::Codec(format!("invalid utf-8: {e}")))
    }

    /// Ends a read that must take the whole input: a byte left over is a
    /// codec error.
    pub fn end(&self) -> SydResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SydError::Codec(format!("{n} trailing bytes after message"))),
        }
    }

    /// Reads a varint validated against [`MAX_LEN`], for use as a length.
    pub fn len_prefix(&mut self) -> SydResult<usize> {
        let n = self.varint()?;
        if n > MAX_LEN {
            return Err(SydError::Codec(format!(
                "length {n} exceeds limit {MAX_LEN}"
            )));
        }
        Ok(n as usize)
    }
}

/// Writes a LEB128 varint.
pub fn put_varint(buf: &mut impl Sink, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes any `Encode` value into a fresh vector, allocated once at its
/// exact size.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(value));
    value.encode(&mut buf);
    buf
}

/// Encodes `value` into [`Bytes`] (a [`syd_types::Blob`], or a
/// [`Value::Bytes`] cell): inline when short, else one shared buffer
/// allocated once at its exact size.
pub fn encode_to_bytes<const N: usize, T: Encode + ?Sized>(value: &T) -> Bytes<N> {
    Bytes::build(encoded_len(value), |buf| value.encode(&mut Fill(buf)))
}

/// Exact number of bytes [`Encode::encode`] writes for `value`, counted
/// by running it without a buffer. [`encode_to_vec`] sizes its buffer
/// with it, and an [`Envelope`](crate::Envelope) its payload's length
/// prefix.
pub fn encoded_len<T: Encode + ?Sized>(value: &T) -> usize {
    let mut counter = Counter(0);
    value.encode(&mut counter);
    counter.0
}

/// Decodes a value that must occupy the *entire* input slice.
pub fn decode_from_slice<T: Decode>(input: &[u8]) -> SydResult<T> {
    let mut r = Reader::new(input);
    let value = T::decode(&mut r)?;
    r.end()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, buf: &mut impl Sink) {
        buf.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        r.u8()
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut impl Sink) {
        buf.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SydError::Codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Encode for u16 {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, u64::from(*self));
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let v = r.varint()?;
        u16::try_from(v).map_err(|_| SydError::Codec(format!("{v} overflows u16")))
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let v = r.varint()?;
        u32::try_from(v).map_err(|_| SydError::Codec(format!("{v} overflows u32")))
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, *self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        r.varint()
    }
}

impl Encode for i64 {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, zigzag(*self));
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(unzigzag(r.varint()?))
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut impl Sink) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let raw = r.bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut impl Sink) {
        self.as_str().encode(buf);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(r.str()?.to_owned())
    }
}

impl Encode for Text {
    fn encode(&self, buf: &mut impl Sink) {
        self.as_str().encode(buf);
    }
}

/// A string of up to [`syd_types::text::INLINE_CAP`] bytes decodes without
/// an allocation.
impl Decode for Text {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Text::from(r.str()?))
    }
}

impl Encode for [u8] {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self);
    }
}

/// A vector encodes as its slice: `Vec<u8>` as bytes, any other as a list.
impl<T> Encode for Vec<T>
where
    [T]: Encode,
{
    fn encode(&self, buf: &mut impl Sink) {
        self[..].encode(buf);
    }
}

impl<const N: usize> Encode for Bytes<N> {
    fn encode(&self, buf: &mut impl Sink) {
        self.as_slice().encode(buf);
    }
}

/// `Vec<u8>`'s format; up to `N` bytes decode without an allocation.
impl<const N: usize> Decode for Bytes<N> {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let n = r.len_prefix()?;
        Ok(Bytes::from(r.bytes(n)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut impl Sink) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(SydError::Codec(format!("invalid option tag {other}"))),
        }
    }
}

/// Generic list encoding; `Vec<u8>` has its own compact blob form above, so
/// this impl is restricted to non-byte element types via the blanket bound.
macro_rules! vec_codec {
    ($elem:ty) => {
        impl Encode for [$elem] {
            fn encode(&self, buf: &mut impl Sink) {
                put_varint(buf, self.len() as u64);
                for item in self {
                    item.encode(buf);
                }
            }
        }

        impl Decode for Vec<$elem> {
            fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
                let n = r.len_prefix()?;
                let mut out = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    out.push(<$elem>::decode(r)?);
                }
                Ok(out)
            }
        }
    };
}

vec_codec!(Value);
vec_codec!(String);
vec_codec!(UserId);
vec_codec!(u64);

// ---------------------------------------------------------------------------
// syd-types ids & time
// ---------------------------------------------------------------------------

macro_rules! id_codec {
    ($name:ident) => {
        impl Encode for $name {
            fn encode(&self, buf: &mut impl Sink) {
                put_varint(buf, self.raw());
            }
        }

        impl Decode for $name {
            fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
                Ok($name::new(r.varint()?))
            }
        }
    };
}

id_codec!(UserId);
id_codec!(DeviceId);
id_codec!(GroupId);
id_codec!(LinkId);
id_codec!(MeetingId);
id_codec!(RequestId);
id_codec!(NodeAddr);

impl Encode for ServiceName {
    fn encode(&self, buf: &mut impl Sink) {
        self.as_str().encode(buf);
    }
}

impl Decode for ServiceName {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(ServiceName::new(Text::decode(r)?))
    }
}

impl Encode for Timestamp {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, self.as_micros());
    }
}

impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Timestamp::from_micros(r.varint()?))
    }
}

impl Encode for TimeSlot {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, self.ordinal());
    }
}

impl Decode for TimeSlot {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(TimeSlot::from_ordinal(r.varint()?))
    }
}

impl Encode for SlotRange {
    fn encode(&self, buf: &mut impl Sink) {
        self.start.encode(buf);
        self.end.encode(buf);
    }
}

impl Decode for SlotRange {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let start = TimeSlot::decode(r)?;
        let end = TimeSlot::decode(r)?;
        if start.ordinal() > end.ordinal() {
            return Err(SydError::Codec(format!(
                "reversed slot range {start}..{end}"
            )));
        }
        Ok(SlotRange::new(start, end))
    }
}

impl Encode for SlotBitmap {
    /// Varint window header (`start`, `len`) followed by one fixed
    /// 8-byte little-endian word per 64 slots — the word count is fully
    /// determined by `len`, so no second length prefix travels.
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, self.start_ordinal());
        put_varint(buf, u64::from(self.len()));
        for w in self.words() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
}

impl Decode for SlotBitmap {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let start = r.varint()?;
        let len = r.varint()?;
        if len > MAX_LEN {
            return Err(SydError::Codec(format!("slot bitmap of {len} slots")));
        }
        let len = len as u32;
        let mut words = Vec::with_capacity((len as usize).div_ceil(64));
        for _ in 0..(len as usize).div_ceil(64) {
            let chunk = r.bytes(8)?;
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            words.push(u64::from_le_bytes(b));
        }
        SlotBitmap::from_raw_parts(start, len, words).map_err(|e| SydError::Codec(e.to_string()))
    }
}

impl Encode for Day {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, u64::from(self.0));
    }
}

impl Decode for Day {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Day::new(u32::decode(r)?))
    }
}

impl Encode for SlotIndex {
    fn encode(&self, buf: &mut impl Sink) {
        put_varint(buf, u64::from(self.0));
    }
}

impl Decode for SlotIndex {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(SlotIndex::new(u16::decode(r)?))
    }
}

impl Encode for Priority {
    fn encode(&self, buf: &mut impl Sink) {
        buf.push(self.level());
    }
}

impl Decode for Priority {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Priority::new(r.u8()?))
    }
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

pub(crate) const VAL_NULL: u8 = 0;
pub(crate) const VAL_BOOL: u8 = 1;
pub(crate) const VAL_I64: u8 = 2;
pub(crate) const VAL_F64: u8 = 3;
pub(crate) const VAL_STR: u8 = 4;
pub(crate) const VAL_BYTES: u8 = 5;
pub(crate) const VAL_LIST: u8 = 6;
pub(crate) const VAL_MAP: u8 = 7;

impl Encode for Value {
    fn encode(&self, buf: &mut impl Sink) {
        match self {
            Value::Null => buf.push(VAL_NULL),
            Value::Bool(b) => {
                buf.push(VAL_BOOL);
                b.encode(buf);
            }
            Value::I64(n) => {
                buf.push(VAL_I64);
                n.encode(buf);
            }
            Value::F64(x) => {
                buf.push(VAL_F64);
                x.encode(buf);
            }
            Value::Str(s) => {
                buf.push(VAL_STR);
                s.encode(buf);
            }
            Value::Bytes(b) => {
                buf.push(VAL_BYTES);
                b.encode(buf);
            }
            Value::List(items) => {
                buf.push(VAL_LIST);
                put_varint(buf, items.len() as u64);
                for item in items {
                    item.encode(buf);
                }
            }
            Value::Map(map) => {
                buf.push(VAL_MAP);
                put_varint(buf, map.len() as u64);
                for (k, v) in map {
                    k.encode(buf);
                    v.encode(buf);
                }
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        match r.u8()? {
            VAL_NULL => Ok(Value::Null),
            VAL_BOOL => Ok(Value::Bool(bool::decode(r)?)),
            VAL_I64 => Ok(Value::I64(i64::decode(r)?)),
            VAL_F64 => Ok(Value::F64(f64::decode(r)?)),
            VAL_STR => Ok(Value::Str(Text::decode(r)?)),
            VAL_BYTES => Ok(Value::Bytes(Bytes::decode(r)?)),
            VAL_LIST => {
                let n = r.len_prefix()?;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(Value::decode(r)?);
                }
                Ok(Value::List(items))
            }
            VAL_MAP => {
                let n = r.len_prefix()?;
                let mut map = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let k = Text::decode(r)?;
                    let v = Value::decode(r)?;
                    map.insert(k, v);
                }
                Ok(Value::Map(map))
            }
            other => Err(SydError::Codec(format!("invalid value tag {other}"))),
        }
    }
}

/// Steps over one encoded [`Value`] without building it: refuses exactly
/// what [`Value::decode`] refuses, with the same [`SydError::Codec`], in
/// the same order, and allocates nothing.
pub(crate) fn skip_value(r: &mut Reader<'_>) -> SydResult<()> {
    match r.u8()? {
        VAL_NULL => Ok(()),
        VAL_BOOL => bool::decode(r).map(drop),
        VAL_I64 => r.varint().map(drop),
        VAL_F64 => r.bytes(8).map(drop),
        VAL_STR => r.str().map(drop),
        VAL_BYTES => r.len_prefix().and_then(|n| r.bytes(n)).map(drop),
        VAL_LIST => (0..r.len_prefix()?).try_for_each(|_| skip_value(r)),
        VAL_MAP => (0..r.len_prefix()?).try_for_each(|_| r.str().and_then(|_| skip_value(r))),
        other => Err(SydError::Codec(format!("invalid value tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// SydError and Result<Value, SydError>
// ---------------------------------------------------------------------------

/// Writes each [`SydError`] variant as its tag byte followed by its fields,
/// each through its own codec, and reads it back the same way: the tag
/// table below is the only one, and an unknown tag is a codec error.
macro_rules! error_codec {
    ($($tag:literal => $variant:ident $(($($field:ident: $ty:ty),+))?,)+) => {
        impl Encode for SydError {
            fn encode(&self, buf: &mut impl Sink) {
                match self {
                    $(SydError::$variant $(($($field),+))? => {
                        buf.push($tag);
                        $($($field.encode(buf);)+)?
                    })+
                }
            }
        }

        impl Decode for SydError {
            fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
                Ok(match r.u8()? {
                    $($tag => SydError::$variant $(($(<$ty>::decode(r)?),+))?,)+
                    other => return Err(SydError::Codec(format!("invalid error tag {other}"))),
                })
            }
        }
    };
}

error_codec! {
    1 => Unreachable(addr: NodeAddr),
    2 => Disconnected(addr: NodeAddr),
    3 => Timeout(req: RequestId),
    4 => Shutdown,
    5 => Codec(m: String),
    6 => Protocol(m: String),
    7 => NoSuchTable(m: String),
    8 => NoSuchColumn(m: String),
    9 => SchemaViolation(m: String),
    10 => LockTimeout(m: String),
    11 => TxnAborted(m: String),
    12 => NotRegistered(m: String),
    13 => NoSuchService(service: ServiceName, method: String),
    14 => ConstraintFailed(m: String),
    15 => NoSuchLink(link: LinkId),
    16 => AuthFailed(user: UserId),
    17 => App(m: String),
}

impl Encode for Result<Value, SydError> {
    fn encode(&self, buf: &mut impl Sink) {
        match self {
            Ok(v) => {
                buf.push(1);
                v.encode(buf);
            }
            Err(e) => {
                buf.push(0);
                e.encode(buf);
            }
        }
    }
}

impl Decode for Result<Value, SydError> {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        match r.u8()? {
            1 => Ok(Ok(Value::decode(r)?)),
            0 => Ok(Err(SydError::decode(r)?)),
            other => Err(SydError::Codec(format!("invalid result tag {other}"))),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        assert_eq!(bytes.len(), encoded_len(&value));
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value);
        // Canonical: re-encoding the decoded value gives identical bytes.
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(127u64);
        round_trip(128u64);
        round_trip(u64::MAX);
        round_trip(-1i64);
        round_trip(i64::MIN);
        round_trip(i64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(3.25f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("héllo"));
        round_trip(String::new());
        round_trip(Bytes::<22>::from(vec![0, 255, 7]));
        round_trip(Option::<u64>::None);
        round_trip(Some(9u64));
    }

    #[test]
    fn ids_and_time_round_trip() {
        round_trip(UserId::new(42));
        round_trip(NodeAddr::new(u64::MAX));
        round_trip(ServiceName::new("calendar"));
        round_trip(Timestamp::from_micros(123_456));
        round_trip(TimeSlot::new(10, 23));
        round_trip(SlotRange::days(1, 5));
        round_trip(Priority::HIGH);
        round_trip(Day::new(7));
        round_trip(SlotIndex::new(3));
        round_trip(vec![UserId::new(1), UserId::new(2)]);
    }

    #[test]
    fn slot_bitmaps_round_trip() {
        round_trip(SlotBitmap::empty(SlotRange::days(0, 0)));
        round_trip(SlotBitmap::all_free(SlotRange::days(2, 9)));
        let mut partial = SlotBitmap::empty(SlotRange::days(1, 4));
        partial.set_free(TimeSlot::new(1, 0));
        partial.set_free(TimeSlot::new(3, 23));
        round_trip(partial);
        let mut fortnight = SlotBitmap::all_free(SlotRange::days(3, 17));
        fortnight.set_busy(TimeSlot::new(5, 9));
        fortnight.set_busy(TimeSlot::new(16, 0));
        round_trip(fortnight);
    }

    /// A varint header — start ordinal, then length — and one 8-byte
    /// word per 64 slots: how full the calendar is never changes the
    /// size.
    #[test]
    fn slot_bitmap_size_is_the_window_alone() {
        // 28 days from day 0: start 0 (1 byte), 672 slots (2 bytes).
        let window = SlotRange::days(0, 28);
        let free = encode_to_vec(&SlotBitmap::all_free(window));
        assert_eq!(free.len(), 3 + 8 * 672usize.div_ceil(64));
        assert_eq!(free.len(), encode_to_vec(&SlotBitmap::empty(window)).len());
        // 14 days from day 3: start 72 (1 byte), 336 slots (2 bytes).
        let fortnight = SlotBitmap::all_free(SlotRange::days(3, 17));
        assert_eq!(
            encode_to_vec(&fortnight).len(),
            3 + 8 * 336usize.div_ceil(64)
        );
    }

    #[test]
    fn slot_bitmap_decode_rejects_phantom_bits() {
        let bm = SlotBitmap::all_free(SlotRange::days(0, 1));
        let mut bytes = encode_to_vec(&bm);
        // Set a bit past the 24-slot window inside the single word.
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert!(decode_from_slice::<SlotBitmap>(&bytes).is_err());
        // The same on a bitmap with no bit set at all.
        let mut bytes = encode_to_vec(&SlotBitmap::empty(SlotRange::days(0, 1)));
        let last = bytes.len() - 1;
        bytes[last] = 0x80;
        assert!(decode_from_slice::<SlotBitmap>(&bytes).is_err());
    }

    #[test]
    fn slot_bitmap_decode_rejects_malformed_buffers() {
        let is_codec = |input: &[u8]| {
            matches!(
                decode_from_slice::<SlotBitmap>(input),
                Err(SydError::Codec(_))
            )
        };
        assert!(is_codec(&[1, 2, 3]));
        let mut bytes = encode_to_vec(&SlotBitmap::all_free(SlotRange::days(0, 1)));
        for cut in 0..bytes.len() {
            assert!(is_codec(&bytes[..cut]), "{cut}-byte prefix");
        }
        bytes.push(0);
        assert!(is_codec(&bytes), "a byte appended");
    }

    #[test]
    fn values_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::I64(-77));
        round_trip(Value::F64(6.5));
        round_trip(Value::str("x"));
        round_trip(Value::from(vec![1, 2, 3]));
        round_trip(Value::list([
            Value::I64(1),
            Value::list([Value::Null, Value::str("nested")]),
        ]));
        round_trip(Value::map([
            ("a", Value::I64(1)),
            ("b", Value::map([("c", Value::Bool(false))])),
        ]));
    }

    /// Strings at and around the inline limit, bare and inside a `Value`,
    /// ASCII and with a last character that straddles the limit.
    #[test]
    fn texts_round_trip_around_the_inline_limit() {
        let mut strings: Vec<String> = [0, 21, 22, 23].map(|n| "x".repeat(n)).to_vec();
        for tail in ["é", "€", "𝄞"] {
            strings.push(format!("{}{tail}", "a".repeat(20)));
            strings.push(format!("{}{tail}", "a".repeat(19)));
        }
        for s in strings {
            let text = Text::from(s.as_str());
            round_trip(text.clone());
            round_trip(s.clone());
            round_trip(Value::str(s.as_str()));
            round_trip(Value::map([("k", Value::str(s.as_str()))]));
            // The bytes are `String`'s, and a decoded short one is inline.
            let bytes = encode_to_vec(&s);
            assert_eq!(encode_to_vec(&text), bytes);
            let back: Text = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, *s);
            assert_eq!(
                back.is_inline(),
                s.len() <= syd_types::text::INLINE_CAP,
                "{s:?}"
            );
            match decode_from_slice::<Value>(&encode_to_vec(&Value::str(s.as_str()))).unwrap() {
                Value::Str(t) => assert_eq!(t.is_inline(), s.len() <= 22, "{s:?}"),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn decoded_map_keys_are_inline() {
        let map = Value::map([("action", Value::Null), ("meeting", Value::Null)]);
        let back: Value = decode_from_slice(&encode_to_vec(&map)).unwrap();
        assert!(back.as_map().unwrap().keys().all(Text::is_inline));
    }

    /// One of each [`SydError`] variant.
    fn every_error() -> Vec<SydError> {
        vec![
            SydError::Unreachable(NodeAddr::new(4)),
            SydError::Disconnected(NodeAddr::new(u64::MAX)),
            SydError::Timeout(RequestId::new(6)),
            SydError::Shutdown,
            SydError::Codec("bad byte".into()),
            SydError::Protocol("arity".into()),
            SydError::NoSuchTable("slots".into()),
            SydError::NoSuchColumn("day".into()),
            SydError::SchemaViolation("dup key".into()),
            SydError::LockTimeout("slot 3".into()),
            SydError::TxnAborted("veto".into()),
            SydError::NotRegistered("phil".into()),
            // A `/` in a field is a byte of it, not a separator.
            SydError::NoSuchService(ServiceName::new("cal/x"), "re/serve".into()),
            SydError::NoSuchService(ServiceName::new("cal"), String::new()),
            SydError::ConstraintFailed("xor got 2".into()),
            SydError::NoSuchLink(LinkId::new(8)),
            SydError::AuthFailed(UserId::new(300)),
            SydError::App(String::new()),
        ]
    }

    #[test]
    fn errors_round_trip() {
        for err in every_error() {
            round_trip(Result::<Value, SydError>::Err(err));
        }
        round_trip(Result::<Value, SydError>::Ok(Value::I64(1)));
    }

    #[test]
    fn every_error_variant_round_trips() {
        for err in every_error() {
            round_trip(err);
        }
    }

    #[test]
    fn error_tags_are_unique() {
        let mut tags = std::collections::HashMap::new();
        for err in every_error() {
            let tag = encode_to_vec(&err)[0];
            let variant = std::mem::discriminant(&err);
            assert_eq!(
                *tags.entry(tag).or_insert(variant),
                variant,
                "tag {tag} is shared by two variants ({err:?})"
            );
        }
        assert_eq!(tags.len(), 17, "one tag per variant");
    }

    /// An error decodes like a record (DESIGN.md §18): every strict
    /// prefix, an unknown tag and one byte appended are codec errors,
    /// never a default.
    #[test]
    fn errors_decode_strictly() {
        let is_codec = |input: &[u8]| {
            matches!(
                decode_from_slice::<SydError>(input),
                Err(SydError::Codec(_))
            )
        };
        for err in every_error() {
            let mut bytes = encode_to_vec(&err);
            for cut in 0..bytes.len() {
                assert!(is_codec(&bytes[..cut]), "{cut}-byte prefix of {err:?}");
            }
            bytes.push(0);
            assert!(is_codec(&bytes), "a byte appended to {err:?}");
        }
        for tag in [0, 18, 255] {
            assert!(is_codec(&[tag, 0]), "tag {tag}");
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = encode_to_vec(&Value::str("hello world"));
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<Value>(&bytes[..cut]);
            assert!(err.is_err(), "decoding {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = encode_to_vec(&Value::I64(1));
        bytes.push(0);
        let err = decode_from_slice::<Value>(&bytes).unwrap_err();
        assert!(matches!(err, SydError::Codec(_)));
    }

    #[test]
    fn bad_tags_are_errors() {
        assert!(decode_from_slice::<Value>(&[99]).is_err());
        assert!(decode_from_slice::<bool>(&[7]).is_err());
        assert!(decode_from_slice::<Option<u64>>(&[9]).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        // String claiming u64::MAX/2 bytes.
        let mut bytes = vec![VAL_STR];
        put_varint(&mut bytes, u64::MAX / 2);
        let err = decode_from_slice::<Value>(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [0xffu8; 11];
        let mut r = Reader::new(&bytes);
        assert!(r.varint().is_err());
    }

    #[test]
    fn varint_boundary_lengths() {
        assert_eq!(encoded_len(&0u64), 1);
        assert_eq!(encoded_len(&127u64), 1);
        assert_eq!(encoded_len(&128u64), 2);
        assert_eq!(encoded_len(&16_383u64), 2);
        assert_eq!(encoded_len(&16_384u64), 3);
        assert_eq!(encoded_len(&u64::MAX), 10);
    }

    #[test]
    fn reversed_slot_range_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 100); // start ordinal
        put_varint(&mut buf, 50); // end ordinal < start
        assert!(decode_from_slice::<SlotRange>(&buf).is_err());
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert!(back.is_nan());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use super::*;
    use syd_types::rng::{cases, Rng};

    /// An arbitrary `Value` tree: leaves of every scalar kind (edge-biased
    /// integers, any float bit pattern including NaNs, strings with the
    /// scalars escaping gets wrong), lists and maps nested `depth` deep.
    fn arb_value(rng: &mut Rng, depth: u32) -> Value {
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(1, 2)),
            2 => Value::I64(rng.any_u64() as i64),
            3 => Value::F64(f64::from_bits(rng.any_u64())),
            4 => Value::str(rng.string(32)),
            5 => Value::from(rng.bytes(31)),
            6 => Value::List(
                (0..rng.below(6))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..rng.below(6))
                    .map(|_| (rng.string(8).into(), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Structural equality that treats NaN as equal to NaN, so the codec
    /// round-trip property holds for every float.
    fn value_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => (x.is_nan() && y.is_nan()) || x == y,
            (Value::List(xs), Value::List(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| value_eq(x, y))
            }
            (Value::Map(xs), Value::Map(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, va), (kb, vb))| ka == kb && value_eq(va, vb))
            }
            _ => a == b,
        }
    }

    #[test]
    fn value_round_trip() {
        cases(256, |rng| {
            let v = arb_value(rng, 3);
            let bytes = encode_to_vec(&v);
            assert_eq!(bytes.len(), encoded_len(&v));
            let back: Value = decode_from_slice(&bytes).unwrap();
            assert!(value_eq(&back, &v), "decoded {back:?} != original {v:?}");
        });
    }

    #[test]
    fn u64_round_trip() {
        cases(256, |rng| {
            let n = rng.any_u64();
            let bytes = encode_to_vec(&n);
            assert_eq!(decode_from_slice::<u64>(&bytes).unwrap(), n);
        });
    }

    #[test]
    fn i64_round_trip() {
        cases(256, |rng| {
            let n = rng.any_u64() as i64;
            let bytes = encode_to_vec(&n);
            assert_eq!(decode_from_slice::<i64>(&bytes).unwrap(), n);
        });
    }

    #[test]
    fn decoder_never_panics_on_garbage() {
        // Whatever the input, decoding returns Ok or Err — no panic, no
        // unbounded allocation.
        cases(256, |rng| {
            let bytes = rng.bytes(255);
            let _ = decode_from_slice::<Value>(&bytes);
            let _ = decode_from_slice::<crate::Envelope>(&bytes);
            let _ = decode_from_slice::<crate::Args>(&bytes);
        });
    }
}
