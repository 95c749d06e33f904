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
    Day, DeviceId, GroupId, LinkId, MeetingId, NodeAddr, Priority, RequestId, ServiceName,
    SlotBitmap, SlotIndex, SlotRange, SydError, SydResult, TimeSlot, Timestamp, UserId, Value,
};

/// Upper bound on a decoded collection length or string size (16 MiB).
///
/// A single corrupt varint must not make the decoder reserve gigabytes.
pub const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Types that can serialize themselves into a byte vector.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Exact number of bytes [`Encode::encode`] will write.
    ///
    /// Used by the benchmarks to report wire footprints and by the
    /// transport to pre-size buffers.
    fn encoded_len(&self) -> usize;
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

/// Number of bytes the varint encoding of `v` occupies.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Writes a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Encodes any `Encode` value into a fresh vector.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    debug_assert_eq!(buf.len(), value.encoded_len(), "encoded_len out of sync");
    buf
}

/// Decodes a value that must occupy the *entire* input slice.
pub fn decode_from_slice<T: Decode>(input: &[u8]) -> SydResult<T> {
    let mut r = Reader::new(input);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(SydError::Codec(format!(
            "{} trailing bytes after message",
            r.remaining()
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        r.u8()
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let v = r.varint()?;
        u16::try_from(v).map_err(|_| SydError::Codec(format!("{v} overflows u16")))
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::from(*self))
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let v = r.varint()?;
        u32::try_from(v).map_err(|_| SydError::Codec(format!("{v} overflows u32")))
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        r.varint()
    }
}

impl Encode for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, zigzag(*self));
    }
    fn encoded_len(&self) -> usize {
        varint_len(zigzag(*self))
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(unzigzag(r.varint()?))
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_str().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let n = r.len_prefix()?;
        let raw = r.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| SydError::Codec(format!("invalid utf-8: {e}")))
    }
}

impl Encode for [u8] {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let n = r.len_prefix()?;
        Ok(r.bytes(n)?.to_vec())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
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
        impl Encode for Vec<$elem> {
            fn encode(&self, buf: &mut Vec<u8>) {
                put_varint(buf, self.len() as u64);
                for item in self {
                    item.encode(buf);
                }
            }
            fn encoded_len(&self) -> usize {
                varint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
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
            fn encode(&self, buf: &mut Vec<u8>) {
                put_varint(buf, self.raw());
            }
            fn encoded_len(&self) -> usize {
                varint_len(self.raw())
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
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_str().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Decode for ServiceName {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(ServiceName::new(String::decode(r)?))
    }
}

impl Encode for Timestamp {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.as_micros());
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.as_micros())
    }
}

impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Timestamp::from_micros(r.varint()?))
    }
}

impl Encode for TimeSlot {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.ordinal());
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.ordinal())
    }
}

impl Decode for TimeSlot {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(TimeSlot::from_ordinal(r.varint()?))
    }
}

impl Encode for SlotRange {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.start.encode(buf);
        self.end.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.start.encoded_len() + self.end.encoded_len()
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.start_ordinal());
        put_varint(buf, u64::from(self.len()));
        for w in self.words() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.start_ordinal())
            + varint_len(u64::from(self.len()))
            + self.words().len() * 8
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
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.0));
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::from(self.0))
    }
}

impl Decode for Day {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(Day::new(u32::decode(r)?))
    }
}

impl Encode for SlotIndex {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.0));
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::from(self.0))
    }
}

impl Decode for SlotIndex {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        Ok(SlotIndex::new(u16::decode(r)?))
    }
}

impl Encode for Priority {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.level());
    }
    fn encoded_len(&self) -> usize {
        1
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

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_F64: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_BYTES: u8 = 5;
const VAL_LIST: u8 = 6;
const VAL_MAP: u8 = 7;

impl Encode for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
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

    fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(b) => b.encoded_len(),
            Value::I64(n) => n.encoded_len(),
            Value::F64(x) => x.encoded_len(),
            Value::Str(s) => s.encoded_len(),
            Value::Bytes(b) => b.encoded_len(),
            Value::List(items) => {
                varint_len(items.len() as u64)
                    + items.iter().map(Encode::encoded_len).sum::<usize>()
            }
            Value::Map(map) => {
                varint_len(map.len() as u64)
                    + map
                        .iter()
                        .map(|(k, v)| k.encoded_len() + v.encoded_len())
                        .sum::<usize>()
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
            VAL_STR => Ok(Value::Str(String::decode(r)?)),
            VAL_BYTES => Ok(Value::Bytes(Vec::<u8>::decode(r)?)),
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
                    let k = String::decode(r)?;
                    let v = Value::decode(r)?;
                    map.insert(k, v);
                }
                Ok(Value::Map(map))
            }
            other => Err(SydError::Codec(format!("invalid value tag {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// SydError and Result<Value, SydError>
// ---------------------------------------------------------------------------

impl Encode for SydError {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.kind_code());
        self.wire_message().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        1 + self.wire_message().encoded_len()
    }
}

impl Decode for SydError {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let code = r.u8()?;
        let message = String::decode(r)?;
        Ok(SydError::from_wire(code, message))
    }
}

impl Encode for Result<Value, SydError> {
    fn encode(&self, buf: &mut Vec<u8>) {
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
    fn encoded_len(&self) -> usize {
        1 + match self {
            Ok(v) => v.encoded_len(),
            Err(e) => e.encoded_len(),
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
        assert_eq!(bytes.len(), value.encoded_len());
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
        round_trip(vec![0u8, 255, 7]);
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
    }

    #[test]
    fn slot_bitmap_decode_rejects_phantom_bits() {
        let bm = SlotBitmap::all_free(SlotRange::days(0, 1));
        let mut bytes = encode_to_vec(&bm);
        // Set a bit past the 24-slot window inside the single word.
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert!(decode_from_slice::<SlotBitmap>(&bytes).is_err());
    }

    #[test]
    fn values_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::I64(-77));
        round_trip(Value::F64(6.5));
        round_trip(Value::str("x"));
        round_trip(Value::Bytes(vec![1, 2, 3]));
        round_trip(Value::list([
            Value::I64(1),
            Value::list([Value::Null, Value::str("nested")]),
        ]));
        round_trip(Value::map([
            ("a", Value::I64(1)),
            ("b", Value::map([("c", Value::Bool(false))])),
        ]));
    }

    #[test]
    fn errors_round_trip() {
        round_trip(SydError::Timeout(RequestId::new(5)));
        round_trip(SydError::NoSuchService(
            ServiceName::new("cal"),
            "reserve".into(),
        ));
        round_trip(Result::<Value, SydError>::Ok(Value::I64(1)));
        round_trip(Result::<Value, SydError>::Err(SydError::Shutdown));
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
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
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
            4 => Value::Str(rng.string(32)),
            5 => Value::Bytes(rng.bytes(31)),
            6 => Value::List(
                (0..rng.below(6))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..rng.below(6))
                    .map(|_| (rng.string(8), arb_value(rng, depth - 1)))
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
            assert_eq!(bytes.len(), v.encoded_len());
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
            let _ = decode_from_slice::<Value>(&rng.bytes(255));
        });
    }
}
