//! Typed arguments and replies: what a verb's positional [`Value`]s mean.
//!
//! A remote method is called by name with a list of [`Value`]s and answers
//! one [`Value`]. [`AsValue`] is a type that travels as one such value (an
//! id, a number, a name, a record with a codec), and [`Params`] a tuple of
//! them, a method's arguments. Both are read the one way written here: a
//! missing argument or a value of the wrong type is
//! [`SydError::Protocol`], a negative number where a `u64` is read is
//! refused, and ids keep the `u64 ↔ i64` bit-cast their encoding has
//! always had. A caller's tuple is encoded straight into its [`Args`]; a
//! handler reads each argument out of the request's bytes through the
//! codec's [`Reader`] ([`AsValue::view`]), copying scalars and names,
//! reading a [`Record`] where it arrived ([`Encoded`]) and decoding only
//! an untyped [`Value`]; a caller reads the reply back owned.

use syd_types::{
    GroupId, LinkId, MeetingId, NodeAddr, Priority, SlotBitmap, SydError, SydResult, Text, UserId,
    Value,
};

use std::marker::PhantomData;

use crate::args::Args;
use crate::codec::{decode_from_slice, encode_to_bytes, Decode, Encode, Reader};
use crate::codec::{VAL_BYTES, VAL_LIST, VAL_NULL};

/// A type that travels as one [`Value`]: a verb's argument or its reply.
pub trait AsValue: Sized {
    /// What a handler reads: the type itself, or a borrow of the request's
    /// bytes.
    type View<'a>;

    /// Reads the value `r` is at as this type, borrowing from its bytes
    /// where the view does.
    fn view<'a>(r: &mut Reader<'a>) -> SydResult<Self::View<'a>>;

    /// Reads an owned `value` (a reply) as this type.
    fn from_value(value: Value) -> SydResult<Self>;

    /// The value this travels as.
    fn into_value(self) -> Value;
}

/// A verb's positional arguments: a tuple of [`AsValue`]s, or `Vec<Value>`
/// for an untyped list.
pub trait Params: Sized {
    /// The tuple of views a handler is handed.
    type View<'a>;

    /// Reads the positional `args`; extra trailing arguments are ignored.
    fn parse(args: &Args) -> SydResult<Self::View<'_>>;

    /// The argument list a caller sends, encoded.
    fn into_args(self) -> Args;
}

/// The value `r` is at, decoded and read as an owned `T`: the view of a
/// type that borrows nothing from the request.
pub fn read_owned<T: AsValue>(r: &mut Reader<'_>) -> SydResult<T> {
    T::from_value(Value::decode(r)?)
}

/// Steps over the tag of the value `r` is at, which must be `tag`; any
/// other value is a type mismatch naming `want` and what is there.
fn tagged(r: &mut Reader<'_>, tag: u8, want: &str) -> SydResult<()> {
    let mut at = r.clone();
    if r.u8()? != tag {
        let got = Value::decode(&mut at)?;
        return Err(SydError::type_mismatch(want, got.type_name()));
    }
    Ok(())
}

/// An untyped value: decoded, for the handler to read as it likes.
impl AsValue for Value {
    type View<'a> = Value;

    fn view(r: &mut Reader<'_>) -> SydResult<Value> {
        Value::decode(r)
    }

    fn from_value(value: Value) -> SydResult<Value> {
        Ok(value)
    }

    fn into_value(self) -> Value {
        self
    }
}

/// A type a handler reads whole: decoded out of the request's bytes as
/// the one value it travels as.
macro_rules! whole {
    ($($t:ty: |$v:ident| $read:expr, |$s:ident| $write:expr;)*) => {$(
        impl AsValue for $t {
            type View<'a> = $t;

            fn view(r: &mut Reader<'_>) -> SydResult<$t> {
                read_owned(r)
            }

            fn from_value(value: Value) -> SydResult<$t> {
                let $v = &value;
                $read
            }

            fn into_value(self) -> Value {
                let $s = self;
                $write
            }
        }
    )*};
}

whole! {
    (): |v| match v {
        Value::Null => Ok(()),
        other => Err(SydError::type_mismatch("null", other.type_name())),
    }, |_nothing| Value::Null;
    bool: |v| v.as_bool(), |b| Value::Bool(b);
    i64: |v| v.as_i64(), |n| Value::I64(n);
    f64: |v| v.as_f64(), |x| Value::F64(x);
    u64: |v| {
        let n = v.as_i64()?;
        u64::try_from(n).map_err(|_| SydError::Protocol(format!("negative number {n}")))
    }, |n| Value::from(n);
    Priority: |v| {
        let n = v.as_i64()?;
        let level = u8::try_from(n)
            .map_err(|_| SydError::Protocol(format!("priority {n} is outside 0–255")))?;
        Ok(Priority::new(level))
    }, |p| Value::from(u32::from(p.level()));
    UserId: |v| Ok(UserId::new(v.as_i64()? as u64)), |id| Value::from(id.raw());
    MeetingId: |v| Ok(MeetingId::new(v.as_i64()? as u64)), |id| Value::from(id.raw());
    GroupId: |v| Ok(GroupId::new(v.as_i64()? as u64)), |id| Value::from(id.raw());
    LinkId: |v| Ok(LinkId::new(v.as_i64()? as u64)), |id| Value::from(id.raw());
    NodeAddr: |v| Ok(NodeAddr::new(v.as_i64()? as u64)), |addr| Value::from(addr.raw());
    Text: |v| v.as_text().cloned(), |s| Value::Str(s);
    String: |v| v.as_str().map(str::to_owned), |s| Value::from(s);
    SlotBitmap: |v| decode_from_slice(v.as_bytes()?), |b| Value::Bytes(encode_to_bytes(&b));
}

/// `None` travels as `Null`.
impl<T: AsValue> AsValue for Option<T> {
    type View<'a> = Option<T::View<'a>>;

    fn view<'a>(r: &mut Reader<'a>) -> SydResult<Self::View<'a>> {
        let mut after = r.clone();
        if after.u8()? == VAL_NULL {
            *r = after;
            return Ok(None);
        }
        T::view(r).map(Some)
    }

    fn from_value(value: Value) -> SydResult<Option<T>> {
        match value {
            Value::Null => Ok(None),
            some => T::from_value(some).map(Some),
        }
    }

    fn into_value(self) -> Value {
        self.map_or(Value::Null, T::into_value)
    }
}

/// A list of one type.
impl<T: AsValue> AsValue for Vec<T> {
    type View<'a> = Vec<T::View<'a>>;

    fn view<'a>(r: &mut Reader<'a>) -> SydResult<Self::View<'a>> {
        tagged(r, VAL_LIST, "list")?;
        (0..r.len_prefix()?).map(|_| T::view(r)).collect()
    }

    fn from_value(value: Value) -> SydResult<Vec<T>> {
        value.into_list()?.into_iter().map(T::from_value).collect()
    }

    fn into_value(self) -> Value {
        Value::List(self.into_iter().map(T::into_value).collect())
    }
}

/// A record with a codec (a meeting, a link), encoded once: it travels as
/// its bytes, a handler reads it where it arrived ([`Encoded`]), and a
/// caller that sends one record to many, or holds it encoded already,
/// shares the encoding.
#[derive(Clone)]
pub struct Record<T> {
    value: Value,
    record: PhantomData<fn() -> T>,
}

impl<T: Encode> Record<T> {
    /// Encodes `record`.
    pub fn new(record: &T) -> Record<T> {
        Record {
            value: Value::Bytes(encode_to_bytes(record)),
            record: PhantomData,
        }
    }
}

impl<T> Record<T> {
    /// The encoded record.
    pub fn value(&self) -> &Value {
        &self.value
    }
}

/// A record whose encoding a handler reads where it arrived instead of
/// decoding it: the fields it reads are found in the bytes, and the bytes
/// are what it stores.
pub trait InPlace {
    /// The fields read out of an encoding, borrowing from it.
    type Fields<'a>;

    /// Reads `bytes` whole. Refuses exactly what
    /// [`decode_from_slice`]`::<Self>` refuses, with the same
    /// [`SydError::Codec`], and allocates nothing.
    fn read(bytes: &[u8]) -> SydResult<Self::Fields<'_>>;
}

/// A record's encoding, checked, with its fields read in place
/// ([`InPlace::Fields`], reached through `Deref`).
pub struct Encoded<'a, T: InPlace> {
    bytes: &'a [u8],
    fields: T::Fields<'a>,
}

impl<'a, T: InPlace> Encoded<'a, T> {
    /// Reads the record `bytes` encode.
    pub fn read(bytes: &'a [u8]) -> SydResult<Encoded<'a, T>> {
        let fields = T::read(bytes)?;
        Ok(Encoded { bytes, fields })
    }

    /// Reads the record `value` holds.
    pub fn of(value: &'a Value) -> SydResult<Encoded<'a, T>> {
        Encoded::read(value.as_bytes()?)
    }

    /// The record these bytes are, copied out of the request (the one
    /// allocation a stored record costs).
    pub fn to_record(&self) -> Record<T> {
        Record {
            value: Value::Bytes(self.bytes.into()),
            record: PhantomData,
        }
    }
}

impl<'a, T: InPlace> std::ops::Deref for Encoded<'a, T> {
    type Target = T::Fields<'a>;

    fn deref(&self) -> &T::Fields<'a> {
        &self.fields
    }
}

/// A handler reads the record in place, in the request's own bytes; an
/// owned reply is checked the same way and kept encoded.
impl<T: InPlace> AsValue for Record<T> {
    type View<'a> = Encoded<'a, T>;

    fn view<'a>(r: &mut Reader<'a>) -> SydResult<Encoded<'a, T>> {
        tagged(r, VAL_BYTES, "bytes")?;
        let n = r.len_prefix()?;
        Encoded::read(r.bytes(n)?)
    }

    fn from_value(value: Value) -> SydResult<Record<T>> {
        Encoded::<T>::of(&value)?;
        Ok(Record {
            value,
            record: PhantomData,
        })
    }

    fn into_value(self) -> Value {
        self.value
    }
}

/// An untyped argument list: the handler is handed its values, decoded.
impl Params for Vec<Value> {
    type View<'a> = Vec<Value>;

    fn parse(args: &Args) -> SydResult<Vec<Value>> {
        args.to_vec()
    }

    fn into_args(self) -> Args {
        Args::from(self)
    }
}

/// A tuple is a verb's positional arguments, each read in turn out of the
/// list's bytes.
macro_rules! params {
    ($(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: AsValue),*> Params for ($($t,)*) {
            type View<'a> = ($($t::View<'a>,)*);

            #[allow(unused_variables, unused_mut)] // `()` reads nothing
            fn parse(args: &Args) -> SydResult<Self::View<'_>> {
                let mut r = Reader::new(args.as_bytes());
                let n = r.len_prefix()?;
                let missing = |i: usize| SydError::Protocol(format!("missing argument {i}"));
                Ok(($(match $i < n {
                    true => $t::view(&mut r)?,
                    false => return Err(missing($i)),
                },)*))
            }

            fn into_args(self) -> Args {
                Args::new(&[$(self.$i.into_value()),*])
            }
        }
    )*};
}

/// As one value — a reply that is a record without a codec — a tuple is
/// the list of its elements, read owned.
macro_rules! tuples {
    ($(($($t:ident $i:tt),*))*) => {$(
        params!(($($t $i),*));

        impl<$($t: AsValue),*> AsValue for ($($t,)*) {
            type View<'a> = Self;

            fn view(r: &mut Reader<'_>) -> SydResult<Self> {
                read_owned(r)
            }

            fn from_value(value: Value) -> SydResult<Self> {
                let mut items = value.into_list()?.into_iter();
                let mut next = |i: usize| {
                    let missing = || SydError::Protocol(format!("missing element {i}"));
                    items.next().ok_or_else(missing)
                };
                Ok(($($t::from_value(next($i)?)?,)*))
            }

            fn into_value(self) -> Value {
                Value::List(vec![$(self.$i.into_value()),*])
            }
        }
    )*};
}

params!(());
tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::codec::encode_to_vec;

    fn protocol<T: std::fmt::Debug>(read: SydResult<T>) -> String {
        match read {
            Err(SydError::Protocol(what)) => what,
            other => panic!("read as {other:?}"),
        }
    }

    /// The encoded list of `values`, as a request carries it.
    fn encoded(values: &[Value]) -> Args {
        decode_from_slice(&encode_to_vec(&values.to_vec())).unwrap()
    }

    #[test]
    fn a_missing_or_mistyped_argument_is_a_protocol_error() {
        type Mark = (u64, Text, Value);
        let args = encoded(&[Value::from(7u64), Value::str("slot:1")]);
        assert_eq!(protocol(Mark::parse(&args)), "missing argument 2");
        let args = encoded(&[Value::str("7"), Value::str("slot:1"), Value::Null]);
        assert!(protocol(Mark::parse(&args)).contains("type mismatch"));
        let args = encoded(&[
            Value::from(7u64),
            Value::str("slot:1"),
            Value::Null,
            Value::Null,
        ]);
        let (session, entity, change) = Mark::parse(&args).unwrap();
        assert_eq!(
            (session, entity.as_str(), change),
            (7, "slot:1", Value::Null)
        );
    }

    #[test]
    fn numbers_are_checked_and_ids_are_bit_cast() {
        assert!(protocol(u64::from_value(Value::I64(-1))).contains("negative"));
        for level in [-1, 256, 356] {
            assert!(protocol(Priority::from_value(Value::I64(level))).contains("priority"));
        }
        assert_eq!(
            Priority::from_value(Value::I64(255)).unwrap(),
            Priority::MAX
        );
        assert_eq!(
            UserId::from_value(Value::I64(-1)).unwrap(),
            UserId::new(u64::MAX)
        );
        let addr = NodeAddr::new(u64::MAX - 3);
        assert_eq!(NodeAddr::from_value(addr.into_value()).unwrap(), addr);
    }

    #[test]
    fn each_argument_is_read_out_of_the_bytes() {
        type Args3 = (Option<u64>, Vec<UserId>, Option<Text>);
        let users = vec![UserId::new(3), UserId::new(u64::MAX)];
        let args = (None::<u64>, users.clone(), Some(Text::from("x"))).into_args();
        let values = [Value::Null, users.clone().into_value(), Value::str("x")];
        assert_eq!(args, encoded(&values));
        let (none, read, some) = Args3::parse(&args).unwrap();
        assert_eq!((none, read, some), (None, users, Some(Text::from("x"))));
        let args = encoded(&[Value::Null, Value::I64(1), Value::Null]);
        assert_eq!(
            protocol(Args3::parse(&args)),
            "type mismatch: expected list, got i64"
        );
    }

    #[test]
    fn a_typed_reply_reads_back_what_was_written() {
        type Entries = Vec<Option<(NodeAddr, bool)>>;
        let entries: Entries = vec![Some((NodeAddr::new(3), true)), None];
        let value = entries.clone().into_value();
        let bytes = encode_to_vec(&value);
        assert_eq!(Entries::view(&mut Reader::new(&bytes)).unwrap(), entries);
        assert_eq!(Entries::from_value(value).unwrap(), entries);
        let short = Value::list([Value::from(3u64)]);
        assert_eq!(
            protocol(<(NodeAddr, bool)>::from_value(short)),
            "missing element 1"
        );
        assert!(protocol(<()>::from_value(Value::Bool(true))).contains("null"));
    }
}
