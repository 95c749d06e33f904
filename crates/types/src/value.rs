//! Dynamic value model for remote invocations and the embedded store.
//!
//! SyD device objects are independent — they share no global schema — so
//! method arguments, query results and stored cells are self-describing
//! [`Value`]s, the same role JDBC result sets and Java serialization played
//! in the paper's prototype. The two records the program itself owns, the
//! calendar's `Meeting` and the kernel's `Link`, are the exception: each
//! has a typed codec and travels and rests as one [`Value::Bytes`]
//! (DESIGN.md §18). A remote method's arguments and reply are typed by its
//! verb (`syd_wire::AsValue`): the arguments travel as the encoding of a
//! list of values (`syd_wire::Args`), which a handler reads in place
//! without building the list, and the reply as one value; only change,
//! link and event payloads stay maps.

use core::fmt;
use std::collections::BTreeMap;

use crate::blob::Bytes;
use crate::error::{SydError, SydResult};
use crate::text::Text;

/// A self-describing dynamic value.
///
/// `Value` is the lingua franca between SyD layers: store cells, RPC
/// arguments, aggregated group results and link trigger payloads are all
/// `Value`s. A `BTreeMap` backs [`Value::Map`] so encodings are canonical
/// (deterministic iteration order), which the wire codec and the store's
/// snapshot format rely on.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum Value {
    /// Absence of a value (SQL `NULL`).
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string; short ones inline ([`Text`]).
    Str(Text),
    /// Opaque bytes (an encoded record, a link's `refs`, a bitmap):
    /// inline up to 22, else shared by every clone ([`Bytes`]).
    Bytes(Bytes),
    /// Ordered list of values.
    List(Vec<Value>),
    /// String-keyed map with canonical (sorted) key order.
    Map(BTreeMap<Text, Value>),
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<Text>) -> Self {
        Value::Str(s.into())
    }

    /// Shorthand for a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Self {
        Value::List(items.into_iter().collect())
    }

    /// Shorthand for a map value from `(key, value)` pairs; a later pair
    /// replaces an earlier one with the same key. Inserted one by one, not
    /// collected: `BTreeMap::from_iter` sorts through a scratch `Vec` first.
    pub fn map(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Self {
        let mut map = BTreeMap::new();
        for (k, v) in entries {
            map.insert(Text::from(k), v);
        }
        Value::Map(map)
    }

    /// Human-readable name of the variant, used in type-mismatch errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts a bool, or a type-mismatch error.
    pub fn as_bool(&self) -> SydResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(SydError::type_mismatch("bool", other.type_name())),
        }
    }

    /// Extracts an i64, or a type-mismatch error.
    pub fn as_i64(&self) -> SydResult<i64> {
        match self {
            Value::I64(n) => Ok(*n),
            other => Err(SydError::type_mismatch("i64", other.type_name())),
        }
    }

    /// Extracts an f64 (widening from i64), or a type-mismatch error.
    pub fn as_f64(&self) -> SydResult<f64> {
        match self {
            Value::F64(x) => Ok(*x),
            Value::I64(n) => Ok(*n as f64),
            other => Err(SydError::type_mismatch("f64", other.type_name())),
        }
    }

    /// Extracts a string slice, or a type-mismatch error.
    pub fn as_str(&self) -> SydResult<&str> {
        self.as_text().map(Text::as_str)
    }

    /// Extracts the [`Text`] itself — cloning it copies no heap bytes —
    /// or a type-mismatch error.
    pub fn as_text(&self) -> SydResult<&Text> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(SydError::type_mismatch("str", other.type_name())),
        }
    }

    /// Extracts a byte slice, or a type-mismatch error.
    pub fn as_bytes(&self) -> SydResult<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(SydError::type_mismatch("bytes", other.type_name())),
        }
    }

    /// Extracts a list slice, or a type-mismatch error.
    pub fn as_list(&self) -> SydResult<&[Value]> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(SydError::type_mismatch("list", other.type_name())),
        }
    }

    /// Extracts a map reference, or a type-mismatch error.
    pub fn as_map(&self) -> SydResult<&BTreeMap<Text, Value>> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(SydError::type_mismatch("map", other.type_name())),
        }
    }

    /// Looks up `key` in a map value; `Null` and missing keys both yield an
    /// error naming the key, so callers get actionable diagnostics.
    pub fn get(&self, key: &str) -> SydResult<&Value> {
        self.as_map()?
            .get(key)
            .ok_or_else(|| SydError::Protocol(format!("missing map key `{key}`")))
    }

    /// Takes `key`'s value out of a map value, with [`Value::get`]'s errors.
    pub fn take(&mut self, key: &str) -> SydResult<Value> {
        match self {
            Value::Map(map) => map
                .remove(key)
                .ok_or_else(|| SydError::Protocol(format!("missing map key `{key}`"))),
            other => Err(SydError::type_mismatch("map", other.type_name())),
        }
    }

    /// Consumes the value, extracting an owned list.
    pub fn into_list(self) -> SydResult<Vec<Value>> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(SydError::type_mismatch("list", other.type_name())),
        }
    }

    /// Total ordering usable for store indexes and `ORDER BY`-style sorts.
    ///
    /// Variants order by kind first (`Null < Bool < I64/F64 < Str < Bytes <
    /// List < Map`); numbers compare numerically across `I64`/`F64`; `F64`
    /// NaN sorts greater than every other float, making the order total.
    pub fn cmp_total(&self, other: &Value) -> core::cmp::Ordering {
        use core::cmp::Ordering;
        use Value::*;

        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                I64(_) | F64(_) => 2,
                Str(_) => 3,
                Bytes(_) => 4,
                List(_) => 5,
                Map(_) => 6,
            }
        }

        fn cmp_f64(a: f64, b: f64) -> Ordering {
            match (a.is_nan(), b.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            }
        }

        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (F64(a), F64(b)) => cmp_f64(*a, *b),
            (I64(a), F64(b)) => cmp_f64(*a as f64, *b),
            (F64(a), I64(b)) => cmp_f64(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.cmp_total(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Map(a), Map(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let ord = ka.cmp(kb).then_with(|| va.cmp_total(vb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(n) => write!(f, "{n}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::I64(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::I64(n as i64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::I64(n as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<Text> for Value {
    fn from(s: Text) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b.into())
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::List(items)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use core::cmp::Ordering;

    #[test]
    fn accessors_match_variants() {
        assert!(Value::Null.is_null());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::I64(-3).as_i64().unwrap(), -3);
        assert_eq!(Value::F64(1.5).as_f64().unwrap(), 1.5);
        assert_eq!(Value::I64(2).as_f64().unwrap(), 2.0);
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert_eq!(Value::from(vec![1, 2]).as_bytes().unwrap(), &[1, 2]);
        assert_eq!(
            Value::list([Value::I64(1)]).as_list().unwrap(),
            &[Value::I64(1)]
        );
    }

    #[test]
    fn accessors_report_type_mismatch() {
        let err = Value::I64(1).as_str().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("str"), "{msg}");
        assert!(msg.contains("i64"), "{msg}");
        assert!(Value::Null.as_bool().is_err());
        assert!(Value::str("x").as_map().is_err());
    }

    #[test]
    fn map_get_reports_missing_key() {
        let m = Value::map([("a", Value::I64(1))]);
        assert_eq!(m.get("a").unwrap(), &Value::I64(1));
        let err = m.get("b").unwrap_err().to_string();
        assert!(err.contains("`b`"), "{err}");
    }

    #[test]
    fn into_owned_extractors() {
        assert_eq!(
            Value::list([Value::Bool(false)]).into_list().unwrap(),
            vec![Value::Bool(false)]
        );
    }

    #[test]
    fn total_order_is_total_across_kinds() {
        let samples = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::I64(-1),
            Value::I64(5),
            Value::F64(2.5),
            Value::F64(f64::NAN),
            Value::str("a"),
            Value::str("b"),
            Value::from(vec![0]),
            Value::from(vec![0; 30]),
            Value::list([Value::I64(1)]),
            Value::map([("k", Value::Null)]),
        ];
        for a in &samples {
            assert_eq!(a.cmp_total(a), Ordering::Equal, "{a} not equal to itself");
            for b in &samples {
                let ab = a.cmp_total(b);
                let ba = b.cmp_total(a);
                assert_eq!(ab, ba.reverse(), "{a} vs {b} antisymmetry");
            }
        }
    }

    #[test]
    fn numbers_compare_across_variants() {
        assert_eq!(Value::I64(2).cmp_total(&Value::F64(2.0)), Ordering::Equal);
        assert_eq!(Value::I64(2).cmp_total(&Value::F64(2.5)), Ordering::Less);
        assert_eq!(Value::F64(3.0).cmp_total(&Value::I64(2)), Ordering::Greater);
        // NaN sorts above all other numbers, keeping the order total.
        assert_eq!(
            Value::F64(f64::NAN).cmp_total(&Value::I64(i64::MAX)),
            Ordering::Greater
        );
    }

    #[test]
    fn lists_compare_lexicographically() {
        let a = Value::list([Value::I64(1), Value::I64(2)]);
        let b = Value::list([Value::I64(1), Value::I64(3)]);
        let c = Value::list([Value::I64(1)]);
        assert_eq!(a.cmp_total(&b), Ordering::Less);
        assert_eq!(c.cmp_total(&a), Ordering::Less);
    }

    #[test]
    fn display_is_compact() {
        let v = Value::map([
            ("n", Value::I64(1)),
            ("s", Value::str("x")),
            ("l", Value::list([Value::Bool(true)])),
        ]);
        assert_eq!(format!("{v}"), "{l: [true], n: 1, s: \"x\"}");
        assert_eq!(format!("{}", Value::from(vec![1, 2, 3])), "<3 bytes>");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64), Value::I64(7));
        assert_eq!(Value::from(7u32), Value::I64(7));
        assert_eq!(Value::from(1.25f64), Value::F64(1.25));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(
            Value::from(vec![1u8, 2]),
            Value::Bytes(Bytes::from(&[1, 2][..]))
        );
    }

    #[test]
    fn a_bytes_clone_shares_its_buffer_and_short_bytes_rest_inline() {
        let ptr = |v: &Value| v.as_bytes().unwrap().as_ptr();
        let long = Value::from(vec![7; 23]);
        assert_eq!(ptr(&long.clone()), ptr(&long));
        for n in [0, 1, 22] {
            let Value::Bytes(bytes) = Value::from(vec![7; n]) else {
                unreachable!()
            };
            assert!(bytes.is_inline(), "{n} bytes");
        }
        let Value::Bytes(bytes) = long else {
            unreachable!()
        };
        assert!(!bytes.is_inline());
    }
}
