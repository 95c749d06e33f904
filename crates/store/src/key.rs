//! Ordered wrapper over [`Value`] for use as index and primary keys.

use core::borrow::Borrow;
use core::cmp::Ordering;
use core::ops::Deref;

use syd_types::Value;

/// A [`Value`] with the total order of [`Value::cmp_total`], usable as a
/// `BTreeMap` key. Primary-key maps and secondary indexes are keyed by
/// `OrdValue` (or vectors of them for composite keys).
#[derive(Clone, Debug)]
pub struct OrdValue(pub Value);

impl OrdValue {
    /// Borrows the wrapped value.
    pub fn value(&self) -> &Value {
        &self.0
    }
}

impl From<Value> for OrdValue {
    fn from(v: Value) -> Self {
        OrdValue(v)
    }
}

impl PartialEq for OrdValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp_total(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_total(&other.0)
    }
}

/// A primary or lock key: a one-cell key — every key the kernel and the
/// calendar build — is inline, so building one allocates nothing unless
/// its cell does. Derefs to, orders as and `Borrow`s `[OrdValue]`.
#[derive(Clone, Debug)]
pub enum Key {
    /// A single cell.
    One(OrdValue),
    /// Any other number of cells (none: a keyless table's row).
    Many(Box<[OrdValue]>),
}

impl Key {
    /// The key of `cells`, in order.
    pub fn of(cells: impl IntoIterator<Item = Value>) -> Key {
        let mut cells = cells.into_iter().map(OrdValue).fuse();
        match (cells.next(), cells.next()) {
            (Some(one), None) => Key::One(one),
            (a, b) => Key::Many(a.into_iter().chain(b).chain(cells).collect()),
        }
    }
}

impl Deref for Key {
    type Target = [OrdValue];
    fn deref(&self) -> &[OrdValue] {
        match self {
            Key::One(cell) => core::slice::from_ref(cell),
            Key::Many(cells) => cells,
        }
    }
}

impl Borrow<[OrdValue]> for Key {
    fn borrow(&self) -> &[OrdValue] {
        self
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// One cell is inline, any other count boxed; either way a key orders
    /// and finds its entry as the slice of its cells does.
    #[test]
    fn keys_order_and_look_up_as_their_cells() {
        let one = Key::of([Value::I64(7)]);
        assert!(matches!(one, Key::One(_)));
        let two = Key::of([Value::I64(7), Value::str("x")]);
        assert!(matches!(&two, Key::Many(cells) if cells.len() == 2));
        assert!(matches!(Key::of([]), Key::Many(cells) if cells.is_empty()));
        assert!(one < two, "a prefix sorts first, as for slices");
        let mut map = BTreeMap::new();
        map.insert(two.clone(), "two");
        map.insert(one, "one");
        let probe = [OrdValue(Value::F64(7.0))];
        assert_eq!(map.get(&probe[..]), Some(&"one"));
        assert_eq!(map.get(&two[..]), Some(&"two"));
    }

    #[test]
    fn usable_as_btree_key() {
        let mut map = BTreeMap::new();
        map.insert(OrdValue(Value::I64(2)), "two");
        map.insert(OrdValue(Value::I64(1)), "one");
        map.insert(OrdValue(Value::str("a")), "a");
        let keys: Vec<_> = map.keys().map(|k| k.value().clone()).collect();
        // Numbers sort before strings per cmp_total's kind ranking.
        assert_eq!(keys, vec![Value::I64(1), Value::I64(2), Value::str("a")]);
    }

    #[test]
    fn mixed_numeric_equality() {
        assert_eq!(OrdValue(Value::I64(3)), OrdValue(Value::F64(3.0)));
        assert_ne!(OrdValue(Value::I64(3)), OrdValue(Value::F64(3.5)));
    }

    #[test]
    fn nan_keys_do_not_break_the_map() {
        let mut map = BTreeMap::new();
        map.insert(OrdValue(Value::F64(f64::NAN)), 1);
        map.insert(OrdValue(Value::F64(f64::NAN)), 2);
        assert_eq!(map.len(), 1, "NaN == NaN under cmp_total");
    }
}
