//! Ordered wrapper over [`Value`] for use as index and primary keys.

use core::cmp::Ordering;

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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
