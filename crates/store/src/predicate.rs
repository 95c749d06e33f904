//! Row predicates — the `WHERE` clause of the embedded store.
//!
//! Predicates are built once (resolving column names against the schema is
//! done at evaluation time and cached per query execution by the table
//! layer) and evaluated per row with no allocation.

use syd_types::{SydResult, Text, Value};

use crate::schema::Schema;

/// A boolean expression over one row.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Always true (full scan).
    True,
    /// `column = value` (total-order equality, so `I64(2) = F64(2.0)`).
    Eq(Text, Value),
    /// `column != value`.
    Ne(Text, Value),
    /// `column < value`.
    Lt(Text, Value),
    /// `column <= value`.
    Le(Text, Value),
    /// `column > value`.
    Gt(Text, Value),
    /// `column >= value`.
    Ge(Text, Value),
    /// `low <= column <= high` (inclusive both ends).
    Between(Text, Value, Value),
    /// `column IN (values…)`.
    In(Text, Vec<Value>),
    /// `column IS NULL`.
    IsNull(Text),
    /// Conjunction; empty = true.
    And(Vec<Predicate>),
    /// Disjunction; empty = false.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience: `a AND b`.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::And(mut xs), Predicate::And(ys)) => {
                xs.extend(ys);
                Predicate::And(xs)
            }
            (Predicate::And(mut xs), y) => {
                xs.push(y);
                Predicate::And(xs)
            }
            (x, Predicate::And(mut ys)) => {
                ys.insert(0, x);
                Predicate::And(ys)
            }
            (x, y) => Predicate::And(vec![x, y]),
        }
    }

    /// Convenience: `a OR b`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(vec![self, other])
    }

    /// Evaluates against a row laid out per `schema`.
    pub fn eval(&self, schema: &Schema, row: &[Value]) -> SydResult<bool> {
        use core::cmp::Ordering::*;
        let cell = |name: &str| -> SydResult<&Value> { Ok(&row[schema.column_index(name)?]) };
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(v) == Equal
            }
            Predicate::Ne(c, v) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(v) != Equal
            }
            Predicate::Lt(c, v) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(v) == Less
            }
            Predicate::Le(c, v) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(v) != Greater
            }
            Predicate::Gt(c, v) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(v) == Greater
            }
            Predicate::Ge(c, v) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(v) != Less
            }
            Predicate::Between(c, lo, hi) => {
                let cv = cell(c)?;
                !cv.is_null() && cv.cmp_total(lo) != Less && cv.cmp_total(hi) != Greater
            }
            Predicate::In(c, values) => {
                let cv = cell(c)?;
                !cv.is_null() && values.iter().any(|v| cv.cmp_total(v) == Equal)
            }
            Predicate::IsNull(c) => cell(c)?.is_null(),
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(schema, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(schema, row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval(schema, row)?,
        })
    }

    /// If the predicate is (or contains, at the top of a conjunction) an
    /// equality or range constraint on `column`, returns the bounds
    /// `(low, high)` (inclusive) it implies — the planner's index-eligibility
    /// test. `None` bound = unbounded on that side.
    pub fn bounds_for(&self, column: &str) -> Option<(Option<&Value>, Option<&Value>)> {
        match self {
            Predicate::Eq(c, v) if c == column => Some((Some(v), Some(v))),
            Predicate::Between(c, lo, hi) if c == column => Some((Some(lo), Some(hi))),
            Predicate::Lt(c, v) | Predicate::Le(c, v) if c == column => Some((None, Some(v))),
            Predicate::Gt(c, v) | Predicate::Ge(c, v) if c == column => Some((Some(v), None)),
            Predicate::And(ps) => ps.iter().find_map(|p| p.bounds_for(column)),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Column::required("n", ColumnType::I64),
                Column::required("s", ColumnType::Str),
                Column::nullable("opt", ColumnType::I64),
            ],
            &[],
        )
        .unwrap()
    }

    fn row(n: i64, s: &str, opt: Option<i64>) -> Vec<Value> {
        vec![
            Value::I64(n),
            Value::str(s),
            opt.map_or(Value::Null, Value::I64),
        ]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row(5, "abc", None);
        assert!(Predicate::Eq("n".into(), Value::I64(5))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::Ne("n".into(), Value::I64(4))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::Lt("n".into(), Value::I64(6))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::Le("n".into(), Value::I64(5))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::Gt("n".into(), Value::I64(4))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::Ge("n".into(), Value::I64(5))
            .eval(&s, &r)
            .unwrap());
        assert!(!Predicate::Gt("n".into(), Value::I64(5))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::Eq("s".into(), Value::str("abc"))
            .eval(&s, &r)
            .unwrap());
    }

    #[test]
    fn between_is_inclusive() {
        let s = schema();
        for (n, expected) in [(1, false), (2, true), (3, true), (4, true), (5, false)] {
            let p = Predicate::Between("n".into(), Value::I64(2), Value::I64(4));
            assert_eq!(p.eval(&s, &row(n, "", None)).unwrap(), expected, "n={n}");
        }
    }

    #[test]
    fn in_list() {
        let s = schema();
        let p = Predicate::In("n".into(), vec![Value::I64(1), Value::I64(3)]);
        assert!(p.eval(&s, &row(3, "", None)).unwrap());
        assert!(!p.eval(&s, &row(2, "", None)).unwrap());
    }

    #[test]
    fn null_semantics_match_sql() {
        let s = schema();
        let r = row(1, "x", None);
        // NULL compares false with everything except IS NULL.
        assert!(!Predicate::Eq("opt".into(), Value::I64(1))
            .eval(&s, &r)
            .unwrap());
        assert!(!Predicate::Ne("opt".into(), Value::I64(1))
            .eval(&s, &r)
            .unwrap());
        assert!(!Predicate::Lt("opt".into(), Value::I64(1))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::IsNull("opt".into()).eval(&s, &r).unwrap());
        let some = row(1, "x", Some(7));
        assert!(!Predicate::IsNull("opt".into()).eval(&s, &some).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let r = row(5, "abc", Some(1));
        let p = Predicate::Eq("n".into(), Value::I64(5))
            .and(Predicate::Eq("s".into(), Value::str("abc")));
        assert!(p.eval(&s, &r).unwrap());
        let q = Predicate::Eq("n".into(), Value::I64(0))
            .or(Predicate::Eq("s".into(), Value::str("abc")));
        assert!(q.eval(&s, &r).unwrap());
        assert!(!Predicate::Not(Box::new(Predicate::True))
            .eval(&s, &r)
            .unwrap());
        assert!(Predicate::And(vec![]).eval(&s, &r).unwrap());
        assert!(!Predicate::Or(vec![]).eval(&s, &r).unwrap());
    }

    #[test]
    fn and_flattens() {
        let p = Predicate::True.and(Predicate::True).and(Predicate::True);
        match p {
            Predicate::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn unknown_column_is_an_error() {
        let s = schema();
        let err = Predicate::Eq("ghost".into(), Value::I64(1))
            .eval(&s, &row(1, "", None))
            .unwrap_err();
        assert!(matches!(err, syd_types::SydError::NoSuchColumn(_)));
    }

    #[test]
    fn bounds_extraction_for_planner() {
        let eq = Predicate::Eq("n".into(), Value::I64(5));
        assert_eq!(
            eq.bounds_for("n"),
            Some((Some(&Value::I64(5)), Some(&Value::I64(5))))
        );
        assert_eq!(eq.bounds_for("s"), None);

        let between = Predicate::Between("n".into(), Value::I64(1), Value::I64(9));
        assert_eq!(
            between.bounds_for("n"),
            Some((Some(&Value::I64(1)), Some(&Value::I64(9))))
        );

        let conj = Predicate::Eq("s".into(), Value::str("x"))
            .and(Predicate::Ge("n".into(), Value::I64(3)));
        assert_eq!(conj.bounds_for("n"), Some((Some(&Value::I64(3)), None)));

        // OR can't use the index.
        let disj = Predicate::Eq("n".into(), Value::I64(1)).or(Predicate::True);
        assert_eq!(disj.bounds_for("n"), None);
    }

    #[test]
    fn cross_type_numeric_equality() {
        let s = schema();
        let p = Predicate::Eq("n".into(), Value::F64(5.0));
        assert!(p.eval(&s, &row(5, "", None)).unwrap());
    }
}
