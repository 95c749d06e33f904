//! Fluent query builder: filter / order-by / limit over one table.

use syd_types::{SydResult, Text, Value};

use crate::predicate::Predicate;
use crate::store::Store;
use crate::table::Row;

/// A composable read query. Terminal operations are [`Query::run`],
/// [`Query::first`], [`Query::count`] and [`Query::column`].
#[must_use = "queries do nothing until run"]
pub struct Query {
    store: Store,
    table: Text,
    pred: Predicate,
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
}

impl Query {
    pub(crate) fn new(store: Store, table: &str) -> Query {
        Query {
            store,
            table: table.into(),
            pred: Predicate::True,
            order_by: None,
            limit: None,
        }
    }

    /// Adds a conjunct to the filter.
    pub fn filter(mut self, pred: Predicate) -> Query {
        self.pred = match std::mem::replace(&mut self.pred, Predicate::True) {
            Predicate::True => pred,
            existing => existing.and(pred),
        };
        self
    }

    /// Sorts results by `column`, ascending or descending.
    pub fn order_by(mut self, column: &str, ascending: bool) -> Query {
        self.order_by = Some((column.to_owned(), ascending));
        self
    }

    /// Caps the number of returned rows (applied after ordering).
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Executes and returns matching rows.
    pub fn run(self) -> SydResult<Vec<Row>> {
        let mut rows = self.store.select(&self.table, &self.pred)?;
        if let Some((column, ascending)) = &self.order_by {
            let idx = self.store.schema_of(&self.table)?.column_index(column)?;
            rows.sort_by(|a, b| {
                let ord = a.values[idx].cmp_total(&b.values[idx]);
                if *ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
        if let Some(n) = self.limit {
            rows.truncate(n);
        }
        Ok(rows)
    }

    /// Executes and returns the first row, if any.
    pub fn first(self) -> SydResult<Option<Row>> {
        Ok(self.limit(1).run()?.into_iter().next())
    }

    /// Executes and counts matches (ignores limit/order).
    pub fn count(self) -> SydResult<usize> {
        self.store.count(&self.table, &self.pred)
    }

    /// Executes and projects a single column. Without an order or a limit
    /// the values come in visiting order (key order over a primary-key or
    /// index range, row order otherwise) and no row is collected on the way.
    pub fn column(self, column: &str) -> SydResult<Vec<Value>> {
        let idx = self.store.schema_of(&self.table)?.column_index(column)?;
        if self.order_by.is_some() || self.limit.is_some() {
            let rows = self.run()?;
            return Ok(rows.iter().map(|row| row.values[idx].clone()).collect());
        }
        let mut out = Vec::new();
        self.store.visit(&self.table, &self.pred, |row| {
            out.push(row[idx].clone());
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema};

    fn store() -> Store {
        let store = Store::new();
        store
            .create_table(
                Schema::new(
                    "people",
                    vec![
                        Column::required("name", ColumnType::Str),
                        Column::required("age", ColumnType::I64),
                    ],
                    &["name"],
                )
                .unwrap(),
            )
            .unwrap();
        for (name, age) in [("carol", 35), ("alice", 30), ("bob", 25), ("dave", 40)] {
            store
                .insert("people", vec![Value::str(name), Value::I64(age)])
                .unwrap();
        }
        store
    }

    #[test]
    fn filter_and_order() {
        let rows = store()
            .query("people")
            .filter(Predicate::Ge("age".into(), Value::I64(30)))
            .order_by("age", true)
            .run()
            .unwrap();
        let names: Vec<_> = rows.iter().map(|r| r.values[0].clone()).collect();
        assert_eq!(
            names,
            vec![Value::str("alice"), Value::str("carol"), Value::str("dave")]
        );
    }

    #[test]
    fn descending_with_limit() {
        let rows = store()
            .query("people")
            .order_by("age", false)
            .limit(2)
            .run()
            .unwrap();
        assert_eq!(rows[0].values[0], Value::str("dave"));
        assert_eq!(rows[1].values[0], Value::str("carol"));
    }

    #[test]
    fn chained_filters_conjoin() {
        let n = store()
            .query("people")
            .filter(Predicate::Ge("age".into(), Value::I64(30)))
            .filter(Predicate::Lt("age".into(), Value::I64(40)))
            .count()
            .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn first_and_none() {
        let s = store();
        let youngest = s
            .query("people")
            .order_by("age", true)
            .first()
            .unwrap()
            .unwrap();
        assert_eq!(youngest.values[0], Value::str("bob"));
        assert!(s
            .query("people")
            .filter(Predicate::Gt("age".into(), Value::I64(100)))
            .first()
            .unwrap()
            .is_none());
    }

    #[test]
    fn column_projection() {
        let ages = store()
            .query("people")
            .order_by("age", true)
            .column("age")
            .unwrap();
        assert_eq!(
            ages,
            vec![
                Value::I64(25),
                Value::I64(30),
                Value::I64(35),
                Value::I64(40)
            ]
        );
    }

    #[test]
    fn unknown_order_column_errors() {
        assert!(store()
            .query("people")
            .order_by("ghost", true)
            .run()
            .is_err());
    }
}
