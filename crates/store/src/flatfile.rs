//! Flat-file device objects (§2 heterogeneity).
//!
//! "Each individual device in SyD may be a traditional database … or may
//! be an ad-hoc data store such as a flat file, an EXCEL worksheet or a
//! list repository." This module adapts such ad-hoc stores into [`Store`]
//! tables: a delimited text snapshot (CSV-style) can be imported as a
//! table and any table exported back, so a device whose "database" is a
//! text file participates in SyD like any other.
//!
//! Format: first line is the header (`name:type[?]` per column, `?` marks
//! nullable), subsequent lines are rows. Fields are separated by `,` and
//! escaped minimally (`\,`, `\\`, `\n` as two characters). Only scalar
//! column types round-trip (`bool`, `i64`, `f64`, `str`); that is exactly
//! the shape of the paper's "ordered stores of data, be they formal
//! databases or ASCII lists".

use syd_types::{SydError, SydResult, Value};

use crate::predicate::Predicate;
use crate::schema::{Column, ColumnType, Schema};
use crate::store::Store;

fn type_code(ty: ColumnType) -> SydResult<&'static str> {
    Ok(match ty {
        ColumnType::Bool => "bool",
        ColumnType::I64 => "i64",
        ColumnType::F64 => "f64",
        ColumnType::Str => "str",
        other => {
            return Err(SydError::App(format!(
                "column type {other:?} does not round-trip through a flat file"
            )))
        }
    })
}

fn parse_type(code: &str) -> SydResult<ColumnType> {
    Ok(match code {
        "bool" => ColumnType::Bool,
        "i64" => ColumnType::I64,
        "f64" => ColumnType::F64,
        "str" => ColumnType::Str,
        other => return Err(SydError::App(format!("unknown flat-file type `{other}`"))),
    })
}

fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ',' => out.push_str("\\,"),
            '\n' => out.push_str("\\n"),
            // A literal ␀ must not collide with the null marker.
            '␀' => out.push_str("\\␀"),
            c => out.push(c),
        }
    }
    out
}

/// Splits on unescaped commas, keeping escape sequences intact — the
/// null check must see the raw field before unescaping.
fn split_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                current.push('\\');
                if let Some(escaped) = chars.next() {
                    current.push(escaped);
                }
            }
            ',' => fields.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    fields.push(current);
    fields
}

fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some(escaped) => out.push(escaped),
                None => out.push('\\'),
            },
            c => out.push(c),
        }
    }
    out
}

fn cell_to_field(value: &Value) -> SydResult<String> {
    Ok(match value {
        Value::Null => "␀".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => {
            // Round-trippable float formatting.
            format!("{x:?}")
        }
        Value::Str(s) => escape(s),
        other => {
            return Err(SydError::App(format!(
                "cell {other} does not round-trip through a flat file"
            )))
        }
    })
}

fn field_to_cell(raw: &str, column: &Column) -> SydResult<Value> {
    // Null check on the *raw* field: an escaped literal ␀ arrives as \␀.
    if raw == "␀" {
        return Ok(Value::Null);
    }
    let field = &unescape(raw);
    Ok(match column.ty {
        ColumnType::Bool => Value::Bool(
            field
                .parse()
                .map_err(|_| SydError::App(format!("`{field}` is not a bool")))?,
        ),
        ColumnType::I64 => Value::I64(
            field
                .parse()
                .map_err(|_| SydError::App(format!("`{field}` is not an i64")))?,
        ),
        ColumnType::F64 => Value::F64(
            field
                .parse()
                .map_err(|_| SydError::App(format!("`{field}` is not an f64")))?,
        ),
        ColumnType::Str => Value::str(field.as_str()),
        _ => unreachable!("parse_type admits scalars only"),
    })
}

/// Exports one table as delimited text (header + rows, sorted by row id).
pub fn export_table(store: &Store, table: &str) -> SydResult<String> {
    let schema = store.schema_of(table)?;
    let mut out = String::new();
    for (i, col) in schema.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(&col.name));
        out.push(':');
        out.push_str(type_code(col.ty)?);
        if col.nullable {
            out.push('?');
        }
    }
    out.push('\n');
    for row in store.select(table, &Predicate::True)? {
        for (i, cell) in row.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&cell_to_field(cell)?);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Imports delimited text as a new table named `table` (keyed on its first
/// column when `keyed` is set).
pub fn import_table(store: &Store, table: &str, text: &str, keyed: bool) -> SydResult<usize> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SydError::App("flat file is empty".into()))?;
    let mut columns = Vec::new();
    for field in split_line(header).iter().map(|f| unescape(f)) {
        let (name, ty) = field
            .rsplit_once(':')
            .ok_or_else(|| SydError::App(format!("bad header field `{field}`")))?;
        let (ty, nullable) = match ty.strip_suffix('?') {
            Some(t) => (t, true),
            None => (ty, false),
        };
        columns.push(Column {
            name: name.to_owned(),
            ty: parse_type(ty)?,
            nullable,
        });
    }
    let key: Vec<&str> = if keyed {
        vec![columns[0].name.as_str()]
    } else {
        vec![]
    };
    let key_refs: Vec<&str> = key.clone();
    let schema = Schema::new(table, columns.clone(), &key_refs)?;
    store.create_table(schema)?;

    let mut imported = 0;
    for (line_no, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields = split_line(line);
        if fields.len() != columns.len() {
            return Err(SydError::App(format!(
                "line {}: {} fields, expected {}",
                line_no + 2,
                fields.len(),
                columns.len()
            )));
        }
        let row: Vec<Value> = fields
            .iter()
            .zip(&columns)
            .map(|(f, c)| field_to_cell(f, c))
            .collect::<SydResult<_>>()?;
        store.insert(table, row)?;
        imported += 1;
    }
    Ok(imported)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn sample() -> Store {
        let store = Store::new();
        store
            .create_table(
                Schema::new(
                    "inventory",
                    vec![
                        Column::required("sku", ColumnType::I64),
                        Column::required("name", ColumnType::Str),
                        Column::required("price", ColumnType::F64),
                        Column::nullable("note", ColumnType::Str),
                        Column::required("in_stock", ColumnType::Bool),
                    ],
                    &["sku"],
                )
                .unwrap(),
            )
            .unwrap();
        store
            .insert(
                "inventory",
                vec![
                    Value::I64(1),
                    Value::str("toaster, deluxe"),
                    Value::F64(18.99),
                    Value::Null,
                    Value::Bool(true),
                ],
            )
            .unwrap();
        store
            .insert(
                "inventory",
                vec![
                    Value::I64(2),
                    Value::str("line\nbreak"),
                    Value::F64(0.5),
                    Value::str("odd \\ chars"),
                    Value::Bool(false),
                ],
            )
            .unwrap();
        store
    }

    #[test]
    fn export_import_round_trip() {
        let original = sample();
        let text = export_table(&original, "inventory").unwrap();
        let restored = Store::new();
        let n = import_table(&restored, "inventory", &text, true).unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            restored.select("inventory", &Predicate::True).unwrap(),
            original.select("inventory", &Predicate::True).unwrap()
        );
        // Keyed import enforces uniqueness like the original.
        assert!(restored
            .insert(
                "inventory",
                vec![
                    Value::I64(1),
                    Value::str("dup"),
                    Value::F64(0.0),
                    Value::Null,
                    Value::Bool(true),
                ],
            )
            .is_err());
    }

    #[test]
    fn header_round_trips_nullability() {
        let text = export_table(&sample(), "inventory").unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("note:str?"), "{header}");
        assert!(header.contains("sku:i64"), "{header}");
    }

    #[test]
    fn special_characters_survive() {
        let original = sample();
        let text = export_table(&original, "inventory").unwrap();
        let restored = Store::new();
        import_table(&restored, "inventory", &text, true).unwrap();
        let row = restored
            .get_by_key("inventory", &[Value::I64(1)])
            .unwrap()
            .unwrap();
        assert_eq!(row.values[1], Value::str("toaster, deluxe"));
        let row = restored
            .get_by_key("inventory", &[Value::I64(2)])
            .unwrap()
            .unwrap();
        assert_eq!(row.values[1], Value::str("line\nbreak"));
        assert_eq!(row.values[3], Value::str("odd \\ chars"));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let store = Store::new();
        assert!(import_table(&store, "t", "", true).is_err());
        assert!(import_table(&store, "t", "a:wat\n", true).is_err());
        assert!(import_table(&store, "t2", "a:i64\n1,2\n", true).is_err()); // arity
        assert!(import_table(&store, "t3", "a:i64\nxyz\n", true).is_err()); // type
    }

    #[test]
    fn non_scalar_tables_refuse_export() {
        let store = Store::new();
        store
            .create_table(
                Schema::new("t", vec![Column::required("v", ColumnType::Any)], &[]).unwrap(),
            )
            .unwrap();
        assert!(export_table(&store, "t").is_err());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use super::*;
    use syd_types::rng::cases;

    /// Arbitrary scalar tables survive export → import byte-exactly.
    #[test]
    fn random_tables_round_trip() {
        cases(48, |rng| {
            let store = Store::new();
            store
                .create_table(
                    Schema::new(
                        "t",
                        vec![
                            Column::required("k", ColumnType::I64),
                            Column::nullable("s", ColumnType::Str),
                            Column::required("b", ColumnType::Bool),
                        ],
                        &["k"],
                    )
                    .unwrap(),
                )
                .unwrap();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.below(20) {
                let (k, s, b) = (rng.any_u64() as i64, rng.string(16), rng.chance(1, 2));
                if !seen.insert(k) {
                    continue; // keyed table: skip duplicate keys
                }
                store
                    .insert("t", vec![Value::I64(k), Value::str(s), Value::Bool(b)])
                    .unwrap();
            }
            let text = export_table(&store, "t").unwrap();
            let restored = Store::new();
            import_table(&restored, "t", &text, true).unwrap();
            assert_eq!(
                restored.select("t", &Predicate::True).unwrap(),
                store.select("t", &Predicate::True).unwrap()
            );
        });
    }

    /// The importer never panics on arbitrary text.
    #[test]
    fn importer_never_panics() {
        cases(48, |rng| {
            let store = Store::new();
            let _ = import_table(&store, "t", &rng.string(400), false);
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod null_marker_tests {
    use super::*;

    #[test]
    fn literal_null_marker_string_round_trips() {
        let store = Store::new();
        store
            .create_table(
                Schema::new(
                    "t",
                    vec![
                        Column::required("k", ColumnType::I64),
                        Column::nullable("s", ColumnType::Str),
                    ],
                    &["k"],
                )
                .unwrap(),
            )
            .unwrap();
        store
            .insert("t", vec![Value::I64(1), Value::str("␀")])
            .unwrap();
        store.insert("t", vec![Value::I64(2), Value::Null]).unwrap();
        let text = export_table(&store, "t").unwrap();
        let restored = Store::new();
        import_table(&restored, "t", &text, true).unwrap();
        let r1 = restored.get_by_key("t", &[Value::I64(1)]).unwrap().unwrap();
        let r2 = restored.get_by_key("t", &[Value::I64(2)]).unwrap().unwrap();
        assert_eq!(r1.values[1], Value::str("␀"), "literal string preserved");
        assert_eq!(r2.values[1], Value::Null, "null preserved");
    }
}
