//! Heterogeneous data stores (§2): one participant's "database" is a flat
//! text file — "an ad-hoc data store such as a flat file, an EXCEL
//! worksheet or a list repository" — imported into their device object,
//! after which they coordinate like everyone else.
//!
//! The adapter is the two functions `export_table` and `import_table`
//! below: a delimited text snapshot (CSV-style) is imported as a store
//! table, and any table is exported back, so a device whose "database" is
//! a text file participates in SyD like any other.
//!
//! Format: the first line is the header (`name:type[?]` per column, `?`
//! marks nullable), and every later line is one row, an empty line
//! included (the row of a one-column table holding the empty string).
//! Fields are separated by `,` and escaped minimally (`\,`, `\\`, `\n`, `\r`
//! as two characters); `␀` is the null marker. Only scalar column types
//! round-trip (`bool`, `i64`, `f64`, `str`); that is exactly the shape of
//! the paper's "ordered stores of data, be they formal databases or ASCII
//! lists".
//!
//! ```sh
//! cargo run --example flat_file_device
//! cargo test --example flat_file_device   # the adapter's tests
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use syd::calendar::{CalendarApp, MeetingSpec, MeetingStatus};
use syd::kernel::SydEnv;
use syd::net::NetConfig;
use syd::store::{Column, ColumnType, Predicate, Schema, Store};
use syd::types::{SlotRange, SydError, SydResult, TimeSlot, Value};

fn main() {
    // Suzy's "calendar" lives in an ASCII list on her ancient organizer.
    let suzy_file = "\
slot:i64,label:str
9,dentist
10,dentist
33,pick up kids
";
    // Import the flat file into a store — the paper's deviceware adapter.
    let imported = Store::new();
    let rows = import_table(&imported, "busy_list", suzy_file, true).unwrap();
    println!("imported {rows} busy entries from suzy's flat file");

    // Stand up the deployment.
    let env = SydEnv::new(NetConfig::ideal(), "flat-file passphrase");
    let phil = CalendarApp::install(&env.device("phil", "pw").unwrap()).unwrap();
    let suzy = CalendarApp::install(&env.device("suzy", "pw").unwrap()).unwrap();

    // Feed the imported list into suzy's calendar object.
    for row in imported.select("busy_list", &Predicate::True).unwrap() {
        let ordinal = row.values[0].as_i64().unwrap() as u64;
        suzy.mark_busy(TimeSlot::from_ordinal(ordinal)).unwrap();
    }

    // Phil schedules around suzy's flat-file engagements transparently.
    let common = phil
        .find_common_slots(
            &[phil.user(), suzy.user()],
            SlotRange::new(TimeSlot::new(0, 8), TimeSlot::new(0, 12)),
        )
        .unwrap();
    println!("common free slots on day 0 (8:00–12:00): {common:?}");
    assert!(
        !common.contains(&TimeSlot::new(0, 9)),
        "dentist blocks 9:00"
    );
    assert!(!common.contains(&TimeSlot::new(0, 10)));

    let outcome = phil
        .schedule(MeetingSpec::plain("sync", common[0], vec![suzy.user()]))
        .unwrap();
    assert_eq!(outcome.status, MeetingStatus::Confirmed);
    println!("meeting confirmed at {}", common[0]);

    // And suzy's device can export its current calendar back to text for
    // the organizer to re-sync.
    let exported = export_table(suzy.device().store(), "slots").unwrap();
    println!("\nsuzy's calendar, exported back to flat text:\n{exported}");
}

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
            '\r' => out.push_str("\\r"),
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
                Some('r') => out.push('\r'),
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

/// One row of the file (`line_no` counts from 1, the header), parsed and
/// checked against the schema's types and nullability.
fn parse_row(schema: &Schema, line_no: usize, line: &str) -> SydResult<Vec<Value>> {
    let fields = split_line(line);
    if fields.len() != schema.columns.len() {
        return Err(SydError::App(format!(
            "line {line_no}: {} fields, expected {}",
            fields.len(),
            schema.columns.len()
        )));
    }
    let row: Vec<Value> = fields
        .iter()
        .zip(&schema.columns)
        .map(|(f, c)| field_to_cell(f, c))
        .collect::<SydResult<_>>()?;
    schema.validate_row(&row)?;
    Ok(row)
}

/// Exports one table as delimited text (header + rows, sorted by row id).
fn export_table(store: &Store, table: &str) -> SydResult<String> {
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
/// column when `keyed` is set). Every row is parsed and checked before the
/// table is created, and a row the store refuses (a duplicate key) drops
/// the table again: a failed import leaves the store as it found it.
fn import_table(store: &Store, table: &str, text: &str, keyed: bool) -> SydResult<usize> {
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
    let first = columns[0].name.clone();
    let key = [first.as_str()];
    let schema = Schema::new(table, columns, if keyed { &key } else { &[] })?;
    let rows = lines
        .enumerate()
        .map(|(i, line)| parse_row(&schema, i + 2, line))
        .collect::<SydResult<Vec<_>>>()?;

    store.create_table(schema)?;
    let imported = rows.len();
    for row in rows {
        if let Err(e) = store.insert(table, row) {
            store.drop_table(table)?;
            return Err(e);
        }
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

        // The empty string of a one-column table is an empty line, and
        // that line is a row.
        let list = Store::new();
        list.create_table(
            Schema::new("list", vec![Column::required("s", ColumnType::Str)], &[]).unwrap(),
        )
        .unwrap();
        list.insert("list", vec![Value::str("")]).unwrap();
        list.insert("list", vec![Value::str("x")]).unwrap();
        let text = export_table(&list, "list").unwrap();
        assert_eq!(text, "s:str\n\nx\n");
        let restored = Store::new();
        assert_eq!(import_table(&restored, "list", &text, false).unwrap(), 2);
        assert_eq!(
            restored.select("list", &Predicate::True).unwrap(),
            list.select("list", &Predicate::True).unwrap()
        );
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
    fn a_failed_import_leaves_no_table() {
        let store = Store::new();
        // A bad cell on the second row.
        assert!(import_table(&store, "t", "k:i64,v:str\n1,a\nx,b\n", true).is_err());
        assert!(!store.has_table("t"), "a half-built table was left");
        // A duplicate key, which only the store sees.
        assert!(import_table(&store, "t", "k:i64,v:str\n1,a\n1,b\n", true).is_err());
        assert!(!store.has_table("t"), "a half-built table was left");
        // A null in a required column.
        assert!(import_table(&store, "t", "k:i64,v:str\n1,a\n2,␀\n", true).is_err());
        assert!(!store.has_table("t"), "a half-built table was left");
        // The corrected file then imports whole.
        assert_eq!(
            import_table(&store, "t", "k:i64,v:str\n1,a\n2,b\n", true).unwrap(),
            2
        );
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod proptests {
    use super::*;
    use syd::types::rng::cases;

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
