//! Binary snapshots of a store, via the `syd-wire` codec.
//!
//! Devices in the paper persist their calendar databases locally; proxies
//! also warm-start from a replica of the primary's state (§5.2). A snapshot
//! captures schemas, secondary indexes and rows; triggers and locks are
//! runtime state and are *not* captured (they are re-registered by the
//! application on startup, as the prototype's stored procedures were
//! re-installed with the schema).

use syd_types::{SydError, SydResult, Value};
use syd_wire::codec::{put_varint, Decode, Encode, Reader};
use syd_wire::{decode_from_slice, encode_to_vec};

use crate::schema::{Column, ColumnType, Schema};
use crate::store::Store;
use crate::table::RowId;

/// Magic + version prefix of a snapshot.
const MAGIC: &[u8; 4] = b"SYDS";
const VERSION: u8 = 1;

struct TableSnapshot {
    schema: Schema,
    indexes: Vec<String>,
    rows: Vec<(u64, Vec<Value>)>,
}

struct StoreSnapshot {
    tables: Vec<TableSnapshot>,
}

impl Encode for TableSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.schema.name.encode(buf);
        put_varint(buf, self.schema.columns.len() as u64);
        for col in &self.schema.columns {
            col.name.encode(buf);
            buf.push(col.ty.code());
            col.nullable.encode(buf);
        }
        let pk: Vec<u64> = self.schema.primary_key.iter().map(|&i| i as u64).collect();
        pk.encode(buf);
        self.indexes.encode(buf);
        put_varint(buf, self.rows.len() as u64);
        for (row_id, values) in &self.rows {
            put_varint(buf, *row_id);
            values.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        let mut n = self.schema.name.encoded_len();
        n += syd_wire::codec::varint_len(self.schema.columns.len() as u64);
        for col in &self.schema.columns {
            n += col.name.encoded_len() + 1 + 1;
        }
        let pk: Vec<u64> = self.schema.primary_key.iter().map(|&i| i as u64).collect();
        n += pk.encoded_len();
        n += self.indexes.encoded_len();
        n += syd_wire::codec::varint_len(self.rows.len() as u64);
        for (row_id, values) in &self.rows {
            n += syd_wire::codec::varint_len(*row_id) + values.encoded_len();
        }
        n
    }
}

impl Decode for TableSnapshot {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let name = String::decode(r)?;
        let col_count = r.len_prefix()?;
        let mut columns = Vec::with_capacity(col_count.min(256));
        for _ in 0..col_count {
            let col_name = String::decode(r)?;
            let ty = ColumnType::from_code(r.u8()?)?;
            let nullable = bool::decode(r)?;
            columns.push(Column {
                name: col_name,
                ty,
                nullable,
            });
        }
        let pk_indices = Vec::<u64>::decode(r)?;
        let pk_names: Vec<String> = pk_indices
            .iter()
            .map(|&i| {
                columns
                    .get(i as usize)
                    .map(|c| c.name.clone())
                    .ok_or_else(|| SydError::Codec(format!("pk index {i} out of range")))
            })
            .collect::<SydResult<_>>()?;
        let pk_refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
        let schema = Schema::new(name, columns, &pk_refs)?;
        let indexes = Vec::<String>::decode(r)?;
        let row_count = r.len_prefix()?;
        let mut rows = Vec::with_capacity(row_count.min(4096));
        for _ in 0..row_count {
            let row_id = r.varint()?;
            let values = Vec::<Value>::decode(r)?;
            rows.push((row_id, values));
        }
        Ok(TableSnapshot {
            schema,
            indexes,
            rows,
        })
    }
}

impl Encode for StoreSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        put_varint(buf, self.tables.len() as u64);
        for t in &self.tables {
            t.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        5 + syd_wire::codec::varint_len(self.tables.len() as u64)
            + self.tables.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl Decode for StoreSnapshot {
    fn decode(r: &mut Reader<'_>) -> SydResult<Self> {
        let magic = r.bytes(4)?;
        if magic != MAGIC {
            return Err(SydError::Codec("not a SyD store snapshot".into()));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(SydError::Codec(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let table_count = r.len_prefix()?;
        let mut tables = Vec::with_capacity(table_count.min(256));
        for _ in 0..table_count {
            tables.push(TableSnapshot::decode(r)?);
        }
        Ok(StoreSnapshot { tables })
    }
}

impl Store {
    /// Serializes every table (schema, indexes, rows) to bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut tables = Vec::new();
        for name in self.table_names() {
            let Ok(handle) = self.table_handle(&name) else {
                continue; // dropped between listing and snapshot
            };
            let t = handle.read();
            let rows = t
                .all_rows()
                .into_iter()
                .map(|row| (row.id.0, row.values.to_vec()))
                .collect();
            tables.push(TableSnapshot {
                schema: Schema::clone(t.schema()),
                indexes: t.indexed_columns(),
                rows,
            });
        }
        encode_to_vec(&StoreSnapshot { tables })
    }

    /// Writes the snapshot to a file (the device's persistent image).
    pub fn save_to_file(&self, path: &std::path::Path) -> SydResult<()> {
        std::fs::write(path, self.snapshot())
            .map_err(|e| SydError::App(format!("cannot write snapshot: {e}")))
    }

    /// Loads a store from a snapshot file.
    pub fn load_from_file(path: &std::path::Path) -> SydResult<Store> {
        let bytes =
            std::fs::read(path).map_err(|e| SydError::App(format!("cannot read snapshot: {e}")))?;
        Store::from_snapshot(&bytes)
    }

    /// Reconstructs a store from snapshot bytes.
    pub fn from_snapshot(bytes: &[u8]) -> SydResult<Store> {
        let snapshot: StoreSnapshot = decode_from_slice(bytes)?;
        let store = Store::new();
        for t in snapshot.tables {
            store.create_table(t.schema.clone())?;
            let handle = store.table_handle(&t.schema.name)?;
            {
                let mut table = handle.write();
                for (row_id, values) in t.rows {
                    t.schema.validate_row(&values)?;
                    table.restore(RowId(row_id), values.into());
                }
                for column in &t.indexes {
                    table.create_index(column)?;
                }
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn sample_store() -> Store {
        let s = Store::new();
        s.create_table(
            Schema::new(
                "slots",
                vec![
                    Column::required("day", ColumnType::I64),
                    Column::required("status", ColumnType::Str),
                    Column::nullable("meeting", ColumnType::I64),
                ],
                &["day"],
            )
            .unwrap(),
        )
        .unwrap();
        s.create_index("slots", "status").unwrap();
        for day in 0..10 {
            s.insert(
                "slots",
                vec![
                    Value::I64(day),
                    Value::str(if day % 2 == 0 { "free" } else { "busy" }),
                    if day == 3 {
                        Value::I64(99)
                    } else {
                        Value::Null
                    },
                ],
            )
            .unwrap();
        }
        s.create_table(
            Schema::new("empty", vec![Column::required("x", ColumnType::Any)], &[]).unwrap(),
        )
        .unwrap();
        s
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let original = sample_store();
        let bytes = original.snapshot();
        let restored = Store::from_snapshot(&bytes).unwrap();

        assert_eq!(restored.table_names(), original.table_names());
        assert_eq!(restored.row_count("slots").unwrap(), 10);
        assert_eq!(restored.row_count("empty").unwrap(), 0);

        // Rows identical, including row ids and nulls.
        let orig_rows = original.select("slots", &Predicate::True).unwrap();
        let rest_rows = restored.select("slots", &Predicate::True).unwrap();
        assert_eq!(orig_rows, rest_rows);

        // Index still works.
        assert_eq!(
            restored
                .count("slots", &Predicate::Eq("status".into(), Value::str("free")))
                .unwrap(),
            5
        );

        // PK uniqueness still enforced after restore.
        assert!(restored
            .insert("slots", vec![Value::I64(3), Value::str("x"), Value::Null])
            .is_err());

        // Row-id counter advanced: new rows don't collide.
        let id = restored
            .insert("slots", vec![Value::I64(50), Value::str("x"), Value::Null])
            .unwrap();
        assert!(orig_rows.iter().all(|r| r.id != id));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let s = sample_store();
        assert_eq!(s.snapshot(), s.snapshot());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_store().snapshot();
        bytes[0] = b'X';
        let err = Store::from_snapshot(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("not a SyD store snapshot"),
            "{err}"
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample_store().snapshot();
        bytes[4] = 200;
        assert!(Store::from_snapshot(&bytes).is_err());
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let bytes = sample_store().snapshot();
        assert!(Store::from_snapshot(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn empty_store_round_trips() {
        let s = Store::new();
        let restored = Store::from_snapshot(&s.snapshot()).unwrap();
        assert!(restored.table_names().is_empty());
    }

    #[test]
    fn file_persistence_round_trip() {
        let dir = std::env::temp_dir().join(format!("syd-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("device.syd");
        let original = sample_store();
        original.save_to_file(&path).unwrap();
        let restored = Store::load_from_file(&path).unwrap();
        assert_eq!(
            restored.select("slots", &Predicate::True).unwrap(),
            original.select("slots", &Predicate::True).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(Store::load_from_file(&path).is_err());
    }
}
