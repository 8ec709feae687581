//! The CSV text loading route, experiment E1's comparator.
//!
//! §3.2: *"In most of the systems, the dominant part of loading stems from
//! the conversion of the LAZ files into CSV format and the subsequent
//! parsing of the CSV records by the database engine."* This is that
//! route, done honestly: every file is decoded, every record is formatted
//! to text, and every field is parsed back and appended one row at a time,
//! so E1 measures the cost that the binary loader of `lidardb-core`
//! avoids.

use std::path::PathBuf;

use lidardb_las::{
    point_schema, read_las_file, schema::column_value_f64, COLUMN_NAMES, NUM_COLUMNS,
};
use lidardb_storage::{FlatTable, Value};

use crate::error::BaselineError;

/// Load `paths`, in order, into one flat table over
/// [`lidardb_las::point_schema`]: decode LAS → CSV text → parse → append
/// row at a time. Stops at the first file that fails to decode.
pub fn load_via_csv(paths: &[PathBuf]) -> Result<FlatTable, BaselineError> {
    let schema = point_schema();
    let header = COLUMN_NAMES.join(",");
    let mut table = FlatTable::new(schema.clone());
    let mut row: Vec<Value> = Vec::with_capacity(NUM_COLUMNS);
    for path in paths {
        let (_, records) = read_las_file(path)?;
        // Records → text, with a header line; integers print without a
        // decimal point, like real exporters.
        let mut text = String::with_capacity(records.len() * 96 + header.len() + 1);
        text.push_str(&header);
        text.push('\n');
        for r in &records {
            for c in 0..NUM_COLUMNS {
                if c > 0 {
                    text.push(',');
                }
                let v = column_value_f64(r, c);
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    text.push_str(&format!("{}", v as i64));
                } else {
                    text.push_str(&format!("{v}"));
                }
            }
            text.push('\n');
        }
        // Text → rows: skip the header, then parse every field.
        let bad = |line: usize, why: String| {
            BaselineError::Invalid(format!("{} CSV line {line}: {why}", path.display()))
        };
        for (idx, line) in text.lines().enumerate().skip(1) {
            row.clear();
            let mut fields = line.split(',');
            for field in schema.fields() {
                let raw = fields
                    .next()
                    .ok_or_else(|| bad(idx + 1, format!("missing field {}", field.name)))?;
                let v: f64 = raw
                    .parse()
                    .map_err(|_| bad(idx + 1, format!("bad value {raw:?} in {}", field.name)))?;
                // Unsigned columns take the saturating path from f64.
                row.push(if field.ptype.is_signed_int() {
                    Value::I64(v as i64)
                } else {
                    Value::F64(v)
                });
            }
            if fields.next().is_some() {
                return Err(bad(idx + 1, "too many fields".into()));
            }
            table.push_row(&row);
        }
    }
    Ok(table)
}
