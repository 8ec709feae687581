//! Flat tables: named, schema-checked collections of equal-length columns.
//!
//! This is the storage model of §3.1 of the paper: *"a flat table is used for
//! storing the point cloud data, where a different column is used for storing
//! the X, Y, Z coordinates and the 23 properties of each point. As a result,
//! each point is stored as a different tuple in the flat table."*
//!
//! Columns are shared slots (`Arc<Column>`): a table built over a subset of
//! another table's columns ([`FlatTable::from_columns`]) shares them
//! without a copy, and the mutation paths copy a column only while someone
//! else still holds it.

use std::sync::Arc;

use crate::column::Column;
use crate::error::StorageError;
use crate::types::{PhysicalType, Value};

/// One named, typed column slot of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within the schema, case-sensitive).
    pub name: String,
    /// Physical storage type.
    pub ptype: PhysicalType,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ptype: PhysicalType) -> Self {
        Field {
            name: name.into(),
            ptype,
        }
    }
}

/// An ordered list of fields with unique names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Self, StorageError> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(StorageError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, StorageError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> Result<&Field, StorageError> {
        self.index_of(name).map(|i| &self.fields[i])
    }
}

/// A flat table: one [`Column`] per schema field, all of equal length.
/// The row count is the table's own, so a table of no columns still has
/// rows.
#[derive(Debug, Clone)]
pub struct FlatTable {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl FlatTable {
    /// Create an empty table for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::new(f.ptype)))
            .collect();
        FlatTable {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Create an empty table reserving capacity for `rows` rows.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::with_capacity(f.ptype, rows)))
            .collect();
        FlatTable {
            schema,
            columns,
            rows: 0,
        }
    }

    /// A table of `rows` rows over the given columns, in the given order,
    /// sharing them. Every column must hold `rows` values of its field's
    /// type; the names must be unique.
    pub fn from_columns(
        columns: Vec<(Field, Arc<Column>)>,
        rows: usize,
    ) -> Result<Self, StorageError> {
        for (f, c) in &columns {
            if c.ptype() != f.ptype {
                return Err(StorageError::TypeMismatch {
                    expected: f.ptype,
                    found: c.ptype(),
                });
            }
            if c.len() != rows {
                return Err(StorageError::LengthMismatch {
                    column: f.name.clone(),
                    expected: rows,
                    found: c.len(),
                });
            }
        }
        let (fields, columns) = columns.into_iter().unzip();
        Ok(FlatTable {
            schema: Schema::new(fields)?,
            columns,
            rows,
        })
    }

    /// Every field with its shared column, in schema order.
    pub fn shared_columns(&self) -> impl Iterator<Item = (&Field, &Arc<Column>)> {
        self.schema.fields().iter().zip(&self.columns)
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (0 for a fresh table).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Total payload bytes across all columns.
    pub fn byte_len(&self) -> usize {
        self.columns.iter().map(|c| c.byte_len()).sum()
    }

    /// Borrow a column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Borrow a column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, StorageError> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Mutably borrow a column by name, to rewrite it in place (the row
    /// reorder at seal time); the caller keeps its length. A column shared
    /// with another table is copied first.
    pub fn column_by_name_mut(&mut self, name: &str) -> Result<&mut Column, StorageError> {
        let i = self.schema.index_of(name)?;
        Ok(Arc::make_mut(&mut self.columns[i]))
    }

    /// Append one row given in schema order.
    ///
    /// # Panics
    /// Panics when `row.len()` differs from the schema width.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.schema.width(), "row arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(col).push(*v);
        }
        self.rows += 1;
    }

    /// `COPY BINARY`: append one little-endian binary dump per column, in
    /// schema order. All dumps must decode to the same number of rows; on
    /// a mismatch the table is left untouched and an error is returned.
    pub fn copy_binary(&mut self, dumps: &[&[u8]]) -> Result<usize, StorageError> {
        if dumps.len() != self.schema.width() {
            return Err(StorageError::LengthMismatch {
                column: "<dump arity>".into(),
                expected: self.schema.width(),
                found: dumps.len(),
            });
        }
        // Validate row counts before mutating anything.
        let mut rows = None;
        for (f, d) in self.schema.fields().iter().zip(dumps) {
            let w = f.ptype.size();
            if d.len() % w != 0 {
                return Err(StorageError::MisalignedBuffer {
                    ptype: f.ptype,
                    len: d.len(),
                });
            }
            let n = d.len() / w;
            match rows {
                None => rows = Some(n),
                Some(r) if r != n => {
                    return Err(StorageError::LengthMismatch {
                        column: f.name.clone(),
                        expected: r,
                        found: n,
                    })
                }
                _ => {}
            }
        }
        let rows = rows.unwrap_or(0);
        for (col, d) in self.columns.iter_mut().zip(dumps) {
            Arc::make_mut(col).extend_from_le_bytes(d)?;
        }
        self.rows += rows;
        Ok(rows)
    }

    /// Check the internal invariant that every column holds the table's
    /// row count.
    pub fn validate(&self) -> Result<(), StorageError> {
        let rows = self.num_rows();
        for (f, c) in self.schema.fields().iter().zip(&self.columns) {
            if c.len() != rows {
                return Err(StorageError::LengthMismatch {
                    column: f.name.clone(),
                    expected: rows,
                    found: c.len(),
                });
            }
        }
        Ok(())
    }

    /// Materialise the row at `row` in schema order, `None` out of bounds.
    pub fn row(&self, row: usize) -> Option<Vec<Value>> {
        if row >= self.num_rows() {
            return None;
        }
        Some(
            self.columns
                .iter()
                .map(|c| c.get(row).expect("validated length"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xyz_schema() -> Schema {
        Schema::new(vec![
            Field::new("x", PhysicalType::F64),
            Field::new("y", PhysicalType::F64),
            Field::new("z", PhysicalType::F64),
            Field::new("classification", PhysicalType::U8),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Field::new("x", PhysicalType::F64),
            Field::new("x", PhysicalType::F32),
        ])
        .unwrap_err();
        assert_eq!(err, StorageError::DuplicateColumn("x".into()));
    }

    #[test]
    fn push_and_read_rows() {
        let mut t = FlatTable::new(xyz_schema());
        t.push_row(&[
            Value::F64(1.0),
            Value::F64(2.0),
            Value::F64(3.0),
            Value::U64(2),
        ]);
        t.push_row(&[
            Value::F64(4.0),
            Value::F64(5.0),
            Value::F64(6.0),
            Value::U64(6),
        ]);
        assert_eq!(t.num_rows(), 2);
        t.validate().unwrap();
        assert_eq!(
            t.row(1).unwrap(),
            vec![
                Value::F64(4.0),
                Value::F64(5.0),
                Value::F64(6.0),
                Value::U64(6)
            ]
        );
        assert!(t.row(2).is_none());
        assert_eq!(
            t.column_by_name("classification")
                .unwrap()
                .as_slice::<u8>()
                .unwrap(),
            &[2, 6]
        );
    }

    #[test]
    fn copy_binary_appends_all_columns() {
        let mut t = FlatTable::new(xyz_schema());
        let xs: Column = vec![1.0f64, 2.0].into_iter().collect();
        let ys: Column = vec![3.0f64, 4.0].into_iter().collect();
        let zs: Column = vec![5.0f64, 6.0].into_iter().collect();
        let cls: Column = vec![2u8, 6].into_iter().collect();
        let dumps = [
            xs.to_le_bytes(),
            ys.to_le_bytes(),
            zs.to_le_bytes(),
            cls.to_le_bytes(),
        ];
        let refs: Vec<&[u8]> = dumps.iter().map(Vec::as_slice).collect();
        assert_eq!(t.copy_binary(&refs).unwrap(), 2);
        // Appending again doubles the table.
        assert_eq!(t.copy_binary(&refs).unwrap(), 2);
        assert_eq!(t.num_rows(), 4);
        t.validate().unwrap();
    }

    #[test]
    fn copy_binary_row_count_mismatch_leaves_table_untouched() {
        let mut t = FlatTable::new(xyz_schema());
        let two_f64 = vec![0u8; 16];
        let one_f64 = vec![0u8; 8];
        let one_u8 = vec![0u8; 1];
        let dumps: Vec<&[u8]> = vec![&two_f64, &one_f64, &two_f64, &one_u8];
        assert!(matches!(
            t.copy_binary(&dumps).unwrap_err(),
            StorageError::LengthMismatch { .. }
        ));
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn copy_binary_wrong_arity() {
        let mut t = FlatTable::new(xyz_schema());
        assert!(t.copy_binary(&[&[] as &[u8]]).is_err());
    }

    #[test]
    fn unknown_column_errors() {
        let t = FlatTable::new(xyz_schema());
        assert!(matches!(
            t.column_by_name("nope").unwrap_err(),
            StorageError::UnknownColumn(_)
        ));
        assert_eq!(t.schema().index_of("z").unwrap(), 2);
        assert_eq!(t.schema().field("z").unwrap().ptype, PhysicalType::F64);
    }

    #[test]
    fn subset_tables_share_columns_and_keep_their_row_count() {
        let mut t = FlatTable::new(xyz_schema());
        t.push_row(&[
            Value::F64(1.0),
            Value::F64(2.0),
            Value::F64(3.0),
            Value::U64(4),
        ]);
        let (f, z) = t.shared_columns().nth(2).unwrap();
        let sub = FlatTable::from_columns(vec![(f.clone(), Arc::clone(z))], 1).unwrap();
        assert!(
            Arc::ptr_eq(z, sub.shared_columns().next().unwrap().1),
            "no copy"
        );
        assert_eq!(sub.byte_len(), 8);
        // No columns, still rows; a column of the wrong length is refused.
        assert_eq!(
            FlatTable::from_columns(Vec::new(), 7).unwrap().num_rows(),
            7
        );
        assert!(FlatTable::from_columns(vec![(f.clone(), Arc::clone(z))], 2).is_err());
        // Writing through a shared slot copies it; the other table keeps its value.
        t.column_by_name_mut("z")
            .unwrap()
            .as_vec_mut::<f64>()
            .unwrap()[0] = 9.0;
        assert_eq!(sub.column(0).get(0), Some(Value::F64(3.0)));
        assert_eq!(t.column_by_name("z").unwrap().get(0), Some(Value::F64(9.0)));
    }

    #[test]
    fn byte_len_sums_columns() {
        let mut t = FlatTable::with_capacity(xyz_schema(), 10);
        t.push_row(&[
            Value::F64(0.0),
            Value::F64(0.0),
            Value::F64(0.0),
            Value::U64(0),
        ]);
        assert_eq!(t.byte_len(), 8 * 3 + 1);
    }
}
