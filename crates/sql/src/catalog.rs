//! The table catalog: point-cloud tables and in-memory vector tables.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use lidardb_core::{Parallelism, PointCloud, PointTable, TiledCloud};
use lidardb_geom::Geometry;

use crate::error::SqlError;
use crate::value::SqlValue;

/// A column of a vector table.
#[derive(Debug, Clone)]
pub enum VColumn {
    /// Doubles.
    Float(Vec<f64>),
    /// Integers.
    Int(Vec<i64>),
    /// Text.
    Str(Vec<String>),
    /// Geometries.
    Geom(Vec<Geometry>),
}

impl VColumn {
    fn len(&self) -> usize {
        match self {
            VColumn::Float(v) => v.len(),
            VColumn::Int(v) => v.len(),
            VColumn::Str(v) => v.len(),
            VColumn::Geom(v) => v.len(),
        }
    }

    pub(crate) fn get(&self, row: usize) -> SqlValue {
        match self {
            VColumn::Float(v) => SqlValue::Float(v[row]),
            VColumn::Int(v) => SqlValue::Int(v[row]),
            VColumn::Str(v) => SqlValue::Str(v[row].clone()),
            VColumn::Geom(v) => SqlValue::Geom(v[row].clone()),
        }
    }
}

/// A small in-memory feature table (roads, zones, POIs).
#[derive(Debug, Clone, Default)]
pub struct VectorTable {
    names: Vec<String>,
    columns: Vec<VColumn>,
}

impl VectorTable {
    /// An empty table.
    pub fn new() -> Self {
        VectorTable::default()
    }

    /// Add a column. All columns must end up the same length.
    pub fn with_column(mut self, name: impl Into<String>, col: VColumn) -> Self {
        self.names.push(name.into());
        self.columns.push(col);
        self
    }

    /// Column names.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, VColumn::len)
    }

    /// Value of `column` at `row`.
    pub fn value(&self, column: &str, row: usize) -> Result<SqlValue, SqlError> {
        let idx = self
            .column_index(column)
            .ok_or_else(|| SqlError::Exec(format!("unknown column {column}")))?;
        if row >= self.num_rows() {
            return Err(SqlError::Exec(format!("row {row} out of range")));
        }
        Ok(self.columns[idx].get(row))
    }

    /// Position of `column`, if the table has it.
    pub(crate) fn column_index(&self, column: &str) -> Option<usize> {
        self.names.iter().position(|n| n == column)
    }

    /// The column at position `i`.
    pub(crate) fn column_at(&self, i: usize) -> &VColumn {
        &self.columns[i]
    }

    /// Whether the table has a column.
    pub fn has_column(&self, column: &str) -> bool {
        self.names.iter().any(|n| n == column)
    }
}

/// A registered table.
#[derive(Debug, Clone)]
pub enum Table {
    /// The flat point-cloud table served by the two-step engine.
    Points(Arc<PointCloud>),
    /// A point-cloud table open for streaming ingest: INSERTs take the
    /// write lock, scans take the read lock and see the cloud's committed
    /// snapshot (`visible_rows`).
    Stream(Arc<RwLock<PointCloud>>),
    /// An in-memory vector table.
    Vector(Arc<VectorTable>),
    /// A sealed, tiled point-cloud table: SFC-clustered immutable
    /// segments that load lazily and are pruned by per-tile zone maps.
    /// Read through the same view as the flat table; only `INSERT` is
    /// refused — sealed tiles are immutable.
    Tiled(Arc<TiledCloud>),
}

/// A point table opened for one statement: what holds a streaming
/// table's read guard for the duration of the scan. Every read goes
/// through [`PcRead::table`], core's one view of a point table.
pub enum PcRead<'a> {
    /// A plain or tiled table, shared as it is.
    Shared(PointTable<'a>),
    /// A streaming cloud, read-locked for the duration of the scan and
    /// queried at its committed snapshot.
    Stream(RwLockReadGuard<'a, PointCloud>),
}

impl PcRead<'_> {
    /// The read view of the table.
    pub fn table(&self) -> PointTable<'_> {
        match self {
            PcRead::Shared(table) => *table,
            PcRead::Stream(guard) => PointTable::Flat(guard),
        }
    }
}

/// The catalog of queryable tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    parallelism: Parallelism,
    /// Session tracing toggle (`SET TRACE = ON`). Shared across clones so
    /// a statement executed on a cloned catalog sees the session's state.
    trace: Arc<std::sync::atomic::AtomicBool>,
    /// Session statement timeout in milliseconds (`SET STATEMENT_TIMEOUT`);
    /// 0 = unset. Shared across clones like `trace`.
    statement_timeout_ms: Arc<std::sync::atomic::AtomicU64>,
    /// Session per-query memory budget in bytes (`SET MEM_BUDGET`);
    /// 0 = unset.
    mem_budget_bytes: Arc<std::sync::atomic::AtomicU64>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Set the worker-count policy point-cloud scans and spatial-join
    /// probes run with (default: [`Parallelism::Auto`]).
    pub fn set_parallelism(&mut self, p: Parallelism) {
        self.parallelism = p;
    }

    /// The catalog's worker-count policy.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Toggle session tracing (`SET TRACE = ON|OFF`): while on, every
    /// statement executed against this catalog runs with per-query span
    /// tracing forced on its thread (see `lidardb_core::trace`).
    pub fn set_trace(&self, on: bool) {
        self.trace.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether session tracing is on.
    pub fn trace_enabled(&self) -> bool {
        self.trace.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// `SET STATEMENT_TIMEOUT = <ms>`: deadline applied to every
    /// point-cloud scan this session runs; 0 clears it.
    pub fn set_statement_timeout_ms(&self, ms: u64) {
        self.statement_timeout_ms
            .store(ms, std::sync::atomic::Ordering::Relaxed);
    }

    /// The session's statement timeout, if set.
    pub fn statement_timeout(&self) -> Option<std::time::Duration> {
        match self
            .statement_timeout_ms
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        }
    }

    /// `SET MEM_BUDGET = <bytes>`: per-query memory budget for this
    /// session's point-cloud scans; 0 clears it.
    pub fn set_mem_budget_bytes(&self, bytes: u64) {
        self.mem_budget_bytes
            .store(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    /// The session's per-query memory budget, if set.
    pub fn mem_budget(&self) -> Option<u64> {
        match self
            .mem_budget_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            0 => None,
            b => Some(b),
        }
    }

    /// Derive a per-session catalog: the table map (and the `Arc`s under
    /// it) is shared with `self`, but the session knobs — `SET TRACE`,
    /// `SET STATEMENT_TIMEOUT`, `SET MEM_BUDGET` — get fresh state seeded
    /// from the current values. This is what gives every network
    /// connection its own session: a `SET` on one connection never leaks
    /// into another, while the data and its admission controller stay
    /// process-wide. (A plain `clone()` is the opposite: it *shares* the
    /// knobs, which is what the in-process single-session callers want.)
    pub fn session(&self) -> Catalog {
        Catalog {
            tables: self.tables.clone(),
            parallelism: self.parallelism,
            trace: Arc::new(std::sync::atomic::AtomicBool::new(self.trace_enabled())),
            statement_timeout_ms: Arc::new(std::sync::atomic::AtomicU64::new(
                self.statement_timeout_ms
                    .load(std::sync::atomic::Ordering::Relaxed),
            )),
            mem_budget_bytes: Arc::new(std::sync::atomic::AtomicU64::new(
                self.mem_budget_bytes
                    .load(std::sync::atomic::Ordering::Relaxed),
            )),
        }
    }

    /// Register a point cloud under `name`.
    pub fn register_pointcloud(&mut self, name: impl Into<String>, pc: Arc<PointCloud>) {
        self.tables.insert(name.into(), Table::Points(pc));
    }

    /// Register a vector table under `name`.
    pub fn register_vector(&mut self, name: impl Into<String>, t: VectorTable) {
        self.tables.insert(name.into(), Table::Vector(Arc::new(t)));
    }

    /// Register a streaming (ingest-enabled) point cloud under `name`.
    /// The cloud accepts `INSERT` and shows up in `SHOW RECOVERY`.
    pub fn register_stream(&mut self, name: impl Into<String>, pc: Arc<RwLock<PointCloud>>) {
        self.tables.insert(name.into(), Table::Stream(pc));
    }

    /// Register a sealed tiled point cloud under `name`. Statements run
    /// through the same path as on flat tables, with zone-map tile pruning
    /// in front; the table is read-only.
    pub fn register_tiled(&mut self, name: impl Into<String>, tc: Arc<TiledCloud>) {
        self.tables.insert(name.into(), Table::Tiled(tc));
    }

    /// The read view of the point-cloud table `name`, whatever its storage.
    pub fn read_points(&self, name: &str) -> Result<PcRead<'_>, SqlError> {
        match self.table(name)? {
            Table::Points(pc) => Ok(PcRead::Shared(PointTable::Flat(pc))),
            Table::Stream(pc) => Ok(PcRead::Stream(
                pc.read().unwrap_or_else(std::sync::PoisonError::into_inner),
            )),
            Table::Tiled(tc) => Ok(PcRead::Shared(PointTable::Tiled(tc))),
            Table::Vector(_) => Err(SqlError::Plan(format!("{name} is not a point cloud"))),
        }
    }

    /// Exclusive access to the streaming table `name` (INSERT, flush,
    /// seal). Plain point clouds are read-only through SQL.
    pub fn write_stream(&self, name: &str) -> Result<RwLockWriteGuard<'_, PointCloud>, SqlError> {
        match self.table(name)? {
            Table::Stream(pc) => Ok(pc
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)),
            Table::Points(_) | Table::Tiled(_) => Err(SqlError::Exec(format!(
                "table {name} is read-only (register it as a stream to INSERT)"
            ))),
            Table::Vector(_) => Err(SqlError::Exec(format!("{name} is not a point cloud"))),
        }
    }

    /// Names of the streaming tables, for `SHOW RECOVERY`.
    pub fn stream_names(&self) -> Vec<&str> {
        self.tables
            .iter()
            .filter(|(_, t)| matches!(t, Table::Stream(_)))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::Plan(format!("unknown table {name}")))
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Column names of a table (for `SELECT *` expansion).
    pub fn columns_of(&self, name: &str) -> Result<Vec<String>, SqlError> {
        match self.table(name)? {
            Table::Points(_) | Table::Stream(_) | Table::Tiled(_) => Ok(lidardb_las::COLUMN_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect()),
            Table::Vector(v) => Ok(v.column_names().to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_geom::Point;

    impl VectorTable {
        /// Every column holds `num_rows` values.
        pub(crate) fn assert_rectangular(&self) {
            for (name, c) in self.names.iter().zip(&self.columns) {
                assert_eq!(c.len(), self.num_rows(), "column {name}");
            }
        }
    }

    fn roads() -> VectorTable {
        VectorTable::new()
            .with_column("id", VColumn::Int(vec![1, 2]))
            .with_column(
                "class",
                VColumn::Str(vec!["motorway".into(), "primary".into()]),
            )
            .with_column(
                "geom",
                VColumn::Geom(vec![
                    Geometry::Point(Point::new(0.0, 0.0)),
                    Geometry::Point(Point::new(1.0, 1.0)),
                ]),
            )
    }

    #[test]
    fn vector_table_access() {
        let t = roads();
        t.assert_rectangular();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value("id", 0).unwrap(), SqlValue::Int(1));
        assert_eq!(
            t.value("class", 1).unwrap(),
            SqlValue::Str("primary".into())
        );
        assert!(matches!(t.value("geom", 0).unwrap(), SqlValue::Geom(_)));
        assert!(t.value("nope", 0).is_err());
        assert!(t.value("id", 5).is_err());
        assert!(t.has_column("class") && !t.has_column("speed"));
    }

    #[test]
    fn catalog_lookup() {
        let mut c = Catalog::new();
        c.register_vector("roads", roads());
        c.register_pointcloud("points", Arc::new(PointCloud::new()));
        assert_eq!(c.table_names(), vec!["points", "roads"]);
        assert!(c.table("points").is_ok());
        assert!(c.table("missing").is_err());
        assert_eq!(c.columns_of("points").unwrap().len(), 26);
        assert_eq!(c.columns_of("roads").unwrap(), vec!["id", "class", "geom"]);
    }
}
