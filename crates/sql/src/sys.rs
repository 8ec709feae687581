//! The `sys.*` virtual tables: live server introspection through plain
//! SQL.
//!
//! Every `sys.` table is materialised *at statement time* as an ordinary
//! [`VectorTable`] registered on a throwaway clone of the session catalog
//! (the clone shares the table `Arc`s and session knobs, so it costs a
//! `BTreeMap` clone, nothing more). Planning, projection, predicates,
//! ORDER BY, LIMIT, joins and the streamed wire protocol all work on them
//! for free — the engine cannot tell a `sys.` scan from a roads table.
//!
//! | table          | one row per                                     |
//! |----------------|-------------------------------------------------|
//! | `sys.metrics`  | registry series / stage statistic               |
//! | `sys.queries`  | in-flight query (subsumes `SHOW QUERIES`)       |
//! | `sys.sessions` | open network session                            |
//! | `sys.tiles`    | tile of every registered tiled table            |
//! | `sys.wal`      | streaming (ingest) table                        |
//!
//! The snapshot semantics are per-statement: one `SELECT` sees one
//! consistent build of the table; two scans may differ, like any
//! monitoring view.

use lidardb_core::{MetricsRegistry, QueryRegistry, SessionRegistry, Stage};

use crate::ast::SelectStmt;
use crate::catalog::{Catalog, PcRead, Table, VColumn, VectorTable};
use crate::error::SqlError;

/// The five virtual tables, in catalog order.
pub const SYS_TABLES: [&str; 5] = [
    "sys.metrics",
    "sys.queries",
    "sys.sessions",
    "sys.tiles",
    "sys.wal",
];

/// Whether `name` addresses the sys namespace.
pub fn is_sys_table(name: &str) -> bool {
    name.starts_with("sys.")
}

/// If the statement references any `sys.` table, return a scoped catalog
/// clone with those tables materialised; `None` when the statement never
/// leaves user tables (the common case pays one iterator pass, no clone).
pub fn scoped_catalog(catalog: &Catalog, sel: &SelectStmt) -> Result<Option<Catalog>, SqlError> {
    if !sel.from.iter().any(|t| is_sys_table(&t.name)) {
        return Ok(None);
    }
    let mut scoped = catalog.clone();
    for t in &sel.from {
        if is_sys_table(&t.name) {
            scoped.register_vector(t.name.clone(), build_sys_table(catalog, &t.name)?);
        }
    }
    Ok(Some(scoped))
}

/// Materialise one `sys.` table. The build reads only lock-free state
/// (atomics) or short registry locks — never a table lock,
/// so monitoring cannot stall the write path.
pub fn build_sys_table(catalog: &Catalog, name: &str) -> Result<VectorTable, SqlError> {
    match name {
        "sys.metrics" => Ok(sys_metrics()),
        "sys.queries" => Ok(sys_queries()),
        "sys.sessions" => Ok(sys_sessions()),
        "sys.tiles" => Ok(sys_tiles(catalog)),
        "sys.wal" => Ok(sys_wal(catalog)),
        other => Err(SqlError::Plan(format!(
            "unknown sys table {other} (expected one of: {})",
            SYS_TABLES.join(", ")
        ))),
    }
}

/// `sys.metrics`: one row per registry series (`kind` counter or gauge),
/// then five per stage: calls, rows, total nanoseconds and the p50/p99
/// latency bounds. The series rows walk [`MetricsRegistry::SERIES`], the
/// list `/metrics` renders too.
fn sys_metrics() -> VectorTable {
    let m = MetricsRegistry::global();
    let mut kinds = Vec::new();
    let mut names = Vec::new();
    let mut values: Vec<i64> = Vec::new();
    for series in MetricsRegistry::SERIES {
        kinds.push(series.kind.name().to_string());
        names.push(series.name.to_string());
        values.push(series.value(m) as i64);
    }
    for stage in Stage::ALL {
        let s = m.stage(stage);
        for (kind, v) in [
            ("stage_calls", s.calls.get()),
            ("stage_rows", s.rows.get()),
            ("stage_nanos", s.nanos.get()),
            ("stage_p50_ns", s.latency.percentile_ns(0.50)),
            ("stage_p99_ns", s.latency.percentile_ns(0.99)),
        ] {
            kinds.push(kind.to_string());
            names.push(stage.name().to_string());
            values.push(v as i64);
        }
    }
    VectorTable::new()
        .with_column("kind", VColumn::Str(kinds))
        .with_column("name", VColumn::Str(names))
        .with_column("value", VColumn::Int(values))
}

/// `sys.queries`: every in-flight query with queue wait, live row
/// progress and charged memory — the columns `SHOW QUERIES` lacks.
fn sys_queries() -> VectorTable {
    let list = QueryRegistry::global().list();
    VectorTable::new()
        .with_column(
            "query_id",
            VColumn::Int(list.iter().map(|q| q.id.0 as i64).collect()),
        )
        .with_column(
            "elapsed_seconds",
            VColumn::Float(list.iter().map(|q| q.elapsed.as_secs_f64()).collect()),
        )
        .with_column(
            "queue_wait_seconds",
            VColumn::Float(list.iter().map(|q| q.queue_wait.as_secs_f64()).collect()),
        )
        .with_column(
            "state",
            VColumn::Str(
                list.iter()
                    .map(|q| if q.cancelled { "cancelled" } else { "running" }.to_string())
                    .collect(),
            ),
        )
        .with_column(
            "rows_so_far",
            VColumn::Int(list.iter().map(|q| q.rows_so_far as i64).collect()),
        )
        .with_column(
            "mem_bytes",
            VColumn::Int(list.iter().map(|q| q.mem_used as i64).collect()),
        )
        .with_column(
            "detail",
            VColumn::Str(list.into_iter().map(|q| q.detail).collect()),
        )
}

/// `sys.sessions`: open network sessions (embedded use registers none).
fn sys_sessions() -> VectorTable {
    let list = SessionRegistry::global().list();
    // Drain is server-wide, mirrored through the gauge so the embedded
    // catalog needs no handle to the server: every open session is
    // `draining` once shutdown begins, `active` before.
    let state = if MetricsRegistry::global().server_draining.get() != 0 {
        "draining"
    } else {
        "active"
    };
    VectorTable::new()
        .with_column(
            "session_id",
            VColumn::Int(list.iter().map(|s| s.id as i64).collect()),
        )
        .with_column(
            "peer",
            VColumn::Str(list.iter().map(|s| s.peer.clone()).collect()),
        )
        .with_column(
            "elapsed_seconds",
            VColumn::Float(list.iter().map(|s| s.elapsed.as_secs_f64()).collect()),
        )
        .with_column(
            "statements",
            VColumn::Int(list.iter().map(|s| s.statements as i64).collect()),
        )
        .with_column(
            "state",
            VColumn::Str(list.iter().map(|_| state.to_string()).collect()),
        )
}

/// `sys.tiles`: per-tile residency and zone-map stats of every registered
/// tiled table.
fn sys_tiles(catalog: &Catalog) -> VectorTable {
    let mut table = Vec::new();
    let mut tile = Vec::new();
    let mut row_start = Vec::new();
    let mut rows = Vec::new();
    let mut key_lo = Vec::new();
    let mut key_hi = Vec::new();
    let mut resident = Vec::new();
    let mut resident_bytes = Vec::new();
    let mut resident_columns = Vec::new();
    let mut zone_columns = Vec::new();
    for name in catalog.table_names() {
        let Ok(Table::Tiled(tc)) = catalog.table(name) else {
            continue;
        };
        for t in tc.tile_residency() {
            table.push(name.to_string());
            tile.push(t.id as i64);
            row_start.push(t.row_start as i64);
            rows.push(t.rows as i64);
            key_lo.push(t.key_lo as i64);
            key_hi.push(t.key_hi as i64);
            resident.push(i64::from(t.resident_bytes.is_some()));
            resident_bytes.push(t.resident_bytes.unwrap_or(0) as i64);
            resident_columns.push(t.resident_columns.to_string());
            zone_columns.push(t.zone_columns as i64);
        }
    }
    VectorTable::new()
        .with_column("table_name", VColumn::Str(table))
        .with_column("tile", VColumn::Int(tile))
        .with_column("row_start", VColumn::Int(row_start))
        .with_column("rows", VColumn::Int(rows))
        .with_column("key_lo", VColumn::Int(key_lo))
        .with_column("key_hi", VColumn::Int(key_hi))
        .with_column("resident", VColumn::Int(resident))
        .with_column("resident_bytes", VColumn::Int(resident_bytes))
        .with_column("resident_columns", VColumn::Str(resident_columns))
        .with_column("zone_columns", VColumn::Int(zone_columns))
}

/// `sys.wal`: durability state of every streaming (ingest) table.
fn sys_wal(catalog: &Catalog) -> VectorTable {
    let mut table = Vec::new();
    let mut durability = Vec::new();
    let mut total_rows = Vec::new();
    let mut durable_rows = Vec::new();
    let mut visible_rows = Vec::new();
    let mut backlog_rows = Vec::new();
    let mut degraded = Vec::new();
    for name in catalog.stream_names() {
        let Ok(PcRead::Stream(pc)) = catalog.read_points(name) else {
            continue;
        };
        let durable = pc.durable_rows().unwrap_or(0);
        degraded.push(i64::from(pc.degraded()));
        table.push(name.to_string());
        durability.push(match pc.ingest_durability() {
            Some(lidardb_core::Durability::Always) => "always".to_string(),
            Some(lidardb_core::Durability::GroupCommit { max_batches, .. }) => {
                format!("group_commit({max_batches})")
            }
            Some(lidardb_core::Durability::None) | None => "none".to_string(),
        });
        total_rows.push(pc.num_points() as i64);
        durable_rows.push(durable as i64);
        visible_rows.push(pc.visible_rows() as i64);
        backlog_rows.push(pc.num_points().saturating_sub(durable) as i64);
    }
    VectorTable::new()
        .with_column("table_name", VColumn::Str(table))
        .with_column("durability", VColumn::Str(durability))
        .with_column("total_rows", VColumn::Int(total_rows))
        .with_column("durable_rows", VColumn::Int(durable_rows))
        .with_column("visible_rows", VColumn::Int(visible_rows))
        .with_column("backlog_rows", VColumn::Int(backlog_rows))
        .with_column("degraded", VColumn::Int(degraded))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_metrics_has_a_row_per_series_and_stage_statistic() {
        use crate::value::SqlValue;
        let t = sys_metrics();
        t.validate().unwrap();
        let has = |kind: &str, name: &str| {
            (0..t.num_rows()).any(|r| {
                t.value("kind", r).unwrap() == SqlValue::Str(kind.into())
                    && t.value("name", r).unwrap() == SqlValue::Str(name.into())
            })
        };
        for series in MetricsRegistry::SERIES {
            assert!(has(series.kind.name(), series.name), "{}", series.name);
        }
        for stage in Stage::ALL {
            for kind in ["stage_calls", "stage_rows", "stage_nanos", "stage_p99_ns"] {
                assert!(has(kind, stage.name()), "{kind} {}", stage.name());
            }
        }
        assert_eq!(
            t.num_rows(),
            MetricsRegistry::SERIES.len() + 5 * Stage::ALL.len()
        );
    }

    #[test]
    fn unknown_sys_table_is_a_plan_error() {
        let c = Catalog::new();
        let err = build_sys_table(&c, "sys.nope").unwrap_err();
        assert!(err.to_string().contains("sys.nope"), "{err}");
        assert!(
            err.to_string().contains("sys.metrics"),
            "lists options: {err}"
        );
    }

    #[test]
    fn sys_wal_reports_stream_tables() {
        use lidardb_core::PointCloud;
        let dir = lidardb_test_support::ScratchDir::vacant("sys_wal");
        let mut pc = PointCloud::open_ingest(&dir, lidardb_core::Durability::Always).unwrap();
        let recs: Vec<lidardb_las::PointRecord> = (0..32)
            .map(|i| lidardb_las::PointRecord {
                x: i as f64,
                y: i as f64,
                ..Default::default()
            })
            .collect();
        pc.append_records(&recs).unwrap();
        let mut c = Catalog::new();
        c.register_stream("pts", std::sync::Arc::new(std::sync::RwLock::new(pc)));
        let t = sys_wal(&c);
        t.validate().unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(
            t.value("table_name", 0).unwrap(),
            crate::value::SqlValue::Str("pts".into())
        );
        assert_eq!(
            t.value("total_rows", 0).unwrap(),
            crate::value::SqlValue::Int(32)
        );
        assert_eq!(
            t.value("durable_rows", 0).unwrap(),
            crate::value::SqlValue::Int(32)
        );
        assert_eq!(
            t.value("backlog_rows", 0).unwrap(),
            crate::value::SqlValue::Int(0)
        );
        assert_eq!(
            t.value("durability", 0).unwrap(),
            crate::value::SqlValue::Str("always".into())
        );
    }
}
