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
//! | `sys.metrics`  | process counter / gauge / stage percentile      |
//! | `sys.queries`  | in-flight query (subsumes `SHOW QUERIES`)       |
//! | `sys.sessions` | open network session                            |
//! | `sys.tiles`    | tile of every registered tiled table            |
//! | `sys.wal`      | streaming (ingest) table                        |
//! | `sys.recorder` | (sample, series) point of the flight recorder   |
//!
//! The snapshot semantics are per-statement: one `SELECT` sees one
//! consistent build of the table; two scans may differ, like any
//! monitoring view.

use lidardb_core::{
    recorder, MetricsRegistry, QueryRegistry, Recorder, SessionRegistry, Stage,
};

use crate::ast::SelectStmt;
use crate::catalog::{Catalog, PcRead, Table, VColumn, VectorTable};
use crate::error::SqlError;

/// The six virtual tables, in catalog order.
pub const SYS_TABLES: [&str; 6] = [
    "sys.metrics",
    "sys.queries",
    "sys.recorder",
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
/// (atomics, seqlock rings) or short registry locks — never a table lock,
/// so monitoring cannot stall the write path.
pub fn build_sys_table(catalog: &Catalog, name: &str) -> Result<VectorTable, SqlError> {
    match name {
        "sys.metrics" => Ok(sys_metrics()),
        "sys.queries" => Ok(sys_queries()),
        "sys.sessions" => Ok(sys_sessions()),
        "sys.tiles" => Ok(sys_tiles(catalog)),
        "sys.wal" => Ok(sys_wal(catalog)),
        "sys.recorder" => Ok(sys_recorder()),
        other => Err(SqlError::Plan(format!(
            "unknown sys table {other} (expected one of: {})",
            SYS_TABLES.join(", ")
        ))),
    }
}

/// `sys.metrics`: one row per process counter, gauge, and per-stage
/// latency percentile. Counter and gauge names (and values) are exactly
/// the ones `MetricsRegistry::snapshot_json` emits — both surfaces read
/// [`MetricsRegistry::counter_values`] / `gauge_values`.
fn sys_metrics() -> VectorTable {
    let m = MetricsRegistry::global();
    let mut kinds = Vec::new();
    let mut names = Vec::new();
    let mut values: Vec<i64> = Vec::new();
    for (n, v) in m.counter_values() {
        kinds.push("counter".to_string());
        names.push(n.to_string());
        values.push(v as i64);
    }
    for (n, v) in m.gauge_values() {
        kinds.push("gauge".to_string());
        names.push(n.to_string());
        values.push(v as i64);
    }
    for stage in Stage::ALL {
        let s = m.stage(stage);
        for (kind, v) in [
            ("stage_calls", s.calls.get()),
            ("stage_rows", s.rows.get()),
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
            // Drain is server-wide, mirrored through the gauge so the
            // embedded catalog needs no handle to the server: every open
            // session is `draining` once shutdown begins, `active` before.
            VColumn::Str(
                list.iter()
                    .map(|_| {
                        if lidardb_core::MetricsRegistry::global().server_draining.get() != 0 {
                            "draining".to_string()
                        } else {
                            "active".to_string()
                        }
                    })
                    .collect(),
            ),
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

/// `sys.recorder`: the flight recorder's retained history in long format
/// — one row per (sample, series) pair, so `WHERE series = 'queries'`
/// pulls one time series and `WHERE seq = N` pulls one full sample.
fn sys_recorder() -> VectorTable {
    let names = recorder::series_names();
    let samples = Recorder::global().snapshot();
    let points = samples.len() * names.len();
    let mut seq = Vec::with_capacity(points);
    let mut uptime = Vec::with_capacity(points);
    let mut series = Vec::with_capacity(points);
    let mut value = Vec::with_capacity(points);
    for s in &samples {
        for (n, v) in names.iter().zip(&s.values) {
            seq.push(s.seq as i64);
            uptime.push(s.uptime_ns as i64);
            series.push(n.to_string());
            value.push(*v as i64);
        }
    }
    VectorTable::new()
        .with_column("seq", VColumn::Int(seq))
        .with_column("uptime_ns", VColumn::Int(uptime))
        .with_column("series", VColumn::Str(series))
        .with_column("value", VColumn::Int(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_metrics_matches_snapshot_json_counters() {
        let m = MetricsRegistry::global();
        m.queries.add(5);
        let t = sys_metrics();
        t.validate().unwrap();
        // Every snapshot_json counter appears as a counter row with the
        // same name; values can drift between the two reads, so compare
        // the name sets, not the numbers.
        let json = m.snapshot_json();
        for (name, _) in m.counter_values() {
            assert!(
                (0..t.num_rows()).any(|r| t.value("name", r).unwrap()
                    == crate::value::SqlValue::Str(name.to_string())),
                "{name} missing from sys.metrics"
            );
            assert!(json.contains(&format!("\"{name}\"")), "{name} not in JSON");
        }
        // Stage percentiles present for every stage.
        for stage in Stage::ALL {
            assert!((0..t.num_rows()).any(|r| {
                t.value("kind", r).unwrap() == crate::value::SqlValue::Str("stage_p99_ns".into())
                    && t.value("name", r).unwrap()
                        == crate::value::SqlValue::Str(stage.name().to_string())
            }));
        }
    }

    #[test]
    fn unknown_sys_table_is_a_plan_error() {
        let c = Catalog::new();
        let err = build_sys_table(&c, "sys.nope").unwrap_err();
        assert!(err.to_string().contains("sys.nope"), "{err}");
        assert!(err.to_string().contains("sys.metrics"), "lists options: {err}");
    }

    #[test]
    fn sys_wal_reports_stream_tables() {
        use lidardb_core::PointCloud;
        let dir = std::env::temp_dir().join(format!("lidardb-sys-wal-{}", std::process::id()));
        // A stale sibling WAL (a recycled pid) would replay into the table.
        let remove = || {
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_file(lidardb_core::wal::wal_path_for(&dir));
        };
        remove();
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
        assert_eq!(t.value("total_rows", 0).unwrap(), crate::value::SqlValue::Int(32));
        assert_eq!(t.value("durable_rows", 0).unwrap(), crate::value::SqlValue::Int(32));
        assert_eq!(t.value("backlog_rows", 0).unwrap(), crate::value::SqlValue::Int(0));
        assert_eq!(
            t.value("durability", 0).unwrap(),
            crate::value::SqlValue::Str("always".into())
        );
        remove();
    }

    #[test]
    fn sys_recorder_long_format_round_trips() {
        let r = Recorder::global();
        MetricsRegistry::global().queries.inc();
        r.sample_now();
        let t = sys_recorder();
        t.validate().unwrap();
        assert!(t.num_rows() >= recorder::series_names().len());
        assert!(t.num_rows().is_multiple_of(recorder::series_names().len()));
        assert!((0..t.num_rows()).any(|row| {
            t.value("series", row).unwrap() == crate::value::SqlValue::Str("queries".into())
        }));
    }
}
