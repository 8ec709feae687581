//! One aggregate suite over every storage shape: `COUNT`/`SUM`/`AVG`/
//! `MIN`/`MAX` over a flat table, a streaming table with rows applied past
//! its watermark, and a tiled table with a one-tile resident budget —
//! materialised and streamed, plain scans and spatial joins — against a
//! brute-force oracle over the records. `COUNT`/`MIN`/`MAX` must match in
//! value and type, `SUM`/`AVG` within 1e-12 relative.

use std::sync::{Arc, RwLock};

use lidardb_core::{CancelToken, Durability, PointCloud, TileOptions, TiledCloud};
use lidardb_geom::{Geometry, Point};
use lidardb_las::PointRecord;
use lidardb_sql::catalog::VColumn;
use lidardb_sql::{query, query_streamed, Catalog, RowSink, SqlError, SqlValue, VectorTable};

const SIDE: usize = 40;

/// A 40x40 integer grid. `z` is fractional, `intensity` (u16) spans both
/// sides of 110, `classification` is a u8, and `wave_offset` (u64) is past
/// 2^60 everywhere and past `i64::MAX` on every fourth diagonal, so its
/// MIN needs more than an `f64` and its MAX is a float.
fn records() -> Vec<PointRecord> {
    (0..SIDE * SIDE)
        .map(|i| {
            let (x, y) = (i % SIDE, i / SIDE);
            PointRecord {
                x: x as f64,
                y: y as f64,
                z: (x * 7 + y * 3) as f64 / 8.0 + 0.1 * (i % 7) as f64 - 2.0,
                intensity: ((x * 37 + y * 11) % 250) as u16,
                classification: ((x + 2 * y) % 9) as u8,
                wave_offset: if (x + y) % 4 == 0 {
                    u64::MAX - (x * 1000 + y) as u64
                } else {
                    (1 << 60) + (x * y * 7 + 3) as u64
                },
                ..Default::default()
            }
        })
        .collect()
}

/// A fresh per-process directory, its sibling WAL removed too: a stale
/// one (a recycled pid) would replay old rows into a streaming table.
fn tdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lidardb_sql_agg_{name}_{}", std::process::id()));
    cleanup(std::slice::from_ref(&dir));
    dir
}

/// The records as a flat table (`flat`), a streaming table whose extra
/// rows sit past the watermark (`stream`), and a tiled table that keeps
/// one tile resident (`tiles`), beside point features `feats` where the
/// grid point (11, 10) lies within 1.5 of both (10, 10) and (12, 10).
fn setup(name: &str) -> (Catalog, Vec<std::path::PathBuf>) {
    let recs = records();
    let mut flat = PointCloud::new();
    flat.append_records(&recs).unwrap();

    let tiles_dir = tdir(&format!("{name}_tiles"));
    let opts = TileOptions {
        target_rows: 256,
        ..Default::default()
    };
    assert!(flat.save_tiled(&tiles_dir, &opts).unwrap() > 4);
    let tc = TiledCloud::open(&tiles_dir).unwrap();
    tc.set_resident_budget(1);

    let wal_dir = tdir(&format!("{name}_wal"));
    let mut st = PointCloud::open_ingest(
        &wal_dir,
        Durability::GroupCommit {
            max_batches: 1_000_000,
            max_delay: std::time::Duration::from_secs(3_600),
        },
    )
    .unwrap();
    st.ingest_records(&recs).unwrap();
    st.flush_wal().unwrap();
    // Applied but unacknowledged: no aggregate may see these.
    let ghosts: Vec<PointRecord> = (0..30)
        .map(|i| PointRecord {
            x: 10.0 + i as f64 * 0.5,
            y: 10.0,
            z: 1e6,
            intensity: 249,
            classification: 200,
            wave_offset: 5,
            ..Default::default()
        })
        .collect();
    st.ingest_records(&ghosts).unwrap();

    let feats = VectorTable::new()
        .with_column("id", VColumn::Int(vec![1, 2, 3]))
        .with_column(
            "geom",
            VColumn::Geom(
                [(10.0, 10.0), (12.0, 10.0), (30.0, 20.0)]
                    .map(|(x, y)| Geometry::Point(Point::new(x, y)))
                    .to_vec(),
            ),
        );

    let mut c = Catalog::new();
    c.register_pointcloud("flat", Arc::new(flat));
    c.register_stream("stream", Arc::new(RwLock::new(st)));
    c.register_tiled("tiles", Arc::new(tc));
    c.register_vector("feats", feats);
    (c, vec![tiles_dir, wal_dir])
}

fn cleanup(dirs: &[std::path::PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
        let _ = std::fs::remove_file(lidardb_core::wal::wal_path_for(d));
    }
}

/// The items every statement folds: (aggregate, column; `None` = `*`).
const ITEMS: [(&str, Option<&str>); 16] = [
    ("COUNT", None),
    ("COUNT", Some("z")),
    ("SUM", Some("z")),
    ("AVG", Some("z")),
    ("MIN", Some("z")),
    ("MAX", Some("z")),
    ("SUM", Some("intensity")),
    ("AVG", Some("intensity")),
    ("MIN", Some("intensity")),
    ("MAX", Some("intensity")),
    ("MIN", Some("classification")),
    ("MAX", Some("classification")),
    ("SUM", Some("wave_offset")),
    ("AVG", Some("wave_offset")),
    ("MIN", Some("wave_offset")),
    ("MAX", Some("wave_offset")),
];

fn item_sql(alias: &str) -> String {
    ITEMS
        .iter()
        .map(|(agg, col)| match col {
            None => format!("{agg}(*)"),
            Some(c) => format!("{agg}({alias}{c})"),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Neumaier-compensated sum, so the oracle's own rounding stays far below
/// the tolerance.
fn exact_sum(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for v in vals {
        let t = s + v;
        c += if s.abs() >= v.abs() { (s - t) + v } else { (v - t) + s };
        s = t;
    }
    s + c
}

/// The brute-force answer of one item over the selected records (a
/// joined record appears once per feature it pairs with).
fn oracle(agg: &str, col: Option<&str>, rows: &[&PointRecord]) -> SqlValue {
    let Some(col) = col.filter(|_| agg != "COUNT") else {
        return SqlValue::Int(rows.len() as i64);
    };
    if rows.is_empty() {
        return SqlValue::Null;
    }
    let ints: Vec<u64> = rows
        .iter()
        .map(|r| match col {
            "intensity" => u64::from(r.intensity),
            "classification" => u64::from(r.classification),
            "wave_offset" => r.wave_offset,
            _ => 0,
        })
        .collect();
    let floats: Vec<f64> = match col {
        "z" => rows.iter().map(|r| r.z).collect(),
        _ => ints.iter().map(|&v| v as f64).collect(),
    };
    let typed = |v: u64| i64::try_from(v).map_or(SqlValue::Float(v as f64), SqlValue::Int);
    match (agg, col) {
        ("SUM", _) => SqlValue::Float(exact_sum(floats.into_iter())),
        ("AVG", _) => SqlValue::Float(exact_sum(floats.into_iter()) / rows.len() as f64),
        ("MIN", "z") => SqlValue::Float(floats.into_iter().fold(f64::INFINITY, f64::min)),
        ("MAX", "z") => SqlValue::Float(floats.into_iter().fold(f64::NEG_INFINITY, f64::max)),
        ("MIN", _) => typed(*ints.iter().min().unwrap()),
        ("MAX", _) => typed(*ints.iter().max().unwrap()),
        _ => unreachable!("{agg}"),
    }
}

/// `SUM`/`AVG` within 1e-12 relative; everything else equal in value and
/// type.
fn assert_matches(agg: &str, got: &SqlValue, want: &SqlValue, what: &str) {
    match (got, want) {
        (SqlValue::Float(a), SqlValue::Float(b)) if matches!(agg, "SUM" | "AVG") => {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{what}: {a} vs {b}")
        }
        _ => assert_eq!(got, want, "{what}: value and type"),
    }
}

/// Collects a streamed statement.
#[derive(Default)]
struct Collect {
    columns: Vec<String>,
    rows: Vec<Vec<SqlValue>>,
}

impl RowSink for Collect {
    fn start(&mut self, columns: &[String], _: &CancelToken) -> Result<(), SqlError> {
        self.columns = columns.to_vec();
        Ok(())
    }

    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        self.rows.extend(rows);
        Ok(())
    }
}

/// Run `sql` materialised and streamed; both must agree. Returns the rows.
fn run(c: &Catalog, sql: &str) -> Vec<Vec<SqlValue>> {
    let rs = query(c, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut sink = Collect::default();
    let sum = query_streamed(c, sql, 64, &mut sink).unwrap();
    assert_eq!(sink.columns, rs.columns, "{sql}");
    assert_eq!(sink.rows, rs.rows, "{sql}: streamed == materialised");
    assert_eq!(sum.rows, rs.rows.len(), "{sql}");
    rs.rows
}

fn check(c: &Catalog, sql: &str, selected: &[&PointRecord]) {
    let rows = run(c, sql);
    assert_eq!(rows.len(), 1, "{sql}");
    for ((agg, col), got) in ITEMS.iter().zip(&rows[0]) {
        let what = format!("{agg}({}) in {sql}", col.unwrap_or("*"));
        assert_matches(agg, got, &oracle(agg, *col, selected), &what);
    }
}

/// Which records a filter keeps, and which (record, feature id) pairs.
type Keep = fn(&PointRecord) -> bool;
type KeepPair = fn(&PointRecord, i64) -> bool;

#[test]
fn point_table_aggregates_match_brute_force_on_every_shape() {
    let (c, dirs) = setup("scan");
    let recs = records();
    let filters: [(&str, Keep); 4] = [
        ("", |_| true),
        // A residual: no index answers it.
        ("WHERE x * 2 > y", |r| r.x * 2.0 > r.y),
        // A strict bound pushed down as an inclusive range, then refined.
        ("WHERE intensity > 110", |r| r.intensity > 110),
        ("WHERE x > 1000", |_| false),
    ];
    for table in ["flat", "stream", "tiles"] {
        for (filter, keep) in &filters {
            let selected: Vec<&PointRecord> = recs.iter().filter(|r| keep(r)).collect();
            check(&c, &format!("SELECT {} FROM {table} {filter}", item_sql("")), &selected);
        }
        // The typed fold answered, not the row path.
        let sql = format!("EXPLAIN ANALYZE SELECT COUNT(*), AVG(z) FROM {table} WHERE x * 2 > y");
        let rs = query(&c, &sql).unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        assert!(
            text.iter().any(|l| l.contains("aggregate (typed fold: COUNT(*), AVG(z))")),
            "{table}: {text:#?}"
        );
        assert!(!text.iter().any(|l| l.contains("aggregate + project")), "{text:#?}");
    }
    cleanup(&dirs);
}

#[test]
fn join_aggregates_count_every_pair() {
    let (c, dirs) = setup("join");
    let recs = records();
    let feats = [(1, 10.0, 10.0), (2, 12.0, 10.0), (3, 30.0, 20.0)];
    let near = |r: &PointRecord, (fx, fy): (f64, f64)| (r.x - fx).hypot(r.y - fy) <= 1.5;
    let cases: [(&str, KeepPair); 3] = [
        ("", |_, _| true),
        ("AND p.x * 2 > p.y", |r, _| r.x * 2.0 > r.y),
        ("AND f.id < 3 AND p.intensity > 110", |r, id| id < 3 && r.intensity > 110),
    ];
    for table in ["flat", "stream", "tiles"] {
        for (filter, keep) in &cases {
            let mut pairs: Vec<&PointRecord> = Vec::new();
            for &(id, fx, fy) in &feats {
                pairs.extend(recs.iter().filter(|r| near(r, (fx, fy)) && keep(r, id)));
            }
            let sql = format!(
                "SELECT {} FROM {table} p, feats f \
                 WHERE ST_DWithin(ST_Point(p.x, p.y), f.geom, 1.5) {filter}",
                item_sql("p.")
            );
            check(&c, &sql, &pairs);
        }
        // (11, 10) is near two features: it counts twice.
        let rows = run(
            &c,
            &format!(
                "SELECT COUNT(*), SUM(p.x) FROM {table} p, feats f WHERE \
                 ST_DWithin(ST_Point(p.x, p.y), f.geom, 1.5) AND p.y = 10 AND p.x = 11"
            ),
        );
        assert_eq!(rows[0], [SqlValue::Int(2), SqlValue::Float(22.0)], "{table}");
    }
    cleanup(&dirs);
}

#[test]
fn having_limit_and_empty_inputs_behave_as_on_the_row_path() {
    let (c, dirs) = setup("edges");
    for table in ["flat", "stream", "tiles"] {
        let n = (SIDE * SIDE) as i64;
        let rows = run(&c, &format!("SELECT COUNT(*) AS n FROM {table} HAVING COUNT(*) = {n}"));
        assert_eq!(rows, [[SqlValue::Int(n)]]);
        // A HAVING call that is not an output item is folded too.
        let rows = run(&c, &format!("SELECT COUNT(*) FROM {table} HAVING MAX(z) > 1000"));
        assert!(rows.is_empty(), "{table}: {rows:?}");
        let rows = run(&c, &format!("SELECT COUNT(*), MIN(z) FROM {table} LIMIT 0"));
        assert!(rows.is_empty(), "{table}: {rows:?}");
        // Over no rows: COUNT is 0, the rest NULL, and HAVING still runs.
        let sql = format!("SELECT COUNT(*), SUM(z), MIN(wave_offset) FROM {table} WHERE x > 1000");
        assert_eq!(run(&c, &sql), [[SqlValue::Int(0), SqlValue::Null, SqlValue::Null]]);
        let sql = format!("SELECT COUNT(*) FROM {table} WHERE x > 1000 HAVING COUNT(*) > 0");
        let rows = run(&c, &sql);
        assert!(rows.is_empty(), "{table}: {rows:?}");
        // Arithmetic over folded calls; with ORDER BY the row path answers.
        let rows = run(&c, &format!("SELECT MAX(x) - MIN(x) + 1 AS w FROM {table} ORDER BY w"));
        assert_eq!(rows, [[SqlValue::Float(SIDE as f64)]]);
        let rows = run(&c, &format!("SELECT COUNT(*) / 2, -MIN(intensity) FROM {table}"));
        assert_eq!(rows, [[SqlValue::Float(n as f64 / 2.0), SqlValue::Int(0)]]);
    }
    cleanup(&dirs);
}
