//! SQL over a sealed tiled table: same answers as the flat table, with
//! zone-map tile pruning visible in `EXPLAIN ANALYZE`.

use std::sync::{Arc, RwLock};

use lidardb_core::{CancelToken, Durability, PointCloud, QueryRegistry, TileOptions, TiledCloud};
use lidardb_las::PointRecord;
use lidardb_sql::{query, query_streamed, Catalog, RowSink, SqlError, SqlValue};

/// 100x100 integer grid; classification 6 for x > 50, else 2; z = x/10;
/// the `u64` column `wave_offset` is past `i64::MAX` on the diagonal.
fn grid_records() -> Vec<PointRecord> {
    (0..100)
        .flat_map(|y| {
            (0..100).map(move |x| PointRecord {
                x: x as f64,
                y: y as f64,
                z: x as f64 / 10.0,
                classification: if x > 50 { 6 } else { 2 },
                intensity: 100,
                wave_offset: if x == y { u64::MAX } else { (x * y) as u64 },
                ..Default::default()
            })
        })
        .collect()
}

fn grid_cloud() -> PointCloud {
    let mut pc = PointCloud::new();
    pc.append_records(&grid_records()).unwrap();
    pc
}

fn tdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lidardb_sql_tiled_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One catalog with the same data registered flat (`points`) and tiled
/// (`tiles`), so every query can be answered both ways and compared.
fn setup(name: &str) -> (Catalog, Arc<TiledCloud>) {
    let dir = tdir(name);
    let mut pc = grid_cloud();
    let opts = TileOptions {
        target_rows: 1024,
        ..Default::default()
    };
    let n = pc.save_tiled(&dir, &opts).unwrap();
    assert!(n > 4, "expected several tiles, got {n}");
    let tc = Arc::new(TiledCloud::open(&dir).unwrap());
    let mut c = Catalog::new();
    c.register_pointcloud("points", Arc::new(grid_cloud()));
    c.register_tiled("tiles", Arc::clone(&tc));
    c.register_vector(
        "roads",
        lidardb_sql::VectorTable::new()
            .with_column("id", lidardb_sql::catalog::VColumn::Int(vec![1, 2]))
            .with_column(
                "geom",
                lidardb_sql::catalog::VColumn::Geom(vec![
                    lidardb_geom::Geometry::Point(lidardb_geom::Point::new(50.0, 50.0)),
                    lidardb_geom::Geometry::Point(lidardb_geom::Point::new(12.0, 80.0)),
                ]),
            ),
    );
    (c, tc)
}

fn one_value(c: &Catalog, sql: &str) -> SqlValue {
    let rs = query(c, sql).unwrap();
    assert_eq!(rs.rows.len(), 1);
    rs.rows[0][0].clone()
}

#[test]
fn tiled_answers_match_flat_answers() {
    let (c, _tc) = setup("match");
    for (flat_sql, tiled_sql) in [
        // Spatial pushdown.
        (
            "SELECT COUNT(*) FROM points WHERE \
             ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))",
            "SELECT COUNT(*) FROM tiles WHERE \
             ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))",
        ),
        // Attribute pushdown + residual.
        (
            "SELECT COUNT(*) FROM points WHERE z >= 2 AND z <= 4 AND classification = 2",
            "SELECT COUNT(*) FROM tiles WHERE z >= 2 AND z <= 4 AND classification = 2",
        ),
        // Aggregate over a spatial window.
        (
            "SELECT AVG(z) FROM points WHERE \
             ST_Contains(ST_MakeEnvelope(0, 0, 50, 50), ST_Point(x, y))",
            "SELECT AVG(z) FROM tiles WHERE \
             ST_Contains(ST_MakeEnvelope(0, 0, 50, 50), ST_Point(x, y))",
        ),
        // Full scan, no pushdown at all.
        (
            "SELECT COUNT(*) FROM points",
            "SELECT COUNT(*) FROM tiles",
        ),
        // Spatial join with a point-side residual: the probes cross tile
        // boundaries and the matched rows resolve to their tiles.
        (
            "SELECT SUM(p.x * 1000 + p.y + r.id / 10) FROM points p, roads r WHERE \
             ST_DWithin(ST_Point(p.x, p.y), r.geom, 5) AND p.classification = 2",
            "SELECT SUM(p.x * 1000 + p.y + r.id / 10) FROM tiles p, roads r WHERE \
             ST_DWithin(ST_Point(p.x, p.y), r.geom, 5) AND p.classification = 2",
        ),
    ] {
        let flat = one_value(&c, flat_sql);
        let tiled = one_value(&c, tiled_sql);
        match (&flat, &tiled) {
            (SqlValue::Float(a), SqlValue::Float(b)) => {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{flat_sql}: {a} vs {b}")
            }
            _ => assert_eq!(flat, tiled, "{flat_sql}"),
        }
    }
}

#[test]
fn projected_rows_read_the_right_tile_values() {
    let (c, _tc) = setup("project");
    let rs = query(
        &c,
        "SELECT x, y, z FROM tiles WHERE \
         ST_Contains(ST_MakeEnvelope(7, 7, 9, 9), ST_Point(x, y))",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), 9);
    for row in &rs.rows {
        let (SqlValue::Float(x), SqlValue::Float(z)) = (&row[0], &row[2]) else {
            panic!("x/z should be floats: {row:?}");
        };
        assert!((7.0..=9.0).contains(x));
        assert!((z - x / 10.0).abs() < 1e-12, "z column must come from the same point as x");
    }
}

#[test]
fn explain_analyze_shows_tile_pruning() {
    let (c, tc) = setup("explain");
    let rs = query(
        &c,
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM tiles WHERE \
         ST_Contains(ST_MakeEnvelope(0, 0, 5, 5), ST_Point(x, y))",
    )
    .unwrap();
    let text: String = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            SqlValue::Str(s) => s.clone(),
            other => other.render(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("tile prune"), "no tile prune operator in:\n{text}");
    assert!(text.contains("pruned"), "prune counts missing in:\n{text}");
    // The tiny window must actually skip tiles.
    let pruned_somewhere = (1..tc.num_tiles())
        .any(|k| text.contains(&format!("{k} pruned")));
    assert!(pruned_somewhere, "expected a non-zero pruned count in:\n{text}");
}

#[test]
fn insert_into_a_sealed_tiled_table_is_rejected_read_only() {
    let (c, _tc) = setup("reject");
    let err = query(&c, "INSERT INTO tiles (x, y, z) VALUES (1, 2, 3)")
        .unwrap_err()
        .to_string();
    assert!(err.contains("read-only"), "unexpected INSERT error: {err}");
}

/// Collects a streamed statement; on its first batch it also records
/// whether the statement was still in the query registry.
#[derive(Default)]
struct Collect {
    rows: Vec<Vec<SqlValue>>,
    sizes: Vec<usize>,
    registered_at_first_batch: Option<bool>,
}

impl RowSink for Collect {
    fn start(&mut self, _: &[String], _: &CancelToken) -> Result<(), SqlError> {
        Ok(())
    }

    fn batch(&mut self, rows: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        self.registered_at_first_batch.get_or_insert_with(|| {
            QueryRegistry::global()
                .list()
                .iter()
                .any(|q| q.detail == "stream select tiles")
        });
        self.sizes.push(rows.len());
        self.rows.extend(rows);
        Ok(())
    }
}

#[test]
fn tiled_scans_stream_natively_in_bounded_batches() {
    let (mut c, tc) = setup("stream");
    // The same directory opened eagerly: a flat table in the sealed order.
    c.register_pointcloud("sealed", Arc::new(PointCloud::open_dir(tc.dir()).unwrap()));
    // Small enough that the statement's tiles cannot all stay cached.
    tc.set_resident_budget(1);
    let filter = "WHERE ST_Contains(ST_MakeEnvelope(5, 5, 60, 40), ST_Point(x, y)) \
                  AND classification = 2";
    let flat = query(&c, &format!("SELECT x, y, z FROM sealed {filter}")).unwrap();
    assert!(flat.rows.len() > 1000, "window spans several tiles");

    let mut sink = Collect::default();
    let sum = query_streamed(&c, &format!("SELECT x, y, z FROM tiles {filter}"), 64, &mut sink)
        .unwrap();
    assert_eq!(sink.rows, flat.rows, "streamed rows, in order");
    assert_eq!(sum.rows, flat.rows.len());
    assert_eq!(sum.batches, flat.rows.len().div_ceil(64));
    assert_eq!(
        sink.registered_at_first_batch,
        Some(true),
        "the registry ticket is held across delivery"
    );
    assert!(
        !QueryRegistry::global()
            .list()
            .iter()
            .any(|q| q.detail == "stream select tiles"),
        "and released when the statement ends"
    );

    // LIMIT stops early: two full batches and a partial one, and the tile
    // loop never reaches the tiles past the limit.
    let loads = tc.tile_loads();
    let mut sink = Collect::default();
    let sum = query_streamed(
        &c,
        &format!("SELECT x, y, z FROM tiles {filter} LIMIT 150"),
        64,
        &mut sink,
    )
    .unwrap();
    assert_eq!((sum.rows, sum.batches), (150, 3));
    assert_eq!(sink.rows[..], flat.rows[..150]);
    let limited = tc.tile_loads() - loads;
    let loads = tc.tile_loads();
    query_streamed(
        &c,
        &format!("SELECT x, y, z FROM tiles {filter}"),
        64,
        &mut Collect::default(),
    )
    .unwrap();
    let full = tc.tile_loads() - loads;
    assert!(limited < full, "LIMIT loaded {limited} tiles, the full stream {full}");
}

#[test]
fn streamed_rows_equal_materialised_rows_on_every_storage_shape() {
    let (mut c, _tc) = setup("stream_eq");
    // A streaming table: the grid committed, then rows inside every window
    // applied past the watermark, which no read may see.
    let dir = tdir("stream_eq_wal");
    let _ = std::fs::remove_file(lidardb_core::wal::wal_path_for(&dir));
    let mut st = PointCloud::open_ingest(
        &dir,
        Durability::GroupCommit {
            max_batches: 1_000_000,
            max_delay: std::time::Duration::from_secs(3_600),
        },
    )
    .unwrap();
    st.ingest_records(&grid_records()).unwrap();
    st.flush_wal().unwrap();
    let ghosts: Vec<PointRecord> = (0..50)
        .map(|i| PointRecord {
            x: 10.5 + i as f64,
            y: 10.5,
            ..Default::default()
        })
        .collect();
    st.ingest_records(&ghosts).unwrap();
    c.register_stream("stream", Arc::new(RwLock::new(st)));

    let window = "ST_Contains(ST_MakeEnvelope(5, 5, 60, 40), ST_Point(x, y))";
    let queries = [
        format!("SELECT x, y, z FROM {{t}} WHERE {window}"),
        format!("SELECT classification, intensity, wave_offset FROM {{t}} WHERE {window}"),
        format!("SELECT x + 1, 7, 'k' FROM {{t}} WHERE {window}"),
        // `x * 2 > y` is a residual: no index answers it.
        format!(
            "SELECT x, classification, x * 2 AS d, 'k', z FROM {{t}} \
             WHERE {window} AND x * 2 > y"
        ),
        format!("SELECT * FROM {{t}} WHERE {window} LIMIT 100"),
        format!("SELECT x, y FROM {{t}} WHERE {window} LIMIT 128"),
        "SELECT x, y FROM {t} LIMIT 70".to_string(),
        "SELECT x, y FROM {t} WHERE \
         ST_Contains(ST_MakeEnvelope(500, 500, 600, 600), ST_Point(x, y))"
            .to_string(),
    ];
    for template in &queries {
        let flat = query(&c, &template.replace("{t}", "points")).unwrap().rows;
        for table in ["points", "stream", "tiles"] {
            let sql = template.replace("{t}", table);
            let want = query(&c, &sql).unwrap().rows;
            let mut sink = Collect::default();
            let sum = query_streamed(&c, &sql, 64, &mut sink).unwrap();
            assert_eq!(sink.rows, want, "{sql}: streamed rows, in order");
            assert_eq!(sum.rows, want.len(), "{sql}");
            assert_eq!(sum.batches, want.len().div_ceil(64), "{sql}");
            let (last, full) = sink.sizes.split_last().unwrap_or((&0, &[]));
            assert!(full.iter().all(|&n| n == 64) && *last <= 64, "{sql}: {:?}", sink.sizes);
            if table == "stream" {
                assert_eq!(want, flat, "{sql}: rows past the watermark stay invisible");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(lidardb_core::wal::wal_path_for(&dir));
}

#[test]
fn select_star_expands_tiled_columns() {
    let (c, _tc) = setup("star");
    let rs = query(
        &c,
        "SELECT * FROM tiles WHERE \
         ST_Contains(ST_MakeEnvelope(3, 3, 3, 3), ST_Point(x, y))",
    )
    .unwrap();
    assert_eq!(rs.columns.len(), 26);
    assert_eq!(rs.rows.len(), 1);
}
