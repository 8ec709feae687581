//! One aggregate suite over every storage shape: `COUNT`/`SUM`/`AVG`/
//! `MIN`/`MAX` over a flat table, a streaming table with rows applied past
//! its watermark, and a tiled table with a one-tile resident budget —
//! materialised and streamed, plain scans and spatial joins — against the
//! brute-force [`Model`]. `COUNT`/`MIN`/`MAX` must match in value and
//! type, `SUM`/`AVG` within 1e-12 relative.

use std::sync::{Arc, RwLock};

use lidardb_core::{
    Aggregate, CancelToken, Durability, PointCloud, SpatialPredicate, TileOptions, TiledCloud,
};
use lidardb_geom::{Envelope, Geometry, Point, Polygon};
use lidardb_las::PointRecord;
use lidardb_sql::catalog::VColumn;
use lidardb_sql::{query, query_streamed, Catalog, RowSink, SqlError, SqlValue, VectorTable};
use lidardb_test_support::{Model, ScratchDir, Value};

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

/// Rows applied to the streaming table but never acknowledged: no
/// aggregate may see these.
fn ghosts() -> Vec<PointRecord> {
    (0..30)
        .map(|i| PointRecord {
            x: 10.0 + i as f64 * 0.5,
            y: 10.0,
            z: 1e6,
            intensity: 249,
            classification: 200,
            wave_offset: 5,
            ..Default::default()
        })
        .collect()
}

/// The records as a flat table (`flat`), a streaming table whose ghost
/// rows sit past the watermark (`stream`), and a tiled table that keeps
/// one tile resident (`tiles`), beside point features `feats` where the
/// grid point (11, 10) lies within 1.5 of both (10, 10) and (12, 10).
/// One model answers for all three: the records, then the ghosts past its
/// watermark.
fn setup(name: &str) -> (Catalog, Model, [ScratchDir; 2]) {
    let recs = records();
    let mut flat = PointCloud::new();
    flat.append_records(&recs).unwrap();

    let tiles_dir = ScratchDir::vacant(&format!("sql_agg_{name}_tiles"));
    let opts = TileOptions {
        target_rows: 256,
        ..Default::default()
    };
    assert!(flat.save_tiled(&tiles_dir, &opts).unwrap() > 4);
    let tc = TiledCloud::open(&tiles_dir).unwrap();
    tc.set_resident_budget(1);

    let wal_dir = ScratchDir::vacant(&format!("sql_agg_{name}_wal"));
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
    st.ingest_records(&ghosts()).unwrap();

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
    let model = Model::new([recs, ghosts()].concat()).with_visible(SIDE * SIDE);
    (c, model, [tiles_dir, wal_dir])
}

/// The items every statement folds: (aggregate, column; `None` = `*`).
const ITEMS: [(Aggregate, Option<&str>); 16] = [
    (Aggregate::Count, None),
    (Aggregate::Count, Some("z")),
    (Aggregate::Sum, Some("z")),
    (Aggregate::Avg, Some("z")),
    (Aggregate::Min, Some("z")),
    (Aggregate::Max, Some("z")),
    (Aggregate::Sum, Some("intensity")),
    (Aggregate::Avg, Some("intensity")),
    (Aggregate::Min, Some("intensity")),
    (Aggregate::Max, Some("intensity")),
    (Aggregate::Min, Some("classification")),
    (Aggregate::Max, Some("classification")),
    (Aggregate::Sum, Some("wave_offset")),
    (Aggregate::Avg, Some("wave_offset")),
    (Aggregate::Min, Some("wave_offset")),
    (Aggregate::Max, Some("wave_offset")),
];

fn item_sql(alias: &str) -> String {
    ITEMS
        .iter()
        .map(|(agg, col)| {
            let agg = format!("{agg:?}").to_uppercase();
            match col {
                None => format!("{agg}(*)"),
                Some(c) => format!("{agg}({alias}{c})"),
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The model's answer as SQL types it: an integer that fits an `i64` as
/// `Int` (a `u64` past `i64::MAX` as `Float`), a float as `Float`, no
/// answer as `NULL`.
fn sql_value(v: Option<Value>) -> SqlValue {
    match v {
        None => SqlValue::Null,
        Some(Value::Int(i)) => i64::try_from(i).map_or(SqlValue::Float(i as f64), SqlValue::Int),
        Some(Value::Float(f)) => SqlValue::Float(f),
    }
}

/// `SUM`/`AVG` within 1e-12 relative; everything else equal in value and
/// type.
fn assert_matches(agg: Aggregate, got: &SqlValue, want: &SqlValue, what: &str) {
    match (got, want) {
        (SqlValue::Float(a), SqlValue::Float(b))
            if matches!(agg, Aggregate::Sum | Aggregate::Avg) =>
        {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                "{what}: {a} vs {b}"
            )
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

/// Every item of `sql` against the model over the rows `ids` (a joined
/// row listed once per feature it pairs with).
fn check(c: &Catalog, sql: &str, model: &Model, ids: &[usize]) {
    let rows = run(c, sql);
    assert_eq!(rows.len(), 1, "{sql}");
    for ((agg, col), got) in ITEMS.iter().zip(&rows[0]) {
        let what = format!("{agg:?}({}) in {sql}", col.unwrap_or("*"));
        // COUNT(*) reads no column.
        let want = sql_value(model.aggregate(ids, col.unwrap_or("x"), *agg));
        assert_matches(*agg, got, &want, &what);
    }
}

/// The residual part of a filter no model predicate states, on a record
/// and (in a join) the feature id it pairs with.
type Keep = fn(&PointRecord) -> bool;
type KeepPair = fn(&PointRecord, i64) -> bool;

/// The model's rows inside `pred` that `keep` keeps.
fn model_rows(
    model: &Model,
    pred: Option<&SpatialPredicate>,
    keep: impl Fn(&PointRecord) -> bool,
) -> Vec<usize> {
    let mut ids = model.select(pred, &[]);
    ids.retain(|&id| keep(model.record(id)));
    ids
}

#[test]
fn point_table_aggregates_match_brute_force_on_every_shape() {
    let (c, model, _dirs) = setup("scan");
    // A window whose four edges run through grid points (and the ghosts).
    let window = Envelope::new(5.0, 5.0, 20.0, 12.0).unwrap();
    let within = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
    let on_window = "WHERE ST_Within(ST_Point(x, y), ST_MakeEnvelope(5, 5, 20, 12))";
    let filters: [(&str, Option<&SpatialPredicate>, Keep); 5] = [
        ("", None, |_| true),
        // A residual: no index answers it.
        ("WHERE x * 2 > y", None, |r| r.x * 2.0 > r.y),
        // A strict bound pushed down as an inclusive range, then refined.
        ("WHERE intensity > 110", None, |r| r.intensity > 110),
        ("WHERE x > 1000", None, |r| r.x > 1000.0),
        // On-edge points count: the window is closed.
        (on_window, Some(&within), |_| true),
    ];
    for table in ["flat", "stream", "tiles"] {
        for (filter, pred, keep) in &filters {
            let ids = model_rows(&model, *pred, keep);
            let sql = format!("SELECT {} FROM {table} {filter}", item_sql(""));
            check(&c, &sql, &model, &ids);
        }
        // The typed fold answered, not the row path.
        let sql = format!("EXPLAIN ANALYZE SELECT COUNT(*), AVG(z) FROM {table} WHERE x * 2 > y");
        let rs = query(&c, &sql).unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].render()).collect();
        assert!(
            text.iter()
                .any(|l| l.contains("aggregate (COUNT(*), AVG(z))")),
            "{table}: {text:#?}"
        );
        assert!(!text.iter().any(|l| l.contains("project")), "{text:#?}");
    }
}

#[test]
fn join_aggregates_count_every_pair() {
    let (c, model, _dirs) = setup("join");
    let feats = [(1, 10.0, 10.0), (2, 12.0, 10.0), (3, 30.0, 20.0)];
    let cases: [(&str, KeepPair); 3] = [
        ("", |_, _| true),
        ("AND p.x * 2 > p.y", |r, _| r.x * 2.0 > r.y),
        ("AND f.id < 3 AND p.intensity > 110", |r, id| {
            id < 3 && r.intensity > 110
        }),
    ];
    for table in ["flat", "stream", "tiles"] {
        for (filter, keep) in &cases {
            let mut pairs = Vec::new();
            for &(id, fx, fy) in &feats {
                let near = SpatialPredicate::DWithin(Geometry::Point(Point::new(fx, fy)), 1.5);
                pairs.extend(model_rows(&model, Some(&near), |r| keep(r, id)));
            }
            let sql = format!(
                "SELECT {} FROM {table} p, feats f \
                 WHERE ST_DWithin(ST_Point(p.x, p.y), f.geom, 1.5) {filter}",
                item_sql("p.")
            );
            check(&c, &sql, &model, &pairs);
        }
        // (11, 10) is near two features: it counts twice.
        let rows = run(
            &c,
            &format!(
                "SELECT COUNT(*), SUM(p.x) FROM {table} p, feats f WHERE \
                 ST_DWithin(ST_Point(p.x, p.y), f.geom, 1.5) AND p.y = 10 AND p.x = 11"
            ),
        );
        assert_eq!(
            rows[0],
            [SqlValue::Int(2), SqlValue::Float(22.0)],
            "{table}"
        );
    }
}

#[test]
fn having_limit_and_empty_inputs_behave_as_on_the_row_path() {
    let (c, _model, _dirs) = setup("edges");
    for table in ["flat", "stream", "tiles"] {
        let n = (SIDE * SIDE) as i64;
        let rows = run(
            &c,
            &format!("SELECT COUNT(*) AS n FROM {table} HAVING COUNT(*) = {n}"),
        );
        assert_eq!(rows, [[SqlValue::Int(n)]]);
        // A HAVING call that is not an output item is folded too.
        let rows = run(
            &c,
            &format!("SELECT COUNT(*) FROM {table} HAVING MAX(z) > 1000"),
        );
        assert!(rows.is_empty(), "{table}: {rows:?}");
        let rows = run(&c, &format!("SELECT COUNT(*), MIN(z) FROM {table} LIMIT 0"));
        assert!(rows.is_empty(), "{table}: {rows:?}");
        // Over no rows: COUNT is 0, the rest NULL, and HAVING still runs.
        let sql = format!("SELECT COUNT(*), SUM(z), MIN(wave_offset) FROM {table} WHERE x > 1000");
        assert_eq!(
            run(&c, &sql),
            [[SqlValue::Int(0), SqlValue::Null, SqlValue::Null]]
        );
        let sql = format!("SELECT COUNT(*) FROM {table} WHERE x > 1000 HAVING COUNT(*) > 0");
        let rows = run(&c, &sql);
        assert!(rows.is_empty(), "{table}: {rows:?}");
        // Arithmetic over folded calls; with ORDER BY the row path answers.
        let rows = run(
            &c,
            &format!("SELECT MAX(x) - MIN(x) + 1 AS w FROM {table} ORDER BY w"),
        );
        assert_eq!(rows, [[SqlValue::Float(SIDE as f64)]]);
        let rows = run(
            &c,
            &format!("SELECT COUNT(*) / 2, -MIN(intensity) FROM {table}"),
        );
        assert_eq!(rows, [[SqlValue::Float(n as f64 / 2.0), SqlValue::Int(0)]]);
    }
}

/// The grouped items: (aggregate, column; `None` = `*`).
const GROUPED: [(Aggregate, Option<&str>); 9] = [
    (Aggregate::Count, None),
    (Aggregate::Sum, Some("z")),
    (Aggregate::Avg, Some("z")),
    (Aggregate::Min, Some("z")),
    (Aggregate::Max, Some("z")),
    (Aggregate::Sum, Some("intensity")),
    (Aggregate::Avg, Some("intensity")),
    (Aggregate::Min, Some("intensity")),
    (Aggregate::Max, Some("intensity")),
];

/// Each key's expected row, keys ascending: the key, then every grouped
/// item of the model over `ids`.
fn model_groups(model: &Model, ids: &[usize]) -> Vec<(i128, Vec<SqlValue>)> {
    let column = |(agg, col): &(Aggregate, Option<&str>)| {
        model.group_by(ids, "classification", col.unwrap_or("x"), *agg)
    };
    let columns: Vec<_> = GROUPED.iter().map(column).collect();
    let keys = columns[0].keys().copied();
    (keys.map(|k| {
        let row = columns.iter().map(|c| sql_value(c[&k]));
        (
            k,
            [sql_value(Some(Value::Int(k)))]
                .into_iter()
                .chain(row)
                .collect(),
        )
    }))
    .collect()
}

/// `got` row by row against `want`: the key equal, every item as
/// [`assert_matches`] has it.
fn assert_rows(got: &[Vec<SqlValue>], want: &[&Vec<SqlValue>], sql: &str) {
    assert_eq!(got.len(), want.len(), "{sql}: {got:?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g[0], w[0], "{sql}: key");
        let aggs = GROUPED.iter().map(|(agg, _)| agg);
        for ((agg, g), w) in aggs.zip(&g[1..]).zip(&w[1..]) {
            assert_matches(*agg, g, w, sql);
        }
    }
}

/// Random windows grouped by `classification` with a residual no index
/// answers, optional `HAVING`, `ORDER BY`, `LIMIT` and `DISTINCT`, on
/// every storage shape, against the model grouped by the same key.
#[test]
fn grouped_statements_match_the_model_on_every_shape() {
    let (c, model, _dirs) = setup("grouped");
    let config = proptest::test_runner::ProptestConfig::with_cases(24);
    proptest::test_runner::run("grouped_statements", &config, |rng| {
        let (x0, y0) = (rng.below(30) as f64, rng.below(30) as f64);
        let (x1, y1) = (
            x0 + 1.0 + rng.below(20) as f64,
            y0 + 1.0 + rng.below(20) as f64,
        );
        let bound = rng.below(64) as f64 / 8.0 - 2.0;
        let having = rng.next_bool().then(|| rng.below(40));
        let order = ["", " ORDER BY classification", " ORDER BY 1 DESC"][rng.below(3) as usize];
        let limit = rng.next_bool().then(|| rng.below(6));
        let distinct = if rng.next_bool() { "DISTINCT " } else { "" };

        let window = Envelope::new(x0, y0, x1, y1).unwrap();
        let within = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
        let ids = model_rows(&model, Some(&within), |r| r.z + 0.0 > bound);
        let mut want = model_groups(&model, &ids);
        want.retain(|(_, row)| {
            having.is_none_or(|k| {
                row[1]
                    .compare(&SqlValue::Int(k as i64))
                    .is_some_and(|o| o.is_gt())
            })
        });
        if order.ends_with("DESC") {
            want.reverse();
        }
        let items: Vec<String> = (GROUPED.iter())
            .map(|(agg, col)| {
                format!(
                    "{}({})",
                    format!("{agg:?}").to_uppercase(),
                    col.unwrap_or("*")
                )
            })
            .collect();
        for table in ["flat", "stream", "tiles"] {
            let mut sql = format!(
                "SELECT {distinct}classification, {} FROM {table} WHERE \
                 ST_Within(ST_Point(x, y), ST_MakeEnvelope({x0}, {y0}, {x1}, {y1})) \
                 AND z + 0 > {bound} GROUP BY classification",
                items.join(", ")
            );
            if let Some(k) = having {
                sql += &format!(" HAVING COUNT(*) > {k}");
            }
            sql += order;
            if let Some(l) = limit {
                sql += &format!(" LIMIT {l}");
            }
            let mut got = run(&c, &sql);
            let keep = limit.map_or(want.len(), |l| want.len().min(l as usize));
            if order.is_empty() {
                // Groups come in order of first appearance, which a tiled
                // table's order changes: compare each group with its key's.
                got.sort_by(|a, b| a[0].compare(&b[0]).unwrap());
                let by_key = |row: &Vec<SqlValue>| want.iter().find(|(_, w)| w[0] == row[0]);
                let expected: Vec<_> = got
                    .iter()
                    .filter_map(|r| by_key(r).map(|(_, w)| w))
                    .collect();
                assert_eq!(got.len(), keep, "{sql}");
                assert_rows(&got, &expected, &sql);
            } else {
                let expected: Vec<_> = want.iter().take(keep).map(|(_, w)| w).collect();
                assert_rows(&got, &expected, &sql);
            }
        }
        Ok(())
    });
}

/// `GROUP BY` a feature column over `ST_Contains`: zones share a label and
/// overlap, so a point counts once per zone that holds it, and zones of
/// one label form one group.
#[test]
fn join_groups_by_a_feature_column_count_every_pair() {
    let (mut c, model, _dirs) = setup("join_grouped");
    let zones = [
        ("wet", (2.0, 3.0, 14.0, 9.0)),
        ("dry", (10.0, 5.0, 25.0, 20.0)),
        ("wet", (20.0, 18.0, 36.0, 30.0)),
    ];
    let rect = |&(x0, y0, x1, y1): &(f64, f64, f64, f64)| {
        Geometry::Polygon(Polygon::rectangle(&Envelope::new(x0, y0, x1, y1).unwrap()))
    };
    c.register_vector(
        "zones",
        VectorTable::new()
            .with_column(
                "label",
                VColumn::Str(zones.map(|z| z.0.to_string()).to_vec()),
            )
            .with_column(
                "geom",
                VColumn::Geom(zones.iter().map(|z| rect(&z.1)).collect()),
            ),
    );
    // The brute-force pairing: every (zone, point) the exact predicate holds.
    let mut pairs: Vec<(&str, usize)> = Vec::new();
    for (label, bounds) in &zones {
        let within = SpatialPredicate::Within(rect(bounds));
        pairs.extend(
            model
                .select(Some(&within), &[])
                .into_iter()
                .map(|id| (*label, id)),
        );
    }
    for table in ["flat", "stream", "tiles"] {
        let sql = format!(
            "SELECT z.label, COUNT(*), SUM(p.z), AVG(p.z), MIN(p.z), MAX(p.z) \
             FROM {table} p, zones z WHERE ST_Contains(z.geom, ST_Point(p.x, p.y)) \
             GROUP BY z.label ORDER BY z.label"
        );
        let got = run(&c, &sql);
        assert_eq!(got.len(), 2, "{sql}");
        for (row, label) in got.iter().zip(["dry", "wet"]) {
            assert_eq!(row[0], SqlValue::Str(label.into()), "{sql}");
            let ids: Vec<usize> = (pairs.iter())
                .filter(|(l, _)| *l == label)
                .map(|&(_, id)| id)
                .collect();
            let aggs = [
                Aggregate::Count,
                Aggregate::Sum,
                Aggregate::Avg,
                Aggregate::Min,
                Aggregate::Max,
            ];
            for (agg, got) in aggs.iter().zip(&row[1..]) {
                let want = sql_value(model.aggregate(&ids, "z", *agg));
                assert_matches(*agg, got, &want, &sql);
            }
        }
    }
}
