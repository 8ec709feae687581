//! End-to-end SQL tests over a real point cloud and vector tables.

use std::sync::Arc;

use lidardb_core::PointCloud;
use lidardb_geom::{Geometry, LineString, Point, Polygon};
use lidardb_las::PointRecord;
use lidardb_sql::catalog::VColumn;
use lidardb_sql::{query, Catalog, ResultSet, SqlError, SqlValue, VectorTable};
use lidardb_test_support::ScratchDir;

/// 100x100 integer grid; classification 6 for x > 50, else 2; z = x/10.
fn setup() -> Catalog {
    let mut pc = PointCloud::new();
    let recs: Vec<PointRecord> = (0..100)
        .flat_map(|y| {
            (0..100).map(move |x| PointRecord {
                x: x as f64,
                y: y as f64,
                z: x as f64 / 10.0,
                classification: if x > 50 { 6 } else { 2 },
                intensity: 100,
                ..Default::default()
            })
        })
        .collect();
    pc.append_records(&recs).unwrap();

    let roads = VectorTable::new()
        .with_column("id", VColumn::Int(vec![1, 2]))
        .with_column(
            "class",
            VColumn::Str(vec!["motorway".into(), "residential".into()]),
        )
        .with_column(
            "geom",
            VColumn::Geom(vec![
                Geometry::LineString(
                    LineString::new(vec![Point::new(0.0, 50.0), Point::new(99.0, 50.0)]).unwrap(),
                ),
                Geometry::LineString(
                    LineString::new(vec![Point::new(20.0, 0.0), Point::new(20.0, 99.0)]).unwrap(),
                ),
            ]),
        );

    let zones = VectorTable::new()
        .with_column("id", VColumn::Int(vec![10]))
        .with_column("code", VColumn::Int(vec![12210]))
        .with_column(
            "geom",
            VColumn::Geom(vec![Geometry::Polygon(
                Polygon::from_exterior(vec![
                    Point::new(0.0, 45.0),
                    Point::new(99.0, 45.0),
                    Point::new(99.0, 55.0),
                    Point::new(0.0, 55.0),
                ])
                .unwrap(),
            )]),
        );

    let mut c = Catalog::new();
    c.register_pointcloud("points", Arc::new(pc));
    c.register_vector("roads", roads);
    c.register_vector("ua", zones);
    c
}

#[test]
fn count_points_in_region() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))",
    )
    .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(11 * 11));
    // The trace shows the two-step engine ran.
    assert!(rs
        .trace
        .iter()
        .any(|t| t.operator.contains("imprint filter")));
}

#[test]
fn catalog_parallelism_yields_identical_results() {
    let sqls = [
        "SELECT COUNT(*) FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))",
        "SELECT x, y, z FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(40, 0, 60, 99), ST_Point(x, y)) \
         AND classification = 6 ORDER BY y, x LIMIT 50",
        "SELECT p.x, p.y, r.class FROM points p, roads r WHERE \
         ST_DWithin(ST_Point(p.x, p.y), r.geom, 1.5) \
         AND r.class = 'motorway' ORDER BY p.x, p.y LIMIT 40",
    ];
    let mut serial = setup();
    serial.set_parallelism(lidardb_core::Parallelism::Serial);
    let mut parallel = setup();
    parallel.set_parallelism(lidardb_core::Parallelism::Threads(2));
    assert!(matches!(
        parallel.parallelism(),
        lidardb_core::Parallelism::Threads(2)
    ));
    for sql in sqls {
        let a = query(&serial, sql).unwrap();
        let b = query(&parallel, sql).unwrap();
        assert_eq!(a.columns, b.columns, "{sql}");
        assert_eq!(a.rows, b.rows, "{sql}");
    }
}

#[test]
fn thematic_and_spatial_combined() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(40, 0, 60, 99), ST_Point(x, y)) \
         AND classification = 6",
    )
    .unwrap();
    // x in 51..=60 -> 10 columns x 100 rows.
    assert_eq!(rs.rows[0][0], SqlValue::Int(1000));
}

#[test]
fn aggregates_and_group_by() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT classification, COUNT(*) AS n, AVG(z) AS mean_z FROM points \
         GROUP BY classification ORDER BY n DESC",
    )
    .unwrap();
    assert_eq!(rs.columns, vec!["classification", "n", "mean_z"]);
    assert_eq!(rs.rows.len(), 2);
    // Class 2 (x 0..=50): 51 cols -> majority group first.
    assert_eq!(rs.rows[0][0], SqlValue::Int(2));
    assert_eq!(rs.rows[0][1], SqlValue::Int(5100));
    assert_eq!(rs.rows[1][1], SqlValue::Int(4900));
    // AVG z of class 2 = avg(x in 0..=50)/10 = 2.5.
    assert_eq!(rs.rows[0][2], SqlValue::Float(2.5));
}

#[test]
fn select_star_projection() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT * FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(0, 0, 1, 0), ST_Point(x, y)) LIMIT 5",
    )
    .unwrap();
    assert_eq!(rs.columns.len(), 26);
    assert_eq!(rs.rows.len(), 2); // (0,0) and (1,0)
}

#[test]
fn roads_intersecting_region() {
    let c = setup();
    // Scenario 1: "select all roads that intersect a given region".
    let rs = query(
        &c,
        "SELECT id, class FROM roads WHERE \
         ST_Intersects(geom, ST_MakeEnvelope(0, 40, 99, 60))",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), 2, "both roads cross the band");
    let rs = query(
        &c,
        "SELECT id FROM roads WHERE \
         ST_Intersects(geom, ST_MakeEnvelope(15, 60, 25, 70))",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), 1, "only the vertical road");
    assert_eq!(rs.rows[0][0], SqlValue::Int(2));
}

#[test]
fn scenario2_points_near_fast_transit_road() {
    let c = setup();
    // "select all LIDAR points near a fast transit road".
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points p, roads r WHERE \
         ST_DWithin(ST_Point(p.x, p.y), r.geom, 2) AND r.class = 'motorway'",
    )
    .unwrap();
    // y in 48..=52 -> 5 rows x 100 cols.
    assert_eq!(rs.rows[0][0], SqlValue::Int(500));
    assert!(rs.trace.iter().any(|t| t.operator.contains("spatial join")));
}

/// `EXPLAIN ANALYZE` of a spatial join names the layers its probes ran:
/// under the join line come the probes' summed imprint filter, bbox scan
/// and grid refinement, the last with its exact point tests.
#[test]
fn explain_analyze_join_shows_the_refine_layer() {
    let c = setup();
    let rs = query(
        &c,
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM points p, ua u WHERE \
         ST_DWithin(ST_Point(p.x, p.y), u.geom, 2.5) AND u.code = 12210",
    )
    .unwrap();
    let ops: Vec<&str> = rs.trace.iter().map(|t| t.operator.as_str()).collect();
    let join = ops
        .iter()
        .position(|op| op.starts_with("spatial join (1 probes)"));
    let join = join.unwrap_or_else(|| panic!("no join line in {ops:?}"));
    let under = &rs.trace[join + 1..];
    assert!(
        under.iter().any(|t| t.operator == "  imprint filter"),
        "{ops:?}"
    );
    assert!(
        under.iter().any(|t| t.operator == "  exact bbox scan"),
        "{ops:?}"
    );
    let refine = under
        .iter()
        .find(|t| t.operator.starts_with("  grid refinement"))
        .unwrap_or_else(|| panic!("no refine line in {ops:?}"));
    let tests: usize = refine
        .operator
        .rsplit_once(", ")
        .and_then(|(_, tail)| tail.strip_suffix(" exact tests)"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no exact test count in {:?}", refine.operator));
    assert!(tests > 0, "{:?}", refine.operator);
    // The refine line's rows are the join's: y in 43..=57 -> 15 x 100.
    assert_eq!(refine.rows, 1500);
    assert_eq!(rs.trace[join].rows, 1500);
    let text: String = rs.rows.iter().map(|r| r[0].render() + "\n").collect();
    assert!(text.contains("grid refinement"), "{text}");
}

/// `EXPLAIN ANALYZE` names the filter's band table and the refinement
/// grid: a join to a chevron fast-transit corridor (like the scene's
/// motorway zone) masks by x-bands and lays a grid of square cells, and
/// returns the points the exact predicate accepts; a pure-bbox viewport
/// builds neither.
#[test]
fn explain_analyze_names_the_band_table_and_grid() {
    let mut c = setup();
    let centre = LineString::new(vec![
        Point::new(0.0, 40.0),
        Point::new(50.0, 60.0),
        Point::new(99.0, 45.0),
    ])
    .unwrap();
    let corridor = Geometry::Polygon(lidardb_geom::buffer_polyline(&centre, 3.0).unwrap());
    let expect = (0..100)
        .flat_map(|y| (0..100).map(move |x| Point::new(x as f64, y as f64)))
        .filter(|p| lidardb_geom::dwithin_point(&corridor, p, 2.5))
        .count();
    let zones = VectorTable::new()
        .with_column("code", VColumn::Int(vec![12210]))
        .with_column("geom", VColumn::Geom(vec![corridor]));
    c.register_vector("chevron", zones);
    let sql = "SELECT COUNT(*) FROM points p, chevron u WHERE \
               ST_DWithin(ST_Point(p.x, p.y), u.geom, 2.5) AND u.code = 12210";
    assert_eq!(
        query(&c, sql).unwrap().rows[0][0],
        SqlValue::Int(expect as i64)
    );
    let rs = query(&c, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let ops: Vec<&str> = rs.trace.iter().map(|t| t.operator.as_str()).collect();
    let scan = ops.iter().find(|op| op.starts_with("  exact bbox scan"));
    let scan = scan.unwrap_or_else(|| panic!("no filter line in {ops:?}"));
    assert!(
        scan.starts_with("  exact bbox scan (band table: "),
        "{scan}"
    );
    assert!(scan.ends_with(" x-bands)"), "{scan}");
    let grid = ops.iter().find(|op| op.starts_with("  grid refinement ("));
    let grid = grid.unwrap_or_else(|| panic!("no refine line in {ops:?}"));
    let dims = grid["  grid refinement (".len()..]
        .split_once(" grid, ")
        .map(|(d, _)| d);
    let (nx, ny) = dims.and_then(|d| d.split_once('x')).expect("an nx×ny grid");
    let (nx, ny): (usize, usize) = (nx.parse().unwrap(), ny.parse().unwrap());
    assert!(nx > 2 * ny, "cells are square over a wide envelope: {grid}");

    let viewport = "EXPLAIN ANALYZE SELECT COUNT(*) FROM points WHERE \
                    ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))";
    let rs = query(&c, viewport).unwrap();
    let ops: Vec<&str> = rs.trace.iter().map(|t| t.operator.as_str()).collect();
    assert!(ops.contains(&"exact bbox scan"), "{ops:?}");
    assert!(
        !ops.iter()
            .any(|op| op.contains("band table") || op.contains(" grid, ")),
        "{ops:?}"
    );
}

#[test]
fn scenario2_average_elevation_near_road() {
    let c = setup();
    // "compute the average elevation of the LIDAR points near ...".
    let rs = query(
        &c,
        "SELECT AVG(p.z) AS elev FROM points p, roads r WHERE \
         ST_DWithin(ST_Point(p.x, p.y), r.geom, 2) AND r.class = 'motorway'",
    )
    .unwrap();
    // All x columns are included, avg z = avg(0..=99)/10 = 4.95.
    match &rs.rows[0][0] {
        SqlValue::Float(v) => assert!((v - 4.95).abs() < 1e-9, "{v}"),
        other => panic!("wrong type {other:?}"),
    }
}

#[test]
fn join_with_zone_table_contains() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points p, ua z WHERE \
         ST_Contains(z.geom, ST_Point(p.x, p.y)) AND z.code = 12210",
    )
    .unwrap();
    // y in 45..=55 -> 11 rows x 100 cols.
    assert_eq!(rs.rows[0][0], SqlValue::Int(1100));
}

#[test]
fn explain_returns_plan() {
    let c = setup();
    let rs = query(
        &c,
        "EXPLAIN SELECT COUNT(*) FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(0, 0, 10, 10), ST_Point(x, y))",
    )
    .unwrap();
    assert_eq!(rs.columns, vec!["plan"]);
    let text: String = rs
        .rows
        .iter()
        .map(|r| r[0].render())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("spatial pushdown"));
    assert!(rs.trace.is_empty(), "EXPLAIN does not execute");
}

#[test]
fn explain_analyze_executes_and_annotates() {
    let c = setup();
    let sql = "SELECT COUNT(*) FROM points WHERE \
               ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))";
    let rs = query(&c, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
    assert_eq!(rs.columns, vec!["plan"]);
    let text: String = rs
        .rows
        .iter()
        .map(|r| r[0].render())
        .collect::<Vec<_>>()
        .join("\n");
    // The planned tree is still there...
    assert!(text.contains("spatial pushdown"), "{text}");
    // ...followed by the executed operators with real cardinalities.
    assert!(text.contains("actual:"), "{text}");
    assert!(text.contains("imprint filter"), "{text}");
    assert!(text.contains("time="), "{text}");
    assert!(text.contains("total"), "{text}");
    // ANALYZE really executed: the trace is populated (plain EXPLAIN keeps
    // it empty) and the engine's counters match a direct run of the query.
    assert!(!rs.trace.is_empty(), "EXPLAIN ANALYZE executes");
    let direct = query(&c, sql).unwrap();
    assert_eq!(direct.rows[0][0], SqlValue::Int(11 * 11));
    let rows_of = |rs: &lidardb_sql::ResultSet, op: &str| {
        rs.trace
            .iter()
            .find(|t| t.operator.contains(op))
            .map(|t| t.rows)
            .unwrap_or_else(|| panic!("missing {op} in trace"))
    };
    for op in ["imprint filter", "exact bbox scan"] {
        assert_eq!(rows_of(&rs, op), rows_of(&direct, op), "{op}");
    }
    // The rendered per-operator rows are the trace's rows verbatim.
    for t in &rs.trace {
        assert!(
            text.contains(&format!("rows={:<10}", t.rows)),
            "trace rows {} not rendered: {text}",
            t.rows
        );
    }

    // Aggregates of point columns are one typed fold: a single trace line
    // whose rows are the ids folded, timed under the registry's aggregate
    // stage. Other tests in this binary aggregate concurrently, so the
    // registry delta is read from a run that saw only its own call.
    let sql = "EXPLAIN ANALYZE SELECT COUNT(*), AVG(z) FROM points WHERE \
               ST_Contains(ST_MakeEnvelope(10, 10, 20, 20), ST_Point(x, y))";
    let stage = lidardb_core::MetricsRegistry::global().stage(lidardb_core::Stage::Aggregate);
    let (rs, stage_rows) = (0..100)
        .find_map(|_| {
            let (calls0, rows0) = (stage.calls.get(), stage.rows.get());
            let rs = query(&c, sql).unwrap();
            (stage.calls.get() - calls0 == 1).then(|| (rs, stage.rows.get() - rows0))
        })
        .expect("a run without a concurrent aggregate");
    let aggs: Vec<_> = rs
        .trace
        .iter()
        .filter(|t| t.operator.starts_with("aggregate"))
        .collect();
    assert_eq!(aggs.len(), 1, "{:?}", rs.trace);
    assert_eq!(aggs[0].operator, "aggregate (COUNT(*), AVG(z))");
    assert_eq!(aggs[0].rows, 11 * 11);
    assert_eq!(stage_rows, 11 * 11);
}

#[test]
fn order_by_and_limit() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT x, y FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(0, 0, 3, 0), ST_Point(x, y)) \
         ORDER BY x DESC LIMIT 2",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], SqlValue::Float(3.0));
    assert_eq!(rs.rows[1][0], SqlValue::Float(2.0));
    // Ordinal form.
    let rs = query(
        &c,
        "SELECT x FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(0, 0, 3, 0), ST_Point(x, y)) ORDER BY 1 LIMIT 1",
    )
    .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Float(0.0));
}

#[test]
fn between_and_arithmetic() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points WHERE x BETWEEN 10 AND 12 AND y = 0",
    )
    .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(3));
    let rs = query(&c, "SELECT MAX(z) * 10 + 1 AS v FROM points").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Float(100.0)); // max z = 9.9
}

#[test]
fn empty_results() {
    let c = setup();
    let rs = query(&c, "SELECT COUNT(*), AVG(z) FROM points WHERE x > 1000").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(0));
    assert_eq!(rs.rows[0][1], SqlValue::Null);
    let rs = query(&c, "SELECT x FROM points WHERE x > 1000").unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn errors_are_reported() {
    let c = setup();
    assert!(query(&c, "SELECT nope FROM points LIMIT 1").is_err());
    assert!(query(&c, "SELECT * FROM missing_table").is_err());
    assert!(query(&c, "SELECT COUNT(*) FROM points p, roads r WHERE p.x = 1").is_err());
    assert!(query(&c, "SELECT x, COUNT(*) FROM points").is_err());
    assert!(query(&c, "SELECT ST_X(x) FROM points LIMIT 1").is_err());
}

#[test]
fn render_tables() {
    let c = setup();
    let rs = query(&c, "SELECT id, class FROM roads ORDER BY id").unwrap();
    let text = rs.render();
    assert!(text.contains("motorway"));
    assert!(text.contains("2 row(s)"));
    assert!(!rs.render_trace().is_empty());
}

#[test]
fn thematic_predicates_are_index_driven() {
    let c = setup();
    // Attribute-only query: the classification imprint should serve it.
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points WHERE classification = 6 AND z BETWEEN 6 AND 8",
    )
    .unwrap();
    // class 6 = x in 51..=99; z = x/10 in [6,8] -> x in 60..=80 -> 21 cols.
    assert_eq!(rs.rows[0][0], SqlValue::Int(21 * 100));
    let probe_trace = rs
        .trace
        .iter()
        .find(|t| t.operator.contains("imprint filter"))
        .expect("imprint filter must appear in the trace");
    assert!(
        probe_trace.operator.contains("attribute probes"),
        "trace: {}",
        probe_trace.operator
    );
    // EXPLAIN names the pushdowns.
    let rs = query(
        &c,
        "EXPLAIN SELECT COUNT(*) FROM points WHERE classification = 6 AND z BETWEEN 6 AND 8",
    )
    .unwrap();
    let text: String = rs
        .rows
        .iter()
        .map(|r| r[0].render())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("attribute pushdown: classification in [6, 6]"));
    assert!(text.contains("attribute pushdown: z in [6, 8]"));
}

#[test]
fn strict_bounds_stay_exact_under_pushdown() {
    let c = setup();
    // z > 5.0 must NOT include z == 5.0 even though the index range is
    // widened to [5, inf].
    let rs = query(&c, "SELECT COUNT(*) FROM points WHERE z > 5.0 AND y = 0").unwrap();
    // z = x/10 > 5 -> x in 51..=99 -> 49 points on row y=0.
    assert_eq!(rs.rows[0][0], SqlValue::Int(49));
    let rs = query(&c, "SELECT COUNT(*) FROM points WHERE z >= 5.0 AND y = 0").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(50), "inclusive keeps x=50");
}

#[test]
fn distinct_and_having() {
    let c = setup();
    // DISTINCT: classification takes exactly two values.
    let rs = query(
        &c,
        "SELECT DISTINCT classification FROM points ORDER BY classification",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], SqlValue::Int(2));
    assert_eq!(rs.rows[1][0], SqlValue::Int(6));
    // HAVING filters groups by an aggregate.
    let rs = query(
        &c,
        "SELECT classification, COUNT(*) AS n FROM points \
         GROUP BY classification HAVING COUNT(*) > 5000",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), 1, "only class 2 has 5100 rows");
    assert_eq!(rs.rows[0][0], SqlValue::Int(2));
    // HAVING without GROUP BY applies to the single global group.
    let rs = query(&c, "SELECT COUNT(*) FROM points HAVING COUNT(*) > 1000000").unwrap();
    assert!(rs.rows.is_empty());
    let rs = query(&c, "SELECT COUNT(*) FROM points HAVING COUNT(*) > 100").unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn having_applies_to_empty_global_group() {
    let c = setup();
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points WHERE x > 100000 HAVING COUNT(*) > 0",
    )
    .unwrap();
    assert!(rs.rows.is_empty(), "zero-count group filtered by HAVING");
    let rs = query(&c, "SELECT COUNT(*), AVG(z) FROM points WHERE x > 100000").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], SqlValue::Int(0));
    assert_eq!(rs.rows[0][1], SqlValue::Null);
}

#[test]
fn st_buffer_envelope_numpoints() {
    let c = setup();
    // Buffer the motorway and count points inside the corridor — should
    // match the ST_DWithin count for the same distance (corridor is the
    // flat-cap buffer; the grid points near segment interiors agree).
    let rs = query(
        &c,
        "SELECT ST_NumPoints(ST_Buffer(ST_GeomFromText('LINESTRING (0 50, 99 50)'), 2)) AS n \
         FROM roads LIMIT 1",
    )
    .unwrap();
    assert_eq!(
        rs.rows[0][0],
        SqlValue::Int(4),
        "corridor of a 2-vertex line"
    );
    let rs = query(
        &c,
        "SELECT ST_AsText(ST_Envelope(ST_GeomFromText('LINESTRING (1 2, 5 9)'))) AS e \
         FROM roads LIMIT 1",
    )
    .unwrap();
    assert!(rs.rows[0][0].render().contains("POLYGON"));
}

/// Index of the result column called `name`, so tests do not depend on
/// where a statement puts it.
fn col(rs: &ResultSet, name: &str) -> usize {
    rs.columns
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("no column {name:?} in {:?}", rs.columns))
}

/// The process-wide slow-query log is shared state: tests that clear and
/// inspect it must not interleave.
static SLOW_LOG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn set_trace_session_records_spans_and_shows_slow_queries() {
    let _serial = SLOW_LOG_LOCK.lock().unwrap();
    let c = setup();

    // Parser shapes first.
    assert!(query(&c, "SET TRACE = maybe").is_err());
    assert!(query(&c, "SHOW SLOW").is_err());

    // Untraced session: queries get no trace id, the session flag is off.
    assert!(!c.trace_enabled());
    let rs = query(&c, "SET TRACE = ON").unwrap();
    assert_eq!(rs.columns, vec!["trace"]);
    assert_eq!(rs.rows[0][0], SqlValue::Str("ON".into()));
    assert!(c.trace_enabled());

    // A traced SELECT lands in the slow-query log with a span tree that
    // includes the query root and its bbox scan.
    lidardb_core::SlowQueryLog::global().clear();
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(10, 10, 30, 30), ST_Point(x, y))",
    )
    .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(21 * 21));
    let slow = lidardb_core::SlowQueryLog::global().worst();
    assert!(!slow.is_empty(), "traced query entered the slow log");
    let q = &slow[0];
    assert!(
        q.spans.iter().all(|s| s.trace_id == q.trace_id),
        "spans belong to the entry"
    );
    let names: Vec<&str> = q.spans.iter().map(|s| s.kind.name()).collect();
    assert!(names.contains(&"query"), "{names:?}");
    assert!(names.contains(&"bbox_scan"), "{names:?}");

    let rs = query(&c, "SHOW SLOW QUERIES").unwrap();
    assert!(!rs.rows.is_empty());
    assert_eq!(
        rs.rows[0][col(&rs, "cancelled")],
        SqlValue::Int(0),
        "not cancelled"
    );
    assert!(
        rs.rows[0][col(&rs, "tree")].render().contains("query"),
        "span tree rendered"
    );

    // OFF stops new queries from being traced.
    query(&c, "SET TRACE = OFF").unwrap();
    assert!(!c.trace_enabled());
    lidardb_core::SlowQueryLog::global().clear();
    query(&c, "SELECT COUNT(*) FROM points WHERE x BETWEEN 0 AND 5").unwrap();
    assert!(
        lidardb_core::SlowQueryLog::global().worst().is_empty(),
        "untraced queries stay out of the slow log"
    );

    // Clones of the catalog share the session flag.
    let clone = c.clone();
    clone.set_trace(true);
    assert!(c.trace_enabled());
    c.set_trace(false);
}

#[test]
fn session_governance_statements() {
    let c = setup();

    // Parser shapes.
    assert!(query(&c, "SET STATEMENT_TIMEOUT = banana").is_err());
    assert!(query(&c, "SET MEM_BUDGET = -3").is_err());
    assert!(query(&c, "KILL").is_err());
    assert!(query(&c, "SET LIFE = 42").is_err());

    // SET STATEMENT_TIMEOUT: acknowledged, visible on the session, and 0
    // clears it.
    let rs = query(&c, "SET STATEMENT_TIMEOUT = 250").unwrap();
    assert_eq!(rs.columns, vec!["statement_timeout_ms"]);
    assert_eq!(rs.rows[0][0], SqlValue::Int(250));
    assert_eq!(
        c.statement_timeout(),
        Some(std::time::Duration::from_millis(250))
    );
    // A generous timeout leaves a small query unaffected.
    let rs = query(&c, "SELECT COUNT(*) FROM points WHERE x BETWEEN 0 AND 5").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(600));
    query(&c, "SET STATEMENT_TIMEOUT = 0").unwrap();
    assert_eq!(c.statement_timeout(), None);

    // SET MEM_BUDGET: a 32-byte budget cannot materialise thousands of
    // rows — the scan is cancelled with a typed, rendered error.
    query(&c, "SET MEM_BUDGET = 32").unwrap();
    assert_eq!(c.mem_budget(), Some(32));
    let err = query(&c, "SELECT COUNT(*) FROM points WHERE x >= 0").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("memory budget"), "{msg}");
    query(&c, "SET MEM_BUDGET = 0").unwrap();
    let rs = query(&c, "SELECT COUNT(*) FROM points WHERE x >= 0").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(10_000));

    // Session knobs are shared across catalog clones, like SET TRACE.
    let clone = c.clone();
    clone.set_statement_timeout_ms(77);
    assert_eq!(
        c.statement_timeout(),
        Some(std::time::Duration::from_millis(77))
    );
    c.set_statement_timeout_ms(0);

    // KILL on an unknown id is a polite no-op.
    let rs = query(&c, "KILL 999999999").unwrap();
    assert_eq!(rs.columns, vec!["killed"]);
    assert_eq!(rs.rows[0][0], SqlValue::Str("no such query".into()));

    // SHOW QUERIES lists in-flight queries; idle sessions see none of
    // their own (the statement itself is not a point-cloud query).
    let rs = query(&c, "SHOW QUERIES").unwrap();
    assert_eq!(
        rs.columns,
        vec!["query_id", "elapsed_seconds", "detail", "cancelled"]
    );
}

#[test]
fn cancelled_queries_render_in_show_slow_queries() {
    let _serial = SLOW_LOG_LOCK.lock().unwrap();
    let c = setup();
    query(&c, "SET TRACE = ON").unwrap();
    lidardb_core::SlowQueryLog::global().clear();
    // A 1-byte budget cancels the scan after the governance checkpoint.
    query(&c, "SET MEM_BUDGET = 1").unwrap();
    let err = query(&c, "SELECT COUNT(*) FROM points WHERE x >= 0").unwrap_err();
    assert!(err.to_string().contains("cancelled"), "{err}");
    let rs = query(&c, "SHOW SLOW QUERIES").unwrap();
    let (cancelled, tree) = (col(&rs, "cancelled"), col(&rs, "tree"));
    let cancelled_rows: Vec<_> = rs
        .rows
        .iter()
        .filter(|r| r[cancelled] == SqlValue::Int(1))
        .collect();
    assert!(
        !cancelled_rows.is_empty(),
        "cancelled query appears in SHOW SLOW QUERIES: {rs:?}"
    );
    assert!(
        cancelled_rows[0][tree].render().contains("[cancelled]"),
        "tree renders the cancelled marker: {}",
        cancelled_rows[0][tree].render()
    );
    query(&c, "SET MEM_BUDGET = 0").unwrap();
    query(&c, "SET TRACE = OFF").unwrap();
    lidardb_core::SlowQueryLog::global().clear();
}

// ---------------------------------------------------- streaming ingestion

/// A streaming catalog: table `pts` is an ingest-enabled cloud with a WAL
/// beside `dir`, registered via `register_stream`.
fn streaming_catalog(name: &str, durability: lidardb_core::Durability) -> (Catalog, ScratchDir) {
    let dir = ScratchDir::vacant(&format!("sql_stream_{name}"));
    let pc = PointCloud::open_ingest(&dir, durability).unwrap();
    let mut c = Catalog::new();
    c.register_stream("pts", Arc::new(std::sync::RwLock::new(pc)));
    (c, dir)
}

#[test]
fn insert_is_wal_logged_and_queryable() {
    let (c, dir) = streaming_catalog("insert", lidardb_core::Durability::Always);
    let rs = query(
        &c,
        "INSERT INTO pts (x, y, z, classification) \
         VALUES (1, 2, 10, 6), (3, 4, 20, 2), (5, 6, 30, 6)",
    )
    .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(3), "inserted count");
    assert_eq!(
        rs.rows[0][1],
        SqlValue::Int(1),
        "Always fsyncs: durable ack"
    );

    let rs = query(&c, "SELECT COUNT(*) FROM pts WHERE classification = 6").unwrap();
    assert_eq!(
        rs.rows[0][0],
        SqlValue::Int(2),
        "inserted rows are queryable"
    );

    // The batch survives a crash: reopen the directory cold.
    drop(c);
    let pc = PointCloud::open_ingest(&dir, lidardb_core::Durability::Always).unwrap();
    assert_eq!(pc.num_points(), 3, "WAL replay restores the insert");
    assert_eq!(pc.record(2).unwrap().z, 30.0);
}

#[test]
fn insert_token_replay_is_deduped() {
    let (c, _dir) = streaming_catalog("ins_token", lidardb_core::Durability::Always);
    let stmt = "INSERT INTO pts (x, y) VALUES (1, 2), (3, 4) TOKEN 424242";
    let rs = query(&c, stmt).unwrap();
    assert_eq!(rs.columns, vec!["inserted", "durable", "deduped"]);
    assert_eq!(rs.rows[0][0], SqlValue::Int(2), "first send inserts");
    assert_eq!(rs.rows[0][2], SqlValue::Int(0), "not a dedup");
    // The retry (same token — a client that lost the ack): acknowledged,
    // applied zero rows.
    let rs = query(&c, stmt).unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(0), "replay inserts nothing");
    assert_eq!(
        rs.rows[0][1],
        SqlValue::Int(1),
        "original append is durable"
    );
    assert_eq!(rs.rows[0][2], SqlValue::Int(1), "flagged as deduped");
    let rs = query(&c, "SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(2), "no double insert");
    // A different token inserts normally; token-less keeps the old shape.
    query(&c, "INSERT INTO pts (x, y) VALUES (5, 6) TOKEN 424243").unwrap();
    let rs = query(&c, "INSERT INTO pts (x, y) VALUES (7, 8)").unwrap();
    assert_eq!(rs.columns, vec!["inserted", "durable"]);
    let rs = query(&c, "SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(4));
}

#[test]
fn group_commit_inserts_stay_invisible_until_flushed() {
    let (c, _dir) = streaming_catalog(
        "groupvis",
        lidardb_core::Durability::GroupCommit {
            max_batches: 1_000,
            max_delay: std::time::Duration::from_secs(3_600),
        },
    );
    let rs = query(&c, "INSERT INTO pts (x, y, z) VALUES (1, 1, 5)").unwrap();
    assert_eq!(
        rs.rows[0][1],
        SqlValue::Int(0),
        "group commit: not yet durable"
    );
    let rs = query(&c, "SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(
        rs.rows[0][0],
        SqlValue::Int(0),
        "snapshot isolation: unacked insert is invisible to readers"
    );
    // Flushing the WAL advances the snapshot.
    {
        let mut pc = c.write_stream("pts").unwrap();
        pc.flush_wal().unwrap();
    }
    let rs = query(&c, "SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(1), "flushed insert is visible");
}

#[test]
fn show_recovery_reports_the_stream_state() {
    let (c, dir) = streaming_catalog("showrec", lidardb_core::Durability::Always);
    query(&c, "INSERT INTO pts (x, y) VALUES (1, 2), (3, 4)").unwrap();
    drop(c);
    // Reopen: recovery replays the WAL and SHOW RECOVERY narrates it.
    let pc = PointCloud::open_ingest(&dir, lidardb_core::Durability::Always).unwrap();
    let mut c = Catalog::new();
    c.register_stream("pts", Arc::new(std::sync::RwLock::new(pc)));
    let rs = query(&c, "SHOW RECOVERY").unwrap();
    assert_eq!(rs.columns, vec!["table", "stat", "value"]);
    let stat = |name: &str| -> SqlValue {
        rs.rows
            .iter()
            .find(|r| r[0] == SqlValue::Str("pts".into()) && r[1] == SqlValue::Str(name.into()))
            .unwrap_or_else(|| panic!("missing stat {name}: {rs:?}"))[2]
            .clone()
    };
    assert_eq!(stat("replayed_rows"), SqlValue::Int(2));
    assert_eq!(stat("total_rows"), SqlValue::Int(2));
    assert_eq!(stat("visible_rows"), SqlValue::Int(2));
    assert_eq!(stat("durable_rows"), SqlValue::Int(2));
    assert_eq!(stat("durability"), SqlValue::Str("always".into()));
    assert_eq!(stat("torn_tail"), SqlValue::Int(0));
}

#[test]
fn insert_errors_are_reported() {
    let (c, _dir) = streaming_catalog("inserr", lidardb_core::Durability::Always);
    // Unknown column.
    assert!(query(&c, "INSERT INTO pts (bogus) VALUES (1)").is_err());
    // Duplicate column.
    assert!(query(&c, "INSERT INTO pts (x, x) VALUES (1, 2)").is_err());
    // Non-constant value.
    assert!(query(&c, "INSERT INTO pts (x) VALUES (y + 1)").is_err());
    // Failed inserts leave nothing behind.
    let rs = query(&c, "SELECT COUNT(*) FROM pts").unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(0));

    // Plain (non-streaming) tables are read-only.
    let c = setup();
    let err = query(&c, "INSERT INTO points (x) VALUES (1)").unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
}

#[test]
fn insert_cells_are_signed_literals_and_nothing_else() {
    let (c, dir) = streaming_catalog("cells", lidardb_core::Durability::Always);
    query(&c, "INSERT INTO pts (x, y) VALUES (1, 2)").unwrap();
    let wal = lidardb_core::wal::wal_path_for(dir.path());
    let wal_len = std::fs::metadata(&wal).unwrap().len();
    // The bad cell sits in the second tuple, ahead of a good one, so the
    // first tuple has been read when the cell is rejected.
    let prefix = "INSERT INTO pts (x, y) VALUES (3, 4), (";
    for cell in [
        "x + 1",
        "1 + 1",
        "ST_Point(1, 2)",
        "'a'",
        "NULL",
        "(1",
        "- -",
        "",
    ] {
        let sql = format!("{prefix}{cell}, 6) TOKEN 77");
        match query(&c, &sql) {
            Err(SqlError::Parse { offset, .. }) => {
                assert_eq!(offset, prefix.len(), "{cell:?}: error at the cell")
            }
            other => panic!("{cell:?}: expected a parse error, got {other:?}"),
        }
    }
    let pc = c.write_stream("pts").unwrap();
    assert_eq!(pc.num_points(), 1, "a rejected statement applies nothing");
    drop(pc);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        wal_len,
        "nor logs anything"
    );

    // Signs and parentheses around one literal keep the value the literal
    // spells, negated once per `-`.
    let accepted = [
        ("+5", 5.0),
        ("-(-5)", 5.0),
        ("((7))", 7.0),
        ("1e3", 1000.0),
        (".5", 0.5),
        ("-2.5e-2", -0.025),
    ];
    for (i, (cell, _)) in accepted.iter().enumerate() {
        query(&c, &format!("INSERT INTO pts (x, y) VALUES ({cell}, {i})")).unwrap();
    }
    let pc = c.write_stream("pts").unwrap();
    for (i, (cell, want)) in accepted.iter().enumerate() {
        let got = pc.record(1 + i).unwrap().x;
        assert_eq!(got.to_bits(), f64::to_bits(*want), "{cell}: {got}");
    }
}

// ---- sys.* virtual tables ----------------------------------------------

#[test]
fn sys_metrics_readable_with_predicates_and_projection() {
    let c = setup();
    // Run a real query first so the counters are warm.
    query(&c, "SELECT COUNT(*) FROM points WHERE x < 10").unwrap();
    let rs = query(
        &c,
        "SELECT name, value FROM sys.metrics WHERE kind = 'counter'",
    )
    .unwrap();
    assert_eq!(rs.columns, vec!["name", "value"]);
    let queries = rs
        .rows
        .iter()
        .find(|r| r[0] == SqlValue::Str("queries".into()))
        .expect("queries counter row");
    assert!(
        matches!(queries[1], SqlValue::Int(n) if n >= 1),
        "{queries:?}"
    );
    // Predicates narrow: only counter rows came back.
    let all = query(&c, "SELECT kind FROM sys.metrics").unwrap();
    assert!(
        all.rows.len() > rs.rows.len(),
        "kinds beyond counters exist"
    );
    // ORDER BY + LIMIT work like on any table.
    let top = query(
        &c,
        "SELECT name, value FROM sys.metrics WHERE kind = 'counter' ORDER BY value DESC LIMIT 3",
    )
    .unwrap();
    assert_eq!(top.rows.len(), 3);
}

#[test]
fn sys_metrics_counters_match_counter_values() {
    let c = setup();
    let rs = query(&c, "SELECT name FROM sys.metrics WHERE kind = 'counter'").unwrap();
    let names: Vec<String> = rs
        .rows
        .iter()
        .map(|row| match &row[0] {
            SqlValue::Str(name) => name.clone(),
            other => panic!("name not a string: {other:?}"),
        })
        .collect();
    let expected: Vec<&str> = lidardb_core::MetricsRegistry::global()
        .counter_values()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(names, expected);
}

#[test]
fn sys_queries_and_sessions_have_stable_schemas() {
    let c = setup();
    let rs = query(&c, "SELECT * FROM sys.queries").unwrap();
    assert_eq!(
        rs.columns,
        vec![
            "query_id",
            "elapsed_seconds",
            "queue_wait_seconds",
            "state",
            "rows_so_far",
            "mem_bytes",
            "detail"
        ]
    );
    let rs = query(&c, "SELECT * FROM sys.sessions").unwrap();
    assert_eq!(
        rs.columns,
        vec![
            "session_id",
            "peer",
            "elapsed_seconds",
            "statements",
            "state"
        ]
    );
    let rs = query(&c, "SELECT * FROM sys.wal").unwrap();
    assert_eq!(
        rs.columns,
        vec![
            "table_name",
            "durability",
            "total_rows",
            "durable_rows",
            "visible_rows",
            "backlog_rows",
            "degraded"
        ]
    );
    // No streaming tables registered here.
    assert!(rs.rows.is_empty());
}

#[test]
fn sys_tiles_reports_residency() {
    let dir = ScratchDir::vacant("sql_sys_tiles");
    let mut pc = PointCloud::new();
    let recs: Vec<PointRecord> = (0..4096)
        .map(|i| PointRecord {
            x: (i % 64) as f64,
            y: (i / 64) as f64,
            ..Default::default()
        })
        .collect();
    pc.append_records(&recs).unwrap();
    pc.save_tiled(
        &dir,
        &lidardb_core::TileOptions {
            target_rows: 512,
            ..Default::default()
        },
    )
    .unwrap();
    let tc = Arc::new(lidardb_core::TiledCloud::open(&dir).unwrap());
    let mut c = Catalog::new();
    c.register_tiled("tiled_pts", Arc::clone(&tc));
    let rs = query(
        &c,
        "SELECT COUNT(*) FROM sys.tiles WHERE table_name = 'tiled_pts'",
    )
    .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::Int(tc.num_tiles() as i64));
    // Touch one tile, then its residency flips to 1.
    query(&c, "SELECT COUNT(*) FROM tiled_pts WHERE x < 4 AND y < 4").unwrap();
    let rs = query(&c, "SELECT COUNT(*) FROM sys.tiles WHERE resident = 1").unwrap();
    assert!(
        matches!(rs.rows[0][0], SqlValue::Int(n) if n >= 1),
        "{rs:?}"
    );
}

#[test]
fn sys_tables_join_and_unknown_sys_name_errors() {
    let c = setup();
    // A sys table joins against another sys table like any pair of
    // vector tables.
    let rs = query(
        &c,
        "SELECT m.name FROM sys.metrics m, sys.sessions s WHERE m.kind = 'counter'",
    );
    assert!(rs.is_ok() || rs.unwrap_err().to_string().contains("join"));
    let err = query(&c, "SELECT * FROM sys.bogus").unwrap_err();
    assert!(err.to_string().contains("sys.bogus"), "{err}");
}
