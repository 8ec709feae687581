//! `AVG`, `MIN` and `MAX` of one column fold it once: the statement adds
//! exactly one call to the registry's aggregate stage, and its values are
//! those of three separate engine aggregates over the same rows. The file
//! holds a single `#[test]`, so nothing else in its process moves the
//! registry.

use std::sync::Arc;

use lidardb_core::{
    Aggregate, GovernCtx, MetricsRegistry, Parallelism, PointCloud, PointTable, RefineStrategy,
    SpatialPredicate, Stage,
};
use lidardb_geom::{Envelope, Geometry, Polygon};
use lidardb_las::PointRecord;
use lidardb_sql::{query, Catalog, SqlValue};

#[test]
fn one_column_is_folded_once_for_all_its_calls() {
    let records: Vec<PointRecord> = (0..40_000)
        .map(|i| PointRecord {
            x: (i % 200) as f64,
            y: (i / 200) as f64,
            z: ((i * 37) % 1000) as f64 / 7.0,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&records).unwrap();
    let pc = Arc::new(pc);
    let mut catalog = Catalog::new();
    catalog.register_pointcloud("points", Arc::clone(&pc));

    // The statement's rows, and each call as the engine answers it alone.
    let window = Envelope::new(20.0, 30.0, 150.0, 170.0).unwrap();
    let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
    let (table, ctx, par) = (
        PointTable::Flat(&pc),
        GovernCtx::ungoverned(),
        Parallelism::default(),
    );
    let strategy = RefineStrategy::default();
    let rows = table
        .select(Some(&pred), &[], strategy, par, &ctx)
        .unwrap()
        .rows;
    assert!(rows.len() > 10_000);
    let alone = |agg| {
        table
            .aggregate(&rows, "z", agg, par, &ctx)
            .unwrap()
            .unwrap()
    };
    let want =
        [Aggregate::Avg, Aggregate::Min, Aggregate::Max].map(|agg| SqlValue::Float(alone(agg)));

    let calls = || {
        MetricsRegistry::global()
            .stage(Stage::Aggregate)
            .calls
            .get()
    };
    let before = calls();
    let rs = query(
        &catalog,
        "SELECT AVG(z), MIN(z), MAX(z) FROM points WHERE \
         ST_Contains(ST_MakeEnvelope(20, 30, 150, 170), ST_Point(x, y))",
    )
    .unwrap();
    assert_eq!(calls() - before, 1, "z is folded once");
    assert_eq!(rs.rows, [want.to_vec()]);
}
