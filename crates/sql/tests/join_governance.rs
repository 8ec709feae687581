//! A spatial join is one governed statement: its probes run under the
//! statement's token, so `SET STATEMENT_TIMEOUT` and `SET MEM_BUDGET`
//! bound the whole join, not each probe. A folded aggregate runs under
//! the statement's token too.

use std::sync::Arc;

use lidardb_core::{CancelToken, FaultInjector, FaultKind, FaultStage, Parallelism, PointCloud};
use lidardb_geom::{Geometry, Point};
use lidardb_las::PointRecord;
use lidardb_sql::catalog::VColumn;
use lidardb_sql::{query, query_streamed, Catalog, RowSink, SqlError, SqlValue, VectorTable};

const SIDE: usize = 40;

/// Every feature lies 1.5 from nine grid points and from no other
/// feature's points.
const JOIN: &str = "SELECT COUNT(*) FROM points p, feats f \
                    WHERE ST_DWithin(ST_Point(p.x, p.y), f.geom, 1.5)";

/// A 40x40 integer grid `points` whose `z` is the row id (serial probes,
/// `fault` on its checkpoints) beside ten point features `feats` with ids
/// 1..=10.
fn catalog(fault: Option<Arc<FaultInjector>>) -> Catalog {
    let recs: Vec<PointRecord> = (0..SIDE * SIDE)
        .map(|i| PointRecord {
            x: (i % SIDE) as f64,
            y: (i / SIDE) as f64,
            z: i as f64,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    if let Some(fi) = fault {
        pc.set_fault_injector(fi);
    }
    let at = |k: usize| (4.0 + 8.0 * (k % 5) as f64, 8.0 + 16.0 * (k / 5) as f64);
    let feats = VectorTable::new()
        .with_column("id", VColumn::Int((1..=10).collect()))
        .with_column(
            "geom",
            VColumn::Geom(
                (0..10)
                    .map(|k| Geometry::Point(Point::new(at(k).0, at(k).1)))
                    .collect(),
            ),
        );
    let mut c = Catalog::new();
    c.set_parallelism(Parallelism::Serial);
    c.register_pointcloud("points", Arc::new(pc));
    c.register_vector("feats", feats);
    c
}

#[test]
fn statement_timeout_bounds_a_whole_join() {
    // Count the join's checkpoints with zero-length stalls first.
    let fi = Arc::new(FaultInjector::new());
    let c = catalog(Some(Arc::clone(&fi)));
    fi.inject_n(
        FaultStage::QueryCheckpoint,
        None,
        FaultKind::Stall(0),
        0,
        1000,
    );
    assert_eq!(query(&c, JOIN).unwrap().rows[0][0], SqlValue::Int(90));
    let full = fi.fired().len();
    assert!(full >= 10, "every probe checkpoints: {full}");

    // With 30 ms stalls every probe alone fits the 200 ms deadline; the
    // whole join does not.
    fi.clear();
    fi.inject_n(
        FaultStage::QueryCheckpoint,
        None,
        FaultKind::Stall(30),
        0,
        1000,
    );
    query(&c, "SET STATEMENT_TIMEOUT = 200").unwrap();
    let err = query(&c, JOIN).unwrap_err().to_string();
    assert!(err.contains("cancelled (deadline)"), "{err}");
    let stalled = fi.fired().len() - full;
    assert!(
        stalled < full,
        "the join stopped early: {stalled} of {full} checkpoints"
    );
}

/// Keeps the token the statement hands its sink.
#[derive(Default)]
struct KeepToken(Option<CancelToken>);

impl RowSink for KeepToken {
    fn start(&mut self, _: &[String], token: &CancelToken) -> Result<(), SqlError> {
        self.0 = Some(token.clone());
        Ok(())
    }

    fn batch(&mut self, _: Vec<Vec<SqlValue>>) -> Result<(), SqlError> {
        Ok(())
    }
}

#[test]
fn mem_budget_bounds_a_whole_join() {
    let c = catalog(None);
    // What one probe charges, read off the statement's own token (a token
    // only counts against a budget).
    query(&c, "SET MEM_BUDGET = 1000000000").unwrap();
    let one = format!("{JOIN} AND f.id = 1");
    let mut sink = KeepToken::default();
    query_streamed(&c, &one, 64, &mut sink).unwrap();
    let probe_bytes = sink.0.expect("the sink got a token").budget().used();
    assert!(probe_bytes > 0, "the probe charges the statement's budget");

    query(&c, &format!("SET MEM_BUDGET = {probe_bytes}")).unwrap();
    assert_eq!(query(&c, &one).unwrap().rows[0][0], SqlValue::Int(9));
    let err = query(&c, JOIN).unwrap_err().to_string();
    assert!(err.contains("memory budget"), "{err}");
}

#[test]
fn folded_aggregates_run_under_their_statement() {
    let fi = Arc::new(FaultInjector::new());
    let c = catalog(Some(Arc::clone(&fi)));
    let window = "ST_Within(ST_Point(x, y), ST_MakeEnvelope(0, 0, 10, 10))";
    let near = "ST_DWithin(ST_Point(p.x, p.y), f.geom, 1.5)";
    let folds = [
        "SELECT AVG(z) FROM points".to_string(),
        "SELECT AVG(z) FROM points WHERE x > 3".to_string(),
        format!("SELECT MIN(z), MAX(z) FROM points WHERE {window}"),
        format!("SELECT AVG(p.z) FROM points p, feats f WHERE {near}"),
    ];
    assert_eq!(
        query(&c, &folds[0]).unwrap().rows[0][0],
        SqlValue::Float(799.5)
    );

    // A Cancel armed at the aggregate kernel's checkpoint reaches each
    // fold through the statement's context.
    fi.inject_n(
        FaultStage::QueryCheckpoint,
        Some("aggregate"),
        FaultKind::Cancel,
        0,
        1000,
    );
    for sql in &folds {
        let before = fi.fired().len();
        let err = match query(&c, sql) {
            Ok(rs) => panic!("{sql} answered {:?}", rs.rows),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("cancelled (killed)"), "{sql}: {err}");
        assert!(fi.fired().len() > before, "{sql}: the fault fired");
    }
}
