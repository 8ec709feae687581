//! Smoke tests for the span tracer: a traced query records a parented
//! span tree, the per-thread guard gates tracing, and the slow-query log
//! captures traced queries.
//!
//! The tracer ring and slow-query log are process-global; the stateful
//! checks run in one `#[test]` so they see a coherent sequence, and the
//! cross-trace assertions always filter by this test's own trace ids.

use lidardb_core::{
    trace, Parallelism, PointCloud, RefineStrategy, SlowQueryLog, SpatialPredicate, Tracer,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;

fn cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: (i % 97) as f64,
            classification: (i % 11) as u8,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    pc
}

fn diamond(cx: f64, cy: f64, r: f64) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(cx, cy - r),
            Point::new(cx + r, cy),
            Point::new(cx, cy + r),
            Point::new(cx - r, cy),
        ])
        .unwrap(),
    ))
}

#[test]
fn untraced_queries_have_no_trace_id() {
    let pc = cloud(10_000);
    let sel = pc
        .select_query_with(
            Some(&diamond(50.0, 50.0, 40.0)),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap();
    assert!(!sel.rows.is_empty());
    assert_eq!(sel.trace_id, None, "untraced query carries no trace id");
}

#[test]
fn trace_smoke() {
    let pc = cloud(30_000);
    let pred = diamond(80.0, 80.0, 70.0);

    // --- per-thread guard -------------------------------------------------
    let guard = trace::force_thread();
    let traced = pc
        .select_query_with(
            Some(&pred),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap();
    let tid = traced.trace_id.expect("traced query has a trace id");

    drop(guard);
    let untraced = pc
        .select_query_with(
            Some(&pred),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap();
    assert_eq!(
        untraced.rows, traced.rows,
        "tracing must not change results"
    );
    assert_eq!(untraced.trace_id, None);

    // --- the trace holds one span per exercised stage ---------------------
    let sink = Tracer::global().snapshot().for_trace(tid);
    let names: Vec<&str> = sink.spans.iter().map(|s| s.kind.name()).collect();
    // The first traced query on a fresh cloud builds its imprints lazily,
    // so the build span nests under the probe.
    for want in [
        "query",
        "imprint_probe",
        "imprint_build",
        "bbox_scan",
        "grid_refine",
    ] {
        assert!(names.contains(&want), "missing {want} span in {names:?}");
    }
    let root = sink
        .spans
        .iter()
        .find(|s| s.kind.name() == "query")
        .expect("root span");
    assert_eq!(root.parent_id, 0, "root has no parent");
    assert_eq!(root.rows_out, traced.rows.len() as u64);
    for s in &sink.spans {
        assert_eq!(s.trace_id, tid);
        if s.span_id != root.span_id {
            assert_ne!(s.parent_id, 0, "{} span is parented", s.kind.name());
        }
    }

    // --- slow-query log ----------------------------------------------------
    let slow = SlowQueryLog::global().worst();
    let entry = slow
        .iter()
        .find(|q| q.trace_id == tid)
        .expect("traced query reached the slow-query log");
    assert_eq!(entry.result_rows, traced.rows.len());
    assert!(entry.seconds >= 0.0);
    assert!(
        !entry.spans.is_empty(),
        "slow-query entry keeps its span tree"
    );
    assert!(
        slow.windows(2).all(|w| w[0].seconds >= w[1].seconds),
        "worst first"
    );
    assert!(
        !slow.iter().any(|q| Some(q.trace_id) == untraced.trace_id),
        "untraced queries never reach the log"
    );
}
