//! Smoke tests for the metrics registry: stage timers stay within a
//! generous tolerance of wall-clock, and the process-wide counters and
//! stage samples move when queries run — with the `trace` feature compiled
//! out too (`scripts/ci.sh` runs this file under `--no-default-features`),
//! where every stage guard's span is inert but its registry sample is not.
//!
//! The registry is process-global and test threads share it, so every
//! cross-operation assertion here is monotone (`>=` deltas) rather than
//! exact, and the end-to-end checks live in a single `#[test]` so they
//! observe one coherent sequence of their own operations.

use std::sync::Arc;
use std::time::Instant;

use lidardb_core::{
    Aggregate, AttrRange, GovernCtx, MetricsRegistry, Parallelism, PointCloud, PointTable,
    RefineStrategy, SpatialPredicate, Stage,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;

// -------------------------------------------------------------- fixtures

fn cloud(n: usize) -> PointCloud {
    let side = (n as f64).sqrt().ceil() as usize;
    let recs: Vec<PointRecord> = (0..n)
        .map(|i| PointRecord {
            x: (i % side) as f64,
            y: (i / side) as f64,
            z: (i % 97) as f64,
            classification: (i % 11) as u8,
            intensity: (i % 3000) as u16,
            ..Default::default()
        })
        .collect();
    let mut pc = PointCloud::new();
    pc.append_records(&recs).unwrap();
    pc
}

fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(min_x, min_y),
            Point::new(max_x, min_y),
            Point::new(max_x, max_y),
            Point::new(min_x, max_y),
        ])
        .unwrap(),
    ))
}

// ----------------------------------------------------------------- tests

#[test]
fn metrics_smoke() {
    let metrics = MetricsRegistry::global();
    let pc = Arc::new(cloud(20_000));
    let pred = rect(10.0, 10.0, 120.0, 120.0);

    // --- per-query Explain: stage timers bounded by wall-clock -----------
    let queries_before = metrics.queries.get();
    let probe_calls_before = metrics.stage(Stage::ImprintProbe).calls.get();
    let bbox_calls_before = metrics.stage(Stage::BboxScan).calls.get();
    let refine_calls_before = metrics.stage(Stage::GridRefine).calls.get();
    let probe_rows_before = metrics.stage(Stage::ImprintProbe).rows.get();
    let wall = Instant::now();
    let sel = pc
        .select_query_with(
            Some(&pred),
            &[AttrRange::new("classification", 1.0, 8.0)],
            RefineStrategy::default(),
            Parallelism::Serial,
        )
        .unwrap();
    let wall = wall.elapsed().as_secs_f64();
    assert!(!sel.rows.is_empty());
    let e = &sel.explain;
    for t in [e.t_imprint_build, e.t_imprints, e.t_bbox, e.t_refine] {
        assert!(t >= 0.0, "{e:?}");
    }
    // The stage timings are disjoint sub-spans of the query, so their sum
    // cannot meaningfully exceed the enclosing wall-clock. Generous
    // tolerance: CI machines are noisy.
    assert!(
        e.total_seconds() <= wall * 1.5 + 0.05,
        "stage sum {} vs wall {}",
        e.total_seconds(),
        wall
    );
    // Only this test queries the global registry in this binary, so the
    // probe-row delta is exactly this query's candidate cardinality.
    assert_eq!(
        metrics.stage(Stage::ImprintProbe).rows.get() - probe_rows_before,
        e.after_imprints as u64,
        "the registry's probe rows carry the candidate cardinality"
    );

    // --- registry counters are monotone and moved --------------------------
    assert!(metrics.queries.get() > queries_before, "query counted");
    assert!(
        metrics.stage(Stage::ImprintProbe).calls.get() > probe_calls_before,
        "probe stage recorded"
    );
    for (stage, before) in [
        (Stage::BboxScan, bbox_calls_before),
        (Stage::GridRefine, refine_calls_before),
    ] {
        assert!(
            metrics.stage(stage).calls.get() > before,
            "{} stage recorded",
            stage.name()
        );
    }
    let s = metrics.stage(Stage::ImprintProbe);
    let hist_total: u64 = s.latency.counts().iter().sum();
    assert!(
        hist_total >= s.calls.get() - probe_calls_before,
        "latency observed"
    );

    // An aggregate records its own stage.
    let agg_calls = metrics.stage(Stage::Aggregate).calls.get();
    let ungoverned = GovernCtx::ungoverned();
    PointTable::Flat(&pc)
        .aggregate(
            &sel.rows,
            "z",
            Aggregate::Avg,
            Parallelism::Serial,
            &ungoverned,
        )
        .unwrap();
    assert!(metrics.stage(Stage::Aggregate).calls.get() > agg_calls);

    // Registry stage seconds stay sane: the probe stage's accumulated time
    // is positive only if calls happened, and within tolerance of the sum
    // of what this test observed (other tests may add, never subtract).
    assert!(metrics.stage(Stage::ImprintProbe).seconds() >= 0.0);
}

/// N threads hammering `record_stage` concurrently must lose nothing:
/// calls, rows, and nanos all sum exactly. Uses a local registry so no
/// other test's traffic can perturb the totals.
#[test]
fn concurrent_record_stage_sums_exactly() {
    use std::time::Duration;

    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let metrics = Arc::new(MetricsRegistry::default());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let metrics = Arc::clone(&metrics);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Varied rows/nanos so dropped updates can't cancel out.
                    metrics.record_stage(
                        Stage::BboxScan,
                        (t * PER_THREAD + i) as usize % 1000,
                        Duration::from_nanos(1 + i % 7),
                    );
                }
            });
        }
    });

    let s = metrics.stage(Stage::BboxScan);
    assert_eq!(s.calls.get(), THREADS * PER_THREAD);
    let expect_rows: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t * PER_THREAD + i) % 1000))
        .sum();
    assert_eq!(s.rows.get(), expect_rows);
    let expect_nanos: u64 = THREADS * (0..PER_THREAD).map(|i| 1 + i % 7).sum::<u64>();
    assert_eq!(s.nanos.get(), expect_nanos);
    // Every call landed in exactly one latency bucket.
    let hist: u64 = s.latency.counts().iter().sum();
    assert_eq!(hist, THREADS * PER_THREAD);
}
