//! One clock reading per stage: a stage's registry sample, its span and
//! the `Explain` or report field its caller fills are one measurement, so
//! they agree to the nanosecond. The file holds a single `#[test]`, so
//! nothing else in its process moves the global registry or the tracer.

use lidardb_core::{
    trace, Aggregate, Durability, GovernCtx, LoadMethod, Loader, MetricsRegistry, Parallelism,
    PointCloud, PointTable, RefineStrategy, SpanKind, SpatialPredicate, Stage, Tracer,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::{write_las_file, Compression, LasHeader, PointRecord};
use lidardb_test_support::ScratchDir;

/// `n` points on a 200-wide grid.
fn records(n: usize) -> Vec<PointRecord> {
    (0..n)
        .map(|i| PointRecord {
            x: (i % 200) as f64,
            y: (i / 200) as f64,
            z: (i % 97) as f64,
            ..Default::default()
        })
        .collect()
}

/// A pentagon around the grid's centre, so refinement has real work.
fn pentagon() -> SpatialPredicate {
    let ring = (0..5)
        .map(|k| {
            let a = std::f64::consts::TAU * k as f64 / 5.0;
            Point::new(100.0 + 70.0 * a.cos(), 100.0 + 70.0 * a.sin())
        })
        .collect();
    SpatialPredicate::Within(Geometry::Polygon(Polygon::from_exterior(ring).unwrap()))
}

/// A stage's registry total, in nanoseconds.
fn nanos(stage: Stage) -> u64 {
    MetricsRegistry::global().stage(stage).nanos.get()
}

/// Seconds as whole nanoseconds: exact for durations this short.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

#[test]
fn each_stage_is_measured_once() {
    let registry = MetricsRegistry::global();
    let before = Stage::ALL.map(nanos);
    let delta = |stage: Stage| nanos(stage) - before[stage as usize];

    // A traced select on a fresh cloud, whose x/y imprints are built
    // lazily inside the probe, then an aggregate over its rows.
    trace::set_enabled(true);
    Tracer::global().clear();
    let mut pc = PointCloud::new();
    pc.append_records(&records(40_000)).unwrap();
    let sel = pc
        .select_query_with(
            Some(&pentagon()),
            &[],
            RefineStrategy::default(),
            Parallelism::Threads(2),
        )
        .unwrap();
    assert!(!sel.rows.is_empty());
    PointTable::Flat(&pc)
        .aggregate(
            &sel.rows,
            "z",
            Aggregate::Avg,
            Parallelism::Threads(2),
            &GovernCtx::ungoverned(),
        )
        .unwrap();
    trace::set_enabled(false);

    let spans = Tracer::global().snapshot().spans;
    let span_ns = |stage: Stage| -> u64 {
        spans
            .iter()
            .filter(|s| s.kind == SpanKind::Stage(stage))
            .map(|s| s.dur_ns)
            .sum()
    };
    for stage in [
        Stage::BboxScan,
        Stage::GridRefine,
        Stage::Morsel,
        Stage::Aggregate,
    ] {
        assert!(span_ns(stage) > 0, "no {} span", stage.name());
        assert_eq!(delta(stage), span_ns(stage), "{}", stage.name());
    }
    // The probe's span nests its imprint builds; its registry sample
    // leaves them out.
    assert!(span_ns(Stage::ImprintBuild) > 0, "the probe built imprints");
    assert_eq!(
        delta(Stage::ImprintProbe),
        span_ns(Stage::ImprintProbe) - span_ns(Stage::ImprintBuild)
    );
    let e = &sel.explain;
    assert_eq!(ns(e.t_bbox), delta(Stage::BboxScan));
    assert_eq!(ns(e.t_imprints), delta(Stage::ImprintProbe));
    assert_eq!(ns(e.t_imprint_build), delta(Stage::ImprintBuild));
    assert_eq!(ns(e.t_refine), delta(Stage::GridRefine));

    // A reopen's report carries its `Recover` sample, and the sealed
    // dump it reads first is timed once, as `PersistLoad`: the two
    // stages fit inside the reopen's wall time.
    let dir = ScratchDir::vacant("stage_timing_ingest");
    let mut sealed = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    sealed.append_records(&records(40_000)).unwrap();
    sealed.seal().unwrap();
    sealed.append_records(&records(2_000)).unwrap();
    drop(sealed);
    let (recover, load) = (nanos(Stage::Recover), nanos(Stage::PersistLoad));
    let t0 = std::time::Instant::now();
    let reopened = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    let wall = t0.elapsed().as_nanos() as u64;
    let report = reopened.recovery_report().unwrap();
    assert_eq!((report.base_rows, report.replayed_rows), (40_000, 2_000));
    assert_eq!(ns(report.seconds), nanos(Stage::Recover) - recover);
    let stages = (nanos(Stage::Recover) - recover) + (nanos(Stage::PersistLoad) - load);
    assert!(
        nanos(Stage::PersistLoad) > load && stages <= wall,
        "persist_load + recover = {stages} ns over a {wall} ns reopen"
    );
    drop(reopened);

    // A bulk load's report carries the loader's `PersistLoad` sample.
    let files = ScratchDir::new("stage_timing_load");
    let path = files.join("tile.las");
    let header = LasHeader::builder().compression(Compression::None).build();
    write_las_file(&path, header, &records(3_000)).unwrap();
    let load = nanos(Stage::PersistLoad);
    let report = Loader::new(LoadMethod::Binary)
        .load_files_report(&mut PointCloud::new(), &[path])
        .unwrap();
    assert_eq!(report.stats.points, 3_000);
    assert_eq!(
        ns(report.stats.wall_seconds),
        nanos(Stage::PersistLoad) - load
    );

    // `reset` walks the whole series list, the counters of the crates
    // below core included.
    let value = |name: &str| {
        MetricsRegistry::SERIES
            .iter()
            .find(|s| s.name == name)
            .unwrap()
            .value(registry)
    };
    for name in [
        "imprint_probes",
        "imprint_candidate_rows",
        "scan_rows_examined",
        "scan_calls",
    ] {
        assert_ne!(value(name), 0, "{name} never moved");
    }
    registry.reset();
    for series in MetricsRegistry::SERIES {
        assert_eq!(series.value(registry), 0, "{} survived reset", series.name);
    }
    for stage in Stage::ALL {
        assert_eq!(registry.stage(stage).calls.get(), 0, "{}", stage.name());
    }
}
