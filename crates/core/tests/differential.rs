//! Differential tests: the morsel engine must return exactly the rows the
//! brute-force [`Model`] finds (every visible record through the exact
//! predicate, no imprints, grid or scan kernels) when it runs one inline
//! worker, and results **identical** to that at every worker count — same
//! `Selection.rows`, same Explain cardinalities (candidates, bbox
//! survivors, cell classes, exact tests) — for every predicate shape,
//! refinement strategy, and worker count, including queries degraded by
//! injected imprint-build faults.
//!
//! Every storage shape goes through the same checks: the flat cloud, a
//! streaming cloud mid-ingest — a sealed base plus a tail of committed and
//! uncommitted rows, so every query crosses the seam between the two —
//! and the shared workload sealed into tiles
//! and read out of core through [`PointTable::Tiled`] with a resident
//! budget below one tile (every query loads and evicts). A tiled table's
//! model holds the records in the sealed row order, read back from the
//! same directory opened flat.
//!
//! Worker counts default to `[2, 4, 8]`; set `LIDARDB_WORKERS=<n>` to pin
//! a single count (CI runs the suite at 2 and at 8 on top of the default).

use std::sync::{Arc, OnceLock};

use lidardb_core::{
    Aggregate, AttrRange, Durability, FaultInjector, FaultKind, FaultStage, GovernCtx, Parallelism,
    PointCloud, PointTable, RefineStrategy, Selection, SpatialPredicate, TileOptions, TiledCloud,
    MORSEL_MIN_ROWS,
};
use lidardb_geom::{buffer_polyline, Geometry, LineString, Point, Polygon, Ring};
use lidardb_las::PointRecord;
use lidardb_test_support::{resident_tiles, Model, ScratchDir};
use proptest::prelude::*;

// ---------------------------------------------------------------- fixtures

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

/// Uniform in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (lcg(state) % (1u64 << 53)) as f64 / (1u64 << 53) as f64
}

/// `n` pseudo-random points over `[0, 1000)²` with a dense band around
/// `y ∈ [400, 420)` (sorted-ish x inside the band produces all-qualify
/// imprint runs, exercising the sure-row skip).
fn build_cloud(n: usize, seed: u64) -> PointCloud {
    let mut pc = PointCloud::new();
    pc.append_records(&workload(n, seed)).unwrap();
    pc
}

/// The raw records behind [`build_cloud`], for tests that feed the same
/// workload through a different ingest path.
fn workload(n: usize, seed: u64) -> Vec<PointRecord> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            let banded = i % 5 == 0;
            let x = if banded {
                (i as f64 / n as f64) * 1000.0
            } else {
                unit(&mut s) * 1000.0
            };
            let y = if banded {
                400.0 + unit(&mut s) * 20.0
            } else {
                unit(&mut s) * 1000.0
            };
            PointRecord {
                x,
                y,
                z: unit(&mut s) * 120.0 - 10.0,
                classification: (lcg(&mut s) % 12) as u8,
                intensity: (lcg(&mut s) % 5000) as u16,
                gps_time: i as f64 * 1e-3,
                ..Default::default()
            }
        })
        .collect()
}

/// The shared 120k-point cloud (large enough that realistic predicates
/// exceed the `2 * MORSEL_MIN_ROWS` threshold and split into morsels).
fn shared_cloud() -> &'static Arc<PointCloud> {
    static CLOUD: OnceLock<Arc<PointCloud>> = OnceLock::new();
    CLOUD.get_or_init(|| Arc::new(build_cloud(SHARED_ROWS, SHARED_SEED)))
}

/// The shared cloud's model.
fn shared_model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| Model::new(workload(SHARED_ROWS, SHARED_SEED)))
}

const SHARED_ROWS: usize = 120_000;
const SHARED_SEED: u64 = 0xC0FFEE;

/// One input of the suite: the table the engine reads, and the model of
/// the same rows in the same order.
#[derive(Clone, Copy)]
struct Shape<'a> {
    table: PointTable<'a>,
    model: &'a Model,
}

impl<'a> Shape<'a> {
    fn flat(pc: &'a PointCloud, model: &'a Model) -> Self {
        Shape {
            table: PointTable::Flat(pc),
            model,
        }
    }

    fn shared() -> Shape<'static> {
        Shape::flat(shared_cloud(), shared_model())
    }

    fn select(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
    ) -> Selection {
        let ungoverned = GovernCtx::ungoverned();
        self.table
            .select(pred, attrs, strategy, parallelism, &ungoverned)
            .unwrap()
    }

    fn aggregate(&self, rows: &[usize], column: &str, agg: Aggregate, par: Parallelism) -> f64 {
        let ungoverned = GovernCtx::ungoverned();
        self.table
            .aggregate(rows, column, agg, par, &ungoverned)
            .unwrap()
            .unwrap()
    }
}

/// The shared workload sealed with `save_tiled` into a scratch directory
/// of this test's own and reopened lazily with a resident budget below one
/// tile, so every query loads and evicts. Its model reads the records back
/// from the directory opened flat, in the sealed order.
struct TiledShape {
    _dir: ScratchDir,
    tc: TiledCloud,
    model: Model,
}

impl TiledShape {
    fn new() -> TiledShape {
        let dir = ScratchDir::vacant("diff_tiled");
        let opts = TileOptions {
            target_rows: 30_000,
            ..Default::default()
        };
        let tiles = build_cloud(SHARED_ROWS, SHARED_SEED)
            .save_tiled(&dir, &opts)
            .unwrap();
        assert!(tiles >= 3, "the workload spans several tiles, got {tiles}");
        let tc = TiledCloud::open(&dir).unwrap();
        tc.set_resident_budget(1);
        let sealed = PointCloud::open_dir(&dir).unwrap();
        let records = (0..sealed.num_points())
            .map(|r| sealed.record(r).unwrap())
            .collect();
        TiledShape {
            _dir: dir,
            tc,
            model: Model::new(records),
        }
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            table: PointTable::Tiled(&self.tc),
            model: &self.model,
        }
    }
}

/// Every deterministic `Explain` counter as `(name, value)` pairs —
/// cardinalities and probe counts, no timings: what serial and parallel
/// runs of one query must agree on.
fn counters(e: &lidardb_core::Explain) -> Vec<(&'static str, usize)> {
    vec![
        ("after_imprints", e.after_imprints),
        ("sure_rows", e.sure_rows),
        ("after_bbox", e.after_bbox),
        ("cells_inside", e.cells_inside),
        ("cells_outside", e.cells_outside),
        ("cells_boundary", e.cells_boundary),
        ("exact_tests", e.exact_tests),
        ("attr_probes", e.attr_probes),
        ("degraded_probes", e.degraded_probes),
        ("result_rows", e.result_rows),
        ("bands_x", e.bands_x),
        ("bands_y", e.bands_y),
        ("grid_nx", e.grid_nx),
        ("grid_ny", e.grid_ny),
    ]
}

/// Run `check` on every shape: the shared workload's flat cloud, a
/// streaming cloud, then the shared workload's tiled copy. The tiled copy
/// must have loaded and evicted tiles.
fn for_each_shape(check: impl Fn(Shape)) {
    check(Shape::shared());
    check(StreamingShape::new(STREAMING_ROWS).shape());
    let tiled = TiledShape::new();
    check(tiled.shape());
    assert!(tiled.tc.tile_loads() > 0, "tiles load on demand");
    assert!(tiled.tc.tile_evictions() > 0, "the budget evicts");
    assert!(
        resident_tiles(&tiled.tc) <= 1,
        "the budget keeps one tile resident"
    );
}

fn worker_counts() -> Vec<usize> {
    match std::env::var("LIDARDB_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(w) => vec![w.max(2)],
        None => vec![2, 4, 8],
    }
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

fn road() -> SpatialPredicate {
    SpatialPredicate::DWithin(
        Geometry::LineString(
            LineString::new(vec![
                Point::new(0.0, 380.0),
                Point::new(500.0, 430.0),
                Point::new(1000.0, 410.0),
            ])
            .unwrap(),
        ),
        25.0,
    )
}

/// Assert the engine's one-worker rows are the model's answer, reporting
/// the first difference instead of printing two hundred-thousand-element
/// lists. `BboxOnly` stops after the filter step, so its answer is the
/// filter envelope's.
fn assert_model_rows(
    engine: &[usize],
    model: &Model,
    pred: Option<&SpatialPredicate>,
    attrs: &[AttrRange],
    strategy: RefineStrategy,
) {
    let bbox = |p: &SpatialPredicate| {
        let env = p.filter_envelope().expect("a predicate with an envelope");
        SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&env)))
    };
    let filter = pred
        .filter(|_| strategy == RefineStrategy::BboxOnly)
        .map(bbox);
    let expect = model.select(filter.as_ref().or(pred), attrs);
    let longest = engine.len().max(expect.len());
    if let Some(i) = (0..longest).find(|&i| engine.get(i) != expect.get(i)) {
        panic!(
            "one-worker rows differ from the model at position {i}: \
             engine {:?} vs model {:?} ({} vs {} rows)",
            engine.get(i),
            expect.get(i),
            engine.len(),
            expect.len()
        );
    }
}

/// Run the query on one inline worker and at every worker count; assert the
/// one-worker rows equal the model's and that rows AND all
/// Explain cardinalities are identical across worker counts. Returns the
/// one-worker rows.
fn assert_differential(
    shape: Shape,
    pred: Option<&SpatialPredicate>,
    attrs: &[AttrRange],
    strategy: RefineStrategy,
) -> Vec<usize> {
    let serial = shape.select(pred, attrs, strategy, Parallelism::Serial);
    assert_model_rows(&serial.rows, shape.model, pred, attrs, strategy);
    assert_morsels_partition_candidates(&shape, &serial.explain);
    let segments = segments_probed(&shape, &serial.explain);
    assert_eq!(
        serial.explain.workers,
        segments.min(1),
        "one worker runs one inline morsel"
    );
    assert!(
        serial.explain.morsel_times.len() <= segments,
        "one inline morsel per segment"
    );
    let tiled = matches!(shape.table, PointTable::Tiled(_));
    if tiled {
        let e = &serial.explain;
        assert!(
            e.tiles_loaded + 1 >= e.tiles_probed,
            "every probed tile but one loads"
        );
    }
    for &w in &worker_counts() {
        let par = shape.select(pred, attrs, strategy, Parallelism::Threads(w));
        assert_eq!(serial.rows, par.rows, "rows differ at {w} workers");
        let (a, b) = (&serial.explain, &par.explain);
        assert_eq!(a.after_imprints, b.after_imprints, "{w} workers");
        assert_eq!(a.sure_rows, b.sure_rows, "{w} workers");
        assert_eq!(a.after_bbox, b.after_bbox, "{w} workers");
        assert_eq!(
            (a.cells_inside, a.cells_outside, a.cells_boundary),
            (b.cells_inside, b.cells_outside, b.cells_boundary),
            "cell classes differ at {w} workers"
        );
        assert_eq!(a.exact_tests, b.exact_tests, "{w} workers");
        assert_eq!(a.attr_probes, b.attr_probes, "{w} workers");
        assert_eq!(a.degraded_probes, b.degraded_probes, "{w} workers");
        assert_eq!(a.result_rows, b.result_rows, "{w} workers");
        // The whole named-counter view must agree, not just the fields
        // spelled out above — new counters are covered automatically.
        assert_eq!(
            counters(&serial.explain),
            counters(&par.explain),
            "Explain counters differ at {w} workers"
        );
        assert_morsels_partition_candidates(&shape, b);
        let tiles = |e: &lidardb_core::Explain| (e.tiles_total, e.tiles_pruned, e.tiles_probed);
        assert_eq!(tiles(a), tiles(b), "tile pruning differs at {w} workers");
        if segments > 1 || tiled {
            // Morsels split per segment: only a segment with enough
            // candidates of its own fans out.
            assert!(b.workers <= w, "{w} workers");
            if b.after_imprints < 2 * MORSEL_MIN_ROWS {
                let inline = segments.min(1);
                assert_eq!(
                    b.workers, inline,
                    "small candidate sets stay one inline morsel"
                );
            }
        } else if b.after_imprints >= 2 * MORSEL_MIN_ROWS {
            assert_eq!(b.workers, w, "candidates split across the workers");
            assert!(b.morsel_times.len() > 1, "more than one morsel");
        } else {
            assert_eq!(b.workers, 1, "small candidate sets stay one inline morsel");
        }
    }
    serial.rows
}

/// The filter step's morsels cover the candidates exactly once and their
/// survivors are the bbox survivors; a single morsel reports one worker,
/// and a tiled query whose every tile was pruned ran none.
fn assert_morsels_partition_candidates(shape: &Shape, e: &lidardb_core::Explain) {
    let rows_in: usize = e.morsel_times.iter().map(|m| m.rows_in).sum();
    let rows_out: usize = e.morsel_times.iter().map(|m| m.rows_out).sum();
    assert_eq!(rows_in, e.after_imprints, "morsels partition candidates");
    assert_eq!(rows_out, e.after_bbox, "morsel survivors sum to bbox count");
    assert!(
        e.morsel_times.iter().all(|m| m.rows_in > 0),
        "no empty morsels"
    );
    if segments_probed(shape, e) == 0 {
        assert_eq!(e.workers, 0, "no segment ran");
    } else if e.morsel_times.len() <= 1 {
        assert_eq!(e.workers, 1, "one morsel runs on one worker");
    }
}

/// Segments the query ran its stages on: a flat table's first one, a
/// streaming table's tail as well once the snapshot reaches past the base,
/// and every tile of a tiled one that survived pruning.
fn segments_probed(shape: &Shape, e: &lidardb_core::Explain) -> usize {
    match shape.table {
        PointTable::Flat(pc) => {
            let streaming = pc.recovery_report().is_some();
            1 + usize::from(streaming && pc.visible_rows() > pc.column("x").unwrap().len())
        }
        PointTable::Tiled(_) => e.tiles_probed,
    }
}

// ---------------------------------------------------- deterministic suite

#[test]
fn differential_pure_bbox() {
    for_each_shape(|pc| {
        let window = rect(100.0, 100.0, 700.0, 650.0);
        assert_differential(pc, Some(&window), &[], RefineStrategy::default());
        // Narrow band: mostly sure runs from the dense cluster.
        let band = rect(0.0, 395.0, 1000.0, 425.0);
        assert_differential(pc, Some(&band), &[], RefineStrategy::default());
    });
}

#[test]
fn differential_polygon_all_strategies() {
    for_each_shape(|pc| {
        let pred = diamond(500.0, 500.0, 350.0);
        for strategy in [
            RefineStrategy::default(),
            RefineStrategy::Grid { cells: 8 },
            RefineStrategy::AdaptiveGrid,
            RefineStrategy::Exhaustive,
            RefineStrategy::BboxOnly,
        ] {
            assert_differential(pc, Some(&pred), &[], strategy);
        }
    });
}

/// Degenerate morsel shapes end to end: candidate sets with fewer rows
/// than workers, a sliver window cutting one run, and an empty window.
/// The parallel executor must merge byte-identical rows at 2/4/8 workers
/// with no empty morsels inflating the explain counters.
#[test]
fn differential_degenerate_candidate_sets() {
    for_each_shape(|pc| {
        // A few-row window: far fewer candidates than workers *
        // MORSEL_MIN_ROWS.
        assert_differential(
            pc,
            Some(&rect(0.0, 0.0, 4.0, 4.0)),
            &[],
            RefineStrategy::default(),
        );
        // A sliver that slices through the dense band (single clustered
        // run).
        assert_differential(
            pc,
            Some(&rect(499.0, 399.0, 501.0, 421.0)),
            &[],
            RefineStrategy::default(),
        );
        // An empty window: zero candidates, every worker count.
        let rows = assert_differential(
            pc,
            Some(&rect(2000.0, 2000.0, 2001.0, 2001.0)),
            &[],
            RefineStrategy::default(),
        );
        assert!(rows.is_empty());
        // Attr range matching almost nothing, combined with a huge window.
        assert_differential(
            pc,
            Some(&rect(0.0, 0.0, 1000.0, 1000.0)),
            &[AttrRange::new("intensity", 0.0, 0.0)],
            RefineStrategy::default(),
        );
    });
}

#[test]
fn differential_dwithin_line() {
    for_each_shape(|pc| {
        for strategy in [RefineStrategy::default(), RefineStrategy::AdaptiveGrid] {
            assert_differential(pc, Some(&road()), &[], strategy);
        }
    });
}

/// The water-body shape of the benchmark scene: a 64-vertex sine
/// centreline buffered into a 128-vertex corridor polygon.
fn water_corridor() -> Geometry {
    let line: Vec<Point> = (0..64)
        .map(|i| {
            let y = 1000.0 * i as f64 / 63.0;
            Point::new(500.0 + 150.0 * (y / 800.0 * std::f64::consts::TAU).sin(), y)
        })
        .collect();
    let corridor = buffer_polyline(&LineString::new(line).unwrap(), 20.0).unwrap();
    assert_eq!(corridor.exterior().vertices().len(), 128);
    Geometry::Polygon(corridor)
}

/// A concave "C" whose notch opens east, with a square hole in its spine.
fn holed_c() -> SpatialPredicate {
    let ring = |pts: &[(f64, f64)]| {
        Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    };
    SpatialPredicate::Within(Geometry::Polygon(Polygon::new(
        ring(&[
            (150.0, 150.0),
            (850.0, 180.0),
            (830.0, 380.0),
            (400.0, 390.0),
            (420.0, 610.0),
            (860.0, 640.0),
            (820.0, 860.0),
            (130.0, 840.0),
        ]),
        vec![ring(&[
            (200.0, 450.0),
            (330.0, 450.0),
            (330.0, 560.0),
            (200.0, 560.0),
        ])],
    )))
}

/// A workload of `rows` points ingested through the WAL of a scratch
/// directory of this test's own: the first third sealed and reopened as
/// the base, the rest appended to the tail, its last sixth applied but not
/// yet committed. Queries see the committed snapshot only, and so does the
/// model.
struct StreamingShape {
    _dir: ScratchDir,
    pc: PointCloud,
    model: Model,
}

/// Rows of the streaming shape [`for_each_shape`] checks.
const STREAMING_ROWS: usize = 36_000;

impl StreamingShape {
    fn new(rows: usize) -> StreamingShape {
        let dir = ScratchDir::vacant("diff_stream");
        let durability = Durability::GroupCommit {
            max_batches: 1_000,
            max_delay: std::time::Duration::from_secs(3_600),
        };
        let recs = workload(rows, SHARED_SEED);
        let (sealed, committed) = (rows / 3, rows / 6 * 5);
        let mut pc = PointCloud::open_ingest(&dir, durability).unwrap();
        for chunk in recs[..sealed].chunks(10_000) {
            pc.ingest_records(chunk).unwrap();
        }
        pc.seal().unwrap();
        drop(pc);
        let mut pc = PointCloud::open_ingest(&dir, durability).unwrap();
        assert_eq!(
            pc.column("x").unwrap().len(),
            sealed,
            "the sealed rows are the base"
        );
        for chunk in recs[sealed..committed].chunks(10_000) {
            pc.ingest_records(chunk).unwrap();
        }
        pc.flush_wal().unwrap();
        pc.ingest_records(&recs[committed..]).unwrap();
        assert_eq!(
            pc.visible_rows(),
            committed,
            "the last rows are not yet visible"
        );
        assert_eq!(pc.num_points(), rows);
        StreamingShape {
            _dir: dir,
            pc,
            model: Model::new(recs).with_visible(committed),
        }
    }

    fn shape(&self) -> Shape<'_> {
        Shape::flat(&self.pc, &self.model)
    }
}

/// Refinement through the prepared edge index, on the shapes it exists
/// for: the many-edge water corridor under containment and at distances
/// 0, 1 and 5, and a concave polygon with a hole, each against the
/// model's per-call predicate at every worker count.
fn check_corridor_and_holed_polygon(shape: Shape) {
    let corridor = water_corridor();
    for pred in [
        SpatialPredicate::Within(corridor.clone()),
        SpatialPredicate::DWithin(corridor.clone(), 0.0),
        SpatialPredicate::DWithin(corridor.clone(), 1.0),
        SpatialPredicate::DWithin(corridor, 5.0),
        holed_c(),
    ] {
        let rows = assert_differential(shape, Some(&pred), &[], RefineStrategy::default());
        assert!(!rows.is_empty(), "{pred:?} selects rows");
    }
}

#[test]
fn differential_corridor_and_holed_polygon_flat() {
    check_corridor_and_holed_polygon(Shape::shared());
}

#[test]
fn differential_corridor_and_holed_polygon_tiled() {
    let tiled = TiledShape::new();
    check_corridor_and_holed_polygon(tiled.shape());
    assert!(tiled.tc.tile_evictions() > 0, "the budget evicts");
}

#[test]
fn differential_corridor_and_holed_polygon_streaming() {
    check_corridor_and_holed_polygon(StreamingShape::new(STREAMING_ROWS).shape());
}

/// The east–west chevron corridor of the scene's motorway zone, through
/// the dense band: its band table cuts x.
fn chevron_corridor() -> Geometry {
    let centre = LineString::new(vec![
        Point::new(0.0, 330.0),
        Point::new(500.0, 470.0),
        Point::new(1000.0, 380.0),
    ])
    .unwrap();
    Geometry::Polygon(buffer_polyline(&centre, 23.0).unwrap())
}

/// The band-masked filter on the shapes it is built for and the one it
/// drops: the chevron corridor and an axis-parallel line (every band spans
/// the envelope, so no table), each under `ST_DWithin` plus an attribute
/// range, refined by grid and exhaustively.
fn check_banded_filters(shape: Shape) {
    let attrs = [AttrRange::new("classification", 2.0, 7.0)];
    let axis_line = Geometry::LineString(
        LineString::new(vec![Point::new(0.0, 410.0), Point::new(1000.0, 410.0)]).unwrap(),
    );
    let cases = [
        (SpatialPredicate::DWithin(chevron_corridor(), 2.5), true),
        (SpatialPredicate::DWithin(chevron_corridor(), 0.0), true),
        (SpatialPredicate::DWithin(axis_line, 5.5), false),
    ];
    for (pred, banded) in &cases {
        for strategy in [RefineStrategy::default(), RefineStrategy::Exhaustive] {
            let rows = assert_differential(shape, Some(pred), &attrs, strategy);
            assert!(!rows.is_empty(), "{pred:?} selects rows");
        }
        let e = shape.select(
            Some(pred),
            &attrs,
            RefineStrategy::default(),
            Parallelism::Serial,
        );
        let e = e.explain;
        assert_eq!((e.bands_x > 0, e.bands_y), (*banded, 0), "{pred:?}");
    }
}

#[test]
fn differential_banded_filters_flat() {
    check_banded_filters(Shape::shared());
}

#[test]
fn differential_banded_filters_tiled() {
    check_banded_filters(TiledShape::new().shape());
}

#[test]
fn differential_banded_filters_streaming() {
    check_banded_filters(StreamingShape::new(STREAMING_ROWS).shape());
}

#[test]
fn differential_attrs_only() {
    for_each_shape(|pc| {
        assert_differential(
            pc,
            None,
            &[AttrRange::new("classification", 2.0, 6.0)],
            RefineStrategy::default(),
        );
        assert_differential(
            pc,
            None,
            &[
                AttrRange::new("z", 0.0, 80.0),
                AttrRange::new("intensity", 100.0, 4000.0),
            ],
            RefineStrategy::default(),
        );
    });
}

#[test]
fn differential_spatial_plus_attrs() {
    for_each_shape(|pc| {
        let attrs = [
            AttrRange::new("classification", 0.0, 8.0),
            AttrRange::new("z", -5.0, 100.0),
        ];
        let diamond = diamond(400.0, 450.0, 300.0);
        assert_differential(pc, Some(&diamond), &attrs, RefineStrategy::default());
        assert_differential(pc, Some(&road()), &attrs, RefineStrategy::AdaptiveGrid);
    });
}

#[test]
fn differential_mid_ingest_snapshot() {
    // The executor parity contract must hold against a *live* ingesting
    // cloud: with group commit deferring durability, the WAL has applied
    // rows past the visibility watermark. Serial and every parallel run
    // must return byte-identical results, and all of them must see exactly
    // the committed snapshot — never the unacknowledged tail.
    let dir = ScratchDir::vacant("diff_ingest");
    let recs = workload(80_000, 0xD1FF);
    let mut model = Model::new(recs.clone()).with_visible(60_000);
    let durability = Durability::GroupCommit {
        max_batches: 1_000,
        max_delay: std::time::Duration::from_secs(3_600),
    };
    let mut pc = PointCloud::open_ingest(&dir, durability).unwrap();
    for chunk in recs[..60_000].chunks(10_000) {
        pc.ingest_records(chunk).unwrap();
    }
    pc.flush_wal().unwrap(); // commit: rows 0..60_000 become the snapshot
    for chunk in recs[60_000..].chunks(5_000) {
        assert!(!pc.ingest_records(chunk).unwrap(), "tail must be unacked");
    }
    assert_eq!(pc.num_points(), 80_000, "tail is applied");
    assert_eq!(pc.visible_rows(), 60_000, "but not visible");

    let pred = rect(0.0, 350.0, 1000.0, 500.0);
    let attrs = [AttrRange::new("classification", 0.0, 8.0)];
    // The model's watermark is the committed prefix: no ghost rows.
    let rows = assert_differential(
        Shape::flat(&pc, &model),
        Some(&pred),
        &attrs,
        RefineStrategy::default(),
    );
    assert!(!rows.is_empty(), "snapshot query finds the dense band");

    // After the flush the watermark advances and the same query picks up
    // the tail — again identically across executors.
    pc.flush_wal().unwrap();
    assert_eq!(pc.visible_rows(), 80_000);
    model.set_visible(80_000);
    let rows2 = assert_differential(
        Shape::flat(&pc, &model),
        Some(&pred),
        &attrs,
        RefineStrategy::default(),
    );
    assert!(rows2.len() > rows.len(), "flushed tail joins the result");
}

#[test]
fn differential_small_cloud_stays_serial() {
    let pc = build_cloud(2000, 7);
    let rows = assert_differential(
        Shape::flat(&pc, &Model::new(workload(2000, 7))),
        Some(&rect(0.0, 0.0, 1000.0, 1000.0)),
        &[],
        RefineStrategy::default(),
    );
    assert_eq!(rows.len(), 2000);
}

#[test]
fn differential_with_injected_imprint_faults() {
    // A failed imprint build degrades the probe (no pruning, exact scan
    // enforces the predicate); every worker count must degrade identically,
    // and to exactly the model's rows.
    let model = Model::new(workload(40_000, 99));
    for target in [Some("x"), None] {
        let mut pc = build_cloud(40_000, 99);
        let fi = Arc::new(FaultInjector::new());
        // Fire on every build attempt (failed builds are not cached, so
        // every run re-hits the injector).
        fi.inject_n(
            FaultStage::ImprintBuild,
            target,
            FaultKind::IoError,
            0,
            u32::MAX,
        );
        pc.set_fault_injector(Arc::clone(&fi));
        let serial = pc
            .select_query_with(
                Some(&diamond(500.0, 500.0, 400.0)),
                &[AttrRange::new("classification", 1.0, 9.0)],
                RefineStrategy::default(),
                Parallelism::Serial,
            )
            .unwrap();
        assert!(serial.explain.degraded_probes > 0, "fault fired");
        assert_model_rows(
            &serial.rows,
            &model,
            Some(&diamond(500.0, 500.0, 400.0)),
            &[AttrRange::new("classification", 1.0, 9.0)],
            RefineStrategy::default(),
        );
        for &w in &worker_counts() {
            let par = pc
                .select_query_with(
                    Some(&diamond(500.0, 500.0, 400.0)),
                    &[AttrRange::new("classification", 1.0, 9.0)],
                    RefineStrategy::default(),
                    Parallelism::Threads(w),
                )
                .unwrap();
            assert_eq!(serial.rows, par.rows, "degraded rows differ at {w} workers");
            assert_eq!(serial.explain.degraded_probes, par.explain.degraded_probes);
            assert_eq!(serial.explain.result_rows, par.explain.result_rows);
            assert_eq!(
                counters(&serial.explain),
                counters(&par.explain),
                "degraded Explain counters differ at {w} workers"
            );
        }
    }
}

#[test]
fn differential_aggregates() {
    for_each_shape(|pc| {
        let rows = assert_differential(
            pc,
            Some(&rect(50.0, 50.0, 950.0, 950.0)),
            &[],
            RefineStrategy::default(),
        );
        assert!(
            rows.len() >= 2 * MORSEL_MIN_ROWS,
            "aggregate splits into morsels"
        );
        for column in ["z", "intensity", "classification", "gps_time"] {
            for agg in [
                Aggregate::Sum,
                Aggregate::Avg,
                Aggregate::Min,
                Aggregate::Max,
            ] {
                let serial = pc.aggregate(&rows, column, agg, Parallelism::Serial);
                // A tiled fold merges per-tile states: within 1e-9
                // relative of the model over the same rows, and
                // bit-identical on Min/Max.
                let model = pc.model.aggregate(&rows, column, agg).unwrap().as_f64();
                match agg {
                    Aggregate::Min | Aggregate::Max => assert_eq!(serial, model),
                    _ => assert!(
                        (serial - model).abs() <= 1e-9 * model.abs().max(1.0),
                        "{column} {agg:?}: {serial} vs model {model}"
                    ),
                }
                for &w in &worker_counts() {
                    let par = pc.aggregate(&rows, column, agg, Parallelism::Threads(w));
                    match agg {
                        // Min/Max are order-independent: bit-identical.
                        Aggregate::Min | Aggregate::Max => {
                            assert_eq!(serial, par, "{column} {agg:?}")
                        }
                        // Compensated sums may differ in the last ulps when
                        // per-morsel states merge; both stay within 1e-12
                        // relative of each other.
                        _ => {
                            let tol = 1e-12 * serial.abs().max(1.0);
                            assert!(
                                (serial - par).abs() <= tol,
                                "{column} {agg:?} at {w} workers: {serial} vs {par}"
                            );
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn differential_span_trees_serial_vs_parallel() {
    // Traced one-worker and four-worker runs must produce span trees with
    // the same stage set and identical per-stage row counts; they differ
    // only in how many morsel spans sit under the bbox scan.
    let pc = shared_cloud();
    let pred = diamond(500.0, 500.0, 350.0);
    // Warm the lazy imprints so neither traced run records a build span.
    pc.select_query_with(
        Some(&pred),
        &[],
        RefineStrategy::default(),
        Parallelism::default(),
    )
    .unwrap();

    let (serial, par);
    {
        let _traced = lidardb_core::trace::force_thread();
        serial = pc
            .select_query_with(
                Some(&pred),
                &[],
                RefineStrategy::default(),
                Parallelism::Serial,
            )
            .unwrap();
        par = pc
            .select_query_with(
                Some(&pred),
                &[],
                RefineStrategy::default(),
                Parallelism::Threads(4),
            )
            .unwrap();
    }
    assert_eq!(serial.rows, par.rows);
    let serial_tid = serial.trace_id.expect("serial run traced");
    let par_tid = par.trace_id.expect("parallel run traced");
    assert_ne!(serial_tid, par_tid, "each query gets its own trace id");

    let sink = lidardb_core::Tracer::global().snapshot();
    let stage_rows = |tid: u64| {
        let spans = sink.for_trace(tid).spans;
        assert!(!spans.is_empty(), "trace {tid:#x} captured");
        let mut v: Vec<(&'static str, u64)> = spans
            .iter()
            .filter(|s| s.kind.name() != "morsel")
            .map(|s| (s.kind.name(), s.rows_out))
            .collect();
        v.sort_unstable();
        v
    };
    let serial_tree = stage_rows(serial_tid);
    assert_eq!(
        serial_tree,
        stage_rows(par_tid),
        "serial and parallel span trees disagree on stages or row counts"
    );
    for want in ["query", "imprint_probe", "bbox_scan", "grid_refine"] {
        assert!(
            serial_tree.iter().any(|(n, _)| *n == want),
            "missing {want}"
        );
    }

    // Morsel spans partition the candidates at any worker count: exactly
    // one, on the calling thread, for the inline worker.
    let morsel_spans = |tid: u64| -> Vec<_> {
        sink.for_trace(tid)
            .spans
            .into_iter()
            .filter(|s| s.kind.name() == "morsel")
            .collect()
    };
    let inline = morsel_spans(serial_tid);
    assert_eq!(inline.len(), 1, "one worker runs one morsel");
    let root = sink
        .for_trace(serial_tid)
        .spans
        .into_iter()
        .find(|s| s.kind.name() == "query")
        .expect("root span");
    assert_eq!(
        inline[0].thread, root.thread,
        "the inline morsel runs on the query's thread"
    );
    for (sel, morsels) in [(&serial, inline), (&par, morsel_spans(par_tid))] {
        assert_eq!(morsels.len(), sel.explain.morsel_times.len());
        let rows_in: u64 = morsels.iter().map(|m| m.rows_in).sum();
        let rows_out: u64 = morsels.iter().map(|m| m.rows_out).sum();
        assert_eq!(
            rows_in, sel.explain.after_imprints as u64,
            "morsels partition candidates"
        );
        assert_eq!(
            rows_out, sel.explain.after_bbox as u64,
            "morsel survivors sum to bbox count"
        );
    }
    assert!(
        par.explain.morsel_times.len() > 1,
        "the 120k cloud splits at four workers"
    );
}

// ------------------------------------------- governance / cancellation

/// Run one governed query against a fresh cloud with `rules` injected,
/// returning the result as `Ok(rows)` or the error's rendered form.
fn governed_run(
    workers: Parallelism,
    deadline: Option<std::time::Duration>,
    rules: &[(FaultStage, Option<&str>, FaultKind)],
) -> Result<Vec<usize>, String> {
    let mut pc = build_cloud(20_000, 0xFEED);
    let fi = Arc::new(FaultInjector::new());
    for (stage, target, kind) in rules {
        fi.inject(*stage, *target, *kind);
    }
    pc.set_fault_injector(fi);
    let table = PointTable::Flat(&pc);
    let attrs = [AttrRange::new("classification", 1.0, 9.0)];
    table
        .govern("select within (1 attr filters)", deadline, None)
        .and_then(|g| {
            let pred = diamond(500.0, 500.0, 400.0);
            table.select(
                Some(&pred),
                &attrs,
                RefineStrategy::default(),
                workers,
                &g.ctx,
            )
        })
        .map(|sel| sel.rows)
        .map_err(|e| e.to_string())
}

#[test]
fn differential_cancel_fault_is_identical_serial_and_parallel() {
    // The Cancel fault targets the "query" checkpoint, which runs before
    // any morsel is split off — every worker count must return
    // byte-identical Cancelled errors.
    let rules = [(
        FaultStage::QueryCheckpoint,
        Some("query"),
        FaultKind::Cancel,
    )];
    let serial = governed_run(Parallelism::Serial, None, &rules).unwrap_err();
    assert!(
        serial.contains("cancelled") && serial.contains("killed"),
        "{serial}"
    );
    for &w in &worker_counts() {
        let par = governed_run(Parallelism::Threads(w), None, &rules).unwrap_err();
        assert_eq!(serial, par, "cancelled errors differ at {w} workers");
    }
}

#[test]
fn differential_stall_fault_trips_deadline_identically() {
    // Stall sleeps at the checkpoint; the expired deadline then trips at
    // that same checkpoint with zero partial rows at every worker count.
    let rules = [(
        FaultStage::QueryCheckpoint,
        Some("query"),
        FaultKind::Stall(30),
    )];
    let deadline = Some(std::time::Duration::from_millis(5));
    let serial = governed_run(Parallelism::Serial, deadline, &rules).unwrap_err();
    assert!(serial.contains("deadline"), "{serial}");
    assert!(serial.contains("after 0 partial rows"), "{serial}");
    for &w in &worker_counts() {
        let par = governed_run(Parallelism::Threads(w), deadline, &rules).unwrap_err();
        assert_eq!(serial, par, "deadline errors differ at {w} workers");
    }
}

#[test]
fn differential_stall_without_deadline_leaves_results_identical() {
    // A Stall fault alone (no deadline to trip) slows the query down but
    // must not change its result: every worker count stays byte-identical
    // with the others and with the ungoverned baseline.
    let baseline = governed_run(Parallelism::Serial, None, &[]).unwrap();
    for site in ["query", "bbox_scan"] {
        let rules = [(FaultStage::QueryCheckpoint, Some(site), FaultKind::Stall(5))];
        let serial = governed_run(Parallelism::Serial, None, &rules).unwrap();
        assert_eq!(baseline, serial, "stall at {site} changed serial rows");
        for &w in &worker_counts() {
            let par = governed_run(Parallelism::Threads(w), None, &rules).unwrap();
            assert_eq!(baseline, par, "stall at {site} changed rows at {w} workers");
        }
    }
}

// ------------------------------------------------------- randomised sweep

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_equals_serial_on_random_queries(
        ax in 0.0f64..1000.0,
        ay in 0.0f64..1000.0,
        w in 50.0f64..900.0,
        h in 50.0f64..900.0,
        shape in 0usize..3,
        strategy_idx in 0usize..5,
        attr_idx in 0usize..4,
        workers in 2usize..9,
        inject in 0usize..4,
    ) {
        let (bx, by) = ((ax + w).min(1000.0), (ay + h).min(1000.0));
        let pred = match shape {
            0 => rect(ax, ay, bx, by),
            1 => diamond((ax + bx) / 2.0, (ay + by) / 2.0, (bx - ax).max(by - ay) / 2.0),
            _ => SpatialPredicate::DWithin(
                Geometry::LineString(
                    LineString::new(vec![Point::new(ax, ay), Point::new(bx, by)]).unwrap(),
                ),
                30.0,
            ),
        };
        let strategy = match strategy_idx {
            0 => RefineStrategy::default(),
            1 => RefineStrategy::Grid { cells: 16 },
            2 => RefineStrategy::AdaptiveGrid,
            3 => RefineStrategy::Exhaustive,
            _ => RefineStrategy::BboxOnly,
        };
        let attrs: Vec<AttrRange> = match attr_idx {
            0 => vec![],
            1 => vec![AttrRange::new("classification", 1.0, 7.0)],
            2 => vec![AttrRange::new("z", -2.0, 90.0)],
            _ => vec![
                AttrRange::new("intensity", 50.0, 4500.0),
                AttrRange::new("classification", 0.0, 10.0),
            ],
        };
        // `inject == 0` exercises the degraded-probe path on a fresh cloud;
        // the other cases share the big fixture.
        if inject == 0 {
            let mut pc = build_cloud(30_000, ax.to_bits() ^ ay.to_bits());
            let fi = Arc::new(FaultInjector::new());
            fi.inject_n(FaultStage::ImprintBuild, None, FaultKind::IoError, 0, u32::MAX);
            pc.set_fault_injector(fi);
            let serial = pc
                .select_query_with(Some(&pred), &attrs, strategy, Parallelism::Serial)
                .unwrap();
            let par = pc
                .select_query_with(Some(&pred), &attrs, strategy, Parallelism::Threads(workers))
                .unwrap();
            prop_assert!(serial.explain.degraded_probes > 0);
            prop_assert_eq!(serial.rows, par.rows);
        } else {
            let pc = shared_cloud();
            let serial = pc
                .select_query_with(Some(&pred), &attrs, strategy, Parallelism::Serial)
                .unwrap();
            let par = pc
                .select_query_with(Some(&pred), &attrs, strategy, Parallelism::Threads(workers))
                .unwrap();
            prop_assert_eq!(&serial.rows, &par.rows);
            prop_assert_eq!(serial.explain.after_bbox, par.explain.after_bbox);
            prop_assert_eq!(serial.explain.result_rows, par.explain.result_rows);
            prop_assert_eq!(serial.explain.exact_tests, par.explain.exact_tests);
        }
    }
}
