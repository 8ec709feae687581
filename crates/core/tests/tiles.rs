//! Tiled, out-of-core segment storage: roundtrip, pruning, budget/LRU and
//! compatibility tests. The `out_of_core_*` test doubles as the CI smoke:
//! a dataset bigger than the resident budget must stay exactly queryable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use lidardb_core::{
    wal, Aggregate, AttrRange, CoreError, Durability, GovernCtx, Parallelism, PointCloud,
    PointTable, RefineStrategy, SpatialPredicate, TileOptions, TiledCloud,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;

/// A scratch directory of one test's own (pid + per-process counter, so
/// concurrent runs never share one). It and its sibling ingest WAL
/// (`<dir>.wal`, which would replay against a fresh dump) are cleared now
/// and removed when the guard drops.
struct TempDir(PathBuf);

fn tdir(name: &str) -> TempDir {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = TempDir(std::env::temp_dir().join(format!(
        "lidardb_tiles_{name}_{}_{n}",
        std::process::id()
    )));
    d.clear();
    d
}

impl TempDir {
    fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(wal::wal_path_for(&self.0));
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        self.clear();
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// An ungoverned aggregate over a tiled cloud's global row ids.
fn aggregate(
    tc: &TiledCloud,
    rows: &[usize],
    column: &str,
    agg: Aggregate,
) -> Result<Option<f64>, CoreError> {
    let ungoverned = GovernCtx::ungoverned();
    PointTable::Tiled(tc).aggregate(rows, column, agg, Parallelism::default(), &ungoverned)
}

/// Deterministic pseudo-random points in a 1000×1000 window with varied
/// attributes (same LCG family as the bench harness).
fn records(n: usize) -> Vec<PointRecord> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    (0..n)
        .map(|i| PointRecord {
            x: next() * 1000.0,
            y: next() * 1000.0,
            z: next() * 120.0,
            classification: (i % 12) as u8,
            intensity: (i % 4096) as u16,
            gps_time: i as f64 * 1e-3,
            ..Default::default()
        })
        .collect()
}

fn cloud(n: usize) -> PointCloud {
    let mut pc = PointCloud::new();
    pc.append_records(&records(n)).unwrap();
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

fn opts(target_rows: usize) -> TileOptions {
    TileOptions {
        target_rows,
        ..Default::default()
    }
}

#[test]
fn tiled_queries_match_the_eager_flat_open_bit_for_bit() {
    let dir = tdir("roundtrip");
    let n = 60_000;
    let mut pc = cloud(n);
    let tiles = pc.save_tiled(&dir, &opts(8192)).unwrap();
    assert!(tiles > 4, "expected several tiles, got {tiles}");
    assert_eq!(lidardb_core::persist::validate_dir(&dir).unwrap(), n);

    // `open_dir` on a v3 directory eager-loads the tiles in order, so its
    // global row ids are the tiled cloud's global row ids.
    let flat = PointCloud::open_dir(&dir).unwrap();
    assert_eq!(flat.num_points(), n);
    let tc = TiledCloud::open(&dir).unwrap();
    assert_eq!(tc.num_points(), n);
    assert_eq!(tc.num_tiles(), tiles);

    let window = rect(200.0, 300.0, 420.0, 560.0);
    let tri = SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(vec![
            Point::new(100.0, 100.0),
            Point::new(800.0, 150.0),
            Point::new(400.0, 900.0),
        ])
        .unwrap(),
    ));
    let attrs = [AttrRange::new("classification", 3.0, 5.0)];
    let cases: Vec<(Option<&SpatialPredicate>, &[AttrRange])> = vec![
        (Some(&window), &[]),
        (Some(&tri), &[]),
        (None, &attrs),
        (Some(&window), &attrs),
    ];
    for workers in [1usize, 4] {
        let par = Parallelism::Threads(workers);
        for (pred, attrs) in &cases {
            for strategy in [
                RefineStrategy::default(),
                RefineStrategy::Exhaustive,
                RefineStrategy::BboxOnly,
            ] {
                let a = flat
                    .select_query_with(*pred, attrs, strategy, par)
                    .unwrap();
                let b = tc.select_query_with(*pred, attrs, strategy, par).unwrap();
                assert_eq!(a.rows, b.rows, "{pred:?} {strategy:?} w={workers}");
                assert_eq!(b.explain.tiles_total, tiles);
                assert_eq!(
                    b.explain.tiles_probed + b.explain.tiles_pruned,
                    tiles,
                    "probed + pruned covers the tile set"
                );
            }
        }
    }
}

#[test]
fn zone_maps_prune_tiles_without_changing_results() {
    let dir = tdir("prune");
    let mut pc = cloud(50_000);
    let tiles = pc.save_tiled(&dir, &opts(4096)).unwrap();
    let flat = PointCloud::open_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    // A small window: SFC clustering makes most tiles' x/y zones disjoint
    // from it, so pruning must fire.
    let window = rect(10.0, 10.0, 80.0, 80.0);
    let sel = tc.select(&window).unwrap();
    assert!(
        sel.explain.tiles_pruned > 0,
        "small window should prune some of the {tiles} tiles: {:?}",
        sel.explain
    );
    assert!(sel.explain.tiles_probed < tiles);
    assert_eq!(sel.rows, flat.select(&window).unwrap().rows);
    // The pruned/probed split shows up in the rendered explain table.
    let table = sel.explain.to_table();
    assert!(table.contains("tiles"), "{table}");
    // Attribute-only pruning: gps_time is ingest-ordered, so a narrow
    // range prunes by the gps_time zone maps even with no spatial filter.
    let attr = [AttrRange::new("gps_time", 0.0, 0.5)];
    let sel = tc
        .select_query_with(None, &attr, RefineStrategy::default(), Parallelism::default())
        .unwrap();
    assert_eq!(
        sel.rows,
        flat.select_query_with(None, &attr, RefineStrategy::default(), Parallelism::default())
            .unwrap()
            .rows
    );
    // A disjoint window prunes everything and returns nothing.
    let far = rect(5000.0, 5000.0, 6000.0, 6000.0);
    let sel = tc.select(&far).unwrap();
    assert!(sel.rows.is_empty());
    assert_eq!(sel.explain.tiles_pruned, tiles);
    assert_eq!(sel.explain.tiles_probed, 0);
}

/// The out-of-core smoke: resident budget capped far below the dataset
/// size, full-coverage queries still exact, peak resident bytes within
/// budget, evictions observed.
#[test]
fn out_of_core_budget_below_dataset_stays_exact() {
    let dir = tdir("oocore");
    let n = 120_000;
    let mut pc = cloud(n);
    let tiles = pc.save_tiled(&dir, &opts(8192)).unwrap();
    let data_bytes = pc.data_bytes() as u64;
    drop(pc);
    let flat = PointCloud::open_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let budget = data_bytes / 4;
    tc.set_resident_budget(budget);
    // Sweep the whole window in strips: every tile gets touched, far more
    // bytes than the budget flow through the cache.
    let mut total = 0usize;
    for strip in 0..10 {
        let y0 = strip as f64 * 100.0;
        let window = rect(0.0, y0, 1000.0, y0 + 100.0);
        let a = flat.select(&window).unwrap();
        let b = tc.select(&window).unwrap();
        assert_eq!(a.rows, b.rows, "strip {strip}");
        total += b.rows.len();
    }
    assert_eq!(total, n, "strips partition the window");
    assert!(
        tc.peak_resident_bytes() <= budget,
        "peak resident {} exceeds budget {budget}",
        tc.peak_resident_bytes()
    );
    assert!(
        tc.tile_evictions() > 0,
        "sweeping {tiles} tiles through a quarter-size cache must evict"
    );
    assert!(tc.resident_tiles() >= 1);
    assert!(tc.tile_loads() as usize > tiles, "tiles reload after eviction");
}

#[test]
fn flat_v2_directory_opens_as_single_unpruned_tile() {
    let dir = tdir("v2compat");
    let pc = cloud(5_000);
    pc.save_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    assert_eq!(tc.num_points(), 5_000);
    assert_eq!(tc.num_tiles(), 1);
    assert_eq!(tc.curve(), "none");
    let window = rect(100.0, 100.0, 400.0, 400.0);
    let sel = tc.select(&window).unwrap();
    assert_eq!(sel.rows, pc.select(&window).unwrap().rows);
    assert_eq!(sel.explain.tiles_total, 1);
    assert_eq!(sel.explain.tiles_pruned, 0, "no zones, never pruned");
}

/// Every reader checks each tile's own row count against the root layout.
/// Two tiles rewritten as valid dumps one row longer and one row shorter
/// keep the total and the root manifest (and its CRC) intact; the eager
/// open, the catalog check and the lazy tile load must all refuse them.
#[test]
fn readers_agree_on_tile_row_counts() {
    let dir = tdir("rowcounts");
    let mut pc = cloud(4_000);
    assert!(pc.save_tiled(&dir, &opts(1_000)).unwrap() >= 2);
    let tc = TiledCloud::open(&dir).unwrap();
    let (rows0, rows1) = (tc.tiles().tiles[0].rows(), tc.tiles().tiles[1].rows());
    drop(tc);
    cloud(rows0 + 1).save_dir(dir.join("tile_00000")).unwrap();
    cloud(rows1 - 1).save_dir(dir.join("tile_00001")).unwrap();
    assert!(PointCloud::open_dir(&dir).is_err(), "open_dir");
    assert!(lidardb_core::persist::validate_dir(&dir).is_err(), "validate_dir");
    assert!(
        TiledCloud::open(&dir).and_then(|tc| PointTable::Tiled(&tc).record(0)).is_err(),
        "lazy tile load"
    );
}

#[test]
fn seal_to_tiles_checkpoints_the_ingest_wal() {
    let dir = tdir("sealtiles");
    let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    pc.append_records(&records(20_000)).unwrap();
    let tiles = pc.seal_to_tiles(&opts(4096)).unwrap();
    assert!(tiles > 1);
    let window = rect(0.0, 0.0, 300.0, 300.0);
    let expect = pc.select(&window).unwrap().rows.len();
    drop(pc);
    // The sealed-tiled directory reopens for ingest (eager load + WAL
    // replay) and keeps accepting appends.
    let mut back = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_eq!(back.num_points(), 20_000);
    assert_eq!(back.select(&window).unwrap().rows.len(), expect);
    back.append_records(&records(1_000)).unwrap();
    assert_eq!(back.num_points(), 21_000);
    drop(back);
    // And it opens lazily too (pre-append state: the WAL tail is not part
    // of the sealed tile dump).
    let tc = TiledCloud::open(&dir).unwrap();
    assert_eq!(tc.num_points(), 20_000);
    assert_eq!(tc.select(&window).unwrap().rows.len(), expect);
}

#[test]
fn tiled_aggregates_match_flat_aggregates() {
    let dir = tdir("agg");
    let mut pc = cloud(30_000);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let flat = PointCloud::open_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let window = rect(100.0, 100.0, 700.0, 700.0);
    let rows = tc.select(&window).unwrap().rows;
    assert!(!rows.is_empty());
    for agg in [
        Aggregate::Count,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Sum,
        Aggregate::Avg,
    ] {
        let a = flat.aggregate(&rows, "z", agg).unwrap();
        let b = aggregate(&tc, &rows, "z", agg).unwrap();
        match agg {
            // SUM/AVG merge per-tile partials, so allow f64 reassociation.
            Aggregate::Sum | Aggregate::Avg => {
                let (a, b) = (a.unwrap(), b.unwrap());
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{agg:?}: {a} vs {b}");
            }
            _ => assert_eq!(a, b, "{agg:?}"),
        }
    }
    // Empty and out-of-range row lists behave like the flat cloud.
    assert_eq!(aggregate(&tc, &[], "z", Aggregate::Sum).unwrap(), None);
    assert_eq!(aggregate(&tc, &[], "z", Aggregate::Count).unwrap(), Some(0.0));
    assert!(aggregate(&tc, &[usize::MAX], "z", Aggregate::Sum).is_err());
}

#[test]
fn record_access_crosses_tile_boundaries() {
    let dir = tdir("record");
    let mut pc = cloud(20_000);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let flat = PointCloud::open_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let mut probe_rows = vec![0usize, 1, 19_999];
    for t in tc.tiles().tiles.iter() {
        probe_rows.push(t.row_start);
        if t.row_end > 0 {
            probe_rows.push(t.row_end - 1);
        }
    }
    for row in probe_rows {
        let a = flat.record(row);
        let b = PointTable::Tiled(&tc).record(row).unwrap();
        assert_eq!(a, b, "row {row}");
    }
    assert_eq!(PointTable::Tiled(&tc).record(20_000).unwrap(), None);
}

#[test]
fn governed_tiled_query_charges_tile_bytes_to_the_budget() {
    let dir = tdir("govern");
    let mut pc = cloud(30_000);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let window = rect(0.0, 0.0, 1000.0, 1000.0);
    let table = PointTable::Tiled(&tc);
    let select_budgeted = |budget| {
        let g = table.govern("tiled select (0 attr filters)", None, Some(budget))?;
        table.select(Some(&window), &[], RefineStrategy::default(), Parallelism::Serial, &g.ctx)
    };
    // A budget far below one tile's bytes trips while faulting tiles in.
    let err = select_budgeted(1024).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("budget") || msg.contains("memory") || msg.contains("cancel"),
        "unexpected error: {msg}"
    );
    // A generous budget succeeds and matches the ungoverned result.
    let governed = select_budgeted(1 << 30).unwrap();
    let plain = tc.select(&window).unwrap();
    assert_eq!(governed.rows, plain.rows);
}

/// One tiled statement is one query to every observer: one trace id, one
/// slow-log entry, one `Query` root with every tile's load and stage spans
/// under it, whose per-tile bbox rows add up to the merged `Explain`.
#[test]
fn one_tiled_statement_is_one_traced_query() {
    use lidardb_core::{SlowQueryLog, SpanKind, Stage};
    let dir = tdir("onequery");
    let mut pc = cloud(30_000);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let traced = lidardb_core::trace::force_thread();
    let sel = tc.select(&rect(100.0, 100.0, 900.0, 900.0)).unwrap();
    drop(traced);
    let tiles = sel.explain.tiles_probed;
    assert!(tiles >= 3, "window must survive pruning on several tiles, got {tiles}");
    assert_eq!(sel.explain.tiles_loaded, tiles, "cold cache: every probed tile loads");
    let id = sel.trace_id.expect("a traced tiled query carries its trace id");

    // No other test in this binary traces, so the log holds this query only.
    let log = SlowQueryLog::global().worst();
    assert_eq!(log.len(), 1, "one statement, one slow-log entry");
    let entry = &log[0];
    assert_eq!(entry.trace_id, id);
    assert_eq!(entry.result_rows, sel.rows.len());
    assert_eq!(entry.explain, sel.explain);

    let count = |kind: SpanKind| entry.spans.iter().filter(|s| s.kind == kind).count();
    assert_eq!(count(SpanKind::Query), 1, "one root");
    let root = entry.spans.iter().find(|s| s.kind == SpanKind::Query).unwrap();
    assert_eq!(root.parent_id, 0);
    assert_eq!(root.rows_out, sel.rows.len() as u64);
    for stage in [Stage::PersistLoad, Stage::ImprintProbe, Stage::BboxScan] {
        let spans: Vec<_> = entry
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Stage(stage))
            .collect();
        assert_eq!(spans.len(), tiles, "one {} span per tile", stage.name());
        assert!(
            spans.iter().all(|s| s.trace_id == id && s.parent_id == root.span_id),
            "{} spans hang under the root",
            stage.name()
        );
    }
    let bbox_rows: u64 = entry
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Stage(Stage::BboxScan))
        .map(|s| s.rows_out)
        .sum();
    assert_eq!(bbox_rows, sel.explain.after_bbox as u64);
}
