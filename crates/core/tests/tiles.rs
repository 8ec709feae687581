//! Tiled, out-of-core segment storage: roundtrip, pruning, budget/LRU and
//! compatibility tests. The `out_of_core_*` test doubles as the CI smoke:
//! a dataset bigger than the resident budget must stay exactly queryable.

use lidardb_core::{
    Aggregate, AttrRange, ColumnSet, CoreError, Durability, GovernCtx, Parallelism, PointCloud,
    PointTable, RefineStrategy, SpanKind, SpatialPredicate, Stage, TileOptions, TiledCloud,
};
use lidardb_geom::{Geometry, Point, Polygon};
use lidardb_las::PointRecord;
use lidardb_test_support::ScratchDir;

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
    let dir = ScratchDir::vacant("tiles_roundtrip");
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
                let a = flat.select_query_with(*pred, attrs, strategy, par).unwrap();
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
    let dir = ScratchDir::vacant("tiles_prune");
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
        .select_query_with(
            None,
            &attr,
            RefineStrategy::default(),
            Parallelism::default(),
        )
        .unwrap();
    assert_eq!(
        sel.rows,
        flat.select_query_with(
            None,
            &attr,
            RefineStrategy::default(),
            Parallelism::default()
        )
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
    let dir = ScratchDir::vacant("tiles_oocore");
    let n = 120_000;
    let mut pc = cloud(n);
    let tiles = pc.save_tiled(&dir, &opts(8192)).unwrap();
    drop(pc);
    let flat = PointCloud::open_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    // The strips read x and y only (16 B a row): a quarter of that.
    let budget = (n * 16 / 4) as u64;
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
    assert!(
        tc.tile_loads() as usize > tiles,
        "tiles reload after eviction"
    );
}

#[test]
fn flat_v2_directory_opens_as_single_unpruned_tile() {
    let dir = ScratchDir::vacant("tiles_v2compat");
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
    let dir = ScratchDir::vacant("tiles_rowcounts");
    let mut pc = cloud(4_000);
    assert!(pc.save_tiled(&dir, &opts(1_000)).unwrap() >= 2);
    let tc = TiledCloud::open(&dir).unwrap();
    let (rows0, rows1) = (tc.tiles().tiles[0].rows(), tc.tiles().tiles[1].rows());
    drop(tc);
    cloud(rows0 + 1).save_dir(dir.join("tile_00000")).unwrap();
    cloud(rows1 - 1).save_dir(dir.join("tile_00001")).unwrap();
    assert!(PointCloud::open_dir(&dir).is_err(), "open_dir");
    assert!(
        lidardb_core::persist::validate_dir(&dir).is_err(),
        "validate_dir"
    );
    assert!(
        TiledCloud::open(&dir)
            .and_then(|tc| PointTable::Tiled(&tc).record(0))
            .is_err(),
        "lazy tile load"
    );
}

#[test]
fn seal_to_tiles_checkpoints_the_ingest_wal() {
    let dir = ScratchDir::vacant("tiles_sealtiles");
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
    let dir = ScratchDir::vacant("tiles_agg");
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
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "{agg:?}: {a} vs {b}"
                );
            }
            _ => assert_eq!(a, b, "{agg:?}"),
        }
    }
    // Empty and out-of-range row lists behave like the flat cloud.
    assert_eq!(aggregate(&tc, &[], "z", Aggregate::Sum).unwrap(), None);
    assert_eq!(
        aggregate(&tc, &[], "z", Aggregate::Count).unwrap(),
        Some(0.0)
    );
    assert!(aggregate(&tc, &[usize::MAX], "z", Aggregate::Sum).is_err());
}

#[test]
fn record_access_crosses_tile_boundaries() {
    let dir = ScratchDir::vacant("tiles_record");
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
    let dir = ScratchDir::vacant("tiles_govern");
    let mut pc = cloud(30_000);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let window = rect(0.0, 0.0, 1000.0, 1000.0);
    let table = PointTable::Tiled(&tc);
    let select_budgeted = |budget| {
        let g = table.govern("tiled select (0 attr filters)", None, Some(budget))?;
        table.select(
            Some(&window),
            &[],
            RefineStrategy::default(),
            Parallelism::Serial,
            &g.ctx,
        )
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
    use lidardb_core::SlowQueryLog;
    let dir = ScratchDir::vacant("tiles_onequery");
    let mut pc = cloud(30_000);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let traced = lidardb_core::trace::force_thread();
    let sel = tc.select(&rect(100.0, 100.0, 900.0, 900.0)).unwrap();
    drop(traced);
    let tiles = sel.explain.tiles_probed;
    assert!(
        tiles >= 3,
        "window must survive pruning on several tiles, got {tiles}"
    );
    assert_eq!(
        sel.explain.tiles_loaded, tiles,
        "cold cache: every probed tile loads"
    );
    let id = sel
        .trace_id
        .expect("a traced tiled query carries its trace id");

    // No other test in this binary runs a traced query (the residency
    // test traces bare tile loads), so the log holds this query only.
    let log = SlowQueryLog::global().worst();
    assert_eq!(log.len(), 1, "one statement, one slow-log entry");
    let entry = &log[0];
    assert_eq!(entry.trace_id, id);
    assert_eq!(entry.result_rows, sel.rows.len());
    assert_eq!(entry.explain, sel.explain);

    let count = |kind: SpanKind| entry.spans.iter().filter(|s| s.kind == kind).count();
    assert_eq!(count(SpanKind::Query), 1, "one root");
    let root = entry
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Query)
        .unwrap();
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
            spans
                .iter()
                .all(|s| s.trace_id == id && s.parent_id == root.span_id),
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

/// A tile holds the columns its reads touched, and nothing else: a
/// viewport faults in `x` and `y`, a projection adds `z` without reading
/// `x`/`y` again (one `PersistLoad` per disk read), an attribute filter
/// adds its byte-wide column, `record` loads all 26. Resident bytes are
/// the held columns' bytes; the row count never depends on them.
#[test]
fn tiles_hold_exactly_the_columns_their_reads_touched() {
    let dir = ScratchDir::vacant("tiles_residency");
    let n = 30_000;
    let mut pc = cloud(n);
    pc.save_tiled(&dir, &opts(4096)).unwrap();
    let flat = PointCloud::open_dir(&dir).unwrap();
    let tc = TiledCloud::open(&dir).unwrap();
    let table = PointTable::Tiled(&tc);
    let ungoverned = GovernCtx::ungoverned();
    let resident = |tc: &TiledCloud| -> Vec<(usize, usize, Option<u64>, String)> {
        let r = tc.tile_residency().into_iter();
        let r = r.filter(|t| t.resident_bytes.is_some());
        r.map(|t| {
            (
                t.id,
                t.rows,
                t.resident_bytes,
                t.resident_columns.to_string(),
            )
        })
        .collect()
    };
    // Disk reads of `f`, counted as the `PersistLoad` spans of a trace of
    // its own (the stage counters are shared with concurrent tests).
    let disk_reads = |f: &mut dyn FnMut()| {
        let traced = lidardb_core::trace::force_thread();
        let root = lidardb_core::trace::span(SpanKind::Query);
        let id = root.trace_id().expect("forced tracing records");
        f();
        drop((root, traced));
        let spans = lidardb_core::Tracer::global()
            .snapshot()
            .for_trace(id)
            .spans;
        spans
            .iter()
            .filter(|s| s.kind == SpanKind::Stage(Stage::PersistLoad))
            .count()
    };
    let x_ptrs = |rows: &[usize]| -> Vec<*const f64> {
        let runs = table.runs(rows, ColumnSet::of(["x"]));
        runs.map(|r| r.unwrap().0.f64_column("x").unwrap().as_ptr())
            .collect()
    };

    let window = rect(100.0, 100.0, 400.0, 400.0);
    let sel = tc.select(&window).unwrap();
    assert_eq!(sel.rows, flat.select(&window).unwrap().rows);
    let touched = resident(&tc);
    assert_eq!(touched.len(), sel.explain.tiles_probed);
    for (id, rows, bytes, columns) in &touched {
        assert_eq!(columns, "x,y", "tile {id}");
        assert_eq!(*bytes, Some(*rows as u64 * 16), "tile {id}");
    }
    assert_eq!(tc.tile_loads() as usize, touched.len());

    // A projection of x, y, z reads z only: one disk read per tile, and
    // the successor tiles share the x they held.
    let xs = x_ptrs(&sel.rows);
    let xyz = ColumnSet::of(["x", "y", "z"]);
    let mut z = Vec::new();
    let reads = disk_reads(&mut || {
        for run in table.runs(&sel.rows, xyz) {
            let (seg, base, ids) = run.unwrap();
            let col = seg.f64_column("z").unwrap();
            z.extend(ids.iter().map(|&r| col[r - base]));
            assert!(seg.column("intensity").is_err(), "nothing beyond the set");
        }
    });
    let flat_z = flat.f64_column("z").unwrap();
    assert_eq!(z, sel.rows.iter().map(|&r| flat_z[r]).collect::<Vec<_>>());
    assert_eq!(reads, touched.len(), "one PersistLoad per tile read");
    assert_eq!(x_ptrs(&sel.rows), xs, "x and y are not read again");
    assert_eq!(
        tc.tile_loads() as usize,
        touched.len(),
        "adding a column is not a tile load"
    );
    for (id, rows, bytes, columns) in resident(&tc) {
        assert_eq!(columns, "x,y,z", "tile {id}");
        assert_eq!(bytes, Some(rows as u64 * 24), "tile {id}");
    }
    // Asking again reads nothing.
    let reads = disk_reads(&mut || assert_eq!(table.runs(&sel.rows, xyz).count(), touched.len()));
    assert_eq!(reads, 0);

    // A thematic filter on a touched tile adds its 1-byte column.
    let attrs = [AttrRange::new("classification", 3.0, 5.0)];
    let (par, strategy) = (Parallelism::default(), RefineStrategy::default());
    let a = tc
        .select_query_with(Some(&window), &attrs, strategy, par)
        .unwrap();
    assert_eq!(
        a.rows,
        flat.select_query_with(Some(&window), &attrs, strategy, par)
            .unwrap()
            .rows
    );
    for (id, rows, bytes, columns) in resident(&tc) {
        assert_eq!(columns, "x,y,z,classification", "tile {id}");
        assert_eq!(bytes, Some(rows as u64 * 25), "tile {id}");
    }
    assert_eq!(
        tc.resident_bytes(),
        resident(&tc).iter().map(|t| t.2.unwrap()).sum::<u64>()
    );

    // `record` loads every column of its tile.
    let row = sel.rows[0];
    assert_eq!(table.record(row).unwrap(), flat.record(row));
    let t = tc.tiles().tile_for_row(row).unwrap();
    let full = tc.tile_residency().into_iter().find(|r| r.id == t).unwrap();
    assert_eq!(full.resident_columns, ColumnSet::ALL);
    let row_bytes = (flat.data_bytes() / n) as u64;
    assert_eq!(full.resident_bytes, Some(full.rows as u64 * row_bytes));

    // No predicate: no column, and still every row.
    let fresh = TiledCloud::open(&dir).unwrap();
    let all = fresh.select_query_with(None, &[], strategy, par).unwrap();
    assert_eq!(all.rows, (0..n).collect::<Vec<_>>());
    assert!(resident(&fresh)
        .iter()
        .all(|t| t.2 == Some(0) && t.3.is_empty()));
    let count =
        PointTable::Tiled(&fresh).aggregate(&all.rows, "z", Aggregate::Count, par, &ungoverned);
    assert_eq!(count.unwrap(), Some(n as f64));
}

/// A streaming cloud with rows in both its sealed base and its tail folds
/// the two into one dump: a flat seal keeps the row order, a tiled one
/// takes the SFC order the same rows get as one table, and either reopens
/// to exactly the rows sealed.
#[test]
fn seal_and_seal_to_tiles_fold_base_and_tail_into_one_dump() {
    let recs = records(12_000);
    let rows_of = |pc: &PointCloud| -> Vec<PointRecord> {
        (0..pc.num_points())
            .map(|r| pc.record(r).unwrap())
            .collect()
    };
    // A base of the first 5,000 rows, a tail of the rest.
    let base_and_tail = |dir: &ScratchDir| {
        let mut pc = PointCloud::open_ingest(dir, Durability::Always).unwrap();
        pc.append_records(&recs[..5_000]).unwrap();
        pc.seal().unwrap();
        drop(pc);
        let mut pc = PointCloud::open_ingest(dir, Durability::Always).unwrap();
        pc.append_records(&recs[5_000..]).unwrap();
        assert_eq!(pc.table().num_rows(), 5_000, "the tail holds the rest");
        pc
    };

    let dir = ScratchDir::vacant("tiles_fold_flat");
    let mut pc = base_and_tail(&dir);
    pc.seal().unwrap();
    assert_eq!(rows_of(&pc), recs);
    drop(pc);
    let back = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    let report = back.recovery_report().unwrap();
    assert_eq!(
        (report.base_rows, report.replayed_rows),
        (12_000, 0),
        "one dump"
    );
    assert_eq!(rows_of(&back), recs);

    let dir = ScratchDir::vacant("tiles_fold_tiled");
    let mut pc = base_and_tail(&dir);
    let tiles = pc.seal_to_tiles(&opts(4096)).unwrap();
    let sealed = rows_of(&pc);
    let reference = ScratchDir::vacant("tiles_fold_reference");
    let mut one = cloud(12_000);
    assert_eq!(one.save_tiled(&reference, &opts(4096)).unwrap(), tiles);
    assert_eq!(sealed, rows_of(&one), "the SFC order of one table");
    drop(pc);
    let back = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
    assert_eq!(back.recovery_report().unwrap().base_rows, 12_000);
    assert_eq!(rows_of(&back), sealed);
    let tc = TiledCloud::open(&dir).unwrap();
    let table = PointTable::Tiled(&tc);
    assert_eq!(tc.num_points(), 12_000);
    for r in (0..12_000).step_by(997) {
        assert_eq!(table.record(r).unwrap(), Some(sealed[r]), "row {r}");
    }
}
