//! The paper reproducer: prints a paper-vs-measured table for every claim
//! of the demo paper that has no equivalent over the wire (E1, E2, E4, E5,
//! E7 + E7b, E8), the SQL pipeline on statements no benchmark workload runs
//! (E6), the worker sweep of the query engine (E9) and the many-client
//! behaviours one benchmark session cannot show (E10, E11).
//! Timings print as `median [min–max] n=…`; nothing is gated and nothing
//! is written outside per-run scratch directories. Everything measured
//! over the wire lives in `benchmark/` (EXPERIMENTS.md has the map).
//!
//! ```text
//! cargo run --release -p lidardb-bench --bin harness            # all
//! cargo run --release -p lidardb-bench --bin harness -- e1 e7  # subset
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lidardb_baselines::{BlockStore, FileStore};
use lidardb_bench::{
    burst, lcg, median_seconds, synthetic_cloud, timed, BurstSummary, Fixture, Outcome, Timing,
};
use lidardb_core::{
    AdmissionController, CancelToken, CoreError, FaultInjector, FaultKind, FaultStage, LoadMethod,
    LoadPolicy, Loader, Parallelism, PointCloud, PointTable, RefineStrategy, SpatialPredicate,
};
use lidardb_geom::{
    contains_point, dwithin_point, Envelope, Geometry, Point, Polygon, PreparedGeometry, Relation,
    Ring,
};
use lidardb_imprints::Imprints;
use lidardb_sfc::{curve_locality, Curve, Quantizer};

#[path = "harness/zonemap.rs"]
mod zonemap;
use zonemap::ZoneMap;

const AHN2_POINTS: u64 = 640_000_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    println!("lidardb experiment harness — reproduction of VLDB'15 demo claims");
    println!("(shapes, not absolute numbers: substrate is synthetic AHN2-like data)\n");
    let experiments: [(&str, fn()); 10] = [
        ("e1", e1_loading),
        ("e2", e2_storage),
        ("e4", e4_refinement),
        ("e5", e5_scenario1),
        ("e6", e6_sql_pipeline),
        ("e7", e7_robustness),
        ("e8", e8_sfc),
        ("e9", e9_parallel),
        ("e10", e10_overload),
        ("e11", e11_wire_burst),
    ];
    for (id, run) in experiments {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}

fn header(id: &str, claim: &str) {
    println!("==============================================================");
    println!("{id}: {claim}");
    println!("==============================================================");
}

fn within_rect(env: &Envelope) -> SpatialPredicate {
    SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(env)))
}

fn within_diamond(cx: f64, cy: f64, r: f64) -> SpatialPredicate {
    let ring = vec![
        Point::new(cx, cy - r),
        Point::new(cx + r, cy),
        Point::new(cx, cy + r),
        Point::new(cx - r, cy),
    ];
    SpatialPredicate::Within(Geometry::Polygon(
        Polygon::from_exterior(ring).expect("diamond"),
    ))
}

/// Median-of-5 latency of the default select on `pc`.
fn select_timing(pc: &PointCloud, pred: &SpatialPredicate) -> Timing {
    median_seconds(5, || {
        std::hint::black_box(pc.select(pred).expect("select").rows.len());
    })
}

fn read_tiles(paths: &[std::path::PathBuf]) -> Vec<lidardb_las::PointRecord> {
    let mut records = Vec::new();
    for p in paths {
        records.extend(lidardb_las::read_las_file(p).expect("read").1);
    }
    records
}

// ---------------------------------------------------------------------------
// E1 — loading
// ---------------------------------------------------------------------------

fn e1_loading() {
    header(
        "E1 (loading, §3.2)",
        "binary loader loads AHN2 in <1 day; the CSV/text route needs ~a week",
    );
    let fx = Fixture::build(11, 1000.0, 4, 2.0);
    let n_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let points = fx.pc.num_points();
    println!("dataset: {points} points in {} tiles\n", fx.las_paths.len());
    println!(
        "{:<34} {:>28} {:>10} {:>12}",
        "method", "wall s", "Mpts/s", "640B days"
    );
    let row = |name: &str, t: Timing| {
        let pps = points as f64 / t.median;
        println!(
            "{name:<34} {:>28} {:>10.2} {:>12.2}",
            t.scaled(1.0),
            pps / 1e6,
            AHN2_POINTS as f64 / pps / 86_400.0
        );
    };
    // The warm-up run of each row also warms the page cache.
    let load = |loader: Loader| {
        median_seconds(3, || {
            let mut pc = PointCloud::new();
            loader.load_files(&mut pc, &fx.las_paths).expect("load");
        })
    };
    row(
        &format!("binary loader ({n_threads} threads)"),
        load(Loader::new(LoadMethod::Binary).with_threads(n_threads)),
    );
    row(
        "binary loader (1 thread)",
        load(Loader::new(LoadMethod::Binary).with_threads(1)),
    );
    row(
        "CSV route (decode+format+parse)",
        load(Loader::new(LoadMethod::Csv)),
    );

    // Block-store ingest: decode + curve sort + block compression — the
    // pgpointcloud-style physical reorganisation.
    let blocks = median_seconds(3, || {
        let bs = BlockStore::build(&read_tiles(&fx.las_paths), 512, Curve::Hilbert);
        std::hint::black_box(bs.expect("blockstore").num_blocks());
    });
    row("blockstore ingest (sort+blocks)", blocks);

    // File-based ETL: lassort + lasindex over the laz-lite tiles. One
    // sample: lassort rewrites the tiles in place, so a repeat would sort
    // sorted files.
    let ((), secs) = timed(|| {
        let mut fs = FileStore::open(fx.lazl_paths[0].parent().unwrap()).expect("open");
        fs.sort_files(Curve::Morton).expect("lassort");
        fs.build_indexes().expect("lasindex");
    });
    row(
        "file-based ETL (lassort+lasindex)",
        Timing::from_samples(vec![secs]),
    );
    println!();
}

// ---------------------------------------------------------------------------
// E2 — storage
// ---------------------------------------------------------------------------

fn e2_storage() {
    header(
        "E2 (storage, §3.2)",
        "imprints cost 5-12% of the column; flat table + imprints needs the least total storage",
    );
    let fx = Fixture::build(22, 800.0, 2, 2.0);
    let pc = &fx.pc;
    println!("dataset: {} points\n", pc.num_points());
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>12}",
        "column", "data bytes", "index bytes", "overhead", "vec compress"
    );
    for col in ["x", "y", "z", "gps_time", "intensity", "classification"] {
        let s = pc.imprints_for(col).expect("imprints").stats();
        println!(
            "{col:<16} {:>12} {:>12} {:>9.1}% {:>11.1}x",
            s.column_bytes,
            s.index_bytes,
            s.overhead() * 100.0,
            s.vector_compression()
        );
    }
    println!(
        "\nflat table: {} bytes; imprints on 6 columns: {} bytes ({:.1}% of table)",
        pc.data_bytes(),
        pc.index_bytes(),
        pc.index_bytes() as f64 / pc.data_bytes() as f64 * 100.0
    );

    // Total storage comparison.
    let dir_size = |paths: &[std::path::PathBuf]| -> u64 {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    };
    let bs = BlockStore::build(&read_tiles(&fx.las_paths), 512, Curve::Hilbert).expect("blocks");

    // E2b: the flat table with cold-column compression — x/y/z stay raw
    // (hot query path), every other column takes the better of RLE and
    // frame-of-reference packing, as §3.1 suggests ("more flexible to
    // exploit compression techniques ... such as run length encoding").
    use lidardb_storage::compress::{forpack::ForPacked, rle::Rle};
    let mut compressed_total = 0usize;
    for field in lidardb_las::point_schema().fields() {
        let col = pc.column(&field.name).expect("column");
        if matches!(field.name.as_str(), "x" | "y" | "z") {
            compressed_total += col.byte_len();
            continue;
        }
        let as_i64: Vec<i64> = col.iter_f64().map(|v| v as i64).collect();
        let forpack = ForPacked::encode(&as_i64).stats().encoded_bytes;
        // RLE on the native representation.
        let rle = match col {
            lidardb_storage::Column::U8(v) => Rle::encode(v).stats().encoded_bytes,
            lidardb_storage::Column::U16(v) => Rle::encode(v).stats().encoded_bytes,
            _ => usize::MAX,
        };
        compressed_total += forpack.min(rle).min(col.byte_len());
    }

    println!("\n{:<38} {:>14}", "layout", "total bytes");
    for (layout, bytes) in [
        (
            "flat table + imprints (this paper)",
            (pc.data_bytes() + pc.index_bytes()) as u64,
        ),
        ("blockstore (pgpointcloud-like)", bs.storage_bytes() as u64),
        ("LAS files", dir_size(&fx.las_paths)),
        ("laz-lite files", dir_size(&fx.lazl_paths)),
        (
            "flat table, cold columns compressed",
            (compressed_total + pc.index_bytes()) as u64,
        ),
    ] {
        println!("{layout:<38} {bytes:>14}");
    }
    println!();
}

// ---------------------------------------------------------------------------
// E4 — grid refinement ablation
// ---------------------------------------------------------------------------

fn e4_refinement() {
    header(
        "E4 (refinement, §3.3)",
        "the filter masks by the feature's shape; the square grid decides most cells in one step",
    );
    let fx = Fixture::build(44, 800.0, 2, 2.0);
    let pc = &fx.pc;
    let c = fx.scene.envelope().center();
    let ring = |pts: &[(f64, f64)]| {
        Ring::new(
            pts.iter()
                .map(|(dx, dy)| Point::new(c.x + dx, c.y + dy))
                .collect(),
        )
        .expect("ring")
    };
    // A concave pentagon with a square hole, ~25% of the scene.
    let poly = Polygon::new(
        ring(&[
            (-250.0, -200.0),
            (280.0, -170.0),
            (90.0, 40.0),
            (260.0, 250.0),
            (-220.0, 230.0),
        ]),
        vec![ring(&[
            (-60.0, -60.0),
            (60.0, -60.0),
            (60.0, 60.0),
            (-60.0, 60.0),
        ])],
    );
    let zone = |code: u32| {
        let z = fx.scene.zones().iter().find(|z| z.class.code() == code);
        Geometry::Polygon(z.expect("the scene has the zone").polygon.clone())
    };
    let shapes = [
        (
            "concave pentagon with hole",
            SpatialPredicate::Within(Geometry::Polygon(poly)),
        ),
        (
            "128-edge water corridor, ST_Contains",
            SpatialPredicate::Within(zone(50000)),
        ),
        (
            "128-edge water corridor, ST_DWithin 4.5 m",
            SpatialPredicate::DWithin(zone(50000), 4.5),
        ),
        (
            "E-W chevron corridor (12210), ST_DWithin 2.5 m",
            SpatialPredicate::DWithin(zone(12210), 2.5),
        ),
    ];
    println!("dataset: {} points\n", pc.num_points());
    for (shape, pred) in &shapes {
        println!("{shape}");
        println!(
            "{:<18} {:>9} {:>10} {:>12} {:>18} {:>10} {:>30}",
            "strategy", "results", "after bbox", "exact tests", "cells in/out/bnd", "grid", "ms"
        );
        let select = |strat| {
            pc.select_query_with(Some(pred), &[], strat, Parallelism::default())
                .expect("select")
        };
        let exhaustive = select(RefineStrategy::Exhaustive).rows;
        let run = |name: &str, strat: RefineStrategy| {
            let sel = select(strat);
            if strat != RefineStrategy::BboxOnly {
                assert!(
                    sel.rows == exhaustive,
                    "{shape}: {name} must return the exhaustive rows"
                );
            }
            let t = median_seconds(5, || {
                std::hint::black_box(select(strat).rows.len());
            });
            let e = &sel.explain;
            println!(
                "{name:<18} {:>9} {:>10} {:>12} {:>18} {:>10} {:>30}",
                e.result_rows,
                e.after_bbox,
                e.exact_tests,
                format!(
                    "{}/{}/{}",
                    e.cells_inside, e.cells_outside, e.cells_boundary
                ),
                format!("{}x{}", e.grid_nx, e.grid_ny),
                t.ms()
            );
        };
        run("bbox only", RefineStrategy::BboxOnly);
        run("exhaustive", RefineStrategy::Exhaustive);
        run("adaptive grid", RefineStrategy::AdaptiveGrid);
        for cells in [8usize, 16, 32, 64, 128, 256] {
            run(
                &format!("grid {cells}x{cells}"),
                RefineStrategy::Grid { cells },
            );
        }
        let bands = select(RefineStrategy::default()).explain;
        println!(
            "band table: {} x-bands, {} y-bands\n",
            bands.bands_x, bands.bands_y
        );
    }

    // The exact test alone, per call against the whole polygon and through
    // the prepared edge index refinement uses, on the water body (the
    // buffered sine corridor of the scenario-2 heavy join) and every bbox
    // candidate of a 4.5 m `ST_DWithin` around it.
    let g = zone(50000);
    let d = 4.5;
    let pred = SpatialPredicate::DWithin(g.clone(), d);
    let bbox = pc
        .select_query_with(
            Some(&pred),
            &[],
            RefineStrategy::BboxOnly,
            Parallelism::Serial,
        )
        .expect("select");
    let (xs, ys) = (
        pc.f64_column("x").expect("x"),
        pc.f64_column("y").expect("y"),
    );
    let pts: Vec<Point> = bbox
        .rows
        .iter()
        .map(|&r| Point::new(xs[r], ys[r]))
        .collect();
    let prepared = PreparedGeometry::new(&g);
    println!(
        "exact point test on the water body: {} edges, {} bbox candidates",
        g.boundary_segments().count(),
        pts.len()
    );
    println!(
        "{:<18} {:>30} {:>30}",
        "test", "reference ns/test", "prepared ns/test"
    );
    let relations = [
        ("ST_Contains", Relation::Within),
        ("ST_DWithin 4.5 m", Relation::DWithin(d)),
    ];
    for (name, rel) in relations {
        let reference = |p: &Point| match rel {
            Relation::Within => contains_point(&g, p),
            Relation::DWithin(d) => dwithin_point(&g, p, d),
        };
        let n = pts.iter().filter(|p| reference(p)).count();
        assert!(
            pts.iter().all(|p| prepared.matches(p, rel) == reference(p)),
            "{name}: the prepared test must answer as the reference does"
        );
        let per_test = |test: &dyn Fn(&Point) -> bool| {
            let t = median_seconds(5, || {
                std::hint::black_box(pts.iter().filter(|p| test(p)).count());
            });
            t.scaled(1e9 / pts.len().max(1) as f64)
        };
        let (t_ref, t_prep) = (
            per_test(&reference),
            per_test(&|p| prepared.matches(p, rel)),
        );
        println!("{name:<18} {t_ref:>30} {t_prep:>30}   ({n} match, identical)");
    }
    println!();
}

// ---------------------------------------------------------------------------
// E5 — scenario 1
// ---------------------------------------------------------------------------

fn e5_scenario1() {
    header(
        "E5 (scenario 1, §4.1)",
        "predefined queries, file-based vs DBMS; single-source limit of file tools",
    );
    let fx = Fixture::build(55, 1000.0, 4, 2.0);
    let mut fs = FileStore::open(fx.lazl_paths[0].parent().unwrap()).expect("open");
    fs.sort_files(Curve::Morton).expect("lassort");
    fs.build_indexes().expect("lasindex");

    println!("\nQ1: select all LIDAR points within a given region");
    println!(
        "{:>11} {:>9} {:>30} {:>30}",
        "selectivity", "results", "file-based ms", "DBMS ms"
    );
    for frac in [1e-4, 1e-3, 1e-2] {
        let w = fx.window(frac);
        let pred = within_rect(&w);
        let results = fx.pc.select(&pred).expect("select").rows.len();
        let t_fs = median_seconds(3, || {
            std::hint::black_box(fs.query_bbox(&w).expect("fs").0.len());
        });
        println!(
            "{frac:>11.0e} {results:>9} {:>30} {:>30}",
            t_fs.ms(),
            select_timing(&fx.pc, &pred).ms()
        );
    }

    println!("\nQ2: select all roads that intersect a given region");
    println!("  file-based: not expressible (single point-cloud source, no vector data, no SQL)");
    let catalog = lidardb::scene_catalog(Arc::new(fx.pc), &fx.scene);
    let sql = "SELECT id, name, class FROM roads WHERE \
               ST_Intersects(geom, ST_MakeEnvelope(100310, 450290, 100600, 450580))";
    let roads = lidardb_sql::query(&catalog, sql).expect("sql").rows.len();
    let t = median_seconds(5, || {
        std::hint::black_box(lidardb_sql::query(&catalog, sql).expect("sql").rows.len());
    });
    println!("  DBMS: {roads} roads in {} ms\n", t.ms());
}

// ---------------------------------------------------------------------------
// E6 — the SQL pipeline on statements no benchmark workload runs
// ---------------------------------------------------------------------------

/// Drops every batch: the timings are the statement's, not a collector's.
struct Discard;

impl lidardb_sql::RowSink for Discard {
    fn start(&mut self, _: &[String], _: &CancelToken) -> Result<(), lidardb_sql::SqlError> {
        Ok(())
    }

    fn batch(&mut self, _: Vec<Vec<lidardb_sql::SqlValue>>) -> Result<(), lidardb_sql::SqlError> {
        Ok(())
    }

    fn columns(&mut self, _: lidardb_sql::ColumnBatch) -> Result<(), lidardb_sql::SqlError> {
        Ok(())
    }
}

fn e6_sql_pipeline() {
    header(
        "E6 (scenario 2 scene, §4.2)",
        "one SQL pipeline: fold, GROUP BY, residuals and projections over one window",
    );
    let scene = lidardb::datagen::Scene::generate(lidardb::datagen::SceneConfig {
        seed: 42,
        origin: (0.0, 0.0),
        extent_m: 1000.0,
    });
    let mut pc = PointCloud::new();
    for tile in lidardb::datagen::TileSet::generate(&scene, 3, 1.0).tiles() {
        pc.append_records(&tile.records).expect("append");
    }
    println!("scene: {} points", pc.num_points());
    let catalog = lidardb::scene_catalog(Arc::new(pc), &scene);
    let window = "ST_Contains(ST_MakeEnvelope(200, 200, 500, 500), ST_Point(x, y))";
    let statements = [
        format!("SELECT COUNT(*), AVG(z) FROM points WHERE {window}"),
        format!("SELECT COUNT(*), AVG(z) FROM points WHERE {window} GROUP BY classification"),
        format!("SELECT COUNT(*) FROM points WHERE {window}"),
        format!("SELECT COUNT(*) FROM points WHERE {window} AND z + 0 > -1000"),
        format!("SELECT x, y, z FROM points WHERE {window}"),
        format!("SELECT x, y, z + 0 FROM points WHERE {window}"),
        format!("SELECT x, y, z FROM points WHERE {window} ORDER BY z LIMIT 10"),
    ];
    for sql in &statements {
        let stmt = lidardb_sql::parser::parse(sql).expect("parse");
        let run = || {
            let summary = lidardb_sql::execute_streamed(
                &catalog,
                &stmt,
                lidardb_sql::STREAM_BATCH_ROWS,
                &mut Discard,
            );
            summary.expect("statement").rows
        };
        let rows = run();
        let t = median_seconds(7, || {
            std::hint::black_box(run());
        });
        println!("\n> {sql}");
        println!("  {rows} rows; best {:.3} ms; {} ms", t.min * 1e3, t.ms());
        let plan = lidardb_sql::query(&catalog, &format!("EXPLAIN ANALYZE {sql}")).expect("plan");
        let lines: Vec<String> = plan.rows.iter().map(|r| r[0].render()).collect();
        let actual = lines.iter().skip_while(|l| *l != "actual:").skip(1);
        actual.for_each(|l| println!("  {l}"));
    }
    println!();
}

// ---------------------------------------------------------------------------
// E7 — robustness on unclustered data
// ---------------------------------------------------------------------------

fn e7_robustness() {
    header(
        "E7 (robustness, §2.1.1)",
        "imprints stay effective on unclustered data where zonemaps fail",
    );
    let fx = Fixture::build(77, 800.0, 2, 2.0);
    let pc = &fx.pc;
    let acquisition: Vec<f64> = pc.f64_column("x").expect("x").to_vec();
    let n = acquisition.len();
    let mut next = lcg(0x9E37_79B9_7F4A_7C15);
    let mut pick = move |len: usize| (next() >> 24) as usize % len;

    // Deterministic Fisher-Yates shuffle.
    let mut shuffled = acquisition.clone();
    for i in (1..n).rev() {
        shuffled.swap(i, pick(i + 1));
    }
    let mut sorted = acquisition.clone();
    sorted.sort_by(f64::total_cmp);

    let env = fx.scene.envelope();
    let lo = env.min_x + env.width() * 0.40;
    let hi = env.min_x + env.width() * 0.41; // ~1% of the x domain

    println!("dataset: {n} x-values; probe range covers ~1% of the domain\n");
    println!(
        "{:<14} {:<12} {:>12} {:>10} {:>11} {:>30}",
        "ordering", "index", "index bytes", "overhead", "cand. rate", "probe us"
    );
    let row = |name: &str, index: &str, bytes: usize, rate: f64, t: Timing| {
        println!(
            "{name:<14} {index:<12} {bytes:>12} {:>9.1}% {:>10.2}% {:>30}",
            bytes as f64 / (n * 8) as f64 * 100.0,
            rate * 100.0,
            t.scaled(1e6)
        );
    };
    for (name, data) in [
        ("acquisition", &acquisition),
        ("shuffled", &shuffled),
        ("sorted", &sorted),
    ] {
        let imp = Imprints::build(data);
        let t = median_seconds(5, || {
            std::hint::black_box(imp.probe(lo, hi).num_rows());
        });
        let rate = imp.probe(lo, hi).num_rows() as f64 / n as f64;
        row(name, "imprints", imp.byte_size(), rate, t);
        for zone in [64usize, 1024] {
            let zm = ZoneMap::build(data, zone);
            let t = median_seconds(5, || {
                std::hint::black_box(zm.candidate_ranges(lo, hi).len());
            });
            let index = format!("zonemap/{zone}");
            row(name, &index, zm.byte_len(), zm.candidate_rate(lo, hi), t);
        }
    }

    println!("\nbin-count ablation (shuffled data, same probe):");
    println!("{:>6} {:>12} {:>12}", "bins", "index bytes", "cand. rate");
    for bins in [8usize, 16, 32, 64] {
        let binmap = lidardb_imprints::BinMap::from_data_with(&shuffled, bins, 2048);
        let imp = Imprints::build_with_bins(&shuffled, binmap);
        let rate = imp.probe(lo, hi).num_rows() as f64 / n as f64;
        println!("{bins:>6} {:>12} {:>11.2}%", imp.byte_size(), rate * 100.0);
    }

    // E7b: fault injection — robustness against the *environment*, not
    // just the data distribution. Three demonstrations of the durability
    // contract: checksummed persistence, quarantining ingestion, and
    // query-time degradation.
    println!("\nfault injection (deterministic seeded faults, lidardb_core::fault):");

    // 1. Corruption detection: save, flip one bit of one seeded byte, reopen.
    let save_dir = fx.scratch.join("fault_save");
    let trials = 64usize;
    let mut detected = 0usize;
    for _ in 0..trials {
        let _ = std::fs::remove_dir_all(&save_dir);
        pc.save_dir(&save_dir).expect("save");
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&save_dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        let victim = &files[pick(files.len())];
        let mut bytes = std::fs::read(victim).expect("read file");
        let pos = pick(bytes.len());
        bytes[pos] ^= 1 << pick(8);
        std::fs::write(victim, &bytes).expect("write corruption");
        detected += usize::from(PointCloud::open_dir(&save_dir).is_err());
    }
    println!(
        "  single-byte corruption of a saved dir: detected {detected}/{trials} ({:.1}%)",
        detected as f64 / trials as f64 * 100.0
    );

    // 2. Quarantining ingestion: 16 tiles, 3 corrupted three ways.
    let tile_dir = fx.scratch.join("fault_tiles");
    std::fs::create_dir_all(&tile_dir).expect("mkdir");
    let paths: Vec<std::path::PathBuf> = (0..16usize)
        .map(|i| {
            let dst = tile_dir.join(format!("tile{i:02}.las"));
            std::fs::copy(&fx.las_paths[i % fx.las_paths.len()], &dst).expect("copy tile");
            dst
        })
        .collect();
    std::fs::write(&paths[2], b"not a point cloud").expect("garbage");
    let bytes = std::fs::read(&paths[7]).expect("read");
    std::fs::write(&paths[7], &bytes[..bytes.len() / 2]).expect("truncate");
    let mut bytes = std::fs::read(&paths[11]).expect("read");
    bytes[0] ^= 0xFF;
    std::fs::write(&paths[11], &bytes).expect("bad magic");
    let mut loaded = PointCloud::new();
    let (report, secs) = timed(|| {
        Loader::new(LoadMethod::Binary)
            .with_policy(LoadPolicy::SkipCorrupt { max_retries: 2 })
            .load_files_report(&mut loaded, &paths)
            .expect("skip-corrupt load")
    });
    let quarantined: Vec<String> = report
        .quarantined()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    println!(
        "  SkipCorrupt ingest of 16 tiles (3 corrupt): {} files / {} points in {:.1} ms (n=1)",
        report.stats.files,
        report.stats.points,
        secs * 1e3
    );
    println!("  quarantined: {}", quarantined.join(", "));

    // 3. Query-time degradation: a failed imprint build falls back to a
    // full scan instead of failing the query.
    let pred = within_rect(&fx.window(1e-2));
    let healthy = pc.select(&pred).expect("select");
    let mut degraded_pc = PointCloud::new();
    Loader::new(LoadMethod::Binary)
        .load_files(&mut degraded_pc, &fx.las_paths)
        .expect("load");
    let fi = Arc::new(FaultInjector::new());
    fi.inject_n(
        FaultStage::ImprintBuild,
        Some("x"),
        FaultKind::IoError,
        0,
        u32::MAX,
    );
    degraded_pc.set_fault_injector(fi);
    let degraded = degraded_pc.select(&pred).expect("degraded select");
    println!(
        "  degraded x-imprint query: rows {} vs healthy {} (identical: {}), degraded probes: {}",
        degraded.rows.len(),
        healthy.rows.len(),
        degraded.rows == healthy.rows,
        degraded.explain.degraded_probes
    );
    println!(
        "    degraded {} ms vs healthy {} ms\n",
        select_timing(&degraded_pc, &pred).ms(),
        select_timing(pc, &pred).ms()
    );
}

// ---------------------------------------------------------------------------
// E8 — space-filling-curve ordering
// ---------------------------------------------------------------------------

fn e8_sfc() {
    header(
        "E8 (SFC ordering, §2.3)",
        "Hilbert/Morton block sorting: locality and blocks touched per query",
    );
    let fx = Fixture::build(88, 800.0, 2, 1.5);
    let records = read_tiles(&fx.las_paths);
    let env = fx.scene.envelope();

    // Curve locality on the quantised points.
    let q = Quantizer::new(env.min_x, env.min_y, env.max_x, env.max_y, 16);
    let cells: Vec<(u32, u32)> = records
        .iter()
        .step_by(7)
        .map(|r| q.cell(r.x, r.y))
        .collect();
    println!("curve locality over {} sampled points:", cells.len());
    println!("{:<10} {:>12} {:>12}", "curve", "mean step", "max step");
    for curve in [Curve::Morton, Curve::Hilbert] {
        let s = curve_locality(curve, &cells);
        println!("{curve:<10?} {:>12.2} {:>12.2}", s.mean_step, s.max_step);
    }

    // Blockstore pruning by layout.
    let stores = [
        BlockStore::build_unsorted(&records, 512).expect("unsorted"),
        BlockStore::build(&records, 512, Curve::Morton).expect("morton"),
        BlockStore::build(&records, 512, Curve::Hilbert).expect("hilbert"),
    ];
    println!(
        "\nblocks touched per query ({} blocks total):",
        stores[1].num_blocks()
    );
    println!(
        "{:>11} {:>10} {:>10} {:>10}",
        "selectivity", "unsorted", "morton", "hilbert"
    );
    for frac in [1e-4, 1e-3, 1e-2, 1e-1] {
        let w = fx.window(frac);
        let touched = stores
            .each_ref()
            .map(|bs| bs.query_bbox(&w).expect("bbox").1.blocks_matched);
        println!(
            "{frac:>11.0e} {:>10} {:>10} {:>10}",
            touched[0], touched[1], touched[2]
        );
    }

    // Imprint quality on SFC-sorted coordinates (lassort interaction).
    let xs: Vec<f64> = records.iter().map(|r| r.x).collect();
    let mut sfc_sorted = records;
    sfc_sorted.sort_by_cached_key(|r| {
        let (cx, cy) = q.cell(r.x, r.y);
        Curve::Hilbert.encode(cx, cy)
    });
    let xs_sfc: Vec<f64> = sfc_sorted.iter().map(|r| r.x).collect();
    println!("\nimprint compression on x (acquisition vs hilbert-sorted):");
    for (name, data) in [("acquisition:", &xs), ("hilbert:", &xs_sfc)] {
        let imp = Imprints::build(data);
        println!(
            "{name:<12} {} bytes ({:.1}x vector compression)",
            imp.byte_size(),
            imp.num_lines() as f64 / imp.num_vectors() as f64
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// E9 — worker sweep of the morsel engine
// ---------------------------------------------------------------------------

fn e9_parallel() {
    header(
        "E9 (parallel execution)",
        "one morsel engine at every worker count: identical rows, per-step time vs workers",
    );
    const N: usize = 12_000_000;
    const TRIES: usize = 3;
    println!("building {N} synthetic points ...");
    let (pc, secs) = timed(|| synthetic_cloud(N, 0x1234_5678_9ABC_DEF1));
    println!("dataset: {} points in {secs:.1} s\n", pc.num_points());

    let queries = [
        (
            "bbox_36pct",
            within_rect(&Envelope::new(1500.0, 1500.0, 7500.0, 7500.0).expect("env")),
        ),
        ("diamond_32pct", within_diamond(5000.0, 5000.0, 4000.0)),
    ];
    let select = |pred: &SpatialPredicate, par: Parallelism| {
        pc.select_query_with(Some(pred), &[], RefineStrategy::default(), par)
            .expect("select")
    };
    let modes = [
        Parallelism::Serial,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ];
    for (name, pred) in &queries {
        // Also warms the lazy imprints, so every measured run is probe-only.
        let serial_rows = select(pred, Parallelism::Serial).rows;
        println!("query {name}: {} rows; times in ms", serial_rows.len());
        println!(
            "{:<12} {:>28} {:>32} {:>32} {:>32} {:>13}",
            "mode", "filter", "bbox", "refine", "total", "bbox speedup"
        );
        let mut serial_bbox = 0.0f64;
        for par in modes {
            // Per-step times come from the query's own Explain; rows are
            // re-checked on every run.
            let mut steps: [Vec<f64>; 4] = Default::default();
            for _ in 0..TRIES {
                let sel = select(pred, par);
                assert_eq!(sel.rows, serial_rows, "rows must be identical at {par:?}");
                let e = &sel.explain;
                for (step, t) in
                    steps
                        .iter_mut()
                        .zip([e.t_imprints, e.t_bbox, e.t_refine, e.total_seconds()])
                {
                    step.push(t);
                }
            }
            let [filter, bbox, refine, total] = steps.map(Timing::from_samples);
            if par == Parallelism::Serial {
                serial_bbox = bbox.median;
            }
            let label = match par {
                Parallelism::Serial => "serial".to_string(),
                _ => format!("threads({})", par.workers()),
            };
            println!(
                "{label:<12} {:>28} {:>32} {:>32} {:>32} {:>12.2}x",
                filter.ms(),
                bbox.ms(),
                refine.ms(),
                total.ms(),
                serial_bbox / bbox.median.max(1e-12)
            );
        }
        println!();
    }
}

// ---------------------------------------------------------------------------
// E10 — overload governance, embedded
// ---------------------------------------------------------------------------

fn e10_overload() {
    header(
        "E10 (overload governance)",
        "admission control + deadlines under 64-client burst: bounded tail, typed shedding, no hangs",
    );
    lidardb_core::MetricsRegistry::global().reset();
    const N: usize = 2_000_000;
    const CLIENTS: usize = 64;
    const PER_CLIENT: usize = 3;
    const DEADLINE: Duration = Duration::from_millis(50);

    println!("building {N} synthetic points ...");
    let mut pc = synthetic_cloud(N, 0xE10_0DD);
    let admission = Arc::new(AdmissionController::unlimited());
    pc.set_admission(Arc::clone(&admission));
    let preds = [
        within_rect(&Envelope::new(1000.0, 1000.0, 9000.0, 9000.0).expect("env")),
        within_diamond(5000.0, 5000.0, 4500.0),
        within_rect(&Envelope::new(4000.0, 4000.0, 5000.0, 5000.0).expect("env")),
    ];
    // Warm lazy imprints so the burst measures query latency, not builds.
    for p in &preds {
        pc.select(p).expect("warmup");
    }
    let run = |deadline: Option<Duration>| {
        burst(CLIENTS, PER_CLIENT, |t| {
            let (pc, preds) = (&pc, &preds);
            move |q| {
                let table = PointTable::Flat(pc);
                let pred = Some(&preds[(t + q) % preds.len()]);
                let res = table.govern("select within (0 attr filters)", deadline, None);
                let res = res.and_then(|g| {
                    let (strategy, serial) = (RefineStrategy::default(), Parallelism::Serial);
                    table.select(pred, &[], strategy, serial, &g.ctx)
                });
                match res {
                    Ok(_) => Outcome::Ok,
                    Err(CoreError::Cancelled { .. }) => Outcome::Cancelled,
                    Err(CoreError::Overloaded) => Outcome::Overloaded,
                    Err(e) => panic!("E10: untyped failure under load: {e}"),
                }
            }
        })
    };

    println!("\nburst: {CLIENTS} clients x {PER_CLIENT} queries, serial executor per query\n");
    println!("{:<12} {}", "config", BurstSummary::HEADER);
    let open = run(None);
    println!("{:<12} {open}", "ungoverned");
    assert_eq!(
        open.ok,
        CLIENTS * PER_CLIENT,
        "ungoverned queries all succeed"
    );

    // Governed: 4 in flight, queue of 8, 50 ms deadline that also bounds
    // queue wait. The queue WILL fill at 64 clients: excess is shed as
    // Overloaded, queued-but-stale work dies as Cancelled.
    admission.set_limits(4, 8);
    println!("{:<12} {}", "governed", run(Some(DEADLINE)));

    let m = lidardb_core::MetricsRegistry::global();
    println!(
        "\ngovernor counters: shed={} timed_out={} killed={} budget_trips={}\n",
        m.queries_shed.get(),
        m.queries_timed_out.get(),
        m.queries_killed.get(),
        m.budget_trips.get()
    );
}

// ---------------------------------------------------------------------------
// E11 — the same burst over TCP, with /metrics scraped while it runs
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.0 GET against the metrics listener; returns the body
/// if the status is 200.
fn scrape(addr: std::net::SocketAddr) -> Option<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).ok()?;
    write!(s, "GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    let (head, body) = buf.split_once("\r\n\r\n")?;
    head.lines()
        .next()?
        .contains("200")
        .then(|| body.to_string())
}

/// Hundreds of concurrent TCP sessions resolve every statement to a typed
/// Ok / Cancelled / Overloaded, the governed tail is bounded by the
/// deadline including queue wait, and `/metrics` keeps answering a
/// scraper while the query plane is saturated.
fn e11_wire_burst() {
    use lidardb_server::{Client, ClientError, Server};

    header(
        "E11 (wire burst)",
        "256 TCP sessions, ungoverned vs governed: typed outcomes, bounded tail, live /metrics scrapes",
    );
    const N: usize = 4_000_000;
    const CLIENTS: usize = 256;
    const PER_CLIENT: usize = 2;
    const DEADLINE: Duration = Duration::from_millis(100);
    const SCRAPE_EVERY: Duration = Duration::from_millis(100);

    println!("building {N} synthetic points ...");
    let mut pc = synthetic_cloud(N, 0xE11_5EED);
    let admission = Arc::new(AdmissionController::unlimited());
    pc.set_admission(Arc::clone(&admission));
    let pc = Arc::new(pc);
    // Small envelopes (~1.5-2% selectivity each) so 256 concurrent row-id
    // materialisations stay modest; COUNT keeps the result frames tiny,
    // isolating governance + protocol latency.
    let sqls = [
        (4000, 4000, 5400, 5400),
        (1000, 1000, 2000, 2500),
        (7000, 2000, 8000, 4000),
    ]
    .map(|(x0, y0, x1, y1)| {
        format!(
            "SELECT COUNT(*) FROM points WHERE \
             ST_Contains(ST_MakeEnvelope({x0}, {y0}, {x1}, {y1}), ST_Point(x, y))"
        )
    });

    let mut catalog = lidardb_sql::Catalog::new();
    catalog.register_pointcloud("points", Arc::clone(&pc));
    let server = Server::bind("127.0.0.1:0", catalog)
        .expect("bind")
        .with_metrics_addr("127.0.0.1:0")
        .expect("bind metrics")
        .spawn()
        .expect("spawn server");
    let (addr, metrics_addr) = (server.addr(), server.metrics_addr().expect("metrics"));
    // Warm lazy imprints through the wire so the bursts measure protocol +
    // governance latency, not index builds.
    let mut warm = Client::connect(addr).expect("warmup connect");
    for sql in &sqls {
        warm.query_collect(sql).expect("warmup query");
    }
    drop(warm);

    // One burst with a scraper playing Prometheus beside it; prints the
    // burst's summary and the scrape latencies, returns the summary.
    let run = |name: &str| {
        let stop = AtomicBool::new(false);
        let (summary, scrapes) = std::thread::scope(|s| {
            let scraper = s.spawn(|| {
                let mut secs = Vec::new();
                while secs.is_empty() || !stop.load(Ordering::Acquire) {
                    let (body, t) = timed(|| scrape(metrics_addr));
                    let body = body.expect("scrape failed mid-burst");
                    assert!(
                        body.contains("lidardb_queries_total"),
                        "scrape lacks counters"
                    );
                    secs.push(t);
                    std::thread::sleep(SCRAPE_EVERY);
                }
                Timing::from_samples(secs)
            });
            let summary = burst(CLIENTS, PER_CLIENT, |t| {
                let mut c = Client::connect(addr).expect("E11 client connect");
                let sqls = &sqls;
                move |q| match c.query_collect(&sqls[(t + q) % sqls.len()]) {
                    Ok(_) => Outcome::Ok,
                    Err(ClientError::Server(m)) if m.contains("cancelled") => Outcome::Cancelled,
                    Err(ClientError::Server(m)) if m.contains("overloaded") => Outcome::Overloaded,
                    Err(e) => panic!("E11: untyped failure under load: {e}"),
                }
            });
            stop.store(true, Ordering::Release);
            (summary, scraper.join().expect("scraper thread"))
        });
        println!("{name:<12} {summary} {:>32}", scrapes.ms());
        summary
    };

    println!(
        "\nburst: {CLIENTS} concurrent connections x {PER_CLIENT} statements; /metrics scraped \
         every {} ms\n",
        SCRAPE_EVERY.as_millis()
    );
    println!(
        "{:<12} {} {:>32}",
        "config",
        BurstSummary::HEADER,
        "/metrics scrape ms"
    );
    let open = run("ungoverned");
    assert_eq!(
        open.ok,
        CLIENTS * PER_CLIENT,
        "ungoverned statements all succeed"
    );

    // Governed: 4 in flight, queue of 16, 100 ms deadline that also bounds
    // queue wait. At 256 connections the queue WILL fill: excess sheds as
    // Overloaded, queued-but-stale work dies as Cancelled.
    admission.set_limits(4, 16);
    pc.set_default_deadline(Some(DEADLINE));
    run("governed");
    server.shutdown();
}
