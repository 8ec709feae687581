//! End-to-end pipeline: generate → write LAS tiles → bulk load → index →
//! query → verify against a brute-force oracle.

use std::sync::Arc;

use lidardb::prelude::*;
use lidardb::{scene_catalog, write_scene_tiles};

fn scene() -> Scene {
    Scene::generate(SceneConfig {
        seed: 77,
        origin: (10_000.0, 20_000.0),
        extent_m: 600.0,
    })
}

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("lidardb_it_{name}"));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn both_file_formats_load_identically() {
    let scene = scene();
    let dir_las = tmp("fmt_las");
    let dir_laz = tmp("fmt_laz");
    let paths_las = write_scene_tiles(&scene, &dir_las, 2, 0.5, Compression::None).unwrap();
    let paths_laz = write_scene_tiles(&scene, &dir_laz, 2, 0.5, Compression::LazLite).unwrap();

    let mut a = PointCloud::new();
    Loader::new(LoadMethod::Binary)
        .load_files(&mut a, &paths_las)
        .unwrap();
    let mut b = PointCloud::new();
    Loader::new(LoadMethod::Binary)
        .load_files(&mut b, &paths_laz)
        .unwrap();
    assert_eq!(a.num_points(), b.num_points());
    assert!(a.num_points() > 100_000, "got {}", a.num_points());
    // laz-lite quantises to 1 cm; values agree within that.
    let (xa, xb) = (a.f64_column("x").unwrap(), b.f64_column("x").unwrap());
    for i in (0..a.num_points()).step_by(9973) {
        assert!((xa[i] - xb[i]).abs() < 0.011, "row {i}: {} vs {}", xa[i], xb[i]);
    }
    // Attribute columns are exactly equal.
    assert_eq!(
        a.column("classification").unwrap(),
        b.column("classification").unwrap()
    );
    assert_eq!(a.column("intensity").unwrap(), b.column("intensity").unwrap());
}

#[test]
fn two_step_engine_matches_bruteforce_oracle() {
    let scene = scene();
    let tiles = TileSet::generate(&scene, 2, 0.5);
    let mut pc = PointCloud::new();
    for t in tiles.tiles() {
        pc.append_records(&t.records).unwrap();
    }
    let xs = pc.f64_column("x").unwrap().to_vec();
    let ys = pc.f64_column("y").unwrap().to_vec();
    let env = scene.envelope();

    // A concave polygon with a hole, positioned mid-scene.
    let cx = env.min_x + 300.0;
    let cy = env.min_y + 300.0;
    let poly = Polygon::new(
        lidardb::geom::Ring::new(vec![
            Point::new(cx - 180.0, cy - 150.0),
            Point::new(cx + 200.0, cy - 120.0),
            Point::new(cx + 60.0, cy + 30.0),
            Point::new(cx + 190.0, cy + 180.0),
            Point::new(cx - 150.0, cy + 160.0),
        ])
        .unwrap(),
        vec![lidardb::geom::Ring::new(vec![
            Point::new(cx - 40.0, cy - 40.0),
            Point::new(cx + 40.0, cy - 40.0),
            Point::new(cx + 40.0, cy + 40.0),
            Point::new(cx - 40.0, cy + 40.0),
        ])
        .unwrap()],
    );
    let pred = SpatialPredicate::Within(Geometry::Polygon(poly.clone()));
    let oracle: Vec<usize> = (0..pc.num_points())
        .filter(|&i| poly.contains_point(&Point::new(xs[i], ys[i])))
        .collect();

    for strat in [
        RefineStrategy::Grid { cells: 64 },
        RefineStrategy::Grid { cells: 5 },
        RefineStrategy::Exhaustive,
    ] {
        let sel = pc.select_query_with(
            Some(&pred),
            &[],
            strat,
            lidardb_core::Parallelism::default(),
        )
        .unwrap();
        let mut rows = sel.rows.clone();
        rows.sort_unstable();
        assert_eq!(rows, oracle, "strategy {strat:?}");
    }

    // DWithin against the river geometry.
    let river = Geometry::LineString(scene.rivers()[0].geometry.clone());
    let pred = SpatialPredicate::DWithin(river.clone(), 30.0);
    let sel = pc.select(&pred).unwrap();
    let oracle: Vec<usize> = (0..pc.num_points())
        .filter(|&i| {
            lidardb::geom::dwithin_point(&river, &Point::new(xs[i], ys[i]), 30.0)
        })
        .collect();
    let mut rows = sel.rows;
    rows.sort_unstable();
    assert_eq!(rows, oracle);
}

#[test]
fn csv_and_binary_loads_agree() {
    let scene = Scene::generate(SceneConfig {
        seed: 5,
        origin: (0.0, 0.0),
        extent_m: 150.0,
    });
    let dir = tmp("csvbin");
    let paths = write_scene_tiles(&scene, &dir, 1, 0.5, Compression::None).unwrap();
    let mut bin = PointCloud::new();
    let sb = Loader::new(LoadMethod::Binary)
        .load_files(&mut bin, &paths)
        .unwrap();
    let mut csv = PointCloud::new();
    let sc = Loader::new(LoadMethod::Csv)
        .load_files(&mut csv, &paths)
        .unwrap();
    assert_eq!(sb.points, sc.points);
    assert_eq!(bin.num_points(), csv.num_points());
    for row in (0..bin.num_points()).step_by(101) {
        let a = bin.record(row).unwrap();
        let b = csv.record(row).unwrap();
        assert_eq!(a.classification, b.classification);
        assert_eq!(a.intensity, b.intensity);
        assert!((a.x - b.x).abs() < 1e-9);
        assert!((a.z - b.z).abs() < 1e-9);
    }
}

#[test]
fn sql_agrees_with_direct_engine_calls() {
    let scene = scene();
    let tiles = TileSet::generate(&scene, 2, 0.4);
    let mut pc = PointCloud::new();
    for t in tiles.tiles() {
        pc.append_records(&t.records).unwrap();
    }
    let env = scene.envelope();
    let window = Envelope::new(
        env.min_x + 100.0,
        env.min_y + 100.0,
        env.min_x + 400.0,
        env.min_y + 350.0,
    )
    .unwrap();
    let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
    let mut sel = pc.select(&pred).unwrap();
    pc.filter_attr(
        &mut sel.rows,
        "classification",
        lidardb::storage::scan::CmpOp::Eq,
        2.0,
    )
    .unwrap();
    let direct_count = sel.rows.len();
    let direct_avg = pc
        .aggregate(&sel.rows, "z", Aggregate::Avg)
        .unwrap()
        .unwrap();

    let catalog = scene_catalog(Arc::new(pc), &scene);
    let sql = format!(
        "SELECT COUNT(*) AS n, AVG(z) AS mean_z FROM points WHERE \
         ST_Contains(ST_MakeEnvelope({}, {}, {}, {}), ST_Point(x, y)) \
         AND classification = 2",
        window.min_x, window.min_y, window.max_x, window.max_y
    );
    let rs = lidardb::sql::query(&catalog, &sql).unwrap();
    assert_eq!(rs.rows[0][0], lidardb::sql::SqlValue::Int(direct_count as i64));
    match rs.rows[0][1] {
        lidardb::sql::SqlValue::Float(v) => assert!((v - direct_avg).abs() < 1e-9),
        ref other => panic!("wrong type {other:?}"),
    }
}

#[test]
fn corrupt_tile_fails_loading_cleanly() {
    let scene = Scene::generate(SceneConfig {
        seed: 6,
        origin: (0.0, 0.0),
        extent_m: 100.0,
    });
    let dir = tmp("corrupt");
    let paths = write_scene_tiles(&scene, &dir, 2, 0.5, Compression::LazLite).unwrap();
    // Truncate one tile.
    let victim = &paths[2];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();
    let mut pc = PointCloud::new();
    let err = Loader::new(LoadMethod::Binary)
        .load_files(&mut pc, &paths)
        .unwrap_err();
    assert!(err.to_string().contains("las"), "{err}");
}
