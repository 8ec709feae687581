//! Demonstration scenario 1 (§4.1 of the paper): functional and
//! performance comparison of the file-based approach (LAStools-like) and
//! the DBMS approach (flat table + imprints) on the same predefined
//! queries — "select all LIDAR points within a given region" and "select
//! all roads that intersect a given region".
//!
//! Run with: `cargo run --release --example scenario1_file_vs_db`

use std::sync::Arc;
use std::time::Instant;

use lidardb::prelude::*;
use lidardb::{scene_catalog, write_scene_tiles};
use lidardb_test_support::ScratchDir;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = Scene::generate(SceneConfig {
        seed: 41,
        origin: (0.0, 0.0),
        extent_m: 1200.0,
    });
    let scratch = ScratchDir::new("scenario1_tiles");
    let dir = scratch.path();
    let paths = write_scene_tiles(&scene, dir, 4, 1.0, Compression::LazLite)?;
    println!("dataset: {} laz-lite tiles", paths.len());

    // --- the file-based solution -------------------------------------------
    let mut filestore = FileStore::open(dir)?;
    let t0 = Instant::now();
    filestore.sort_files(Curve::Morton)?; // lassort
    filestore.build_indexes()?; // lasindex
    println!(
        "file-based ETL (lassort + lasindex): {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    // --- the DBMS ------------------------------------------------------------
    let mut pc = PointCloud::new();
    let t0 = Instant::now();
    Loader::new(LoadMethod::Binary).load_files(&mut pc, &paths)?;
    println!("DBMS binary load: {:.2}s\n", t0.elapsed().as_secs_f64());

    // --- predefined query: points within a region ---------------------------
    let window = Envelope::new(300.0, 300.0, 520.0, 560.0)?;
    println!(
        "Q1: select all LIDAR points within ({}, {}) - ({}, {})",
        window.min_x, window.min_y, window.max_x, window.max_y
    );

    let t0 = Instant::now();
    let (file_hits, fstats) = filestore.query_bbox(&window)?;
    let t_file = t0.elapsed().as_secs_f64();
    println!(
        "  file-based: {} points in {:.4}s (headers pruned {}/{} files, {} records decoded)",
        file_hits.len(),
        t_file,
        fstats.files_total - fstats.files_matched,
        fstats.files_total,
        fstats.records_decoded
    );

    let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
    let t0 = Instant::now();
    let sel = pc.select(&pred)?;
    let t_db = t0.elapsed().as_secs_f64();
    println!(
        "  DBMS:       {} points in {:.4}s (imprints kept {} candidates of {})",
        sel.rows.len(),
        t_db,
        sel.explain.after_imprints,
        pc.num_points()
    );
    assert_eq!(file_hits.len(), sel.rows.len(), "engines must agree");

    // --- predefined query: roads intersecting a region ----------------------
    // The file-based solution has no road data at all — §2.2's point about
    // functionality: it answers queries over a single point-cloud source
    // only. The DBMS holds the OSM-like vectors next to the points.
    let catalog = scene_catalog(Arc::new(pc), &scene);
    let sql = format!(
        "SELECT id, name, class FROM roads WHERE \
         ST_Intersects(geom, ST_MakeEnvelope({}, {}, {}, {}))",
        window.min_x, window.min_y, window.max_x, window.max_y
    );
    println!("\nQ2: select all roads that intersect the region");
    println!("  file-based: NOT EXPRESSIBLE (single data source, no SQL)");
    let rs = lidardb::sql::query(&catalog, &sql)?;
    println!("  DBMS:");
    print!("{}", rs.render());

    // --- ad-hoc follow-up the demo audience can type ------------------------
    let sql = "SELECT class, COUNT(*) AS segments FROM roads GROUP BY class ORDER BY segments DESC";
    println!("\nQ3 (ad hoc): {sql}");
    print!("{}", lidardb::sql::query(&catalog, sql)?.render());
    Ok(())
}
