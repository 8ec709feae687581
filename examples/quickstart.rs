//! Quickstart: generate a synthetic LIDAR scan, bulk-load it, and query it
//! through both the native two-step engine and SQL.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use lidardb::prelude::*;
use lidardb::{scene_catalog, write_scene_tiles};
use lidardb_test_support::ScratchDir;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 1 km² synthetic Dutch municipality at 1 pt/m² (≈1M points).
    let scene = Scene::generate(SceneConfig {
        seed: 2015,
        origin: (120_000.0, 480_000.0), // RD-like coordinates, like AHN2
        extent_m: 1000.0,
    });
    println!("scene: {:?}", scene.envelope());

    // 2. Write it out as a directory of laz-lite tiles (the AHN2 shape).
    let scratch = ScratchDir::new("quickstart_tiles");
    let dir = scratch.path();
    let paths = write_scene_tiles(&scene, dir, 4, 1.0, Compression::LazLite)?;
    println!("wrote {} tiles to {}", paths.len(), dir.display());

    // 3. Bulk-load with the paper's binary loader (parallel decode,
    //    per-column binary dumps, COPY BINARY appends).
    let mut pc = PointCloud::new();
    let stats = Loader::new(LoadMethod::Binary).load_files(&mut pc, &paths)?;
    println!(
        "loaded {} points from {} files in {:.2}s ({:.1} Mpts/s)",
        stats.points,
        stats.files,
        stats.wall_seconds,
        stats.points_per_second() / 1e6
    );

    // 4. A rectangular selection through the two-step engine. The first
    //    query triggers the lazy imprint build on x and y (§3.2 of the
    //    paper).
    let env = scene.envelope();
    let window = Envelope::new(
        env.min_x + 200.0,
        env.min_y + 200.0,
        env.min_x + 450.0,
        env.min_y + 450.0,
    )?;
    let pred = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(&window)));
    let sel = pc.select(&pred)?;
    println!(
        "\nselect points in a 250m x 250m window -> {} points",
        sel.rows.len()
    );
    println!("{}", sel.explain.to_table());

    // 5. Storage accounting: the imprints overhead the paper quotes as
    //    5-12%.
    for (col, s) in pc.imprint_stats() {
        println!(
            "imprints[{col}]: {} bytes over {} ({:.1}% overhead, {:.0}x vector compression)",
            s.index_bytes,
            s.column_bytes,
            s.overhead() * 100.0,
            s.vector_compression()
        );
    }

    // 6. The same question in SQL, plus a thematic twist.
    let catalog = scene_catalog(Arc::new(pc), &scene);
    let sql = format!(
        "SELECT classification, COUNT(*) AS n, AVG(z) AS mean_z \
         FROM points \
         WHERE ST_Contains(ST_MakeEnvelope({}, {}, {}, {}), ST_Point(x, y)) \
         GROUP BY classification ORDER BY n DESC",
        window.min_x, window.min_y, window.max_x, window.max_y
    );
    println!("\n> {sql}");
    let rs = lidardb::sql::query(&catalog, &sql)?;
    print!("{}", rs.render());
    print!("{}", rs.render_trace());
    Ok(())
}
