//! Demonstration scenario 2 (§4.2 of the paper): ad-hoc queries across
//! multiple datasets — LIDAR points, OSM-like roads and Urban-Atlas-like
//! land use — including the two pre-defined queries the paper names and
//! the per-operator EXPLAIN view it shows the audience.
//!
//! Run with: `cargo run --release --example scenario2_adhoc_queries`

use std::sync::Arc;

use lidardb::prelude::*;
use lidardb::scene_catalog;

fn run(catalog: &Catalog, sql: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n> {sql}");
    let rs = lidardb::sql::query(catalog, sql)?;
    print!("{}", rs.render());
    // The trace view: the select's (or the join's) operators, then the
    // steps of the one SQL pipeline the statement ran — `residual filter`
    // when a term is left after pushdown, `aggregate (...)` (with its group
    // count under GROUP BY) or `project`, then `distinct` and `sort` when
    // asked. `execute` collects what the server streams, so these are the
    // operators a wire client's statement runs too.
    print!("{}", rs.render_trace());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = Scene::generate(SceneConfig {
        seed: 42,
        origin: (0.0, 0.0),
        extent_m: 1000.0,
    });
    let tiles = TileSet::generate(&scene, 3, 1.0);
    let mut pc = PointCloud::new();
    for tile in tiles.tiles() {
        pc.append_records(&tile.records)?;
    }
    println!("loaded {} points + vector layers", pc.num_points());
    let catalog = scene_catalog(Arc::new(pc), &scene);

    // Pre-defined query 1 (verbatim from the paper): "select all LIDAR
    // points that are near a given area that is characterised as a fast
    // transit road according to the Urban Atlas nomenclature".
    run(
        &catalog,
        "SELECT COUNT(*) AS points_near_fast_transit \
         FROM points p, ua z \
         WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, 25) AND z.code = 12210",
    )?;

    // Pre-defined query 2: "compute the average elevation of the LIDAR
    // points that are near a given area that is characterised as a fast
    // transit road".
    run(
        &catalog,
        "SELECT AVG(p.z) AS avg_elevation, MIN(p.z) AS min_z, MAX(p.z) AS max_z \
         FROM points p, ua z \
         WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, 25) AND z.code = 12210",
    )?;

    // Thematic + spatial mix: water returns near the river, per the OSM
    // river geometry rather than the UA zone.
    run(
        &catalog,
        "SELECT COUNT(*) AS water_returns \
         FROM points p, rivers r \
         WHERE ST_DWithin(ST_Point(p.x, p.y), r.geom, 12) AND p.classification = 9",
    )?;

    // Land-use profile of the whole scan: which UA class do building
    // returns fall into?
    run(
        &catalog,
        "SELECT z.label, COUNT(*) AS building_returns \
         FROM points p, ua z \
         WHERE ST_Contains(z.geom, ST_Point(p.x, p.y)) AND p.classification = 6 \
         GROUP BY z.label ORDER BY building_returns DESC",
    )?;

    // The demo lets users see the query plan: EXPLAIN shows the pushdown.
    println!("\n> EXPLAIN of the fast-transit query:");
    let rs = lidardb::sql::query(
        &catalog,
        "EXPLAIN SELECT COUNT(*) FROM points p, ua z \
         WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, 25) AND z.code = 12210",
    )?;
    for row in &rs.rows {
        println!("{}", row[0].render());
    }
    // EXPLAIN ANALYZE runs it: the plan, then the operators it really ran.
    println!("\n> EXPLAIN ANALYZE of the average-elevation query:");
    let rs = lidardb::sql::query(
        &catalog,
        "EXPLAIN ANALYZE SELECT AVG(p.z) FROM points p, ua z \
         WHERE ST_DWithin(ST_Point(p.x, p.y), z.geom, 25) AND z.code = 12210",
    )?;
    for row in &rs.rows {
        println!("{}", row[0].render());
    }
    Ok(())
}
