//! # lidardb — GIS navigation boosted by a column store
//!
//! A from-scratch Rust reproduction of *"GIS Navigation Boosted by Column
//! Stores"* (Alvanaki, Goncalves, Ivanova, Kersten, Kyzirakos — PVLDB
//! 8(12), VLDB 2015): a "spatially-enabled" columnar database for massive
//! LIDAR point clouds, where a lightweight cache-conscious secondary index
//! — **column imprints** — plus a regular-grid refinement step replaces
//! the traditional spatial index, over a plain flat 26-column table.
//!
//! The workspace crates, re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`storage`] | typed columns, flat tables, scan kernels, RLE/FOR codecs, tile zone maps |
//! | [`imprints`] | the column-imprints secondary index (SIGMOD'13) |
//! | [`geom`] | OGC Simple Features subset: types, WKT, predicates, grid classification |
//! | [`sfc`] | Morton + Hilbert space-filling curves |
//! | [`las`] | LAS subset + `laz-lite` compressed point-cloud files |
//! | [`datagen`] | seeded synthetic AHN2 / OSM / Urban Atlas stand-ins |
//! | [`core`] | the paper's system: flat table + lazy imprints + binary loader + two-step queries |
//! | [`baselines`] | LAStools-like file store, pgpointcloud-like block store, and the CSV load route E1 compares the binary loader with |
//! | [`sql`] | SQL subset with OGC functions, spatial pushdown and spatial joins |
//! | [`viz`] | PPM/SVG renderer standing in for QGIS |
//!
//! ## Quickstart
//!
//! ```
//! use lidardb::prelude::*;
//! use std::sync::Arc;
//!
//! // Generate a small synthetic municipality and its LIDAR scan.
//! let scene = Scene::generate(SceneConfig { seed: 1, origin: (0.0, 0.0), extent_m: 300.0 });
//! let tiles = TileSet::generate(&scene, 2, 0.2);
//!
//! // Load the flat column store.
//! let mut pc = PointCloud::new();
//! for tile in tiles.tiles() {
//!     pc.append_records(&tile.records).unwrap();
//! }
//!
//! // Ask SQL for the building returns in a region.
//! let catalog = lidardb::scene_catalog(Arc::new(pc), &scene);
//! let rs = lidardb::sql::query(
//!     &catalog,
//!     "SELECT COUNT(*) FROM points WHERE \
//!      ST_Contains(ST_MakeEnvelope(0, 0, 300, 300), ST_Point(x, y)) \
//!      AND classification = 6",
//! ).unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```

pub use lidardb_baselines as baselines;
pub use lidardb_core as core;
pub use lidardb_datagen as datagen;
pub use lidardb_geom as geom;
pub use lidardb_imprints as imprints;
pub use lidardb_las as las;
pub use lidardb_sfc as sfc;
pub use lidardb_sql as sql;
pub use lidardb_storage as storage;
pub use lidardb_viz as viz;

/// The names everything in this workspace is usually used with.
pub mod prelude {
    pub use lidardb_baselines::{BlockStore, FileStore};
    pub use lidardb_core::{
        Aggregate, ColumnSet, CoreError, Durability, FaultInjector, FaultKind, FaultStage,
        FileOutcome, FileReport, LoadMethod, LoadPolicy, LoadReport, LoadStats, Loader,
        Parallelism, PointCloud, PointTable, RefineStrategy, SpatialPredicate, TileOptions,
        TiledCloud,
    };
    pub use lidardb_datagen::{Scene, SceneConfig, Tile, TileSet};
    pub use lidardb_geom::{Envelope, Geometry, LineString, Point, Polygon};
    pub use lidardb_las::{Compression, LasHeader, PointRecord};
    pub use lidardb_sfc::Curve;
    pub use lidardb_sql::{Catalog, SqlValue, VectorTable};
}

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lidardb_datagen::Scene;
use lidardb_geom::Geometry;
use lidardb_sql::catalog::VColumn;
use lidardb_sql::{Catalog, VectorTable};

/// Build the demo catalog for a scene: the point cloud as `points`, the
/// OSM-like features as `roads`, `rivers` and `pois`, and the Urban-Atlas-
/// like zones as `ua`.
pub fn scene_catalog(pc: Arc<lidardb_core::PointCloud>, scene: &Scene) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register_pointcloud("points", pc);

    let roads = VectorTable::new()
        .with_column(
            "id",
            VColumn::Int(scene.roads().iter().map(|r| r.id as i64).collect()),
        )
        .with_column(
            "name",
            VColumn::Str(scene.roads().iter().map(|r| r.name.clone()).collect()),
        )
        .with_column(
            "class",
            VColumn::Str(
                scene
                    .roads()
                    .iter()
                    .map(|r| r.class.tag().to_string())
                    .collect(),
            ),
        )
        .with_column(
            "geom",
            VColumn::Geom(
                scene
                    .roads()
                    .iter()
                    .map(|r| Geometry::LineString(r.geometry.clone()))
                    .collect(),
            ),
        );
    catalog.register_vector("roads", roads);

    let rivers = VectorTable::new()
        .with_column(
            "id",
            VColumn::Int(scene.rivers().iter().map(|r| r.id as i64).collect()),
        )
        .with_column(
            "name",
            VColumn::Str(scene.rivers().iter().map(|r| r.name.clone()).collect()),
        )
        .with_column(
            "geom",
            VColumn::Geom(
                scene
                    .rivers()
                    .iter()
                    .map(|r| Geometry::LineString(r.geometry.clone()))
                    .collect(),
            ),
        );
    catalog.register_vector("rivers", rivers);

    let pois = VectorTable::new()
        .with_column(
            "id",
            VColumn::Int(scene.pois().iter().map(|p| p.id as i64).collect()),
        )
        .with_column(
            "name",
            VColumn::Str(scene.pois().iter().map(|p| p.name.clone()).collect()),
        )
        .with_column(
            "amenity",
            VColumn::Str(scene.pois().iter().map(|p| p.amenity.clone()).collect()),
        )
        .with_column(
            "geom",
            VColumn::Geom(
                scene
                    .pois()
                    .iter()
                    .map(|p| Geometry::Point(p.location))
                    .collect(),
            ),
        );
    catalog.register_vector("pois", pois);

    let ua = VectorTable::new()
        .with_column(
            "id",
            VColumn::Int(scene.zones().iter().map(|z| z.id as i64).collect()),
        )
        .with_column(
            "code",
            VColumn::Int(
                scene
                    .zones()
                    .iter()
                    .map(|z| z.class.code() as i64)
                    .collect(),
            ),
        )
        .with_column(
            "label",
            VColumn::Str(
                scene
                    .zones()
                    .iter()
                    .map(|z| z.class.label().to_string())
                    .collect(),
            ),
        )
        .with_column(
            "geom",
            VColumn::Geom(
                scene
                    .zones()
                    .iter()
                    .map(|z| Geometry::Polygon(z.polygon.clone()))
                    .collect(),
            ),
        );
    catalog.register_vector("ua", ua);

    catalog
}

/// Write the tiles of a scene into a directory as LAS / laz-lite files
/// (the synthetic AHN2 distribution). Returns the file paths in tile order.
pub fn write_scene_tiles(
    scene: &Scene,
    dir: impl AsRef<Path>,
    tiles_per_side: usize,
    density: f64,
    compression: lidardb_las::Compression,
) -> Result<Vec<PathBuf>, lidardb_las::LasError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let env = scene.envelope();
    let template = lidardb_las::LasHeader::builder()
        .scale(0.01, 0.01, 0.01)
        .offset(env.min_x, env.min_y, 0.0)
        .compression(compression)
        .build();
    let tiles = lidardb_datagen::TileSet::generate(scene, tiles_per_side, density);
    let ext = match compression {
        lidardb_las::Compression::None => "las",
        lidardb_las::Compression::LazLite => "lazl",
    };
    let mut paths = Vec::new();
    for tile in tiles.tiles() {
        let path = dir.join(format!("{}.{ext}", tile.name));
        lidardb_las::write_las_file(&path, template, &tile.records)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_datagen::SceneConfig;

    #[test]
    fn scene_catalog_has_all_tables() {
        let scene = Scene::generate(SceneConfig {
            seed: 3,
            origin: (0.0, 0.0),
            extent_m: 500.0,
        });
        let catalog = scene_catalog(Arc::new(lidardb_core::PointCloud::new()), &scene);
        assert_eq!(
            catalog.table_names(),
            vec!["points", "pois", "rivers", "roads", "ua"]
        );
        let rs = lidardb_sql::query(&catalog, "SELECT COUNT(*) FROM roads").unwrap();
        assert!(matches!(rs.rows[0][0], lidardb_sql::SqlValue::Int(n) if n > 3));
        let rs = lidardb_sql::query(&catalog, "SELECT label FROM ua WHERE code = 12210 LIMIT 1")
            .unwrap();
        assert!(rs.rows[0][0].render().contains("Fast transit"));
    }

    #[test]
    fn write_tiles_roundtrip() {
        let scene = Scene::generate(SceneConfig {
            seed: 4,
            origin: (0.0, 0.0),
            extent_m: 200.0,
        });
        let dir = lidardb_test_support::ScratchDir::new("root_tiles");
        let paths = write_scene_tiles(
            &scene,
            dir.path(),
            2,
            0.3,
            lidardb_las::Compression::LazLite,
        )
        .unwrap();
        assert_eq!(paths.len(), 4);
        let (_, recs) = lidardb_las::read_las_file(&paths[0]).unwrap();
        assert!(!recs.is_empty());
    }
}
