//! # lidardb-viz — the QGIS stand-in
//!
//! The demo visualises every query result "in real time using QGIS" (§1).
//! A desktop GIS cannot ship inside a library reproduction, so this crate
//! provides the renderer the examples use instead (DESIGN.md §2,
//! substitution 5):
//!
//! * [`raster`] — a software rasteriser over world coordinates: point
//!   splats, polylines and filled polygons into an RGB [`raster::Raster`],
//!   written as binary PPM (Figure 1: the elevation-coloured AHN2 point
//!   cloud);
//! * [`colormap`] — elevation ramps, ASPRS classification colours and a
//!   simple hillshade;
//! * [`svg`] — a small SVG document builder for layered vector maps
//!   (Figure 2: Urban Atlas land cover under OSM roads and rivers).

pub mod colormap;
pub mod raster;
pub mod svg;

pub use colormap::{classification_color, elevation_color, Rgb};
pub use raster::Raster;
pub use svg::SvgMap;

/// A scratch directory of one unit test's own, `lidardb_<name>_<pid>_<n>`
/// (pid + per-process counter, so concurrent runs never share one):
/// created empty, removed when the guard drops.
#[cfg(test)]
pub(crate) struct ScratchDir(std::path::PathBuf);

#[cfg(test)]
impl ScratchDir {
    pub(crate) fn new(name: &str) -> ScratchDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("lidardb_{name}_{pid}_{n}"));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }
}

#[cfg(test)]
impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
impl std::ops::Deref for ScratchDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}
