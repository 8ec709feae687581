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
