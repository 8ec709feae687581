//! # lidardb-geom — OGC Simple Features subset
//!
//! The geometry substrate of the system: the subset of the OpenGIS Simple
//! Features Access standard [OGC 06-104r4] that the paper's query model
//! (§3.3) and demonstration scenarios (§4) exercise — points, polylines,
//! polygons with holes, their multi-variants, WKT text I/O, and the spatial
//! predicates (`contains`, `intersects`, `distance`, `dwithin`).
//!
//! On top of the standard predicates, [`classify`] provides the
//! **rectangle-versus-geometry classification** that powers the regular-grid
//! refinement step of §3.3: each grid cell is decided as fully INSIDE the
//! query geometry (accept all its points without further checks), fully
//! OUTSIDE (reject all), or BOUNDARY (fall back to exact per-point tests).
//! [`prepared`] answers the same cell and point questions from an edge
//! index built once per query, reading only the edges near the point.
//!
//! All coordinates are planar `f64` (projected CRS such as the Dutch RD /
//! EPSG:28992 that AHN2 ships in); no geodesy is involved, exactly as in the
//! demo.

pub mod buffer;
pub mod classify;
pub mod envelope;
pub mod error;
pub mod geometry;
pub mod polygon;
pub mod predicates;
pub mod prepared;
pub mod segment;
pub mod wkt;

pub use buffer::{buffer_geometry, buffer_point, buffer_polyline};
pub use classify::{classify_rect_dwithin, classify_rect_polygon, RectClass};
pub use envelope::Envelope;
pub use error::GeomError;
pub use geometry::{Geometry, LineString, MultiPoint, MultiPolygon};
pub use polygon::{Polygon, Ring};
pub use predicates::{contains_point, distance_point, dwithin_point, intersects};
pub use prepared::{PreparedGeometry, Relation};
pub use segment::Segment;

/// A planar point. The fundamental coordinate tuple of the crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting.
    pub x: f64,
    /// Northing.
    pub y: f64,
}

impl Point {
    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Whether both coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn point_finiteness() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn point_from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }
}
