//! Polyline and point buffering (the geometry behind `ST_Buffer`).
//!
//! A light, dependency-free buffer: polylines become corridor polygons via
//! per-vertex normal offsetting (adequate for the gently curved road and
//! river centrelines of GIS base data; no self-intersection cleanup), and
//! points become regular polygons approximating a disc. Polygons buffer by
//! corridor-expanding their exterior ring's bbox-side outwards is *not*
//! attempted — `ST_DWithin` covers the distance-query use case exactly.

use crate::envelope::Envelope;
use crate::error::GeomError;
use crate::geometry::{Geometry, LineString};
use crate::polygon::Polygon;
use crate::Point;

/// Buffer a polyline into a corridor polygon of the given half-width.
pub fn buffer_polyline(line: &LineString, half_width: f64) -> Result<Polygon, GeomError> {
    if half_width <= 0.0 || !half_width.is_finite() {
        return Err(GeomError::NonFiniteCoordinate);
    }
    let v = line.vertices();
    let mut left: Vec<Point> = Vec::with_capacity(v.len());
    let mut right: Vec<Point> = Vec::with_capacity(v.len());
    for i in 0..v.len() {
        // Average direction of the adjacent segments.
        let prev = if i > 0 { v[i - 1] } else { v[i] };
        let next = if i + 1 < v.len() { v[i + 1] } else { v[i] };
        let (dx, dy) = (next.x - prev.x, next.y - prev.y);
        let len = (dx * dx + dy * dy).sqrt();
        let (nx, ny) = if len > 0.0 {
            (-dy / len, dx / len)
        } else {
            (0.0, 1.0)
        };
        left.push(Point::new(
            v[i].x + nx * half_width,
            v[i].y + ny * half_width,
        ));
        right.push(Point::new(
            v[i].x - nx * half_width,
            v[i].y - ny * half_width,
        ));
    }
    right.reverse();
    left.extend(right);
    Polygon::from_exterior(left)
}

/// Buffer a point into a regular `segments`-gon approximating a disc.
pub fn buffer_point(p: &Point, radius: f64, segments: usize) -> Result<Polygon, GeomError> {
    if radius <= 0.0 || !radius.is_finite() {
        return Err(GeomError::NonFiniteCoordinate);
    }
    let n = segments.max(3);
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            Point::new(p.x + radius * a.cos(), p.y + radius * a.sin())
        })
        .collect();
    Polygon::from_exterior(pts)
}

/// `ST_Buffer` semantics over the geometry sum type (points and polylines;
/// other inputs are unsupported — use `ST_DWithin` for distance queries).
pub fn buffer_geometry(g: &Geometry, distance: f64) -> Result<Geometry, GeomError> {
    match g {
        Geometry::Point(p) => Ok(Geometry::Polygon(buffer_point(p, distance, 16)?)),
        Geometry::LineString(ls) => Ok(Geometry::Polygon(buffer_polyline(ls, distance)?)),
        other => Err(GeomError::WktParse {
            reason: format!("ST_Buffer unsupported for {}", other.type_name()),
            offset: 0,
        }),
    }
}

/// Convenience: the buffered envelope of a geometry (always defined).
pub fn buffered_envelope(g: &Geometry, distance: f64) -> Option<Envelope> {
    g.envelope().map(|e| e.buffered(distance))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pts: &[(f64, f64)]) -> LineString {
        LineString::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn corridor_width_is_respected() {
        let c = buffer_polyline(&line(&[(0.0, 0.0), (100.0, 0.0)]), 5.0).unwrap();
        assert!(c.contains_point(&Point::new(50.0, 4.9)));
        assert!(c.contains_point(&Point::new(50.0, -4.9)));
        assert!(!c.contains_point(&Point::new(50.0, 5.1)));
    }

    #[test]
    fn bent_corridor_covers_both_arms() {
        let c = buffer_polyline(&line(&[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]), 3.0).unwrap();
        assert!(c.area() > 1000.0);
        assert!(c.contains_point(&Point::new(50.0, 0.0)));
        assert!(c.contains_point(&Point::new(100.0, 50.0)));
    }

    #[test]
    fn point_disc() {
        let d = buffer_point(&Point::new(10.0, 10.0), 5.0, 32).unwrap();
        assert!(d.contains_point(&Point::new(10.0, 14.5)));
        assert!(!d.contains_point(&Point::new(10.0, 15.5)));
        // Area approaches the disc's from below.
        let disc = std::f64::consts::PI * 25.0;
        assert!(d.area() > disc * 0.95 && d.area() < disc);
    }

    #[test]
    fn geometry_dispatch_and_errors() {
        let g = buffer_geometry(&Geometry::Point(Point::new(0.0, 0.0)), 1.0).unwrap();
        assert_eq!(g.type_name(), "POLYGON");
        let g =
            buffer_geometry(&Geometry::LineString(line(&[(0.0, 0.0), (1.0, 0.0)])), 1.0).unwrap();
        assert_eq!(g.type_name(), "POLYGON");
        let poly = Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
            ])
            .unwrap(),
        );
        assert!(buffer_geometry(&poly, 1.0).is_err());
        assert!(buffer_polyline(&line(&[(0.0, 0.0), (1.0, 0.0)]), 0.0).is_err());
        assert!(buffer_point(&Point::new(0.0, 0.0), f64::NAN, 8).is_err());
    }

    #[test]
    fn buffered_envelope_grows() {
        let g = Geometry::Point(Point::new(5.0, 5.0));
        let e = buffered_envelope(&g, 2.0).unwrap();
        assert_eq!((e.min_x, e.max_x), (3.0, 7.0));
    }
}
