//! Spatial predicates over [`Geometry`] values.
//!
//! The predicate set of the demo's SQL layer: `ST_Contains` (geometry
//! contains point), `ST_Intersects`, `ST_Distance` and `ST_DWithin`
//! (point within distance of geometry). Boundary points count as contained,
//! mirroring the coverage semantics the refinement grid assumes.

use crate::envelope::Envelope;
use crate::geometry::Geometry;
use crate::polygon::Polygon;
use crate::Point;

/// Whether the geometry contains the point (boundary inclusive).
///
/// Points and polylines contain only points lying exactly on them.
pub fn contains_point(g: &Geometry, p: &Point) -> bool {
    match g {
        Geometry::Point(q) => q == p,
        Geometry::MultiPoint(mp) => mp.points().contains(p),
        Geometry::LineString(ls) => ls.distance_point(p) == 0.0,
        Geometry::Polygon(pg) => pg.contains_point(p),
        Geometry::MultiPolygon(mp) => mp.polygons().iter().any(|pg| pg.contains_point(p)),
    }
}

/// Distance from the geometry to a point (0 when contained).
pub fn distance_point(g: &Geometry, p: &Point) -> f64 {
    match g {
        Geometry::Point(q) => q.distance(p),
        Geometry::MultiPoint(mp) => mp
            .points()
            .iter()
            .map(|q| q.distance(p))
            .fold(f64::INFINITY, f64::min),
        Geometry::LineString(ls) => ls.distance_point(p),
        Geometry::Polygon(pg) => pg.distance_point(p),
        Geometry::MultiPolygon(mp) => mp
            .polygons()
            .iter()
            .map(|pg| pg.distance_point(p))
            .fold(f64::INFINITY, f64::min),
    }
}

/// `ST_DWithin(g, p, d)`: whether the point lies within distance `d` of the
/// geometry.
pub fn dwithin_point(g: &Geometry, p: &Point, d: f64) -> bool {
    distance_point(g, p) <= d
}

/// A representative point guaranteed to lie on/in the geometry.
fn representative(g: &Geometry) -> Option<Point> {
    match g {
        Geometry::Point(p) => Some(*p),
        Geometry::MultiPoint(mp) => mp.points().first().copied(),
        Geometry::LineString(ls) => ls.vertices().first().copied(),
        Geometry::Polygon(pg) => pg.exterior().vertices().first().copied(),
        Geometry::MultiPolygon(mp) => mp
            .polygons()
            .first()
            .and_then(|pg| pg.exterior().vertices().first().copied()),
    }
}

/// Whether two geometries share at least one point.
///
/// Implemented as: envelope reject, then boundary-segment crossing, then
/// mutual containment of representative points (covers one geometry fully
/// inside the other).
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    let (Some(ea), Some(eb)) = (a.envelope(), b.envelope()) else {
        return false; // an empty geometry intersects nothing
    };
    if !ea.intersects(&eb) {
        return false;
    }
    // Point-ish fast paths.
    if let Geometry::Point(p) = a {
        return contains_point(b, p);
    }
    if let Geometry::Point(p) = b {
        return contains_point(a, p);
    }
    if let Geometry::MultiPoint(mp) = a {
        return mp.points().iter().any(|p| contains_point(b, p));
    }
    if let Geometry::MultiPoint(mp) = b {
        return mp.points().iter().any(|p| contains_point(a, p));
    }
    // Boundary crossing.
    let b_segs: Vec<_> = b.boundary_segments().collect();
    for sa in a.boundary_segments() {
        for sb in &b_segs {
            if sa.intersects(sb) {
                return true;
            }
        }
    }
    // Containment without boundary contact.
    if let Some(p) = representative(a) {
        if contains_point(b, &p) {
            return true;
        }
    }
    if let Some(p) = representative(b) {
        if contains_point(a, &p) {
            return true;
        }
    }
    false
}

/// Whether the geometry intersects an axis-aligned envelope — the predicate
/// behind "select all roads that intersect a given region" (§4.1).
pub fn intersects_envelope(g: &Geometry, env: &Envelope) -> bool {
    intersects(g, &Geometry::Polygon(Polygon::rectangle(env)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{LineString, MultiPoint, MultiPolygon};

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rectangle(&Envelope::new(x0, y0, x1, y1).unwrap())
    }

    fn ls(pts: &[(f64, f64)]) -> LineString {
        LineString::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn contains_point_by_type() {
        let p = Point::new(2.0, 2.0);
        assert!(contains_point(&Geometry::Point(p), &p));
        assert!(!contains_point(&Geometry::Point(p), &Point::new(2.1, 2.0)));
        let l = ls(&[(0.0, 0.0), (4.0, 4.0)]);
        assert!(contains_point(&l.clone().into(), &p));
        assert!(!contains_point(&l.into(), &Point::new(2.0, 2.5)));
        let sq = square(0.0, 0.0, 4.0, 4.0);
        assert!(contains_point(&sq.into(), &p));
    }

    #[test]
    fn distance_by_type() {
        let g: Geometry = square(0.0, 0.0, 10.0, 10.0).into();
        assert_eq!(distance_point(&g, &Point::new(5.0, 5.0)), 0.0);
        assert_eq!(distance_point(&g, &Point::new(13.0, 14.0)), 5.0);
        let g: Geometry = ls(&[(0.0, 0.0), (10.0, 0.0)]).into();
        assert_eq!(distance_point(&g, &Point::new(5.0, 2.0)), 2.0);
        let g = Geometry::MultiPoint(
            MultiPoint::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]).unwrap(),
        );
        assert_eq!(distance_point(&g, &Point::new(9.0, 0.0)), 1.0);
    }

    #[test]
    fn dwithin() {
        let road: Geometry = ls(&[(0.0, 0.0), (100.0, 0.0)]).into();
        assert!(dwithin_point(&road, &Point::new(50.0, 3.0), 3.0));
        assert!(!dwithin_point(&road, &Point::new(50.0, 3.1), 3.0));
    }

    #[test]
    fn polygon_polygon_intersections() {
        let a: Geometry = square(0.0, 0.0, 10.0, 10.0).into();
        let overlapping: Geometry = square(5.0, 5.0, 15.0, 15.0).into();
        let inside: Geometry = square(2.0, 2.0, 3.0, 3.0).into();
        let outside: Geometry = square(20.0, 20.0, 30.0, 30.0).into();
        let touching: Geometry = square(10.0, 0.0, 20.0, 10.0).into();
        assert!(intersects(&a, &overlapping));
        assert!(intersects(&a, &inside), "containment counts");
        assert!(intersects(&inside, &a), "containment is symmetric");
        assert!(!intersects(&a, &outside));
        assert!(intersects(&a, &touching), "shared edge counts");
    }

    #[test]
    fn line_polygon_intersections() {
        let region: Geometry = square(0.0, 0.0, 10.0, 10.0).into();
        let crossing: Geometry = ls(&[(-5.0, 5.0), (15.0, 5.0)]).into();
        let inside: Geometry = ls(&[(2.0, 2.0), (3.0, 3.0)]).into();
        let outside: Geometry = ls(&[(20.0, 20.0), (30.0, 30.0)]).into();
        assert!(intersects(&region, &crossing));
        assert!(intersects(&region, &inside), "line fully inside polygon");
        assert!(intersects(&inside, &region));
        assert!(!intersects(&region, &outside));
    }

    #[test]
    fn point_geometry_intersections() {
        let region: Geometry = square(0.0, 0.0, 10.0, 10.0).into();
        assert!(intersects(&region, &Point::new(5.0, 5.0).into()));
        assert!(!intersects(&region, &Point::new(15.0, 5.0).into()));
        let mp = Geometry::MultiPoint(
            MultiPoint::new(vec![Point::new(50.0, 50.0), Point::new(1.0, 1.0)]).unwrap(),
        );
        assert!(intersects(&region, &mp));
    }

    #[test]
    fn empty_multipolygon_intersects_nothing() {
        let empty = Geometry::MultiPolygon(MultiPolygon::new(vec![]));
        let region: Geometry = square(0.0, 0.0, 10.0, 10.0).into();
        assert!(!intersects(&empty, &region));
        assert!(!intersects(&region, &empty));
    }

    #[test]
    fn intersects_envelope_roads_query() {
        let env = Envelope::new(0.0, 0.0, 10.0, 10.0).unwrap();
        assert!(intersects_envelope(
            &ls(&[(-5.0, 5.0), (15.0, 5.0)]).into(),
            &env
        ));
        assert!(!intersects_envelope(
            &ls(&[(-5.0, 20.0), (15.0, 20.0)]).into(),
            &env
        ));
    }

    #[test]
    fn hole_containment() {
        // A point inside a donut hole does not intersect the donut.
        use crate::polygon::Ring;
        let donut: Geometry = Polygon::new(
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ])
            .unwrap(),
            vec![Ring::new(vec![
                Point::new(3.0, 3.0),
                Point::new(7.0, 3.0),
                Point::new(7.0, 7.0),
                Point::new(3.0, 7.0),
            ])
            .unwrap()],
        )
        .into();
        assert!(!intersects(&donut, &Point::new(5.0, 5.0).into()));
        assert!(intersects(&donut, &Point::new(1.0, 1.0).into()));
        // A small square inside the hole does not intersect the donut...
        assert!(!intersects(&donut, &square(4.0, 4.0, 6.0, 6.0).into()));
        // ...but one spanning the hole boundary does.
        assert!(intersects(&donut, &square(4.0, 4.0, 8.0, 6.0).into()));
    }
}
