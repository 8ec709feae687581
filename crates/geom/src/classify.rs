//! Rectangle-versus-geometry classification for the refinement grid.
//!
//! §3.3 of the paper: *"MonetDB creates a regular grid over the point
//! geometries selected in the filtering step ... The spatial relation is
//! then evaluated between each non-empty cell and the geometry G. This
//! allows MonetDB to decide whether a grid cell satisfies or not the
//! spatial relation in a single step. However, for cells that overlap the
//! boundary of the given geometry G, an extra step is needed."*
//!
//! [`classify_rect_polygon`] makes exactly that three-way decision for
//! containment predicates, and [`classify_rect_dwithin`] for distance
//! predicates. Both are *sound*: `Inside` means every point of the cell
//! satisfies the predicate, `Outside` means none does; only `Boundary`
//! cells require per-point evaluation.

use crate::envelope::Envelope;
use crate::geometry::Geometry;
use crate::polygon::Polygon;
use crate::predicates::{contains_point, distance_point};

/// The relation of a grid cell to the query geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectClass {
    /// Every point of the cell satisfies the predicate.
    Inside,
    /// No point of the cell satisfies the predicate.
    Outside,
    /// Mixed: per-point checks are required.
    Boundary,
}

/// Classify a rectangle against a polygon containment predicate.
///
/// Exact: uses edge/rectangle intersection tests, falling back to a point
/// query only when no boundary crosses the cell.
pub fn classify_rect_polygon(rect: &Envelope, poly: &Polygon) -> RectClass {
    if !rect.intersects(&poly.envelope()) {
        return RectClass::Outside;
    }
    // Any polygon edge touching the cell makes it a boundary cell.
    for edge in poly.all_edges() {
        if edge.intersects_envelope(rect) {
            return RectClass::Boundary;
        }
    }
    // No boundary passes through the (closed) cell, so the whole cell lies
    // on one side: test its center.
    if poly.contains_point(&rect.center()) {
        RectClass::Inside
    } else {
        RectClass::Outside
    }
}

/// Classify a rectangle against a multi-polygon containment predicate.
pub fn classify_rect_multipolygon(rect: &Envelope, polys: &[Polygon]) -> RectClass {
    let mut out = RectClass::Outside;
    for p in polys {
        match classify_rect_polygon(rect, p) {
            RectClass::Boundary => return RectClass::Boundary,
            RectClass::Inside => out = RectClass::Inside,
            RectClass::Outside => {}
        }
    }
    out
}

/// Classify a rectangle against `dist(p, g) <= d`.
///
/// Conservative (triangle-inequality bound around the cell center): may
/// report `Boundary` for cells that are actually uniform, never the
/// reverse. A centre inside a polygon is decided by its distance `D` to
/// the boundary instead: see [`inside_dwithin_label`].
pub fn classify_rect_dwithin(rect: &Envelope, g: &Geometry, d: f64) -> RectClass {
    let (c, r) = (rect.center(), rect.half_diagonal());
    let polygonal = matches!(g, Geometry::Polygon(_) | Geometry::MultiPolygon(_));
    if polygonal && contains_point(g, &c) {
        let boundary = g
            .boundary_segments()
            .map(|e| e.distance_point(&c))
            .fold(f64::INFINITY, f64::min);
        return inside_dwithin_label(boundary, r, d);
    }
    dwithin_label(distance_point(g, &c), r, d)
}

/// The decision for a cell of half-diagonal `r` whose centre lies inside a
/// polygon, `boundary` away from the nearest boundary edge: `Inside` iff
/// `d ≥ 0` and `r ≤ boundary + d`. A point of the cell inside the polygon
/// is at distance 0; one outside is reached from the centre across the
/// boundary, at least `boundary` along its at most `r` long way, so it
/// lies within `r − boundary ≤ d` of the polygon. Otherwise the
/// triangle-inequality label of a centre at distance 0.
pub(crate) fn inside_dwithin_label(boundary: f64, r: f64, d: f64) -> RectClass {
    if d >= 0.0 && r <= boundary + d {
        RectClass::Inside
    } else {
        dwithin_label(0.0, r, d)
    }
}

/// The triangle-inequality decision of [`classify_rect_dwithin`], given the
/// distance from the cell centre to the geometry and the cell's
/// half-diagonal `r`.
pub(crate) fn dwithin_label(center_dist: f64, r: f64, d: f64) -> RectClass {
    if center_dist + r <= d {
        RectClass::Inside
    } else if center_dist - r > d {
        RectClass::Outside
    } else {
        RectClass::Boundary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::LineString;
    use crate::polygon::Ring;
    use crate::Point;

    fn env(a: f64, b: f64, c: f64, d: f64) -> Envelope {
        Envelope::new(a, b, c, d).unwrap()
    }

    fn big_square() -> Polygon {
        Polygon::rectangle(&env(0.0, 0.0, 100.0, 100.0))
    }

    #[test]
    fn cell_fully_inside() {
        assert_eq!(
            classify_rect_polygon(&env(10.0, 10.0, 20.0, 20.0), &big_square()),
            RectClass::Inside
        );
    }

    #[test]
    fn cell_fully_outside() {
        assert_eq!(
            classify_rect_polygon(&env(200.0, 200.0, 210.0, 210.0), &big_square()),
            RectClass::Outside
        );
        // Inside the polygon's bbox gap of a concave shape.
        let c = Polygon::from_exterior(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 20.0),
            Point::new(20.0, 20.0),
            Point::new(20.0, 80.0),
            Point::new(100.0, 80.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ])
        .unwrap();
        assert_eq!(
            classify_rect_polygon(&env(50.0, 40.0, 60.0, 60.0), &c),
            RectClass::Outside,
            "cell in the concave notch"
        );
    }

    #[test]
    fn cell_on_boundary() {
        assert_eq!(
            classify_rect_polygon(&env(-5.0, 40.0, 5.0, 60.0), &big_square()),
            RectClass::Boundary
        );
        // Touching the edge exactly also counts as boundary.
        assert_eq!(
            classify_rect_polygon(&env(100.0, 40.0, 110.0, 60.0), &big_square()),
            RectClass::Boundary
        );
    }

    #[test]
    fn hole_interactions() {
        let donut = Polygon::new(
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 100.0),
                Point::new(0.0, 100.0),
            ])
            .unwrap(),
            vec![Ring::new(vec![
                Point::new(40.0, 40.0),
                Point::new(60.0, 40.0),
                Point::new(60.0, 60.0),
                Point::new(40.0, 60.0),
            ])
            .unwrap()],
        );
        assert_eq!(
            classify_rect_polygon(&env(45.0, 45.0, 55.0, 55.0), &donut),
            RectClass::Outside,
            "cell inside the hole"
        );
        assert_eq!(
            classify_rect_polygon(&env(35.0, 45.0, 45.0, 55.0), &donut),
            RectClass::Boundary,
            "cell straddles hole boundary"
        );
        assert_eq!(
            classify_rect_polygon(&env(5.0, 5.0, 15.0, 15.0), &donut),
            RectClass::Inside
        );
        // Cell containing the whole hole: boundary (hole edges inside it).
        assert_eq!(
            classify_rect_polygon(&env(30.0, 30.0, 70.0, 70.0), &donut),
            RectClass::Boundary
        );
    }

    #[test]
    fn polygon_inside_cell_is_boundary() {
        let tiny = Polygon::rectangle(&env(40.0, 40.0, 42.0, 42.0));
        assert_eq!(
            classify_rect_polygon(&env(0.0, 0.0, 100.0, 100.0), &tiny),
            RectClass::Boundary
        );
    }

    #[test]
    fn multipolygon_classification() {
        let polys = vec![
            Polygon::rectangle(&env(0.0, 0.0, 10.0, 10.0)),
            Polygon::rectangle(&env(50.0, 50.0, 60.0, 60.0)),
        ];
        assert_eq!(
            classify_rect_multipolygon(&env(2.0, 2.0, 3.0, 3.0), &polys),
            RectClass::Inside
        );
        assert_eq!(
            classify_rect_multipolygon(&env(20.0, 20.0, 30.0, 30.0), &polys),
            RectClass::Outside
        );
        assert_eq!(
            classify_rect_multipolygon(&env(55.0, 55.0, 65.0, 55.5), &polys),
            RectClass::Boundary
        );
    }

    /// Under `DWithin`, a cell whose centre lies inside a polygon is
    /// `Inside` when it reaches past the boundary by no more than `d`, even
    /// though it is wider than `d`; every point of every `Inside` cell
    /// passes the exact test, and a cell reaching farther is not `Inside`.
    #[test]
    fn dwithin_inside_cells_of_polygons_are_sound() {
        let square: Geometry = big_square().into();
        let d = 2.0;
        // Centre 3 from the left edge, half-diagonal 4.24 ≤ 3 + 2.
        let near = env(0.0, 47.0, 6.0, 53.0);
        assert_eq!(classify_rect_dwithin(&near, &square, d), RectClass::Inside);
        // Centre 1 from the edge, half-diagonal 4.24 > 1 + 2: not decided,
        // though its far side is exactly 2 out (the rule is conservative).
        let over = env(-2.0, 47.0, 4.0, 53.0);
        assert_eq!(
            classify_rect_dwithin(&over, &square, d),
            RectClass::Boundary
        );
        assert!(distance_point(&square, &Point::new(-2.0, 47.0)) <= d);
        // Centre outside: the centre-distance label, never Inside here.
        let far = env(-3.5, 47.0, 2.5, 53.0);
        assert!(distance_point(&square, &Point::new(-3.5, 47.0)) > d);
        assert_ne!(classify_rect_dwithin(&far, &square, d), RectClass::Inside);
        // A sweep of square cells of several sizes over a concave polygon
        // with a hole: every sampled point of an `Inside` cell passes.
        let c: Geometry = Polygon::new(
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 20.0),
                Point::new(20.0, 20.0),
                Point::new(20.0, 80.0),
                Point::new(100.0, 80.0),
                Point::new(100.0, 100.0),
                Point::new(0.0, 100.0),
            ])
            .unwrap(),
            vec![Ring::new(vec![
                Point::new(5.0, 40.0),
                Point::new(12.0, 40.0),
                Point::new(12.0, 60.0),
                Point::new(5.0, 60.0),
            ])
            .unwrap()],
        )
        .into();
        let mut inside = 0;
        for side in [1.5, 3.0, 7.0] {
            for d in [0.0, 0.5, 2.0] {
                let n = (110.0 / side) as i32;
                for gx in -2..n {
                    for gy in -2..n {
                        let (x0, y0) = (gx as f64 * side, gy as f64 * side);
                        let cell = env(x0, y0, x0 + side, y0 + side);
                        if classify_rect_dwithin(&cell, &c, d) != RectClass::Inside {
                            continue;
                        }
                        inside += 1;
                        for i in 0..=4 {
                            for j in 0..=4 {
                                let p = Point::new(
                                    x0 + side * i as f64 / 4.0,
                                    y0 + side * j as f64 / 4.0,
                                );
                                assert!(
                                    distance_point(&c, &p) <= d,
                                    "{p:?} of Inside cell {cell:?} at d {d}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(inside > 0);
    }

    #[test]
    fn dwithin_classification_is_sound() {
        let road: Geometry = LineString::new(vec![Point::new(0.0, 50.0), Point::new(100.0, 50.0)])
            .unwrap()
            .into();
        let d = 10.0;
        // A tiny cell hugging the road: inside.
        assert_eq!(
            classify_rect_dwithin(&env(50.0, 49.0, 51.0, 50.0), &road, d),
            RectClass::Inside
        );
        // Far away: outside.
        assert_eq!(
            classify_rect_dwithin(&env(50.0, 90.0, 51.0, 91.0), &road, d),
            RectClass::Outside
        );
        // Straddling the distance band: boundary.
        assert_eq!(
            classify_rect_dwithin(&env(50.0, 55.0, 60.0, 65.0), &road, d),
            RectClass::Boundary
        );
        // Soundness sweep: sample cells and verify the label against the
        // exact predicate at the corners + center.
        for gx in 0..10 {
            for gy in 0..10 {
                let cell = env(
                    gx as f64 * 10.0,
                    gy as f64 * 10.0,
                    gx as f64 * 10.0 + 10.0,
                    gy as f64 * 10.0 + 10.0,
                );
                let label = classify_rect_dwithin(&cell, &road, d);
                let mut pts = cell.corners().to_vec();
                pts.push(cell.center());
                for p in pts {
                    let within = distance_point(&road, &p) <= d;
                    match label {
                        RectClass::Inside => assert!(within, "cell {gx},{gy}"),
                        RectClass::Outside => assert!(!within, "cell {gx},{gy}"),
                        RectClass::Boundary => {}
                    }
                }
            }
        }
    }
}
