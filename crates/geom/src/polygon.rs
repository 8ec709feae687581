//! Polygons with holes.
//!
//! A [`Ring`] is a closed sequence of vertices (the closing edge from last
//! back to first is implicit); a [`Polygon`] is one exterior ring plus zero
//! or more interior rings (holes). Containment uses ray casting with the
//! boundary counted as *inside*, the convention of OGC `ST_Intersects`-style
//! coverage that the refinement step relies on.

use crate::envelope::Envelope;
use crate::error::GeomError;
use crate::segment::Segment;
use crate::Point;

/// A closed ring of at least three vertices (closing edge implicit).
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    vertices: Vec<Point>,
}

impl Ring {
    /// Build a ring, validating vertex count and finiteness. A duplicated
    /// closing vertex (WKT convention) is removed.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return Err(GeomError::DegenerateRing(vertices.len()));
        }
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(Ring { vertices })
    }

    /// The vertices (without the duplicated closing vertex).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterate the edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area (positive for counter-clockwise winding).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut s = 0.0;
        for i in 0..n {
            let p = &self.vertices[i];
            let q = &self.vertices[(i + 1) % n];
            s += p.x * q.y - q.x * p.y;
        }
        s / 2.0
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Bounding envelope.
    pub fn envelope(&self) -> Envelope {
        Envelope::of_points(&self.vertices).expect("ring has >= 3 vertices")
    }

    /// Ray-casting point-in-ring test; boundary points (see
    /// [`Self::on_boundary`]) count as inside.
    pub fn contains_point(&self, p: &Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            match ray_step(&self.vertices[i], &self.vertices[j], p) {
                RayStep::OnEdge => return true,
                RayStep::Crosses => inside = !inside,
                RayStep::Misses => {}
            }
            j = i;
        }
        inside
    }

    /// Whether `p` lies on an edge, by the one exact on-segment rule
    /// ([`Segment::contains_point`]) — the rule that keeps a point on an
    /// axis-parallel edge, as the rectangle fast path does.
    pub fn on_boundary(&self, p: &Point) -> bool {
        self.edges().any(|e| e.contains_point(p))
    }
}

/// What one edge contributes to the ray cast from `p` towards +x.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RayStep {
    /// `p` lies on the edge: the ring contains it.
    OnEdge,
    /// The ray crosses the edge: the parity flips.
    Crosses,
    /// Neither.
    Misses,
}

/// One edge `a–b` of the ray cast in [`Ring::contains_point`], which passes
/// `(v[i], v[i−1])`; callers keep that operand order, because `orient` and
/// the crossing abscissa are not symmetric in floating point. Both outcomes
/// other than `Misses` need `p.y` inside the edge's closed y-interval.
#[inline]
pub(crate) fn ray_step(a: &Point, b: &Point, p: &Point) -> RayStep {
    if Segment::new(*a, *b).contains_point(p) {
        return RayStep::OnEdge;
    }
    if (a.y > p.y) != (b.y > p.y) {
        let x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
        if p.x < x_cross {
            return RayStep::Crosses;
        }
    }
    RayStep::Misses
}

/// A polygon: an exterior ring minus its holes.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Ring,
    holes: Vec<Ring>,
}

impl Polygon {
    /// Construct from rings.
    pub fn new(exterior: Ring, holes: Vec<Ring>) -> Self {
        Polygon { exterior, holes }
    }

    /// Convenience: a polygon with no holes from raw vertices.
    pub fn from_exterior(vertices: Vec<Point>) -> Result<Self, GeomError> {
        Ok(Polygon::new(Ring::new(vertices)?, Vec::new()))
    }

    /// An axis-aligned rectangle polygon.
    pub fn rectangle(env: &Envelope) -> Self {
        Polygon::new(
            Ring::new(env.corners().to_vec()).expect("4 distinct corners"),
            Vec::new(),
        )
    }

    /// The exterior ring.
    pub fn exterior(&self) -> &Ring {
        &self.exterior
    }

    /// The interior rings.
    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// Bounding envelope (of the exterior).
    pub fn envelope(&self) -> Envelope {
        self.exterior.envelope()
    }

    /// Area: exterior minus holes.
    pub fn area(&self) -> f64 {
        self.exterior.area() - self.holes.iter().map(Ring::area).sum::<f64>()
    }

    /// Whether the polygon region (boundary inclusive, holes exclusive —
    /// but hole *boundaries* inclusive) contains the point.
    pub fn contains_point(&self, p: &Point) -> bool {
        if !self.exterior.contains_point(p) {
            return false;
        }
        for hole in &self.holes {
            // On the hole boundary still counts as inside the polygon.
            if hole.contains_point(p) && !hole.on_boundary(p) {
                return false;
            }
        }
        true
    }

    /// Iterate all edges of all rings.
    pub fn all_edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.exterior
            .edges()
            .chain(self.holes.iter().flat_map(Ring::edges))
    }

    /// Distance from the polygon region to a point: 0 inside, else the
    /// minimum distance to any boundary edge.
    pub fn distance_point(&self, p: &Point) -> f64 {
        if self.contains_point(p) {
            return 0.0;
        }
        self.all_edges()
            .map(|e| e.distance_point(p))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::from_exterior(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap()
    }

    fn donut() -> Polygon {
        Polygon::new(
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ])
            .unwrap(),
            vec![Ring::new(vec![
                Point::new(4.0, 4.0),
                Point::new(6.0, 4.0),
                Point::new(6.0, 6.0),
                Point::new(4.0, 6.0),
            ])
            .unwrap()],
        )
    }

    #[test]
    fn ring_validation() {
        assert!(Ring::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_err());
        // WKT-style closed ring: closing vertex dropped.
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(r.vertices().len(), 3);
        assert!(Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 0.0),
            Point::new(1.0, 1.0)
        ])
        .is_err());
    }

    #[test]
    fn winding_and_area() {
        let ccw = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        assert_eq!(ccw.area(), 12.0);
        assert_eq!(ccw.signed_area(), 12.0);
        let cw = Ring::new(vec![
            Point::new(0.0, 3.0),
            Point::new(4.0, 3.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(cw.signed_area(), -12.0);
    }

    #[test]
    fn point_in_square() {
        let sq = square();
        assert!(sq.contains_point(&Point::new(5.0, 5.0)));
        assert!(!sq.contains_point(&Point::new(-1.0, 5.0)));
        assert!(!sq.contains_point(&Point::new(5.0, 11.0)));
        // Boundary and corners are inside.
        assert!(sq.contains_point(&Point::new(0.0, 5.0)));
        assert!(sq.contains_point(&Point::new(10.0, 10.0)));
        assert!(sq.contains_point(&Point::new(5.0, 0.0)));
    }

    #[test]
    fn point_in_donut() {
        let d = donut();
        assert!(d.contains_point(&Point::new(1.0, 1.0)));
        assert!(!d.contains_point(&Point::new(5.0, 5.0)), "inside the hole");
        // The hole boundary belongs to the polygon.
        assert!(d.contains_point(&Point::new(4.0, 5.0)));
        assert_eq!(d.area(), 100.0 - 4.0);
    }

    #[test]
    fn concave_polygon() {
        // A "C" shape.
        let c = Polygon::from_exterior(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 3.0),
            Point::new(3.0, 3.0),
            Point::new(3.0, 7.0),
            Point::new(10.0, 7.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        assert!(c.contains_point(&Point::new(1.0, 5.0)));
        assert!(!c.contains_point(&Point::new(7.0, 5.0)), "inside the notch");
        assert!(c.contains_point(&Point::new(7.0, 1.0)));
    }

    #[test]
    fn distance() {
        let sq = square();
        assert_eq!(sq.distance_point(&Point::new(5.0, 5.0)), 0.0);
        assert_eq!(sq.distance_point(&Point::new(13.0, 14.0)), 5.0);
        assert_eq!(sq.distance_point(&Point::new(5.0, -2.0)), 2.0);
        let d = donut();
        // Center of the hole: nearest boundary is the hole ring, 1 away.
        assert_eq!(d.distance_point(&Point::new(5.0, 5.0)), 1.0);
    }

    #[test]
    fn envelope_and_vertices() {
        let d = donut();
        let e = d.envelope();
        assert_eq!((e.min_x, e.max_x, e.min_y, e.max_y), (0.0, 10.0, 0.0, 10.0));
        assert_eq!(d.all_edges().count(), 8);
    }

    #[test]
    fn rectangle_constructor() {
        let env = Envelope::new(1.0, 2.0, 3.0, 4.0).unwrap();
        let r = Polygon::rectangle(&env);
        assert_eq!(r.area(), env.width() * env.height());
        assert!(r.contains_point(&Point::new(2.0, 3.0)));
    }

    /// Regression: a point exactly on an axis-parallel edge lies on the
    /// boundary. The distance rule this replaced computed e.g. 9e-14, not
    /// 0, for (950, 50.1) and the edge (950, 950)–(950, 50); the ray cast
    /// then put the point outside while the rectangle fast path kept it.
    /// The same held for hole edges, whose boundary belongs to the polygon.
    #[test]
    fn points_on_axis_parallel_edges_are_on_the_boundary() {
        let env = Envelope::new(50.0, 50.0, 950.0, 950.0).unwrap();
        let rect = Polygon::rectangle(&env);
        let frame = Polygon::new(
            Ring::new(
                Envelope::new(0.0, 0.0, 1000.0, 1000.0)
                    .unwrap()
                    .corners()
                    .to_vec(),
            )
            .unwrap(),
            vec![rect.exterior().clone()],
        );
        for k in 0..2000 {
            let t = 50.1 + k as f64 * 0.45;
            for p in [
                Point::new(950.0, t),
                Point::new(50.0, t),
                Point::new(t, 50.0),
                Point::new(t, 950.0),
            ] {
                assert!(rect.exterior().on_boundary(&p), "{p:?}");
                assert!(rect.contains_point(&p), "{p:?} on a rectangle edge");
                assert!(frame.contains_point(&p), "{p:?} on a hole edge");
            }
            assert!(!rect.contains_point(&Point::new(950.0f64.next_up(), t)));
            assert!(!frame.contains_point(&Point::new(949.0, t.clamp(51.0, 949.0))));
        }
    }

    #[test]
    fn ray_casting_vertex_grazing() {
        // Horizontal ray passing exactly through a vertex must not double
        // count: diamond shape, query point level with left/right vertices.
        let diamond = Polygon::from_exterior(vec![
            Point::new(5.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 10.0),
            Point::new(0.0, 5.0),
        ])
        .unwrap();
        assert!(diamond.contains_point(&Point::new(5.0, 5.0)));
        assert!(!diamond.contains_point(&Point::new(-1.0, 5.0)));
        assert!(!diamond.contains_point(&Point::new(11.0, 5.0)));
        assert!(!diamond.contains_point(&Point::new(0.5, 0.5)));
    }
}
