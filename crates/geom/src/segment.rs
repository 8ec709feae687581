//! Line segments and the low-level intersection/distance primitives.

use crate::envelope::Envelope;
use crate::Point;

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

/// Sign of the cross product `(b - a) × (c - a)`: positive when `c` lies to
/// the left of the directed line `a → b`.
#[inline]
pub fn orient(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

impl Segment {
    /// Construct from endpoints.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Bounding envelope of the segment.
    pub fn envelope(&self) -> Envelope {
        Envelope {
            min_x: self.a.x.min(self.b.x),
            min_y: self.a.y.min(self.b.y),
            max_x: self.a.x.max(self.b.x),
            max_y: self.a.y.max(self.b.y),
        }
    }

    /// Whether the (closed) segment contains `p`, assuming `p` is collinear
    /// with the segment.
    fn contains_collinear(&self, p: &Point) -> bool {
        p.x >= self.a.x.min(self.b.x)
            && p.x <= self.a.x.max(self.b.x)
            && p.y >= self.a.y.min(self.b.y)
            && p.y <= self.a.y.max(self.b.y)
    }

    /// Whether the closed segment contains `p`: orientation exactly zero
    /// and `p` inside the segment's bbox. Exact on axis-parallel segments,
    /// where `orient` multiplies by an exact zero.
    pub fn contains_point(&self, p: &Point) -> bool {
        orient(&self.a, &self.b, p) == 0.0 && self.contains_collinear(p)
    }

    /// Whether two closed segments share at least one point.
    pub fn intersects(&self, other: &Segment) -> bool {
        let d1 = orient(&other.a, &other.b, &self.a);
        let d2 = orient(&other.a, &other.b, &self.b);
        let d3 = orient(&self.a, &self.b, &other.a);
        let d4 = orient(&self.a, &self.b, &other.b);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && other.contains_collinear(&self.a))
            || (d2 == 0.0 && other.contains_collinear(&self.b))
            || (d3 == 0.0 && self.contains_collinear(&other.a))
            || (d4 == 0.0 && self.contains_collinear(&other.b))
    }

    /// Euclidean distance from the segment to a point.
    pub fn distance_point(&self, p: &Point) -> f64 {
        let vx = self.b.x - self.a.x;
        let vy = self.b.y - self.a.y;
        let wx = p.x - self.a.x;
        let wy = p.y - self.a.y;
        let len2 = vx * vx + vy * vy;
        if len2 == 0.0 {
            return self.a.distance(p);
        }
        let t = ((wx * vx + wy * vy) / len2).clamp(0.0, 1.0);
        let proj = Point::new(self.a.x + t * vx, self.a.y + t * vy);
        proj.distance(p)
    }

    /// Euclidean distance between two segments (0 when they intersect).
    pub fn distance_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        self.distance_point(&other.a)
            .min(self.distance_point(&other.b))
            .min(other.distance_point(&self.a))
            .min(other.distance_point(&self.b))
    }

    /// Whether the segment has a point inside (or on the boundary of) the
    /// closed rectangle.
    pub fn intersects_envelope(&self, env: &Envelope) -> bool {
        if env.contains(&self.a) || env.contains(&self.b) {
            return true;
        }
        if !self.envelope().intersects(env) {
            return false;
        }
        let c = env.corners();
        for i in 0..4 {
            let edge = Segment::new(c[i], c[(i + 1) % 4]);
            if self.intersects(&edge) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn orientation_signs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert!(orient(&a, &b, &Point::new(0.5, 1.0)) > 0.0);
        assert!(orient(&a, &b, &Point::new(0.5, -1.0)) < 0.0);
        assert_eq!(orient(&a, &b, &Point::new(2.0, 0.0)), 0.0);
    }

    #[test]
    fn proper_crossing() {
        assert!(seg(0.0, 0.0, 2.0, 2.0).intersects(&seg(0.0, 2.0, 2.0, 0.0)));
        assert!(!seg(0.0, 0.0, 1.0, 1.0).intersects(&seg(2.0, 2.0, 3.0, 3.0)));
    }

    #[test]
    fn touching_endpoints_count() {
        assert!(seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(1.0, 0.0, 2.0, 5.0)));
        // T-junction.
        assert!(seg(0.0, 0.0, 2.0, 0.0).intersects(&seg(1.0, 0.0, 1.0, 3.0)));
    }

    #[test]
    fn collinear_overlap_and_disjoint() {
        assert!(seg(0.0, 0.0, 2.0, 0.0).intersects(&seg(1.0, 0.0, 3.0, 0.0)));
        assert!(!seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(2.0, 0.0, 3.0, 0.0)));
        // Collinear touching at a single point.
        assert!(seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(1.0, 0.0, 2.0, 0.0)));
    }

    #[test]
    fn parallel_non_collinear() {
        assert!(!seg(0.0, 0.0, 2.0, 0.0).intersects(&seg(0.0, 1.0, 2.0, 1.0)));
    }

    #[test]
    fn distance_point_cases() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.distance_point(&Point::new(5.0, 3.0)), 3.0); // interior
        assert_eq!(s.distance_point(&Point::new(-4.0, 3.0)), 5.0); // start clamp
        assert_eq!(s.distance_point(&Point::new(13.0, 4.0)), 5.0); // end clamp
        assert_eq!(s.distance_point(&Point::new(7.0, 0.0)), 0.0); // on segment
        // Degenerate segment behaves like a point.
        let d = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(d.distance_point(&Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn distance_segment_cases() {
        let a = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(a.distance_segment(&seg(0.0, 3.0, 10.0, 3.0)), 3.0);
        assert_eq!(a.distance_segment(&seg(5.0, -1.0, 5.0, 1.0)), 0.0);
        assert_eq!(a.distance_segment(&seg(13.0, 4.0, 13.0, 10.0)), 5.0);
    }

    #[test]
    fn envelope_intersection() {
        let env = Envelope::new(0.0, 0.0, 10.0, 10.0).unwrap();
        // Endpoint inside.
        assert!(seg(5.0, 5.0, 20.0, 20.0).intersects_envelope(&env));
        // Pass-through without endpoints inside.
        assert!(seg(-5.0, 5.0, 15.0, 5.0).intersects_envelope(&env));
        // Corner graze.
        assert!(seg(-5.0, 5.0, 5.0, 15.0).intersects_envelope(&env));
        // Near miss: passes outside the corner.
        assert!(!seg(-5.0, 6.0, 6.0, 17.0).intersects_envelope(&env));
        // Fully outside.
        assert!(!seg(20.0, 20.0, 30.0, 30.0).intersects_envelope(&env));
    }

    #[test]
    fn segment_metrics() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        let e = s.envelope();
        assert_eq!((e.min_x, e.min_y, e.max_x, e.max_y), (0.0, 0.0, 3.0, 4.0));
    }
}
