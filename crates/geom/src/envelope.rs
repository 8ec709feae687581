//! Axis-aligned envelopes (bounding rectangles).
//!
//! Envelopes drive the coarse filtering step of the query model: the bbox
//! of the query geometry is probed against the X- and Y-column imprints,
//! and every grid cell of the refinement step is itself an envelope.

use crate::error::GeomError;
use crate::Point;

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Smallest easting.
    pub min_x: f64,
    /// Smallest northing.
    pub min_y: f64,
    /// Largest easting.
    pub max_x: f64,
    /// Largest northing.
    pub max_y: f64,
}

impl Envelope {
    /// Construct, validating `min <= max` and finiteness.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Result<Self, GeomError> {
        if ![min_x, min_y, max_x, max_y].iter().all(|v| v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        if min_x > max_x || min_y > max_y {
            return Err(GeomError::InvertedEnvelope);
        }
        Ok(Envelope {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    /// The smallest envelope containing all points; `None` when empty.
    pub fn of_points<'a>(pts: impl IntoIterator<Item = &'a Point>) -> Option<Self> {
        let mut it = pts.into_iter();
        let first = it.next()?;
        let mut env = Envelope {
            min_x: first.x,
            min_y: first.y,
            max_x: first.x,
            max_y: first.y,
        };
        for p in it {
            env.expand_point(p);
        }
        Some(env)
    }

    /// Grow to include `p`.
    pub fn expand_point(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grow to include another envelope.
    pub fn expand(&mut self, other: &Envelope) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// Grow outward by `margin` on every side (used by `ST_DWithin`
    /// filtering: the candidate bbox is the geometry bbox buffered by the
    /// distance).
    pub fn buffered(&self, margin: f64) -> Envelope {
        Envelope {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }

    /// Whether the (closed) envelope contains the point.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether two closed envelopes overlap (shared boundary counts).
    #[inline]
    pub fn intersects(&self, other: &Envelope) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// Whether `other` lies entirely within `self`.
    pub fn contains_envelope(&self, other: &Envelope) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Width along X.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height along Y.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Half of the diagonal length — the radius of the circumscribed
    /// circle, used by the conservative distance classification.
    pub fn half_diagonal(&self) -> f64 {
        (self.width().powi(2) + self.height().powi(2)).sqrt() / 2.0
    }

    /// The four corners, counter-clockwise from `(min_x, min_y)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }

    /// Euclidean distance from the envelope to a point (0 when inside).
    pub fn distance_point(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(a: f64, b: f64, c: f64, d: f64) -> Envelope {
        Envelope::new(a, b, c, d).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Envelope::new(0.0, 0.0, 1.0, 1.0).is_ok());
        assert_eq!(
            Envelope::new(2.0, 0.0, 1.0, 1.0).unwrap_err(),
            GeomError::InvertedEnvelope
        );
        assert_eq!(
            Envelope::new(f64::NAN, 0.0, 1.0, 1.0).unwrap_err(),
            GeomError::NonFiniteCoordinate
        );
        // Degenerate (zero-area) envelopes are legal: a point bbox.
        assert!(Envelope::new(1.0, 1.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn of_points() {
        let pts = [
            Point::new(3.0, -1.0),
            Point::new(0.0, 5.0),
            Point::new(2.0, 2.0),
        ];
        let e = Envelope::of_points(&pts).unwrap();
        assert_eq!(e, env(0.0, -1.0, 3.0, 5.0));
        assert!(Envelope::of_points(&[]).is_none());
    }

    #[test]
    fn contains_is_closed() {
        let e = env(0.0, 0.0, 10.0, 10.0);
        assert!(e.contains(&Point::new(0.0, 0.0)));
        assert!(e.contains(&Point::new(10.0, 10.0)));
        assert!(e.contains(&Point::new(5.0, 5.0)));
        assert!(!e.contains(&Point::new(10.000001, 5.0)));
    }

    #[test]
    fn intersects_includes_touching() {
        let a = env(0.0, 0.0, 10.0, 10.0);
        assert!(a.intersects(&env(10.0, 10.0, 20.0, 20.0)));
        assert!(a.intersects(&env(5.0, 5.0, 6.0, 6.0)));
        assert!(!a.intersects(&env(10.1, 0.0, 20.0, 10.0)));
        assert!(a.intersects(&a));
    }

    #[test]
    fn containment_and_buffer() {
        let a = env(0.0, 0.0, 10.0, 10.0);
        assert!(a.contains_envelope(&env(1.0, 1.0, 9.0, 9.0)));
        assert!(a.contains_envelope(&a));
        assert!(!a.contains_envelope(&env(1.0, 1.0, 11.0, 9.0)));
        assert_eq!(a.buffered(2.0), env(-2.0, -2.0, 12.0, 12.0));
    }

    #[test]
    fn metrics() {
        let e = env(0.0, 0.0, 3.0, 4.0);
        assert_eq!(e.width(), 3.0);
        assert_eq!(e.height(), 4.0);
        assert_eq!(e.width() * e.height(), 12.0);
        assert_eq!(e.center(), Point::new(1.5, 2.0));
        assert_eq!(e.half_diagonal(), 2.5);
    }

    #[test]
    fn distance_point() {
        let e = env(0.0, 0.0, 10.0, 10.0);
        assert_eq!(e.distance_point(&Point::new(5.0, 5.0)), 0.0);
        assert_eq!(e.distance_point(&Point::new(13.0, 14.0)), 5.0);
        assert_eq!(e.distance_point(&Point::new(-3.0, 5.0)), 3.0);
        assert_eq!(e.distance_point(&Point::new(5.0, -4.0)), 4.0);
    }

    #[test]
    fn expand() {
        let mut e = env(0.0, 0.0, 1.0, 1.0);
        e.expand(&env(-5.0, 2.0, 0.5, 3.0));
        assert_eq!(e, env(-5.0, 0.0, 1.0, 3.0));
        e.expand_point(&Point::new(10.0, -10.0));
        assert_eq!(e, env(-5.0, -10.0, 10.0, 3.0));
    }

    #[test]
    fn corners_ccw() {
        let c = env(0.0, 0.0, 2.0, 1.0).corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 1.0));
    }
}
