//! The dynamic [`Geometry`] sum type and the remaining simple-feature types.

use crate::envelope::Envelope;
use crate::error::GeomError;
use crate::polygon::Polygon;
use crate::segment::Segment;
use crate::Point;

/// A polyline of at least two vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct LineString {
    vertices: Vec<Point>,
}

impl LineString {
    /// Construct, validating vertex count and finiteness.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 2 {
            return Err(GeomError::DegenerateLine(vertices.len()));
        }
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(LineString { vertices })
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Iterate the segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total length.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Bounding envelope.
    pub fn envelope(&self) -> Envelope {
        Envelope::of_points(&self.vertices).expect("linestring has >= 2 vertices")
    }

    /// Minimum distance to a point.
    pub fn distance_point(&self, p: &Point) -> f64 {
        self.segments()
            .map(|s| s.distance_point(p))
            .fold(f64::INFINITY, f64::min)
    }
}

/// A set of points.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPoint {
    points: Vec<Point>,
}

impl MultiPoint {
    /// Construct, validating finiteness.
    pub fn new(points: Vec<Point>) -> Result<Self, GeomError> {
        if points.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        Ok(MultiPoint { points })
    }

    /// The member points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }
}

/// A set of polygons.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPolygon {
    polygons: Vec<Polygon>,
}

impl MultiPolygon {
    /// Construct from member polygons.
    pub fn new(polygons: Vec<Polygon>) -> Self {
        MultiPolygon { polygons }
    }

    /// The member polygons.
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// Total area.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(Polygon::area).sum()
    }
}

/// Any supported simple-feature geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A single point.
    Point(Point),
    /// A set of points.
    MultiPoint(MultiPoint),
    /// A polyline.
    LineString(LineString),
    /// A polygon with optional holes.
    Polygon(Polygon),
    /// A set of polygons.
    MultiPolygon(MultiPolygon),
}

impl Geometry {
    /// Bounding envelope; `None` only for an empty multi-geometry.
    pub fn envelope(&self) -> Option<Envelope> {
        match self {
            Geometry::Point(p) => Envelope::of_points([p]),
            Geometry::MultiPoint(mp) => Envelope::of_points(mp.points()),
            Geometry::LineString(ls) => Some(ls.envelope()),
            Geometry::Polygon(pg) => Some(pg.envelope()),
            Geometry::MultiPolygon(mp) => {
                let mut it = mp.polygons().iter();
                let mut env = it.next()?.envelope();
                for p in it {
                    env.expand(&p.envelope());
                }
                Some(env)
            }
        }
    }

    /// Iterate every boundary segment of the geometry (empty for points).
    pub fn boundary_segments(&self) -> Box<dyn Iterator<Item = Segment> + '_> {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => Box::new(std::iter::empty()),
            Geometry::LineString(ls) => Box::new(ls.segments()),
            Geometry::Polygon(pg) => Box::new(pg.all_edges()),
            Geometry::MultiPolygon(mp) => {
                Box::new(mp.polygons().iter().flat_map(Polygon::all_edges))
            }
        }
    }

    /// Iterate every vertex of the geometry.
    pub fn vertices(&self) -> Box<dyn Iterator<Item = Point> + '_> {
        match self {
            Geometry::Point(p) => Box::new(std::iter::once(*p)),
            Geometry::MultiPoint(mp) => Box::new(mp.points().iter().copied()),
            Geometry::LineString(ls) => Box::new(ls.vertices().iter().copied()),
            Geometry::Polygon(pg) => Box::new(
                pg.exterior()
                    .vertices()
                    .iter()
                    .chain(pg.holes().iter().flat_map(|h| h.vertices()))
                    .copied(),
            ),
            Geometry::MultiPolygon(mp) => Box::new(mp.polygons().iter().flat_map(|pg| {
                pg.exterior()
                    .vertices()
                    .iter()
                    .chain(pg.holes().iter().flat_map(|h| h.vertices()))
                    .copied()
            })),
        }
    }

    /// Short OGC type name, e.g. `"POLYGON"`.
    pub fn type_name(&self) -> &'static str {
        match self {
            Geometry::Point(_) => "POINT",
            Geometry::MultiPoint(_) => "MULTIPOINT",
            Geometry::LineString(_) => "LINESTRING",
            Geometry::Polygon(_) => "POLYGON",
            Geometry::MultiPolygon(_) => "MULTIPOLYGON",
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}
impl From<LineString> for Geometry {
    fn from(ls: LineString) -> Self {
        Geometry::LineString(ls)
    }
}
impl From<Polygon> for Geometry {
    fn from(pg: Polygon) -> Self {
        Geometry::Polygon(pg)
    }
}
impl From<MultiPolygon> for Geometry {
    fn from(mp: MultiPolygon) -> Self {
        Geometry::MultiPolygon(mp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> LineString {
        LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn linestring_validation_and_metrics() {
        assert!(LineString::new(vec![Point::new(0.0, 0.0)]).is_err());
        let l = line();
        assert_eq!(l.length(), 9.0);
        assert_eq!(l.segments().count(), 2);
        let e = l.envelope();
        assert_eq!((e.min_x, e.max_x, e.min_y, e.max_y), (0.0, 3.0, 0.0, 8.0));
    }

    #[test]
    fn linestring_distance() {
        let l = line();
        assert_eq!(l.distance_point(&Point::new(3.0, 6.0)), 0.0);
        assert_eq!(l.distance_point(&Point::new(6.0, 8.0)), 3.0);
    }

    #[test]
    fn geometry_envelopes() {
        let g: Geometry = Point::new(2.0, 3.0).into();
        let e = g.envelope().unwrap();
        assert_eq!((e.min_x, e.max_x), (2.0, 2.0));
        let mp = MultiPolygon::new(vec![
            Polygon::from_exterior(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
            ])
            .unwrap(),
            Polygon::from_exterior(vec![
                Point::new(5.0, 5.0),
                Point::new(6.0, 5.0),
                Point::new(6.0, 6.0),
            ])
            .unwrap(),
        ]);
        let e = Geometry::from(mp).envelope().unwrap();
        assert_eq!((e.min_x, e.max_x, e.min_y, e.max_y), (0.0, 6.0, 0.0, 6.0));
        assert!(Geometry::MultiPolygon(MultiPolygon::new(vec![]))
            .envelope()
            .is_none());
    }

    #[test]
    fn boundary_segments_counts() {
        assert_eq!(
            Geometry::from(Point::new(0.0, 0.0))
                .boundary_segments()
                .count(),
            0
        );
        assert_eq!(Geometry::from(line()).boundary_segments().count(), 2);
        let sq = Polygon::from_exterior(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        assert_eq!(Geometry::from(sq).boundary_segments().count(), 4);
    }

    #[test]
    fn type_names_and_vertices() {
        assert_eq!(Geometry::from(Point::new(0.0, 0.0)).type_name(), "POINT");
        assert_eq!(Geometry::from(line()).type_name(), "LINESTRING");
        assert_eq!(Geometry::from(line()).vertices().count(), 3);
        let mp = MultiPoint::new(vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)]).unwrap();
        assert_eq!(Geometry::MultiPoint(mp).vertices().count(), 2);
    }

    #[test]
    fn multipolygon_area() {
        let a = Polygon::rectangle(&Envelope::new(0.0, 0.0, 2.0, 2.0).unwrap());
        let b = Polygon::rectangle(&Envelope::new(10.0, 10.0, 11.0, 12.0).unwrap());
        assert_eq!(MultiPolygon::new(vec![a, b]).area(), 6.0);
    }
}
