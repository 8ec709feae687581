//! Prepared query geometries: the edges of a geometry binned by
//! y-interval, so that an exact point test reads the few edges near the
//! point instead of every edge.
//!
//! The refinement step of §3.3 tests one geometry against thousands of
//! grid cells and tens of thousands of points. [`PreparedGeometry`] is
//! built once per query and answers the per-call reference's three
//! questions — [`crate::contains_point`], [`crate::dwithin_point`] and
//! [`crate::classify_rect_polygon`] / [`crate::classify_rect_dwithin`] —
//! with identical results, because every edge it does read is evaluated by
//! the reference's own code in the reference's operand order, and every
//! edge it skips provably cannot change the answer:
//!
//! * **Ray cast.** An edge can flip the parity of `p`, or hold `p` on the
//!   boundary, only if its *closed* y-interval contains `p.y`, and every
//!   such edge is listed in `p`'s bin. Edges go through the ray cast as
//!   `(v[i], v[i−1])` and through the hole-boundary test as `(v[i],
//!   v[i+1])`, as in [`crate::Ring`]; parity is kept per ring, so holes
//!   and multi-polygons behave as in [`crate::Polygon::contains_point`].
//! * **Distance.** `min ≤ d` holds exactly when some edge is within `d`.
//!   An edge is skipped only when its bbox lies farther than `d + slack`
//!   from `p` along an axis (`SLACK` below bounds the rounding).
//! * **Cells, `Within`.** An edge whose bbox misses the cell never
//!   intersects it, so skipping it is exact.
//! * **Cells, `DWithin(d)`.** The centre distance is the minimum over the
//!   edges within `d + half_diagonal + slack`; when there are none the
//!   true distance exceeds that radius and the cell is `Outside`, as the
//!   reference decides. A centre inside a polygon needs its boundary
//!   distance `D` only as far as `r − d` (the cell is `Inside` iff
//!   `r ≤ D + d`): edges farther than `r − d + slack` cannot decide it.
//!
//! The bin count follows from the edges alone: their number divided by
//! how many of them a horizontal line crosses on average, which keeps the
//! index linear in the edge count. Each bin lists, in edge order, the
//! edges whose y-interval overlaps it; an edge spanning several bins is
//! listed in each and read once per query, from the first bin the query
//! visits.

use crate::classify::{dwithin_label, inside_dwithin_label, RectClass};
use crate::envelope::Envelope;
use crate::geometry::Geometry;
use crate::polygon::{ray_step, Polygon, RayStep};
use crate::segment::Segment;
use crate::Point;

/// Relative bound on the floating-point error of an edge distance.
///
/// [`Segment::distance_point`] returns the length of the vector from `p` to
/// a computed point that lies within a few ulps of the segment's bbox, so
/// the computed distance undershoots the bbox distance by at most a small
/// multiple of `2⁻⁵³ · (|coordinates| + radius)` (≈ 1e-11 at the ~1e5
/// coordinates of a projected CRS). The skip margin is `SLACK · (1 +
/// max|coordinate| + |radius|)`, six orders of magnitude above that bound
/// and 0.1 mm at those coordinates, so no edge the reference would find
/// within the radius is ever skipped.
pub(crate) const SLACK: f64 = 1e-9;

/// The relation [`PreparedGeometry::classify_rect`] and
/// [`PreparedGeometry::matches`] decide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Relation {
    /// The geometry contains the point (boundary inclusive).
    Within,
    /// The point lies within the distance of the geometry.
    DWithin(f64),
}

/// One boundary edge and the ring it belongs to.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// `(v[i], v[i+1])`: the order of `Ring::edges` and
    /// `LineString::segments`.
    seg: Segment,
    env: Envelope,
    /// Index into `rings` (0 for a polyline's segments).
    ring: usize,
    /// The bins listing this edge.
    first_bin: usize,
    last_bin: usize,
}

impl Edge {
    fn new(seg: Segment, ring: usize) -> Self {
        Edge {
            seg,
            env: seg.envelope(),
            ring,
            first_bin: 0,
            last_bin: 0,
        }
    }

    /// Whether the edge's bbox lies within `r` of `p` on both axes.
    #[inline]
    fn near(&self, p: &Point, r: f64) -> bool {
        p.x >= self.env.min_x - r
            && p.x <= self.env.max_x + r
            && p.y >= self.env.min_y - r
            && p.y <= self.env.max_y + r
    }
}

/// A ring's polygon, and whether it is a hole.
#[derive(Debug, Clone, Copy)]
struct RingTag {
    poly: usize,
    hole: bool,
}

/// What a geometry is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Points,
    Lines,
    Polygons,
}

/// A geometry prepared for repeated exact tests: its edges binned by
/// y-interval. Answers match the per-call reference for finite points.
#[derive(Debug, Clone)]
pub struct PreparedGeometry {
    shape: Shape,
    /// The members of a point geometry.
    points: Vec<Point>,
    rings: Vec<RingTag>,
    /// Per polygon, the envelope of its exterior ring.
    outer: Vec<Envelope>,
    /// The edges of bin `b` are `binned[starts[b]..starts[b + 1]]`, copied
    /// in edge order, hence grouped by ring and by polygon.
    starts: Vec<usize>,
    binned: Vec<Edge>,
    y0: f64,
    bins_per_y: f64,
    last_bin: usize,
    /// `1 + max |coordinate|`, the scale of [`SLACK`].
    magnitude: f64,
    /// `2 · area / perimeter` of a polygonal geometry (a corridor's
    /// width), 0 for points and lines.
    thickness: f64,
}

impl PreparedGeometry {
    /// Index the edges of `g`.
    pub fn new(g: &Geometry) -> Self {
        let mut prep = PreparedGeometry {
            shape: Shape::Polygons,
            points: Vec::new(),
            rings: Vec::new(),
            outer: Vec::new(),
            starts: Vec::new(),
            binned: Vec::new(),
            y0: 0.0,
            bins_per_y: 0.0,
            last_bin: 0,
            magnitude: 1.0
                + g.vertices()
                    .map(|v| v.x.abs().max(v.y.abs()))
                    .fold(0.0, f64::max),
            thickness: 0.0,
        };
        let mut edges = Vec::new();
        match g {
            Geometry::Point(p) => {
                prep.shape = Shape::Points;
                prep.points.push(*p);
            }
            Geometry::MultiPoint(mp) => {
                prep.shape = Shape::Points;
                prep.points.extend_from_slice(mp.points());
            }
            Geometry::LineString(ls) => {
                prep.shape = Shape::Lines;
                edges.extend(ls.segments().map(|seg| Edge::new(seg, 0)));
            }
            Geometry::Polygon(pg) => prep.push_polygon(pg, &mut edges),
            Geometry::MultiPolygon(mp) => {
                for pg in mp.polygons() {
                    prep.push_polygon(pg, &mut edges);
                }
            }
        }
        if prep.shape == Shape::Polygons {
            let area: f64 = match g {
                Geometry::Polygon(pg) => pg.area(),
                Geometry::MultiPolygon(mp) => mp.area(),
                _ => 0.0,
            };
            let perimeter: f64 = edges.iter().map(|e| e.seg.length()).sum();
            if perimeter > 0.0 {
                prep.thickness = 2.0 * area / perimeter;
            }
        }
        prep.build_bins(edges);
        prep
    }

    /// An upper bound on the heap bytes [`Self::new`] allocates for `g`,
    /// transient ones included: at most `3n` binned copies of its `n`
    /// edges plus the `n` it bins from, its bin offsets, member points and
    /// ring and polygon tags.
    pub fn build_bytes(g: &Geometry) -> u64 {
        let n = g.boundary_segments().count();
        let members = match g {
            Geometry::MultiPoint(mp) => mp.points().len(),
            _ => 1,
        };
        let words = std::mem::size_of::<usize>();
        (4 * n * std::mem::size_of::<Edge>()
            + (n + 2) * words
            + members * std::mem::size_of::<Point>()
            + (n + 1) * (std::mem::size_of::<RingTag>() + std::mem::size_of::<Envelope>()))
            as u64
    }

    /// Whether the geometry has no edge and no member point.
    pub(crate) fn is_empty(&self) -> bool {
        self.binned.is_empty() && self.points.is_empty()
    }

    /// Whether the geometry is a polyline.
    pub(crate) fn is_line(&self) -> bool {
        self.shape == Shape::Lines
    }

    /// `2 · area / perimeter` of a polygonal geometry, 0 otherwise.
    pub(crate) fn thickness(&self) -> f64 {
        self.thickness
    }

    /// `1 + max |coordinate|`: the scale of the rounding slack.
    pub(crate) fn magnitude(&self) -> f64 {
        self.magnitude
    }

    /// Every edge once, in no particular order.
    pub(crate) fn segments(&self) -> impl Iterator<Item = &Segment> {
        (0..=self.last_bin).flat_map(move |b| {
            self.bin_edges(b)
                .iter()
                .filter(move |e| e.first_bin == b)
                .map(|e| &e.seg)
        })
    }

    /// The members of a point geometry (empty otherwise).
    pub(crate) fn points(&self) -> &[Point] {
        &self.points
    }

    fn push_polygon(&mut self, pg: &Polygon, edges: &mut Vec<Edge>) {
        let poly = self.outer.len();
        self.outer.push(pg.envelope());
        for (k, ring) in std::iter::once(pg.exterior()).chain(pg.holes()).enumerate() {
            edges.extend(ring.edges().map(|seg| Edge::new(seg, self.rings.len())));
            self.rings.push(RingTag { poly, hole: k > 0 });
        }
    }

    /// Bin `edges` over their y-range: a counting sort that copies each
    /// edge into every bin its y-interval overlaps. `n` edges get `n / c`
    /// bins, `c` the mean number of edges a horizontal line crosses (at
    /// least 1): a bin then lists about `2c` edges, and all bins together
    /// at most `3n`, whatever the shape.
    fn build_bins(&mut self, mut edges: Vec<Edge>) {
        let mut nbins = 1;
        if let Some((lo, hi)) = edges
            .iter()
            .map(|e| (e.env.min_y, e.env.max_y))
            .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
        {
            let height = (hi - lo).max(f64::MIN_POSITIVE);
            let spans: f64 = edges.iter().map(|e| e.env.height()).sum();
            let crossings = (spans / height).max(1.0);
            nbins = ((edges.len() as f64 / crossings) as usize).max(1);
            self.y0 = lo;
            self.bins_per_y = nbins as f64 / height;
        }
        self.last_bin = nbins - 1;
        let mut starts = vec![0usize; nbins + 1];
        for e in &mut edges {
            (e.first_bin, e.last_bin) = (self.bin(e.env.min_y), self.bin(e.env.max_y));
            for b in e.first_bin..=e.last_bin {
                starts[b + 1] += 1;
            }
        }
        for b in 0..nbins {
            starts[b + 1] += starts[b];
        }
        let mut cursor = starts.clone();
        let mut binned = edges
            .first()
            .map_or(Vec::new(), |&e| vec![e; starts[nbins]]);
        for e in &edges {
            for b in e.first_bin..=e.last_bin {
                binned[cursor[b]] = *e;
                cursor[b] += 1;
            }
        }
        self.starts = starts;
        self.binned = binned;
    }

    /// The bin of ordinate `y`: monotone in `y`, so an edge whose closed
    /// y-interval holds `y` is listed in it. Out-of-range and NaN inputs
    /// clamp (the saturating cast sends NaN and negatives to 0). A
    /// one-bin index (a single edge, or none) skips the arithmetic.
    #[inline]
    fn bin(&self, y: f64) -> usize {
        if self.last_bin == 0 {
            return 0;
        }
        (((y - self.y0) * self.bins_per_y) as usize).min(self.last_bin)
    }

    #[inline]
    fn bin_edges(&self, b: usize) -> &[Edge] {
        &self.binned[self.starts[b]..self.starts[b + 1]]
    }

    /// `radius` plus the skip margin of [`SLACK`].
    fn reach(&self, radius: f64) -> f64 {
        radius + SLACK * (self.magnitude + radius.abs())
    }

    /// Visit each edge whose bbox lies within `reach(radius)` of `p` on
    /// both axes, once, until `visit` returns true; returns whether it did.
    /// Edges listed in bin `seen` are left out (`usize::MAX`: none).
    #[inline]
    fn any_edge_near(
        &self,
        p: &Point,
        radius: f64,
        seen: usize,
        mut visit: impl FnMut(&Edge) -> bool,
    ) -> bool {
        let r = self.reach(radius);
        let (lo, hi) = (self.bin(p.y - r), self.bin(p.y + r));
        for b in lo..=hi {
            for e in self.bin_edges(b) {
                if e.first_bin.max(lo) == b
                    && !(e.first_bin <= seen && seen <= e.last_bin)
                    && e.near(p, r)
                    && visit(e)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Whether some edge lies within `d` of `p`, leaving out the edges of
    /// bin `seen`.
    fn edge_within(&self, p: &Point, d: f64, seen: usize) -> bool {
        self.any_edge_near(p, d, seen, |e| e.seg.distance_point(p) <= d)
    }

    /// The minimum edge distance when it is at most `radius`; otherwise
    /// some value above `radius` (infinity when no edge is near).
    fn edge_distance(&self, p: &Point, radius: f64) -> f64 {
        let mut min = f64::INFINITY;
        self.any_edge_near(p, radius, usize::MAX, |e| {
            min = min.min(e.seg.distance_point(p));
            false
        });
        min
    }

    fn point_distance(&self, p: &Point) -> f64 {
        self.points
            .iter()
            .map(|q| q.distance(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether a polygon accepted by `live` contains `p`: the ray cast over
    /// the edges of `p`'s bin, one ring (a run of the bin's list) at a time.
    /// `visit` sees each edge of the bin the cast reads.
    fn polygons_contain(
        &self,
        p: &Point,
        live: impl Fn(usize) -> bool,
        mut visit: impl FnMut(&Edge),
    ) -> bool {
        let edges = self.bin_edges(self.bin(p.y));
        // The polygon whose rings are being folded: exterior contains `p`,
        // and no hole excludes it.
        let (mut poly, mut inside, mut excluded) = (usize::MAX, false, false);
        let mut k = 0;
        while k < edges.len() {
            let ring = edges[k].ring;
            let tag = self.rings[ring];
            let (start, mut on_edge, mut parity) = (k, false, false);
            while let Some(e) = edges.get(k).filter(|e| e.ring == ring) {
                k += 1;
                visit(e);
                if p.y < e.env.min_y || p.y > e.env.max_y {
                    continue;
                }
                match ray_step(&e.seg.b, &e.seg.a, p) {
                    RayStep::OnEdge => on_edge = true,
                    RayStep::Crosses => parity = !parity,
                    RayStep::Misses => {}
                }
            }
            if tag.poly != poly {
                if inside && !excluded && live(poly) {
                    return true;
                }
                (poly, inside, excluded) = (tag.poly, false, false);
            }
            let in_ring = on_edge || parity;
            if !tag.hole {
                inside = in_ring;
            } else if in_ring {
                // A hole contains `p` unless `p` is on its boundary, by the
                // `edges()`-order rule of `Ring::on_boundary`.
                let on_boundary = edges[start..k].iter().any(|e| e.seg.contains_point(p));
                excluded |= !on_boundary;
            }
        }
        inside && !excluded && live(poly)
    }

    /// Whether the geometry contains `p`, boundary inclusive: the answer of
    /// [`crate::contains_point`].
    pub fn contains_point(&self, p: &Point) -> bool {
        match self.shape {
            Shape::Points => self.points.contains(p),
            Shape::Lines => self.edge_within(p, 0.0, usize::MAX),
            Shape::Polygons => self.polygons_contain(p, |_| true, |_| {}),
        }
    }

    /// Whether `p` lies within `d` of the geometry: the answer of
    /// [`crate::dwithin_point`].
    pub fn dwithin_point(&self, p: &Point, d: f64) -> bool {
        if d == f64::INFINITY {
            return true; // every distance, even an empty geometry's, is <= inf
        }
        if d.is_nan() || d < 0.0 {
            return false; // distances are never negative, nor <= NaN
        }
        match self.shape {
            Shape::Points => self.point_distance(p) <= d,
            Shape::Lines => self.edge_within(p, d, usize::MAX),
            Shape::Polygons => {
                // One pass over `p`'s bin casts the ray and measures its
                // edges; the other bins within reach follow if need be.
                let (r, mut near) = (self.reach(d), false);
                let inside = self.polygons_contain(
                    p,
                    |_| true,
                    |e| near = near || (e.near(p, r) && e.seg.distance_point(p) <= d),
                );
                inside || near || self.edge_within(p, d, self.bin(p.y))
            }
        }
    }

    /// [`Self::contains_point`] or [`Self::dwithin_point`], by relation.
    #[inline]
    pub fn matches(&self, p: &Point, rel: Relation) -> bool {
        match rel {
            Relation::Within => self.contains_point(p),
            Relation::DWithin(d) => self.dwithin_point(p, d),
        }
    }

    /// Classify a grid cell: the label of [`crate::classify_rect_polygon`]
    /// (per member polygon, as for a multi-polygon) under `Within`, and of
    /// [`crate::classify_rect_dwithin`] under `DWithin`. Points and
    /// polylines have no interior, so under `Within` every cell is
    /// `Boundary`.
    pub fn classify_rect(&self, cell: &Envelope, rel: Relation) -> RectClass {
        match rel {
            Relation::Within if self.shape == Shape::Polygons => self.classify_within(cell),
            Relation::Within => RectClass::Boundary,
            Relation::DWithin(d) => {
                let (c, r) = (cell.center(), cell.half_diagonal());
                let dist = match self.shape {
                    Shape::Points => self.point_distance(&c),
                    Shape::Polygons if self.polygons_contain(&c, |_| true, |_| {}) => {
                        // `r ≤ D + d` holds for every `D ≥ 0` once `r ≤ d`;
                        // otherwise only a boundary within `r − d` decides.
                        let boundary = if r <= d {
                            0.0
                        } else {
                            self.edge_distance(&c, r - d)
                        };
                        return inside_dwithin_label(boundary, r, d);
                    }
                    _ => self.edge_distance(&c, d + r),
                };
                dwithin_label(dist, r, d)
            }
        }
    }

    /// `Boundary` when an edge of a polygon whose exterior envelope meets
    /// the cell touches it; otherwise whether such a polygon contains the
    /// cell's centre.
    fn classify_within(&self, cell: &Envelope) -> RectClass {
        let live = |poly: usize| self.outer[poly].intersects(cell);
        let (lo, hi) = (self.bin(cell.min_y), self.bin(cell.max_y));
        for b in lo..=hi {
            for e in self.bin_edges(b) {
                if e.first_bin.max(lo) == b
                    && e.env.intersects(cell)
                    && live(self.rings[e.ring].poly)
                    && e.seg.intersects_envelope(cell)
                {
                    return RectClass::Boundary;
                }
            }
        }
        if self.polygons_contain(&cell.center(), live, |_| {}) {
            RectClass::Inside
        } else {
            RectClass::Outside
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_rect_dwithin;
    use crate::geometry::{LineString, MultiPoint, MultiPolygon};
    use crate::predicates::{contains_point, dwithin_point};

    /// Every answer of `prep` for `g` at `p`, against the reference.
    fn assert_agrees(g: &Geometry, prep: &PreparedGeometry, p: &Point, d: f64) {
        assert_eq!(prep.contains_point(p), contains_point(g, p), "{p:?}");
        assert_eq!(
            prep.dwithin_point(p, d),
            dwithin_point(g, p, d),
            "{p:?} d={d}"
        );
        let cell = Envelope::new(p.x - 1.0, p.y - 1.0, p.x + 1.0, p.y + 1.0).unwrap();
        let got = prep.classify_rect(&cell, Relation::DWithin(d));
        assert_eq!(got, classify_rect_dwithin(&cell, g, d), "{cell:?} d={d}");
    }

    /// A zigzag whose every edge spans the full height: one bin per edge
    /// would list every edge in every bin (quadratic); the crossing-number
    /// bin count keeps the index linear.
    #[test]
    fn index_stays_linear_for_edges_spanning_the_height() {
        let n = 400;
        let mut ring: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64, if i % 2 == 0 { 0.0 } else { 1000.0 }))
            .collect();
        ring.push(Point::new(n as f64, -10.0));
        ring.push(Point::new(0.0, -10.0));
        let g = Geometry::Polygon(Polygon::from_exterior(ring).unwrap());
        let prep = PreparedGeometry::new(&g);
        let edges = g.boundary_segments().count();
        assert!(
            prep.binned.len() <= 3 * edges,
            "{} entries",
            prep.binned.len()
        );
        for k in 0..200 {
            let p = Point::new(k as f64 * 2.013, k as f64 * 5.07 - 20.0);
            assert_agrees(&g, &prep, &p, 0.75);
        }
    }

    /// Cells of every size, under every distance, answer as the reference
    /// over a polygon with a hole and a multi-polygon: centres inside a
    /// polygon take the boundary-distance rule, the others the centre
    /// distance.
    #[test]
    fn dwithin_cells_of_every_size_answer_as_the_reference() {
        let ring = |pts: &[(f64, f64)]| {
            crate::polygon::Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
        };
        let holed = Polygon::new(
            ring(&[
                (0.0, 0.0),
                (60.0, 5.0),
                (40.0, 30.0),
                (55.0, 60.0),
                (0.0, 55.0),
            ]),
            vec![ring(&[
                (10.0, 10.0),
                (20.0, 10.0),
                (20.0, 20.0),
                (10.0, 20.0),
            ])],
        );
        let other = Polygon::rectangle(&Envelope::new(70.0, 0.0, 90.0, 40.0).unwrap());
        for g in [
            Geometry::Polygon(holed.clone()),
            Geometry::MultiPolygon(MultiPolygon::new(vec![holed, other])),
        ] {
            let prep = PreparedGeometry::new(&g);
            for side in [0.5, 2.0, 6.0, 15.0] {
                for d in [0.0, 1.0, 4.0, 12.0, -1.0] {
                    let mut y = -10.0;
                    while y < 70.0 {
                        let mut x = -10.0;
                        while x < 100.0 {
                            let cell = Envelope::new(x, y, x + side, y + side).unwrap();
                            assert_eq!(
                                prep.classify_rect(&cell, Relation::DWithin(d)),
                                classify_rect_dwithin(&cell, &g, d),
                                "{cell:?} d={d}"
                            );
                            x += side * 0.9 + 0.37;
                        }
                        y += side * 0.9 + 0.41;
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_geometries_and_distances_answer_as_the_reference() {
        let square = Polygon::rectangle(&Envelope::new(0.0, 0.0, 10.0, 10.0).unwrap());
        let shapes = [
            Geometry::MultiPolygon(MultiPolygon::new(vec![])),
            Geometry::MultiPolygon(MultiPolygon::new(vec![square.clone(), square])),
            Geometry::Point(Point::new(3.0, 4.0)),
            Geometry::MultiPoint(MultiPoint::new(vec![]).unwrap()),
            Geometry::LineString(
                LineString::new(vec![Point::new(0.0, 5.0), Point::new(10.0, 5.0)]).unwrap(),
            ),
        ];
        let points = [
            Point::new(3.0, 4.0),
            Point::new(5.0, 5.0),
            Point::new(10.0, 7.0),
            Point::new(12.0, 5.0),
            Point::new(-4.0, -3.0),
        ];
        for g in &shapes {
            let prep = PreparedGeometry::new(g);
            for p in &points {
                for d in [0.0, -0.0, 2.0, -1.0, f64::INFINITY, f64::NAN] {
                    assert_agrees(g, &prep, p, d);
                }
            }
        }
    }
}
