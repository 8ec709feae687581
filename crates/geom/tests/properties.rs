//! Property-based tests of the geometry invariants.

use lidardb_geom::classify::classify_rect_multipolygon;
use lidardb_geom::{
    buffer_polyline, classify_rect_dwithin, classify_rect_polygon, contains_point, dwithin_point,
    wkt, Envelope, Geometry, LineString, MultiPolygon, Point, Polygon, PreparedGeometry, RectClass,
    Relation, Ring, Segment,
};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// A random convex polygon: points on a circle with jittered radius,
/// sorted by angle.
fn convex_polygon() -> impl Strategy<Value = Polygon> {
    (
        3usize..10,
        10.0f64..60.0,
        -30.0f64..30.0,
        -30.0f64..30.0,
        any::<u64>(),
    )
        .prop_map(|(n, r, cx, cy, seed)| {
            let mut pts = Vec::with_capacity(n);
            for i in 0..n {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                let jitter =
                    0.6 + 0.4 * ((seed.wrapping_mul(i as u64 + 1) >> 32) as f64 / u32::MAX as f64);
                pts.push(Point::new(
                    cx + r * jitter * angle.cos(),
                    cy + r * jitter * angle.sin(),
                ));
            }
            Polygon::from_exterior(pts).expect("convex ring")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn convex_containment_matches_halfplane_oracle(poly in convex_polygon(), p in pt()) {
        // For a convex CCW polygon, inside == left-of-or-on every edge.
        let inside_oracle = poly
            .exterior()
            .edges()
            .all(|e| lidardb_geom::segment::orient(&e.a, &e.b, &p) >= 0.0);
        // Skip near-boundary points where float noise decides differently.
        let boundary_dist = poly
            .exterior()
            .edges()
            .map(|e| e.distance_point(&p))
            .fold(f64::INFINITY, f64::min);
        prop_assume!(boundary_dist > 1e-9);
        prop_assert_eq!(poly.contains_point(&p), inside_oracle);
    }

    #[test]
    fn distance_zero_iff_contained(poly in convex_polygon(), p in pt()) {
        let d = poly.distance_point(&p);
        if poly.contains_point(&p) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        // Intersecting segments are at distance zero and vice versa.
        let dist = s1.distance_segment(&s2);
        prop_assert_eq!(s1.intersects(&s2), dist == 0.0);
        prop_assert_eq!(dist, s2.distance_segment(&s1));
    }

    #[test]
    fn envelope_relations_consistent(a in pt(), b in pt(), c in pt(), d in pt(), p in pt()) {
        let e1 = Envelope::of_points(&[a, b]).unwrap();
        let e2 = Envelope::of_points(&[c, d]).unwrap();
        prop_assert_eq!(e1.intersects(&e2), e2.intersects(&e1));
        if e1.contains_envelope(&e2) {
            prop_assert!(e1.intersects(&e2));
        }
        if e1.contains(&p) {
            prop_assert_eq!(e1.distance_point(&p), 0.0);
        } else {
            prop_assert!(e1.distance_point(&p) > 0.0);
        }
    }

    #[test]
    fn wkt_roundtrip_polygon(poly in convex_polygon()) {
        let g = Geometry::Polygon(poly);
        let text = wkt::to_wkt(&g);
        let back = wkt::parse_wkt(&text).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn wkt_roundtrip_linestring(pts in prop::collection::vec(pt(), 2..12)) {
        let g = Geometry::LineString(LineString::new(pts).unwrap());
        let back = wkt::parse_wkt(&wkt::to_wkt(&g)).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn rect_classification_is_sound(
        poly in convex_polygon(),
        x0 in -80.0f64..80.0,
        y0 in -80.0f64..80.0,
        w in 0.5f64..40.0,
        h in 0.5f64..40.0,
    ) {
        let cell = Envelope::new(x0, y0, x0 + w, y0 + h).unwrap();
        let label = classify_rect_polygon(&cell, &poly);
        // Sample a 4x4 lattice of interior points of the cell.
        for i in 0..4 {
            for j in 0..4 {
                let p = Point::new(
                    cell.min_x + cell.width() * (i as f64 + 0.5) / 4.0,
                    cell.min_y + cell.height() * (j as f64 + 0.5) / 4.0,
                );
                let inside = poly.contains_point(&p);
                match label {
                    RectClass::Inside => prop_assert!(inside, "outside point in INSIDE cell"),
                    RectClass::Outside => prop_assert!(!inside, "inside point in OUTSIDE cell"),
                    RectClass::Boundary => {}
                }
            }
        }
    }

    #[test]
    fn dwithin_classification_is_sound(
        line in prop::collection::vec(pt(), 2..6),
        x0 in -80.0f64..80.0,
        y0 in -80.0f64..80.0,
        side in 0.5f64..30.0,
        dist in 0.5f64..50.0,
    ) {
        let g = Geometry::LineString(LineString::new(line).unwrap());
        let cell = Envelope::new(x0, y0, x0 + side, y0 + side).unwrap();
        let label = classify_rect_dwithin(&cell, &g, dist);
        for i in 0..3 {
            for j in 0..3 {
                let p = Point::new(
                    cell.min_x + cell.width() * (i as f64 + 0.5) / 3.0,
                    cell.min_y + cell.height() * (j as f64 + 0.5) / 3.0,
                );
                let within = lidardb_geom::dwithin_point(&g, &p, dist);
                match label {
                    RectClass::Inside => prop_assert!(within),
                    RectClass::Outside => prop_assert!(!within),
                    RectClass::Boundary => {}
                }
            }
        }
    }

    #[test]
    fn intersects_is_symmetric_for_polygons(a in convex_polygon(), b in convex_polygon()) {
        let (ga, gb) = (Geometry::Polygon(a), Geometry::Polygon(b));
        prop_assert_eq!(
            lidardb_geom::intersects(&ga, &gb),
            lidardb_geom::intersects(&gb, &ga)
        );
    }
}

// ---------------------------------------------------------------------------
// PreparedGeometry against the per-call reference
// ---------------------------------------------------------------------------

/// RD-like coordinates: the slack of the prepared form is sized for them.
const ORIGIN: (f64, f64) = (100_000.0, 450_000.0);

/// A small deterministic generator, so one `u64` describes a whole shape.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A point on the quarter-unit lattice around `ORIGIN`: lattice vertices
/// give axis-parallel and collinear edges, and exact midpoints.
fn at(x: f64, y: f64) -> Point {
    let snap = |v: f64| (v * 4.0).round() / 4.0;
    Point::new(ORIGIN.0 + snap(x), ORIGIN.1 + snap(y))
}

/// A concave star around `(cx, cy)`, optionally with a square hole.
fn star(g: &mut Gen, cx: f64, cy: f64) -> Polygon {
    let n = 5 + g.below(20);
    let r = g.range(10.0, 60.0);
    let ring: Vec<Point> = (0..n)
        .map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let k = r * g.range(0.3, 1.0);
            at(cx + k * a.cos(), cy + k * a.sin())
        })
        .collect();
    let holes = if g.below(2) == 0 {
        let h = (r * 0.1).max(0.5);
        vec![Ring::new(vec![
            at(cx - h, cy - h),
            at(cx + h, cy - h),
            at(cx + h, cy + h),
            at(cx - h, cy + h),
        ])
        .unwrap()]
    } else {
        Vec::new()
    };
    Polygon::new(Ring::new(ring).unwrap(), holes)
}

/// A rectilinear "histogram" polygon: only axis-parallel edges, collinear
/// runs wherever neighbouring columns share a height, and a step hole.
fn histogram(g: &mut Gen, x0: f64, y0: f64) -> Polygon {
    let cols = 2 + g.below(10);
    let w = g.range(2.0, 12.0);
    let heights: Vec<f64> = (0..cols).map(|_| (1 + g.below(4)) as f64 * 5.0).collect();
    let mut ring = vec![at(x0, y0), at(x0 + w * cols as f64, y0)];
    for i in (0..cols).rev() {
        ring.push(at(x0 + w * (i + 1) as f64, y0 + heights[i]));
        ring.push(at(x0 + w * i as f64, y0 + heights[i]));
    }
    let hole = Ring::new(vec![
        at(x0 + 0.25 * w, y0 + 1.0),
        at(x0 + 0.75 * w, y0 + 1.0),
        at(x0 + 0.75 * w, y0 + 3.0),
        at(x0 + 0.25 * w, y0 + 3.0),
    ])
    .unwrap();
    Polygon::new(Ring::new(ring).unwrap(), vec![hole])
}

/// One of the shapes a query geometry takes, picked by `kind`.
fn shape(kind: u8, seed: u64) -> Geometry {
    let mut g = Gen(seed);
    match kind {
        0 => Geometry::Polygon(star(&mut g, 0.0, 0.0)),
        1 => Geometry::Polygon(histogram(&mut g, -30.0, -20.0)),
        2 => Geometry::MultiPolygon(MultiPolygon::new(vec![
            star(&mut g, -40.0, 10.0),
            histogram(&mut g, 20.0, -30.0),
            star(&mut g, 45.0, 40.0),
        ])),
        3 => {
            let n = 2 + g.below(10);
            let pts = (0..n)
                .map(|_| at(g.range(-60.0, 60.0), g.range(-60.0, 60.0)))
                .collect();
            Geometry::LineString(LineString::new(pts).unwrap())
        }
        _ => {
            // The water-body shape: a buffered sine centreline.
            let n = 16 + g.below(49);
            let (amp, len) = (g.range(5.0, 40.0), g.range(100.0, 400.0));
            let line: Vec<Point> = (0..n)
                .map(|i| {
                    let y = len * i as f64 / (n - 1) as f64;
                    let x = amp * (y / len * std::f64::consts::TAU).sin();
                    Point::new(ORIGIN.0 + x, ORIGIN.1 + y)
                })
                .collect();
            let half_width = g.range(2.0, 25.0);
            Geometry::Polygon(buffer_polyline(&LineString::new(line).unwrap(), half_width).unwrap())
        }
    }
}

/// Probe points: every vertex, points on and along every edge, points at
/// exactly each distance from the axis-parallel edges, and random points
/// around the shape.
fn probes(g: &Geometry, ds: &[f64], gen: &mut Gen) -> Vec<Point> {
    let mut pts: Vec<Point> = g.vertices().collect();
    for e in g.boundary_segments() {
        let mid = Point::new((e.a.x + e.b.x) / 2.0, (e.a.y + e.b.y) / 2.0);
        let t = gen.range(0.0, 1.0);
        pts.push(mid);
        pts.push(Point::new(
            e.a.x + t * (e.b.x - e.a.x),
            e.a.y + t * (e.b.y - e.a.y),
        ));
        for &d in ds {
            if e.a.x == e.b.x {
                pts.extend([Point::new(e.a.x + d, mid.y), Point::new(e.a.x - d, mid.y)]);
            }
            if e.a.y == e.b.y {
                pts.extend([Point::new(mid.x, e.a.y + d), Point::new(mid.x, e.a.y - d)]);
            }
        }
    }
    let env = g
        .envelope()
        .unwrap()
        .buffered(ds.iter().fold(1.0, |a: f64, &b| a.max(b)) * 2.0);
    for _ in 0..64 {
        pts.push(Point::new(
            gen.range(env.min_x, env.max_x),
            gen.range(env.min_y, env.max_y),
        ));
    }
    pts
}

/// Classification cells: a refinement grid over the (buffered) envelope,
/// laid out as the engine lays it, plus lattice-aligned cells whose sides
/// run along the shape's axis-parallel edges.
fn cells(env: &Envelope, n: usize, side: f64) -> Vec<Envelope> {
    let (w, h) = (env.width(), env.height());
    let mut out = Vec::new();
    for cy in 0..n {
        for cx in 0..n {
            out.push(Envelope {
                min_x: env.min_x + w * cx as f64 / n as f64,
                min_y: env.min_y + h * cy as f64 / n as f64,
                max_x: env.min_x + w * (cx + 1) as f64 / n as f64,
                max_y: env.min_y + h * (cy + 1) as f64 / n as f64,
            });
        }
    }
    let (x0, y0) = (
        at(env.min_x - ORIGIN.0, 0.0).x,
        at(0.0, env.min_y - ORIGIN.1).y,
    );
    for cy in 0..n {
        for cx in 0..n {
            let (x, y) = (x0 + side * cx as f64, y0 + side * cy as f64);
            out.push(Envelope::new(x, y, x + side, y + side).unwrap());
        }
    }
    out
}

fn reference_within(cell: &Envelope, g: &Geometry) -> RectClass {
    match g {
        Geometry::Polygon(pg) => classify_rect_polygon(cell, pg),
        Geometry::MultiPolygon(mp) => classify_rect_multipolygon(cell, mp.polygons()),
        _ => RectClass::Boundary,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn prepared_geometry_answers_as_the_reference(
        kind in 0u8..5,
        seed in any::<u64>(),
        n in 4usize..12,
        side in 1usize..9,
    ) {
        let g = shape(kind, seed);
        let prep = PreparedGeometry::new(&g);
        let side = side as f64 * 2.5;
        let half_diag = side * std::f64::consts::SQRT_2 / 2.0;
        // 0, below and above the lattice cells' half-diagonal; quarter
        // multiples, so offsets from lattice edges are exact.
        let ds = [0.0, (half_diag * 2.0).round() / 4.0, (half_diag * 8.0).round() / 4.0];
        let mut gen = Gen(seed ^ 0x5EED);
        for p in probes(&g, &ds, &mut gen) {
            prop_assert_eq!(prep.contains_point(&p), contains_point(&g, &p), "contains {:?}", p);
            for &d in &ds {
                prop_assert_eq!(
                    prep.dwithin_point(&p, d),
                    dwithin_point(&g, &p, d),
                    "dwithin {:?} d={}", p, d
                );
            }
        }
        let env = g.envelope().unwrap().buffered(ds[2]);
        for cell in cells(&env, n, side) {
            prop_assert_eq!(
                prep.classify_rect(&cell, Relation::Within),
                reference_within(&cell, &g),
                "within {:?}", cell
            );
            for &d in &ds {
                prop_assert_eq!(
                    prep.classify_rect(&cell, Relation::DWithin(d)),
                    classify_rect_dwithin(&cell, &g, d),
                    "dwithin {:?} d={}", cell, d
                );
            }
        }
    }
}
