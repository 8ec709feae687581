//! Band tables: the filter step's test of a point against the feature's
//! shape instead of its envelope.
//!
//! The filter envelope `E` of a predicate is cut into slabs along its long
//! axis — the *key* — and each slab, a *band*, keeps the interval of the
//! other coordinate — the *cross* — that a matching point in it can have.
//! A point whose cross coordinate lies outside its band's interval cannot
//! match, so the filter drops it before refinement sees it.
//!
//! **Soundness.** Let `s` be the slack of [`crate::prepared`]
//! (`SLACK · (1 + max|coordinate| + |d|)`), `d` the distance (0 under
//! `Within`), and `[a, b]` a band's slab. A band's interval is the cross
//! range of the feature's edges (and member points) clipped to the widened
//! slab `[a − d − s, b + d + s]`, itself widened by `d + s`. It holds every
//! point the per-call reference accepts:
//!
//! * a point `p` the reference accepts lies within `d` (up to rounding,
//!   which `s` bounds) of some point `q` of the feature, so `q`'s key lies
//!   in the widened slab and `q`'s cross within `d` of `p`'s;
//! * `q` on an edge or a member point: its cross is in the clipped range;
//! * `q` inside a polygon: the line through `q` along the cross axis meets
//!   the polygon's boundary on both sides of `q` at `q`'s own key, so `q`'s
//!   cross lies between two clipped boundary values.
//!
//! Bands run along the long axis: a band across a long feature's length
//! (a horizontal band over an east–west road) would meet all of it.
//!
//! **Band count.** `⌈8 · L / (T + 2d)⌉`, at least 1 and at most
//! [`MAX_BANDS`]: `L` is the key extent of `E` and `T` the feature's mean
//! thickness, `2 · area / perimeter` for polygons (a corridor's width) and
//! 0 for lines and points. A band is then an eighth of the buffered
//! feature's thickness long, so an edge at slope `m` to the key axis
//! widens its band's interval by at most `m / 8` of that thickness.
//!
//! **No table** is built for a distance that is NaN, negative or infinite
//! (the exact test then accepts nothing or everything), for an empty
//! feature, or when the bands cover more than three quarters of `E` —
//! their intervals, clipped to `E`'s cross extent, sum to more than
//! `0.75 · count ×` that extent. The band test costs every row it sees
//! (~6 ns on a 2-vCPU host) and saves the refinement of each row it
//! drops: its binning and, for the sparse rows beside a thin feature, a
//! share of an OUTSIDE cell's classification. Measured (harness E4 and
//! the benchmark): on a fat pentagon, whose bands keep 90 % of the
//! envelope's rows, a table made the 64² grid select 30–45 % slower; on
//! the fast-transit corridor, whose bands cover about half, it took
//! about a fifth off the select. The extreme case is every band covering `E`'s whole cross extent
//! (an axis-parallel road), where the table drops nothing. A polyline
//! whose vertices all share one cross coordinate is known to be such a
//! road before any band is built: it is connected and spans `E`'s key
//! extent but for `d` at each end, so every widened slab meets it at that
//! one cross value.

use crate::envelope::Envelope;
use crate::prepared::{PreparedGeometry, Relation, SLACK};

/// Most bands one table holds (16 KiB of intervals).
pub const MAX_BANDS: usize = 1024;

/// The coordinate a band table cuts into slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Slabs of x, each holding a y-interval.
    X,
    /// Slabs of y, each holding an x-interval.
    Y,
}

/// Per band of the key coordinate, the inclusive interval of the cross
/// coordinate a matching point can have.
#[derive(Debug, Clone)]
pub struct Bands {
    axis: Axis,
    origin: f64,
    per_unit: f64,
    last: usize,
    bounds: Vec<(f64, f64)>,
}

/// Where a band table's slabs lie: what [`Bands::layout`] decides from the
/// feature before any interval is computed, so that the table's bytes can
/// be charged before it is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandLayout {
    axis: Axis,
    /// Key extent of the filter envelope.
    key: (f64, f64),
    /// Cross extent of the filter envelope.
    cross: (f64, f64),
    count: usize,
    /// `d` plus the slack: how far slabs and intervals widen.
    reach: f64,
}

impl BandLayout {
    /// Heap bytes of the table's intervals.
    pub fn bytes(&self) -> usize {
        self.count * std::mem::size_of::<(f64, f64)>()
    }
}

impl Bands {
    /// The layout of the band table of `prep` under `rel` over the filter
    /// envelope `env`; `None` when no table can help (see the module docs).
    pub fn layout(prep: &PreparedGeometry, rel: Relation, env: &Envelope) -> Option<BandLayout> {
        let d = match rel {
            Relation::Within => 0.0,
            Relation::DWithin(d) => d,
        };
        if !(d.is_finite() && d >= 0.0) || prep.is_empty() {
            return None;
        }
        let (axis, key, cross) = if env.height() > env.width() {
            (Axis::Y, (env.min_y, env.max_y), (env.min_x, env.max_x))
        } else {
            (Axis::X, (env.min_x, env.max_x), (env.min_y, env.max_y))
        };
        let len = key.1 - key.0;
        if len.is_nan() || len <= 0.0 || along_key(prep, axis) {
            return None;
        }
        // NaN (a zero-thickness, zero-distance feature) saturates to the cap.
        let count = (8.0 * len / (prep.thickness() + 2.0 * d)).ceil();
        let count = if count.is_nan() {
            MAX_BANDS
        } else {
            (count as usize).clamp(1, MAX_BANDS)
        };
        Some(BandLayout {
            axis,
            key,
            cross,
            count,
            reach: d + SLACK * (prep.magnitude() + d),
        })
    }

    /// Build the table `layout` describes; `None` when its bands cover
    /// more than three quarters of the envelope.
    pub fn build(prep: &PreparedGeometry, layout: &BandLayout) -> Option<Bands> {
        let BandLayout {
            axis,
            key: (k0, k1),
            count,
            reach,
            ..
        } = *layout;
        let width = (k1 - k0) / count as f64;
        let per_unit = count as f64 / (k1 - k0);
        let split = |x: f64, y: f64| match axis {
            Axis::X => (x, y),
            Axis::Y => (y, x),
        };
        // The widened slab of band `b`.
        let slab = |b: usize| {
            (
                k0 + b as f64 * width - reach,
                k0 + (b + 1) as f64 * width + reach,
            )
        };
        // Bands whose widened slab may meet keys `lo..=hi`: one more on
        // each side than the arithmetic says, and each is clipped exactly.
        let span = |lo: f64, hi: f64| {
            let at = |k: f64| ((k - k0) * per_unit).max(0.0) as usize;
            at(lo - reach).saturating_sub(1)..=at(hi + reach).saturating_add(1).min(count - 1)
        };
        let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); count];
        let mut widen = |b: usize, c0: f64, c1: f64| {
            let iv = &mut bounds[b];
            *iv = (iv.0.min(c0.min(c1)), iv.1.max(c0.max(c1)));
        };
        for seg in prep.segments() {
            let ((ka, ca), (kb, cb)) = (split(seg.a.x, seg.a.y), split(seg.b.x, seg.b.y));
            let (klo, khi) = (ka.min(kb), ka.max(kb));
            // Unused (infinite or NaN) for an edge along the cross axis.
            let slope = (cb - ca) / (kb - ka);
            for b in span(klo, khi) {
                let (s0, s1) = slab(b);
                let (lo, hi) = (klo.max(s0), khi.min(s1));
                if lo > hi {
                    continue;
                }
                match klo == khi {
                    // An edge along the cross axis spans its whole range.
                    true => widen(b, ca, cb),
                    false => widen(b, ca + (lo - ka) * slope, ca + (hi - ka) * slope),
                }
            }
        }
        for q in prep.points() {
            let (k, c) = split(q.x, q.y);
            for b in span(k, k) {
                let (s0, s1) = slab(b);
                if s0 <= k && k <= s1 {
                    widen(b, c, c);
                }
            }
        }
        let (c0, c1) = layout.cross;
        let mut covered = 0.0;
        for iv in &mut bounds {
            *iv = (iv.0 - reach, iv.1 + reach);
            covered += (iv.1.min(c1) - iv.0.max(c0)).max(0.0);
        }
        (covered <= 0.75 * count as f64 * (c1 - c0)).then_some(Bands {
            axis,
            origin: k0,
            per_unit,
            last: count - 1,
            bounds,
        })
    }

    /// The coordinate the table cuts into slabs.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Number of bands.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the table holds no band (never true of a built table).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The band of key `k` (clamped into the table), and its interval.
    #[inline]
    pub(crate) fn interval(&self, k: f64) -> (f64, f64) {
        // The saturating signed cast (one instruction and a NaN fix, where
        // an unsigned one is several) sends NaN to 0; the clamp does the
        // rest.
        let b = (((k - self.origin) * self.per_unit) as i64).clamp(0, self.last as i64);
        self.bounds[b as usize]
    }

    /// Whether `(x, y)` lies in its band's interval: true for every point
    /// the exact test accepts, so false only for points it rejects.
    #[inline]
    pub fn admits(&self, x: f64, y: f64) -> bool {
        let (k, c) = match self.axis {
            Axis::X => (x, y),
            Axis::Y => (y, x),
        };
        let (lo, hi) = self.interval(k);
        c >= lo && c <= hi
    }
}

/// Whether `prep` is a polyline whose vertices all share one cross
/// coordinate: a road along the key axis.
fn along_key(prep: &PreparedGeometry, axis: Axis) -> bool {
    let cross = |p: &crate::Point| match axis {
        Axis::X => p.y,
        Axis::Y => p.x,
    };
    let mut ends = prep.segments().flat_map(|s| [cross(&s.a), cross(&s.b)]);
    prep.is_line() && ends.next().is_some_and(|c| ends.all(|e| e == c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::buffer_polyline;
    use crate::geometry::{Geometry, LineString, MultiPoint, MultiPolygon};
    use crate::polygon::{Polygon, Ring};
    use crate::predicates::{contains_point, dwithin_point};
    use crate::Point;

    /// The filter envelope of `g` at distance `d`.
    fn filter_env(g: &Geometry, rel: Relation) -> Envelope {
        let d = match rel {
            Relation::Within => 0.0,
            Relation::DWithin(d) => d,
        };
        g.envelope().expect("non-empty").buffered(d)
    }

    fn bands_of(g: &Geometry, rel: Relation) -> Option<Bands> {
        let prep = PreparedGeometry::new(g);
        let layout = Bands::layout(&prep, rel, &filter_env(g, rel))?;
        Bands::build(&prep, &layout)
    }

    fn line(pts: &[(f64, f64)]) -> Geometry {
        Geometry::LineString(
            LineString::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
        )
    }

    /// An east–west chevron like the scene's motorway, 1000 m long.
    fn chevron() -> Geometry {
        line(&[(0.0, 480.0), (500.0, 530.0), (1000.0, 490.0)])
    }

    /// A north–south meander buffered into a 128-vertex corridor.
    fn ns_corridor() -> Geometry {
        let pts: Vec<Point> = (0..64)
            .map(|i| {
                let y = 1000.0 * i as f64 / 63.0;
                Point::new(500.0 + 150.0 * (y / 800.0 * std::f64::consts::TAU).sin(), y)
            })
            .collect();
        Geometry::Polygon(buffer_polyline(&LineString::new(pts).unwrap(), 20.0).unwrap())
    }

    fn ring(pts: &[(f64, f64)]) -> Ring {
        Ring::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    /// A thin diagonal strip with a square hole, and a second polygon
    /// apart.
    fn holed_multipolygon() -> Geometry {
        let strip = Polygon::new(
            ring(&[(0.0, 0.0), (40.0, 0.0), (940.0, 600.0), (900.0, 600.0)]),
            vec![ring(&[(460.0, 295.0), (480.0, 295.0), (480.0, 305.0), (460.0, 305.0)])],
        );
        let far = Polygon::from_exterior(vec![
            Point::new(900.0, 100.0),
            Point::new(990.0, 120.0),
            Point::new(950.0, 300.0),
        ])
        .unwrap();
        Geometry::MultiPolygon(MultiPolygon::new(vec![strip, far]))
    }

    fn lcg(s: &mut u64) -> f64 {
        *s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*s >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Every point the reference accepts lies inside its band's interval:
    /// random points over the filter envelope, points on and beside every
    /// vertex, and points exactly on slab edges, for N–S and E–W
    /// corridors, a holed multi-polygon, lines and points, at d = 0 and
    /// quarter-snapped distances.
    #[test]
    fn every_point_the_reference_accepts_lies_in_its_band() {
        let shapes = [
            ("E-W chevron", chevron()),
            ("N-S corridor", ns_corridor()),
            ("E-W corridor", {
                let pts = [(0.0, 380.0), (500.0, 530.0), (1000.0, 400.0)];
                let ls = LineString::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect());
                Geometry::Polygon(buffer_polyline(&ls.unwrap(), 23.0).unwrap())
            }),
            ("holed multi-polygon", holed_multipolygon()),
            ("diagonal line", line(&[(100.0, 100.0), (900.0, 700.0)])),
            (
                "points",
                Geometry::MultiPoint(
                    MultiPoint::new(vec![
                        Point::new(10.0, 20.0),
                        Point::new(400.0, 30.0),
                        Point::new(700.0, 60.0),
                    ])
                    .unwrap(),
                ),
            ),
        ];
        let mut seed = 7u64;
        for (name, g) in &shapes {
            let mut built = 0;
            let prep = PreparedGeometry::new(g);
            let mut distances: Vec<f64> = vec![0.0];
            for _ in 0..3 {
                distances.push((lcg(&mut seed) * 40.0 * 4.0).round() / 4.0);
            }
            for &d in &distances {
                for rel in [Relation::Within, Relation::DWithin(d)] {
                    let env = filter_env(g, rel);
                    let Some(layout) = Bands::layout(&prep, rel, &env) else {
                        continue;
                    };
                    let Some(bands) = Bands::build(&prep, &layout) else {
                        continue;
                    };
                    built += 1;
                    let accepts = |p: &Point| match rel {
                        Relation::Within => contains_point(g, p),
                        Relation::DWithin(d) => dwithin_point(g, p, d),
                    };
                    let mut probes: Vec<Point> = (0..4000)
                        .map(|_| {
                            Point::new(
                                env.min_x + lcg(&mut seed) * env.width(),
                                env.min_y + lcg(&mut seed) * env.height(),
                            )
                        })
                        .collect();
                    for v in g.vertices() {
                        for (dx, dy) in [(0.0, 0.0), (d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)] {
                            probes.push(Point::new(v.x + dx, v.y + dy));
                        }
                    }
                    // Points exactly on slab edges, across the cross extent.
                    let (k0, k1) = layout.key;
                    for b in 0..=layout.count {
                        let k = k0 + (k1 - k0) * b as f64 / layout.count as f64;
                        for j in 0..=64 {
                            let (c0, c1) = layout.cross;
                            let c = c0 + (c1 - c0) * j as f64 / 64.0;
                            probes.push(match layout.axis {
                                Axis::X => Point::new(k, c),
                                Axis::Y => Point::new(c, k),
                            });
                        }
                    }
                    let mut accepted = 0;
                    for p in probes.iter().filter(|p| env.contains(p) && accepts(p)) {
                        accepted += 1;
                        assert!(
                            bands.admits(p.x, p.y),
                            "{name} {rel:?}: {p:?} accepted, not admitted"
                        );
                    }
                    assert!(accepted > 0, "{name} {rel:?}: no accepted probe");
                }
            }
            assert!(built > 0, "{name}: no table was built");
        }
    }

    /// At projected-CRS coordinates (~4.5e5, an ulp ~6e-11), points at
    /// distance `d` give or take a few ulps across every edge and around
    /// every corner of a chevron and a corridor, and points at slab edges
    /// nudged by an ulp, are admitted whenever the reference accepts them.
    #[test]
    fn points_at_distance_d_at_crs_coordinates_are_admitted() {
        let (ox, oy) = (100_000.0, 450_000.0);
        let shift = |pts: &[(f64, f64)]| -> Vec<Point> {
            pts.iter()
                .map(|&(x, y)| Point::new(ox + x, oy + y))
                .collect()
        };
        let centre = shift(&[(0.0, 380.0), (500.0, 530.0), (1000.0, 400.0)]);
        let line = Geometry::LineString(LineString::new(centre.clone()).unwrap());
        let corridor =
            Geometry::Polygon(buffer_polyline(&LineString::new(centre).unwrap(), 23.0).unwrap());
        let mut seed = 99u64;
        for g in [&line, &corridor] {
            let prep = PreparedGeometry::new(g);
            for d in [0.0, 2.5, 3.25] {
                let rel = Relation::DWithin(d);
                let env = filter_env(g, rel);
                let layout = Bands::layout(&prep, rel, &env).unwrap();
                let bands = Bands::build(&prep, &layout).unwrap();
                let mut probes = Vec::new();
                for seg in g.boundary_segments() {
                    let (dx, dy) = (seg.b.x - seg.a.x, seg.b.y - seg.a.y);
                    let len = (dx * dx + dy * dy).sqrt();
                    let (nx, ny) = (-dy / len, dx / len);
                    for _ in 0..400 {
                        let t = lcg(&mut seed);
                        let (x, y) = (seg.a.x + t * dx, seg.a.y + t * dy);
                        for side in [-1.0, 1.0] {
                            let p = Point::new(x + side * d * nx, y + side * d * ny);
                            let mut q = p;
                            for _ in 0..4 {
                                probes.push(q);
                                q = Point::new(q.x.next_up(), q.y.next_down());
                            }
                            probes.push(Point::new(p.x.next_down(), p.y.next_up()));
                        }
                    }
                }
                for v in g.vertices() {
                    for k in 0..64 {
                        let a = k as f64 / 64.0 * std::f64::consts::TAU;
                        probes.push(Point::new(v.x + d * a.cos(), v.y + d * a.sin()));
                    }
                }
                let (k0, k1) = layout.key;
                for b in 0..=layout.count {
                    let k = k0 + (k1 - k0) * b as f64 / layout.count as f64;
                    for k in [k.next_down(), k, k.next_up()] {
                        for j in 0..=256 {
                            let (c0, c1) = layout.cross;
                            probes.push(Point::new(k, c0 + (c1 - c0) * j as f64 / 256.0));
                        }
                    }
                }
                let accepted = probes
                    .iter()
                    .filter(|p| env.contains(p) && dwithin_point(g, p, d))
                    .inspect(|p| assert!(bands.admits(p.x, p.y), "d {d}: {p:?} not admitted"))
                    .count();
                assert!(accepted > 1000, "{accepted}");
            }
        }
    }

    /// Every interval holds the feature's cross values over its slab
    /// widened by `d + slack`, and reaches `d + slack` past them: the
    /// margin that makes the table a superset of the exact test whatever
    /// the rounding, at projected-CRS coordinates where the slack is
    /// ~0.5 mm.
    #[test]
    fn intervals_carry_the_rounding_slack() {
        let (ox, oy) = (100_000.0, 450_000.0);
        let centre: Vec<Point> = [(0.0, 480.0), (500.0, 530.0), (1000.0, 490.0)]
            .iter()
            .map(|&(x, y)| Point::new(ox + x, oy + y))
            .collect();
        let g = Geometry::LineString(LineString::new(centre).unwrap());
        let prep = PreparedGeometry::new(&g);
        let d = 2.5;
        let slack = SLACK * (prep.magnitude() + d);
        assert!(slack > 4e-4, "{slack}");
        let rel = Relation::DWithin(d);
        let layout = Bands::layout(&prep, rel, &filter_env(&g, rel)).unwrap();
        let bands = Bands::build(&prep, &layout).unwrap();
        let (k0, k1) = layout.key;
        let width = (k1 - k0) / layout.count as f64;
        for b in 0..layout.count {
            let (s0, s1) = (
                k0 + b as f64 * width - d - slack,
                k0 + (b + 1) as f64 * width + d + slack,
            );
            // The line's y over the widened slab, sampled densely.
            let ys: Vec<f64> = g
                .boundary_segments()
                .flat_map(|seg| {
                    (0..=200).filter_map(move |i| {
                        let t = i as f64 / 200.0;
                        let x = seg.a.x + t * (seg.b.x - seg.a.x);
                        (s0 <= x && x <= s1).then_some(seg.a.y + t * (seg.b.y - seg.a.y))
                    })
                })
                .collect();
            let (lo, hi) = bands.interval(k0 + (b as f64 + 0.5) * width);
            for y in ys {
                assert!(
                    lo <= y - d - 0.9 * slack && y + d + 0.9 * slack <= hi,
                    "band {b}: {y} in {lo}..{hi}"
                );
            }
        }
    }

    /// Bands run along the envelope's long axis, and cut the rows an
    /// envelope test would pass down to the feature's own shape.
    #[test]
    fn bands_run_along_the_long_axis_and_prune() {
        let bands = bands_of(&chevron(), Relation::DWithin(2.5)).expect("a chevron pays");
        assert_eq!(bands.axis(), Axis::X);
        // Across the middle of the chevron a band holds ~5 m of y, not the
        // envelope's 55.
        let (lo, hi) = bands.interval(250.0);
        assert!(hi - lo < 10.0, "{lo}..{hi}");
        let bands = bands_of(&ns_corridor(), Relation::Within).expect("a meander pays");
        assert_eq!(bands.axis(), Axis::Y);
        let (lo, hi) = bands.interval(500.0);
        assert!(hi - lo < 100.0, "{lo}..{hi} of a 340 m wide envelope");
    }

    /// Axis-parallel features, unusable distances and empty geometries
    /// build no table.
    #[test]
    fn no_table_when_it_cannot_help() {
        let ew = line(&[(0.0, 50.0), (1000.0, 50.0)]);
        let ns = line(&[(20.0, 0.0), (20.0, 1000.0)]);
        let rect = Geometry::Polygon(Polygon::rectangle(
            &Envelope::new(0.0, 45.0, 99.0, 55.0).unwrap(),
        ));
        for g in [&ew, &ns, &rect] {
            for rel in [Relation::Within, Relation::DWithin(5.5)] {
                assert!(bands_of(g, rel).is_none(), "{g:?} {rel:?}");
            }
        }
        // The roads are decided before any band is built; building their
        // tables all the same finds them covering the envelope.
        for (g, axis) in [(&ew, Axis::X), (&ns, Axis::Y)] {
            let prep = PreparedGeometry::new(g);
            let env = filter_env(g, Relation::DWithin(5.5));
            let (key, cross) = match axis {
                Axis::X => ((env.min_x, env.max_x), (env.min_y, env.max_y)),
                Axis::Y => ((env.min_y, env.max_y), (env.min_x, env.max_x)),
            };
            for count in [1, 7, 300, MAX_BANDS] {
                let reach = 5.5 + SLACK * (prep.magnitude() + 5.5);
                let layout = BandLayout { axis, key, cross, count, reach };
                assert!(Bands::build(&prep, &layout).is_none(), "{axis:?} {count}");
            }
        }
        // Two collinear pieces with a gap are not one road: the gap's bands
        // hold nothing, so the table pays.
        let gapped = Geometry::MultiPoint(
            MultiPoint::new(vec![Point::new(0.0, 50.0), Point::new(1000.0, 50.0)]).unwrap(),
        );
        assert!(bands_of(&gapped, Relation::DWithin(5.5)).is_some());
        let prep = PreparedGeometry::new(&chevron());
        let env = filter_env(&chevron(), Relation::Within);
        for d in [f64::NAN, -1.0, f64::INFINITY] {
            assert!(
                Bands::layout(&prep, Relation::DWithin(d), &env).is_none(),
                "{d}"
            );
        }
        let empty = PreparedGeometry::new(&Geometry::MultiPolygon(MultiPolygon::new(vec![])));
        assert!(Bands::layout(&empty, Relation::Within, &env).is_none());
    }

    /// The count follows the stated rule, and a zero-thickness feature at
    /// distance 0 gets the cap.
    #[test]
    fn band_count_follows_the_thickness_rule() {
        let g = chevron();
        let prep = PreparedGeometry::new(&g);
        let rel = Relation::DWithin(2.5);
        let layout = Bands::layout(&prep, rel, &filter_env(&g, rel)).unwrap();
        assert_eq!(
            layout.count,
            MAX_BANDS,
            "a line's 8 · 1005 / 5 bands, capped"
        );
        assert_eq!(layout.bytes(), layout.count * 16);
        let layout = Bands::layout(&prep, Relation::Within, &filter_env(&g, Relation::Within));
        assert_eq!(layout.unwrap().count, MAX_BANDS);
        // A 46 m wide corridor, 44 m thick on average (its rounded ends
        // are thinner): 8 · 1051 / (44 + 5) bands.
        let pts = [(0.0, 480.0), (500.0, 530.0), (1000.0, 490.0)];
        let ls = LineString::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect());
        let g = Geometry::Polygon(buffer_polyline(&ls.unwrap(), 23.0).unwrap());
        let prep = PreparedGeometry::new(&g);
        assert!((40.0..46.0).contains(&prep.thickness()), "{}", prep.thickness());
        let env = filter_env(&g, rel);
        let layout = Bands::layout(&prep, rel, &env).unwrap();
        let expect = (8.0 * env.width() / (prep.thickness() + 5.0)).ceil() as usize;
        assert_eq!(layout.count, expect);
        assert!((150..=180).contains(&expect), "{expect}");
    }
}
