//! Workloads and their operation lists.
//!
//! A workload's list is generated once from the seed and replayed as
//! identical whole passes. Operations come from three cost classes in a
//! fixed 70/20/10 proportion (`ingest_mixed`: 80/20 by construction), so
//! the median sits inside the light class and the 95th percentile is the
//! median of the heaviest class — never in a sparse gap between classes.

use lidardb_core::SpatialPredicate;
use lidardb_datagen::{RoadClass, Scene};
use lidardb_geom::{Envelope, Geometry};
use lidardb_las::PointRecord;

use crate::stats::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NavFlat,
    NavTiled,
    AdhocRefine,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NavFlat,
        Workload::NavTiled,
        Workload::AdhocRefine,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NavFlat => "nav_flat",
            Workload::NavTiled => "nav_tiled",
            Workload::AdhocRefine => "adhoc_refine",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much data and work one run uses. `full` is the only source of
/// committed numbers; `smoke` exercises every code path in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Side of the square scene in metres.
    pub extent_m: f64,
    /// LIDAR pulses per square metre.
    pub density: f64,
    /// The scan is cut into `tiles_per_side²` LAS files.
    pub tiles_per_side: usize,
    /// Operations per pass: a multiple of 10, and four fifths of it a
    /// multiple of the 16-batch commit group.
    pub ops_per_pass: usize,
    /// Share of all points a navigation viewport holds, per cost class.
    pub nav_share: [f64; 3],
    /// Share of all points a `COUNT(*)` viewport of `ingest_mixed` holds.
    pub count_share: f64,
    /// Points per `INSERT` batch.
    pub insert_rows: usize,
    /// Rows per tile of the tiled table.
    pub tile_rows: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            extent_m: 1000.0,
            density: 2.0,
            tiles_per_side: 4,
            ops_per_pass: 200,
            nav_share: [0.0025, 0.01, 0.04],
            count_share: 0.04,
            insert_rows: 1200,
            tile_rows: 65_536,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            extent_m: 400.0,
            density: 1.25,
            tiles_per_side: 2,
            ops_per_pass: 80,
            nav_share: [0.0025, 0.01, 0.04],
            count_share: 0.04,
            insert_rows: 100,
            tile_rows: 8_192,
        }
    }
}

/// Cost class of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Light,
    Mid,
    Heavy,
}

/// The spatial join predicate of an ad-hoc operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinPred {
    DWithin(f64),
    Contains,
}

impl JoinPred {
    /// The predicate that joins points to the feature `g`.
    pub fn to_feature(self, g: &Geometry) -> SpatialPredicate {
        match self {
            JoinPred::DWithin(d) => SpatialPredicate::DWithin(g.clone(), d),
            JoinPred::Contains => SpatialPredicate::Within(g.clone()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewPoint {
    pub x: f64,
    pub y: f64,
    pub z: f64,
    pub classification: u8,
    pub intensity: u16,
}

#[derive(Debug, Clone)]
pub enum OpKind {
    /// Navigation: stream `x, y, z` of the points in a viewport.
    Viewport(Envelope),
    /// Ad hoc: `COUNT(*), AVG(z)` of the points joined to the features
    /// the SQL's vector-side filter keeps, with a thematic filter.
    Join {
        features: Vec<Geometry>,
        pred: JoinPred,
        classification: u8,
    },
    /// Ingest: one `INSERT` batch.
    Insert(Vec<NewPoint>),
    /// Ingest: `COUNT(*)` of the visible points in a viewport.
    Count(Envelope),
}

#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    pub kind: OpKind,
    /// The statement sent over the wire. Built from the same numbers as
    /// `kind`, which is what the oracle and the core-level replay read.
    pub sql: String,
}

/// Class sequence with exactly 7 light, 2 mid and 1 heavy operation in
/// every block of ten, in seeded order.
fn class_sequence(n: usize, rng: &mut Rng) -> Vec<Class> {
    assert_eq!(n % 10, 0, "ops per pass must be a multiple of 10");
    let mut out = Vec::with_capacity(n);
    for _ in 0..n / 10 {
        let mut block = [Class::Light; 10];
        block[7] = Class::Mid;
        block[8] = Class::Mid;
        block[9] = Class::Heavy;
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// Round to the centimetre grid the LAS files use. Rust prints the
/// shortest text that reads back as the same `f64`, so SQL text, oracle
/// and engine all see one value.
fn cm(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn envelope_sql(e: &Envelope) -> String {
    format!(
        "ST_Contains(ST_MakeEnvelope({}, {}, {}, {}), ST_Point(x, y))",
        e.min_x, e.min_y, e.max_x, e.max_y
    )
}

/// Point counts on a one-metre grid, as a summed-area table: how many
/// points a rectangle holds, to cell resolution. Viewports are sized with
/// it to hold a set number of points, so that what an operation costs
/// does not depend on where in the scene the seed sends the session.
pub struct Density {
    env: Envelope,
    side: usize,
    /// `sums[(j + 1) * (side + 1) + i + 1]` = points in cells `..=i, ..=j`.
    sums: Vec<u32>,
}

impl Density {
    pub fn new(env: &Envelope, records: &[PointRecord]) -> Density {
        let side = env.width().max(env.height()).ceil() as usize;
        let mut sums = vec![0u32; (side + 1) * (side + 1)];
        for r in records {
            let i = ((r.x - env.min_x) as usize).min(side - 1);
            let j = ((r.y - env.min_y) as usize).min(side - 1);
            sums[(j + 1) * (side + 1) + i + 1] += 1;
        }
        for j in 1..=side {
            for i in 1..=side {
                let at = j * (side + 1) + i;
                sums[at] = sums[at] + sums[at - 1] + sums[at - side - 1] - sums[at - side - 2];
            }
        }
        Density {
            env: *env,
            side,
            sums,
        }
    }

    fn total(&self) -> u64 {
        u64::from(self.sums[self.sums.len() - 1])
    }

    fn count(&self, e: &Envelope) -> u64 {
        let cell = |v: f64, lo: f64| ((v - lo).round().max(0.0) as usize).min(self.side);
        let (i0, i1) = (cell(e.min_x, self.env.min_x), cell(e.max_x, self.env.min_x));
        let (j0, j1) = (cell(e.min_y, self.env.min_y), cell(e.max_y, self.env.min_y));
        let at = |i: usize, j: usize| u64::from(self.sums[j * (self.side + 1) + i]);
        at(i1, j1) + at(i0, j0) - at(i0, j1) - at(i1, j0)
    }

    /// The 16:9 viewport around `(cx, cy)`, moved to lie inside the scene,
    /// that holds `share` of all points.
    fn viewport(&self, cx: f64, cy: f64, share: f64) -> Envelope {
        let env = &self.env;
        let want = (share * self.total() as f64) as u64;
        let at_width = |w: f64| {
            let h = (w * 9.0 / 16.0).min(env.height());
            let x0 = (cx - w / 2.0).clamp(env.min_x, env.max_x - w);
            let y0 = (cy - h / 2.0).clamp(env.min_y, env.max_y - h);
            Envelope::new(cm(x0), cm(y0), cm(x0 + w), cm(y0 + h))
                .expect("viewport inside the scene")
        };
        let (mut lo, mut hi) = (1.0, env.width());
        for _ in 0..30 {
            let mid = (lo + hi) / 2.0;
            if self.count(&at_width(mid)) < want {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        at_width(hi)
    }
}

/// A pan/zoom session in legs of ten steps. A leg starts with the user
/// looking up a new place and seeing it zoomed out (the heavy class); the
/// other nine steps zoom in and pan by up to half a viewport, so that
/// successive viewports overlap (seven light, two mid, in seeded order).
/// The places are the centres of the cells of a 5 x 4 grid, visited round
/// and round in strides of seven cells — never a neighbour of the cell
/// before — from a seeded start and in a seeded mirror image. Every seed
/// so roams the scene equally far, which keeps the tiled table's working
/// set larger than its resident budget, and loads the same number of
/// tiles per pass to within 3 %: with seeded places in seeded order the
/// seeds differed by a fifth, and `nav_tiled` by 10 % in every timing.
fn nav_ops(density: &Density, scale: &Scale, rng: &mut Rng) -> Vec<Op> {
    const GRID: (usize, usize) = (5, 4);
    const CELLS: usize = GRID.0 * GRID.1;
    // Coprime with the number of cells, and never a step to a neighbour.
    const STRIDE: usize = 7;
    let env = density.env;
    let start = rng.below(CELLS);
    let (flip_x, flip_y) = (rng.below(2) == 1, rng.below(2) == 1);
    let (cell_w, cell_h) = (env.width() / GRID.0 as f64, env.height() / GRID.1 as f64);
    let (mut cx, mut cy, mut step) = (env.min_x, env.min_y, 0.0);
    assert_eq!(
        scale.ops_per_pass % 10,
        0,
        "ops per pass must be a multiple of 10"
    );
    let mut ops = Vec::with_capacity(scale.ops_per_pass);
    for leg in 0..scale.ops_per_pass / 10 {
        let mut classes = [Class::Light; 10];
        classes[0] = Class::Heavy;
        classes[1] = Class::Mid;
        classes[2] = Class::Mid;
        rng.shuffle(&mut classes[1..]);
        for (k, class) in classes.into_iter().enumerate() {
            if k == 0 {
                let cell = (start + leg * STRIDE) % CELLS;
                let (mut i, mut j) = (cell % GRID.0, cell / GRID.0);
                if flip_x {
                    i = GRID.0 - 1 - i;
                }
                if flip_y {
                    j = GRID.1 - 1 - j;
                }
                cx = env.min_x + (i as f64 + 0.5) * cell_w;
                cy = env.min_y + (j as f64 + 0.5) * cell_h;
            } else {
                cx = (cx + rng.range(-0.5, 0.5) * step).clamp(env.min_x, env.max_x);
                cy = (cy + rng.range(-0.5, 0.5) * step).clamp(env.min_y, env.max_y);
            }
            let v = density.viewport(cx, cy, scale.nav_share[class as usize]);
            step = v.height();
            ops.push(Op {
                class,
                sql: format!("SELECT x, y, z FROM points WHERE {}", envelope_sql(&v)),
                kind: OpKind::Viewport(v),
            });
        }
    }
    ops
}

/// ASPRS classification codes of ground, vegetation and building returns.
const GROUND: u8 = 2;
const VEGETATION: u8 = 5;
const BUILDING: u8 = 6;

/// The paper's scenario 2: points joined to Urban Atlas and OSM features,
/// aggregated, with a thematic predicate. What a join costs is set by how
/// many points pass the thematic filter near the features, so templates
/// are grouped by measured cost into three tight clusters, and they take
/// turns, so that every seed draws the same mix:
///
/// * light, one feature: ground returns near one primary road; vegetation
///   near the fast-transit zone (the paper's own query);
/// * mid, many features or a plain containment: vegetation or building
///   returns near every road of a class; ground returns inside the
///   water-body polygon;
/// * heavy, the large concave polygon: ground returns within a distance
///   of the water body.
fn adhoc_ops(scene: &Scene, scale: &Scale, rng: &mut Rng) -> Vec<Op> {
    let roads_of = |class: RoadClass| -> Vec<&lidardb_datagen::Road> {
        scene.roads().iter().filter(|r| r.class == class).collect()
    };
    let road_lines = |class: RoadClass| -> Vec<Geometry> {
        roads_of(class)
            .into_iter()
            .map(|r| Geometry::LineString(r.geometry.clone()))
            .collect()
    };
    let primaries = roads_of(RoadClass::Primary);
    let zones_of = |code: u32| -> Vec<Geometry> {
        scene
            .zones()
            .iter()
            .filter(|z| z.class.code() == code)
            .map(|z| Geometry::Polygon(z.polygon.clone()))
            .collect()
    };
    // How many operations of each class came before: picks the template.
    let mut turn = [0usize; 3];
    class_sequence(scale.ops_per_pass, rng)
        .into_iter()
        .map(|class| {
            let k = turn[class as usize];
            turn[class as usize] += 1;
            let (table, filter, features, pred, classification) = match (class, k % 3) {
                (Class::Light, _) if k % 2 == 0 => {
                    let road = primaries[rng.below(primaries.len())];
                    (
                        "roads",
                        format!("v.id = {}", road.id),
                        vec![Geometry::LineString(road.geometry.clone())],
                        JoinPred::DWithin(cm(rng.range(5.0, 6.0))),
                        GROUND,
                    )
                }
                (Class::Light, _) => (
                    "ua",
                    "v.code = 12210".to_string(),
                    zones_of(12210),
                    JoinPred::DWithin(cm(rng.range(2.0, 3.0))),
                    VEGETATION,
                ),
                (Class::Mid, 0) => (
                    "roads",
                    format!("v.class = '{}'", RoadClass::Residential.tag()),
                    road_lines(RoadClass::Residential),
                    JoinPred::DWithin(cm(rng.range(2.0, 2.5))),
                    [VEGETATION, BUILDING][k / 3 % 2],
                ),
                (Class::Mid, 1) => (
                    "roads",
                    format!("v.class = '{}'", RoadClass::Primary.tag()),
                    road_lines(RoadClass::Primary),
                    JoinPred::DWithin(cm(rng.range(2.0, 2.5))),
                    [BUILDING, VEGETATION][k / 3 % 2],
                ),
                (Class::Mid, _) => (
                    "ua",
                    "v.code = 50000".to_string(),
                    zones_of(50000),
                    JoinPred::Contains,
                    GROUND,
                ),
                (Class::Heavy, _) => (
                    "ua",
                    "v.code = 50000".to_string(),
                    zones_of(50000),
                    JoinPred::DWithin(cm(rng.range(4.0, 5.0))),
                    GROUND,
                ),
            };
            let join = match pred {
                JoinPred::DWithin(d) => {
                    format!("ST_DWithin(ST_Point(p.x, p.y), v.geom, {d})")
                }
                JoinPred::Contains => "ST_Contains(v.geom, ST_Point(p.x, p.y))".to_string(),
            };
            Op {
                class,
                sql: format!(
                    "SELECT COUNT(*) AS n, AVG(p.z) AS avg_z FROM points p, {table} v \
                     WHERE {join} AND {filter} AND p.classification = {classification}"
                ),
                kind: OpKind::Join {
                    features,
                    pred,
                    classification,
                },
            }
        })
        .collect()
}

/// Writes beside reads: every group of five operations is four `INSERT`
/// batches and one viewport `COUNT(*)`. Inserts are the 80 % light class;
/// the counts, sized to cost more than an insert, are the heavy class.
fn ingest_ops(density: &Density, scale: &Scale, rng: &mut Rng) -> Vec<Op> {
    assert!(
        scale.ops_per_pass.is_multiple_of(5) && (scale.ops_per_pass / 5 * 4).is_multiple_of(16),
        "a pass must hold whole groups of 16 insert batches"
    );
    let env = density.env;
    (0..scale.ops_per_pass)
        .map(|i| {
            if i % 5 == 4 {
                let v = density.viewport(
                    rng.range(env.min_x, env.max_x),
                    rng.range(env.min_y, env.max_y),
                    scale.count_share,
                );
                return Op {
                    class: Class::Heavy,
                    sql: format!("SELECT COUNT(*) FROM points WHERE {}", envelope_sql(&v)),
                    kind: OpKind::Count(v),
                };
            }
            // A scanner strip: the batch's points lie along one short
            // flight line somewhere in the scene.
            let (x0, y0) = (
                rng.range(env.min_x, env.max_x - 50.0),
                rng.range(env.min_y, env.max_y),
            );
            let points: Vec<NewPoint> = (0..scale.insert_rows)
                .map(|k| NewPoint {
                    x: cm(x0 + 50.0 * k as f64 / scale.insert_rows as f64),
                    y: cm((y0 + rng.range(-0.5, 0.5)).clamp(env.min_y, env.max_y)),
                    z: cm(rng.range(-2.0, 30.0)),
                    classification: [GROUND, VEGETATION, BUILDING][rng.below(3)],
                    intensity: rng.below(4096) as u16,
                })
                .collect();
            let values: Vec<String> = points
                .iter()
                .map(|p| {
                    format!(
                        "({}, {}, {}, {}, {})",
                        p.x, p.y, p.z, p.classification, p.intensity
                    )
                })
                .collect();
            Op {
                class: Class::Light,
                sql: format!(
                    "INSERT INTO points (x, y, z, classification, intensity) VALUES {}",
                    values.join(", ")
                ),
                kind: OpKind::Insert(points),
            }
        })
        .collect()
}

/// The operation list of a workload: a function of the seed (and of the
/// scene and its points, themselves functions of the seed) and of nothing
/// else. `nav_flat` and `nav_tiled` get the same list on purpose.
pub fn generate(
    workload: Workload,
    seed: u64,
    scene: &Scene,
    records: &[PointRecord],
    scale: &Scale,
) -> Vec<Op> {
    let stream = match workload {
        Workload::NavFlat | Workload::NavTiled => 1,
        Workload::AdhocRefine => 2,
        Workload::IngestMixed => 3,
    };
    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0000_01B3).wrapping_add(stream));
    let density = || Density::new(scene.envelope(), records);
    match workload {
        Workload::NavFlat | Workload::NavTiled => nav_ops(&density(), scale, &mut rng),
        Workload::AdhocRefine => adhoc_ops(scene, scale, &mut rng),
        Workload::IngestMixed => ingest_ops(&density(), scale, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_datagen::{SceneConfig, TileSet};

    fn world(seed: u64) -> (Scene, Vec<PointRecord>) {
        let scene = Scene::generate(SceneConfig {
            seed,
            origin: (85_000.0, 446_000.0),
            extent_m: 200.0,
        });
        let records = TileSet::generate(&scene, 1, 0.5)
            .into_tiles()
            .into_iter()
            .flat_map(|t| t.records)
            .collect();
        (scene, records)
    }

    fn scale() -> Scale {
        Scale {
            extent_m: 200.0,
            ..Scale::smoke()
        }
    }

    fn ops(workload: Workload, seed: u64) -> Vec<Op> {
        let (scene, records) = world(seed);
        generate(workload, seed, &scene, &records, &scale())
    }

    fn text(ops: &[Op]) -> String {
        ops.iter()
            .map(|o| o.sql.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_list() {
        for w in Workload::ALL {
            let (a, b, c) = (text(&ops(w, 11)), text(&ops(w, 11)), text(&ops(w, 12)));
            assert_eq!(a, b, "{} not deterministic", w.name());
            assert_ne!(a, c, "{} ignores the seed", w.name());
        }
        assert_eq!(
            text(&ops(Workload::NavFlat, 5)),
            text(&ops(Workload::NavTiled, 5)),
            "flat and tiled navigation replay one trace"
        );
    }

    #[test]
    fn class_mix_is_exactly_70_20_10() {
        for w in [Workload::NavFlat, Workload::AdhocRefine] {
            let ops = ops(w, 3);
            assert_eq!(ops.len(), scale().ops_per_pass);
            let count = |c: Class| ops.iter().filter(|o| o.class == c).count();
            assert_eq!(count(Class::Light) * 10, ops.len() * 7);
            assert_eq!(count(Class::Mid) * 10, ops.len() * 2);
            assert_eq!(count(Class::Heavy) * 10, ops.len());
        }
        let ops = ops(Workload::IngestMixed, 3);
        let inserts = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Insert(_)))
            .count();
        assert_eq!(inserts * 5, ops.len() * 4);
        assert_eq!(inserts % 16, 0, "passes end on a group-commit boundary");
    }

    #[test]
    fn viewports_lie_inside_the_scene_overlap_and_hold_their_share() {
        let (scene, records) = world(9);
        let ops = generate(Workload::NavFlat, 9, &scene, &records, &scale());
        let views: Vec<(Class, Envelope)> = ops
            .iter()
            .map(|o| match &o.kind {
                OpKind::Viewport(v) => (o.class, *v),
                other => panic!("navigation op is {other:?}"),
            })
            .collect();
        assert!(views
            .iter()
            .all(|(_, v)| scene.envelope().contains_envelope(v)));
        let overlapping = views
            .windows(2)
            .filter(|w| w[0].1.intersects(&w[1].1))
            .count();
        assert!(
            overlapping * 10 >= views.len() * 8,
            "a pan/zoom session overlaps"
        );
        for (class, v) in views {
            let held = records
                .iter()
                .filter(|r| v.min_x <= r.x && r.x <= v.max_x && v.min_y <= r.y && r.y <= v.max_y)
                .count() as f64;
            let want = scale().nav_share[class as usize] * records.len() as f64;
            assert!(
                (held - want).abs() <= 0.15 * want + 30.0,
                "{class:?} viewport holds {held} points, wanted {want}"
            );
        }
    }

    #[test]
    fn density_counts_rectangles() {
        let env = Envelope::new(0.0, 0.0, 4.0, 4.0).unwrap();
        let at = |x: f64, y: f64| PointRecord {
            x,
            y,
            ..PointRecord::default()
        };
        let d = Density::new(
            &env,
            &[at(0.5, 0.5), at(1.5, 0.5), at(3.5, 3.5), at(4.0, 4.0)],
        );
        assert_eq!(d.total(), 4);
        assert_eq!(d.count(&Envelope::new(0.0, 0.0, 2.0, 1.0).unwrap()), 2);
        assert_eq!(d.count(&Envelope::new(3.0, 3.0, 4.0, 4.0).unwrap()), 2);
        assert_eq!(d.count(&Envelope::new(1.0, 1.0, 3.0, 3.0).unwrap()), 0);
    }

    #[test]
    fn sql_numbers_read_back_as_the_same_floats() {
        for op in ops(Workload::NavFlat, 4) {
            let OpKind::Viewport(v) = op.kind else {
                unreachable!()
            };
            for c in [v.min_x, v.min_y, v.max_x, v.max_y] {
                assert_eq!(format!("{c}").parse::<f64>().unwrap(), c);
                assert!(op.sql.contains(&format!("{c}")));
            }
        }
    }
}
