//! The consistent synthetic world shared by all three datasets.
//!
//! A [`Scene`] is one simulated municipality: terrain, a road network, a
//! river, land-use zones and buildings, all derived deterministically from
//! one seed and one extent. The LIDAR generator samples *this* world, so
//! the demo queries behave like they would on the real datasets: returns
//! over the river classify as water (9), returns in the urban quarter hit
//! buildings (6), vegetation produces multiple returns, and the Urban
//! Atlas fast-transit corridor really does contain the motorway's points.

use lidardb_geom::{Envelope, Point};

use crate::osm::{self, Poi, River, RiverCourse, Road};
use crate::terrain::Terrain;
use crate::urban_atlas::{self, LandUseZone};

/// Configuration of a scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Seed of all randomness.
    pub seed: u64,
    /// South-west corner in world coordinates (AHN2 ships in the Dutch RD
    /// projection; the default origin is RD-plausible).
    pub origin: (f64, f64),
    /// Side length of the square region in metres.
    pub extent_m: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            seed: 2015,
            origin: (120_000.0, 480_000.0),
            extent_m: 4000.0,
        }
    }
}

/// A building with a rectangular footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Building {
    /// Ground footprint.
    pub footprint: Envelope,
    /// Roof height above ground in metres.
    pub height: f64,
}

/// What the laser pulse hit, with everything needed to synthesise the
/// point record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceSample {
    /// Elevation of the return.
    pub z: f64,
    /// ASPRS classification code.
    pub classification: u8,
    /// Return magnitude.
    pub intensity: u16,
    /// RGB colour.
    pub rgb: (u16, u16, u16),
    /// Number of returns of the pulse (vegetation gives several).
    pub number_of_returns: u8,
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct Scene {
    config: SceneConfig,
    envelope: Envelope,
    terrain: Terrain,
    roads: Vec<Road>,
    rivers: Vec<River>,
    river_course: RiverCourse,
    zones: Vec<LandUseZone>,
    buildings: Vec<Building>,
    pois: Vec<Poi>,
    forest: Envelope,
    park: Envelope,
    pasture: Envelope,
    urban: Envelope,
}

impl Scene {
    /// Generate the world for a configuration.
    pub fn generate(config: SceneConfig) -> Self {
        assert!(config.extent_m > 0.0, "extent must be positive");
        let (ox, oy) = config.origin;
        let envelope = Envelope::new(ox, oy, ox + config.extent_m, oy + config.extent_m)
            .expect("positive extent");
        let terrain = Terrain::new(config.seed);
        let roads = osm::build_roads(&envelope);
        let rivers = osm::build_rivers(&envelope);
        let river_course = osm::river_course(&envelope);
        let zones = urban_atlas::build_zones(&envelope);
        let urban = osm::urban_quarter(&envelope);

        // Zone envelopes used by the fast per-point classifier; they mirror
        // the rectangles build_zones creates.
        let frac = |a: f64, b: f64, c: f64, d: f64| {
            Envelope::new(
                envelope.min_x + envelope.width() * a,
                envelope.min_y + envelope.height() * b,
                envelope.min_x + envelope.width() * c,
                envelope.min_y + envelope.height() * d,
            )
            .expect("valid fraction envelope")
        };
        let park = frac(0.40, 0.55, 0.55, 0.75);
        let forest = frac(0.02, 0.70, 0.20, 0.97);
        let pasture = frac(0.05, 0.05, 0.95, 0.35);

        let buildings = Self::build_buildings(config.seed, &urban, &terrain);
        let pois = osm::build_pois(&envelope);

        Scene {
            config,
            envelope,
            terrain,
            roads,
            rivers,
            river_course,
            zones,
            buildings,
            pois,
            forest,
            park,
            pasture,
            urban,
        }
    }

    fn build_buildings(seed: u64, urban: &Envelope, terrain: &Terrain) -> Vec<Building> {
        // Street blocks on the same ~1/8 grid as the residential streets;
        // 2x2 buildings per block with seeded footprints and heights.
        let mut out = Vec::new();
        let step = urban.width() / 8.0;
        let _ = seed;
        for bx in 0..8 {
            for by in 0..8 {
                let x0 = urban.min_x + bx as f64 * step;
                let y0 = urban.min_y + by as f64 * step;
                for (sx, sy) in [(0.15, 0.15), (0.55, 0.15), (0.15, 0.55), (0.55, 0.55)] {
                    let cx = x0 + step * sx;
                    let cy = y0 + step * sy;
                    let e1 = terrain.event(11, cx, cy);
                    if e1 < 0.2 {
                        continue; // empty lot
                    }
                    let w = step * (0.18 + 0.12 * terrain.event(12, cx, cy));
                    let h = step * (0.18 + 0.12 * terrain.event(13, cx, cy));
                    let height = 4.0 + 20.0 * terrain.event(14, cx, cy).powi(2);
                    out.push(Building {
                        footprint: Envelope::new(cx, cy, cx + w, cy + h)
                            .expect("positive building size"),
                        height,
                    });
                }
            }
        }
        out
    }

    /// The configuration the scene was generated from.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// The region covered.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// The terrain heightfield.
    pub fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// OSM-like roads.
    pub fn roads(&self) -> &[Road] {
        &self.roads
    }

    /// OSM-like rivers.
    pub fn rivers(&self) -> &[River] {
        &self.rivers
    }

    /// OSM-like points of interest.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// Urban-Atlas-like land-use zones.
    pub fn zones(&self) -> &[LandUseZone] {
        &self.zones
    }

    /// Buildings of the urban quarter.
    pub fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// Classify what a nadir laser pulse at `(x, y)` returns.
    pub fn sample_surface(&self, x: f64, y: f64) -> SurfaceSample {
        let ground = self.terrain.height(x, y);
        let p = Point::new(x, y);

        // Water wins (the laser mostly reflects off the surface).
        if self.river_course.distance(x, y) <= self.river_course.half_width {
            return SurfaceSample {
                z: ground - 1.5,
                classification: 9,
                intensity: 12 + (self.terrain.event(21, x, y) * 20.0) as u16,
                rgb: (20, 60, 120),
                number_of_returns: 1,
            };
        }

        // Buildings.
        for b in &self.buildings {
            if b.footprint.contains(&p) {
                return SurfaceSample {
                    z: ground + b.height,
                    classification: 6,
                    intensity: 180 + (self.terrain.event(22, x, y) * 60.0) as u16,
                    rgb: (160, 60, 50),
                    number_of_returns: 1,
                };
            }
        }

        // Road surfaces (asphalt: strong, dark returns), class 2 ground.
        for r in &self.roads {
            let hw = r.class.half_width();
            // Cheap bbox rejection before the segment distance.
            let env = r.geometry.envelope().buffered(hw);
            if env.contains(&p) && r.geometry.distance_point(&p) <= hw {
                return SurfaceSample {
                    z: ground + 0.05,
                    classification: 2,
                    intensity: 220,
                    rgb: (70, 70, 75),
                    number_of_returns: 1,
                };
            }
        }

        // Vegetation probability by land use.
        let veg_p = if self.forest.contains(&p) {
            0.65
        } else if self.park.contains(&p) {
            0.30
        } else if self.pasture.contains(&p) {
            0.02
        } else if self.urban.contains(&p) {
            0.08 // street trees
        } else {
            0.10
        };
        if self.terrain.event(23, x, y) < veg_p {
            let tree_h = 4.0 + 18.0 * self.terrain.event(24, x, y);
            return SurfaceSample {
                z: ground + tree_h,
                classification: 5,
                intensity: 60 + (self.terrain.event(25, x, y) * 80.0) as u16,
                rgb: (40, 120, 40),
                number_of_returns: 2 + (self.terrain.event(26, x, y) * 2.0) as u8,
            };
        }

        // Bare ground / grass.
        SurfaceSample {
            z: ground,
            classification: 2,
            intensity: 90 + (self.terrain.event(27, x, y) * 60.0) as u16,
            rgb: (120, 110, 80),
            number_of_returns: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osm::RoadClass;

    fn scene() -> Scene {
        Scene::generate(SceneConfig {
            seed: 7,
            origin: (0.0, 0.0),
            extent_m: 4000.0,
        })
    }

    #[test]
    fn deterministic() {
        let a = scene();
        let b = scene();
        assert_eq!(a.buildings().len(), b.buildings().len());
        assert_eq!(
            a.sample_surface(1234.5, 678.9),
            b.sample_surface(1234.5, 678.9)
        );
    }

    #[test]
    fn water_over_river() {
        let s = scene();
        let course = osm::river_course(s.envelope());
        let y = 1000.0;
        let smp = s.sample_surface(course.x_at(y), y);
        assert_eq!(smp.classification, 9);
        assert!(smp.z < s.terrain().height(course.x_at(y), y));
    }

    #[test]
    fn buildings_rise_above_ground() {
        let s = scene();
        let b = s.buildings()[0];
        let c = b.footprint.center();
        let smp = s.sample_surface(c.x, c.y);
        assert_eq!(smp.classification, 6);
        assert!(smp.z > s.terrain().height(c.x, c.y) + 3.0);
    }

    #[test]
    fn motorway_surface_is_road() {
        let s = scene();
        let motorway = s
            .roads()
            .iter()
            .find(|r| r.class == RoadClass::Motorway)
            .unwrap();
        // Sample the middle vertex, nudged slightly off the centreline.
        let v = motorway.geometry.vertices()[1];
        let smp = s.sample_surface(v.x + 1.0, v.y);
        assert_eq!(smp.classification, 2);
        assert_eq!(smp.intensity, 220, "asphalt signature");
    }

    #[test]
    fn forest_produces_vegetation_and_multi_returns() {
        let s = scene();
        let f = Envelope::new(100.0, 2900.0, 700.0, 3800.0).unwrap(); // inside forest zone
        let mut veg = 0;
        let mut total = 0;
        let mut multi = 0;
        for i in 0..40 {
            for j in 0..40 {
                let x = f.min_x + f.width() * i as f64 / 40.0;
                let y = f.min_y + f.height() * j as f64 / 40.0;
                let smp = s.sample_surface(x, y);
                total += 1;
                if smp.classification == 5 {
                    veg += 1;
                    if smp.number_of_returns > 1 {
                        multi += 1;
                    }
                }
            }
        }
        assert!(
            veg as f64 > total as f64 * 0.4,
            "forest should be mostly trees: {veg}/{total}"
        );
        assert_eq!(multi, veg, "vegetation returns are multi-return");
    }

    #[test]
    fn class_inventory_is_realistic() {
        let s = scene();
        let mut counts = std::collections::HashMap::new();
        for i in 0..120 {
            for j in 0..120 {
                let x = i as f64 * 4000.0 / 120.0;
                let y = j as f64 * 4000.0 / 120.0;
                *counts
                    .entry(s.sample_surface(x, y).classification)
                    .or_insert(0usize) += 1;
            }
        }
        // Ground dominates; water, buildings and vegetation all present.
        assert!(counts[&2] > counts.values().sum::<usize>() / 2);
        for class in [5u8, 6, 9] {
            assert!(
                counts.get(&class).copied().unwrap_or(0) > 10,
                "class {class}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        Scene::generate(SceneConfig {
            seed: 1,
            origin: (0.0, 0.0),
            extent_m: 0.0,
        });
    }
}
