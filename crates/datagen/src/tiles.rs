//! Tiling and serpentine LIDAR point generation.
//!
//! AHN2 is distributed as ~60k spatial tiles; the generator mirrors that by
//! cutting the scene into a `k × k` grid of [`Tile`]s, each produced in
//! **serpentine flight-line order**: the scanner sweeps east on one line,
//! west on the next, with GPS time increasing monotonically. That
//! acquisition order is what gives the X/Y columns the partial ordering
//! column imprints compress so well (§2.1.1), and shuffling it is exactly
//! the ablation of experiment E7.

use lidardb_geom::Envelope;
use lidardb_las::PointRecord;

use crate::scene::Scene;

/// One generated tile (one LAS file's worth of points).
#[derive(Debug, Clone)]
pub struct Tile {
    /// Tile name, e.g. `"tile_03_05"` (AHN2's bladnr analogue).
    pub name: String,
    /// Grid position `(col, row)`.
    pub index: (usize, usize),
    /// Covered region.
    pub envelope: Envelope,
    /// Point records in acquisition order.
    pub records: Vec<PointRecord>,
}

/// A full tiling of a scene.
#[derive(Debug, Clone)]
pub struct TileSet {
    tiles: Vec<Tile>,
}

impl TileSet {
    /// Generate `tiles_per_side²` tiles at `density` points per square
    /// metre.
    ///
    /// # Panics
    /// Panics when `tiles_per_side == 0` or `density <= 0`.
    pub fn generate(scene: &Scene, tiles_per_side: usize, density: f64) -> Self {
        assert!(tiles_per_side > 0, "need at least one tile");
        assert!(density > 0.0, "density must be positive");
        let env = *scene.envelope();
        let tw = env.width() / tiles_per_side as f64;
        let th = env.height() / tiles_per_side as f64;
        let mut tiles = Vec::with_capacity(tiles_per_side * tiles_per_side);
        let mut gps_time = 300_000.0f64; // seconds-of-week style epoch
        for row in 0..tiles_per_side {
            for col in 0..tiles_per_side {
                let te = Envelope::new(
                    env.min_x + col as f64 * tw,
                    env.min_y + row as f64 * th,
                    env.min_x + (col + 1) as f64 * tw,
                    env.min_y + (row + 1) as f64 * th,
                )
                .expect("grid cell of a valid envelope");
                let records = generate_tile_points(
                    scene,
                    &te,
                    density,
                    &mut gps_time,
                    (row * tiles_per_side + col) as u16,
                );
                tiles.push(Tile {
                    name: format!("tile_{col:02}_{row:02}"),
                    index: (col, row),
                    envelope: te,
                    records,
                });
            }
        }
        TileSet { tiles }
    }

    /// The tiles, row-major.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Total number of points across all tiles.
    pub fn num_points(&self) -> usize {
        self.tiles.iter().map(|t| t.records.len()).sum()
    }

    /// Consume into the tile vector.
    pub fn into_tiles(self) -> Vec<Tile> {
        self.tiles
    }
}

/// Generate the points of one tile in serpentine scan order.
fn generate_tile_points(
    scene: &Scene,
    te: &Envelope,
    density: f64,
    gps_time: &mut f64,
    source_id: u16,
) -> Vec<PointRecord> {
    let spacing = 1.0 / density.sqrt();
    let cols = (te.width() / spacing).floor().max(1.0) as usize;
    let rows = (te.height() / spacing).floor().max(1.0) as usize;
    let terrain = scene.terrain();
    let mut out = Vec::with_capacity(cols * rows);
    for r in 0..rows {
        let y = te.min_y + (r as f64 + 0.5) * spacing;
        for c in 0..cols {
            // Serpentine: odd rows sweep back.
            let cc = if r % 2 == 0 { c } else { cols - 1 - c };
            let jx = (terrain.event(31, cc as f64, y) - 0.5) * spacing * 0.6;
            let jy = (terrain.event(32, cc as f64, y) - 0.5) * spacing * 0.6;
            let x = te.min_x + (cc as f64 + 0.5) * spacing + jx;
            let y = y + jy;
            let smp = scene.sample_surface(x, y);
            let frac_across = (cc as f64 + 0.5) / cols as f64;
            *gps_time += 0.000_05; // 20 kHz pulse rate
            let sensor_noise = (terrain.event(33, x, y) - 0.5) * 0.06;
            let base = PointRecord {
                x,
                y,
                z: smp.z + sensor_noise,
                intensity: smp.intensity,
                return_number: 1,
                number_of_returns: smp.number_of_returns,
                scan_direction: (r % 2) as u8,
                edge_of_flight_line: u8::from(c == 0 || c + 1 == cols),
                classification: smp.classification,
                synthetic: 0,
                key_point: 0,
                withheld: 0,
                scan_angle_rank: ((frac_across - 0.5) * 60.0) as i8,
                user_data: 0,
                point_source_id: source_id,
                gps_time: *gps_time,
                red: smp.rgb.0,
                green: smp.rgb.1,
                blue: smp.rgb.2,
                wave_packet_index: 0,
                wave_offset: 0,
                wave_size: 0,
                wave_return_loc: 0.0,
                wave_xt: 0.0,
                wave_yt: 0.0,
                wave_zt: -1.0, // nadir-ish
            };
            out.push(base);
            // A multi-return pulse (vegetation) echoes through the canopy:
            // intermediate returns inside the crown, the last return from
            // the ground beneath (classified 2, like real leaf-off LIDAR).
            let n = smp.number_of_returns.max(1);
            if n > 1 {
                let ground = terrain.height(x, y);
                for ret in 2..=n {
                    let frac = f64::from(ret - 1) / f64::from(n - 1);
                    let z = smp.z + (ground - smp.z) * frac + sensor_noise * 0.5;
                    let last = ret == n;
                    out.push(PointRecord {
                        z,
                        return_number: ret,
                        classification: if last { 2 } else { smp.classification },
                        intensity: (f64::from(smp.intensity) * (1.0 - 0.35 * frac)) as u16,
                        ..base
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneConfig;
    use lidardb_test_support::area;

    fn small_scene() -> Scene {
        Scene::generate(SceneConfig {
            seed: 99,
            origin: (0.0, 0.0),
            extent_m: 400.0,
        })
    }

    #[test]
    fn tile_grid_covers_scene() {
        let s = small_scene();
        let ts = TileSet::generate(&s, 4, 0.5);
        assert_eq!(ts.tiles().len(), 16);
        // Tiles partition the envelope.
        let total_area: f64 = ts.tiles().iter().map(|t| area(&t.envelope)).sum();
        assert!((total_area - area(s.envelope())).abs() < 1e-6);
        // Every point inside its tile (with jitter margin).
        for t in ts.tiles() {
            for p in &t.records {
                assert!(
                    t.envelope
                        .buffered(2.0)
                        .contains(&lidardb_geom::Point::new(p.x, p.y)),
                    "{} contains its points",
                    t.name
                );
            }
        }
    }

    #[test]
    fn density_is_respected() {
        let s = small_scene();
        let ts = TileSet::generate(&s, 2, 2.0);
        let expected = area(s.envelope()) * 2.0;
        let got = ts
            .tiles()
            .iter()
            .flat_map(|t| t.records.iter())
            .filter(|r| r.return_number == 1)
            .count() as f64;
        assert!(
            (got / expected - 1.0).abs() < 0.1,
            "expected ~{expected} points, got {got}"
        );
    }

    #[test]
    fn gps_time_is_monotone_within_and_across_tiles() {
        let s = small_scene();
        let ts = TileSet::generate(&s, 2, 0.5);
        let mut last = 0.0;
        for t in ts.tiles() {
            for p in &t.records {
                if p.return_number == 1 {
                    assert!(p.gps_time > last, "pulse time must increase");
                    last = p.gps_time;
                } else {
                    // Echoes of one pulse share its GPS time.
                    assert_eq!(p.gps_time, last, "same-pulse returns share time");
                }
            }
        }
    }

    #[test]
    fn serpentine_order_clusters_x() {
        // In acquisition order, consecutive points are spatially close:
        // mean |dx| between consecutive points is about one spacing.
        let s = small_scene();
        let ts = TileSet::generate(&s, 1, 1.0);
        let recs = &ts.tiles()[0].records;
        let mean_dx: f64 = recs
            .windows(2)
            .map(|w| (w[1].x - w[0].x).abs())
            .sum::<f64>()
            / (recs.len() - 1) as f64;
        assert!(mean_dx < 3.0, "mean consecutive |dx| {mean_dx} too large");
    }

    #[test]
    fn attributes_are_populated() {
        let s = small_scene();
        let ts = TileSet::generate(&s, 1, 1.0);
        let recs = &ts.tiles()[0].records;
        assert!(recs.iter().any(|r| r.classification == 9), "water present");
        assert!(
            recs.iter().any(|r| r.number_of_returns > 1),
            "multi-returns"
        );
        // Multi-return pulses produce a full echo sequence: for some pulse
        // there is a return_number == number_of_returns record, and the
        // last return sits below the first (ground under canopy).
        let mut saw_sequence = false;
        for w in recs.windows(3) {
            if w[0].number_of_returns == 3
                && w[0].return_number == 1
                && w[1].return_number == 2
                && w[2].return_number == 3
            {
                assert!(w[2].z < w[0].z, "last return below canopy");
                assert_eq!(w[2].classification, 2, "last return is ground");
                assert_eq!(w[0].gps_time, w[2].gps_time, "same pulse");
                saw_sequence = true;
                break;
            }
        }
        assert!(saw_sequence, "no 3-return echo sequence found");
        assert!(recs.iter().any(|r| r.scan_angle_rank < 0));
        assert!(recs.iter().any(|r| r.scan_angle_rank > 0));
        assert!(recs.iter().any(|r| r.edge_of_flight_line == 1));
        assert!(recs.iter().all(|r| r.intensity > 0));
    }

    #[test]
    fn deterministic() {
        let s = small_scene();
        let a = TileSet::generate(&s, 2, 1.0);
        let b = TileSet::generate(&s, 2, 1.0);
        assert_eq!(a.tiles()[3].records, b.tiles()[3].records);
    }

    #[test]
    #[should_panic(expected = "density")]
    fn zero_density_rejected() {
        TileSet::generate(&small_scene(), 1, 0.0);
    }
}
