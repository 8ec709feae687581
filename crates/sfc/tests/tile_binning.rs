//! Property tests of the quantize → SFC key → tile-binning pipeline the
//! tiled storage layer is built on.
//!
//! The load-bearing invariant: a point bins into exactly one tile, that
//! tile's zone-map bbox (min/max of its member points) always contains the
//! point, and nudging a point by an epsilon that keeps it inside its
//! lattice cell can never flip it into (or get it pruned with) the
//! neighbour tile.

use lidardb_sfc::{Curve, Quantizer, TileBinning};
use proptest::prelude::*;

const WIN: f64 = 1000.0;

/// The tile a key bins into: the last tile whose start is at most the
/// key. The reference every property below is stated against.
fn tile_of(b: &TileBinning, key: u64) -> usize {
    (0..b.len())
        .rev()
        .find(|&t| b.start(t) <= key)
        .expect("start(0) is 0")
}

/// Inclusive last key of tile `t` (`u64::MAX` for the final tile).
fn end_inclusive(b: &TileBinning, t: usize) -> u64 {
    if t + 1 < b.len() {
        b.start(t + 1) - 1
    } else {
        u64::MAX
    }
}

fn keys_of(pts: &[(f64, f64)], q: &Quantizer, curve: Curve) -> Vec<u64> {
    pts.iter()
        .map(|&(x, y)| {
            let (cx, cy) = q.cell(x, y);
            curve.encode(cx, cy)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn member_points_stay_inside_their_tiles_zone_bbox(
        pts in prop::collection::vec((-WIN..WIN, -WIN..WIN), 1..250),
        target in 1usize..48,
        bits in 3u32..11,
        hilbert in any::<bool>(),
    ) {
        let curve = if hilbert { Curve::Hilbert } else { Curve::Morton };
        let q = Quantizer::new(-WIN, -WIN, WIN, WIN, bits);
        let mut sorted = keys_of(&pts, &q, curve);
        sorted.sort_unstable();
        let b = TileBinning::from_sorted_keys(&sorted, target);

        // Per-tile zone-map bbox over member points, exactly as the
        // storage layer builds it at seal time.
        let mut bbox: Vec<Option<(f64, f64, f64, f64)>> = vec![None; b.len()];
        for &(x, y) in &pts {
            let (cx, cy) = q.cell(x, y);
            let t = tile_of(&b, curve.encode(cx, cy));
            let e = bbox[t].get_or_insert((x, y, x, y));
            e.0 = e.0.min(x);
            e.1 = e.1.min(y);
            e.2 = e.2.max(x);
            e.3 = e.3.max(y);
        }

        for &(x, y) in &pts {
            let (cx, cy) = q.cell(x, y);
            let key = curve.encode(cx, cy);
            let t = tile_of(&b, key);
            // Round-trip: the key lies inside its tile's key range.
            prop_assert!(b.start(t) <= key && key <= end_inclusive(&b, t));
            // Zone-map consistency: the tile a point binned into can never
            // be pruned by a query box that contains the point.
            let (mnx, mny, mxx, mxy) = bbox[t].unwrap();
            prop_assert!(mnx <= x && x <= mxx && mny <= y && y <= mxy);
        }
    }

    #[test]
    fn epsilon_nudges_within_a_cell_never_change_tiles(
        pts in prop::collection::vec((-WIN..WIN, -WIN..WIN), 1..200),
        target in 1usize..32,
        bits in 3u32..10,
        eps_frac in 0.0f64..1.0,
        hilbert in any::<bool>(),
    ) {
        let curve = if hilbert { Curve::Hilbert } else { Curve::Morton };
        let q = Quantizer::new(-WIN, -WIN, WIN, WIN, bits);
        let mut sorted = keys_of(&pts, &q, curve);
        sorted.sort_unstable();
        let b = TileBinning::from_sorted_keys(&sorted, target);
        // One lattice cell spans this much world distance per axis.
        let cell_w = 2.0 * WIN / (1u64 << bits) as f64;
        for &(x, y) in &pts {
            let (cx, cy) = q.cell(x, y);
            let t = tile_of(&b, curve.encode(cx, cy));
            // Nudge by strictly less than one cell, then keep the nudge
            // only if it stays in the same lattice cell — the premise of
            // "epsilon inside the tile's bbox".
            let (nx, ny) = (x + eps_frac * cell_w, y - eps_frac * cell_w);
            if q.cell(nx, ny) == (cx, cy) {
                let nt = tile_of(&b, curve.encode(cx, cy));
                prop_assert_eq!(nt, t, "same cell must bin to the same tile");
            }
        }
    }

    #[test]
    fn tile_boundaries_round_trip_through_world_coordinates(
        pts in prop::collection::vec((-WIN..WIN, -WIN..WIN), 2..200),
        target in 1usize..32,
        bits in 3u32..10,
        hilbert in any::<bool>(),
    ) {
        let curve = if hilbert { Curve::Hilbert } else { Curve::Morton };
        let q = Quantizer::new(-WIN, -WIN, WIN, WIN, bits);
        let mut sorted = keys_of(&pts, &q, curve);
        sorted.sort_unstable();
        let b = TileBinning::from_sorted_keys(&sorted, target);
        let cell_w = 2.0 * WIN / (1u64 << bits) as f64;
        for t in 0..b.len() {
            // A boundary key, decoded to its lattice cell, re-quantised
            // from the cell's world-space centre, must come back as the
            // same key — i.e. bin into tile t, not a neighbour.
            for key in [b.start(t), end_inclusive(&b, t).min(b.start(t))] {
                let (cx, cy) = curve.decode(key);
                if u64::from(cx.max(cy)) >= 1u64 << bits {
                    continue; // key beyond the lattice (open-ended last tile)
                }
                let wx = -WIN + (cx as f64 + 0.5) * cell_w;
                let wy = -WIN + (cy as f64 + 0.5) * cell_w;
                let (rcx, rcy) = q.cell(wx, wy);
                prop_assert_eq!((rcx, rcy), (cx, cy), "cell centre re-quantises");
                prop_assert_eq!(tile_of(&b, curve.encode(rcx, rcy)), t);
            }
            // The key just below a tile's start belongs to the previous
            // tile — the boundary is exact, not fuzzy.
            if t > 0 {
                prop_assert_eq!(tile_of(&b, b.start(t) - 1), t - 1);
            }
        }
    }
}
