//! Property-based tests of the baseline engines' correctness guarantees.

use lidardb_baselines::{BlockStore, QuadTree};
use lidardb_geom::{Envelope, Point};
use lidardb_las::PointRecord;
use lidardb_sfc::Curve;
use proptest::prelude::*;

fn points(n: usize, seed: u64) -> Vec<(f64, f64)> {
    (0..n as u64)
        .map(|i| {
            let h = (i + 1)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (
                (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0,
                (h << 13 >> 11) as f64 / (1u64 << 53) as f64 * 100.0,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quadtree_never_misses(
        n in 1usize..800,
        seed in any::<u64>(),
        leaf_cap in 1usize..300,
        (x0, y0, x1, y1) in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0),
    ) {
        let pts = points(n, seed);
        let env = Envelope::new(0.0, 0.0, 100.0, 100.0).unwrap();
        let tree = QuadTree::build(&pts, env, leaf_cap);
        let (x0, x1) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (y0, y1) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        let window = Envelope::new(x0, y0, x1, y1).unwrap();
        let intervals = tree.query(&window);
        // Soundness: every in-window point is covered by an interval.
        for (i, &(px, py)) in pts.iter().enumerate() {
            if window.contains(&Point::new(px, py)) {
                prop_assert!(
                    intervals.iter().any(|&(s, e)| i >= s && i < e),
                    "point {i} missed"
                );
            }
        }
        // Intervals are sorted, disjoint, in range.
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0);
        }
        for &(s, e) in &intervals {
            prop_assert!(s < e && e <= n);
        }
    }

    #[test]
    fn blockstore_matches_bruteforce(
        n in 1usize..600,
        seed in any::<u64>(),
        capacity in 1usize..256,
        curve_hilbert in any::<bool>(),
        (x0, y0, x1, y1) in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0),
    ) {
        let pts = points(n, seed);
        let records: Vec<PointRecord> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| PointRecord {
                x,
                y,
                z: i as f64,
                intensity: i as u16,
                ..Default::default()
            })
            .collect();
        let curve = if curve_hilbert { Curve::Hilbert } else { Curve::Morton };
        let bs = BlockStore::build(&records, capacity, curve).unwrap();
        prop_assert_eq!(bs.num_points(), n);
        let (x0, x1) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (y0, y1) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        let window = Envelope::new(x0, y0, x1, y1).unwrap();
        let (hits, stats) = bs.query_bbox(&window).unwrap();
        // Compare as sorted multisets with the store's 1 mm quantisation
        // tolerance (exact integer keys would double-round).
        let mut got: Vec<(f64, f64)> = hits.iter().map(|r| (r.x, r.y)).collect();
        let mut expect: Vec<(f64, f64)> = pts
            .iter()
            .filter(|&&(x, y)| window.contains(&Point::new(x, y)))
            .copied()
            .collect();
        let key = |a: &(f64, f64), b: &(f64, f64)| {
            a.0.partial_cmp(&b.0).unwrap().then(a.1.partial_cmp(&b.1).unwrap())
        };
        got.sort_by(key);
        expect.sort_by(key);
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(
                (g.0 - e.0).abs() <= 0.0011 && (g.1 - e.1).abs() <= 0.0011,
                "{g:?} vs {e:?}"
            );
        }
        prop_assert!(stats.blocks_matched <= stats.blocks_total);
        prop_assert_eq!(stats.results, hits.len());
    }

    #[test]
    fn unsorted_blockstore_also_correct(
        n in 1usize..400,
        seed in any::<u64>(),
    ) {
        let pts = points(n, seed);
        let records: Vec<PointRecord> = pts
            .iter()
            .map(|&(x, y)| PointRecord { x, y, ..Default::default() })
            .collect();
        let bs = BlockStore::build_unsorted(&records, 64).unwrap();
        let window = Envelope::new(20.0, 20.0, 70.0, 70.0).unwrap();
        let (hits, _) = bs.query_bbox(&window).unwrap();
        let expect = pts
            .iter()
            .filter(|&&(x, y)| window.contains(&Point::new(x, y)))
            .count();
        prop_assert_eq!(hits.len(), expect);
    }
}
