//! Property-based tests of the imprints invariants.
//!
//! The two guarantees the query engine relies on (see crate docs):
//! 1. no false negatives — every matching row is in the candidate list;
//! 2. sound all-qualify flags — a `sure` run holds only matching rows.

use lidardb_imprints::{CandidateList, ColumnImprints, Imprints};
use lidardb_storage::Column;
use proptest::prelude::*;

/// Whether `row` is inside some run of `list`.
fn covers(list: &CandidateList, row: usize) -> bool {
    list.ranges().iter().any(|r| r.start <= row && row < r.end)
}

fn check_sound_i64(data: &[i64], lo: i64, hi: i64) {
    let imp = Imprints::build(data);
    let cand = imp.probe(lo, hi);
    for (row, &v) in data.iter().enumerate() {
        if v >= lo && v <= hi {
            assert!(covers(&cand, row), "false negative at row {row} (v={v})");
        }
    }
    for r in cand.ranges() {
        if r.all_qualify {
            for (off, &v) in data[r.start..r.end].iter().enumerate() {
                assert!(
                    v >= lo && v <= hi,
                    "unsound sure flag at row {} (v={v})",
                    r.start + off
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_false_negatives_random_i64(
        data in prop::collection::vec(-1000i64..1000, 0..600),
        a in -1100i64..1100,
        b in -1100i64..1100,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        check_sound_i64(&data, lo, hi);
    }

    #[test]
    fn no_false_negatives_clustered_i64(
        start in -1000i64..1000,
        step in 0i64..4,
        len in 0usize..600,
        a in -1100i64..3000,
        b in -1100i64..3000,
    ) {
        let data: Vec<i64> = (0..len as i64).map(|i| start + i * step / 3).collect();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        check_sound_i64(&data, lo, hi);
    }

    #[test]
    fn no_false_negatives_f64(
        data in prop::collection::vec(-1e6f64..1e6, 0..500),
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let imp = Imprints::build(&data);
        let cand = imp.probe(lo, hi);
        for (row, &v) in data.iter().enumerate() {
            if v >= lo && v <= hi {
                prop_assert!(covers(&cand, row));
            }
        }
        for r in cand.ranges() {
            if r.all_qualify {
                for &v in &data[r.start..r.end] {
                    prop_assert!(v >= lo && v <= hi);
                }
            }
        }
    }

    #[test]
    fn erased_probe_matches_typed_probe(
        data in prop::collection::vec(0u16..500, 1..400),
        a in 0.0f64..600.0,
        b in 0.0f64..600.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let col: Column = data.iter().copied().collect();
        let erased = ColumnImprints::build(&col).unwrap();
        let cand = erased.probe_f64(lo, hi);
        for (row, &v) in data.iter().enumerate() {
            if (v as f64) >= lo && (v as f64) <= hi {
                prop_assert!(covers(&cand, row), "row {row} v={v} range [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn intersection_soundness(
        xs in prop::collection::vec(0i64..100, 64..256),
        ys in prop::collection::vec(0i64..100, 64..256),
        xl in 0i64..100, xh in 0i64..100,
        yl in 0i64..100, yh in 0i64..100,
    ) {
        // Model the spatial AND: rows matching BOTH predicates must survive
        // the Y probe restricted to the X candidates.
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let (xl, xh) = if xl <= xh { (xl, xh) } else { (xh, xl) };
        let (yl, yh) = if yl <= yh { (yl, yh) } else { (yh, yl) };
        let ix = Imprints::build(xs);
        let iy = Imprints::build(ys);
        let cand: CandidateList = iy.probe_within(yl, yh, &ix.probe(xl, xh));
        for row in 0..n {
            let m = xs[row] >= xl && xs[row] <= xh && ys[row] >= yl && ys[row] <= yh;
            if m {
                prop_assert!(covers(&cand, row), "row {row} escaped the AND");
            }
        }
        for r in cand.ranges() {
            if r.all_qualify {
                for row in r.start..r.end {
                    prop_assert!(xs[row] >= xl && xs[row] <= xh);
                    prop_assert!(ys[row] >= yl && ys[row] <= yh);
                }
            }
        }
    }
}
