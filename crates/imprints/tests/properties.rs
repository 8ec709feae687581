//! Property-based tests of the imprints invariants.
//!
//! The two guarantees the query engine relies on (see crate docs):
//! 1. no false negatives — every matching row is in the candidate list;
//! 2. sound all-qualify flags — a `sure` run holds only matching rows.

use lidardb_imprints::{BinMap, CandidateList, ColumnImprints, Imprints};
use lidardb_storage::Column;
use proptest::prelude::*;

/// Segments of `(value, length, noisy)`: a constant segment gives repeat
/// runs, a noisy one long stretches of distinct vectors.
fn segment_data(segments: &[(i64, usize, bool)]) -> Vec<i64> {
    segments
        .iter()
        .flat_map(|&(v, n, noisy)| {
            (0..n as i64).map(move |k| if noisy { v + k * 7 % 13 } else { v })
        })
        .collect()
}

/// Sorted, disjoint runs from `(gap, length, flag)` triples.
fn restricting_list(runs: &[(usize, usize, bool)]) -> CandidateList {
    let mut list = CandidateList::empty();
    let mut at = 0;
    for &(gap, len, flag) in runs {
        list.push(at + gap, at + gap + len, flag);
        at += gap + len;
    }
    list
}

/// The probe as a walk of every line's vector, without the dictionary or
/// the summary level: the reference the summary-skipping walks must equal.
fn full_walk(imp: &Imprints<i64>, lo: i64, hi: i64) -> CandidateList {
    let mut out = CandidateList::empty();
    if lo > hi {
        return out;
    }
    let (mask, inner) = imp.bins().range_masks(lo, hi);
    let vpl = imp.values_per_line();
    for (line, d) in imp.expand_vectors().into_iter().enumerate() {
        if d & mask != 0 {
            out.push(
                line * vpl,
                ((line + 1) * vpl).min(imp.len()),
                d & !inner == 0,
            );
        }
    }
    out
}

fn check_probes_equal_full_walk(
    imp: &Imprints<i64>,
    lo: i64,
    hi: i64,
    within: &CandidateList,
) -> Result<(), TestCaseError> {
    let reference = full_walk(imp, lo, hi);
    let probed = imp.probe(lo, hi);
    prop_assert_eq!(&probed, &reference);
    prop_assert!(imp.estimate(lo, hi) >= probed.num_rows());
    prop_assert_eq!(
        imp.probe_within(lo, hi, within),
        reference.intersect(within)
    );
    Ok(())
}

fn check_sound_i64(data: &[i64], lo: i64, hi: i64) {
    let imp = Imprints::build(data);
    let cand = imp.probe(lo, hi);
    for (row, &v) in data.iter().enumerate() {
        if v >= lo && v <= hi {
            assert!(cand.contains(row), "false negative at row {row} (v={v})");
        }
    }
    for r in cand.ranges() {
        if r.all_qualify {
            for (off, &v) in data[r.start..r.end].iter().enumerate() {
                assert!(v >= lo && v <= hi, "unsound sure flag at row {} (v={v})", r.start + off);
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
                prop_assert!(cand.contains(row));
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
                prop_assert!(cand.contains(row), "row {row} v={v} range [{lo},{hi}]");
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
        // the intersection of the two candidate lists.
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let (xl, xh) = if xl <= xh { (xl, xh) } else { (xh, xl) };
        let (yl, yh) = if yl <= yh { (yl, yh) } else { (yh, yl) };
        let ix = Imprints::build(xs);
        let iy = Imprints::build(ys);
        let cand: CandidateList = ix.probe(xl, xh).intersect(&iy.probe(yl, yh));
        for row in 0..n {
            let m = xs[row] >= xl && xs[row] <= xh && ys[row] >= yl && ys[row] <= yh;
            if m {
                prop_assert!(cand.contains(row), "row {row} escaped the AND");
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

    #[test]
    fn bin_of_respects_borders(
        mut borders in prop::collection::btree_set(-1000i64..1000, 1..63),
        v in -1100i64..1100,
    ) {
        let borders: Vec<i64> = std::mem::take(&mut borders).into_iter().collect();
        let m = BinMap::from_borders(borders.clone());
        let bin = m.bin_of(v) as usize;
        // bin counts the borders <= v.
        let expect = borders.iter().filter(|&&b| b <= v).count();
        prop_assert_eq!(bin, expect);
    }

    #[test]
    fn summary_skipping_probes_equal_full_walk(
        segments in prop::collection::vec((0i64..40, 1usize..80, prop::bool::ANY), 0..150),
        borders in prop::collection::btree_set(0i64..45, 1..12),
        a in -2i64..47,
        b in -2i64..47,
        runs in prop::collection::vec((0usize..300, 1usize..300, prop::bool::ANY), 0..30),
    ) {
        let data = segment_data(&segments);
        let bins = BinMap::from_borders(borders.into_iter().collect());
        let imp = Imprints::build_with_bins(&data, bins);
        check_probes_equal_full_walk(&imp, a, b, &restricting_list(&runs))?;
    }

    #[test]
    fn summary_skipping_probes_equal_full_walk_after_appends(
        segments in prop::collection::vec((0i64..40, 1usize..80, prop::bool::ANY), 0..150),
        borders in prop::collection::btree_set(0i64..45, 1..12),
        split in 0usize..4000,
        batches in prop::collection::vec(1usize..50, 1..8),
        a in -2i64..47,
        b in -2i64..47,
        runs in prop::collection::vec((0usize..300, 1usize..300, prop::bool::ANY), 0..30),
    ) {
        let data = segment_data(&segments);
        let bins = BinMap::from_borders(borders.into_iter().collect());
        let split = split.min(data.len());
        let mut imp = Imprints::build_with_bins(&data[..split], bins.clone());
        // Batches of 1..50 values land mid-line, so partial last lines get
        // popped and re-pushed, splitting and merging repeat runs.
        let mut at = split;
        for &n in batches.iter().cycle() {
            if at == data.len() {
                break;
            }
            let end = (at + n).min(data.len());
            imp.append(&data[at..end]);
            at = end;
        }
        prop_assert_eq!(&imp, &Imprints::build_with_bins(&data, bins));
        check_probes_equal_full_walk(&imp, a, b, &restricting_list(&runs))?;
    }

    #[test]
    fn compression_roundtrip_vector_count(
        data in prop::collection::vec(0i64..50, 0..2000),
    ) {
        let imp = Imprints::build(&data);
        let expanded = imp.expand_vectors();
        prop_assert_eq!(expanded.len(), imp.num_lines());
        prop_assert!(imp.num_vectors() <= imp.num_lines());
    }
}
