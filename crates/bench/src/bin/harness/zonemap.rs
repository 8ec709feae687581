//! Per-block min/max zonemaps: E7's comparator.
//!
//! Zonemaps are the "other state-of-the-art" lightweight index that §2.1.1
//! of the paper says *fails on unclustered data* while imprints remain
//! robust: a zonemap can only skip a block when the whole block's value
//! range misses the query range, so a single outlier per block destroys it.
//! Experiment E7 measures exactly this contrast. The query path never uses
//! them (sealed tiles keep their own zone maps, `lidardb_storage::segment`).

use lidardb_storage::Native;

/// A min/max summary per fixed-size block of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap<T> {
    block: usize,
    len: usize,
    mins: Vec<T>,
    maxs: Vec<T>,
}

impl<T: Native> ZoneMap<T> {
    /// Build a zonemap with `block` values per zone.
    ///
    /// # Panics
    /// Panics when `block == 0`.
    pub fn build(data: &[T], block: usize) -> Self {
        assert!(block > 0, "zone block size must be positive");
        let mut mins = Vec::with_capacity(data.len().div_ceil(block));
        let mut maxs = Vec::with_capacity(mins.capacity());
        for chunk in data.chunks(block) {
            let mut lo = chunk[0];
            let mut hi = chunk[0];
            for &v in &chunk[1..] {
                if v.total_cmp(&lo).is_lt() {
                    lo = v;
                }
                if v.total_cmp(&hi).is_gt() {
                    hi = v;
                }
            }
            mins.push(lo);
            maxs.push(hi);
        }
        ZoneMap {
            block,
            len: data.len(),
            mins,
            maxs,
        }
    }

    /// Number of zones.
    pub fn num_zones(&self) -> usize {
        self.mins.len()
    }

    /// Candidate row ranges `[start, end)` whose zone may contain values in
    /// `[lo, hi]`. Adjacent candidate zones are merged into one range.
    pub fn candidate_ranges(&self, lo: T, hi: T) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for z in 0..self.num_zones() {
            // Zone overlaps [lo,hi] iff zone.min <= hi && zone.max >= lo.
            let overlaps = self.mins[z].total_cmp(&hi).is_le() && self.maxs[z].total_cmp(&lo).is_ge();
            if overlaps {
                let start = z * self.block;
                let end = ((z + 1) * self.block).min(self.len);
                match out.last_mut() {
                    Some(last) if last.1 == start => last.1 = end,
                    _ => out.push((start, end)),
                }
            }
        }
        out
    }

    /// Fraction of rows that the zonemap could *not* eliminate for the given
    /// range — the candidate rate reported in E7.
    pub fn candidate_rate(&self, lo: T, hi: T) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let kept: usize = self
            .candidate_ranges(lo, hi)
            .iter()
            .map(|&(s, e)| e - s)
            .sum();
        kept as f64 / self.len as f64
    }

    /// Index size in bytes (two values per zone).
    pub fn byte_len(&self) -> usize {
        2 * self.num_zones() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clustered_data_skips_blocks() {
        let data: Vec<i32> = (0..1000).collect();
        let zm = ZoneMap::build(&data, 100);
        assert_eq!(zm.num_zones(), 10);
        assert_eq!(zm.candidate_ranges(250, 260), vec![(200, 300)]);
        assert!(zm.candidate_rate(250, 260) < 0.11);
    }

    #[test]
    fn adjacent_zones_merge() {
        let data: Vec<i32> = (0..1000).collect();
        let zm = ZoneMap::build(&data, 100);
        assert_eq!(zm.candidate_ranges(150, 350), vec![(100, 400)]);
    }

    #[test]
    fn outliers_destroy_zonemaps() {
        // One outlier per block makes every block a candidate for any range
        // touching the outlier band — the E7 failure mode.
        let mut data: Vec<i32> = (0..1000).collect();
        for i in (0..1000).step_by(100) {
            data[i] = 0; // every block now spans down to 0
        }
        let zm = ZoneMap::build(&data, 100);
        assert_eq!(zm.candidate_rate(0, 5), 1.0);
    }

    #[test]
    fn no_candidates_outside_domain() {
        let data: Vec<u8> = vec![10, 20, 30, 40];
        let zm = ZoneMap::build(&data, 2);
        assert!(zm.candidate_ranges(50, 60).is_empty());
        assert_eq!(zm.candidate_rate(50, 60), 0.0);
    }

    #[test]
    fn last_partial_block_clamped() {
        let data: Vec<i64> = (0..105).collect();
        let zm = ZoneMap::build(&data, 50);
        assert_eq!(zm.num_zones(), 3);
        assert_eq!(zm.candidate_ranges(101, 200), vec![(100, 105)]);
    }

    #[test]
    fn candidate_never_misses_matches() {
        // Safety property: every row matching the predicate must fall inside
        // a candidate range.
        let data: Vec<i32> = (0..500).map(|i| (i * 7919) % 263).collect();
        let zm = ZoneMap::build(&data, 32);
        let (lo, hi) = (40, 90);
        let ranges = zm.candidate_ranges(lo, hi);
        for (i, &v) in data.iter().enumerate() {
            if v >= lo && v <= hi {
                assert!(
                    ranges.iter().any(|&(s, e)| i >= s && i < e),
                    "row {i} (value {v}) escaped the candidate ranges"
                );
            }
        }
    }

    #[test]
    fn byte_len() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let zm = ZoneMap::build(&data, 10);
        assert_eq!(zm.byte_len(), 2 * 10 * 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_panics() {
        ZoneMap::<i32>::build(&[1], 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn zonemap_candidates_cover_all_matches(
            data in prop::collection::vec(-500i32..500, 1..1500),
            block in 1usize..200,
            a in -600i32..600,
            b in -600i32..600,
        ) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let zm = ZoneMap::build(&data, block);
            let ranges = zm.candidate_ranges(lo, hi);
            for (i, &v) in data.iter().enumerate() {
                if v >= lo && v <= hi {
                    prop_assert!(
                        ranges.iter().any(|&(s, e)| i >= s && i < e),
                        "row {} escaped", i
                    );
                }
            }
            // Ranges are sorted, disjoint, in-bounds.
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 <= w[1].0);
            }
            for &(s, e) in &ranges {
                prop_assert!(s < e && e <= data.len());
            }
        }
    }
}
