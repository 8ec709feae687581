//! Candidate lists — the result of probing an imprint.
//!
//! The filtering step of the two-step query model (§3.3) produces "a
//! superset of the solution": maximal runs of rows whose cachelines may hold
//! qualifying values. Ranges where the imprint proves that *every* value
//! qualifies carry the `all_qualify` flag, which lets the executor emit the
//! whole run without reading the data at all.

/// One maximal candidate run of rows, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateRange {
    /// First candidate row.
    pub start: usize,
    /// One past the last candidate row.
    pub end: usize,
    /// Whether the imprint guarantees every row in the run qualifies.
    pub all_qualify: bool,
}

impl CandidateRange {
    /// Number of rows in the run.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// An ordered, non-overlapping list of candidate runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateList {
    ranges: Vec<CandidateRange>,
}

impl CandidateList {
    /// An empty list (no cacheline can match).
    pub fn empty() -> Self {
        CandidateList::default()
    }

    /// Append a run, merging with the previous one when contiguous and of
    /// equal `all_qualify` status.
    pub fn push(&mut self, start: usize, end: usize, all_qualify: bool) {
        if start >= end {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            debug_assert!(last.end <= start, "ranges must be pushed in order");
            if last.end == start && last.all_qualify == all_qualify {
                last.end = end;
                return;
            }
        }
        self.ranges.push(CandidateRange {
            start,
            end,
            all_qualify,
        });
    }

    /// The runs in increasing row order.
    pub fn ranges(&self) -> &[CandidateRange] {
        &self.ranges
    }

    /// Total number of candidate rows.
    pub fn num_rows(&self) -> usize {
        self.ranges.iter().map(CandidateRange::len).sum()
    }

    /// Number of rows in `all_qualify` runs.
    pub fn num_sure_rows(&self) -> usize {
        self.ranges
            .iter()
            .filter(|r| r.all_qualify)
            .map(CandidateRange::len)
            .sum()
    }

    /// Whether no rows are candidates.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether `row` is inside some candidate run.
    pub fn contains(&self, row: usize) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if row < r.start {
                    std::cmp::Ordering::Greater
                } else if row >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Partition the list into morsels of at most `max_rows` candidate rows
    /// each, preserving row order and `all_qualify` flags.
    ///
    /// This is the work-division primitive of the morsel-driven parallel
    /// executor: runs larger than `max_rows` are split mid-range, so morsel
    /// sizes stay balanced regardless of how clustered the candidates are.
    /// Concatenating the returned lists in order yields exactly the original
    /// candidate rows.
    pub fn split_rows(&self, max_rows: usize) -> Vec<CandidateList> {
        let max_rows = max_rows.max(1);
        let mut out = Vec::new();
        let mut cur = CandidateList::empty();
        let mut budget = max_rows;
        for r in &self.ranges {
            let mut start = r.start;
            while start < r.end {
                let take = budget.min(r.end - start);
                cur.push(start, start + take, r.all_qualify);
                start += take;
                budget -= take;
                if budget == 0 {
                    out.push(std::mem::take(&mut cur));
                    budget = max_rows;
                }
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    /// Drop every candidate row at or beyond `max_row`.
    ///
    /// This is the snapshot-isolation clamp: a query captures a visibility
    /// watermark once, and rows appended past it must not surface even
    /// when an (incrementally refreshed) imprint already covers them.
    pub fn clamp(&mut self, max_row: usize) {
        while let Some(last) = self.ranges.last_mut() {
            if last.start >= max_row {
                self.ranges.pop();
            } else {
                last.end = last.end.min(max_row);
                break;
            }
        }
    }

    /// Intersect two candidate lists (used to AND the X- and Y-imprint
    /// results in the spatial filter). A row qualifies-for-sure only when
    /// both sides say so.
    pub fn intersect(&self, other: &CandidateList) -> CandidateList {
        let mut out = CandidateList::empty();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = self.ranges[i];
            let b = other.ranges[j];
            let start = a.start.max(b.start);
            let end = a.end.min(b.end);
            if start < end {
                out.push(start, end, a.all_qualify && b.all_qualify);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_compatible_runs() {
        let mut c = CandidateList::empty();
        c.push(0, 8, false);
        c.push(8, 16, false);
        c.push(16, 24, true); // different flag: no merge
        c.push(32, 40, true); // gap: no merge
        assert_eq!(c.ranges().len(), 3);
        assert_eq!(c.num_rows(), 32);
        assert_eq!(c.num_sure_rows(), 16);
    }

    #[test]
    fn empty_push_ignored() {
        let mut c = CandidateList::empty();
        c.push(5, 5, true);
        assert!(c.is_empty());
        assert_eq!(c.num_rows(), 0);
    }

    #[test]
    fn contains_uses_binary_search() {
        let mut c = CandidateList::empty();
        c.push(10, 20, false);
        c.push(30, 31, true);
        assert!(!c.contains(9));
        assert!(c.contains(10));
        assert!(c.contains(19));
        assert!(!c.contains(20));
        assert!(c.contains(30));
        assert!(!c.contains(31));
    }

    #[test]
    fn intersect_basic() {
        let mut a = CandidateList::empty();
        a.push(0, 10, true);
        a.push(20, 30, false);
        let mut b = CandidateList::empty();
        b.push(5, 25, true);
        let c = a.intersect(&b);
        assert_eq!(
            c.ranges(),
            &[
                CandidateRange {
                    start: 5,
                    end: 10,
                    all_qualify: true
                },
                CandidateRange {
                    start: 20,
                    end: 25,
                    all_qualify: false
                }
            ]
        );
    }

    #[test]
    fn intersect_with_empty_is_empty() {
        let mut a = CandidateList::empty();
        a.push(0, 100, true);
        assert!(a.intersect(&CandidateList::empty()).is_empty());
        assert!(CandidateList::empty().intersect(&a).is_empty());
    }

    #[test]
    fn intersect_is_commutative() {
        let mut a = CandidateList::empty();
        a.push(0, 4, false);
        a.push(6, 12, true);
        a.push(14, 20, false);
        let mut b = CandidateList::empty();
        b.push(2, 8, true);
        b.push(10, 16, true);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.num_rows(), 2 + 2 + 2 + 2);
    }

    #[test]
    fn split_rows_preserves_rows_and_flags() {
        let mut c = CandidateList::empty();
        c.push(0, 100, false);
        c.push(100, 130, true);
        c.push(200, 205, false);
        for max in [1usize, 7, 32, 64, 1000] {
            let morsels = c.split_rows(max);
            // Every morsel respects the budget.
            assert!(morsels.iter().all(|m| m.num_rows() <= max), "max={max}");
            // Concatenating the morsels reproduces the original list exactly
            // (runs may be split, so compare per-row flags).
            let flat: Vec<(usize, bool)> = morsels
                .iter()
                .flat_map(|m| m.ranges())
                .flat_map(|r| (r.start..r.end).map(|row| (row, r.all_qualify)))
                .collect();
            let orig: Vec<(usize, bool)> = c
                .ranges()
                .iter()
                .flat_map(|r| (r.start..r.end).map(|row| (row, r.all_qualify)))
                .collect();
            assert_eq!(flat, orig, "max={max}");
        }
    }

    #[test]
    fn split_rows_balances_one_huge_run() {
        let mut c = CandidateList::empty();
        c.push(0, 10_000, true);
        let morsels = c.split_rows(1024);
        assert_eq!(morsels.len(), 10); // ceil(10000 / 1024)
        assert!(morsels[..9].iter().all(|m| m.num_rows() == 1024));
        assert_eq!(morsels[9].num_rows(), 10_000 - 9 * 1024);
        assert!(morsels.iter().all(|m| m.num_sure_rows() == m.num_rows()));
    }

    #[test]
    fn split_rows_of_empty_is_empty() {
        assert!(CandidateList::empty().split_rows(8).is_empty());
    }

    /// Replays the executor's split math on the degenerate shapes the
    /// morsel planner can hand it: fewer candidate rows than workers,
    /// zero-width runs interleaved with real ones, a single run larger
    /// than every budget, and long strings of 1-row runs. Every morsel
    /// must be non-empty and the concatenation byte-identical.
    #[test]
    fn split_rows_degenerate_inputs_yield_no_empty_morsels() {
        let fewer_than_workers = {
            let mut c = CandidateList::empty();
            c.push(10, 13, false); // 3 rows, split for up to 8 workers
            c
        };
        let zero_width_runs = {
            let mut c = CandidateList::empty();
            c.push(0, 0, true); // dropped by push
            c.push(5, 8, false);
            c.push(8, 8, true); // dropped by push
            c.push(9, 9, false); // dropped by push
            c.push(12, 20, true);
            c
        };
        let one_huge_run = {
            let mut c = CandidateList::empty();
            c.push(0, 100_000, false);
            c
        };
        let many_one_row_runs = {
            let mut c = CandidateList::empty();
            for i in 0..500 {
                c.push(i * 2, i * 2 + 1, i % 3 == 0);
            }
            c
        };
        for (label, c) in [
            ("fewer_than_workers", fewer_than_workers),
            ("zero_width_runs", zero_width_runs),
            ("one_huge_run", one_huge_run),
            ("many_one_row_runs", many_one_row_runs),
        ] {
            let orig: Vec<(usize, bool)> = c
                .ranges()
                .iter()
                .flat_map(|r| (r.start..r.end).map(|row| (row, r.all_qualify)))
                .collect();
            for workers in [2usize, 4, 8] {
                // The executor's per-worker budget, floored at 1 like
                // `split_rows` itself does.
                let max = (c.num_rows() / (workers * 4)).max(1);
                let morsels = c.split_rows(max);
                assert!(
                    morsels.iter().all(|m| !m.is_empty() && m.num_rows() > 0),
                    "{label} at {workers} workers produced an empty morsel"
                );
                assert!(
                    morsels.iter().all(|m| m.num_rows() <= max),
                    "{label} at {workers} workers overflowed the budget"
                );
                let flat: Vec<(usize, bool)> = morsels
                    .iter()
                    .flat_map(|m| m.ranges())
                    .flat_map(|r| (r.start..r.end).map(|row| (row, r.all_qualify)))
                    .collect();
                assert_eq!(flat, orig, "{label} at {workers} workers lost or reordered rows");
            }
        }
    }

    fn bounds(c: &CandidateList) -> Vec<(usize, usize)> {
        c.ranges().iter().map(|r| (r.start, r.end)).collect()
    }

    #[test]
    fn clamp_cuts_ranges_at_the_watermark() {
        let mut c = CandidateList::empty();
        c.push(0, 10, true);
        c.push(20, 30, false);
        c.push(40, 50, true);
        let mut mid = c.clone();
        mid.clamp(25);
        assert_eq!(bounds(&mid), vec![(0, 10), (20, 25)]);
        assert_eq!(mid.num_sure_rows(), 10, "flags survive the clamp");
        let mut all = c.clone();
        all.clamp(100);
        assert_eq!(all, c, "clamp beyond the end is a no-op");
        let mut none = c.clone();
        none.clamp(0);
        assert!(none.is_empty());
        let mut edge = c.clone();
        edge.clamp(40);
        assert_eq!(bounds(&edge), vec![(0, 10), (20, 30)]);
        let mut empty = CandidateList::empty();
        empty.clamp(10);
        assert!(empty.is_empty());
    }
}
