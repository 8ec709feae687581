//! The imprint vector array and its cacheline dictionary.
//!
//! One 64-bit vector summarises one 64-byte cacheline of column values.
//! Consecutive identical vectors — extremely common on acquisition-ordered
//! LIDAR data, where a flight line sweeps slowly through X/Y — are collapsed
//! by the SIGMOD'13 *cacheline dictionary*: a sequence of `(count, repeat)`
//! entries where `repeat = 1` means "the next `count` cachelines all share
//! the single following vector" and `repeat = 0` means "`count` individual
//! vectors follow".
//!
//! A *summary level* sits beside the dictionary: one entry per group of
//! [`GROUP`] consecutive dictionary entries, holding the OR of the group's
//! vectors and the line and vector index where the group starts. A probe
//! decodes only the groups whose OR meets its mask — and, when restricted
//! to an earlier probe's candidates, only the groups whose rows those
//! candidates reach — so its cost follows the viewport, not the table.

use std::ops::Range;

use lidardb_storage::Native;

use crate::bins::{BinKeys, BinMap};
use crate::candidates::{CandidateList, CandidateRange};

/// A packed cacheline-dictionary entry: 31-bit counter + 1 repeat bit, the
/// 4-byte layout of the original implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DictEntry(u32);

const COUNT_MAX: u32 = (1 << 31) - 1;

/// Dictionary entries per summary group.
const GROUP: usize = 64;

/// Most vectors one non-repeat dictionary entry holds. It bounds a summary
/// group at `GROUP * LITERAL_MAX` vectors, so re-OR-ing a group that a
/// split moved a vector out of stays cheap however long a stretch of
/// distinct vectors runs — even when small appends re-split the same
/// trailing line over and over.
const LITERAL_MAX: u32 = 64;

/// One summary entry: the OR of the vectors of [`GROUP`] consecutive
/// dictionary entries, and the line and vector index where they start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Group {
    or: u64,
    line: usize,
    vi: usize,
}

impl DictEntry {
    #[inline]
    fn new(count: u32, repeat: bool) -> Self {
        debug_assert!(count <= COUNT_MAX);
        DictEntry(count | (u32::from(repeat) << 31))
    }
    #[inline]
    pub(crate) fn count(self) -> u32 {
        self.0 & COUNT_MAX
    }
    #[inline]
    pub(crate) fn repeat(self) -> bool {
        self.0 >> 31 == 1
    }
}

/// A column imprints index over values of type `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Imprints<T> {
    bins: BinMap<T>,
    dict: Vec<DictEntry>,
    vectors: Vec<u64>,
    /// Group `g` covers `dict[g * GROUP..(g + 1) * GROUP]`.
    summary: Vec<Group>,
    values_per_line: usize,
    len: usize,
}

impl<T: Native> Imprints<T> {
    /// Build an imprint index over `data` with sampled bin borders.
    pub fn build(data: &[T]) -> Self {
        Self::build_with_bins(data, BinMap::from_data(data))
    }

    /// Build with an explicit bin layout (E7 ablations, tests).
    pub fn build_with_bins(data: &[T], bins: BinMap<T>) -> Self {
        let values_per_line = T::PHYS.values_per_cacheline();
        let mut imp = Imprints {
            bins,
            dict: Vec::new(),
            vectors: Vec::new(),
            summary: Vec::new(),
            values_per_line,
            len: 0,
        };
        let keys = imp.bins.keys();
        for (line, values) in data.chunks(values_per_line).enumerate() {
            imp.push_line(line, line_vector(&keys, values));
        }
        imp.len = data.len();
        imp
    }

    /// Feed the vector `d` of line number `line` through the
    /// cacheline-dictionary state machine and keep the summary level in
    /// step (shared by [`Self::build_with_bins`] and [`Self::append`]).
    fn push_line(&mut self, line: usize, d: u64) {
        match (self.vectors.last().copied(), self.dict.last_mut()) {
            (Some(prev), Some(last)) if prev == d && last.count() < COUNT_MAX => {
                if last.repeat() {
                    *last = DictEntry::new(last.count() + 1, true);
                } else if last.count() == 1 {
                    *last = DictEntry::new(2, true);
                } else {
                    // Split the trailing vector of the non-repeat run
                    // into a fresh repeat entry of length 2.
                    *last = DictEntry::new(last.count() - 1, false);
                    self.dict.push(DictEntry::new(2, true));
                }
            }
            _ => {
                self.vectors.push(d);
                match self.dict.last_mut() {
                    Some(last) if !last.repeat() && last.count() < LITERAL_MAX => {
                        *last = DictEntry::new(last.count() + 1, false);
                    }
                    _ => self.dict.push(DictEntry::new(1, false)),
                }
            }
        }
        if self.dict.len() > self.summary.len() * GROUP {
            // The new last entry opens a group.
            let first = self.dict[self.dict.len() - 1];
            let vi = self.vectors.len() - 1;
            if first.repeat() {
                // Only a split pushes a repeat entry: it moved its vector
                // (and the previous line) out of the group before, whose
                // OR is recomputed without it.
                let prev = self.summary.last_mut().expect("a split follows an entry");
                prev.or = self.vectors[prev.vi..vi].iter().fold(0, |acc, &v| acc | v);
            }
            self.summary.push(Group {
                or: 0,
                line: line + 1 - first.count() as usize,
                vi,
            });
        }
        self.summary.last_mut().expect("a line was pushed").or |= d;
    }

    /// Remove the trailing line from the dictionary/vector tail and return
    /// its vector, so [`Self::append`] can extend a partial last cacheline.
    /// The exact inverse of [`Self::push_line`] for the dictionary and the
    /// vectors. The trailing group's OR may keep the bits of a popped
    /// vector until the next push ORs in a superset of it — which
    /// [`Self::append`] always does, so appending yields the summary a full
    /// rebuild would.
    fn pop_last_line(&mut self) -> u64 {
        let n = self.dict.len();
        let last = *self.dict.last().expect("pop_last_line on empty index");
        let d = if last.repeat() {
            // A repeat run stores a single vector for all its lines; the
            // vector stays because the shortened run (or the non-repeat
            // run it was split from) still uses it.
            if last.count() > 2 {
                self.dict[n - 1] = DictEntry::new(last.count() - 1, true);
            } else if n >= 2 && !self.dict[n - 2].repeat() && self.dict[n - 2].count() < LITERAL_MAX
            {
                // Only a split leaves a repeat run after a non-full
                // non-repeat run: undo it.
                self.dict[n - 2] = DictEntry::new(self.dict[n - 2].count() + 1, false);
                self.dict.pop();
            } else {
                self.dict[n - 1] = DictEntry::new(1, false);
            }
            *self.vectors.last().expect("repeat entry has a vector")
        } else {
            if last.count() > 1 {
                self.dict[n - 1] = DictEntry::new(last.count() - 1, false);
            } else {
                self.dict.pop();
            }
            self.vectors.pop().expect("non-repeat entry has vectors")
        };
        if self.dict.len() <= (self.summary.len() - 1) * GROUP {
            self.summary.pop();
        }
        if last.repeat() {
            // The vector stays stored; undoing a split may have moved it
            // back into the group before.
            self.summary.last_mut().expect("its entry remains").or |= d;
        }
        d
    }

    /// Extend the index with `added` values appended after the indexed
    /// prefix, without rebuilding: the trailing (possibly partial)
    /// cacheline vector is popped, OR-extended with the new values that
    /// land in it, and re-fed through the dictionary state machine, then
    /// whole new lines follow.
    ///
    /// The bin borders stay fixed. That is sound — the edge bins are
    /// open-ended, so appended values outside the sampled domain still map
    /// to a bin and probes keep producing supersets — but selectivity can
    /// degrade if the appended distribution drifts far from the sample;
    /// callers may rebuild when that matters.
    pub fn append(&mut self, added: &[T]) {
        if added.is_empty() {
            return;
        }
        let keys = self.bins.keys();
        let vpl = self.values_per_line;
        let fill = self.len % vpl;
        let mut line = self.len / vpl;
        let mut rest = added;
        if fill != 0 {
            // New values falling into the trailing partial cacheline OR
            // their bin bits into its existing vector (OR is monotonic, so
            // the old tail values need not be re-read).
            let take = (vpl - fill).min(added.len());
            let d = self.pop_last_line() | line_vector(&keys, &added[..take]);
            self.push_line(line, d);
            line += 1;
            rest = &added[take..];
        }
        for values in rest.chunks(vpl) {
            self.push_line(line, line_vector(&keys, values));
            line += 1;
        }
        self.len += added.len();
    }

    /// The bin layout.
    pub fn bins(&self) -> &BinMap<T> {
        &self.bins
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index covers no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of values summarised per imprint vector.
    pub fn values_per_line(&self) -> usize {
        self.values_per_line
    }

    /// Number of cachelines covered.
    pub fn num_lines(&self) -> usize {
        self.len.div_ceil(self.values_per_line)
    }

    /// Number of stored (compressed) imprint vectors.
    pub fn num_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Number of cacheline-dictionary entries.
    pub fn num_dict_entries(&self) -> usize {
        self.dict.len()
    }

    /// Index size in bytes: vectors + packed dictionary + summary level +
    /// borders.
    pub fn byte_size(&self) -> usize {
        self.vectors.len() * 8
            + self.dict.len() * 4
            + self.summary.len() * std::mem::size_of::<Group>()
            + self.bins.borders().len() * T::PHYS.size()
    }

    /// Probe the index with the inclusive range `[lo, hi]`.
    ///
    /// Returns maximal candidate row runs; see [`CandidateList`].
    pub fn probe(&self, lo: T, hi: T) -> CandidateList {
        match self.masks(lo, hi) {
            Some((mask, inner)) => self.probe_masks(mask, inner),
            None => CandidateList::empty(),
        }
    }

    /// Probe with precomputed `(mask, innermask)` bit masks.
    pub fn probe_masks(&self, mask: u64, inner: u64) -> CandidateList {
        let all = CandidateRange {
            start: 0,
            end: self.len,
            all_qualify: true,
        };
        self.walk(mask, inner, &[all])
    }

    /// Probe `[lo, hi]` restricted to the rows of `within`: exactly
    /// `self.probe(lo, hi).intersect(within)`, flags ANDed, but groups whose
    /// rows `within` does not reach are never decoded.
    pub fn probe_within(&self, lo: T, hi: T, within: &CandidateList) -> CandidateList {
        match self.masks(lo, hi) {
            Some((mask, inner)) => self.walk(mask, inner, within.ranges()),
            None => CandidateList::empty(),
        }
    }

    /// Candidate rows a walk of the summary level alone reports for
    /// `[lo, hi]`: an upper bound on [`Self::probe`]'s row count at the
    /// cost of one OR test per group, to order probes cheapest first.
    pub fn estimate(&self, lo: T, hi: T) -> usize {
        let Some((mask, _)) = self.masks(lo, hi) else {
            return 0;
        };
        (0..self.summary.len())
            .filter(|&g| self.summary[g].or & mask != 0)
            .map(|g| self.group_rows(g).len())
            .sum()
    }

    /// The `(mask, innermask)` of `[lo, hi]`; `None` for an inverted range.
    fn masks(&self, lo: T, hi: T) -> Option<(u64, u64)> {
        lo.total_cmp(&hi)
            .is_le()
            .then(|| self.bins.range_masks(lo, hi))
    }

    /// Rows covered by summary group `g`.
    fn group_rows(&self, g: usize) -> Range<usize> {
        let vpl = self.values_per_line;
        let end = self.summary.get(g + 1).map_or(self.len, |n| n.line * vpl);
        self.summary[g].line * vpl..end
    }

    /// The one probe walk: decode the groups whose OR meets `mask` and
    /// whose rows `within` reaches, and push every line run whose vector
    /// meets `mask`, intersected with `within` (sorted, disjoint).
    fn walk(&self, mask: u64, inner: u64, within: &[CandidateRange]) -> CandidateList {
        let mut out = CandidateList::empty();
        let mut j = 0usize;
        for (g, group) in self.summary.iter().enumerate() {
            let rows = self.group_rows(g);
            while j < within.len() && within[j].end <= rows.start {
                j += 1;
            }
            if j == within.len() {
                break;
            }
            if group.or & mask == 0 || within[j].start >= rows.end {
                continue;
            }
            let (mut line, mut vi) = (group.line, group.vi);
            let entries = &self.dict[g * GROUP..((g + 1) * GROUP).min(self.dict.len())];
            for &e in entries {
                let count = e.count() as usize;
                if e.repeat() {
                    let d = self.vectors[vi];
                    if d & mask != 0 {
                        let all = d & !inner == 0;
                        self.push_within(&mut out, within, &mut j, line..line + count, all);
                    }
                    vi += 1;
                } else {
                    // Consecutive hit lines of one flag go out as one run.
                    let vs = &self.vectors[vi..vi + count];
                    let mut k = 0;
                    while k < count {
                        if vs[k] & mask == 0 {
                            k += 1;
                            continue;
                        }
                        let all = vs[k] & !inner == 0;
                        let mut e = k + 1;
                        while e < count && vs[e] & mask != 0 && (vs[e] & !inner == 0) == all {
                            e += 1;
                        }
                        self.push_within(&mut out, within, &mut j, line + k..line + e, all);
                        k = e;
                    }
                    vi += count;
                }
                line += count;
            }
        }
        out
    }

    /// Push the rows of `lines` that lie inside `within[*j..]`, each part
    /// flagged `all` ANDed with its range's flag.
    #[inline]
    fn push_within(
        &self,
        out: &mut CandidateList,
        within: &[CandidateRange],
        j: &mut usize,
        lines: Range<usize>,
        all: bool,
    ) {
        let start = lines.start * self.values_per_line;
        let end = (lines.end * self.values_per_line).min(self.len);
        while *j < within.len() && within[*j].end <= start {
            *j += 1;
        }
        for r in within[*j..].iter().take_while(|r| r.start < end) {
            out.push(start.max(r.start), end.min(r.end), all && r.all_qualify);
        }
    }

    /// Expand the compressed representation back into one vector per
    /// cacheline (tests and stats only — queries never need this).
    pub fn expand_vectors(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.num_lines());
        let mut vi = 0usize;
        for &e in &self.dict {
            let count = e.count() as usize;
            if e.repeat() {
                out.extend(std::iter::repeat_n(self.vectors[vi], count));
                vi += 1;
            } else {
                out.extend_from_slice(&self.vectors[vi..vi + count]);
                vi += count;
            }
        }
        out
    }
}

/// The imprint vector of one cacheline of values: the OR of their bins.
#[inline]
fn line_vector<T: Native>(keys: &BinKeys<T>, values: &[T]) -> u64 {
    values.iter().fold(0, |d, &v| d | keys.bit_of(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(data: &[i64], lo: i64, hi: i64) -> Vec<usize> {
        data.iter()
            .enumerate()
            .filter(|(_, &v)| v >= lo && v <= hi)
            .map(|(i, _)| i)
            .collect()
    }

    fn assert_sound(data: &[i64], imp: &Imprints<i64>, lo: i64, hi: i64) {
        let cand = imp.probe(lo, hi);
        // No false negatives.
        for row in brute_force(data, lo, hi) {
            assert!(cand.contains(row), "row {row} missed for [{lo},{hi}]");
        }
        // all_qualify runs contain only matches.
        for r in cand.ranges() {
            if r.all_qualify {
                for (off, &v) in data[r.start..r.end].iter().enumerate() {
                    assert!(
                        v >= lo && v <= hi,
                        "row {}={v} falsely sure for [{lo},{hi}]",
                        r.start + off
                    );
                }
            }
        }
    }

    /// Recompute the summary level from the dictionary alone and require
    /// the maintained one to equal it.
    fn assert_summary_exact<T: Native>(imp: &Imprints<T>) {
        let (mut line, mut vi) = (0usize, 0usize);
        let mut expect = Vec::new();
        for chunk in imp.dict.chunks(GROUP) {
            let mut group = Group { or: 0, line, vi };
            for e in chunk {
                let n = if e.repeat() { 1 } else { e.count() as usize };
                group.or |= imp.vectors[vi..vi + n].iter().fold(0, |a, &v| a | v);
                assert!(
                    e.repeat() || e.count() <= LITERAL_MAX,
                    "literal run over the cap"
                );
                vi += n;
                line += e.count() as usize;
            }
            expect.push(group);
        }
        assert_eq!(imp.summary, expect);
    }

    #[test]
    fn summary_level_is_exact_and_literal_runs_are_capped() {
        // Shuffled data: long stretches of distinct vectors, split at the
        // cap, spanning many groups.
        let data: Vec<i64> = (0..40_000).map(|i| (i * 2654435761i64) % 4099).collect();
        let mut imp = Imprints::build(&data);
        assert!(imp.summary.len() >= 2, "{} groups", imp.summary.len());
        assert_summary_exact(&imp);
        imp.append(&data[..1000]);
        assert_summary_exact(&imp);
        assert_sound(&[&data[..], &data[..1000]].concat(), &imp, 100, 300);
    }

    /// Lines `a b b` with a fresh `b` each time: every third line splits a
    /// repeat run off a non-repeat one. Two leading lines shift the splits
    /// to even entry indexes, so some open a summary group and take their
    /// vector — whose bit no other vector of the old group has — with them.
    fn split_heavy(lead: usize) -> (Vec<i64>, BinMap<i64>) {
        let mut lines: Vec<i64> = vec![60; lead];
        for t in 0..150 {
            lines.extend([62, t % 60, t % 60]);
        }
        let data = lines.iter().flat_map(|&v| [v; 8]).collect();
        (data, BinMap::from_borders((1..63).collect()))
    }

    /// The protocol `append` relies on: popping line `l` restores the
    /// dictionary and vectors of the `l`-line build and leaves the summary
    /// a sound superset of its summary; pushing any superset of the popped
    /// vector back makes the summary exact again.
    #[test]
    fn pop_then_push_of_a_superset_restores_the_summary_exactly() {
        for lead in 0..3 {
            let (data, bins) = split_heavy(lead);
            let full = Imprints::build_with_bins(&data, bins.clone());
            assert!(full.summary.len() > 2, "lead={lead}");
            assert_summary_exact(&full);
            // Bit 63 is no bin of the data: `1 << 63` widens the line.
            for (l, widen) in (0..full.num_lines()).flat_map(|l| [(l, 0), (l, 1 << 63)]) {
                let mut imp = Imprints::build_with_bins(&data[..(l + 1) * 8], bins.clone());
                let d = imp.pop_last_line();
                let mut expect = Imprints::build_with_bins(&data[..l * 8], bins.clone());
                assert_eq!((&imp.dict, &imp.vectors), (&expect.dict, &expect.vectors));
                assert_eq!(imp.summary.len(), expect.summary.len(), "lead={lead} l={l}");
                for (got, exact) in imp.summary.iter().zip(&expect.summary) {
                    assert_eq!((got.line, got.vi), (exact.line, exact.vi));
                    assert_eq!(got.or & exact.or, exact.or, "lead={lead} l={l}: lost bits");
                }
                imp.push_line(l, d | widen);
                expect.push_line(l, d | widen);
                assert_eq!(
                    imp.summary, expect.summary,
                    "lead={lead} l={l} widen={widen}"
                );
                assert_summary_exact(&imp);
            }
        }
    }

    #[test]
    fn dict_entry_packing() {
        let e = DictEntry::new(12345, true);
        assert_eq!(e.count(), 12345);
        assert!(e.repeat());
        let e = DictEntry::new(COUNT_MAX, false);
        assert_eq!(e.count(), COUNT_MAX);
        assert!(!e.repeat());
    }

    #[test]
    fn clustered_data_compresses() {
        // 8 i64 per cacheline; 8000 sorted values -> long runs of identical
        // imprint vectors.
        let data: Vec<i64> = (0..8000).map(|i| i / 500).collect();
        let imp = Imprints::build(&data);
        assert_eq!(imp.num_lines(), 1000);
        assert!(
            imp.num_vectors() < 100,
            "sorted data should compress: {} vectors",
            imp.num_vectors()
        );
        assert_eq!(imp.expand_vectors().len(), 1000);
        assert_sound(&data, &imp, 3, 7);
        assert_sound(&data, &imp, 0, 0);
    }

    #[test]
    fn shuffled_data_still_sound() {
        let mut data: Vec<i64> = (0..4096).collect();
        // Deterministic shuffle.
        for i in 0..data.len() {
            let j = (i * 2654435761) % data.len();
            data.swap(i, j);
        }
        let imp = Imprints::build(&data);
        for (lo, hi) in [(0, 10), (1000, 1100), (4000, 5000), (-5, -1)] {
            assert_sound(&data, &imp, lo, hi);
        }
    }

    #[test]
    fn probe_empty_range_and_miss() {
        let data: Vec<i64> = (0..100).collect();
        let imp = Imprints::build(&data);
        assert!(imp.probe(50, 40).is_empty(), "inverted range");
        // Out-of-domain probes may hit the open-ended first/last bins; they
        // must still be supersets (possibly non-empty) — just verify
        // soundness.
        assert_sound(&data, &imp, 1000, 2000);
    }

    #[test]
    fn partial_last_cacheline_clamped() {
        let data: Vec<i64> = (0..13).collect(); // 8 + 5 values
        let imp = Imprints::build(&data);
        assert_eq!(imp.num_lines(), 2);
        let cand = imp.probe(0, 100);
        assert_eq!(cand.num_rows(), 13, "rows must clamp to len");
        assert_sound(&data, &imp, 9, 20);
    }

    #[test]
    fn empty_column() {
        let imp = Imprints::<i64>::build(&[]);
        assert!(imp.is_empty());
        assert_eq!(imp.num_lines(), 0);
        assert!(imp.probe(0, 1).is_empty());
    }

    #[test]
    fn all_qualify_fast_path_fires() {
        // Sorted data, probe a range covering whole inner bins: the middle
        // cachelines must be flagged all_qualify.
        let data: Vec<i64> = (0..64_000).collect();
        let imp = Imprints::build(&data);
        let borders = imp.bins().borders().to_vec();
        assert!(borders.len() > 10);
        // Pick a range aligned on borders: [borders[5], borders[20] - 1].
        let (lo, hi) = (borders[5], borders[20] - 1);
        let cand = imp.probe(lo, hi);
        assert!(
            cand.num_sure_rows() > 0,
            "border-aligned probe should produce sure rows"
        );
        assert_sound(&data, &imp, lo, hi);
    }

    #[test]
    fn repeat_run_split_is_correct() {
        // Force the dictionary split path: several distinct vectors, then a
        // repeat of the last one.
        let mut data = Vec::new();
        for line in 0..4 {
            for _ in 0..8 {
                data.push(line * 1000); // distinct vector per line
            }
        }
        // 5 more cachelines repeating the 4th vector.
        data.extend(std::iter::repeat_n(3000, 5 * 8));
        let imp = Imprints::build_with_bins(&data, BinMap::from_borders(vec![500, 1500, 2500]));
        assert_eq!(imp.expand_vectors().len(), imp.num_lines());
        // Vector storage: 4 distinct vectors only.
        assert_eq!(imp.num_vectors(), 4);
        assert_sound(&data, &imp, 3000, 3000);
        let cand = imp.probe(3000, 3000);
        assert_eq!(cand.num_rows(), 6 * 8); // line 3 + the 5 repeats
    }

    #[test]
    fn append_matches_full_rebuild_line_for_line() {
        // Appending in arbitrary batch sizes must yield exactly the
        // expanded vectors a full build over the concatenation (with the
        // same bins) would produce — including partial-cacheline tails and
        // repeat-run surgery.
        let bins = BinMap::from_borders(vec![100i64, 200, 300, 400]);
        let full: Vec<i64> = (0..1000).map(|i| (i * 37) % 500).collect();
        for split in [0usize, 1, 7, 8, 13, 64, 999, 1000] {
            let mut imp = Imprints::build_with_bins(&full[..split], bins.clone());
            // Drip the rest in uneven batches.
            let mut at = split;
            for step in [1usize, 3, 8, 11, 90].iter().cycle() {
                if at >= full.len() {
                    break;
                }
                let end = (at + step).min(full.len());
                imp.append(&full[at..end]);
                at = end;
            }
            let rebuilt = Imprints::build_with_bins(&full, bins.clone());
            assert_eq!(imp.len(), rebuilt.len(), "split={split}");
            assert_eq!(
                imp.expand_vectors(),
                rebuilt.expand_vectors(),
                "split={split}"
            );
            assert_summary_exact(&imp);
            assert_eq!(imp.summary, rebuilt.summary, "split={split}");
            assert_eq!(imp, rebuilt, "split={split}: dictionary and summary too");
            assert_sound(&full, &imp, 150, 350);
        }
    }

    #[test]
    fn append_extends_repeat_runs() {
        // Sorted data compresses to repeat runs; appending more identical
        // lines must extend the run, not explode the dictionary.
        let data: Vec<i64> = vec![5; 8 * 100];
        let mut imp = Imprints::build(&data);
        let before = imp.num_vectors();
        imp.append(&vec![5i64; 8 * 100]);
        assert_eq!(imp.len(), 1600);
        assert_eq!(imp.num_vectors(), before, "repeat run extended in place");
        let cand = imp.probe(5, 5);
        assert_eq!(cand.num_rows(), 1600);
    }

    #[test]
    fn append_out_of_domain_values_stays_sound() {
        // Bins were sampled from 0..100; appended values far outside land
        // in the open-ended edge bins and must still be findable.
        let data: Vec<i64> = (0..100).collect();
        let mut imp = Imprints::build(&data);
        let tail: Vec<i64> = (0..40).map(|i| 1_000_000 + i).collect();
        imp.append(&tail);
        let all: Vec<i64> = data.iter().chain(tail.iter()).copied().collect();
        assert_eq!(imp.len(), all.len());
        assert_sound(&all, &imp, 1_000_010, 1_000_020);
        assert_sound(&all, &imp, -50, 5);
    }

    #[test]
    fn append_to_empty_equals_build() {
        let data: Vec<i64> = (0..500).map(|i| i % 60).collect();
        let bins = BinMap::from_borders(vec![10i64, 20, 30, 40, 50]);
        let mut imp = Imprints::build_with_bins(&[], bins.clone());
        imp.append(&data);
        let rebuilt = Imprints::build_with_bins(&data, bins);
        assert_eq!(imp.expand_vectors(), rebuilt.expand_vectors());
        assert_eq!(imp.len(), rebuilt.len());
    }

    #[test]
    fn u8_column_uses_64_values_per_line() {
        let data: Vec<u8> = (0..=255).cycle().take(1024).collect();
        let imp = Imprints::build(&data);
        assert_eq!(imp.values_per_line(), 64);
        assert_eq!(imp.num_lines(), 16);
        let cand = imp.probe(0, 255);
        assert_eq!(cand.num_rows(), 1024);
    }

    #[test]
    fn byte_size_accounts_all_parts() {
        let data: Vec<i64> = (0..8000).collect();
        let imp = Imprints::build(&data);
        let expect = imp.num_vectors() * 8
            + imp.num_dict_entries() * 4
            + imp.summary.len() * 24
            + imp.bins().borders().len() * 8;
        assert_eq!(imp.byte_size(), expect);
        assert!(
            imp.byte_size() < data.len() * 8 / 4,
            "index far smaller than data"
        );
    }
}

/// The key-table bin lookup and the build and append over it against the
/// order they replaced: `partition_point` over `total_cmp`, for every
/// `Native` type, on edge values (±0, NaN payloads, ±∞, subnormals,
/// integer extremes) and random bit patterns.
#[cfg(test)]
mod lookup_equivalence {
    use super::*;
    use proptest::prelude::*;

    /// A value type with its edge values and a raw-bits constructor.
    trait Edge: Native {
        const EDGES: &'static [Self];
        fn from_bits(s: u64) -> Self;
        /// An edge value for one seed in three, else raw bits.
        fn pick(s: u64) -> Self {
            if s.is_multiple_of(3) {
                Self::EDGES[(s / 3) as usize % Self::EDGES.len()]
            } else {
                Self::from_bits(s)
            }
        }
    }

    macro_rules! int_edges {
        ($($t:ty),*) => {$(
            impl Edge for $t {
                const EDGES: &'static [Self] =
                    &[<$t>::MIN, <$t>::MIN + 1, 0, 1, <$t>::MAX - 1, <$t>::MAX, <$t>::MAX / 2];
                fn from_bits(s: u64) -> Self {
                    s as $t
                }
            }
        )*};
    }
    int_edges!(i8, i16, i32, i64, u8, u16, u32, u64);

    impl Edge for f64 {
        const EDGES: &'static [Self] = &[
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0007),
        ];
        fn from_bits(s: u64) -> Self {
            f64::from_bits(s)
        }
    }

    impl Edge for f32 {
        const EDGES: &'static [Self] = &[
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45,
            -0.0,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFFC0_0003),
        ];
        fn from_bits(s: u64) -> Self {
            f32::from_bits(s as u32)
        }
    }

    /// The lookup the key table replaced.
    fn reference_bin<T: Native>(bins: &BinMap<T>, v: T) -> u32 {
        bins.borders().partition_point(|b| b.total_cmp(&v).is_le()) as u32
    }

    /// The build the key table replaced: every line's vector from the
    /// reference lookup, through the one dictionary state machine.
    fn reference_build<T: Native>(data: &[T], bins: &BinMap<T>) -> Imprints<T> {
        let vpl = T::PHYS.values_per_cacheline();
        let mut imp = Imprints {
            bins: bins.clone(),
            dict: Vec::new(),
            vectors: Vec::new(),
            summary: Vec::new(),
            values_per_line: vpl,
            len: data.len(),
        };
        for (line, values) in data.chunks(vpl).enumerate() {
            imp.push_line(
                line,
                values
                    .iter()
                    .fold(0, |d, &v| d | 1 << reference_bin(bins, v)),
            );
        }
        imp
    }

    /// Dictionary, vectors, summary and length equal. (Borders are one
    /// clone on both sides; `==` on them would fail on a NaN border.)
    fn same<T: Native>(got: &Imprints<T>, want: &Imprints<T>) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.dict, &want.dict);
        prop_assert_eq!(&got.vectors, &want.vectors);
        prop_assert_eq!(&got.summary, &want.summary);
        prop_assert_eq!(got.len, want.len);
        Ok(())
    }

    fn check<T: Edge>(
        seeds: &[u64],
        border_seeds: &[u64],
        max_borders: usize,
        split: usize,
    ) -> Result<(), TestCaseError> {
        let data: Vec<T> = seeds.iter().map(|&s| T::pick(s)).collect();
        let mut borders: Vec<T> = border_seeds.iter().map(|&s| T::pick(s)).collect();
        borders.sort_by(|a, b| a.total_cmp(b));
        borders.dedup_by(|a, b| a.total_cmp(b).is_eq());
        // Keep `max_borders` spread over the candidates, both ends included.
        if borders.len() > max_borders {
            let n = borders.len();
            borders = (0..max_borders)
                .map(|k| borders[k * (n - 1) / (max_borders - 1).max(1)])
                .collect();
        }
        for bins in [BinMap::from_borders(borders), BinMap::from_data(&data)] {
            let keys = bins.keys();
            let probes = data.iter().chain(bins.borders()).chain(T::EDGES);
            for &v in probes {
                let want = reference_bin(&bins, v);
                prop_assert_eq!(bins.bin_of(v), want, "{:?} in {:?}", v, bins.borders());
                prop_assert_eq!(keys.bin_of(v), want);
            }
            let want = reference_build(&data, &bins);
            same(&Imprints::build_with_bins(&data, bins.clone()), &want)?;
            let split = split.min(data.len());
            let mut appended = Imprints::build_with_bins(&data[..split], bins.clone());
            for batch in data[split..].chunks(37) {
                appended.append(batch);
            }
            same(&appended, &want)?;
        }
        Ok(())
    }

    macro_rules! equivalence {
        ($($name:ident: $t:ty),*) => {$(
            proptest! {
                fn $name(
                    seeds in prop::collection::vec(any::<u64>(), 0..700),
                    border_seeds in prop::collection::vec(any::<u64>(), 0..200),
                    pick in 0usize..4,
                    split in 0usize..700,
                ) {
                    check::<$t>(&seeds, &border_seeds, [0, 1, 2, 63][pick], split)?;
                }
            }
        )*};
    }

    equivalence!(
        i8_lookup_and_build: i8, i16_lookup_and_build: i16, i32_lookup_and_build: i32,
        i64_lookup_and_build: i64, u8_lookup_and_build: u8, u16_lookup_and_build: u16,
        u32_lookup_and_build: u32, u64_lookup_and_build: u64, f32_lookup_and_build: f32,
        f64_lookup_and_build: f64
    );
}
