//! Bin border construction and range-to-bitmask translation.
//!
//! The 64 value ranges of an imprint are global to the index and "decided
//! based on the distribution of the values of the indexed column"
//! (§2.1.1). Following SIGMOD'13 we take a fixed-size sample of the column,
//! sort it, and place borders at equi-depth quantiles, deduplicating so that
//! heavily skewed columns get fewer, wider bins rather than empty ones.

use std::marker::PhantomData;

use lidardb_storage::Native;

use crate::{MAX_BINS, SAMPLE_SIZE};

/// The global bin layout of one imprint index.
///
/// `borders` is a sorted list of at most [`MAX_BINS`]` - 1` distinct values.
/// Bin `i` covers the half-open interval `[borders[i-1], borders[i])`, with
/// bin `0` open below and the last bin open above:
///
/// ```text
/// bin 0          bin 1               bin n-1
/// (-inf, b0)  [b0, b1)  ...  [b_{n-2}, +inf)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BinMap<T> {
    borders: Vec<T>,
}

impl<T: Native> BinMap<T> {
    /// Derive bin borders from the column data using equi-depth sampling.
    ///
    /// Deterministic: the sample takes every `len / SAMPLE_SIZE`-th value,
    /// which suffices because the *order* of the sample is destroyed by the
    /// sort anyway and the generator-seeded benchmarks must be reproducible.
    pub fn from_data(data: &[T]) -> Self {
        Self::from_data_with(data, MAX_BINS, SAMPLE_SIZE)
    }

    /// As [`BinMap::from_data`] with explicit bin budget and sample size
    /// (used by the bin-count ablation in E7).
    pub fn from_data_with(data: &[T], max_bins: usize, sample_size: usize) -> Self {
        assert!(
            (2..=MAX_BINS).contains(&max_bins),
            "bin budget must be in 2..=64"
        );
        if data.is_empty() {
            return BinMap { borders: vec![] };
        }
        let step = (data.len() / sample_size.max(1)).max(1);
        let mut sample: Vec<T> = data.iter().copied().step_by(step).collect();
        sample.sort_by(|a, b| a.total_cmp(b));
        // Place max_bins-1 borders at equi-depth positions, dedup.
        let mut borders: Vec<T> = Vec::with_capacity(max_bins - 1);
        let min = sample[0];
        for k in 1..max_bins {
            let idx = k * sample.len() / max_bins;
            let v = sample[idx.min(sample.len() - 1)];
            // A border equal to the minimum would leave bin 0 empty; skip it
            // along with duplicates.
            let above_prev = borders.last().is_none_or(|&b| v.total_cmp(&b).is_gt());
            if above_prev && v.total_cmp(&min).is_gt() {
                borders.push(v);
            }
        }
        BinMap { borders }
    }

    /// Construct from explicit borders (test helper). Borders must be
    /// strictly increasing and at most `MAX_BINS - 1` long.
    pub fn from_borders(borders: Vec<T>) -> Self {
        assert!(borders.len() < MAX_BINS, "too many borders");
        assert!(
            borders.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()),
            "borders must be strictly increasing"
        );
        BinMap { borders }
    }

    /// Number of bins (`borders.len() + 1`, at least 1).
    pub fn num_bins(&self) -> usize {
        self.borders.len() + 1
    }

    /// The sorted borders.
    pub fn borders(&self) -> &[T] {
        &self.borders
    }

    /// The bin index of a value: the number of borders `<=` the value.
    /// The same six-step search as [`BinKeys::bin_of`], keying each probed
    /// border on the fly; loops over many values build the keys once with
    /// [`Self::keys`].
    #[inline]
    pub fn bin_of(&self, v: T) -> u32 {
        let key_at = |i: usize| self.borders.get(i).map_or(u64::MAX, |b| b.order_key());
        search(v.order_key(), key_at, self.borders.len() as u32)
    }

    /// The borders as a fixed-size search table for [`BinKeys::bin_of`].
    pub(crate) fn keys(&self) -> BinKeys<T> {
        let mut keys = [u64::MAX; MAX_BINS];
        for (k, b) in keys.iter_mut().zip(&self.borders) {
            *k = b.order_key();
        }
        BinKeys {
            keys,
            borders: self.borders.len() as u32,
            _value: PhantomData,
        }
    }

    /// Bit mask with exactly the bit `bin_of(v)` set.
    #[inline]
    pub fn bit_of(&self, v: T) -> u64 {
        1u64 << self.bin_of(v)
    }

    /// Translate an inclusive value range into imprint probe masks.
    ///
    /// Returns `(mask, innermask)`:
    /// * `mask` — bits of every bin that *overlaps* `[lo, hi]`; a cacheline
    ///   whose imprint misses `mask` entirely cannot contain a match.
    /// * `innermask` — bits of bins that lie *entirely within* `[lo, hi]`;
    ///   a cacheline whose imprint is a subset of `innermask` contains
    ///   *only* matches (the "all qualify" fast path). Conservative: a
    ///   boundary bin is included only when the query bound provably covers
    ///   the whole bin.
    pub fn range_masks(&self, lo: T, hi: T) -> (u64, u64) {
        debug_assert!(lo.total_cmp(&hi).is_le(), "range must be ordered");
        let lo_bin = self.bin_of(lo) as usize;
        let hi_bin = self.bin_of(hi) as usize;
        let mask = span_mask(lo_bin, hi_bin);

        // Inner bins: strictly between the boundary bins...
        let mut inner = if hi_bin > lo_bin + 1 {
            span_mask(lo_bin + 1, hi_bin - 1)
        } else {
            0
        };
        // ...plus the low boundary bin when lo is exactly its lower border
        // (bins are closed below), or when the bin is open below and lo
        // cannot exclude anything (-inf).
        let lo_covers_bin = if lo_bin == 0 {
            lo.to_f64() == f64::NEG_INFINITY
        } else {
            self.borders[lo_bin - 1].total_cmp(&lo).is_eq()
        };
        // ...plus the high boundary bin when hi covers it entirely: only
        // possible for the last (open above) bin with hi = +inf, or for an
        // integer domain where hi + 1 == upper border. We keep the check
        // conservative and domain-agnostic: last bin + infinite bound.
        let hi_covers_bin = hi_bin == self.borders.len() && hi.to_f64() == f64::INFINITY;
        if lo_covers_bin && (lo_bin < hi_bin || hi_covers_bin) {
            inner |= 1u64 << lo_bin;
        }
        // lo_bin == hi_bin and hi does not cover the bin: the single
        // boundary bin is only partially covered, leave it out.
        if hi_covers_bin && (hi_bin > lo_bin || lo_covers_bin) {
            inner |= 1u64 << hi_bin;
        }
        (mask, inner)
    }
}

/// The borders of a [`BinMap`] as [`Native::order_key`]s, padded with
/// `u64::MAX` to [`MAX_BINS`] slots: a search table the bin lookup walks in
/// six fixed steps, with no data-dependent branch. Built per
/// [`Imprints::build`](crate::Imprints::build) or
/// [`Imprints::append`](crate::Imprints::append) call, not stored.
pub(crate) struct BinKeys<T> {
    keys: [u64; MAX_BINS],
    borders: u32,
    _value: PhantomData<T>,
}

impl<T: Native> BinKeys<T> {
    /// The number of borders `<=` `v`, as [`BinMap::bin_of`].
    ///
    /// Borders are strictly increasing and keys preserve their order, so
    /// the table is sorted; each step halves the span the count can lie in
    /// and adds its width when the probed slot is `<=` the key. Padding
    /// slots only count for the key `u64::MAX`, which every border is
    /// `<=`, so clamping at the border count gives the exact answer.
    #[inline]
    pub(crate) fn bin_of(&self, v: T) -> u32 {
        search(v.order_key(), |i| self.keys[i % MAX_BINS], self.borders)
    }

    /// Bit mask with exactly the bit `bin_of(v)` set.
    #[inline]
    pub(crate) fn bit_of(&self, v: T) -> u64 {
        1u64 << self.bin_of(v)
    }
}

/// The number of the `borders` sorted keys `key_at(0..63)` that are `<=`
/// `k`, where slots past the borders hold `u64::MAX`: six steps, each
/// halving the span the count lies in, then a clamp at `borders`.
#[inline(always)]
fn search(k: u64, key_at: impl Fn(usize) -> u64, borders: u32) -> u32 {
    let mut at = 0usize;
    for step in [32, 16, 8, 4, 2, 1] {
        at += step * usize::from(key_at(at + step - 1) <= k);
    }
    (at as u32).min(borders)
}

/// Mask with bits `lo..=hi` set.
#[inline]
fn span_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi < 64);
    let width = hi - lo + 1;
    if width == 64 {
        !0
    } else {
        ((1u64 << width) - 1) << lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_0_10_20() -> BinMap<i64> {
        // bins: (-inf,10) [10,20) [20,+inf)
        BinMap::from_borders(vec![10, 20])
    }

    #[test]
    fn bin_of_boundaries() {
        let m = map_0_10_20();
        assert_eq!(m.num_bins(), 3);
        assert_eq!(m.bin_of(-5), 0);
        assert_eq!(m.bin_of(9), 0);
        assert_eq!(m.bin_of(10), 1); // closed below
        assert_eq!(m.bin_of(19), 1);
        assert_eq!(m.bin_of(20), 2);
        assert_eq!(m.bin_of(1000), 2);
        assert_eq!(m.bit_of(10), 0b010);
    }

    #[test]
    fn range_masks_cover_overlapping_bins() {
        let m = map_0_10_20();
        let (mask, _) = m.range_masks(5, 15);
        assert_eq!(mask, 0b011);
        let (mask, _) = m.range_masks(10, 25);
        assert_eq!(mask, 0b110);
        let (mask, _) = m.range_masks(21, 22);
        assert_eq!(mask, 0b100);
    }

    #[test]
    fn innermask_is_conservative() {
        let m = map_0_10_20();
        // [5,25] fully covers bin 1 ([10,20)) but only parts of bins 0,2.
        let (_, inner) = m.range_masks(5, 25);
        assert_eq!(inner, 0b010);
        // [10,25]: bin 1 fully covered because lo == its lower border.
        let (_, inner) = m.range_masks(10, 25);
        assert_eq!(inner, 0b010);
        // [11,25]: bin 1 only partially covered.
        let (_, inner) = m.range_masks(11, 25);
        assert_eq!(inner, 0b000);
        // A range inside one bin is never "all qualify".
        let (_, inner) = m.range_masks(12, 13);
        assert_eq!(inner, 0);
    }

    #[test]
    fn infinite_bounds_cover_open_bins() {
        let m = BinMap::from_borders(vec![10.0f64, 20.0]);
        let (mask, inner) = m.range_masks(f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(mask, 0b111);
        assert_eq!(inner, 0b111);
        let (_, inner) = m.range_masks(f64::NEG_INFINITY, 15.0);
        assert_eq!(inner, 0b001); // bin 0 fully covered, bin 1 partially
        let (_, inner) = m.range_masks(10.0, f64::INFINITY);
        assert_eq!(inner, 0b110);
    }

    #[test]
    fn single_bin_range_masks() {
        // Single-bin map (empty borders): everything is bin 0.
        let m = BinMap::<i32>::from_borders(vec![]);
        assert_eq!(m.num_bins(), 1);
        assert_eq!(m.bin_of(i32::MIN), 0);
        let (mask, inner) = m.range_masks(1, 5);
        assert_eq!(mask, 0b1);
        assert_eq!(inner, 0);
    }

    #[test]
    fn from_data_equidepth() {
        let data: Vec<i64> = (0..10_000).collect();
        let m = BinMap::from_data(&data);
        assert!(m.num_bins() > 32, "uniform data should use most bins");
        // Every border strictly increasing.
        assert!(m.borders().windows(2).all(|w| w[0] < w[1]));
        // Values distribute across bins roughly evenly.
        let mid = m.bin_of(5_000);
        assert!(mid > 20 && mid < 44, "mid bin {mid}");
    }

    #[test]
    fn from_data_skewed_dedups() {
        let mut data = vec![7i64; 10_000];
        data.extend(0..16i64);
        let m = BinMap::from_data(&data);
        assert!(m.num_bins() <= 3, "constant-ish data needs few bins");
    }

    #[test]
    fn from_data_empty_and_constant() {
        let m = BinMap::<f64>::from_data(&[]);
        assert_eq!(m.num_bins(), 1);
        let m = BinMap::from_data(&vec![3.5f64; 100]);
        assert_eq!(m.num_bins(), 1);
        assert_eq!(m.bin_of(3.5), 0);
    }

    #[test]
    fn span_mask_edges() {
        assert_eq!(span_mask(0, 0), 1);
        assert_eq!(span_mask(0, 63), !0);
        assert_eq!(span_mask(63, 63), 1 << 63);
        assert_eq!(span_mask(1, 3), 0b1110);
    }

    #[test]
    fn nan_goes_to_last_bin() {
        let m = BinMap::from_borders(vec![0.0f64]);
        assert_eq!(m.bin_of(f64::NAN), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_borders_rejected() {
        BinMap::from_borders(vec![5i32, 5]);
    }
}
