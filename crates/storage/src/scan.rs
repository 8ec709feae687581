//! Vectorised predicate-evaluation kernels.
//!
//! These are the MonetDB-style "operator-at-a-time" primitives: each kernel
//! makes one tight pass over a typed slice (or a selected subset of it) and
//! produces or refines a *selection vector* of qualifying row ids. The
//! two-step spatial query engine composes them: the imprint filter yields
//! candidate row ranges, and one mask kernel decides every filter
//! predicate over just those ranges — 64 rows at a time become one `u64`
//! mask, and row ids are pushed only from its set bits. [`bbox_scan`] ANDs
//! the branch-free compares of x *and* y; [`mask_scan`] also ANDs each
//! pushed-down attribute range ([`AttrMask`], compared in the column's
//! native domain) and then runs a per-row test — the band table of the
//! query's shape — on the bits that survive.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as MemOrdering};

use crate::types::{Native, Value};

/// Process-wide scan-kernel counters, pulled into `core::metrics` snapshots.
///
/// The kernels themselves stay free of atomics: the filter step issues one
/// [`bbox_scan`] call *per candidate run* (hundreds of thousands per
/// 12M-point bbox query), and even a relaxed `fetch_add` per call measured
/// ~10% overhead on that loop. The engine therefore accumulates calls/rows in
/// locals and flushes one [`note_scans`] batch per morsel.
static SCAN_CALLS: AtomicU64 = AtomicU64::new(0);
static ROWS_EXAMINED: AtomicU64 = AtomicU64::new(0);

/// Record a batch of kernel work: `calls` invocations that examined `rows`
/// rows in total. Two relaxed adds, called once per morsel.
pub fn note_scans(calls: u64, rows: u64) {
    SCAN_CALLS.fetch_add(calls, MemOrdering::Relaxed);
    ROWS_EXAMINED.fetch_add(rows, MemOrdering::Relaxed);
}

/// Total scan-kernel invocations recorded via [`note_scans`].
pub fn scan_calls() -> u64 {
    SCAN_CALLS.load(MemOrdering::Relaxed)
}

/// Total rows examined by scan kernels recorded via [`note_scans`].
pub fn rows_examined() -> u64 {
    ROWS_EXAMINED.load(MemOrdering::Relaxed)
}

/// Both counters in one consistent-enough read: `(calls, rows_examined)`.
/// The tracer uses before/after deltas of this pair to attribute
/// scan-kernel work to a span.
pub fn totals() -> (u64, u64) {
    (
        SCAN_CALLS.load(MemOrdering::Relaxed),
        ROWS_EXAMINED.load(MemOrdering::Relaxed),
    )
}

/// Zero both scan counters (used by `MetricsRegistry::reset`).
pub fn reset_scan_counters() {
    SCAN_CALLS.store(0, MemOrdering::Relaxed);
    ROWS_EXAMINED.store(0, MemOrdering::Relaxed);
}

/// The exact bbox check over the candidate run `rows`: append, in order,
/// the ids of the rows whose x lies in `x_range` and whose y lies in
/// `y_range` (inclusive). A `None` range is not compared — the caller's
/// imprint proved it for the whole run. Each block of 64 rows becomes one
/// `u64` of branch-free compares, x-mask AND y-mask, and ids are pushed
/// only from its set bits. NaN satisfies no range.
pub fn bbox_scan(
    xs: &[f64],
    ys: &[f64],
    rows: Range<usize>,
    x_range: Option<(f64, f64)>,
    y_range: Option<(f64, f64)>,
    out: &mut Vec<usize>,
) {
    if x_range.is_none() && y_range.is_none() {
        out.extend(rows);
        return;
    }
    let mut start = rows.start;
    while start < rows.end {
        let n = (rows.end - start).min(64);
        push_bits(
            envelope_mask(xs, ys, start, n, x_range, y_range),
            start,
            out,
        );
        start += n;
    }
}

/// The filter step's one mask kernel over the candidate run `rows`: append,
/// in order, the ids of the rows that pass the envelope compares (as in
/// [`bbox_scan`]; a `None` range is not compared), every attribute range in
/// `attrs`, and then `band(x, y)`, which runs only on the rows the masks
/// before it kept. NaN satisfies no range.
#[allow(clippy::too_many_arguments)]
pub fn mask_scan<B: Fn(f64, f64) -> bool>(
    xs: &[f64],
    ys: &[f64],
    rows: Range<usize>,
    x_range: Option<(f64, f64)>,
    y_range: Option<(f64, f64)>,
    attrs: &[AttrMask<'_>],
    band: Option<&B>,
    out: &mut Vec<usize>,
) {
    let mut start = rows.start;
    while start < rows.end {
        let n = (rows.end - start).min(64);
        let mut m = envelope_mask(xs, ys, start, n, x_range, y_range);
        for a in attrs {
            if m == 0 {
                break;
            }
            m &= (a.mask)(start, n);
        }
        if let Some(band) = band {
            let mut bits = m;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                m &= !(u64::from(!band(xs[start + i], ys[start + i])) << i);
                bits &= bits - 1;
            }
        }
        push_bits(m, start, out);
        start += n;
    }
}

/// The x-and-y compares of the `n ≤ 64` rows from `start`.
#[inline]
fn envelope_mask(
    xs: &[f64],
    ys: &[f64],
    start: usize,
    n: usize,
    x_range: Option<(f64, f64)>,
    y_range: Option<(f64, f64)>,
) -> u64 {
    let mut m = u64::MAX >> (64 - n);
    if let Some((lo, hi)) = x_range {
        m &= range_mask(&xs[start..start + n], lo, hi);
    }
    if let Some((lo, hi)) = y_range {
        m &= range_mask(&ys[start..start + n], lo, hi);
    }
    m
}

/// Append `start + i` for every set bit `i` of `m`, in order.
#[inline]
fn push_bits(mut m: u64, start: usize, out: &mut Vec<usize>) {
    if m == u64::MAX {
        out.extend(start..start + 64);
    } else {
        while m != 0 {
            out.push(start + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// An inclusive range on one attribute column, expressed on the `f64`
/// query domain and compared by [`mask_scan`] in the column's native
/// domain: integer columns get inward-rounded native bounds
/// ([`int_bounds`], exact even near `i64::MAX` / `u64::MAX`); float
/// columns compare in `f64`, which is exact because `f32` widens
/// losslessly.
pub struct AttrMask<'a> {
    /// The mask of the `n ≤ 64` rows from a start row.
    mask: Box<dyn Fn(usize, usize) -> u64 + Send + Sync + 'a>,
}

impl<'a> AttrMask<'a> {
    /// The range `lo ..= hi` over `data`.
    pub fn new<T: Native>(data: &'a [T], lo: f64, hi: f64) -> Self {
        let mask: Box<dyn Fn(usize, usize) -> u64 + Send + Sync + 'a> = if !T::IS_INT {
            Box::new(move |s, n| {
                fold_mask(&data[s..s + n], |v| (v.to_f64() >= lo) & (v.to_f64() <= hi))
            })
        } else if let Some((l, h)) = int_bounds::<T>(lo, hi) {
            Box::new(move |s, n| fold_mask(&data[s..s + n], |v| (v >= l) & (v <= h)))
        } else {
            Box::new(|_, _| 0)
        };
        AttrMask { mask }
    }
}

impl std::fmt::Debug for AttrMask<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AttrMask")
    }
}

/// Bit `i` set iff `keep(vals[i])`, for at most 64 values.
#[inline]
fn fold_mask<T: Copy>(vals: &[T], keep: impl Fn(T) -> bool) -> u64 {
    vals.iter()
        .enumerate()
        .fold(0, |m, (i, &v)| m | (u64::from(keep(v)) << i))
}

/// Bit `i` set iff `lo <= vals[i] <= hi`, for at most 64 values.
#[inline]
fn range_mask(vals: &[f64], lo: f64, hi: f64) -> u64 {
    fold_mask(vals, |v| (v >= lo) & (v <= hi))
}

/// Comparison operators supported by thematic filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// `2^63` as `f64` (exactly representable).
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
/// `2^64` as `f64` (exactly representable).
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Exact comparison of an `i64` against an `f64` threshold.
///
/// Widening `v` to `f64` is wrong above 2^53 (e.g. `i64::MAX as f64` rounds
/// *up* to 2^63), so instead the threshold is range-checked against the
/// `i64` domain and then truncated and compared as an integer, with the
/// discarded fraction breaking ties.
fn cmp_i64_f64(v: i64, rhs: f64) -> Ordering {
    debug_assert!(!rhs.is_nan());
    if rhs >= TWO_POW_63 {
        return Ordering::Less;
    }
    if rhs < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // rhs is in [-2^63, 2^63), so its truncation converts exactly.
    let t = rhs.trunc();
    match v.cmp(&(t as i64)) {
        Ordering::Equal => {
            // trunc() moved toward zero: rhs > t means a positive fraction
            // was discarded (v < rhs); rhs < t means a negative one (v > rhs).
            if rhs > t {
                Ordering::Less
            } else if rhs < t {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        o => o,
    }
}

/// Exact comparison of a `u64` against an `f64` threshold (see [`cmp_i64_f64`]).
fn cmp_u64_f64(v: u64, rhs: f64) -> Ordering {
    debug_assert!(!rhs.is_nan());
    if rhs >= TWO_POW_64 {
        return Ordering::Less;
    }
    if rhs < 0.0 {
        return Ordering::Greater;
    }
    let t = rhs.trunc();
    match v.cmp(&(t as u64)) {
        Ordering::Equal => {
            if rhs > t {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        }
        o => o,
    }
}

/// Compare a native column value against an `f64` predicate constant without
/// loss.
///
/// Returns `None` when the pair is incomparable (either side NaN). Types of
/// 32 bits or fewer (and both float types) widen to `f64` exactly, so a
/// direct comparison is used; 64-bit integers go through the exact
/// integer-domain comparison above.
#[inline]
pub fn cmp_native_f64<T: Native>(v: T, rhs: f64) -> Option<Ordering> {
    if rhs.is_nan() {
        return None;
    }
    if T::IS_INT && T::PHYS.size() == 8 {
        return Some(match v.to_value() {
            Value::I64(x) => cmp_i64_f64(x, rhs),
            Value::U64(x) => cmp_u64_f64(x, rhs),
            Value::F64(_) => unreachable!("integer types lift to I64/U64"),
        });
    }
    v.to_f64().partial_cmp(&rhs)
}

/// Translate an `f64` query range onto an integer column's native domain,
/// rounding the bounds inward. Returns `None` when no native value can
/// satisfy the range.
///
/// The saturating `from_f64` conversion can round *outward* at the 64-bit
/// extremes (2^63 saturates to `i64::MAX`, which is smaller), so the
/// computed bounds are verified with [`cmp_native_f64`] and rejected if they
/// fall outside the requested range.
pub fn int_bounds<T: Native>(lo: f64, hi: f64) -> Option<(T, T)> {
    debug_assert!(T::IS_INT);
    if lo.is_nan() || hi.is_nan() {
        return None;
    }
    let l = lo.ceil().max(T::MIN_F);
    let h = hi.floor().min(T::MAX_F);
    if l > h {
        return None;
    }
    let ln = T::from_f64(l);
    let hn = T::from_f64(h);
    if cmp_native_f64(ln, lo).is_none_or(|o| o.is_lt()) {
        return None; // saturated below lo: nothing in range
    }
    if cmp_native_f64(hn, hi).is_none_or(|o| o.is_gt()) {
        return None; // saturated above hi: nothing in range
    }
    Some((ln, hn))
}

/// Mergeable aggregate accumulator over one numeric column.
///
/// `Sum`/`Avg` use Neumaier's compensated summation so that precision does
/// not collapse on large selections (a naive `f64` accumulator loses ~7
/// decimal digits summing 10M small values). States computed over disjoint
/// row morsels merge associatively, which is what makes the aggregate kernel
/// parallelisable without changing results beyond the compensation term.
#[derive(Debug, Clone, Copy)]
pub struct AggState {
    /// Number of values accumulated.
    pub count: usize,
    sum: f64,
    comp: f64,
    /// Smallest value seen (NaN-ignoring); `+inf` when empty.
    pub min: f64,
    /// Largest value seen (NaN-ignoring); `-inf` when empty.
    pub max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            comp: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl AggState {
    /// Accumulate one value.
    #[inline]
    pub fn push(&mut self, v: f64) {
        let t = self.sum + v;
        // Neumaier: compensate with whichever addend lost low-order bits.
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Fold another state (computed over a disjoint row set) into this one.
    pub fn merge(&mut self, other: &AggState) {
        let t = self.sum + other.sum;
        if self.sum.abs() >= other.sum.abs() {
            self.comp += (self.sum - t) + other.sum;
        } else {
            self.comp += (other.sum - t) + self.sum;
        }
        self.sum = t;
        self.comp += other.comp;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// The compensated sum.
    pub fn sum(&self) -> f64 {
        self.sum + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One in-order pass over the selected rows, as the engine's aggregate
    /// morsels do it.
    fn aggregate_rows<T: Native>(data: &[T], rows: &[usize]) -> AggState {
        let mut st = AggState::default();
        for &r in rows {
            st.push(data[r].to_f64());
        }
        st
    }

    /// The mask kernel against a row-at-a-time reference: NaN, ±inf and
    /// signed-zero values and bounds, values equal to a bound, runs of
    /// 0/1/63/64/65/130 rows at aligned and unaligned starts, and every
    /// compared/skipped combination of x and y — `(Some, None)` is a sure
    /// run under a degraded x probe.
    #[test]
    fn bbox_scan_matches_scalar_reference() {
        let pool = [
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            2.5,
            3.0,
            1e300,
        ];
        let xs: Vec<f64> = (0..400).map(|i| pool[i * 7 % pool.len()]).collect();
        let ys: Vec<f64> = (0..400)
            .map(|i| pool[(i * 11 + i / 9) % pool.len()])
            .collect();
        let bounds = [
            Some((0.0, 3.0)),
            Some((-0.0, 0.0)),
            Some((0.0, -0.0)),
            Some((f64::NEG_INFINITY, f64::INFINITY)),
            Some((1.0, 1.0)),
            Some((f64::NAN, 1.0)),
            Some((3.0, 0.0)),
            None,
        ];
        let within = |v: f64, b: Option<(f64, f64)>| b.is_none_or(|(lo, hi)| v >= lo && v <= hi);
        for start in [0usize, 1, 5, 63, 64, 100] {
            for len in [0usize, 1, 63, 64, 65, 130] {
                let rows = start..start + len;
                for &x in &bounds {
                    for &y in &bounds {
                        let mut out = vec![usize::MAX];
                        bbox_scan(&xs, &ys, rows.clone(), x, y, &mut out);
                        let expect: Vec<usize> = std::iter::once(usize::MAX)
                            .chain(
                                rows.clone()
                                    .filter(|&i| within(xs[i], x) && within(ys[i], y)),
                            )
                            .collect();
                        assert_eq!(out, expect, "rows {rows:?} x {x:?} y {y:?}");
                    }
                }
            }
        }
    }

    /// The rows of `data` the mask kernel keeps under `lo ..= hi` alone.
    fn attr_rows<T: Native>(data: &[T], lo: f64, hi: f64) -> Vec<usize> {
        let mut out = Vec::new();
        let attrs = [AttrMask::new(data, lo, hi)];
        let none = None::<&fn(f64, f64) -> bool>;
        mask_scan(&[], &[], 0..data.len(), None, None, &attrs, none, &mut out);
        out
    }

    /// The one mask kernel against a row-at-a-time reference: envelope
    /// compares (compared and skipped), integer and float attribute ranges
    /// with NaN and fractional bounds, and a band test, over runs of
    /// 0/1/63/64/65/130 rows at aligned and unaligned starts. The band test
    /// sees only rows every mask before it kept.
    #[test]
    fn mask_scan_matches_scalar_reference() {
        let n = 400;
        let xs: Vec<f64> = (0..n).map(|i| (i * 37 % 101) as f64 / 10.0).collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                if i % 41 == 0 {
                    f64::NAN
                } else {
                    (i * 53 % 97) as f64 / 10.0
                }
            })
            .collect();
        let class: Vec<u8> = (0..n).map(|i| (i * 7 % 13) as u8).collect();
        let big: Vec<i64> = (0..n).map(|i| i64::MAX - (i as i64 % 5) * 1024).collect();
        let zs: Vec<f32> = (0..n).map(|i| (i * 11 % 23) as f32 * 0.5).collect();
        let attr_sets: Vec<Vec<(usize, f64, f64)>> = vec![
            vec![],
            vec![(0, 2.0, 6.0)],
            vec![(0, 2.5, 2.9)],
            vec![(1, (i64::MAX - 2047) as f64, f64::INFINITY), (2, 1.0, 7.5)],
            vec![(2, f64::NAN, 3.0)],
        ];
        let band = |x: f64, y: f64| x + y < 12.0;
        for start in [0usize, 1, 5, 63, 64, 100] {
            for len in [0usize, 1, 63, 64, 65, 130] {
                let rows = start..start + len;
                for set in &attr_sets {
                    let attrs: Vec<AttrMask> = set
                        .iter()
                        .map(|&(c, lo, hi)| match c {
                            0 => AttrMask::new(&class, lo, hi),
                            1 => AttrMask::new(&big, lo, hi),
                            _ => AttrMask::new(&zs, lo, hi),
                        })
                        .collect();
                    let keeps = |i: usize| {
                        set.iter().all(|&(c, lo, hi)| match c {
                            0 => int_bounds::<u8>(lo, hi)
                                .is_some_and(|(l, h)| (l..=h).contains(&class[i])),
                            1 => int_bounds::<i64>(lo, hi)
                                .is_some_and(|(l, h)| (l..=h).contains(&big[i])),
                            _ => (zs[i] as f64) >= lo && (zs[i] as f64) <= hi,
                        })
                    };
                    for (x, y) in [
                        (Some((1.0, 8.0)), Some((0.5, 9.0))),
                        (None, Some((0.5, 9.0))),
                        (None, None),
                    ] {
                        let within = |v: f64, b: Option<(f64, f64)>| {
                            b.is_none_or(|(lo, hi)| v >= lo && v <= hi)
                        };
                        let seen = std::cell::Cell::new(0usize);
                        let counted = |a: f64, b: f64| {
                            seen.set(seen.get() + 1);
                            band(a, b)
                        };
                        let mut out = vec![usize::MAX];
                        mask_scan(
                            &xs,
                            &ys,
                            rows.clone(),
                            x,
                            y,
                            &attrs,
                            Some(&counted),
                            &mut out,
                        );
                        let kept: Vec<usize> = rows
                            .clone()
                            .filter(|&i| within(xs[i], x) && within(ys[i], y) && keeps(i))
                            .collect();
                        let expect: Vec<usize> = std::iter::once(usize::MAX)
                            .chain(kept.iter().copied().filter(|&i| band(xs[i], ys[i])))
                            .collect();
                        assert_eq!(out, expect, "rows {rows:?} attrs {set:?} x {x:?} y {y:?}");
                        assert_eq!(seen.get(), kept.len(), "the band sees only kept rows");
                    }
                }
            }
        }
    }

    /// Regression (native-domain attribute comparison): predicates with
    /// bounds above 2^53 must not be evaluated by widening `i64` values to
    /// `f64`. `i64::MAX` widens to 2^63 (rounds *up*), and values just below
    /// an exactly-representable bound round *onto* it, so the old
    /// f64-domain comparison both included and excluded the wrong rows.
    #[test]
    fn attr_range_is_exact_near_i64_max() {
        // 2^63 - 1024 is exactly representable (ulp in [2^62, 2^63) is 1024).
        let lo = (i64::MAX - 1023) as f64;
        assert_eq!(lo, 9_223_372_036_854_774_784.0); // 2^63 - 1024, exact
        let data = [
            i64::MAX,        // in range
            i64::MAX - 1023, // == lo exactly: in range
            i64::MAX - 1024, // one below lo, but rounds up onto lo in f64
            0,
        ];
        assert_eq!(
            attr_rows(&data, lo, f64::INFINITY),
            vec![0, 1],
            "row 2 is below lo and must be excluded"
        );

        // i64::MAX as f64 == 2^63, so the old comparison excluded i64::MAX
        // from `v < 2^63` even though every i64 satisfies it — and no i64,
        // i64::MAX included, satisfies `v >= 2^63`.
        assert!(data
            .iter()
            .all(|&v| cmp_native_f64(v, TWO_POW_63) == Some(Ordering::Less)));
    }

    /// Regression: the u64 analogue — `u64::MAX` widens to 2^64.
    #[test]
    fn attr_range_is_exact_near_u64_max() {
        // ulp in [2^63, 2^64) is 2048.
        let lo = (u64::MAX - 2047) as f64; // 2^64 - 2048, exact
        let data = [
            u64::MAX,        // in range
            u64::MAX - 2047, // == lo exactly
            u64::MAX - 2048, // below lo, rounds up onto it in f64
            7,
        ];
        assert_eq!(attr_rows(&data, lo, f64::INFINITY), vec![0, 1]);

        // Eq against 2^64: no u64 equals it (old code matched u64::MAX).
        assert!(data
            .iter()
            .all(|&v| cmp_native_f64(v, TWO_POW_64) == Some(Ordering::Less)));
    }

    #[test]
    fn cmp_native_f64_handles_fractions_signs_and_nan() {
        assert_eq!(cmp_native_f64(2i64, 2.5), Some(Ordering::Less));
        assert_eq!(cmp_native_f64(-2i64, -2.5), Some(Ordering::Greater));
        assert_eq!(cmp_native_f64(3u64, -0.5), Some(Ordering::Greater));
        assert_eq!(cmp_native_f64(i64::MIN, -TWO_POW_63), Some(Ordering::Equal));
        assert_eq!(
            cmp_native_f64(i64::MIN, f64::NEG_INFINITY),
            Some(Ordering::Greater)
        );
        assert_eq!(cmp_native_f64(0u64, f64::INFINITY), Some(Ordering::Less));
        assert_eq!(cmp_native_f64(5i32, f64::NAN), None);
        assert_eq!(cmp_native_f64(f64::NAN, 5.0), None);
        // f32 widens exactly, so fractional thresholds compare correctly.
        assert_eq!(cmp_native_f64(0.5f32, 0.5), Some(Ordering::Equal));
    }

    #[test]
    fn int_bounds_rounds_inward_and_rejects_empty_ranges() {
        assert_eq!(int_bounds::<i32>(1.5, 3.5), Some((2, 3)));
        assert_eq!(int_bounds::<i32>(2.1, 2.9), None);
        assert_eq!(int_bounds::<u8>(-5.0, 300.0), Some((0u8, 255u8)));
        assert_eq!(int_bounds::<u8>(300.0, 400.0), None);
        assert_eq!(int_bounds::<u8>(-5.0, -1.0), None);
        // Saturation at the 64-bit edge must not round outward: [2^63, inf)
        // contains no i64 at all.
        assert_eq!(int_bounds::<i64>(TWO_POW_63, f64::INFINITY), None);
        // ...but (-inf, 2^64] contains every u64.
        assert_eq!(
            int_bounds::<u64>(f64::NEG_INFINITY, TWO_POW_64),
            Some((0u64, u64::MAX))
        );
        assert_eq!(int_bounds::<i64>(f64::NAN, 10.0), None);
    }

    /// Regression (compensated summation): a naive `f64` accumulator loses
    /// precision summing 10M values of 0.1; the Neumaier kernel must stay
    /// within 1e-6 of the true sum while the naive loop drifts further.
    #[test]
    fn kahan_sum_holds_tolerance_on_10m_rows() {
        const N: usize = 10_000_000;
        let v = 0.1f64;
        let data = vec![v; N];
        let rows: Vec<usize> = (0..N).collect();
        let st = aggregate_rows(&data, &rows);
        // One rounding step total: the reference product is within 1 ulp of
        // the true sum N * v.
        let reference = v * N as f64;
        let kahan_err = (st.sum() - reference).abs();
        assert!(kahan_err < 1e-6, "kahan error {kahan_err}");
        let naive: f64 = data.iter().sum();
        let naive_err = (naive - reference).abs();
        assert!(
            kahan_err < naive_err,
            "kahan {kahan_err} should beat naive {naive_err}"
        );
        assert_eq!(st.count, N);
        assert_eq!(st.min, v);
        assert_eq!(st.max, v);
    }

    #[test]
    fn agg_state_merge_matches_single_pass() {
        let data: Vec<f64> = (0..10_000)
            .map(|i| (i as f64 * 0.7).sin() * 1e6 + 0.125)
            .collect();
        let rows: Vec<usize> = (0..data.len()).collect();
        let whole = aggregate_rows(&data, &rows);
        let mut merged = AggState::default();
        for chunk in rows.chunks(977) {
            merged.merge(&aggregate_rows(&data, chunk));
        }
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        let err = (merged.sum() - whole.sum()).abs();
        assert!(err <= 1e-9 * whole.sum().abs(), "merge drift {err}");
    }

    #[test]
    fn agg_state_empty_and_nan() {
        let st = AggState::default();
        assert_eq!(st.count, 0);
        assert_eq!(st.sum(), 0.0);
        assert_eq!(st.min, f64::INFINITY);
        assert_eq!(st.max, f64::NEG_INFINITY);
        // min/max ignore NaN (f64::min/max semantics), sum propagates it.
        let data = [1.0f64, f64::NAN, 3.0];
        let st = aggregate_rows(&data, &[0, 1, 2]);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert!(st.sum().is_nan());
    }
}
