//! Type-erased imprints over storage columns.
//!
//! The query layer works with dynamically typed [`Column`]s; this wrapper
//! dispatches to the monomorphised [`Imprints`] and translates `f64` query
//! bounds onto the column's native domain with inward rounding, so an
//! `x BETWEEN 2.3 AND 7.9` probe on an `i32` column correctly becomes
//! `[3, 7]`.

use std::sync::atomic::{AtomicU64, Ordering};

use lidardb_storage::{Column, Native, StorageError};

use crate::candidates::CandidateList;
use crate::imprint::Imprints;
use crate::stats::ImprintStats;

/// Process-wide count of [`ColumnImprints::probe_f64`] and
/// [`ColumnImprints::probe_within`] calls. The imprints crate sits below
/// the engine's metrics registry in the dependency graph, so the counter
/// lives here and the registry pulls it into its snapshot.
static PROBES: AtomicU64 = AtomicU64::new(0);

/// Process-wide total of candidate rows produced by those probes (a
/// restricted probe counts the rows of its intersection).
static PROBE_ROWS: AtomicU64 = AtomicU64::new(0);

/// Total probes answered by erased imprint indexes since process start
/// (or the last [`reset_probe_count`]).
pub fn probe_count() -> u64 {
    PROBES.load(Ordering::Relaxed)
}

/// Total candidate rows produced by erased probes since process start (or
/// the last [`reset_probe_count`]).
pub fn probe_rows() -> u64 {
    PROBE_ROWS.load(Ordering::Relaxed)
}

/// Zero the process-wide probe counters (benchmarks/tests).
pub fn reset_probe_count() {
    PROBES.store(0, Ordering::Relaxed);
    PROBE_ROWS.store(0, Ordering::Relaxed);
}

/// An imprints index over a type-erased column.
#[derive(Debug, Clone)]
pub enum ColumnImprints {
    /// Index over an `i8` column.
    I8(Imprints<i8>),
    /// Index over an `i16` column.
    I16(Imprints<i16>),
    /// Index over an `i32` column.
    I32(Imprints<i32>),
    /// Index over an `i64` column.
    I64(Imprints<i64>),
    /// Index over a `u8` column.
    U8(Imprints<u8>),
    /// Index over a `u16` column.
    U16(Imprints<u16>),
    /// Index over a `u32` column.
    U32(Imprints<u32>),
    /// Index over a `u64` column.
    U64(Imprints<u64>),
    /// Index over an `f32` column.
    F32(Imprints<f32>),
    /// Index over an `f64` column.
    F64(Imprints<f64>),
}

macro_rules! dispatch {
    ($self:expr, $imp:ident => $body:expr) => {
        match $self {
            ColumnImprints::I8($imp) => $body,
            ColumnImprints::I16($imp) => $body,
            ColumnImprints::I32($imp) => $body,
            ColumnImprints::I64($imp) => $body,
            ColumnImprints::U8($imp) => $body,
            ColumnImprints::U16($imp) => $body,
            ColumnImprints::U32($imp) => $body,
            ColumnImprints::U64($imp) => $body,
            ColumnImprints::F32($imp) => $body,
            ColumnImprints::F64($imp) => $body,
        }
    };
}

/// Tally one answered probe and the candidate rows it returned.
fn counted(cand: CandidateList) -> CandidateList {
    PROBES.fetch_add(1, Ordering::Relaxed);
    PROBE_ROWS.fetch_add(cand.num_rows() as u64, Ordering::Relaxed);
    cand
}

/// Translate an `f64` range onto `T`'s domain with inward rounding.
/// Returns `None` when the translated range is empty.
fn native_range<T: Native>(lo: f64, hi: f64) -> Option<(T, T)> {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return None;
    }
    let (lo, hi) = if T::IS_INT {
        let lo = lo.ceil();
        let hi = hi.floor();
        if lo > hi || lo > T::MAX_F || hi < T::MIN_F {
            return None;
        }
        (lo, hi)
    } else {
        (lo, hi)
    };
    Some((T::from_f64(lo.max(T::MIN_F)), T::from_f64(hi.min(T::MAX_F))))
}

impl ColumnImprints {
    /// Build an imprints index over `column`.
    pub fn build(column: &Column) -> Result<Self, StorageError> {
        Ok(match column {
            Column::I8(_) => ColumnImprints::I8(Imprints::build(column.as_slice()?)),
            Column::I16(_) => ColumnImprints::I16(Imprints::build(column.as_slice()?)),
            Column::I32(_) => ColumnImprints::I32(Imprints::build(column.as_slice()?)),
            Column::I64(_) => ColumnImprints::I64(Imprints::build(column.as_slice()?)),
            Column::U8(_) => ColumnImprints::U8(Imprints::build(column.as_slice()?)),
            Column::U16(_) => ColumnImprints::U16(Imprints::build(column.as_slice()?)),
            Column::U32(_) => ColumnImprints::U32(Imprints::build(column.as_slice()?)),
            Column::U64(_) => ColumnImprints::U64(Imprints::build(column.as_slice()?)),
            Column::F32(_) => ColumnImprints::F32(Imprints::build(column.as_slice()?)),
            Column::F64(_) => ColumnImprints::F64(Imprints::build(column.as_slice()?)),
        })
    }

    /// An index over `column` laid out on this index's bins, so that one
    /// probe range maps to the same bin masks on both: a table's
    /// append-only tail indexed the way its base is.
    pub fn build_like(&self, column: &Column) -> Result<Self, StorageError> {
        macro_rules! like {
            ($variant:ident, $imp:expr) => {
                ColumnImprints::$variant(Imprints::build_with_bins(
                    column.as_slice()?,
                    $imp.bins().clone(),
                ))
            };
        }
        Ok(match self {
            ColumnImprints::I8(i) => like!(I8, i),
            ColumnImprints::I16(i) => like!(I16, i),
            ColumnImprints::I32(i) => like!(I32, i),
            ColumnImprints::I64(i) => like!(I64, i),
            ColumnImprints::U8(i) => like!(U8, i),
            ColumnImprints::U16(i) => like!(U16, i),
            ColumnImprints::U32(i) => like!(U32, i),
            ColumnImprints::U64(i) => like!(U64, i),
            ColumnImprints::F32(i) => like!(F32, i),
            ColumnImprints::F64(i) => like!(F64, i),
        })
    }

    /// Probe with an inclusive `f64` range, rounding inward on integer
    /// columns.
    pub fn probe_f64(&self, lo: f64, hi: f64) -> CandidateList {
        counted(dispatch!(self, i => match native_range(lo, hi) {
            Some((l, h)) => i.probe(l, h),
            None => CandidateList::empty(),
        }))
    }

    /// [`Self::probe_f64`] restricted to the rows of `within`
    /// ([`Imprints::probe_within`]): the intersection, decoding only the
    /// groups `within` reaches.
    pub fn probe_within(&self, lo: f64, hi: f64, within: &CandidateList) -> CandidateList {
        counted(dispatch!(self, i => match native_range(lo, hi) {
            Some((l, h)) => i.probe_within(l, h, within),
            None => CandidateList::empty(),
        }))
    }

    /// Candidate rows the summary level alone reports for an `f64` range
    /// ([`Imprints::estimate`]).
    pub fn estimate_f64(&self, lo: f64, hi: f64) -> usize {
        dispatch!(self, i => native_range(lo, hi).map_or(0, |(l, h)| i.estimate(l, h)))
    }

    /// Extend the index with the rows of `column` beyond the already
    /// indexed prefix (incremental refresh after a table append — the
    /// column is the *full* post-append column, and rows `len()..` are
    /// new). Errs on a column whose physical type differs from the one
    /// the index was built over.
    ///
    /// The bin layout is fixed at build time; its edge bins are
    /// open-ended, so appended values outside the sampled domain still
    /// map to a bin and probes stay sound (supersets, no false
    /// negatives) — only selectivity can degrade.
    pub fn append_column(&mut self, column: &Column) -> Result<(), StorageError> {
        macro_rules! extend {
            ($imp:expr) => {{
                let s = column.as_slice()?;
                let from = $imp.len().min(s.len());
                $imp.append(&s[from..]);
            }};
        }
        match self {
            ColumnImprints::I8(i) => extend!(i),
            ColumnImprints::I16(i) => extend!(i),
            ColumnImprints::I32(i) => extend!(i),
            ColumnImprints::I64(i) => extend!(i),
            ColumnImprints::U8(i) => extend!(i),
            ColumnImprints::U16(i) => extend!(i),
            ColumnImprints::U32(i) => extend!(i),
            ColumnImprints::U64(i) => extend!(i),
            ColumnImprints::F32(i) => extend!(i),
            ColumnImprints::F64(i) => extend!(i),
        }
        Ok(())
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        dispatch!(self, i => i.len())
    }

    /// Whether the index covers no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index size in bytes.
    pub fn byte_size(&self) -> usize {
        dispatch!(self, i => i.byte_size())
    }

    /// Size/compression statistics.
    pub fn stats(&self) -> ImprintStats {
        dispatch!(self, i => ImprintStats::of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_storage::PhysicalType;

    #[test]
    fn build_over_every_column_type() {
        let cols = [
            Column::from_iter(0..100i8),
            Column::from_iter(0..100i16),
            Column::from_iter(0..100i32),
            Column::from_iter(0..100i64),
            Column::from_iter(0..100u8),
            Column::from_iter(0..100u16),
            Column::from_iter(0..100u32),
            Column::from_iter(0..100u64),
            Column::from_iter((0..100).map(|v| v as f32)),
            Column::from_iter((0..100).map(|v| v as f64)),
        ];
        for col in &cols {
            let imp = ColumnImprints::build(col).unwrap();
            assert_eq!(imp.len(), 100);
            let cand = imp.probe_f64(10.0, 20.0);
            // Soundness: rows 10..=20 must all be covered.
            for row in 10..=20 {
                assert!(cand.contains(row), "{:?} row {row}", col.ptype());
            }
        }
    }

    #[test]
    fn integer_inward_rounding() {
        assert_eq!(native_range::<i32>(2.3, 7.9), Some((3, 7)));
        assert_eq!(native_range::<i32>(2.3, 2.9), None);
        assert_eq!(native_range::<i32>(3.0, 3.0), Some((3, 3)));
        assert_eq!(native_range::<u8>(-10.0, 5.5), Some((0, 5)));
        assert_eq!(native_range::<u8>(300.0, 400.0), None);
        assert_eq!(native_range::<u8>(-5.0, -1.0), None);
        assert_eq!(native_range::<f64>(2.3, 7.9), Some((2.3, 7.9)));
        assert_eq!(native_range::<f64>(5.0, 4.0), None);
        assert_eq!(native_range::<f64>(f64::NAN, 4.0), None);
    }

    #[test]
    fn fractional_only_range_on_int_column_is_empty() {
        let col: Column = (0..1000i32).collect();
        let imp = ColumnImprints::build(&col).unwrap();
        assert!(imp.probe_f64(10.2, 10.8).is_empty());
        assert!(!imp.probe_f64(10.0, 10.0).is_empty());
    }

    #[test]
    fn append_column_refreshes_and_rejects_type_mismatch() {
        let mut col: Column = (0..100i32).collect();
        let mut imp = ColumnImprints::build(&col).unwrap();
        assert_eq!(imp.len(), 100);
        for v in 100..250i32 {
            col.push(lidardb_storage::Value::I64(v as i64));
        }
        imp.append_column(&col).unwrap();
        assert_eq!(imp.len(), 250);
        let cand = imp.probe_f64(150.0, 200.0);
        for row in 150..=200 {
            assert!(cand.contains(row), "appended row {row} must be covered");
        }
        // Probing the old domain still works.
        assert!(imp.probe_f64(10.0, 20.0).contains(15));
        // Wrong physical type is an error, not a silent corruption.
        let wrong: Column = (0..300i64).collect();
        assert!(imp.append_column(&wrong).is_err());
        assert_eq!(imp.len(), 250, "failed append leaves the index unchanged");
    }

    #[test]
    fn build_like_keeps_the_bins_and_covers_every_match() {
        let base: Column = (0..1000).map(f64::from).collect();
        let tail: Column = (0..300).map(|v| f64::from(v) * 5.0).collect();
        let imp = ColumnImprints::build(&base).unwrap();
        let like = imp.build_like(&tail).unwrap();
        let (ColumnImprints::F64(b), ColumnImprints::F64(t)) = (&imp, &like) else {
            panic!("f64 columns index as f64");
        };
        assert_eq!(t.bins(), b.bins());
        let fresh = Imprints::build_with_bins(tail.as_slice::<f64>().unwrap(), b.bins().clone());
        assert_eq!(t, &fresh);
        let cand = like.probe_f64(100.0, 200.0);
        for row in 20..=40 {
            assert!(cand.contains(row), "tail row {row} matches");
        }
        let wrong: Column = (0..10i64).collect();
        assert!(imp.build_like(&wrong).is_err(), "types must match");
    }

    #[test]
    fn stats_accessible_through_erased_index() {
        let col: Column = (0..100_000i64).collect();
        let imp = ColumnImprints::build(&col).unwrap();
        let s = imp.stats();
        assert!(s.overhead() > 0.0 && s.overhead() < 0.2);
        assert_eq!(imp.byte_size(), s.index_bytes);
    }

    #[test]
    fn empty_column_builds() {
        let col = Column::new(PhysicalType::F64);
        let imp = ColumnImprints::build(&col).unwrap();
        assert!(imp.is_empty());
        assert!(imp.probe_f64(0.0, 1.0).is_empty());
    }
}
