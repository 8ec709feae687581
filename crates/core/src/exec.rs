//! Morsel-driven execution of the two-step query engine — the one place
//! rows are scanned, refined and aggregated.
//!
//! The imprint candidate list is partitioned into balanced row-range
//! *morsels* ([`lidardb_imprints::CandidateList::split_rows`]); workers pull
//! morsels off a shared counter and run the exact bbox scan, attribute
//! refines, and grid-refinement point tests independently; the per-morsel
//! selection vectors are then concatenated in morsel order. The bbox scan
//! is one mask kernel ([`lidardb_storage::scan::bbox_scan`]): each block
//! of 64 candidate rows becomes one `u64` of x-and-y compares and row ids
//! come only from its set bits; a run the imprints proved fully qualifying
//! skips the compare of every column whose probe took part. One worker, or
//! an input too small to split ([`MORSEL_MIN_ROWS`]), is one morsel run on
//! the calling thread: [`Parallelism::Serial`] is this engine with one
//! inline worker, not a second implementation.
//!
//! **Ordering guarantee.** Morsels partition the candidate rows in ascending
//! row order and every per-morsel kernel preserves the order of its input,
//! so the merged selection is identical — byte for byte — at every worker
//! count. The differential test suite (`crates/core/tests/differential.rs`)
//! enforces this, and checks the one-worker rows against a brute-force
//! reference, for every query shape in the engine's test suite.
//!
//! Kernel panics are contained with the same `catch_unwind` pattern as the
//! parallel loader and surface as [`CoreError::WorkerPanic`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lidardb_geom::{Envelope, Point, RectClass};
use lidardb_imprints::CandidateList;
use lidardb_storage::scan::{self, AggState};
use lidardb_storage::{for_each_variant, Native};

use crate::error::CoreError;
use crate::governor::{GovernCtx, CHECKPOINT_STRIDE};
use crate::pointcloud::PointCloud;
use crate::query::{grid_cell, grid_cell_env, AttrRange, Explain, SpatialPredicate};

/// Worker-count policy for query execution: passed per call to the
/// `select_query_*` and `aggregate_with` entry points of [`PointCloud`] and
/// `TiledCloud` (the shorthand `select`/`aggregate` use the default), and
/// plumbed through the SQL catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker, run inline on the calling thread.
    Serial,
    /// Exactly this many worker threads (clamped to at least 1).
    Threads(usize),
    /// One worker per available core.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this policy resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Minimum rows per morsel. An input with fewer than two morsels' worth of
/// rows stays one morsel — thread startup would dominate.
pub const MORSEL_MIN_ROWS: usize = 4096;

/// Cardinalities and wall-clock of one morsel of the filter step, folded
/// into [`Explain`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MorselTiming {
    /// Candidate rows handed to the morsel.
    pub rows_in: usize,
    /// Rows surviving the morsel's exact checks.
    pub rows_out: usize,
    /// Wall-clock the morsel spent on a worker, in seconds.
    pub seconds: f64,
}

/// Run `f(0..n)` on `workers` scoped threads pulling indexes off a shared
/// counter — or on the calling thread, with no `thread::scope`, when one
/// worker or one index is all there is — containing panics as
/// [`CoreError::WorkerPanic`]. Results come back in index order. Error
/// precedence: a [`CoreError::Cancelled`] wins (cancellation is the root
/// cause — remaining morsels all observe the tripped token), then panics —
/// aggregated so *every* panicked morsel is reported, not just the first —
/// then the first other error in index order.
fn run_indexed<T: Send>(
    workers: usize,
    n: usize,
    f: impl Fn(usize) -> Result<T, CoreError> + Sync,
) -> Result<Vec<T>, CoreError> {
    let run = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(i))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(CoreError::WorkerPanic(format!("query morsel {i}: {msg}")))
        }
    };
    let outcomes: Vec<Result<T, CoreError>> = if workers.min(n) <= 1 {
        (0..n).map(run).collect()
    } else {
        let mut slots: Vec<Option<Result<T, CoreError>>> = Vec::new();
        slots.resize_with(n, || None);
        let next = AtomicUsize::new(0);
        let slots_mutex = parking_lot::Mutex::new(&mut slots);
        std::thread::scope(|s| {
            for _ in 0..workers.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = run(i);
                    slots_mutex.lock()[i] = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled when the scope ends"))
            .collect()
    };
    let mut results = Vec::with_capacity(n);
    let mut panics: Vec<String> = Vec::new();
    let mut cancelled: Option<CoreError> = None;
    let mut other: Option<CoreError> = None;
    for outcome in outcomes {
        match outcome {
            Ok(t) => results.push(t),
            Err(e @ CoreError::Cancelled { .. }) => {
                if cancelled.is_none() {
                    cancelled = Some(e);
                }
            }
            Err(CoreError::WorkerPanic(m)) => panics.push(m),
            Err(e) => {
                if other.is_none() {
                    other = Some(e);
                }
            }
        }
    }
    if let Some(e) = cancelled {
        return Err(e);
    }
    if !panics.is_empty() {
        return Err(CoreError::WorkerPanic(panics.join("; ")));
    }
    if let Some(e) = other {
        return Err(e);
    }
    Ok(results)
}

/// Rows per morsel for `total` input rows: everything in one morsel when
/// there is one worker or fewer than two [`MORSEL_MIN_ROWS`] of input,
/// otherwise ~4 morsels per worker (so stragglers can be stolen) of at
/// least [`MORSEL_MIN_ROWS`].
fn morsel_size(total: usize, workers: usize) -> usize {
    if workers <= 1 || total < 2 * MORSEL_MIN_ROWS {
        total.max(1)
    } else {
        (total / (workers * 4)).max(MORSEL_MIN_ROWS)
    }
}

/// Concatenate per-morsel selections in morsel order. A single morsel's
/// vector is handed back as it is; several are copied once into a vector
/// sized for all of them.
fn concat(mut parts: Vec<Vec<usize>>) -> Vec<usize> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut rows = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        rows.extend(p);
    }
    rows
}

/// The read-only context shared by every filter morsel (step 1b).
pub(crate) struct FilterJob<'a> {
    pub pc: &'a PointCloud,
    pub env: Option<&'a Envelope>,
    /// Whether the x imprint participated in the candidate intersection
    /// (sure runs may skip the exact x check only if it did).
    pub x_probed: bool,
    /// The same for the y imprint.
    pub y_probed: bool,
    pub attrs: &'a [AttrRange],
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    /// The spawning query's bbox-scan span `(trace_id, span_id)` when it
    /// runs traced: workers adopt it so their morsel spans parent there.
    pub trace_ctx: Option<(u64, u64)>,
    /// The query's governance context; morsels checkpoint against it at
    /// [`CHECKPOINT_STRIDE`]-row boundaries.
    pub govern: &'a GovernCtx,
}

/// Step 1b: exact bbox scan + attribute refines over the candidate list,
/// one morsel at a time, merged in morsel order. Records the worker count
/// and per-morsel timings in `explain`.
pub(crate) fn filter(
    job: &FilterJob<'_>,
    cand: &CandidateList,
    workers: usize,
    explain: &mut Explain,
) -> Result<Vec<usize>, CoreError> {
    let morsels = cand.split_rows(morsel_size(cand.num_rows(), workers));
    explain.workers = if morsels.len() > 1 { workers } else { 1 };
    let results = run_indexed(workers, morsels.len(), |i| {
        let m = &morsels[i];
        // `_parent` is declared before the span so the span closes (and
        // records) while the adopted context is still in place.
        let _parent = job.trace_ctx.map(|(t, s)| crate::trace::adopt_parent(t, s));
        let mut mspan = crate::trace::span(crate::trace::SpanKind::Stage(
            crate::metrics::Stage::Morsel,
        ));
        let t0 = Instant::now();
        let mut rows: Vec<usize> = Vec::new();
        // Kernel work is tallied per run, outside the kernel (accumulators
        // inside it perturb its codegen; per-call atomics cost ~10% and
        // would contend across workers), and flushed once per morsel via
        // `scan::note_scans`.
        let (mut scan_calls, mut scan_rows) = (0u64, 0u64);
        // Cancellation checkpoints every CHECKPOINT_STRIDE candidate rows.
        // `since` carries across runs (candidate lists are often many short
        // runs that would never reach the stride one by one), and runs
        // longer than the stride (a degraded probe can hand one run
        // spanning the whole morsel) are split, so cancellation latency
        // stays bounded by the stride, not the run or morsel size. The
        // split is invisible to results: sub-ranges scan the same rows in
        // order.
        let mut since = 0usize;
        for r in m.ranges() {
            // A sure run skips the compare of every column whose imprint
            // took part; a degraded column is always compared.
            let (x, y) = match job.env {
                Some(env) => (
                    (!r.all_qualify || !job.x_probed).then_some((env.min_x, env.max_x)),
                    (!r.all_qualify || !job.y_probed).then_some((env.min_y, env.max_y)),
                ),
                None => (None, None),
            };
            if x.is_some() || y.is_some() {
                scan_calls += 1;
                scan_rows += r.len() as u64;
            }
            let mut s = r.start;
            while s < r.end {
                let e = r.end.min(s + (CHECKPOINT_STRIDE - since));
                scan::bbox_scan(job.xs, job.ys, s..e, x, y, &mut rows);
                since += e - s;
                s = e;
                if since >= CHECKPOINT_STRIDE {
                    since = 0;
                    if let Err(err) = job.govern.checkpoint("bbox_scan") {
                        mspan.add_flags(crate::trace::FLAG_CANCELLED);
                        return Err(err);
                    }
                }
            }
        }
        // Runs are ordered, so `rows` is sorted. Refine the attribute
        // predicates exactly.
        for a in job.attrs {
            scan_calls += 1;
            scan_rows += rows.len() as u64;
            // The bounds live on the `f64` query domain; integer columns
            // are compared in their native domain with inward-rounded
            // bounds, so predicates stay exact above 2^53.
            let col = job.pc.column(&a.column)?;
            for_each_variant!(col, v => scan::refine_range_f64(v, &mut rows, a.lo, a.hi));
        }
        // Selection materialisation is the morsel's memory footprint:
        // charge it (budget trips cancel the query) and record the rows
        // toward `partial_rows` before handing the morsel back.
        if let Err(err) = job
            .govern
            .charge((rows.len() * std::mem::size_of::<usize>()) as u64)
        {
            mspan.add_flags(crate::trace::FLAG_CANCELLED);
            return Err(err);
        }
        job.govern.add_rows(rows.len());
        scan::note_scans(scan_calls, scan_rows);
        let took = t0.elapsed();
        let metrics = crate::metrics::MetricsRegistry::global();
        metrics.record_stage(crate::metrics::Stage::Morsel, rows.len(), took);
        metrics.morsels.inc();
        mspan.set_rows(m.num_rows() as u64, rows.len() as u64);
        mspan.set_aux(scan_rows);
        drop(mspan);
        let timing = MorselTiming {
            rows_in: m.num_rows(),
            rows_out: rows.len(),
            seconds: took.as_secs_f64(),
        };
        Ok((rows, timing))
    })?;
    let (parts, timings): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    explain.morsel_times = timings;
    Ok(concat(parts))
}

/// Exhaustive refinement: the exact predicate on every candidate, one
/// morsel at a time, merged in order.
pub(crate) fn refine_exhaustive(
    pred: &SpatialPredicate,
    xs: &[f64],
    ys: &[f64],
    rows: &mut Vec<usize>,
    workers: usize,
    govern: &GovernCtx,
) -> Result<(), CoreError> {
    let chunks: Vec<&[usize]> = rows.chunks(morsel_size(rows.len(), workers)).collect();
    let kept = run_indexed(workers, chunks.len(), |i| {
        let mut out = Vec::new();
        // Exact point-in-polygon tests are the slowest per-row work in the
        // engine: checkpoint at stride boundaries.
        for sub in chunks[i].chunks(CHECKPOINT_STRIDE) {
            for &row in sub {
                if pred.matches(&Point::new(xs[row], ys[row])) {
                    out.push(row);
                }
            }
            govern.checkpoint("grid_refine")?;
        }
        Ok(out)
    })?;
    *rows = concat(kept);
    Ok(())
}

/// Regular-grid refinement over the candidate rows, in two passes over row
/// morsels: (1) compute each candidate's cell id; then classify every
/// non-empty cell once, on the calling thread (the table scan is cheap next
/// to the geometry tests); (2) dispatch each candidate by its cell class —
/// Inside keeps, Outside drops, Boundary runs the exact point test — and
/// merge kept rows in morsel order. Rows and `Explain` cell counts do not
/// depend on the worker count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_grid(
    pred: &SpatialPredicate,
    env: &Envelope,
    cells: usize,
    xs: &[f64],
    ys: &[f64],
    rows: &mut Vec<usize>,
    explain: &mut Explain,
    workers: usize,
    govern: &GovernCtx,
) -> Result<(), CoreError> {
    let w = env.width().max(f64::MIN_POSITIVE);
    let h = env.height().max(f64::MIN_POSITIVE);
    // The refinement working set: one u32 cell id per candidate plus one
    // class byte per cell. Charging up front converts a would-be OOM into a
    // budget cancellation.
    govern.charge((rows.len() * std::mem::size_of::<u32>() + cells * cells) as u64)?;
    let chunks: Vec<&[usize]> = rows.chunks(morsel_size(rows.len(), workers)).collect();
    // Pass 1: bin candidates to cells (cell ids fit u32: cells <= MAX_GRID).
    let cell_ids = run_indexed(workers, chunks.len(), |i| {
        let mut ids = Vec::with_capacity(chunks[i].len());
        for sub in chunks[i].chunks(CHECKPOINT_STRIDE) {
            ids.extend(
                sub.iter()
                    .map(|&row| grid_cell(env, w, h, cells, xs[row], ys[row]) as u32),
            );
            govern.checkpoint("grid_refine")?;
        }
        Ok(ids)
    })?;
    // Classify each non-empty cell exactly once.
    const EMPTY: u8 = 0;
    const PRESENT: u8 = 1;
    const INSIDE: u8 = 2;
    const OUTSIDE: u8 = 3;
    const BOUNDARY: u8 = 4;
    let mut class = vec![EMPTY; cells * cells];
    for ids in &cell_ids {
        for &c in ids {
            class[c as usize] = PRESENT;
        }
    }
    for (cell, slot) in class.iter_mut().enumerate() {
        if *slot != PRESENT {
            continue;
        }
        *slot = match pred.classify_cell(&grid_cell_env(env, w, h, cells, cell)) {
            RectClass::Inside => {
                explain.cells_inside += 1;
                INSIDE
            }
            RectClass::Outside => {
                explain.cells_outside += 1;
                OUTSIDE
            }
            RectClass::Boundary => {
                explain.cells_boundary += 1;
                BOUNDARY
            }
        };
    }
    // Pass 2: dispatch candidates by cell class.
    let results = run_indexed(workers, chunks.len(), |i| {
        let mut out = Vec::new();
        let mut tests = 0usize;
        let mut since = 0usize;
        for (&row, &c) in chunks[i].iter().zip(&cell_ids[i]) {
            match class[c as usize] {
                INSIDE => out.push(row),
                OUTSIDE => {}
                BOUNDARY => {
                    tests += 1;
                    if pred.matches(&Point::new(xs[row], ys[row])) {
                        out.push(row);
                    }
                }
                _ => unreachable!("present cells were classified"),
            }
            since += 1;
            if since >= CHECKPOINT_STRIDE {
                since = 0;
                govern.checkpoint("grid_refine")?;
            }
        }
        Ok((out, tests))
    })?;
    let (kept, tests): (Vec<_>, Vec<usize>) = results.into_iter().unzip();
    explain.exact_tests += tests.iter().sum::<usize>();
    *rows = concat(kept);
    Ok(())
}

/// Aggregation over a typed slice: per-morsel compensated-sum states,
/// merged in morsel order (one morsel's state is returned as it is).
pub(crate) fn aggregate<T: Native>(
    data: &[T],
    rows: &[usize],
    workers: usize,
    govern: &GovernCtx,
) -> Result<AggState, CoreError> {
    let chunks: Vec<&[usize]> = rows.chunks(morsel_size(rows.len(), workers)).collect();
    let states = run_indexed(workers, chunks.len(), |i| {
        // Sub-chunks accumulate into one state sequentially, which pushes
        // the same values in the same order as one whole-morsel pass — the
        // compensated sum is bit-identical, checkpoints or not.
        let mut st = AggState::default();
        for sub in chunks[i].chunks(CHECKPOINT_STRIDE) {
            for &r in sub {
                st.push(data[r].to_f64());
            }
            govern.checkpoint("aggregate")?;
        }
        Ok(st)
    })?;
    Ok(states
        .into_iter()
        .reduce(|mut acc, s| {
            acc.merge(&s);
            acc
        })
        .unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolves_workers() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn run_indexed_preserves_order_and_first_error() {
        let out = run_indexed(4, 100, |i| Ok::<usize, CoreError>(i * 2)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());

        let err = run_indexed(4, 10, |i| {
            if i >= 3 {
                Err(CoreError::InvalidQuery(format!("boom {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        // First failing index in order, regardless of completion order.
        assert!(matches!(err, CoreError::InvalidQuery(ref m) if m == "boom 3"), "{err}");
    }

    #[test]
    fn run_indexed_contains_worker_panics() {
        let err = run_indexed(3, 8, |i| {
            if i == 5 {
                panic!("injected panic in morsel {i}");
            }
            Ok::<usize, CoreError>(i)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("morsel 5"), "{msg}");
                assert!(msg.contains("injected panic"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    /// Regression: multiple panicked morsels must *all* be reported, not
    /// just the first in index order.
    #[test]
    fn run_indexed_aggregates_all_panics() {
        let err = run_indexed(4, 10, |i| {
            if i == 2 || i == 7 {
                panic!("boom morsel {i}");
            }
            Ok::<usize, CoreError>(i)
        })
        .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("morsel 2"), "{msg}");
                assert!(msg.contains("morsel 7"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    #[test]
    fn run_indexed_prefers_cancelled_over_panics() {
        use crate::error::CancelReason;
        let err = run_indexed(2, 6, |i| {
            if i == 0 {
                panic!("worker panicked");
            }
            Err::<usize, _>(CoreError::Cancelled {
                reason: CancelReason::Killed,
                elapsed: std::time::Duration::ZERO,
                partial_rows: 0,
            })
        })
        .unwrap_err();
        assert!(
            matches!(err, CoreError::Cancelled { .. }),
            "cancellation is the root cause, got {err}"
        );
    }

    #[test]
    fn morsel_size_splits_only_with_workers_and_enough_rows() {
        assert_eq!(morsel_size(1_000_000, 4), 62_500);
        assert_eq!(morsel_size(2 * MORSEL_MIN_ROWS, 8), MORSEL_MIN_ROWS);
        // One worker, or under two minimum morsels: a single morsel.
        assert_eq!(morsel_size(1_000_000, 1), 1_000_000);
        let small = 2 * MORSEL_MIN_ROWS - 1;
        assert_eq!(morsel_size(small, 8), small);
        assert_eq!(morsel_size(0, 8), 1, "chunk sizes must be non-zero");
    }

    #[test]
    fn run_indexed_stays_on_the_calling_thread_for_one_worker_or_one_index() {
        let caller = std::thread::current().id();
        let on_caller = |_| Ok::<bool, CoreError>(std::thread::current().id() == caller);
        assert_eq!(run_indexed(1, 5, on_caller).unwrap(), vec![true; 5]);
        assert_eq!(run_indexed(8, 1, on_caller).unwrap(), vec![true]);
        assert!(run_indexed(8, 0, on_caller).unwrap().is_empty());
        assert_eq!(run_indexed(2, 2, on_caller).unwrap(), vec![false; 2]);
        // Inline runs contain panics and rank errors like threaded ones.
        let err = run_indexed(1, 3, |i| {
            if i == 1 {
                panic!("inline boom");
            }
            Ok::<usize, CoreError>(i)
        })
        .unwrap_err();
        assert!(
            matches!(err, CoreError::WorkerPanic(ref m) if m.contains("morsel 1") && m.contains("inline boom")),
            "{err}"
        );
    }
}
