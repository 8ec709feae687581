//! The one read view of a point table. A flat cloud — plain, or streaming
//! and read at its committed snapshot — is a table with one always-resident
//! segment and no zone maps; a tiled cloud has one segment per tile, pruned
//! by zone map and loaded on demand. [`PointTable`] owns the only bodies of
//! the read path: governance, selection, the aggregate fold and the
//! resolution of row ids to the segments holding them.

use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lidardb_storage::for_each_variant;
use lidardb_storage::scan::AggState;

use crate::error::CoreError;
use crate::exec::{self, Parallelism};
use crate::governor::{self, AdmissionController, GovernCtx, Governed};
use crate::metrics::{MetricsRegistry, Stage};
use crate::pointcloud::PointCloud;
use crate::query::{Aggregate, AttrRange, Explain, RefineStrategy, Selection, SpatialPredicate};
use crate::segment::TiledCloud;
use crate::trace::{self, SpanKind};

/// A read view of a point table, whatever its storage. Cheap to copy.
#[derive(Debug, Clone, Copy)]
pub enum PointTable<'a> {
    /// A flat cloud — plain, or the read-locked side of a streaming one,
    /// queried at its committed snapshot.
    Flat(&'a PointCloud),
    /// A sealed tiled cloud.
    Tiled(&'a TiledCloud),
}

/// One storage segment of a point table: the whole flat cloud, or one
/// tile, pinned resident for as long as the value lives.
pub enum Segment<'r> {
    /// A flat or streaming table is a single segment.
    Whole(&'r PointCloud),
    /// A loaded tile of a tiled table.
    Tile(Arc<PointCloud>),
}

impl Deref for Segment<'_> {
    type Target = PointCloud;

    fn deref(&self) -> &PointCloud {
        match self {
            Segment::Whole(pc) => pc,
            Segment::Tile(pc) => pc,
        }
    }
}

/// A maximal slice of row ids living in one segment:
/// `(segment, global id of its first row, the ids)`.
pub type Run<'r> = (Segment<'r>, usize, &'r [usize]);

impl<'a> PointTable<'a> {
    /// Rows a scan may see: the committed snapshot of a streaming table
    /// (rows past the watermark are applied but unacknowledged), every row
    /// otherwise.
    pub fn visible_rows(&self) -> usize {
        match self {
            PointTable::Flat(pc) => pc.visible_rows(),
            PointTable::Tiled(tc) => tc.num_points(),
        }
    }

    /// The governance prologue ([`governor::govern`]) of one statement on
    /// this table: the table's admission controller and fault injector (a
    /// tiled table has the process-wide controller and none), `deadline`
    /// or else the table's default deadline, and `budget`. The returned
    /// [`Governed`] registers the statement as `detail` until dropped.
    pub fn govern(
        &self,
        detail: impl Into<String>,
        deadline: Option<Duration>,
        budget: Option<u64>,
    ) -> Result<Governed<'a>, CoreError> {
        let (admission, fault, default_deadline) = match *self {
            PointTable::Flat(pc) => pc.governance(),
            PointTable::Tiled(_) => (AdmissionController::global(), None, None),
        };
        governor::govern(
            admission,
            fault,
            detail,
            deadline.or(default_deadline),
            budget,
        )
    }

    /// [`Self::select`] under the table's own governance — the
    /// `select_query_with` of both cloud types.
    pub(crate) fn select_governed(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
    ) -> Result<Selection, CoreError> {
        let verb = match (self, pred) {
            (PointTable::Tiled(_), _) => "tiled select",
            (_, Some(SpatialPredicate::Within(_))) => "select within",
            (_, Some(SpatialPredicate::DWithin(..))) => "select dwithin",
            (_, None) => "select",
        };
        let g = self.govern(format!("{verb} ({} attr filters)", attrs.len()), None, None)?;
        self.select(pred, attrs, strategy, parallelism, &g.ctx)
    }

    /// The two-step selection under `ctx`: zone-map prune → per-segment
    /// imprint probe / exact scan / refine → row-offset merge, all inside
    /// one query — one `queries` tick, one root span with every tile's
    /// load and stage spans under it, one slow-log entry. Segments are
    /// visited in row order and morsels never straddle one, so the rows
    /// are global ids, ascending and identical at every worker count.
    pub fn select(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        ctx: &GovernCtx,
    ) -> Result<Selection, CoreError> {
        run_query(ctx, |root, explain| {
            let tc = match *self {
                // One always-resident segment, nothing to prune: its stages
                // write the explain and the rows directly.
                PointTable::Flat(pc) => {
                    return pc.query_stages(pred, attrs, strategy, parallelism, ctx, root, explain)
                }
                PointTable::Tiled(tc) => tc,
            };
            let tiles = tc.tiles();
            let mut preds: Vec<(&str, f64, f64)> = Vec::new();
            if let Some(env) = pred.and_then(|p| p.filter_envelope()) {
                preds.push(("x", env.min_x, env.max_x));
                preds.push(("y", env.min_y, env.max_y));
            }
            for a in attrs {
                preds.push((a.column.as_str(), a.lo, a.hi));
            }
            let survivors = tiles.prune(&preds);
            let (loads0, evictions0) = (tc.tile_loads(), tc.tile_evictions());
            let mut rows = Vec::new();
            for &t in &survivors {
                ctx.checkpoint("tile")?;
                let pc = tc.load_tile(t, ctx)?;
                let mut sub = Explain::default();
                let local =
                    pc.query_stages(pred, attrs, strategy, parallelism, ctx, root, &mut sub)?;
                let base = tiles.tiles[t].row_start;
                rows.extend(local.iter().map(|&r| r + base));
                merge_explain(explain, &sub);
            }
            explain.result_rows = rows.len();
            explain.tiles_total = tiles.len();
            explain.tiles_pruned = tiles.len() - survivors.len();
            explain.tiles_probed = survivors.len();
            // Cache-delta attribution is exact for single-threaded use and
            // approximate when queries run concurrently (the counters are
            // shared); the process-wide metrics stay exact either way.
            explain.tiles_loaded = (tc.tile_loads() - loads0) as usize;
            explain.tiles_evicted = (tc.tile_evictions() - evictions0) as usize;
            let metrics = MetricsRegistry::global();
            metrics.tiles_pruned.add(explain.tiles_pruned as u64);
            metrics.tiles_probed.add(explain.tiles_probed as u64);
            Ok(rows)
        })
    }

    /// Fold `column` over global row ids (any order; a repeated id counts
    /// each time) under `ctx`: each run goes through the engine's
    /// compensated aggregate kernel ([`crate::exec`]) and the per-run
    /// states merge in run order. A flat table folds the ids in the order
    /// given, as one run; a tiled table sorts ids that are not ascending
    /// first. `None` for an empty input, except `Count`.
    pub fn aggregate(
        &self,
        rows: &[usize],
        column: &str,
        agg: Aggregate,
        parallelism: Parallelism,
        ctx: &GovernCtx,
    ) -> Result<Option<f64>, CoreError> {
        if agg == Aggregate::Count {
            return Ok(Some(rows.len() as f64));
        }
        if rows.is_empty() {
            return Ok(None);
        }
        let mut sorted = Vec::new();
        if matches!(self, PointTable::Tiled(_)) && !rows.is_sorted() {
            sorted = rows.to_vec();
            sorted.sort_unstable();
        }
        let ids = if sorted.is_empty() { rows } else { &sorted };
        let workers = parallelism.workers();
        // Roots its own trace when called standalone; nests under the
        // caller's span when one is live on this thread.
        let mut agg_span = trace::span(SpanKind::Stage(Stage::Aggregate));
        agg_span.set_rows(rows.len() as u64, 1);
        let t0 = Instant::now();
        let mut state: Option<AggState> = None;
        for run in self.runs(ids) {
            let (seg, base, ids) = run?;
            let col = seg.column(column)?;
            if let Some(&bad) = ids.iter().find(|&&r| r - base >= col.len()) {
                return Err(CoreError::InvalidQuery(format!(
                    "row {bad} out of range in aggregate"
                )));
            }
            let st = for_each_variant!(col, v => exec::aggregate(v, ids, base, workers, ctx)?);
            match &mut state {
                Some(acc) => acc.merge(&st),
                None => state = Some(st),
            }
        }
        MetricsRegistry::global().record_stage(Stage::Aggregate, rows.len(), t0.elapsed());
        let state = state.expect("non-empty input has a run");
        Ok(Some(match agg {
            Aggregate::Count => unreachable!("handled above"),
            Aggregate::Sum => state.sum(),
            Aggregate::Avg => state.sum() / rows.len() as f64,
            Aggregate::Min => state.min,
            Aggregate::Max => state.max,
        }))
    }

    /// Resolve global row ids to the segments holding them: one run
    /// covering every id, in the order given, on a flat table; on a tiled
    /// one (ids ascending) one run per tile, loaded when the iterator
    /// reaches it and pinned resident — even across LRU evictions — until
    /// the run is dropped. Tile loads here are ungoverned. An id past the
    /// last row of a tiled table ends the iteration with an error.
    pub fn runs<'r>(
        &'r self,
        mut rows: &'r [usize],
    ) -> impl Iterator<Item = Result<Run<'r>, CoreError>> + 'r {
        std::iter::from_fn(move || {
            let first = *rows.first()?;
            let tc = match *self {
                PointTable::Flat(pc) => {
                    return Some(Ok((Segment::Whole(pc), 0, std::mem::take(&mut rows))))
                }
                PointTable::Tiled(tc) => tc,
            };
            let Some(t) = tc.tiles().tile_for_row(first) else {
                rows = &[];
                return Some(Err(CoreError::InvalidQuery(format!(
                    "row {first} out of range ({} rows)",
                    tc.num_points()
                ))));
            };
            let tile = &tc.tiles().tiles[t];
            let (head, tail) = rows.split_at(rows.partition_point(|&r| r < tile.row_end));
            rows = tail;
            Some(
                tc.load_tile(t, &GovernCtx::ungoverned())
                    .map(|pc| (Segment::Tile(pc), tile.row_start, head)),
            )
        })
    }

    /// Materialise one point by global row id (`None` past the end).
    pub fn record(&self, row: usize) -> Result<Option<lidardb_las::PointRecord>, CoreError> {
        let tc = match *self {
            PointTable::Flat(pc) => return Ok(pc.record(row)),
            PointTable::Tiled(tc) => tc,
        };
        let Some(t) = tc.tiles().tile_for_row(row) else {
            return Ok(None);
        };
        let pc = tc.load_tile(t, &GovernCtx::ungoverned())?;
        Ok(pc.record(row - tc.tiles().tiles[t].row_start))
    }
}

/// What makes one statement one query to every observer: tick `queries`,
/// open the root span, run `stages` (which fills the `Explain` as far as
/// it gets), and — when traced — enter the slow-query log once.
fn run_query(
    ctx: &GovernCtx,
    stages: impl FnOnce(&mut trace::SpanGuard, &mut Explain) -> Result<Vec<usize>, CoreError>,
) -> Result<Selection, CoreError> {
    MetricsRegistry::global().queries.inc();
    // Root span: records when tracing is active (process flag, thread
    // guard, enclosing span). Inert guards cost one relaxed load and two
    // TLS reads — the scan kernels never see a tracing branch.
    let mut root = trace::span(SpanKind::Query);
    let trace_id = root.trace_id();
    let mut explain = Explain::default();
    let result = stages(&mut root, &mut explain);
    // Failed queries still leave a trace: a cancelled one flags its root
    // span, and every traced query enters the slow log — a query someone
    // had to kill is exactly what the log exists to surface.
    match &result {
        Ok(_) => root.set_rows(explain.after_imprints as u64, explain.result_rows as u64),
        Err(CoreError::Cancelled { .. }) => root.add_flags(trace::FLAG_CANCELLED),
        Err(_) => {}
    }
    drop(root);
    if let Some(tid) = trace_id {
        trace::SlowQueryLog::global().record(trace::SlowQuery {
            trace_id: tid,
            seconds: ctx.token().elapsed().as_secs_f64(),
            queue_wait_seconds: ctx.queue_wait().as_secs_f64(),
            result_rows: result
                .as_ref()
                .map_or_else(|_| ctx.partial_rows(), Vec::len),
            explain: explain.clone(),
            spans: trace::Tracer::global().snapshot().for_trace(tid).spans,
        });
    }
    result.map(|rows| Selection {
        rows,
        explain,
        trace_id,
    })
}

/// Fold one tile's `Explain` into the merged tiled-query view: counts
/// sum, timings sum, workers take the max, morsel breakdowns concatenate.
fn merge_explain(into: &mut Explain, sub: &Explain) {
    into.after_imprints += sub.after_imprints;
    into.sure_rows += sub.sure_rows;
    into.after_bbox += sub.after_bbox;
    into.cells_inside += sub.cells_inside;
    into.cells_outside += sub.cells_outside;
    into.cells_boundary += sub.cells_boundary;
    into.exact_tests += sub.exact_tests;
    into.attr_probes += sub.attr_probes;
    into.degraded_probes += sub.degraded_probes;
    into.t_imprint_build += sub.t_imprint_build;
    into.t_imprints += sub.t_imprints;
    into.t_bbox += sub.t_bbox;
    into.t_refine += sub.t_refine;
    into.workers = into.workers.max(sub.workers);
    into.morsel_times.extend(sub.morsel_times.iter().copied());
}
