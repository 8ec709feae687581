//! The one read view of a point table. A plain flat cloud is a table with
//! one always-resident segment and no zone maps; a streaming one, read at
//! its committed snapshot, has two — the sealed base and the append-only
//! tail; a tiled cloud has one segment per tile, pruned by zone map and
//! loaded on demand. [`PointTable`] owns the only bodies of
//! the read path: governance, selection, the aggregate fold and the
//! resolution of row ids to the segments holding them.

use std::cell::OnceCell;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use lidardb_las::{COLUMN_NAMES, NUM_COLUMNS};
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

/// A set of point-schema columns ([`lidardb_las::COLUMN_NAMES`]): the
/// columns a read needs resident. A flat table holds every column and
/// ignores the set; a tiled table faults in the ones a tile lacks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnSet(u32);

impl ColumnSet {
    /// No column.
    pub const EMPTY: ColumnSet = ColumnSet(0);
    /// Every column of the point schema.
    pub const ALL: ColumnSet = ColumnSet((1 << NUM_COLUMNS) - 1);

    /// The point columns among `names`; other names are left out.
    pub fn of<'n>(names: impl IntoIterator<Item = &'n str>) -> ColumnSet {
        let mut set = ColumnSet::EMPTY;
        for name in names {
            set.insert(name);
        }
        set
    }

    /// Add `name` when it is a point column.
    pub fn insert(&mut self, name: &str) {
        if let Some(i) = COLUMN_NAMES.iter().position(|c| *c == name) {
            self.0 |= 1 << i;
        }
    }

    /// The columns of `self` or `other`.
    pub fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// The columns of `self` not in `other`.
    pub fn without(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 & !other.0)
    }

    /// Whether the set holds no column.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Schema positions of the columns, ascending.
    pub fn indices(self) -> impl Iterator<Item = usize> {
        (0..NUM_COLUMNS).filter(move |i| self.0 & (1 << i) != 0)
    }

    /// Names of the columns, in schema order.
    pub fn names(self) -> impl Iterator<Item = &'static str> {
        self.indices().map(|i| COLUMN_NAMES[i])
    }
}

impl std::fmt::Display for ColumnSet {
    /// The names, comma-separated, in schema order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.names().collect::<Vec<_>>().join(","))
    }
}

/// A read view of a point table, whatever its storage. Cheap to copy.
#[derive(Debug, Clone, Copy)]
pub enum PointTable<'a> {
    /// A flat cloud — plain, or the read-locked side of a streaming one,
    /// queried at its committed snapshot.
    Flat(&'a PointCloud),
    /// A sealed tiled cloud.
    Tiled(&'a TiledCloud),
}

/// One storage segment of a point table: a flat cloud, a streaming
/// cloud's base or tail, or one tile, pinned resident for as long as the
/// value lives.
pub enum Segment<'r> {
    /// An always-resident segment of a flat or streaming table.
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
    /// load and stage spans under it, one slow-log entry. Segments — a flat
    /// cloud's one, a streaming cloud's base and tail, a tiled cloud's
    /// tiles — are visited in row order and morsels never straddle one, so
    /// the rows are global ids, ascending and identical at every worker
    /// count. The visibility watermark is read once, before any segment
    /// runs. A tile faults in the predicate columns only: `x` and `y` under
    /// a spatial predicate, and each attribute column.
    pub fn select(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        ctx: &GovernCtx,
    ) -> Result<Selection, CoreError> {
        run_query(ctx, |root, explain| {
            let visible = self.visible_rows();
            // The predicate's edge index and band table, shared by every
            // segment and built by the first one that filters.
            let prepared = OnceCell::new();
            let mut rows = Vec::new();
            // Run the stages on the first `seen` rows of segment `pc`,
            // whose first row is global row `start`.
            let mut stages =
                |pc: &PointCloud, start: usize, seen: usize, root: &mut trace::SpanGuard| {
                    let mut sub = Explain::default();
                    let local = pc.query_stages(
                        pred,
                        &prepared,
                        attrs,
                        strategy,
                        parallelism,
                        ctx,
                        seen,
                        root,
                        &mut sub,
                    );
                    explain.merge(&sub);
                    let mut local = local?;
                    if start > 0 {
                        local.iter_mut().for_each(|r| *r += start);
                    }
                    if rows.is_empty() {
                        rows = local;
                    } else {
                        rows.extend(local);
                    }
                    Ok::<_, CoreError>(())
                };
            match *self {
                // Always-resident segments, nothing to prune. The first one
                // always runs (it holds the query's first checkpoint); a
                // later one only when the snapshot reaches into it.
                PointTable::Flat(pc) => {
                    for (seg, start) in pc.segments() {
                        let seen = visible.saturating_sub(start).min(seg.segment_rows());
                        if start == 0 || seen > 0 {
                            stages(seg, start, seen, root)?;
                        }
                    }
                }
                PointTable::Tiled(tc) => {
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
                    let columns = ColumnSet::of(preds.iter().map(|p| p.0));
                    let (loads0, evictions0) = (tc.tile_loads(), tc.tile_evictions());
                    for &t in &survivors {
                        ctx.checkpoint("tile")?;
                        let pc = tc.load_tile(t, columns, ctx)?;
                        stages(&pc, tiles.tiles[t].row_start, pc.num_points(), root)?;
                    }
                    explain.tiles_total = tiles.len();
                    explain.tiles_pruned = tiles.len() - survivors.len();
                    explain.tiles_probed = survivors.len();
                    // Cache-delta attribution is exact for single-threaded
                    // use and approximate when queries run concurrently (the
                    // counters are shared); the process-wide metrics stay
                    // exact either way.
                    explain.tiles_loaded = (tc.tile_loads() - loads0) as usize;
                    explain.tiles_evicted = (tc.tile_evictions() - evictions0) as usize;
                    let metrics = MetricsRegistry::global();
                    metrics.tiles_pruned.add(explain.tiles_pruned as u64);
                    metrics.tiles_probed.add(explain.tiles_probed as u64);
                }
            }
            // The band table is the select's, not each segment's.
            if let Some(Some(shape)) = prepared.get() {
                shape.note_bands(explain);
            }
            Ok(rows)
        })
    }

    /// `agg` of `column` over global row ids under `ctx`: [`Self::fold`]'s
    /// state read out — `Count` is the number of ids and folds nothing,
    /// `Avg` is the compensated sum over that number. `None` for an empty
    /// input, except `Count`.
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
        let state = self.fold(rows, column, parallelism, ctx)?;
        Ok(state.map(|state| match agg {
            Aggregate::Count => unreachable!("answered above"),
            Aggregate::Sum => state.sum(),
            Aggregate::Avg => state.sum() / rows.len() as f64,
            Aggregate::Min => state.min,
            Aggregate::Max => state.max,
        }))
    }

    /// Fold `column` over global row ids (any order; a repeated id counts
    /// each time) under `ctx` into one compensated [`AggState`], from
    /// which every aggregate of the column reads: each run goes through
    /// the engine's aggregate kernel ([`crate::exec`]) and the per-run
    /// states merge in run order. A one-segment flat table folds the ids
    /// in the order given, as one run; a streaming or tiled table sorts ids
    /// that are not ascending first, and a tiled one faults in `column`
    /// only. `None` for an empty input.
    pub fn fold(
        &self,
        rows: &[usize],
        column: &str,
        parallelism: Parallelism,
        ctx: &GovernCtx,
    ) -> Result<Option<AggState>, CoreError> {
        if rows.is_empty() {
            return Ok(None);
        }
        let mut sorted = Vec::new();
        let segmented = match self {
            PointTable::Flat(pc) => pc.segments().count() > 1,
            PointTable::Tiled(_) => true,
        };
        if segmented && !rows.is_sorted() {
            sorted = rows.to_vec();
            sorted.sort_unstable();
        }
        let ids = if sorted.is_empty() { rows } else { &sorted };
        let workers = parallelism.workers();
        // Roots its own trace when called standalone; nests under the
        // caller's span when one is live on this thread.
        let mut stage = trace::stage(Stage::Aggregate);
        stage.set_rows(rows.len() as u64, 1);
        let mut state: Option<AggState> = None;
        for run in self.runs(ids, ColumnSet::of([column])) {
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
        stage.finish(rows.len());
        Ok(state)
    }

    /// Resolve global row ids to the segments holding them: one run
    /// covering every id, in the order given, on a one-segment flat table;
    /// otherwise (ids ascending) one run per segment: a streaming table's
    /// base and tail, or a tiled one's tiles, each tile holding at least
    /// `columns` (faulted in when the iterator reaches it) and pinned
    /// resident — even across LRU evictions — until the run is dropped. A run's
    /// segment may hold no other column. Tile loads here are ungoverned.
    /// An id past the last row of a tiled table ends the iteration with
    /// an error.
    pub fn runs<'r>(
        &'r self,
        mut rows: &'r [usize],
        columns: ColumnSet,
    ) -> impl Iterator<Item = Result<Run<'r>, CoreError>> + 'r {
        std::iter::from_fn(move || {
            let first = *rows.first()?;
            let tc = match *self {
                PointTable::Flat(pc) => {
                    // The last segment starting at or before `first`; the
                    // last one of all takes every id left.
                    let (seg, start) = pc.segments().take_while(|&(_, s)| s <= first).last()?;
                    let end = pc.segments().map(|(_, s)| s).find(|&s| s > first);
                    let split = end.map_or(rows.len(), |end| rows.partition_point(|&r| r < end));
                    let (head, tail) = rows.split_at(split);
                    rows = tail;
                    return Some(Ok((Segment::Whole(seg), start, head)));
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
                tc.load_tile(t, columns, &GovernCtx::ungoverned())
                    .map(|pc| (Segment::Tile(pc), tile.row_start, head)),
            )
        })
    }

    /// Materialise one point by global row id (`None` past the end); a
    /// tile faults in every column.
    pub fn record(&self, row: usize) -> Result<Option<lidardb_las::PointRecord>, CoreError> {
        let tc = match *self {
            PointTable::Flat(pc) => return Ok(pc.record(row)),
            PointTable::Tiled(tc) => tc,
        };
        let Some(t) = tc.tiles().tile_for_row(row) else {
            return Ok(None);
        };
        let pc = tc.load_tile(t, ColumnSet::ALL, &GovernCtx::ungoverned())?;
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
