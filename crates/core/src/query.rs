//! The two-step spatial query engine (§3.3 of the paper).
//!
//! **Step 1 — filter.** The bbox of the query geometry is probed against
//! the X- and Y-column imprints, cheapest first, each later probe
//! restricted to the candidates of the ones before; candidate runs whose
//! imprints prove every value qualifies skip the exact check entirely, the
//! rest go through the 64-rows-per-mask bbox kernel.
//!
//! **Step 2 — refine.** For a non-rectangular geometry, a regular grid is
//! laid over the bbox, surviving points are binned to cells, every
//! *non-empty* cell is classified against the geometry in one step
//! (INSIDE → take all points, OUTSIDE → drop all), and only BOUNDARY
//! cells fall back to exact per-point predicate evaluation.
//!
//! [`PointCloud`] and [`crate::TiledCloud`] answer through the same six
//! entry points: `select`, `select_query_with` (the table's own
//! governance), `select_query_governed` (explicit deadline and budget),
//! `select_query_ctx` (a caller's [`GovernCtx`]), `aggregate` and
//! `aggregate_with`. Every query returns a [`Selection`] carrying its
//! [`Explain`] — cardinalities and wall-clock per operator, the breakdown
//! the demo shows its audience.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lidardb_geom::{
    classify_rect_dwithin, classify_rect_polygon, contains_point, dwithin_point, Envelope,
    Geometry, Point, RectClass,
};
use lidardb_storage::for_each_variant;
use lidardb_storage::scan::{self, CmpOp};

use crate::error::CoreError;
use crate::exec::{self, MorselTiming, Parallelism};
use crate::governor::{self, GovernCtx};
use crate::metrics::{MetricsRegistry, Stage};
use crate::pointcloud::PointCloud;
use crate::trace::{self, SpanKind};

/// Default refinement grid resolution (cells per axis).
pub const DEFAULT_GRID: usize = 64;

/// Largest accepted grid resolution per axis (the cell table is
/// `cells²` entries; this caps it at 16 MB of bucket heads).
pub const MAX_GRID: usize = 2048;

/// The spatial predicate of a query.
#[derive(Debug, Clone)]
pub enum SpatialPredicate {
    /// Points inside (or on the boundary of) the geometry.
    Within(Geometry),
    /// Points within `distance` of the geometry (`ST_DWithin`).
    DWithin(Geometry, f64),
}

impl SpatialPredicate {
    /// The bbox that bounds every possibly-matching point.
    pub fn filter_envelope(&self) -> Option<Envelope> {
        match self {
            SpatialPredicate::Within(g) => g.envelope(),
            SpatialPredicate::DWithin(g, d) => g.envelope().map(|e| e.buffered(*d)),
        }
    }

    /// Exact per-point test.
    #[inline]
    pub fn matches(&self, p: &Point) -> bool {
        match self {
            SpatialPredicate::Within(g) => contains_point(g, p),
            SpatialPredicate::DWithin(g, d) => dwithin_point(g, p, *d),
        }
    }

    /// One-step cell classification.
    pub(crate) fn classify_cell(&self, cell: &Envelope) -> RectClass {
        match self {
            SpatialPredicate::Within(g) => match g {
                Geometry::Polygon(pg) => classify_rect_polygon(cell, pg),
                Geometry::MultiPolygon(mp) => {
                    lidardb_geom::classify::classify_rect_multipolygon(cell, mp.polygons())
                }
                // Points/lines have no interior: every non-empty cell needs
                // per-point checks.
                _ => RectClass::Boundary,
            },
            SpatialPredicate::DWithin(g, d) => classify_rect_dwithin(cell, g, *d),
        }
    }

    /// Whether the predicate is exactly "inside this axis-aligned
    /// rectangle", making refinement unnecessary.
    fn is_pure_bbox(&self) -> Option<Envelope> {
        if let SpatialPredicate::Within(Geometry::Polygon(pg)) = self {
            if pg.holes().is_empty() && pg.exterior().vertices().len() == 4 {
                let env = pg.envelope();
                let on_env = |p: &Point| {
                    (p.x == env.min_x || p.x == env.max_x) && (p.y == env.min_y || p.y == env.max_y)
                };
                let v = pg.exterior().vertices();
                // Consecutive corners must share exactly one coordinate —
                // this rejects self-intersecting "bowtie" vertex orders,
                // whose region is NOT the bbox.
                let proper = (0..4).all(|i| {
                    let (a, b) = (&v[i], &v[(i + 1) % 4]);
                    (a.x == b.x) != (a.y == b.y)
                });
                if proper && v.iter().all(on_env) {
                    return Some(env);
                }
            }
        }
        None
    }
}

/// How step 2 is executed (the E4 ablation switches this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineStrategy {
    /// Regular-grid cell classification (the paper's approach).
    Grid {
        /// Cells per axis.
        cells: usize,
    },
    /// Regular grid with the resolution chosen from the candidate count
    /// (~128 candidates per cell, clamped to `8..=MAX_GRID` per axis) —
    /// the sweet spot the E4 ablation exposes, picked automatically.
    AdaptiveGrid,
    /// Exact predicate on every candidate point (no grid).
    Exhaustive,
    /// Stop after the bbox filter (returns a superset; used to measure
    /// the filter step alone).
    BboxOnly,
}

impl Default for RefineStrategy {
    fn default() -> Self {
        RefineStrategy::Grid {
            cells: DEFAULT_GRID,
        }
    }
}

/// Per-operator cardinalities and timings of one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Explain {
    /// Rows surviving the imprint filter (candidate superset).
    pub after_imprints: usize,
    /// Rows the imprints proved qualifying without data access.
    pub sure_rows: usize,
    /// Rows surviving the exact bbox check.
    pub after_bbox: usize,
    /// Non-empty grid cells classified INSIDE.
    pub cells_inside: usize,
    /// Non-empty grid cells classified OUTSIDE.
    pub cells_outside: usize,
    /// Non-empty grid cells classified BOUNDARY.
    pub cells_boundary: usize,
    /// Rows that needed an exact per-point predicate.
    pub exact_tests: usize,
    /// Number of attribute-range imprint probes that participated in the
    /// filter step (thematic pushdown).
    pub attr_probes: usize,
    /// Imprint probes that could not be served (the imprint failed to
    /// build) and were degraded to exact scanning. The result is still
    /// exact — only the pruning is lost.
    pub degraded_probes: usize,
    /// Final result cardinality.
    pub result_rows: usize,
    /// Wall-clock spent lazily *building* imprint indexes during this query
    /// (first query on a column only; zero on cache hits). Reported apart
    /// from `t_imprints` so first-query numbers don't skew the E-series
    /// filter measurements.
    pub t_imprint_build: f64,
    /// Wall-clock of the imprint probe + intersection, in seconds
    /// (probe-only: lazy index construction is in `t_imprint_build`).
    pub t_imprints: f64,
    /// Wall-clock of the exact bbox scan, in seconds.
    pub t_bbox: f64,
    /// Wall-clock of the refinement step, in seconds.
    pub t_refine: f64,
    /// Workers the filter/refine steps ran on (1 = one morsel, run inline
    /// on the calling thread).
    pub workers: usize,
    /// Per-morsel breakdown of the filter step (empty only when there were
    /// no candidates).
    pub morsel_times: Vec<MorselTiming>,
    /// Tiles in the tiled cloud the query planned over (0 = flat table).
    pub tiles_total: usize,
    /// Tiles eliminated by zone-map pruning before any imprint probe.
    pub tiles_pruned: usize,
    /// Tiles that survived pruning and were imprint-probed/scanned.
    pub tiles_probed: usize,
    /// Tile segments this query faulted in from disk (0 = all cache hits).
    pub tiles_loaded: usize,
    /// Tile segments the resident-budget LRU evicted while this query ran.
    pub tiles_evicted: usize,
}

impl Explain {
    /// Total measured time in seconds (including lazy index builds).
    pub fn total_seconds(&self) -> f64 {
        self.t_imprint_build + self.t_imprints + self.t_bbox + self.t_refine
    }

    /// Every deterministic counter as `(name, value)` pairs — cardinalities
    /// and probe counts, no timings. The differential suite asserts these
    /// are identical between serial and parallel runs of the same query.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("after_imprints", self.after_imprints as u64),
            ("sure_rows", self.sure_rows as u64),
            ("after_bbox", self.after_bbox as u64),
            ("cells_inside", self.cells_inside as u64),
            ("cells_outside", self.cells_outside as u64),
            ("cells_boundary", self.cells_boundary as u64),
            ("exact_tests", self.exact_tests as u64),
            ("attr_probes", self.attr_probes as u64),
            ("degraded_probes", self.degraded_probes as u64),
            ("result_rows", self.result_rows as u64),
        ]
    }

    /// Render the per-operator table the demo shows next to each query.
    pub fn to_table(&self) -> String {
        format!(
            "operator            rows        seconds\n\
             imprint build       -           {:.6}\n\
             imprint filter      {:<10}  {:.6}\n\
             exact bbox scan     {:<10}  {:.6}\n\
             grid refinement     {:<10}  {:.6}\n\
             (cells in/out/bnd)  {}/{}/{}\n\
             (sure rows)         {}\n\
             (exact pt tests)    {}\n\
             (attr probes)       {}\n\
             (degraded probes)   {}\n\
             (workers/morsels)   {}/{}\n\
             (tiles t/p/s/l/e)   {}/{}/{}/{}/{}",
            self.t_imprint_build,
            self.after_imprints,
            self.t_imprints,
            self.after_bbox,
            self.t_bbox,
            self.result_rows,
            self.t_refine,
            self.cells_inside,
            self.cells_outside,
            self.cells_boundary,
            self.sure_rows,
            self.exact_tests,
            self.attr_probes,
            self.degraded_probes,
            self.workers,
            self.morsel_times.len(),
            self.tiles_total,
            self.tiles_pruned,
            self.tiles_probed,
            self.tiles_loaded,
            self.tiles_evicted,
        )
    }
}

/// A query result: matching row ids plus the query's [`Explain`].
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Matching rows, ascending.
    pub rows: Vec<usize>,
    /// Per-operator cardinalities and timings.
    pub explain: Explain,
    /// The query's span-trace id, when it ran traced (see [`crate::trace`]):
    /// `Tracer::global().snapshot().for_trace(id)` yields its span tree.
    pub trace_id: Option<u64>,
}

/// An inclusive range predicate on one attribute column, expressed on the
/// `f64` domain (integer columns round the bounds inward).
///
/// Column imprints are not a spatial index — they index *any* column
/// (§2.1.1) — so thematic predicates like `classification = 6` or
/// `z BETWEEN 0 AND 10` are served by the same probe-and-intersect
/// machinery as the X/Y filter.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrRange {
    /// Column name in the flat table.
    pub column: String,
    /// Inclusive lower bound (`-inf` for one-sided predicates).
    pub lo: f64,
    /// Inclusive upper bound (`+inf` for one-sided predicates).
    pub hi: f64,
}

impl AttrRange {
    /// Convenience constructor.
    pub fn new(column: impl Into<String>, lo: f64, hi: f64) -> Self {
        AttrRange {
            column: column.into(),
            lo,
            hi,
        }
    }
}

/// What makes one statement one query to every observer, shared by the
/// flat and the tiled engine: tick `queries`, open the root span, run
/// `stages` (which fills the `Explain` as far as it gets), and — when
/// traced — enter the slow-query log once.
pub(crate) fn run_query(
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
            result_rows: result.as_ref().map_or_else(|_| ctx.partial_rows(), Vec::len),
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

impl PointCloud {
    /// Two-step spatial selection with the default grid refinement and
    /// worker policy, governed like [`Self::select_query_with`].
    pub fn select(&self, pred: &SpatialPredicate) -> Result<Selection, CoreError> {
        self.select_query_with(Some(pred), &[], RefineStrategy::default(), Parallelism::default())
    }

    /// The general entry point: an optional spatial predicate plus any
    /// number of attribute-range predicates, all served by imprints, under
    /// the cloud's own governance — its admission controller, fault
    /// injector and default deadline.
    ///
    /// Every referenced column gets a (lazily built) imprint; candidate
    /// lists are intersected before any data is touched; candidate runs
    /// the imprints prove fully qualifying skip the exact checks. Rows are
    /// identical at every worker count: morsels partition the candidates
    /// in row order and merge in morsel order (see [`crate::exec`]).
    pub fn select_query_with(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
    ) -> Result<Selection, CoreError> {
        let deadline = self.default_deadline();
        self.select_query_governed(pred, attrs, strategy, parallelism, deadline, None)
    }

    /// [`select_query_with`](Self::select_query_with) with explicit
    /// deadline / memory-budget overrides (`None` = ungoverned). The query
    /// still passes admission and the query registry (the shared
    /// [`governor::govern`] prologue).
    pub fn select_query_governed(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        deadline: Option<Duration>,
        budget: Option<u64>,
    ) -> Result<Selection, CoreError> {
        let detail = match pred {
            Some(SpatialPredicate::Within(_)) => "select within",
            Some(SpatialPredicate::DWithin(..)) => "select dwithin",
            None => "select",
        };
        let g = governor::govern(
            self.admission(),
            self.fault_injector(),
            format!("{detail} ({} attr filters)", attrs.len()),
            deadline,
            budget,
        )?;
        self.select_query_ctx(pred, attrs, strategy, parallelism, &g.ctx)
    }

    /// The engine under an explicit governance context, bypassing
    /// admission and the query registry — the seam for the SQL layer
    /// (which governs the whole statement), for deterministic cancellation
    /// tests (differential suite, fault injection) and for callers that
    /// manage their own [`crate::CancelToken`] lifecycle.
    pub fn select_query_ctx(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        ctx: &GovernCtx,
    ) -> Result<Selection, CoreError> {
        run_query(ctx, |root, explain| {
            self.query_stages(pred, attrs, strategy, parallelism, ctx, root, explain)
        })
    }

    /// The two-step pipeline proper: probes, exact scans, refinement.
    /// Returns the matching rows; `explain` is filled in as far as
    /// execution got (on cancellation it describes the completed prefix).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn query_stages(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        ctx: &GovernCtx,
        root: &mut trace::SpanGuard,
        explain: &mut Explain,
    ) -> Result<Vec<usize>, CoreError> {
        let metrics = MetricsRegistry::global();
        // The query's first checkpoint, before any work: an already-expired
        // deadline or pre-killed token cancels here with zero partial rows.
        // This is also the deterministic site the `Cancel`/`Stall` fault
        // rules target (site `"query"`) — it runs before any morsel is
        // split off, which is what lets the differential suite demand
        // byte-identical `Cancelled` errors at every worker count.
        ctx.checkpoint("query")?;
        // Snapshot isolation: the visibility watermark is captured ONCE,
        // before any probe. Batches a concurrent ingester applies (and
        // whose incrementally refreshed imprints may already cover) while
        // this query runs stay invisible — every stage below clamps its
        // candidates to this row count.
        let visible = self.visible_rows();
        let env = match pred {
            Some(p) => match p.filter_envelope() {
                Some(e) => Some(e),
                None => return Ok(Vec::new()), // empty geometry
            },
            None => None,
        };

        // ---- Step 1a: imprint probes, cheapest first. ----------------------
        // A probe whose imprint fails to build (corrupt input, injected
        // fault) degrades gracefully: that predicate contributes no
        // pruning and is enforced by the exact scans below instead.
        let mut probe_span = trace::span(SpanKind::Stage(Stage::ImprintProbe));
        let probes_before = if probe_span.is_recording() {
            lidardb_imprints::probe_count()
        } else {
            0
        };
        let t0 = Instant::now();
        let mut probes = Vec::with_capacity(2 + attrs.len());
        let mut degraded = 0usize;
        let mut build_secs = 0.0f64;
        let mut index = |name: &str, lo: f64, hi: f64| -> Result<bool, CoreError> {
            let (imp, b) = self.probe_index(name)?;
            build_secs += b;
            let found = imp.is_some();
            match imp {
                Some(imp) => probes.push((imp.estimate_f64(lo, hi), imp, lo, hi)),
                None => degraded += 1,
            }
            Ok(found)
        };
        // `x_probed`/`y_probed` matter for correctness: runs the candidate
        // list marks fully-qualifying skip a column's exact check, which is
        // only sound while that column's imprint took part.
        let (mut x_probed, mut y_probed) = (false, false);
        if let Some(env) = &env {
            x_probed = index("x", env.min_x, env.max_x)?;
            y_probed = index("y", env.min_y, env.max_y)?;
        }
        for a in attrs {
            if a.lo > a.hi {
                return Ok(Vec::new());
            }
            index(&a.column, a.lo, a.hi)?;
            explain.attr_probes += 1;
        }
        // Each later probe decodes only the imprint groups the running
        // candidate list reaches, so the most selective goes first; the
        // intersection does not depend on the order.
        probes.sort_by_key(|p| p.0);
        let mut cand: Option<lidardb_imprints::CandidateList> = None;
        for (_, imp, lo, hi) in &probes {
            cand = Some(match &cand {
                Some(c) => imp.probe_within(*lo, *hi, c),
                None => imp.probe_f64(*lo, *hi),
            });
        }
        explain.degraded_probes = degraded;
        let mut cand = match cand {
            Some(c) => c,
            None => {
                // No predicates at all: everything *visible* matches.
                let mut all = lidardb_imprints::CandidateList::empty();
                all.push(0, visible, true);
                all
            }
        };
        // The snapshot clamp: imprints refreshed mid-ingest can propose
        // rows past the watermark; they are cut before any exact scan, so
        // every worker count sees the identical candidate set.
        cand.clamp(visible);
        explain.after_imprints = cand.num_rows();
        explain.sure_rows = cand.num_sure_rows();
        explain.t_imprint_build = build_secs;
        // Probe-only: the lazy index builds above are reported separately.
        explain.t_imprints = (t0.elapsed().as_secs_f64() - build_secs).max(0.0);
        metrics.record_stage(
            Stage::ImprintProbe,
            explain.after_imprints,
            Duration::from_secs_f64(explain.t_imprints),
        );
        metrics.degraded_probes.add(degraded as u64);
        if probe_span.is_recording() {
            probe_span.set_rows(self.num_points() as u64, explain.after_imprints as u64);
            probe_span.set_aux(lidardb_imprints::probe_count() - probes_before);
            if degraded > 0 {
                probe_span.add_flags(trace::FLAG_DEGRADED);
                root.add_flags(trace::FLAG_DEGRADED);
            }
        }
        drop(probe_span);
        // Stage-boundary checkpoint: a deadline burnt entirely by lazy
        // imprint builds cancels here instead of starting the scans.
        ctx.checkpoint("imprint_probe")?;

        // ---- Step 1b: exact checks over candidate runs. --------------------
        let mut bbox_span = trace::span(SpanKind::Stage(Stage::BboxScan));
        let scan_rows_before = if bbox_span.is_recording() {
            scan::totals().1
        } else {
            0
        };
        let t0 = Instant::now();
        let (xs, ys) = if env.is_some() {
            (self.f64_column("x")?, self.f64_column("y")?)
        } else {
            (&[][..], &[][..])
        };
        let workers = parallelism.workers();
        let job = exec::FilterJob {
            pc: self,
            env: env.as_ref(),
            x_probed,
            y_probed,
            attrs,
            xs,
            ys,
            trace_ctx: bbox_span.ctx(),
            govern: ctx,
        };
        let mut rows = exec::filter(&job, &cand, workers, explain)?;
        explain.after_bbox = rows.len();
        explain.t_bbox = t0.elapsed().as_secs_f64();
        metrics.record_stage(
            Stage::BboxScan,
            explain.after_bbox,
            Duration::from_secs_f64(explain.t_bbox),
        );
        if bbox_span.is_recording() {
            bbox_span.set_rows(explain.after_imprints as u64, explain.after_bbox as u64);
            bbox_span.set_aux(scan::totals().1 - scan_rows_before);
        }
        drop(bbox_span);

        // ---- Step 2: spatial refinement. ------------------------------------
        let mut refine_span = if pred.is_some() {
            trace::span(SpanKind::Stage(Stage::GridRefine))
        } else {
            trace::inert()
        };
        let t0 = Instant::now();
        if let (Some(pred), Some(env)) = (pred, &env) {
            let pure_bbox = pred.is_pure_bbox().is_some();
            match strategy {
                RefineStrategy::BboxOnly => {}
                _ if pure_bbox => {} // bbox check was already exact
                RefineStrategy::Exhaustive => {
                    explain.exact_tests = rows.len();
                    exec::refine_exhaustive(pred, xs, ys, &mut rows, workers, ctx)?;
                }
                RefineStrategy::Grid { .. } | RefineStrategy::AdaptiveGrid => {
                    let cells = match strategy {
                        // Clamp the grid: the cell table is cells² entries,
                        // so an unbounded request would allocate without
                        // limit.
                        RefineStrategy::Grid { cells } => cells.clamp(1, MAX_GRID),
                        _ => ((rows.len() as f64 / 128.0).sqrt() as usize).clamp(8, MAX_GRID),
                    };
                    exec::refine_grid(pred, env, cells, xs, ys, &mut rows, explain, workers, ctx)?;
                }
            }
        }
        explain.t_refine = t0.elapsed().as_secs_f64();
        explain.result_rows = rows.len();
        if pred.is_some() {
            metrics.record_stage(
                Stage::GridRefine,
                explain.result_rows,
                Duration::from_secs_f64(explain.t_refine),
            );
        }
        refine_span.set_rows(explain.after_bbox as u64, explain.result_rows as u64);
        drop(refine_span);

        Ok(rows)
    }

    /// A column's imprint for probing, degrading to `None` (no pruning —
    /// the caller falls back to exact scans) when the imprint cannot be
    /// built. A nonexistent column is still a hard error. The second
    /// element is the wall-clock spent lazily building the index (zero on
    /// cache hits or failed builds).
    fn probe_index(
        &self,
        name: &str,
    ) -> Result<(Option<Arc<lidardb_imprints::ColumnImprints>>, f64), CoreError> {
        self.column(name)?;
        Ok(match self.imprints_for_timed(name) {
            Ok((imp, build)) => (Some(imp), build),
            Err(_) => (None, 0.0),
        })
    }

    /// Thematic refinement: keep rows whose `column` satisfies `op rhs`
    /// (e.g. `classification = 6`). Works on any numeric column; 64-bit
    /// integer columns are compared exactly in their native domain rather
    /// than widened to `f64`.
    pub fn filter_attr(
        &self,
        rows: &mut Vec<usize>,
        column: &str,
        op: CmpOp,
        rhs: f64,
    ) -> Result<(), CoreError> {
        let col = self.column(column)?;
        for_each_variant!(col, v => scan::refine_cmp_f64(v, rows, op, rhs));
        Ok(())
    }

    /// Aggregate a column over a selection with the default worker policy.
    /// Returns `None` for an empty selection (except `count`, which is
    /// always defined).
    ///
    /// `Sum`/`Avg` use compensated (Neumaier) summation over the typed
    /// column slice — no per-row boxing, and precision holds on multi-
    /// million-row selections.
    pub fn aggregate(
        &self,
        rows: &[usize],
        column: &str,
        agg: Aggregate,
    ) -> Result<Option<f64>, CoreError> {
        self.aggregate_with(rows, column, agg, Parallelism::default())
    }

    /// [`aggregate`](Self::aggregate) with an explicit worker-count policy:
    /// per-morsel accumulator states are merged in morsel order.
    pub fn aggregate_with(
        &self,
        rows: &[usize],
        column: &str,
        agg: Aggregate,
        parallelism: Parallelism,
    ) -> Result<Option<f64>, CoreError> {
        if agg == Aggregate::Count {
            return Ok(Some(rows.len() as f64));
        }
        if rows.is_empty() {
            return Ok(None);
        }
        let col = self.column(column)?;
        if let Some(&bad) = rows.iter().find(|&&r| r >= col.len()) {
            return Err(CoreError::InvalidQuery(format!(
                "row {bad} out of range in aggregate"
            )));
        }
        let workers = parallelism.workers();
        // Roots its own trace when called standalone; nests under the
        // caller's span when one is live on this thread.
        let mut agg_span = trace::span(SpanKind::Stage(Stage::Aggregate));
        agg_span.set_rows(rows.len() as u64, 1);
        let t0 = Instant::now();
        let state = for_each_variant!(col, v => {
            exec::aggregate(v, rows, workers, &GovernCtx::ungoverned())?
        });
        MetricsRegistry::global().record_stage(Stage::Aggregate, rows.len(), t0.elapsed());
        Ok(Some(match agg {
            Aggregate::Count => unreachable!("handled above"),
            Aggregate::Sum => state.sum(),
            Aggregate::Avg => state.sum() / rows.len() as f64,
            Aggregate::Min => state.min,
            Aggregate::Max => state.max,
        }))
    }
}

/// Aggregates supported over selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

/// Cell id of a point on the refinement grid laid over `env`.
#[inline]
pub(crate) fn grid_cell(env: &Envelope, w: f64, h: f64, cells: usize, x: f64, y: f64) -> usize {
    let cx = (((x - env.min_x) / w) * cells as f64) as usize;
    let cy = (((y - env.min_y) / h) * cells as f64) as usize;
    cy.min(cells - 1) * cells + cx.min(cells - 1)
}

/// The envelope of one grid cell (inverse of [`grid_cell`]'s binning).
pub(crate) fn grid_cell_env(env: &Envelope, w: f64, h: f64, cells: usize, cell: usize) -> Envelope {
    let cx = cell % cells;
    let cy = cell / cells;
    Envelope {
        min_x: env.min_x + w * cx as f64 / cells as f64,
        min_y: env.min_y + h * cy as f64 / cells as f64,
        max_x: env.min_x + w * (cx + 1) as f64 / cells as f64,
        max_y: env.min_y + h * (cy + 1) as f64 / cells as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_geom::Polygon;
    use lidardb_las::PointRecord;

    /// A 100x100 grid of points at integer coordinates.
    fn grid_cloud() -> PointCloud {
        let mut pc = PointCloud::new();
        let recs: Vec<PointRecord> = (0..100)
            .flat_map(|y| {
                (0..100).map(move |x| PointRecord {
                    x: x as f64,
                    y: y as f64,
                    z: (x + y) as f64 / 10.0,
                    classification: if x > 50 { 6 } else { 2 },
                    intensity: (x * y) as u16,
                    ..Default::default()
                })
            })
            .collect();
        pc.append_records(&recs).unwrap();
        pc
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialPredicate {
        SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(
            &Envelope::new(x0, y0, x1, y1).unwrap(),
        )))
    }

    fn brute(pc: &PointCloud, pred: &SpatialPredicate) -> Vec<usize> {
        let xs = pc.f64_column("x").unwrap();
        let ys = pc.f64_column("y").unwrap();
        (0..pc.num_points())
            .filter(|&i| pred.matches(&Point::new(xs[i], ys[i])))
            .collect()
    }

    #[test]
    fn bbox_select_matches_bruteforce() {
        let pc = grid_cloud();
        let pred = rect(10.0, 20.0, 30.5, 40.5);
        let sel = pc.select(&pred).unwrap();
        assert_eq!(sel.rows, brute(&pc, &pred));
        assert_eq!(sel.explain.result_rows, 21 * 21);
        assert!(sel.explain.after_imprints >= sel.explain.after_bbox);
        // Pure-bbox query needs no refinement work at all.
        assert_eq!(sel.explain.exact_tests, 0);
    }

    #[test]
    fn all_strategies_agree_on_polygon() {
        let pc = grid_cloud();
        let tri = SpatialPredicate::Within(Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(5.0, 5.0),
                Point::new(80.0, 10.0),
                Point::new(40.0, 90.0),
            ])
            .unwrap(),
        ));
        let expect = brute(&pc, &tri);
        for strat in [
            RefineStrategy::Grid { cells: 64 },
            RefineStrategy::Grid { cells: 7 },
            RefineStrategy::Grid { cells: 1 },
            RefineStrategy::AdaptiveGrid,
            RefineStrategy::Exhaustive,
        ] {
            let sel = pc.select_query_with(Some(&tri), &[], strat, Parallelism::default()).unwrap();
            let mut rows = sel.rows.clone();
            rows.sort_unstable();
            assert_eq!(rows, expect, "{strat:?}");
        }
        // BboxOnly returns a superset.
        let sup = pc.select_query_with(
            Some(&tri),
            &[],
            RefineStrategy::BboxOnly,
            Parallelism::default(),
        )
        .unwrap();
        assert!(sup.rows.len() >= expect.len());
        for r in &expect {
            assert!(sup.rows.contains(r));
        }
    }

    #[test]
    fn grid_skips_most_exact_tests() {
        let pc = grid_cloud();
        let big = SpatialPredicate::Within(Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(2.0, 2.0),
                Point::new(97.0, 3.0),
                Point::new(96.0, 95.0),
                Point::new(3.0, 96.0),
            ])
            .unwrap(),
        ));
        let grid = pc
            .select_query_with(
                Some(&big),
                &[],
                RefineStrategy::Grid { cells: 64 },
                Parallelism::default(),
            )
            .unwrap();
        let exhaustive = pc.select_query_with(
            Some(&big),
            &[],
            RefineStrategy::Exhaustive,
            Parallelism::default(),
        )
        .unwrap();
        assert_eq!(grid.rows.len(), exhaustive.rows.len());
        assert!(
            grid.explain.exact_tests < exhaustive.explain.exact_tests / 2,
            "grid {} vs exhaustive {} exact tests",
            grid.explain.exact_tests,
            exhaustive.explain.exact_tests
        );
        assert!(grid.explain.cells_inside > 0);
    }

    #[test]
    fn dwithin_selection() {
        let pc = grid_cloud();
        let road = Geometry::LineString(
            lidardb_geom::LineString::new(vec![Point::new(0.0, 50.0), Point::new(99.0, 50.0)])
                .unwrap(),
        );
        let pred = SpatialPredicate::DWithin(road, 3.0);
        let sel = pc.select(&pred).unwrap();
        assert_eq!(sel.rows, brute(&pc, &pred));
        // 7 rows of the grid (y in 47..=53).
        assert_eq!(sel.rows.len(), 7 * 100);
    }

    #[test]
    fn empty_and_miss_queries() {
        let pc = grid_cloud();
        let sel = pc.select(&rect(200.0, 200.0, 300.0, 300.0)).unwrap();
        assert!(sel.rows.is_empty());
        let empty_geom = SpatialPredicate::Within(Geometry::MultiPolygon(
            lidardb_geom::MultiPolygon::new(vec![]),
        ));
        assert!(pc.select(&empty_geom).unwrap().rows.is_empty());
    }

    #[test]
    fn thematic_filter_and_aggregates() {
        let pc = grid_cloud();
        let mut sel = pc.select(&rect(40.0, 0.0, 60.0, 99.0)).unwrap();
        pc.filter_attr(&mut sel.rows, "classification", CmpOp::Eq, 6.0)
            .unwrap();
        // x in 51..=60 after class filter: 10 columns x 100 rows.
        assert_eq!(sel.rows.len(), 1000);
        let avg_x = pc
            .aggregate(&sel.rows, "x", Aggregate::Avg)
            .unwrap()
            .unwrap();
        assert!((avg_x - 55.5).abs() < 1e-9);
        let count = pc
            .aggregate(&sel.rows, "z", Aggregate::Count)
            .unwrap()
            .unwrap();
        assert_eq!(count, 1000.0);
        let max_z = pc
            .aggregate(&sel.rows, "z", Aggregate::Max)
            .unwrap()
            .unwrap();
        assert!((max_z - (60.0 + 99.0) / 10.0).abs() < 1e-9);
        assert_eq!(
            pc.aggregate(&[], "z", Aggregate::Avg).unwrap(),
            None,
            "empty avg is NULL"
        );
        assert_eq!(
            pc.aggregate(&[], "z", Aggregate::Count).unwrap(),
            Some(0.0)
        );
    }

    #[test]
    fn explain_is_populated() {
        let pc = grid_cloud();
        let tri = SpatialPredicate::Within(Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(5.0, 5.0),
                Point::new(60.0, 10.0),
                Point::new(30.0, 70.0),
            ])
            .unwrap(),
        ));
        let sel = pc.select(&tri).unwrap();
        let e = &sel.explain;
        assert!(e.after_imprints >= e.after_bbox);
        assert!(e.after_bbox >= e.result_rows);
        assert!(e.cells_boundary > 0);
        assert!(e.total_seconds() >= 0.0);
        let table = e.to_table();
        assert!(table.contains("imprint filter"));
        assert!(table.contains("grid refinement"));
    }

    /// Regression: `to_table` silently omitted `attr_probes`, so the demo
    /// table under-reported the thematic pushdown. Render an `Explain` with
    /// a unique sentinel in every field and require each one to appear.
    #[test]
    fn to_table_renders_every_explain_field() {
        let e = Explain {
            after_imprints: 101,
            sure_rows: 211,
            after_bbox: 307,
            cells_inside: 401,
            cells_outside: 503,
            cells_boundary: 601,
            exact_tests: 701,
            attr_probes: 809,
            degraded_probes: 907,
            result_rows: 1009,
            t_imprint_build: 0.111213,
            t_imprints: 0.141516,
            t_bbox: 0.171819,
            t_refine: 0.212223,
            workers: 1103,
            morsel_times: vec![
                MorselTiming {
                    rows_in: 0,
                    rows_out: 0,
                    seconds: 0.0,
                };
                1201
            ],
            tiles_total: 1301,
            tiles_pruned: 1409,
            tiles_probed: 1511,
            tiles_loaded: 1601,
            tiles_evicted: 1709,
        };
        let table = e.to_table();
        for sentinel in [
            "101", "211", "307", "401", "503", "601", "701", "809", "907", "1009", "0.111213",
            "0.141516", "0.171819", "0.212223", "1103", "1201", "1301", "1409", "1511", "1601",
            "1709",
        ] {
            assert!(
                table.contains(sentinel),
                "field with sentinel {sentinel} missing from to_table():\n{table}"
            );
        }
        // `counters()` carries every deterministic count and no timing.
        let counters = e.counters();
        assert!(counters.contains(&("attr_probes", 809)));
        let values: Vec<u64> = counters.iter().map(|c| c.1).collect();
        assert_eq!(values, [101, 211, 307, 401, 503, 601, 701, 809, 907, 1009]);
    }

    #[test]
    fn attr_pushdown_matches_residual_filtering() {
        let pc = grid_cloud();
        let window = rect(20.0, 20.0, 70.0, 70.0);
        // Index-driven: spatial + classification + z range in one call.
        let sel = pc
            .select_query_with(
                Some(&window),
                &[
                    AttrRange::new("classification", 6.0, 6.0),
                    AttrRange::new("z", 8.0, 12.0),
                ],
                RefineStrategy::default(),
                Parallelism::default(),
            )
            .unwrap();
        assert_eq!(sel.explain.attr_probes, 2);
        // Oracle: spatial then exact filters.
        let mut oracle = pc.select(&window).unwrap().rows;
        pc.filter_attr(&mut oracle, "classification", CmpOp::Eq, 6.0)
            .unwrap();
        let zs = pc.f64_column("z").unwrap();
        oracle.retain(|&i| zs[i] >= 8.0 && zs[i] <= 12.0);
        assert_eq!(sel.rows, oracle);
        assert!(!sel.rows.is_empty());
        // The attr probes must have tightened the candidate set vs the
        // purely spatial filter.
        let spatial_only = pc.select(&window).unwrap();
        assert!(sel.explain.after_imprints <= spatial_only.explain.after_imprints);
    }

    #[test]
    fn attr_only_query_uses_imprints_without_spatial() {
        let pc = grid_cloud();
        let sel = pc
            .select_query_with(
                None,
                &[AttrRange::new("intensity", 100.0, 200.0)],
                RefineStrategy::default(),
                Parallelism::default(),
            )
            .unwrap();
        let ints = pc.column("intensity").unwrap().as_slice::<u16>().unwrap();
        let oracle: Vec<usize> = (0..pc.num_points())
            .filter(|&i| ints[i] >= 100 && ints[i] <= 200)
            .collect();
        assert_eq!(sel.rows, oracle);
        assert!(pc.has_imprints("intensity"), "lazy build on the attribute");
        assert!(!pc.has_imprints("x"), "x untouched without spatial");
        assert!(
            sel.explain.after_imprints < pc.num_points(),
            "imprints must prune"
        );
    }

    #[test]
    fn no_predicates_returns_everything() {
        let pc = grid_cloud();
        let sel = pc
            .select_query_with(None, &[], RefineStrategy::default(), Parallelism::default())
            .unwrap();
        assert_eq!(sel.rows.len(), pc.num_points());
    }

    #[test]
    fn inverted_attr_range_is_empty() {
        let pc = grid_cloud();
        let sel = pc
            .select_query_with(
                None,
                &[AttrRange::new("z", 10.0, 5.0)],
                RefineStrategy::default(),
                Parallelism::default(),
            )
            .unwrap();
        assert!(sel.rows.is_empty());
    }

    #[test]
    fn degraded_imprint_probe_falls_back_to_exact_scan() {
        use crate::fault::{FaultInjector, FaultKind, FaultStage};
        use std::sync::Arc;

        let tri = SpatialPredicate::Within(Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(5.0, 5.0),
                Point::new(80.0, 10.0),
                Point::new(40.0, 90.0),
            ])
            .unwrap(),
        ));
        let healthy = grid_cloud();
        let oracle = healthy.select(&tri).unwrap();
        assert_eq!(oracle.explain.degraded_probes, 0);

        // x imprint fails to build: the same query must return the same
        // rows, with the probe reported as degraded.
        let mut pc = grid_cloud();
        let fi = Arc::new(FaultInjector::new());
        fi.inject(FaultStage::ImprintBuild, Some("x"), FaultKind::IoError);
        pc.set_fault_injector(Arc::clone(&fi));
        let sel = pc.select(&tri).unwrap();
        assert_eq!(sel.rows, oracle.rows, "degraded x probe stays exact");
        assert_eq!(sel.explain.degraded_probes, 1);
        assert!(!pc.has_imprints("x"), "failed build is not cached");
        // The injected fault fired once; the next query rebuilds fine.
        let again = pc.select(&tri).unwrap();
        assert_eq!(again.explain.degraded_probes, 0);
        assert!(pc.has_imprints("x"));

        // Every imprint failing degrades to a correct full scan.
        let mut pc = grid_cloud();
        let fi = Arc::new(FaultInjector::new());
        fi.inject_n(FaultStage::ImprintBuild, None, FaultKind::IoError, 0, 99);
        pc.set_fault_injector(fi);
        let sel = pc
            .select_query_with(
                Some(&tri),
                &[AttrRange::new("classification", 2.0, 2.0)],
                RefineStrategy::default(),
                Parallelism::default(),
            )
            .unwrap();
        assert_eq!(sel.explain.degraded_probes, 3);
        assert_eq!(
            sel.explain.after_imprints,
            pc.num_points(),
            "no pruning at all: full-scan candidates"
        );
        let mut oracle = oracle.rows.clone();
        let class = pc.column("classification").unwrap();
        oracle.retain(|&i| class.get(i).unwrap().as_f64() == 2.0);
        assert_eq!(sel.rows, oracle);
        // Unknown columns are still hard errors, not degradation.
        assert!(pc
            .select_query_with(
                None,
                &[AttrRange::new("wibble", 0.0, 1.0)],
                RefineStrategy::default(),
                Parallelism::default(),
            )
            .is_err());
    }

    #[test]
    fn lazy_imprint_build_is_triggered_by_select() {
        let pc = grid_cloud();
        assert!(!pc.has_imprints("x") && !pc.has_imprints("y"));
        pc.select(&rect(0.0, 0.0, 5.0, 5.0)).unwrap();
        assert!(pc.has_imprints("x") && pc.has_imprints("y"));
    }

    /// Regression: the first query on a column used to charge the lazy
    /// imprint *build* to `t_imprints`, skewing every filter measurement.
    /// Build time now lands in `t_imprint_build` and `t_imprints` stays
    /// probe-only.
    #[test]
    fn t_imprints_is_probe_only_with_build_reported_separately() {
        let pc = grid_cloud();
        let window = rect(10.0, 10.0, 90.0, 90.0);
        let first = pc.select(&window).unwrap();
        assert!(
            first.explain.t_imprint_build > 0.0,
            "first query builds x and y imprints: {:?}",
            first.explain
        );
        let second = pc.select(&window).unwrap();
        assert_eq!(
            second.explain.t_imprint_build, 0.0,
            "cache hit: no build time"
        );
        assert_eq!(second.rows, first.rows);
        // total_seconds still accounts for the build.
        assert!(first.explain.total_seconds() >= first.explain.t_imprint_build);
        assert!(first.explain.to_table().contains("imprint build"));
    }

    /// Regression: `wave_offset` is u64; a range with bounds above 2^53
    /// must be evaluated in the native domain. `u64::MAX - 2048` rounds up
    /// onto the (exactly representable) bound `u64::MAX - 2047` in f64, so
    /// the old f64-domain comparison wrongly included it.
    #[test]
    fn attr_range_near_u64_max_is_exact_on_point_cloud() {
        let mut pc = PointCloud::new();
        let offs: [u64; 4] = [u64::MAX, u64::MAX - 2047, u64::MAX - 2048, 7];
        let recs: Vec<PointRecord> = offs
            .iter()
            .enumerate()
            .map(|(i, &wo)| PointRecord {
                x: i as f64,
                y: i as f64,
                wave_offset: wo,
                ..Default::default()
            })
            .collect();
        pc.append_records(&recs).unwrap();
        let lo = (u64::MAX - 2047) as f64;
        let sel = pc
            .select_query_with(
                None,
                &[AttrRange::new("wave_offset", lo, f64::INFINITY)],
                RefineStrategy::default(),
                Parallelism::default(),
            )
            .unwrap();
        assert_eq!(sel.rows, vec![0, 1], "row 2 is below the bound");
        // filter_attr takes the same exact path: no u64 equals 2^64.
        let mut rows = vec![0, 1, 2, 3];
        pc.filter_attr(&mut rows, "wave_offset", CmpOp::Eq, u64::MAX as f64)
            .unwrap();
        assert!(rows.is_empty(), "u64::MAX as f64 is 2^64, matching nothing");
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;
    use lidardb_geom::Polygon;
    use lidardb_las::PointRecord;

    fn cloud() -> PointCloud {
        let mut pc = PointCloud::new();
        let recs: Vec<PointRecord> = (0..20)
            .flat_map(|y| {
                (0..20).map(move |x| PointRecord {
                    x: x as f64,
                    y: y as f64,
                    ..Default::default()
                })
            })
            .collect();
        pc.append_records(&recs).unwrap();
        pc
    }

    #[test]
    fn bowtie_polygon_is_not_treated_as_bbox() {
        // Self-intersecting vertex order over the same four corners: the
        // region is two triangles, NOT the bounding box.
        let pc = cloud();
        let bowtie = Polygon::from_exterior(vec![
            Point::new(2.0, 2.0),
            Point::new(12.0, 12.0),
            Point::new(12.0, 2.0),
            Point::new(2.0, 12.0),
        ])
        .unwrap();
        let pred = SpatialPredicate::Within(Geometry::Polygon(bowtie.clone()));
        let grid = pc.select(&pred).unwrap();
        let exhaustive = pc
            .select_query_with(Some(&pred), &[], RefineStrategy::Exhaustive, Parallelism::default())
            .unwrap();
        assert_eq!(grid.rows, exhaustive.rows, "paths must agree");
        // And strictly fewer points than the bbox holds.
        let bbox_count = 11 * 11;
        assert!(grid.rows.len() < bbox_count, "{} rows", grid.rows.len());
        // Proper rectangles still take the fast path (no exact tests).
        let rect = SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(
            &Envelope::new(2.0, 2.0, 12.0, 12.0).unwrap(),
        )));
        let sel = pc.select(&rect).unwrap();
        assert_eq!(sel.rows.len(), bbox_count);
        assert_eq!(sel.explain.exact_tests, 0);
    }

    #[test]
    fn absurd_grid_request_is_clamped_not_oom() {
        let pc = cloud();
        let tri = SpatialPredicate::Within(Geometry::Polygon(
            Polygon::from_exterior(vec![
                Point::new(0.0, 0.0),
                Point::new(19.0, 0.0),
                Point::new(0.0, 19.0),
            ])
            .unwrap(),
        ));
        let sel = pc
            .select_query_with(
                Some(&tri),
                &[],
                RefineStrategy::Grid { cells: usize::MAX },
                Parallelism::default(),
            )
            .unwrap();
        let oracle = pc
            .select_query_with(Some(&tri), &[], RefineStrategy::Exhaustive, Parallelism::default())
            .unwrap();
        assert_eq!(sel.rows, oracle.rows);
    }

    // ---- Governance: cancellation, budgets, typed hostile-input errors. ----

    use std::sync::Arc;

    use crate::error::CancelReason;
    use crate::governor::{CancelToken, GovernCtx};

    /// A 100x100 grid of points (10 000 rows).
    fn grid_cloud() -> PointCloud {
        let mut pc = PointCloud::new();
        let recs: Vec<PointRecord> = (0..100)
            .flat_map(|y| {
                (0..100).map(move |x| PointRecord {
                    x: x as f64,
                    y: y as f64,
                    z: (x + y) as f64 / 10.0,
                    ..Default::default()
                })
            })
            .collect();
        pc.append_records(&recs).unwrap();
        pc
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> SpatialPredicate {
        SpatialPredicate::Within(Geometry::Polygon(Polygon::rectangle(
            &Envelope::new(x0, y0, x1, y1).unwrap(),
        )))
    }

    fn expect_cancelled(err: CoreError, want: CancelReason) -> usize {
        match err {
            CoreError::Cancelled {
                reason,
                partial_rows,
                ..
            } => {
                assert_eq!(reason, want);
                partial_rows
            }
            other => panic!("expected Cancelled({want:?}), got {other}"),
        }
    }

    #[test]
    fn pre_killed_token_cancels_with_zero_partial_rows() {
        let pc = grid_cloud();
        let token = CancelToken::new();
        token.kill();
        let ctx = GovernCtx::new(token, None);
        let err = pc
            .select_query_ctx(
                Some(&rect(0.0, 0.0, 99.0, 99.0)),
                &[],
                RefineStrategy::AdaptiveGrid,
                Parallelism::Serial,
                &ctx,
            )
            .unwrap_err();
        assert_eq!(expect_cancelled(err, CancelReason::Killed), 0);
    }

    #[test]
    fn expired_deadline_cancels_with_typed_error() {
        let pc = grid_cloud();
        let token = CancelToken::with(Some(std::time::Duration::from_nanos(1)), None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ctx = GovernCtx::new(token, None);
        let err = pc
            .select_query_ctx(
                Some(&rect(0.0, 0.0, 99.0, 99.0)),
                &[],
                RefineStrategy::AdaptiveGrid,
                Parallelism::Serial,
                &ctx,
            )
            .unwrap_err();
        expect_cancelled(err, CancelReason::Deadline);
    }

    #[test]
    fn mem_budget_trips_instead_of_materialising() {
        let pc = grid_cloud();
        // 64 bytes of budget cannot hold a 10 000-row selection vector.
        let token = CancelToken::with(None, Some(64));
        let ctx = GovernCtx::new(token, None);
        let err = pc
            .select_query_ctx(
                Some(&rect(0.0, 0.0, 99.0, 99.0)),
                &[],
                RefineStrategy::AdaptiveGrid,
                Parallelism::Serial,
                &ctx,
            )
            .unwrap_err();
        expect_cancelled(err, CancelReason::MemBudget);
        // An unbudgeted run of the same query succeeds.
        assert_eq!(
            pc.select(&rect(0.0, 0.0, 99.0, 99.0)).unwrap().rows.len(),
            10_000
        );
    }

    #[test]
    fn kill_query_via_registry_trips_registered_token() {
        let pc = grid_cloud();
        let token = CancelToken::new();
        let ctx = GovernCtx::new(token, None);
        let registry = crate::governor::QueryRegistry::global();
        let ticket = registry.register("test select", &ctx);
        assert!(registry.kill(ticket.id()), "id names a live query");
        let err = pc
            .select_query_ctx(
                Some(&rect(0.0, 0.0, 9.0, 9.0)),
                &[],
                RefineStrategy::AdaptiveGrid,
                Parallelism::Serial,
                &ctx,
            )
            .unwrap_err();
        expect_cancelled(err, CancelReason::Killed);
        drop(ticket);
        assert!(!registry.kill(crate::governor::QueryId(u64::MAX)));
    }

    #[test]
    fn cancel_fault_at_query_site_is_identical_serial_and_parallel() {
        // The "query" checkpoint runs before any morsel is split off, so a
        // Cancel fault there must yield byte-identical errors at any
        // worker count.
        let mut errs = Vec::new();
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let mut pc = grid_cloud();
            let fi = Arc::new(crate::fault::FaultInjector::new());
            fi.inject(
                crate::fault::FaultStage::QueryCheckpoint,
                Some("query"),
                crate::fault::FaultKind::Cancel,
            );
            pc.set_fault_injector(fi);
            let err = pc
                .select_query_with(
                    Some(&rect(0.0, 0.0, 99.0, 99.0)),
                    &[],
                    RefineStrategy::AdaptiveGrid,
                    par,
                )
                .unwrap_err();
            errs.push(err.to_string());
        }
        assert_eq!(errs[0], errs[1], "serial and parallel cancellations render identically");
        assert!(errs[0].contains("killed"), "cancel fault trips as a kill: {}", errs[0]);
    }

    #[test]
    fn hostile_query_inputs_are_typed_errors_not_panics() {
        let pc = grid_cloud();
        // Unknown attribute column: typed error, not a panic.
        let err = pc
            .select_query_with(
                None,
                &[AttrRange {
                    column: "no_such_column".into(),
                    lo: 0.0,
                    hi: 1.0,
                }],
                RefineStrategy::AdaptiveGrid,
                Parallelism::default(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("no_such_column"), "{err}");
        // Out-of-range rows handed to aggregate: typed error.
        let err = pc
            .aggregate(&[usize::MAX], "z", Aggregate::Sum)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidQuery(_)), "{err}");
        // Inverted attribute range: empty result, not a panic.
        let sel = pc
            .select_query_with(
                None,
                &[AttrRange {
                    column: "z".into(),
                    lo: 5.0,
                    hi: 1.0,
                }],
                RefineStrategy::AdaptiveGrid,
                Parallelism::default(),
            )
            .unwrap();
        assert!(sel.rows.is_empty());
    }
}
