//! The two-step spatial query engine (§3.3 of the paper).
//!
//! **Step 1 — filter.** The bbox of the query geometry is probed against
//! the X- and Y-column imprints, cheapest first, each later probe
//! restricted to the candidates of the ones before; candidate runs whose
//! imprints prove every value qualifies skip the envelope compares, and
//! every run goes through the 64-rows-per-mask kernel: envelope compares,
//! pushed-down attribute ranges, and the band table of the geometry's
//! shape ([`lidardb_geom::Bands`]), which drops the points of the
//! envelope that lie far from the feature along its long axis.
//!
//! **Step 2 — refine.** For a non-rectangular geometry, a grid of about
//! `cells²` square cells is laid over the bbox, surviving points are
//! binned to cells, every *non-empty* cell is classified against the
//! geometry in one step (INSIDE → take all points, OUTSIDE → drop all),
//! and only BOUNDARY cells fall back to exact per-point predicate
//! evaluation. Cells and points are tested against the geometry's
//! [`lidardb_geom::PreparedGeometry`] — its edges binned by y-interval.
//! The prepared geometry and the band table are built at most once per
//! select (`PreparedShape`), charged to the statement's memory budget
//! before they are built.
//!
//! Reads of every table shape go through one view,
//! [`crate::table::PointTable`]; [`PointCloud`] keeps `select`,
//! `select_query_with` and `aggregate` as one-line calls into it. Every
//! query returns a [`Selection`] carrying its [`Explain`] — cardinalities
//! and wall-clock per operator, the breakdown the demo shows its audience.

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Duration;

use lidardb_geom::{
    contains_point, dwithin_point, Axis, Bands, Envelope, Geometry, Point, PreparedGeometry,
    Relation,
};
use lidardb_storage::for_each_variant;
use lidardb_storage::scan::{self, AttrMask};

use crate::error::CoreError;
use crate::exec::{self, MorselTiming, Parallelism};
use crate::governor::GovernCtx;
use crate::metrics::{MetricsRegistry, Stage};
use crate::pointcloud::PointCloud;
use crate::table::PointTable;
use crate::trace;

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

    /// Exact per-point test: the per-call reference. Refinement answers
    /// the same question through the geometry's
    /// [`PreparedGeometry`], built once per select.
    #[inline]
    pub fn matches(&self, p: &Point) -> bool {
        match self {
            SpatialPredicate::Within(g) => contains_point(g, p),
            SpatialPredicate::DWithin(g, d) => dwithin_point(g, p, *d),
        }
    }

    /// The geometry and the relation refinement evaluates through the
    /// geometry's prepared form.
    pub(crate) fn relation(&self) -> (&Geometry, Relation) {
        match self {
            SpatialPredicate::Within(g) => (g, Relation::Within),
            SpatialPredicate::DWithin(g, d) => (g, Relation::DWithin(*d)),
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

/// A select's predicate geometry, prepared once and shared by every
/// segment: the edge index refinement tests cells and points through, and
/// the filter's band table when one pays.
#[derive(Debug)]
pub(crate) struct PreparedShape {
    geom: PreparedGeometry,
    rel: Relation,
    bands: Option<Bands>,
}

impl PreparedShape {
    /// Prepare `pred` for a select whose filter envelope is `env`,
    /// charging `ctx` for the edge copies and the band table before
    /// building either. `None` when refinement tests nothing — a pure
    /// rectangle, or a `BboxOnly` select — which then filters by its
    /// envelope alone.
    pub(crate) fn new(
        pred: &SpatialPredicate,
        strategy: RefineStrategy,
        env: &Envelope,
        ctx: &GovernCtx,
    ) -> Result<Option<PreparedShape>, CoreError> {
        if strategy == RefineStrategy::BboxOnly || pred.is_pure_bbox().is_some() {
            return Ok(None);
        }
        let (g, rel) = pred.relation();
        ctx.charge(PreparedGeometry::build_bytes(g))?;
        let geom = PreparedGeometry::new(g);
        let bands = match Bands::layout(&geom, rel, env) {
            Some(layout) => {
                ctx.charge(layout.bytes() as u64)?;
                Bands::build(&geom, &layout)
            }
            None => None,
        };
        Ok(Some(PreparedShape { geom, rel, bands }))
    }

    /// Record the band table's size in `explain`.
    pub(crate) fn note_bands(&self, explain: &mut Explain) {
        match self.bands.as_ref().map(|b| (b.axis(), b.len())) {
            Some((Axis::X, n)) => explain.bands_x = n,
            Some((Axis::Y, n)) => explain.bands_y = n,
            None => {}
        }
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
    /// Tiles this query faulted in that were not resident (0 = every
    /// tile was resident; columns added to a resident tile do not count).
    pub tiles_loaded: usize,
    /// Tile segments the resident-budget LRU evicted while this query ran.
    pub tiles_evicted: usize,
    /// Bands of the filter's band table cutting x (each holding a
    /// y-interval); 0 when the select built none.
    pub bands_x: usize,
    /// The same for a table cutting y.
    pub bands_y: usize,
    /// Columns of the refinement grid (summed over the segments that laid
    /// one).
    pub grid_nx: usize,
    /// Rows of the refinement grid (summed likewise).
    pub grid_ny: usize,
}

impl Explain {
    /// Fold another segment's or probe's `Explain` into this one: counts
    /// (band and grid sizes included) and timings sum, workers take the
    /// max, morsel breakdowns concatenate. Tile counters are the caller's.
    pub fn merge(&mut self, sub: &Explain) {
        self.after_imprints += sub.after_imprints;
        self.sure_rows += sub.sure_rows;
        self.after_bbox += sub.after_bbox;
        self.result_rows += sub.result_rows;
        self.cells_inside += sub.cells_inside;
        self.cells_outside += sub.cells_outside;
        self.cells_boundary += sub.cells_boundary;
        self.exact_tests += sub.exact_tests;
        self.attr_probes += sub.attr_probes;
        self.degraded_probes += sub.degraded_probes;
        self.t_imprint_build += sub.t_imprint_build;
        self.t_imprints += sub.t_imprints;
        self.t_bbox += sub.t_bbox;
        self.t_refine += sub.t_refine;
        self.bands_x += sub.bands_x;
        self.bands_y += sub.bands_y;
        self.grid_nx += sub.grid_nx;
        self.grid_ny += sub.grid_ny;
        self.workers = self.workers.max(sub.workers);
        self.morsel_times.extend(sub.morsel_times.iter().copied());
    }

    /// Total measured time in seconds (including lazy index builds).
    pub fn total_seconds(&self) -> f64 {
        self.t_imprint_build + self.t_imprints + self.t_bbox + self.t_refine
    }

    /// Render the per-operator table the demo shows next to each query.
    pub fn to_table(&self) -> String {
        format!(
            "operator            rows        seconds\n\
             imprint build       -           {:.6}\n\
             imprint filter      {:<10}  {:.6}\n\
             exact bbox scan     {:<10}  {:.6}\n\
             (bands x/y)         {}/{}\n\
             grid refinement     {:<10}  {:.6}\n\
             (grid nx x ny)      {}x{}\n\
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
            self.bands_x,
            self.bands_y,
            self.result_rows,
            self.t_refine,
            self.grid_nx,
            self.grid_ny,
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

impl PointCloud {
    /// Two-step spatial selection with the default grid refinement and
    /// worker policy, governed like [`Self::select_query_with`].
    pub fn select(&self, pred: &SpatialPredicate) -> Result<Selection, CoreError> {
        self.select_query_with(
            Some(pred),
            &[],
            RefineStrategy::default(),
            Parallelism::default(),
        )
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
        PointTable::Flat(self).select_governed(pred, attrs, strategy, parallelism)
    }

    /// The two-step pipeline proper over this segment's first `visible`
    /// rows: probes, exact scans, refinement. Returns the matching rows,
    /// segment-local; `explain` is filled in as far as execution got (on
    /// cancellation it describes the completed prefix). `prepared` holds
    /// the predicate's [`PreparedShape`]: the first segment that filters
    /// builds it, later ones reuse it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn query_stages(
        &self,
        pred: Option<&SpatialPredicate>,
        prepared: &OnceCell<Option<PreparedShape>>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        ctx: &GovernCtx,
        visible: usize,
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
        // Snapshot isolation: `visible` is this segment's share of the
        // watermark the query captured once, before any segment ran. Rows
        // past it are applied but unacknowledged (their incrementally
        // refreshed imprints may already cover them) — every stage below
        // clamps its candidates to this row count.
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
        let mut probe = trace::stage(Stage::ImprintProbe);
        let probes_before = if probe.is_recording() {
            lidardb_imprints::probe_count()
        } else {
            0
        };
        let mut probes = Vec::with_capacity(2 + attrs.len());
        let mut degraded = 0usize;
        let mut built = Duration::ZERO;
        let mut index = |name: &str, lo: f64, hi: f64| -> Result<bool, CoreError> {
            let (imp, b) = self.probe_index(name)?;
            built += b;
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
        explain.t_imprint_build = built.as_secs_f64();
        metrics.degraded_probes.add(degraded as u64);
        if probe.is_recording() {
            probe.set_rows(self.segment_rows() as u64, explain.after_imprints as u64);
            probe.set_aux(lidardb_imprints::probe_count() - probes_before);
            if degraded > 0 {
                probe.add_flags(trace::FLAG_DEGRADED);
                root.add_flags(trace::FLAG_DEGRADED);
            }
        }
        // Probe-only: the lazy index builds above are reported separately.
        explain.t_imprints = probe
            .finish_excluding(explain.after_imprints, built)
            .as_secs_f64();
        // Stage-boundary checkpoint: a deadline burnt entirely by lazy
        // imprint builds cancels here instead of starting the scans.
        ctx.checkpoint("imprint_probe")?;

        // ---- Step 1b: exact checks over candidate runs. --------------------
        let mut bbox = trace::stage(Stage::BboxScan);
        let scan_rows_before = if bbox.is_recording() {
            scan::totals().1
        } else {
            0
        };
        let shape = match (pred, &env) {
            (Some(p), Some(e)) => match prepared.get() {
                Some(shape) => shape.as_ref(),
                None => {
                    let shape = PreparedShape::new(p, strategy, e, ctx)?;
                    prepared.get_or_init(|| shape).as_ref()
                }
            },
            _ => None,
        };
        let (xs, ys) = if env.is_some() {
            (self.f64_column("x")?, self.f64_column("y")?)
        } else {
            (&[][..], &[][..])
        };
        let mut masks = Vec::with_capacity(attrs.len());
        for a in attrs {
            let col = self.column(&a.column)?;
            masks.push(for_each_variant!(col, v => AttrMask::new(v, a.lo, a.hi)));
        }
        let workers = parallelism.workers();
        let job = exec::FilterJob {
            env: env.as_ref(),
            x_probed,
            y_probed,
            attrs: masks,
            bands: shape.and_then(|s| s.bands.as_ref()),
            xs,
            ys,
            trace_ctx: bbox.ctx(),
            govern: ctx,
        };
        let mut rows = exec::filter(&job, &cand, workers, explain)?;
        explain.after_bbox = rows.len();
        if bbox.is_recording() {
            bbox.set_rows(explain.after_imprints as u64, explain.after_bbox as u64);
            bbox.set_aux(scan::totals().1 - scan_rows_before);
        }
        explain.t_bbox = bbox.finish(explain.after_bbox).as_secs_f64();

        // ---- Step 2: spatial refinement. ------------------------------------
        let refine = pred.map(|_| trace::stage(Stage::GridRefine));
        // A pure-bbox or `BboxOnly` select has no shape: its envelope
        // check was all there is to do.
        if let (Some(shape), Some(env)) = (shape, &env) {
            let (geom, rel) = (&shape.geom, shape.rel);
            match strategy {
                RefineStrategy::BboxOnly => {}
                RefineStrategy::Exhaustive => {
                    explain.exact_tests = rows.len();
                    exec::refine_exhaustive(geom, rel, xs, ys, &mut rows, workers, ctx)?;
                }
                RefineStrategy::Grid { .. } | RefineStrategy::AdaptiveGrid => {
                    let cells = match strategy {
                        // Clamp the grid: the cell table is about cells²
                        // entries, so an unbounded request would allocate
                        // without limit.
                        RefineStrategy::Grid { cells } => cells.clamp(1, MAX_GRID),
                        _ => ((rows.len() as f64 / 128.0).sqrt() as usize).clamp(8, MAX_GRID),
                    };
                    let grid = Grid::new(env, cells);
                    exec::refine_grid(geom, rel, &grid, xs, ys, &mut rows, explain, workers, ctx)?;
                }
            }
        }
        explain.result_rows = rows.len();
        if let Some(mut refine) = refine {
            refine.set_rows(explain.after_bbox as u64, explain.result_rows as u64);
            explain.t_refine = refine.finish(explain.result_rows).as_secs_f64();
        }

        Ok(rows)
    }

    /// A column's imprint for probing, degrading to `None` (no pruning —
    /// the caller falls back to exact scans) when the imprint cannot be
    /// built. A nonexistent column is still a hard error. The second
    /// element is the time spent lazily building the index (zero on cache
    /// hits or failed builds).
    fn probe_index(
        &self,
        name: &str,
    ) -> Result<(Option<Arc<lidardb_imprints::ColumnImprints>>, Duration), CoreError> {
        self.column(name)?;
        Ok(match self.imprints_built(name) {
            Ok((imp, build)) => (Some(imp), build),
            Err(_) => (None, Duration::ZERO),
        })
    }

    /// Aggregate a column over a selection with the default worker policy,
    /// ungoverned (see [`PointTable::aggregate`]). Returns `None` for an
    /// empty selection (except `count`, which is always defined).
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
        let ctx = GovernCtx::ungoverned();
        PointTable::Flat(self).aggregate(rows, column, agg, Parallelism::default(), &ctx)
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

/// The refinement grid over an envelope `w × h`: a budget of `cells²`
/// square cells of side `s = √(w·h / cells²)`, `⌈w/s⌉ × ⌈h/s⌉` of them.
/// A cell as wide as the envelope is thin classifies nothing inside a
/// thin corridor; a square one does. The side is at least
/// `max(w, h) / cells²`, so an envelope with no height (or width) gets one
/// row of `cells²` cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grid {
    min_x: f64,
    min_y: f64,
    side: f64,
    nx: usize,
    ny: usize,
}

impl Grid {
    pub(crate) fn new(env: &Envelope, cells: usize) -> Grid {
        let (w, h) = (env.width(), env.height());
        let budget = (cells * cells) as f64;
        let side = (w * h / budget).sqrt().max(w.max(h) / budget);
        // 0 / 0 (a point envelope) saturates to 0 cells, made 1.
        let count = |extent: f64| ((extent / side).ceil() as usize).max(1);
        Grid {
            min_x: env.min_x,
            min_y: env.min_y,
            side,
            nx: count(w),
            ny: count(h),
        }
    }

    /// Columns of cells.
    pub(crate) fn nx(&self) -> usize {
        self.nx
    }

    /// Rows of cells.
    pub(crate) fn ny(&self) -> usize {
        self.ny
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Cell id of a point of the envelope.
    #[inline]
    pub(crate) fn cell(&self, x: f64, y: f64) -> usize {
        let cx = ((x - self.min_x) / self.side) as usize;
        let cy = ((y - self.min_y) / self.side) as usize;
        cy.min(self.ny - 1) * self.nx + cx.min(self.nx - 1)
    }

    /// The envelope of one cell (inverse of [`Self::cell`]'s binning).
    pub(crate) fn cell_env(&self, cell: usize) -> Envelope {
        let (cx, cy) = ((cell % self.nx) as f64, (cell / self.nx) as f64);
        Envelope {
            min_x: self.min_x + self.side * cx,
            min_y: self.min_y + self.side * cy,
            max_x: self.min_x + self.side * (cx + 1.0),
            max_y: self.min_y + self.side * (cy + 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_geom::Polygon;
    use lidardb_las::PointRecord;
    use lidardb_storage::for_each_variant;
    use lidardb_storage::scan::CmpOp;

    /// Keep the rows whose `column` satisfies `op rhs`, through the exact
    /// comparison kernel (64-bit integer columns compare in their native
    /// domain; NaN satisfies only `<>`).
    fn filter_cmp(pc: &PointCloud, rows: &mut Vec<usize>, column: &str, op: CmpOp, rhs: f64) {
        let col = pc.column(column).unwrap();
        for_each_variant!(col, v => rows.retain(|&i| match scan::cmp_native_f64(v[i], rhs) {
            Some(o) => match op {
                CmpOp::Eq => o.is_eq(),
                CmpOp::Ne => o.is_ne(),
                CmpOp::Lt => o.is_lt(),
                CmpOp::Le => o.is_le(),
                CmpOp::Gt => o.is_gt(),
                CmpOp::Ge => o.is_ge(),
            },
            None => op == CmpOp::Ne,
        }));
    }

    #[test]
    fn filter_cmp_nan_values_satisfy_only_ne() {
        let mut pc = PointCloud::new();
        let recs: Vec<PointRecord> = [1.0, f64::NAN, 3.0]
            .into_iter()
            .map(|z| PointRecord {
                z,
                ..Default::default()
            })
            .collect();
        pc.append_records(&recs).unwrap();
        let mut rows = vec![0, 1, 2];
        filter_cmp(&pc, &mut rows, "z", CmpOp::Ne, 1.0);
        assert_eq!(rows, [1, 2]);
        let mut rows = vec![0, 1, 2];
        filter_cmp(&pc, &mut rows, "z", CmpOp::Le, f64::INFINITY);
        assert_eq!(rows, [0, 2]);
    }

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
            let sel = pc
                .select_query_with(Some(&tri), &[], strat, Parallelism::default())
                .unwrap();
            let mut rows = sel.rows.clone();
            rows.sort_unstable();
            assert_eq!(rows, expect, "{strat:?}");
        }
        // BboxOnly returns a superset.
        let sup = pc
            .select_query_with(
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
        let exhaustive = pc
            .select_query_with(
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
        filter_cmp(&pc, &mut sel.rows, "classification", CmpOp::Eq, 6.0);
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
        assert_eq!(pc.aggregate(&[], "z", Aggregate::Count).unwrap(), Some(0.0));
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
            bands_x: 1801,
            bands_y: 1901,
            grid_nx: 2003,
            grid_ny: 2111,
        };
        let table = e.to_table();
        for sentinel in [
            "101", "211", "307", "401", "503", "601", "701", "809", "907", "1009", "0.111213",
            "0.141516", "0.171819", "0.212223", "1103", "1201", "1301", "1409", "1511", "1601",
            "1709", "1801", "1901", "2003", "2111",
        ] {
            assert!(
                table.contains(sentinel),
                "field with sentinel {sentinel} missing from to_table():\n{table}"
            );
        }
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
        filter_cmp(&pc, &mut oracle, "classification", CmpOp::Eq, 6.0);
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
        // The exact comparison kernel takes the same exact path: no u64
        // equals 2^64.
        let mut rows = vec![0, 1, 2, 3];
        filter_cmp(&pc, &mut rows, "wave_offset", CmpOp::Eq, u64::MAX as f64);
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
            .select_query_with(
                Some(&pred),
                &[],
                RefineStrategy::Exhaustive,
                Parallelism::default(),
            )
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
            .select_query_with(
                Some(&tri),
                &[],
                RefineStrategy::Exhaustive,
                Parallelism::default(),
            )
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
        let err = PointTable::Flat(&pc)
            .select(
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
    fn aggregate_folds_under_its_statement_ctx() {
        // A fold checkpoints under the context it is given, so a statement
        // killed before its aggregate runs is cancelled, not answered.
        let pc = grid_cloud();
        let rows: Vec<usize> = (0..pc.num_points()).collect();
        let token = CancelToken::new();
        token.kill();
        let ctx = GovernCtx::new(token, None);
        for agg in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            for par in [Parallelism::Serial, Parallelism::Threads(4)] {
                let err = PointTable::Flat(&pc)
                    .aggregate(&rows, "z", agg, par, &ctx)
                    .unwrap_err();
                expect_cancelled(err, CancelReason::Killed);
            }
        }
        let ungoverned = GovernCtx::ungoverned();
        let avg = PointTable::Flat(&pc)
            .aggregate(&rows, "z", Aggregate::Avg, Parallelism::Serial, &ungoverned)
            .unwrap();
        assert_eq!(avg, Some(9.9));
    }

    #[test]
    fn expired_deadline_cancels_with_typed_error() {
        let pc = grid_cloud();
        let token = CancelToken::with(Some(std::time::Duration::from_nanos(1)), None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ctx = GovernCtx::new(token, None);
        let err = PointTable::Flat(&pc)
            .select(
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
        let err = PointTable::Flat(&pc)
            .select(
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

    /// The prepared geometry's edge copies and the band table are charged
    /// to the statement before they are built: a budget that holds a
    /// select's few rows and its grid, but not the edge index of a
    /// 128-edge corridor, cancels the select with a typed budget error
    /// before any row is filtered.
    #[test]
    fn mem_budget_cancels_before_preparing_a_128_edge_corridor() {
        let pc = grid_cloud();
        let line: Vec<Point> = (0..64)
            .map(|i| Point::new(i as f64 * 0.15, 50.0 + (i as f64 * 0.4).sin()))
            .collect();
        let line = lidardb_geom::LineString::new(line).unwrap();
        let corridor = lidardb_geom::buffer_polyline(&line, 0.4).unwrap();
        assert_eq!(corridor.exterior().vertices().len(), 128);
        let pred = SpatialPredicate::DWithin(Geometry::Polygon(corridor), 0.5);
        let budget = 8 * 1024;
        let run = |budget| {
            let ctx = GovernCtx::new(CancelToken::with(None, Some(budget)), None);
            let strategy = RefineStrategy::default();
            PointTable::Flat(&pc).select(Some(&pred), &[], strategy, Parallelism::Serial, &ctx)
        };
        let err = run(budget).unwrap_err();
        assert_eq!(expect_cancelled(err, CancelReason::MemBudget), 0);
        let sel = run(1 << 20).unwrap();
        let (geom, _) = pred.relation();
        assert!(PreparedGeometry::build_bytes(geom) > budget);
        let rows_and_grid = sel.rows.len() * 8 + sel.explain.grid_nx * sel.explain.grid_ny;
        assert!(rows_and_grid < budget as usize, "{rows_and_grid} bytes");
        assert!(!sel.rows.is_empty());
    }

    #[test]
    fn kill_query_via_registry_trips_registered_token() {
        let pc = grid_cloud();
        let token = CancelToken::new();
        let ctx = GovernCtx::new(token, None);
        let registry = crate::governor::QueryRegistry::global();
        let ticket = registry.register("kill via registry", &ctx);
        let id = registry
            .list()
            .into_iter()
            .find(|q| q.detail == "kill via registry")
            .expect("registered")
            .id;
        assert!(registry.kill(id), "id names a live query");
        let err = PointTable::Flat(&pc)
            .select(
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
        assert_eq!(
            errs[0], errs[1],
            "serial and parallel cancellations render identically"
        );
        assert!(
            errs[0].contains("killed"),
            "cancel fault trips as a kill: {}",
            errs[0]
        );
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
