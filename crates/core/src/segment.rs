//! Tiled, out-of-core segment storage: SFC-clustered immutable tiles that
//! load lazily under a resident-memory budget.
//!
//! The flat table of [`crate::pointcloud::PointCloud`] is the paper's
//! in-memory design; this module is the out-of-core evolution. At seal
//! time ([`PointCloud::seal_to_tiles`]) the table is sorted along a
//! Hilbert/Morton curve over quantised `(x, y)`, cut into tiles of roughly
//! `target_rows` rows at SFC-key boundaries (rows with equal keys never
//! straddle a tile), and dumped as one self-validating v2 column dump per
//! tile plus a v3 root manifest carrying each tile's key range and
//! per-column min/max zone maps.
//!
//! [`TiledCloud`] opens that layout *lazily*: queries prune tiles by zone
//! map first (no I/O), then probe each surviving tile with the ordinary
//! imprint → bbox → refine pipeline of the flat engine, loading tile
//! segments on demand into an LRU cache bounded by
//! [`TiledCloud::set_resident_budget`]. Datasets larger than RAM stay
//! queryable: only the working set of tiles is resident, and because rows
//! are SFC-clustered the zone maps are tight — the unclustered-data
//! failure mode of classic zone maps (E7) does not apply.
//!
//! Every per-tile sub-query inherits the caller's [`GovernCtx`], so
//! deadlines, cancellation and memory budgets cover the whole tile loop;
//! loaded tile bytes are charged to the query's memory budget.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lidardb_las::point_schema;
use lidardb_sfc::{Curve, Quantizer, TileBinning};
use lidardb_storage::{TileMeta, TileSet, ZoneEntry};
use parking_lot::Mutex;

use crate::error::CoreError;
use crate::exec::Parallelism;
use crate::governor::{self, AdmissionController, GovernCtx};
use crate::metrics::MetricsRegistry;
use crate::persist::{self, Layout};
use crate::pointcloud::PointCloud;
use crate::query::{
    run_query, Aggregate, AttrRange, Explain, RefineStrategy, Selection, SpatialPredicate,
};

/// How a table is cut into tiles at seal time.
#[derive(Debug, Clone, PartialEq)]
pub struct TileOptions {
    /// Target rows per tile. Tiles may run longer so that rows with equal
    /// SFC keys never straddle a tile boundary.
    pub target_rows: usize,
    /// Space-filling curve used for clustering.
    pub curve: Curve,
    /// Quantiser resolution in bits per axis (`1..=32`).
    pub bits: u32,
}

impl Default for TileOptions {
    fn default() -> Self {
        TileOptions {
            target_rows: 65_536,
            curve: Curve::Hilbert,
            bits: 16,
        }
    }
}

/// SFC-sort the cloud's rows in place and plan the tile layout: key
/// ranges from the sorted keys, row ranges from [`TileBinning`], zone maps
/// from a single pass over every column. Cached imprints are dropped (they
/// describe the old row order).
pub(crate) fn sort_and_plan(pc: &mut PointCloud, opts: &TileOptions) -> Result<Layout, CoreError> {
    if opts.target_rows == 0 {
        return Err(CoreError::InvalidQuery(
            "tile options: target_rows must be at least 1".into(),
        ));
    }
    if !(1..=32).contains(&opts.bits) {
        return Err(CoreError::InvalidQuery(
            "tile options: bits must be in 1..=32".into(),
        ));
    }
    let n = pc.num_points();
    // Quantisation window: the finite bbox of the data, widened when
    // degenerate (empty table, all-NaN column, single distinct value) so
    // the quantiser always has a non-empty window. `f64::min`/`max`
    // ignore NaN, so NaN coordinates never poison the window; they
    // quantise to cell 0 like any out-of-window point.
    let (keys_sorted, perm) = {
        let xs = pc.f64_column("x")?;
        let ys = pc.f64_column("y")?;
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for i in 0..n {
            min_x = min_x.min(xs[i]);
            max_x = max_x.max(xs[i]);
            min_y = min_y.min(ys[i]);
            max_y = max_y.max(ys[i]);
        }
        if !min_x.is_finite() {
            min_x = 0.0;
        }
        if !(max_x.is_finite() && max_x > min_x) {
            max_x = min_x + 1.0;
        }
        if !min_y.is_finite() {
            min_y = 0.0;
        }
        if !(max_y.is_finite() && max_y > min_y) {
            max_y = min_y + 1.0;
        }
        let q = Quantizer::new(min_x, min_y, max_x, max_y, opts.bits);
        let keys: Vec<u64> = xs
            .iter()
            .zip(ys.iter())
            .map(|(&x, &y)| {
                let (cx, cy) = q.cell(x, y);
                opts.curve.encode(cx, cy)
            })
            .collect();
        let mut perm: Vec<usize> = (0..n).collect();
        // Stable: equal keys keep their ingest order, so the reorder is
        // deterministic across runs.
        perm.sort_by_key(|&i| keys[i]);
        let keys_sorted: Vec<u64> = perm.iter().map(|&i| keys[i]).collect();
        (keys_sorted, perm)
    };
    let schema = point_schema();
    {
        let table = pc.table_mut();
        for field in schema.fields() {
            let gathered = table.column_by_name(&field.name)?.gather(&perm);
            *table.column_by_name_mut(&field.name)? = gathered;
        }
    }
    pc.clear_imprint_cache();

    let binning = TileBinning::from_sorted_keys(&keys_sorted, opts.target_rows);
    let mut tiles: Vec<TileMeta> = Vec::with_capacity(binning.len());
    let mut row = 0usize;
    for t in 0..binning.len() {
        let end = if t + 1 < binning.len() {
            keys_sorted.partition_point(|&k| k < binning.start(t + 1))
        } else {
            n
        };
        let (key_lo, key_hi) = if end > row {
            (keys_sorted[row], keys_sorted[end - 1])
        } else {
            (binning.start(t), binning.start(t))
        };
        tiles.push(TileMeta {
            id: t,
            row_start: row,
            row_end: end,
            key_lo,
            key_hi,
            zones: Vec::new(),
        });
        row = end;
    }
    // Zone maps on the f64 domain — the same domain imprint probes and
    // scan predicates use, so pruning is exactly conservative. NaN values
    // are skipped (range predicates reject them anyway); a tile whose
    // column is all-NaN gets no zone entry and can only be pruned by
    // other columns.
    for field in schema.fields() {
        let col = pc.column(&field.name)?;
        let mut mins = vec![f64::INFINITY; tiles.len()];
        let mut maxs = vec![f64::NEG_INFINITY; tiles.len()];
        let mut t = 0usize;
        for (i, v) in col.iter_f64().enumerate() {
            while i >= tiles[t].row_end {
                t += 1;
            }
            mins[t] = mins[t].min(v);
            maxs[t] = maxs[t].max(v);
        }
        for (ti, tile) in tiles.iter_mut().enumerate() {
            if mins[ti] <= maxs[ti] {
                tile.zones.push(ZoneEntry {
                    column: field.name.clone(),
                    min: mins[ti],
                    max: maxs[ti],
                });
            }
        }
    }
    Ok(Layout {
        rows: n,
        curve: match opts.curve {
            Curve::Hilbert => "hilbert",
            Curve::Morton => "morton",
        }
        .to_string(),
        bits: opts.bits,
        tiles: TileSet { tiles },
        flat: false,
    })
}

/// One resident tile segment.
struct CachedTile {
    pc: Arc<PointCloud>,
    bytes: u64,
    last_used: u64,
}

/// The resident-segment cache: loaded tiles, LRU clock, resident bytes.
#[derive(Default)]
struct TileCache {
    map: HashMap<usize, CachedTile>,
    tick: u64,
    resident: u64,
}

/// One row of [`TiledCloud::tile_residency`] (and of `sys.tiles`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileResidency {
    /// Tile id within its cloud.
    pub id: usize,
    /// First global row of the tile.
    pub row_start: usize,
    /// Rows in the tile.
    pub rows: usize,
    /// Smallest SFC key in the tile.
    pub key_lo: u64,
    /// Largest SFC key in the tile.
    pub key_hi: u64,
    /// Column bytes held by the resident cache, `None` when not resident.
    pub resident_bytes: Option<u64>,
    /// Zone-map entries (one per column with a finite min/max).
    pub zone_columns: usize,
}

/// A sealed, tiled point cloud opened for **lazy, out-of-core** querying.
///
/// Tiles load on first touch and stay resident until the LRU evicts them
/// to honour [`Self::set_resident_budget`]; the most recently touched tile
/// is never evicted, so a budget smaller than one tile still makes
/// progress (one tile resident at a time). The query entry points are
/// the flat [`PointCloud`]'s, with the same signatures and governance, and
/// return bit-identical rows (global row ids in the sealed SFC order).
pub struct TiledCloud {
    dir: PathBuf,
    /// Tile row/key ranges and zone maps; a flat v1/v2 directory is one
    /// tile at the root with no zones (never pruned).
    layout: Layout,
    /// Resident-cache byte budget; 0 = unlimited.
    budget_bytes: AtomicU64,
    cache: Mutex<TileCache>,
    loads: AtomicU64,
    evictions: AtomicU64,
    peak_resident: AtomicU64,
}

impl std::fmt::Debug for TiledCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TiledCloud")
            .field("dir", &self.dir)
            .field("rows", &self.layout.rows)
            .field("tiles", &self.layout.tiles.len())
            .field("curve", &self.layout.curve)
            .field("bits", &self.layout.bits)
            .field("budget_bytes", &self.budget_bytes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TiledCloud {
    /// Open a tiled (v3) directory lazily. A flat (v1/v2) directory also
    /// opens, as a single pseudo-tile with no zone maps — pruning never
    /// fires, but the out-of-core cache and the API shape still apply.
    pub fn open(dir: impl AsRef<Path>) -> Result<TiledCloud, CoreError> {
        let dir = dir.as_ref().to_path_buf();
        persist::recover_stale_dirs(&dir)?;
        let layout = persist::read_layout(&dir, None)?;
        Ok(TiledCloud {
            dir,
            layout,
            budget_bytes: AtomicU64::new(0),
            cache: Mutex::new(TileCache::default()),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        })
    }

    /// Total rows across every tile.
    pub fn num_points(&self) -> usize {
        self.layout.rows
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.layout.tiles.len()
    }

    /// The tile layout (row ranges, key ranges, zone maps).
    pub fn tiles(&self) -> &TileSet {
        &self.layout.tiles
    }

    /// The curve the rows are clustered by (`hilbert`, `morton`, or
    /// `none` for a flat directory).
    pub fn curve(&self) -> &str {
        &self.layout.curve
    }

    /// Quantiser bits per axis (0 for a flat directory).
    pub fn bits(&self) -> u32 {
        self.layout.bits
    }

    /// The directory the cloud was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cap the resident tile cache at `bytes` of column data (0 =
    /// unlimited). Takes effect on the next load; the most recently
    /// touched tile is always kept, so queries make progress even when a
    /// single tile exceeds the budget.
    pub fn set_resident_budget(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// The configured resident budget (0 = unlimited).
    pub fn resident_budget(&self) -> u64 {
        self.budget_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of tile segments currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.lock().resident
    }

    /// Tile segments currently resident.
    pub fn resident_tiles(&self) -> usize {
        self.cache.lock().map.len()
    }

    /// High-water mark of resident bytes over the cloud's lifetime.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Tile loads performed (cache misses).
    pub fn tile_loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Tiles evicted by the resident-budget LRU.
    pub fn tile_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Per-tile residency snapshot — the backing rows of `sys.tiles`:
    /// `(tile id, row_start, rows, key_lo, key_hi, resident bytes if the
    /// tile is in the cache, zone-map column count)`. One lock take;
    /// consistent with itself but not frozen against concurrent loads.
    pub fn tile_residency(&self) -> Vec<TileResidency> {
        let cache = self.cache.lock();
        self.layout
            .tiles
            .tiles
            .iter()
            .map(|t| TileResidency {
                id: t.id,
                row_start: t.row_start,
                rows: t.row_end - t.row_start,
                key_lo: t.key_lo,
                key_hi: t.key_hi,
                resident_bytes: cache.map.get(&t.id).map(|c| c.bytes),
                zone_columns: t.zones.len(),
            })
            .collect()
    }

    /// Load (or re-touch) a tile, charging faulted-in bytes to the
    /// query's memory budget and evicting LRU tiles past the resident
    /// budget. Held-lock loading keeps accounting exact; tile I/O under
    /// contention serialises, which is the trade this cache makes for
    /// never double-loading a tile.
    fn load_tile(&self, id: usize, ctx: &GovernCtx) -> Result<Arc<PointCloud>, CoreError> {
        let metrics = MetricsRegistry::global();
        let mut cache = self.cache.lock();
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(c) = cache.map.get_mut(&id) {
            c.last_used = tick;
            return Ok(Arc::clone(&c.pc));
        }
        let pc = persist::open_tile(&self.dir, &self.layout, id)?;
        let bytes = pc.data_bytes() as u64;
        ctx.charge(bytes)?;
        let pc = Arc::new(pc);
        cache.map.insert(
            id,
            CachedTile {
                pc: Arc::clone(&pc),
                bytes,
                last_used: tick,
            },
        );
        cache.resident += bytes;
        self.loads.fetch_add(1, Ordering::Relaxed);
        metrics.tiles_loaded.inc();
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget > 0 {
            while cache.resident > budget && cache.map.len() > 1 {
                let victim = cache
                    .map
                    .iter()
                    .filter(|(k, _)| **k != id)
                    .min_by_key(|(_, c)| c.last_used)
                    .map(|(k, _)| *k);
                let Some(v) = victim else { break };
                let evicted = cache.map.remove(&v).expect("victim key from iteration");
                cache.resident -= evicted.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                metrics.tiles_evicted.inc();
            }
        }
        self.peak_resident.fetch_max(cache.resident, Ordering::Relaxed);
        metrics.resident_tile_bytes.set(cache.resident);
        Ok(pc)
    }

    /// Two-step spatial query with the default strategy and worker policy,
    /// governed like [`Self::select_query_with`].
    pub fn select(&self, pred: &SpatialPredicate) -> Result<Selection, CoreError> {
        self.select_query_with(Some(pred), &[], RefineStrategy::default(), Parallelism::default())
    }

    /// Spatial + attribute query under the process-wide admission
    /// controller, with no deadline or memory budget.
    pub fn select_query_with(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
    ) -> Result<Selection, CoreError> {
        self.select_query_governed(pred, attrs, strategy, parallelism, None, None)
    }

    /// [`Self::select_query_with`] with explicit deadline / memory-budget
    /// overrides, through the same [`governor::govern`] prologue as the
    /// flat table: one deadline/budget token covers zone-map pruning,
    /// every tile load (bytes charged as they fault in) and every per-tile
    /// probe; the query is visible in the global registry.
    pub fn select_query_governed(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        deadline: Option<Duration>,
        budget: Option<u64>,
    ) -> Result<Selection, CoreError> {
        let g = governor::govern(
            AdmissionController::global(),
            None,
            format!("tiled select ({} attr filters)", attrs.len()),
            deadline,
            budget,
        )?;
        self.select_query_ctx(pred, attrs, strategy, parallelism, &g.ctx)
    }

    /// The tiled query pipeline under an explicit governance context:
    /// zone-map prune → per-tile imprint probe/scan → row-offset merge,
    /// all inside ONE [`run_query`] — one `queries` tick, one root span
    /// with every tile's load and stage spans under it, one slow-log
    /// entry. Tiles are visited in row order, so the merged rows are
    /// ascending and identical for any worker count (morsels never
    /// straddle a tile).
    pub fn select_query_ctx(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
        ctx: &GovernCtx,
    ) -> Result<Selection, CoreError> {
        run_query(ctx, |root, explain| {
            let mut preds: Vec<(&str, f64, f64)> = Vec::new();
            if let Some(env) = pred.and_then(|p| p.filter_envelope()) {
                preds.push(("x", env.min_x, env.max_x));
                preds.push(("y", env.min_y, env.max_y));
            }
            for a in attrs {
                preds.push((a.column.as_str(), a.lo, a.hi));
            }
            let survivors = self.layout.tiles.prune(&preds);
            let loads0 = self.loads.load(Ordering::Relaxed);
            let evictions0 = self.evictions.load(Ordering::Relaxed);
            let mut rows = Vec::new();
            for &t in &survivors {
                ctx.checkpoint("tile")?;
                let pc = self.load_tile(t, ctx)?;
                let mut sub = Explain::default();
                let local =
                    pc.query_stages(pred, attrs, strategy, parallelism, ctx, root, &mut sub)?;
                let base = self.layout.tiles.tiles[t].row_start;
                rows.extend(local.iter().map(|&r| r + base));
                merge_explain(explain, &sub);
            }
            explain.result_rows = rows.len();
            explain.tiles_total = self.layout.tiles.len();
            explain.tiles_pruned = self.layout.tiles.len() - survivors.len();
            explain.tiles_probed = survivors.len();
            // Cache-delta attribution is exact for single-threaded use and
            // approximate when queries run concurrently (the counters are
            // shared); the process-wide metrics stay exact either way.
            explain.tiles_loaded = (self.loads.load(Ordering::Relaxed) - loads0) as usize;
            explain.tiles_evicted = (self.evictions.load(Ordering::Relaxed) - evictions0) as usize;
            let metrics = MetricsRegistry::global();
            metrics.tiles_pruned.add(explain.tiles_pruned as u64);
            metrics.tiles_probed.add(explain.tiles_probed as u64);
            Ok(rows)
        })
    }

    /// Split ascending global row ids into per-tile runs `(segment, first
    /// global row of the tile, ids in that tile)`, loading each tile only
    /// when the iterator reaches it. The yielded `Arc` pins the segment
    /// resident for as long as the caller holds it, even across LRU
    /// evictions — a consumer that drops each run before taking the next
    /// keeps one tile pinned at a time. An id past the last row ends the
    /// iteration with an error.
    pub fn runs<'r>(
        &'r self,
        mut rows: &'r [usize],
    ) -> impl Iterator<Item = Result<(Arc<PointCloud>, usize, &'r [usize]), CoreError>> + 'r {
        std::iter::from_fn(move || {
            let first = *rows.first()?;
            let Some(t) = self.layout.tiles.tile_for_row(first) else {
                rows = &[];
                return Some(Err(CoreError::InvalidQuery(format!(
                    "row {first} out of range ({} rows)",
                    self.layout.rows
                ))));
            };
            let tile = &self.layout.tiles.tiles[t];
            let (head, tail) = rows.split_at(rows.partition_point(|&r| r < tile.row_end));
            rows = tail;
            Some(
                self.load_tile(t, &GovernCtx::ungoverned())
                    .map(|pc| (pc, tile.row_start, head)),
            )
        })
    }

    /// Aggregate a selection's rows (global ids) over one column with the
    /// default worker policy.
    pub fn aggregate(
        &self,
        rows: &[usize],
        column: &str,
        agg: Aggregate,
    ) -> Result<Option<f64>, CoreError> {
        self.aggregate_with(rows, column, agg, Parallelism::default())
    }

    /// [`Self::aggregate`] with an explicit worker policy. Rows are
    /// partitioned by tile and merged with the algebraic decomposition of
    /// each aggregate (`AVG` = total `SUM` / total count), so the result
    /// matches a flat-table aggregate over the same rows bit-for-bit on
    /// `COUNT`/`MIN`/`MAX` and to f64-summation order on `SUM`/`AVG`.
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
        // The tile walk needs ascending rows; selections are ascending
        // already, arbitrary caller input gets sorted.
        let sorted_buf;
        let rows = if rows.windows(2).all(|w| w[0] <= w[1]) {
            rows
        } else {
            let mut s = rows.to_vec();
            s.sort_unstable();
            sorted_buf = s;
            &sorted_buf
        };
        let sub_agg = match agg {
            Aggregate::Avg => Aggregate::Sum,
            a => a,
        };
        let mut acc: Option<f64> = None;
        for run in self.runs(rows) {
            let (pc, base, ids) = run?;
            let local: Vec<usize> = ids.iter().map(|&r| r - base).collect();
            if let Some(v) = pc.aggregate_with(&local, column, sub_agg, parallelism)? {
                acc = Some(match (acc, agg) {
                    (None, _) => v,
                    (Some(a), Aggregate::Sum | Aggregate::Avg) => a + v,
                    (Some(a), Aggregate::Min) => a.min(v),
                    (Some(a), Aggregate::Max) => a.max(v),
                    (Some(a), Aggregate::Count) => a, // handled above
                });
            }
        }
        Ok(match agg {
            Aggregate::Avg => acc.map(|s| s / rows.len() as f64),
            _ => acc,
        })
    }

    /// Materialise one point by global row id (`None` past the end).
    pub fn record(&self, row: usize) -> Result<Option<lidardb_las::PointRecord>, CoreError> {
        let Some(t) = self.layout.tiles.tile_for_row(row) else {
            return Ok(None);
        };
        let pc = self.load_tile(t, &GovernCtx::ungoverned())?;
        Ok(pc.record(row - self.layout.tiles.tiles[t].row_start))
    }
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
