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
//! [`TiledCloud`] opens that layout *lazily*, one segment per tile, loaded
//! on demand into an LRU cache bounded by
//! [`TiledCloud::set_resident_budget`]. Datasets larger than RAM stay
//! queryable: only the working set of tiles is resident, and because rows
//! are SFC-clustered the zone maps are tight — the unclustered-data
//! failure mode of classic zone maps (E7) does not apply.
//!
//! Reads go through the one view of every point table,
//! [`PointTable`]: it prunes tiles by zone map first (no I/O), then runs
//! the flat engine's imprint → bbox → refine pipeline on each surviving
//! tile under the caller's [`GovernCtx`], so deadlines, cancellation and
//! memory budgets cover the whole tile loop and loaded tile bytes are
//! charged to the query's memory budget.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lidardb_las::point_schema;
use lidardb_sfc::{Curve, Quantizer, TileBinning};
use lidardb_storage::{TileMeta, TileSet, ZoneEntry};
use parking_lot::Mutex;

use crate::error::CoreError;
use crate::exec::Parallelism;
use crate::governor::GovernCtx;
use crate::metrics::MetricsRegistry;
use crate::persist::{self, Layout};
use crate::pointcloud::PointCloud;
use crate::query::{AttrRange, RefineStrategy, Selection, SpatialPredicate};
use crate::table::PointTable;

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
    let window = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lo = if lo.is_finite() { lo } else { 0.0 };
        (lo, if hi.is_finite() && hi > lo { hi } else { lo + 1.0 })
    };
    let (keys_sorted, perm) = {
        let xs = pc.f64_column("x")?;
        let ys = pc.f64_column("y")?;
        let ((min_x, max_x), (min_y, max_y)) = (window(xs), window(ys));
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
/// progress (one tile resident at a time). It is read through
/// [`PointTable::Tiled`], the same view as a flat [`PointCloud`], and
/// returns bit-identical rows (global row ids in the sealed SFC order);
/// `select` and `select_query_with` are the shorthands.
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
    pub(crate) fn load_tile(
        &self,
        id: usize,
        ctx: &GovernCtx,
    ) -> Result<Arc<PointCloud>, CoreError> {
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
    /// controller, with no deadline or memory budget (see
    /// [`PointTable::select`]).
    pub fn select_query_with(
        &self,
        pred: Option<&SpatialPredicate>,
        attrs: &[AttrRange],
        strategy: RefineStrategy,
        parallelism: Parallelism,
    ) -> Result<Selection, CoreError> {
        PointTable::Tiled(self).select_governed(pred, attrs, strategy, parallelism)
    }
}
