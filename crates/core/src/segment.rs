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
//! **Residency is per (tile, column).** A tile holds only the columns the
//! reads that touched it asked for ([`ColumnSet`]): a viewport faults in
//! `x` and `y`, a projection adds `z`, a thematic filter its one column.
//! A fault reads and CRC-checks only the missing column files and installs
//! a successor tile sharing the columns and imprints the tile already
//! held; only the new bytes are charged and counted resident. A tile's
//! manifest is verified on its first fault and kept, so later faults of
//! the tile read column files only. Eviction
//! stays whole-tile LRU. The tile's row count comes from the layout, never
//! from whichever column is resident.
//!
//! **Counters.** `tiles_loaded`, [`TiledCloud::tile_loads`] and
//! `Explain.tiles_loaded` count faults of a tile that was not resident;
//! columns added to a resident tile are not one. Every disk read — a tile
//! fault or a column fault into a resident tile — records one
//! `PersistLoad` stage sample and span.
//!
//! Reads go through the one view of every point table,
//! [`PointTable`]: it prunes tiles by zone map first (no I/O), then runs
//! the flat engine's imprint → bbox → refine pipeline on each surviving
//! tile under the caller's [`GovernCtx`], so deadlines, cancellation and
//! memory budgets cover the whole tile loop and loaded column bytes are
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
use crate::fault::FaultInjector;
use crate::governor::GovernCtx;
use crate::metrics::MetricsRegistry;
use crate::persist::{self, Layout};
use crate::pointcloud::PointCloud;
use crate::query::{AttrRange, RefineStrategy, Selection, SpatialPredicate};
use crate::table::{ColumnSet, PointTable};

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
    // The reorder permutes the whole table: a streaming cloud's tail is
    // folded into its base first.
    pc.fold_tail()?;
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
        (
            lo,
            if hi.is_finite() && hi > lo {
                hi
            } else {
                lo + 1.0
            },
        )
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

/// One resident tile segment: the columns loaded so far.
struct CachedTile {
    pc: Arc<PointCloud>,
    columns: ColumnSet,
    bytes: u64,
    last_used: u64,
}

/// The resident-segment cache: loaded tiles, LRU clock, resident bytes,
/// and each faulted tile's verified manifest (kept past eviction: the
/// files it checks are immutable).
#[derive(Default)]
struct TileCache {
    map: HashMap<usize, CachedTile>,
    tick: u64,
    resident: u64,
    manifests: Vec<Option<persist::Manifest>>,
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
    /// Bytes of the resident columns, `None` when the tile is not
    /// resident; imprints are not counted.
    pub resident_bytes: Option<u64>,
    /// The columns the tile holds (none when it is not resident).
    pub resident_columns: ColumnSet,
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
    fault: Option<Arc<FaultInjector>>,
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
        Self::open_with_faults(dir, None)
    }

    /// [`Self::open`] with fault-injection hooks on the layout read and
    /// every later tile fault (tests only).
    pub(crate) fn open_with_faults(
        dir: impl AsRef<Path>,
        fault: Option<Arc<FaultInjector>>,
    ) -> Result<TiledCloud, CoreError> {
        let dir = dir.as_ref().to_path_buf();
        persist::recover_stale_dirs(&dir)?;
        let layout = persist::read_layout(&dir, fault.as_deref())?;
        let cache = TileCache {
            manifests: layout.tiles.tiles.iter().map(|_| None).collect(),
            ..TileCache::default()
        };
        Ok(TiledCloud {
            dir,
            layout,
            budget_bytes: AtomicU64::new(0),
            cache: Mutex::new(cache),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            fault,
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

    /// Cap the resident tile cache at `bytes` — bytes of the resident
    /// columns; imprints are not counted (0 = unlimited). Takes effect on
    /// the next load; the most recently touched tile is always kept, so
    /// queries make progress even when a single tile exceeds the budget.
    pub fn set_resident_budget(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// The configured resident budget (0 = unlimited).
    pub fn resident_budget(&self) -> u64 {
        self.budget_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of the resident columns of every resident tile.
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

    /// Faults of a tile that was not resident (cache misses). A column
    /// added to a resident tile is not one.
    pub fn tile_loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Tiles evicted by the resident-budget LRU.
    pub fn tile_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Per-tile residency snapshot — the backing rows of `sys.tiles`:
    /// `(tile id, row_start, rows, key_lo, key_hi, resident bytes if the
    /// tile is in the cache, its resident columns, zone-map column
    /// count)`. One lock take;
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
                resident_columns: cache.map.get(&t.id).map_or(ColumnSet::EMPTY, |c| c.columns),
                zone_columns: t.zones.len(),
            })
            .collect()
    }

    /// The tile `id` holding at least `columns`: the cached tile when it
    /// holds them all (re-touched), else a successor read from disk with
    /// only the missing column files, sharing the columns and imprints the
    /// tile already held. Only the new bytes are charged to the query's
    /// memory budget and the resident count; LRU tiles are evicted past
    /// the resident budget. Held-lock loading keeps accounting exact; tile
    /// I/O under contention serialises, which is the trade this cache
    /// makes for never loading a column twice. A query holding the old
    /// `Arc` keeps its snapshot.
    pub(crate) fn load_tile(
        &self,
        id: usize,
        columns: ColumnSet,
        ctx: &GovernCtx,
    ) -> Result<Arc<PointCloud>, CoreError> {
        let metrics = MetricsRegistry::global();
        let mut cache = self.cache.lock();
        cache.tick += 1;
        let tick = cache.tick;
        let held = cache.map.get_mut(&id).map(|c| {
            c.last_used = tick;
            (Arc::clone(&c.pc), c.columns)
        });
        let missing = columns.without(held.as_ref().map_or(ColumnSet::EMPTY, |h| h.1));
        if let Some((pc, _)) = held.as_ref().filter(|_| missing.is_empty()) {
            return Ok(Arc::clone(pc));
        }
        let manifest = &mut cache.manifests[id];
        let fi = self.fault.as_deref();
        let added = persist::read_tile_columns(&self.dir, &self.layout, id, manifest, missing, fi)?;
        let bytes: u64 = added.iter().map(|(_, c)| c.byte_len() as u64).sum();
        ctx.charge(bytes)?;
        let rows = self.layout.tiles.tiles[id].rows();
        let pc = Arc::new(PointCloud::tile(rows, held.as_ref().map(|h| &*h.0), added)?);
        if held.is_none() {
            self.loads.fetch_add(1, Ordering::Relaxed);
            metrics.tiles_loaded.inc();
        }
        let entry = cache.map.entry(id).or_insert_with(|| CachedTile {
            pc: Arc::clone(&pc),
            columns: ColumnSet::EMPTY,
            bytes: 0,
            last_used: tick,
        });
        entry.pc = Arc::clone(&pc);
        entry.columns = entry.columns.union(missing);
        entry.bytes += bytes;
        cache.resident += bytes;
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
        self.peak_resident
            .fetch_max(cache.resident, Ordering::Relaxed);
        metrics.resident_tile_bytes.set(cache.resident);
        Ok(pc)
    }

    /// Two-step spatial query with the default strategy and worker policy,
    /// governed like [`Self::select_query_with`].
    pub fn select(&self, pred: &SpatialPredicate) -> Result<Selection, CoreError> {
        self.select_query_with(
            Some(pred),
            &[],
            RefineStrategy::default(),
            Parallelism::default(),
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultStage};
    use lidardb_las::PointRecord;

    /// A tile's manifest is verified on its first fault and kept: a later
    /// fault of more columns of the same tile, even after the tile was
    /// evicted, reads only column files.
    #[test]
    fn a_tile_manifest_is_read_once() {
        let dir = lidardb_test_support::ScratchDir::vacant("segment_manifest_once");
        let recs: Vec<PointRecord> = (0..4000)
            .map(|i| PointRecord {
                x: (i % 100) as f64,
                y: (i / 100) as f64,
                z: i as f64,
                ..Default::default()
            })
            .collect();
        let mut pc = PointCloud::new();
        pc.append_records(&recs).unwrap();
        let opts = TileOptions {
            target_rows: 1000,
            ..Default::default()
        };
        pc.save_tiled(&dir, &opts).unwrap();
        // `Stall(0)` changes no byte and sleeps not at all: the rules only
        // count the reads.
        let fi = Arc::new(FaultInjector::new());
        for stage in [FaultStage::ReadManifest, FaultStage::ReadColumn] {
            fi.inject_n(stage, None, FaultKind::Stall(0), 0, u32::MAX);
        }
        let reads = |stage| fi.fired().iter().filter(|f| f.0 == stage).count();
        let tc = TiledCloud::open_with_faults(&dir, Some(Arc::clone(&fi))).unwrap();
        assert!(tc.num_tiles() >= 2);
        assert_eq!(reads(FaultStage::ReadManifest), 1, "the root layout");
        let ctx = GovernCtx::ungoverned();
        tc.load_tile(0, ColumnSet::of(["x"]), &ctx).unwrap();
        assert_eq!(reads(FaultStage::ReadManifest), 2, "tile 0's first fault");
        assert_eq!(reads(FaultStage::ReadColumn), 1);
        tc.load_tile(0, ColumnSet::of(["x", "y"]), &ctx).unwrap();
        assert_eq!(
            reads(FaultStage::ReadManifest),
            2,
            "a second fault reads no manifest"
        );
        assert_eq!(reads(FaultStage::ReadColumn), 2);
        // Evict tile 0 by faulting tile 1 under a one-byte budget; its
        // next fault re-reads column files only.
        tc.set_resident_budget(1);
        tc.load_tile(1, ColumnSet::of(["x"]), &ctx).unwrap();
        assert_eq!(tc.resident_tiles(), 1);
        tc.load_tile(0, ColumnSet::of(["z"]), &ctx).unwrap();
        assert_eq!(
            reads(FaultStage::ReadManifest),
            3,
            "tile 1's first fault only"
        );
        assert_eq!(reads(FaultStage::ReadColumn), 4);
    }
}
