//! The flat point-cloud table with its lazy imprint cache and the
//! streaming-ingest state (WAL + visibility watermark + append-only tail).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use lidardb_imprints::ColumnImprints;
use lidardb_las::{point_schema, PointRecord, COLUMN_NAMES, NUM_COLUMNS};
use lidardb_storage::{Column, Field, FlatTable};

use crate::error::CoreError;
use crate::fault::FaultInjector;
use crate::governor::AdmissionController;
use crate::soa::ColumnArrays;
use crate::wal::{self, Durability, RecoveryReport, WalWriter};

/// A point cloud stored as a flat 26-column table (§3.1 of the paper).
///
/// Imprint indexes are built lazily: *"Its creation is triggered when it
/// encounters a range query for the first time"* (§3.2). The cache is
/// internally synchronised, so a `&PointCloud` can serve queries from
/// several threads. It is read through [`crate::PointTable::Flat`], the
/// view shared with [`crate::TiledCloud`]; `select`, `select_query_with`
/// and `aggregate` are the shorthands.
///
/// A plain cloud is one segment. A streaming cloud ([`Self::open_ingest`])
/// is two: its own table, the *base* — the dump it was opened on, never
/// written again — and an append-only *tail* that WAL replay and every
/// ingest append to. Tail row `i` is row `base rows + i` of the cloud.
/// The column and imprint accessors (`table`, `column`, `f64_column`,
/// `imprints_for`) read the cloud's own segment, the base of a streaming
/// one; the row-level ones (`num_points`, `record`, the queries of
/// [`crate::PointTable`]) read every row.
pub struct PointCloud {
    /// The whole table of a plain cloud; the base of a streaming one.
    table: FlatTable,
    imprints: RwLock<HashMap<String, Arc<ColumnImprints>>>,
    fault: Option<Arc<crate::fault::FaultInjector>>,
    /// Default statement timeout in milliseconds; 0 = none.
    default_deadline_ms: std::sync::atomic::AtomicU64,
    /// Admission controller queries on this cloud pass through; `None`
    /// falls back to the process-wide controller (unlimited by default).
    admission: Option<Arc<crate::governor::AdmissionController>>,
    /// Snapshot-isolation watermark: rows below it are visible to queries.
    /// Plain clouds keep it at `num_points`; ingesting clouds advance it
    /// only when the covering WAL frames are durable, so a reader can
    /// never observe a row that a crash would take back (no ghost rows).
    visible_rows: AtomicUsize,
    /// Read-only degraded mode: set when the device under the WAL or dump
    /// rejects a write (`ENOSPC`/`EIO`). Queries keep serving the durable
    /// snapshot; ingest is refused with a typed
    /// [`CoreError::StorageExhausted`] until an operator frees space and
    /// a successful [`Self::seal`] clears the flag.
    degraded: std::sync::atomic::AtomicBool,
    /// Streaming-ingest state (`None` for plain in-memory clouds).
    ingest: Option<IngestState>,
}

/// Acknowledgement of a (possibly idempotency-tagged) ingest batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Rows actually appended (0 when the batch was deduped).
    pub inserted: usize,
    /// Whether the batch — and every batch before it — is fsynced.
    pub durable: bool,
    /// Whether the batch's token was already logged: the rows were NOT
    /// appended again; the original append is acknowledged instead.
    pub deduped: bool,
}

/// Everything an ingesting cloud carries beyond the plain table.
struct IngestState {
    wal: WalWriter,
    /// The dump directory `seal` folds the WAL into.
    dir: PathBuf,
    /// What recovery found when this cloud was opened.
    recovery: RecoveryReport,
    /// The append-only tail: a plain cloud of the rows after the base.
    /// Its imprints are laid out on the base imprints' bins.
    tail: Box<PointCloud>,
}

impl std::fmt::Debug for PointCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointCloud")
            .field("points", &self.num_points())
            .field("indexed_columns", &self.imprints.read().len())
            .finish()
    }
}

impl Default for PointCloud {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PointCloud {
    fn drop(&mut self) {
        // A dropped table no longer counts toward the process-wide
        // `degraded_tables` gauge.
        self.set_degraded(false);
    }
}

impl PointCloud {
    /// An empty point cloud.
    pub fn new() -> Self {
        Self::over(FlatTable::new(point_schema()))
    }

    /// A plain cloud over `table`, every row visible.
    fn over(table: FlatTable) -> Self {
        let rows = table.num_rows();
        PointCloud {
            table,
            imprints: RwLock::new(HashMap::new()),
            fault: None,
            default_deadline_ms: std::sync::atomic::AtomicU64::new(0),
            admission: None,
            visible_rows: AtomicUsize::new(rows),
            degraded: std::sync::atomic::AtomicBool::new(false),
            ingest: None,
        }
    }

    /// Whether the table is in read-only degraded mode after a storage
    /// exhaustion (`ENOSPC`/`EIO`) failure. Queries still serve the
    /// durable snapshot; ingest is refused.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Flip the degraded flag, keeping the process-wide `degraded_tables`
    /// gauge in step (one inc/dec per actual transition).
    fn set_degraded(&self, on: bool) {
        let was = self.degraded.swap(on, Ordering::AcqRel);
        let g = &crate::metrics::MetricsRegistry::global().degraded_tables;
        match (was, on) {
            (false, true) => g.inc(),
            (true, false) => g.dec(),
            _ => {}
        }
    }

    /// Pass a WAL/persist result through, flipping this table into
    /// degraded mode when it reports storage exhaustion.
    fn note_storage<T>(&self, r: Result<T, CoreError>) -> Result<T, CoreError> {
        if matches!(r, Err(CoreError::StorageExhausted(_))) {
            self.set_degraded(true);
        }
        r
    }

    /// Set the default statement timeout applied to every query on this
    /// cloud (`None` clears it). Sub-millisecond durations round up to
    /// 1 ms — a zero would mean "no deadline" in the atomic encoding.
    pub fn set_default_deadline(&self, d: Option<std::time::Duration>) {
        let ms = d.map_or(0, |d| (d.as_millis() as u64).max(1));
        self.default_deadline_ms
            .store(ms, std::sync::atomic::Ordering::Relaxed);
    }

    /// Route queries on this cloud through an explicit admission
    /// controller (overload shedding; see [`crate::governor`]).
    pub fn set_admission(&mut self, adm: Arc<crate::governor::AdmissionController>) {
        self.admission = Some(adm);
    }

    /// What [`crate::PointTable::govern`] runs a statement on this cloud
    /// under: its admission controller (the instance one if set, else the
    /// process-wide default, unlimited out of the box), its fault injector
    /// and its default deadline.
    pub(crate) fn governance(
        &self,
    ) -> (
        &AdmissionController,
        Option<Arc<FaultInjector>>,
        Option<Duration>,
    ) {
        let deadline = match self.default_deadline_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let admission = self
            .admission
            .as_deref()
            .unwrap_or(AdmissionController::global());
        (admission, self.fault.clone(), deadline)
    }

    /// Attach fault-injection hooks for the imprint-build path (tests
    /// only; see [`crate::fault`]).
    pub fn set_fault_injector(&mut self, fi: Arc<crate::fault::FaultInjector>) {
        if let Some(ing) = &mut self.ingest {
            ing.tail.fault = Some(Arc::clone(&fi));
        }
        self.fault = Some(fi);
    }

    /// Number of points (rows), the tail's included.
    pub fn num_points(&self) -> usize {
        self.table.num_rows() + self.tail().map_or(0, PointCloud::num_points)
    }

    /// Raw column payload bytes (storage accounting, E2).
    pub fn data_bytes(&self) -> usize {
        self.table.byte_len() + self.tail().map_or(0, PointCloud::data_bytes)
    }

    /// Total bytes of all imprint indexes built so far (E2).
    pub fn index_bytes(&self) -> usize {
        let own: usize = self.imprints.read().values().map(|i| i.byte_size()).sum();
        own + self.tail().map_or(0, PointCloud::index_bytes)
    }

    /// A streaming cloud's append-only tail.
    fn tail(&self) -> Option<&PointCloud> {
        self.ingest.as_ref().map(|i| &*i.tail)
    }

    /// The cloud's segments in row order, each with the global id of its
    /// first row: the cloud's own table, then a streaming cloud's tail.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (&PointCloud, usize)> {
        let base = self.table.num_rows();
        std::iter::once((self, 0)).chain(self.tail().map(|t| (t, base)))
    }

    /// Rows of this segment alone: a streaming cloud's base.
    pub(crate) fn segment_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// The little-endian dump of column `name` over the global rows
    /// `rows`, read across the segments: a streaming cloud's whole column,
    /// where [`Self::column`] is its base's.
    pub fn column_dump(
        &self,
        name: &str,
        rows: std::ops::Range<usize>,
    ) -> Result<Vec<u8>, CoreError> {
        let mut out = Vec::new();
        for (seg, start) in self.segments() {
            let end = start + seg.segment_rows();
            let (lo, hi) = (rows.start.clamp(start, end), rows.end.clamp(start, end));
            if lo < hi {
                let bytes = seg.column(name)?.range_to_le_bytes(lo - start..hi - start);
                if out.is_empty() {
                    out = bytes;
                } else {
                    out.extend_from_slice(&bytes);
                }
            }
        }
        Ok(out)
    }

    /// The underlying flat table: a streaming cloud's base.
    pub fn table(&self) -> &FlatTable {
        &self.table
    }

    /// Mutable table access for the in-place SFC reorder at seal time
    /// (`&mut self` guarantees no concurrent query holds a snapshot).
    pub(crate) fn table_mut(&mut self) -> &mut FlatTable {
        &mut self.table
    }

    /// The table of a tile of `rows` rows: the columns of `held` (the
    /// tile as resident so far, if at all), shared without a copy, plus
    /// `added`, in schema order, with `held`'s imprint cache — an index
    /// describes one column, and the columns are the same.
    pub(crate) fn tile(
        rows: usize,
        held: Option<&PointCloud>,
        added: Vec<(Field, Column)>,
    ) -> Result<PointCloud, CoreError> {
        let mut columns: Vec<(Field, Arc<Column>)> = held
            .iter()
            .flat_map(|pc| pc.table.shared_columns())
            .map(|(f, c)| (f.clone(), Arc::clone(c)))
            .collect();
        columns.extend(added.into_iter().map(|(f, c)| (f, Arc::new(c))));
        columns.sort_by_key(|(f, _)| COLUMN_NAMES.iter().position(|n| *n == f.name));
        let mut pc = Self::over(FlatTable::from_columns(columns, rows)?);
        if let Some(held) = held {
            *pc.imprints.get_mut() = held.imprints.read().clone();
        }
        Ok(pc)
    }

    /// Drop every cached imprint index. Required after a row reorder —
    /// the cached bit-vectors describe the old row order.
    pub(crate) fn clear_imprint_cache(&mut self) {
        self.imprints.get_mut().clear();
    }

    /// Append a batch of decoded records (transposes, then bulk-appends).
    ///
    /// On an ingesting cloud ([`Self::open_ingest`]) the batch is WAL-
    /// logged before it touches the table; on a plain cloud it is applied
    /// directly. Cached imprints are refreshed incrementally either way.
    pub fn append_records(&mut self, records: &[PointRecord]) -> Result<usize, CoreError> {
        let soa = ColumnArrays::from_records(records);
        let dumps = soa.to_dumps();
        self.append_dumps(&dumps)
    }

    /// [`Self::append_records`] returning the durability acknowledgement:
    /// `Ok(true)` means the batch — and every batch before it — is fsynced
    /// in the WAL and visible to queries. Under `Durability::GroupCommit`
    /// an `Ok(false)` batch becomes durable at the next group sync or an
    /// explicit [`Self::flush_wal`]. Plain clouds (no WAL) report `true`.
    pub fn ingest_records(&mut self, records: &[PointRecord]) -> Result<bool, CoreError> {
        self.ingest_records_tagged(records, 0).map(|a| a.durable)
    }

    /// [`Self::ingest_records`] with an idempotency token (0 = none): the
    /// records are transposed and handed to [`Self::ingest_columns_tagged`].
    pub fn ingest_records_tagged(
        &mut self,
        records: &[PointRecord],
        token: u64,
    ) -> Result<IngestAck, CoreError> {
        self.ingest_columns_tagged(ColumnArrays::from_records(records), token)
    }

    /// The one ingest entry: append a column batch. A batch whose token
    /// (0 = none) the WAL has already logged is acknowledged without being
    /// applied again, so a client retrying an INSERT after a lost
    /// acknowledgement cannot double-insert. Otherwise the batch's column
    /// dumps — the WAL payload — are logged, then applied; the rows become
    /// visible once the WAL acknowledges them durable. Plain clouds apply
    /// the batch directly.
    pub fn ingest_columns_tagged(
        &mut self,
        batch: ColumnArrays,
        token: u64,
    ) -> Result<IngestAck, CoreError> {
        if self.degraded() {
            return Err(CoreError::StorageExhausted(format!(
                "table is read-only (degraded after a storage failure); \
                 {} rows refused — free space and seal() to recover",
                batch.num_rows()
            )));
        }
        let logged = |ing: &IngestState| ing.wal.token_seen(token).is_some();
        if token != 0 && self.ingest.as_ref().is_some_and(logged) {
            crate::metrics::MetricsRegistry::global()
                .wal_dedup_hits
                .inc();
            return Ok(IngestAck {
                inserted: 0,
                durable: true,
                deduped: true,
            });
        }
        let dumps = batch.to_dumps();
        let (inserted, durable) = match self.ingest {
            Some(_) => self.append_dumps_ingest_tagged(&dumps, token)?,
            None => (self.append_dumps(&dumps)?, true),
        };
        Ok(IngestAck {
            inserted,
            durable,
            deduped: false,
        })
    }

    /// `COPY BINARY`: append one little-endian dump per column.
    pub fn append_dumps(&mut self, dumps: &[Vec<u8>]) -> Result<usize, CoreError> {
        if self.ingest.is_some() {
            return self.append_dumps_ingest_tagged(dumps, 0).map(|(n, _)| n);
        }
        let n = self.apply_dumps(dumps)?;
        self.publish_visible(self.num_points());
        Ok(n)
    }

    /// WAL-first append: the batch is framed and logged, then applied to
    /// the table; the visibility watermark advances only when the WAL
    /// acknowledges durability (always under `Durability::Always`; at
    /// group boundaries under `GroupCommit`; immediately under `None`,
    /// which trades the no-ghost-rows guarantee for speed).
    fn append_dumps_ingest_tagged(
        &mut self,
        dumps: &[Vec<u8>],
        token: u64,
    ) -> Result<(usize, bool), CoreError> {
        let rows = dump_rows(dumps)?;
        if rows == 0 {
            return Ok((0, true));
        }
        // `WalAppend` times the frame write and any group-commit fsync
        // only; applying the batch to the tail is not WAL time.
        let t0 = std::time::Instant::now();
        let append = self
            .ingest
            .as_mut()
            .expect("ingest state checked by caller")
            .wal
            .append_batch(dumps, rows, token);
        let logged = t0.elapsed();
        let durable = self.note_storage(append)?;
        let n = self.apply_dumps(dumps)?;
        let ing = self.ingest.as_ref().expect("ingest state");
        if durable || ing.wal.durability() == Durability::None {
            self.publish_visible(self.num_points());
        }
        let m = crate::metrics::MetricsRegistry::global();
        m.wal_batches.inc();
        m.record_stage(crate::metrics::Stage::WalAppend, rows, logged);
        self.publish_wal_backlog();
        Ok((n, durable))
    }

    /// Mirror the applied-but-not-yet-durable row count into the
    /// `wal_backlog_rows` gauge (last-writer-wins) so `/metrics` and
    /// `/healthz` can watch flush lag without touching the WAL lock.
    fn publish_wal_backlog(&self) {
        if let Some(ing) = &self.ingest {
            let backlog = self
                .num_points()
                .saturating_sub(ing.wal.durable_rows() as usize);
            crate::metrics::MetricsRegistry::global()
                .wal_backlog_rows
                .set(backlog as u64);
        }
    }

    /// Apply dumps to the table: a plain cloud's own, a streaming cloud's
    /// tail (the base is never written again), whose imprints then cover
    /// every column the base has indexed, on the base's bins.
    fn apply_dumps(&mut self, dumps: &[Vec<u8>]) -> Result<usize, CoreError> {
        let n = match &mut self.ingest {
            Some(ing) => {
                let n = ing.tail.extend(dumps)?;
                for (name, imp) in self.imprints.get_mut().iter() {
                    ing.tail.index_like(name, imp);
                }
                n
            }
            None => self.extend(dumps)?,
        };
        let m = crate::metrics::MetricsRegistry::global();
        m.table_rows.set(self.num_points() as u64);
        m.indexed_columns.set(self.imprints.get_mut().len() as u64);
        Ok(n)
    }

    /// Append dumps to this segment's own table and refresh every cached
    /// imprint with the appended rows — incremental `push_line` surgery on
    /// the index, not a wholesale invalidation, so append-while-query keeps
    /// its indexes.
    fn extend(&mut self, dumps: &[Vec<u8>]) -> Result<usize, CoreError> {
        let refs: Vec<&[u8]> = dumps.iter().map(Vec::as_slice).collect();
        let n = self.table.copy_binary(&refs)?;
        let cache = self.imprints.get_mut();
        let mut dead = Vec::new();
        for (name, imp) in cache.iter_mut() {
            match self.table.column_by_name(name) {
                // Clone-on-write: queries holding the old Arc keep probing
                // the pre-append index (consistent with their snapshot).
                Ok(col) if Arc::make_mut(imp).append_column(col).is_ok() => {}
                _ => dead.push(name.clone()),
            }
        }
        for name in dead {
            cache.remove(&name);
        }
        Ok(n)
    }

    /// Index column `name` of this segment (a tail) on the bins of `like`,
    /// the base's index of it, unless it is indexed already. An empty base
    /// has no bins worth sharing: the tail then builds its own on first
    /// use.
    fn index_like(&self, name: &str, like: &ColumnImprints) {
        if like.is_empty() || self.has_imprints(name) {
            return;
        }
        let built = self
            .table
            .column_by_name(name)
            .map(|col| like.build_like(col));
        if let Ok(Ok(imp)) = built {
            let mut cache = self.imprints.write();
            cache
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(imp));
        }
    }

    /// Fold a streaming cloud's tail into its base: a tiled seal permutes
    /// the rows of the whole table.
    pub(crate) fn fold_tail(&mut self) -> Result<(), CoreError> {
        let Some(ing) = &mut self.ingest else {
            return Ok(());
        };
        let tail = std::mem::replace(&mut ing.tail.table, FlatTable::new(point_schema()));
        ing.tail.imprints.get_mut().clear();
        let dumps: Vec<Vec<u8>> = (0..tail.schema().width())
            .map(|i| tail.column(i).to_le_bytes())
            .collect();
        self.extend(&dumps).map(drop)
    }

    /// Append one row the slow way (CSV path; plain clouds only).
    pub(crate) fn push_row_values(&mut self, row: &[lidardb_storage::Value]) {
        debug_assert!(self.ingest.is_none(), "CSV path bypasses the WAL");
        self.table.push_row(row);
        self.imprints.get_mut().clear();
        self.publish_visible(self.num_points());
    }

    /// Rows currently visible to queries. Equals [`Self::num_points`] on
    /// plain clouds; on ingesting clouds it lags `num_points` by the
    /// applied-but-unsynced batches.
    pub fn visible_rows(&self) -> usize {
        self.visible_rows.load(Ordering::Acquire)
    }

    fn publish_visible(&self, rows: usize) {
        self.visible_rows.store(rows, Ordering::Release);
    }

    /// Borrow a column by name: this segment's (a streaming cloud's base).
    pub fn column(&self, name: &str) -> Result<&Column, CoreError> {
        Ok(self.table.column_by_name(name)?)
    }

    /// Typed view of an `f64` column (x, y, z, gps_time).
    pub fn f64_column(&self, name: &str) -> Result<&[f64], CoreError> {
        Ok(self.column(name)?.as_slice::<f64>()?)
    }

    /// The imprint index of a column, building it on first use.
    pub fn imprints_for(&self, name: &str) -> Result<Arc<ColumnImprints>, CoreError> {
        self.imprints_built(name).map(|(imp, _)| imp)
    }

    /// [`imprints_for`](Self::imprints_for), also reporting the seconds
    /// spent building the index — zero on a cache hit.
    pub fn imprints_for_timed(&self, name: &str) -> Result<(Arc<ColumnImprints>, f64), CoreError> {
        self.imprints_built(name)
            .map(|(imp, built)| (imp, built.as_secs_f64()))
    }

    /// [`imprints_for`](Self::imprints_for), also returning the build's
    /// `ImprintBuild` stage time — zero on a cache hit. The query engine
    /// subtracts it to keep `Explain.t_imprints` probe-only.
    pub(crate) fn imprints_built(
        &self,
        name: &str,
    ) -> Result<(Arc<ColumnImprints>, std::time::Duration), CoreError> {
        let metrics = crate::metrics::MetricsRegistry::global();
        if let Some(imp) = self.imprints.read().get(name) {
            metrics.imprint_cache_hits.inc();
            return Ok((Arc::clone(imp), std::time::Duration::ZERO));
        }
        metrics.imprint_cache_misses.inc();
        // Build outside any lock (cheap to race: both builds are identical
        // and the second insert wins harmlessly).
        let mut build = crate::trace::stage(crate::metrics::Stage::ImprintBuild);
        let col = self.table.column_by_name(name)?;
        if let Some(fi) = &self.fault {
            if let Some(kind) = fi.fire(crate::fault::FaultStage::ImprintBuild, name) {
                build.add_flags(crate::trace::FLAG_FAULT);
                return Err(crate::error::CoreError::Corrupt(format!(
                    "injected imprint-build failure on column {name}: {kind:?}"
                )));
            }
        }
        let imp = Arc::new(ColumnImprints::build(col)?);
        // A streaming cloud's tail is indexed on the same bins.
        if let Some(tail) = self.tail() {
            tail.index_like(name, &imp);
        }
        build.set_rows(imp.len() as u64, imp.len() as u64);
        // The authoritative imprint_build recording site: every lazy build
        // lands here, whether triggered by a query or a direct call.
        let built = build.finish(imp.len());
        let mut cache = self.imprints.write();
        cache
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&imp));
        metrics.indexed_columns.set(cache.len() as u64);
        Ok((imp, built))
    }

    /// Whether a column already has an imprint index (observability for
    /// the lazy-build tests and the EXPLAIN output).
    pub fn has_imprints(&self, name: &str) -> bool {
        self.imprints.read().contains_key(name)
    }

    /// Per-column imprint statistics for every index built so far.
    pub fn imprint_stats(&self) -> Vec<(String, lidardb_imprints::ImprintStats)> {
        let mut out: Vec<(String, _)> = self
            .imprints
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Materialise one record back from the table (cold path: result
    /// sets, tests, rendering), a tail row from the tail. Needs every
    /// column resident.
    pub fn record(&self, row: usize) -> Option<PointRecord> {
        if let (Some(tail), Some(r)) = (self.tail(), row.checked_sub(self.table.num_rows())) {
            return tail.record(r);
        }
        debug_assert_eq!(
            self.table.schema().width(),
            NUM_COLUMNS,
            "record of a partial tile"
        );
        let vals = self.table.row(row)?;
        let f = |i: usize| vals[i].as_f64();
        Some(PointRecord {
            x: f(0),
            y: f(1),
            z: f(2),
            intensity: f(3) as u16,
            return_number: f(4) as u8,
            number_of_returns: f(5) as u8,
            scan_direction: f(6) as u8,
            edge_of_flight_line: f(7) as u8,
            classification: f(8) as u8,
            synthetic: f(9) as u8,
            key_point: f(10) as u8,
            withheld: f(11) as u8,
            scan_angle_rank: f(12) as i8,
            user_data: f(13) as u8,
            point_source_id: f(14) as u16,
            gps_time: f(15),
            red: f(16) as u16,
            green: f(17) as u16,
            blue: f(18) as u16,
            wave_packet_index: f(19) as u8,
            wave_offset: f(20) as u64,
            wave_size: f(21) as u32,
            wave_return_loc: f(22) as f32,
            wave_xt: f(23) as f32,
            wave_yt: f(24) as f32,
            wave_zt: f(25) as f32,
        })
    }

    // ---- streaming ingest (WAL + recovery + seal) ----------------------

    /// Open `dir` for crash-safe streaming ingestion.
    ///
    /// Recovery path: stale commit debris next to `dir` is cleaned (or
    /// rolled back), the last dump is loaded, and the committed prefix of
    /// the sibling WAL (`<dir>.wal`) is replayed on top — frames the dump
    /// already contains are skipped (idempotent replay, covering a `seal`
    /// that crashed between its dump rename and its WAL truncate), and a
    /// torn or corrupt tail is truncated, never mis-replayed. The findings
    /// are reported via [`Self::recovery_report`].
    ///
    /// A missing or empty `dir` starts an empty ingesting cloud (the WAL
    /// alone carries it until the first [`Self::seal`]).
    pub fn open_ingest(dir: impl AsRef<Path>, durability: Durability) -> Result<Self, CoreError> {
        Self::open_ingest_with_faults(dir, durability, None)
    }

    /// [`Self::open_ingest`] with fault-injection hooks (tests only).
    pub fn open_ingest_with_faults(
        dir: impl AsRef<Path>,
        durability: Durability,
        fault: Option<Arc<crate::fault::FaultInjector>>,
    ) -> Result<Self, CoreError> {
        let dir = dir.as_ref();
        crate::persist::recover_stale_dirs(dir)?;
        let saved = match std::fs::read_dir(dir) {
            Ok(mut entries) => entries.next().is_some(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(lidardb_las::LasError::Io(e).into()),
        };
        let mut pc = if saved {
            Self::open_dir_with_faults(dir, fault.as_deref())?
        } else {
            Self::new()
        };
        // `Recover` times the WAL scan and replay only: the dump read
        // above is `PersistLoad`'s.
        let t0 = std::time::Instant::now();
        if let Some(fi) = &fault {
            pc.set_fault_injector(Arc::clone(fi));
        }
        let base = pc.num_points();
        let wal_path = wal::wal_path_for(dir);
        let scan = wal::scan_file(&wal_path, fault.as_deref())?;
        let mut report = RecoveryReport {
            base_rows: base,
            wal_frames: scan.frames.len(),
            truncated_bytes: scan.tail_bytes,
            torn_tail: scan.tail_bytes > 0,
            ..Default::default()
        };
        // The dump just read is the base and is never written again: the
        // replayed frames, and every later append, go to the tail.
        let mut tail = PointCloud::new();
        tail.fault = fault.clone();
        for frame in &scan.frames {
            if frame.end_rows <= base as u64 {
                report.skipped_frames += 1;
                continue;
            }
            report.replayed_rows += tail.extend(&frame.dumps)?;
            report.replayed_frames += 1;
            let total = base + tail.num_points();
            if total as u64 != frame.end_rows {
                return Err(CoreError::Corrupt(format!(
                    "wal replay: frame {} claims {} cumulative rows, table has {total}",
                    frame.seq, frame.end_rows,
                )));
            }
        }
        let total = base + tail.num_points();
        let mut wal = wal::open_writer(&wal_path, total as u64, durability, fault.clone())?;
        if report.replayed_frames == 0 {
            // Every logged frame (if any) is already inside the dump — a
            // seal crashed between the dump rename and the log truncate.
            // Finish that truncate so the frame chain restarts at the
            // dump's base.
            wal.reset(total as u64)?;
        }
        let took = t0.elapsed();
        report.total_rows = total;
        report.seconds = took.as_secs_f64();
        pc.publish_visible(total);
        let m = crate::metrics::MetricsRegistry::global();
        m.table_rows.set(total as u64);
        m.wal_recoveries.inc();
        m.record_stage(crate::metrics::Stage::Recover, report.replayed_rows, took);
        pc.ingest = Some(IngestState {
            wal,
            dir: dir.to_path_buf(),
            recovery: report,
            tail: Box::new(tail),
        });
        Ok(pc)
    }

    /// What recovery found when this cloud was opened for ingest; `None`
    /// on plain clouds. Rendered by SQL `SHOW RECOVERY`.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.ingest.as_ref().map(|i| &i.recovery)
    }

    /// The ingest durability policy, `None` for plain clouds.
    pub fn ingest_durability(&self) -> Option<Durability> {
        self.ingest.as_ref().map(|i| i.wal.durability())
    }

    /// Rows covered by fsynced WAL frames (`None` on plain clouds).
    pub fn durable_rows(&self) -> Option<usize> {
        self.ingest.as_ref().map(|i| i.wal.durable_rows() as usize)
    }

    /// Force a WAL group-commit sync: every appended batch becomes durable
    /// and visible. No-op on plain clouds.
    pub fn flush_wal(&mut self) -> Result<(), CoreError> {
        if let Some(ing) = self.ingest.as_mut() {
            let r = ing.wal.sync();
            self.note_storage(r)?;
            self.publish_visible(self.num_points());
            self.publish_wal_backlog();
        }
        Ok(())
    }

    /// Checkpoint: flush the WAL, fold the whole table — base and tail, in
    /// row order — into a fresh atomic + durable flat dump (staged rename),
    /// then truncate the WAL to a new base. The rows stay where they are in
    /// memory; a reopen reads the new dump as its base. A crash anywhere
    /// inside leaves a recoverable state — in the window between the dump
    /// commit and the WAL truncate, replay skips the frames the dump
    /// already contains.
    pub fn seal(&mut self) -> Result<(), CoreError> {
        self.checkpoint(None).map(drop)
    }

    /// [`Self::seal`], but folding the table into a **tiled** (v3) dump:
    /// the tail is folded into the base in memory, rows are SFC-sorted in
    /// place, cut into tiles with per-column zone maps, and written as one
    /// v2 dump per tile under the ingest directory — the same checkpoint, fault sites and crash windows as
    /// `seal`, only the layout differs. Returns the tile count. The
    /// directory then opens either eagerly ([`Self::open_dir`] /
    /// [`Self::open_ingest`]) or lazily and out-of-core
    /// ([`crate::segment::TiledCloud::open`]).
    pub fn seal_to_tiles(
        &mut self,
        opts: &crate::segment::TileOptions,
    ) -> Result<usize, CoreError> {
        self.checkpoint(Some(opts))
    }

    /// The one checkpoint body behind [`Self::seal`] (flat layout, `None`)
    /// and [`Self::seal_to_tiles`] (tiled). Returns the tile count.
    fn checkpoint(
        &mut self,
        tiles: Option<&crate::segment::TileOptions>,
    ) -> Result<usize, CoreError> {
        let Some((dir, durability)) = self
            .ingest
            .as_ref()
            .map(|i| (i.dir.clone(), i.wal.durability()))
        else {
            return Err(CoreError::InvalidQuery(
                "seal: cloud was not opened for ingest".into(),
            ));
        };
        self.flush_wal()?;
        let layout = match tiles {
            Some(opts) => crate::segment::sort_and_plan(self, opts)?,
            None => crate::persist::Layout::flat(self.num_points()),
        };
        let saved = crate::persist::save(self, &dir, &layout, self.fault.as_deref(), durability);
        self.note_storage(saved)?;
        if let Some(fi) = &self.fault {
            if let Some(kind) = fi.fire(crate::fault::FaultStage::Seal, "truncate") {
                // Crash after the dump committed but before the WAL
                // truncate: the log still holds frames the dump now
                // contains — exactly the window idempotent replay covers.
                return Err(CoreError::Corrupt(format!(
                    "injected {kind:?} during seal before wal truncate"
                )));
            }
        }
        let n = self.num_points() as u64;
        self.ingest
            .as_mut()
            .expect("ingest state checked above")
            .wal
            .reset(n)?;
        // The full table just reached stable storage: if the device had
        // been exhausted, the operator has freed space — leave degraded
        // mode and accept ingest again.
        self.set_degraded(false);
        Ok(layout.tiles.len())
    }

    /// Write the table as a tiled (v3) dump at `dir`, SFC-sorting the rows
    /// in place first: one v2 dump per tile plus a root manifest, staged,
    /// committed and fsynced exactly like [`Self::save_dir`]. For plain
    /// (non-ingest) clouds — ingesting clouds should use
    /// [`Self::seal_to_tiles`], which also checkpoints the WAL. Returns
    /// the tile count.
    pub fn save_tiled(
        &mut self,
        dir: impl AsRef<std::path::Path>,
        opts: &crate::segment::TileOptions,
    ) -> Result<usize, CoreError> {
        let layout = crate::segment::sort_and_plan(self, opts)?;
        crate::persist::save(self, dir.as_ref(), &layout, None, Durability::Always)?;
        Ok(layout.tiles.len())
    }
}

/// Row count of a per-column dump set, validating its shape against the
/// point schema *before* anything is WAL-logged: every column must hold
/// exactly `rows * type_size` bytes, so a malformed batch can never reach
/// the log (where its replay would poison recovery).
fn dump_rows(dumps: &[Vec<u8>]) -> Result<usize, CoreError> {
    let schema = point_schema();
    if dumps.len() != schema.width() {
        return Err(CoreError::Corrupt(format!(
            "dump set has {} columns, schema has {}",
            dumps.len(),
            schema.width()
        )));
    }
    let rows = dumps[0].len() / schema.fields()[0].ptype.size();
    for (d, f) in dumps.iter().zip(schema.fields()) {
        if d.len() != rows * f.ptype.size() {
            return Err(CoreError::Corrupt(format!(
                "column {} dump has {} bytes, {} rows need {}",
                f.name,
                d.len(),
                rows,
                rows * f.ptype.size()
            )));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: usize) -> Vec<PointRecord> {
        (0..n)
            .map(|i| PointRecord {
                x: i as f64,
                y: (n - i) as f64,
                z: (i % 30) as f64,
                classification: (i % 10) as u8,
                intensity: i as u16,
                gps_time: i as f64 * 0.01,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn append_and_read_back() {
        let mut pc = PointCloud::new();
        pc.append_records(&sample_records(1000)).unwrap();
        assert_eq!(pc.num_points(), 1000);
        let xs = pc.f64_column("x").unwrap();
        assert_eq!(xs[7], 7.0);
        let rec = pc.record(7).unwrap();
        assert_eq!(rec.x, 7.0);
        assert_eq!(rec.y, 993.0);
        assert_eq!(rec.classification, 7);
        assert!(pc.record(1000).is_none());
    }

    #[test]
    fn imprints_are_lazy_and_cached() {
        let mut pc = PointCloud::new();
        pc.append_records(&sample_records(5000)).unwrap();
        assert!(!pc.has_imprints("x"));
        let a = pc.imprints_for("x").unwrap();
        assert!(pc.has_imprints("x"));
        let b = pc.imprints_for("x").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call hits the cache");
        assert!(!pc.has_imprints("y"), "only the probed column is indexed");
    }

    #[test]
    fn append_refreshes_imprints_incrementally() {
        let mut pc = PointCloud::new();
        pc.append_records(&sample_records(100)).unwrap();
        pc.imprints_for("x").unwrap();
        assert!(pc.has_imprints("x"));
        pc.append_records(&sample_records(100)).unwrap();
        assert!(
            pc.has_imprints("x"),
            "append extends the cached index instead of invalidating it"
        );
        let imp = pc.imprints_for("x").unwrap();
        assert_eq!(imp.len(), 200, "index covers the appended rows");
        // x repeats 0..100 in each batch: a point probe must surface the
        // matching row in *both* the old and the appended region.
        let cand = imp.probe_f64(50.0, 50.0);
        assert!(cand.contains(50) && cand.contains(150));
    }

    #[test]
    fn visible_rows_tracks_appends_on_plain_clouds() {
        let mut pc = PointCloud::new();
        assert_eq!(pc.visible_rows(), 0);
        pc.append_records(&sample_records(64)).unwrap();
        assert_eq!(pc.visible_rows(), 64);
        assert_eq!(pc.recovery_report(), None);
        assert_eq!(pc.ingest_durability(), None);
        assert!(pc.seal().is_err(), "plain clouds have nothing to seal");
    }

    #[test]
    fn storage_accounting() {
        let mut pc = PointCloud::new();
        pc.append_records(&sample_records(10_000)).unwrap();
        assert_eq!(pc.index_bytes(), 0);
        pc.imprints_for("x").unwrap();
        pc.imprints_for("y").unwrap();
        assert!(pc.index_bytes() > 0);
        let stats = pc.imprint_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "x");
        // Row bytes: 81 bytes of unpacked payload per point in the flat
        // table (the LAS bit-fields each get their own u8 column).
        assert_eq!(pc.data_bytes(), 10_000 * 81);
    }

    fn tdir(name: &str) -> lidardb_test_support::ScratchDir {
        lidardb_test_support::ScratchDir::vacant(&format!("ingest_{name}"))
    }

    #[test]
    fn ingest_survives_reopen_without_seal() {
        let dir = tdir("reopen");
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 0);
        assert!(pc.ingest_records(&sample_records(100)).unwrap());
        assert!(pc.ingest_records(&sample_records(50)).unwrap());
        assert_eq!(pc.visible_rows(), 150);
        drop(pc); // "crash": no seal, the WAL alone carries the rows
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 150);
        let rep = pc.recovery_report().unwrap();
        assert_eq!(rep.replayed_rows, 150);
        assert_eq!(rep.replayed_frames, 2);
        assert_eq!(rep.base_rows, 0);
        assert!(!rep.torn_tail);
        assert_eq!(pc.record(107).unwrap().x, 7.0, "payload intact");
    }

    #[test]
    fn an_existing_empty_directory_opens_as_an_empty_table() {
        let dir = lidardb_test_support::ScratchDir::new("ingest_empty_dir");
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 0);
        assert!(pc.ingest_records(&sample_records(40)).unwrap());
        drop(pc);
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 40, "the WAL brings the rows back");
        assert_eq!(pc.record(39), Some(sample_records(40)[39]));
        // Sealing over the empty directory makes it a saved table.
        pc.seal().unwrap();
        drop(pc);
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 40);
        assert_eq!(pc.recovery_report().unwrap().base_rows, 40);
    }

    /// Appends after a reopen go to the tail: the base columns the open
    /// read stay where they are however far the table grows past them.
    #[test]
    fn appends_after_a_reopen_leave_the_base_in_place() {
        let dir = tdir("base_in_place");
        let mut pc = PointCloud::open_ingest(&dir, Durability::None).unwrap();
        pc.ingest_records(&sample_records(1000)).unwrap();
        pc.seal().unwrap();
        drop(pc);
        let mut pc = PointCloud::open_ingest(&dir, Durability::None).unwrap();
        pc.imprints_for("x").unwrap();
        let base_x = pc.f64_column("x").unwrap().as_ptr();
        for _ in 0..5 {
            pc.ingest_records(&sample_records(1000)).unwrap();
        }
        assert_eq!(pc.num_points(), 6000);
        let xs = pc.f64_column("x").unwrap();
        assert_eq!(
            (xs.as_ptr(), xs.len()),
            (base_x, 1000),
            "the base never moves"
        );
        assert_eq!(pc.record(999).unwrap().x, 999.0, "last base row");
        assert_eq!(pc.record(1007).unwrap().x, 7.0, "a tail row");
        assert!(pc.record(6000).is_none());
        let tail = pc.tail().unwrap();
        assert_eq!(tail.num_points(), 5000);
        assert_eq!(
            tail.imprints_for("x").unwrap().len(),
            5000,
            "indexed as it grew"
        );
        let all = pc.select_query_with(None, &[], Default::default(), crate::Parallelism::Serial);
        assert_eq!(all.unwrap().rows, (0..6000).collect::<Vec<_>>());
    }

    #[test]
    fn seal_folds_wal_into_dump_and_truncates() {
        let dir = tdir("seal");
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        pc.ingest_records(&sample_records(80)).unwrap();
        pc.seal().unwrap();
        let wal_len = std::fs::metadata(wal::wal_path_for(&dir)).unwrap().len();
        assert!(wal_len < 64, "WAL truncated to header, got {wal_len} bytes");
        // More appends after the seal land in the fresh log.
        pc.ingest_records(&sample_records(20)).unwrap();
        drop(pc);
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 100);
        let rep = pc.recovery_report().unwrap();
        assert_eq!(rep.base_rows, 80, "dump carries the sealed prefix");
        assert_eq!(rep.replayed_rows, 20, "log carries the rest");
    }

    #[test]
    fn group_commit_defers_visibility_until_flush() {
        let dir = tdir("groupvis");
        let mut pc = PointCloud::open_ingest(
            &dir,
            Durability::GroupCommit {
                max_batches: 100,
                max_delay: std::time::Duration::from_secs(3600),
            },
        )
        .unwrap();
        assert!(!pc.ingest_records(&sample_records(60)).unwrap());
        assert_eq!(pc.num_points(), 60, "applied to the table");
        assert_eq!(pc.visible_rows(), 0, "but not visible until durable");
        assert_eq!(pc.durable_rows(), Some(0));
        // A query sees the empty snapshot, not the in-flight batch.
        let sel = pc
            .select_query_with(None, &[], Default::default(), crate::Parallelism::default())
            .unwrap();
        assert_eq!(sel.rows.len(), 0, "no ghost rows");
        pc.flush_wal().unwrap();
        assert_eq!(pc.visible_rows(), 60);
        assert_eq!(pc.durable_rows(), Some(60));
        let sel = pc
            .select_query_with(None, &[], Default::default(), crate::Parallelism::default())
            .unwrap();
        assert_eq!(sel.rows.len(), 60, "visible after the group commit");
    }

    #[test]
    fn durability_none_is_visible_immediately() {
        let dir = tdir("nonevis");
        let mut pc = PointCloud::open_ingest(&dir, Durability::None).unwrap();
        assert!(!pc.ingest_records(&sample_records(10)).unwrap());
        assert_eq!(pc.visible_rows(), 10, "None trades safety for speed");
    }

    #[test]
    fn ingest_rejects_malformed_dumps_before_logging() {
        let dir = tdir("malformed");
        let mut pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        // Wrong column count.
        assert!(pc.append_dumps(&[vec![0u8; 8]]).is_err());
        // Right count, torn byte length in one column.
        let soa = ColumnArrays::from_records(&sample_records(4));
        let mut dumps = soa.to_dumps();
        dumps[3].pop();
        assert!(pc.append_dumps(&dumps).is_err());
        // Nothing reached the WAL: a reopen recovers zero rows.
        drop(pc);
        let pc = PointCloud::open_ingest(&dir, Durability::Always).unwrap();
        assert_eq!(pc.num_points(), 0);
        assert_eq!(pc.recovery_report().unwrap().wal_frames, 0);
    }

    #[test]
    fn unknown_column_errors() {
        let pc = PointCloud::new();
        assert!(pc.column("wibble").is_err());
        assert!(pc.imprints_for("wibble").is_err());
        assert!(pc.f64_column("classification").is_err(), "type mismatch");
    }
}
