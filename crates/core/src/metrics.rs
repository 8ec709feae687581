//! Engine observability: the process-wide metrics registry.
//!
//! The paper's demo shows a per-operator cardinality/timing table next to
//! every query (§4.2); [`crate::query::Explain`] is that table, carried by
//! every [`crate::query::Selection`]. It describes one query; this module
//! accumulates across queries and covers what `Explain` cannot see — the
//! loader, persister, imprint cache, morsel workers, WAL, governor and
//! server — in the tree's "simple, fast, lean" style: no tracing
//! framework, no external crates, just `std` atomics.
//!
//! * [`MetricsRegistry`] — a process-wide, fixed-shape registry of atomic
//!   [`Counter`]s, [`Gauge`]s and log-scaled latency [`Histogram`]s. The
//!   hot path is lock-free and `O(1)`: recording a stage is a handful of
//!   relaxed `fetch_add`s. Its scalars are listed once, in
//!   [`MetricsRegistry::SERIES`]; `sys.metrics`, `/metrics` and
//!   [`MetricsRegistry::reset`] all walk that list, so a series added
//!   there shows on every surface at once. Keeping history is the
//!   scraper's job: the registry holds only the live values.
//! * [`Stage`] — the stage taxonomy every layer records against:
//!   `imprint_probe`, `bbox_scan`, `grid_refine`, `aggregate`,
//!   `imprint_build`, `persist_save`, `persist_load`, `morsel`,
//!   `governor`, `wal_append`, `recover`, `server_recv`, `server_send`.
//!   A stage that carries a span is timed by one
//!   [`crate::trace::stage`] guard, whose one clock reading feeds the
//!   registry, the span and `Explain`.
//!
//! Cross-crate counters that cannot live here without inverting the
//! dependency graph (the imprints and storage crates sit *below* core)
//! are series whose instrument is their owning crate's reader:
//! `lidardb_imprints::{probe_count, probe_rows}()` and
//! `lidardb_storage::scan::{scan_calls, rows_examined}()`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use lidardb_imprints as imprints;
use lidardb_storage::scan;

/// Named stage scopes the engine records. The set is fixed so the registry
/// needs no allocation or locking on the record path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Imprint probe + candidate-list intersection (step 1a, probe-only).
    ImprintProbe,
    /// Exact bbox scan + attribute refines over candidates (step 1b).
    BboxScan,
    /// Spatial refinement (grid classification / exhaustive tests, step 2).
    GridRefine,
    /// Aggregate evaluation over a selection.
    Aggregate,
    /// Lazy imprint-index construction (cache misses only).
    ImprintBuild,
    /// Atomic column-dump save (`save_dir`).
    PersistSave,
    /// Bulk bytes → table ingestion: `open_dir` and the tile loader.
    PersistLoad,
    /// One morsel of the executor's filter step.
    Morsel,
    /// Query-lifecycle governance: admission-queue waits (`seconds`) and
    /// shed/timeout/kill/budget decisions (the dedicated counters).
    Governor,
    /// One framed batch appended to the write-ahead log (`rows` = points
    /// in the batch; `seconds` includes any group-commit fsync it trips).
    WalAppend,
    /// WAL recovery during `open_ingest`: replaying the committed frame
    /// prefix on top of the last dump.
    Recover,
    /// One request frame received and decoded by the network server
    /// (`rows` = payload bytes; `seconds` = read + decode time).
    ServerRecv,
    /// One result frame encoded and written by the network server
    /// (`rows` = result rows in the batch; `seconds` includes the
    /// backpressured socket write).
    ServerSend,
}

impl Stage {
    /// Every stage, in the (stable) order the snapshot renders them.
    /// New stages are always appended so the positional span codes of the
    /// earlier stages (see `trace::SpanKind::code`) stay stable —
    /// `Governor` in PR 5, `WalAppend`/`Recover` with the streaming-ingest
    /// WAL, `ServerRecv`/`ServerSend` with the wire protocol.
    pub const ALL: [Stage; 13] = [
        Stage::ImprintProbe,
        Stage::BboxScan,
        Stage::GridRefine,
        Stage::Aggregate,
        Stage::ImprintBuild,
        Stage::PersistSave,
        Stage::PersistLoad,
        Stage::Morsel,
        Stage::Governor,
        Stage::WalAppend,
        Stage::Recover,
        Stage::ServerRecv,
        Stage::ServerSend,
    ];

    /// The stage's snapshot/display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ImprintProbe => "imprint_probe",
            Stage::BboxScan => "bbox_scan",
            Stage::GridRefine => "grid_refine",
            Stage::Aggregate => "aggregate",
            Stage::ImprintBuild => "imprint_build",
            Stage::PersistSave => "persist_save",
            Stage::PersistLoad => "persist_load",
            Stage::Morsel => "morsel",
            Stage::Governor => "governor",
            Stage::WalAppend => "wal_append",
            Stage::Recover => "recover",
            Stage::ServerRecv => "server_recv",
            Stage::ServerSend => "server_send",
        }
    }

    /// Position in [`Stage::ALL`], which is declaration order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter (relaxed; counters are statistics, not
    /// synchronisation).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment the gauge (live-object counts: open connections).
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement the gauge, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ latency buckets: bucket *b* counts durations in
/// `[2^b, 2^(b+1))` nanoseconds, with the last bucket open-ended.
/// 2⁴⁷ ns ≈ 39 hours, far beyond any stage this engine runs.
pub const HIST_BUCKETS: usize = 48;

/// A log₂-scaled latency histogram over nanoseconds. Recording is one
/// relaxed `fetch_add` into the bucket picked by `ilog2` — `O(1)`, no
/// locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Bucket index for a duration (log₂ of its nanoseconds, clamped).
    pub fn bucket_of(d: Duration) -> usize {
        let nanos = d.as_nanos().max(1) as u64;
        (nanos.ilog2() as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket counts (index = log₂ nanoseconds).
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound (exclusive, in nanoseconds) of the bucket where the
    /// cumulative count first reaches fraction `p` of the observations —
    /// a log₂-quantised percentile. Returns 0 when nothing was recorded.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let need = (p.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= need {
                return 1u64 << ((b as u32 + 1).min(63));
            }
        }
        1u64 << 63
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The per-stage instrument bundle: call count, rows processed, total
/// nanoseconds, and the latency distribution.
#[derive(Debug, Default)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: Counter,
    /// Rows the stage processed (stage-specific meaning; see [`Stage`]).
    pub rows: Counter,
    /// Total wall-clock nanoseconds across all calls.
    pub nanos: Counter,
    /// Log₂-bucketed per-call latency.
    pub latency: Histogram,
}

impl StageStats {
    fn reset(&self) {
        self.calls.reset();
        self.rows.reset();
        self.nanos.reset();
        self.latency.reset();
    }
}

/// The process-wide metrics registry. One static instance
/// ([`MetricsRegistry::global`]) accumulates over the process lifetime;
/// [`MetricsRegistry::reset`] zeroes it for benchmarks and tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: [StageStats; Stage::ALL.len()],
    /// Queries answered by the two-step engine.
    pub queries: Counter,
    /// Imprint-cache hits (probe found a built index).
    pub imprint_cache_hits: Counter,
    /// Imprint-cache misses (lazy build was triggered).
    pub imprint_cache_misses: Counter,
    /// Probes degraded to exact scans because an imprint failed to build.
    pub degraded_probes: Counter,
    /// Morsels executed by the filter step.
    pub morsels: Counter,
    /// Files the bulk loader ingested.
    pub files_loaded: Counter,
    /// Files the bulk loader quarantined.
    pub files_quarantined: Counter,
    /// Points appended by the bulk loader.
    pub points_loaded: Counter,
    /// Queries shed by admission control (queue full or wait expired).
    pub queries_shed: Counter,
    /// Queries cancelled by an expired statement deadline.
    pub queries_timed_out: Counter,
    /// Queries cancelled by `KILL` / `QueryRegistry::kill` (incl. injected Cancel
    /// faults).
    pub queries_killed: Counter,
    /// Queries cancelled by an exceeded memory budget.
    pub budget_trips: Counter,
    /// Batches appended to a write-ahead log.
    pub wal_batches: Counter,
    /// WAL group-commit fsyncs (every durability acknowledgement).
    pub wal_syncs: Counter,
    /// WAL recoveries performed by `open_ingest` (incl. empty-log opens).
    pub wal_recoveries: Counter,
    /// Tiles zone-map-pruned before any imprint probe (tiled storage).
    pub tiles_pruned: Counter,
    /// Tiles that survived pruning and were probed/scanned.
    pub tiles_probed: Counter,
    /// Faults of a tile that was not resident (columns added to a
    /// resident tile are not counted).
    pub tiles_loaded: Counter,
    /// Tile segments evicted by the resident-budget LRU.
    pub tiles_evicted: Counter,
    /// Rows in the most recently appended-to table.
    pub table_rows: Gauge,
    /// Bytes of column values that table holds (set with `table_rows`).
    pub table_bytes: Gauge,
    /// Bytes of column capacity that table holds beyond its values: what
    /// growth by doubling left unused (set with `table_rows`).
    pub table_spare_bytes: Gauge,
    /// Imprint indexes currently cached on the most recently probed table.
    pub indexed_columns: Gauge,
    /// Bytes of the resident columns in the most recently touched tiled
    /// cloud's cache.
    pub resident_tile_bytes: Gauge,
    /// Network connections currently open on the server.
    pub open_connections: Gauge,
    /// Queries executing under the most recently active admission
    /// controller (same last-writer convention as `table_rows`).
    pub admission_in_flight: Gauge,
    /// Queries waiting in that controller's FIFO queue.
    pub admission_queued: Gauge,
    /// Queries currently registered in the process-wide query registry.
    pub inflight_queries: Gauge,
    /// Rows applied but not yet WAL-durable on the most recently
    /// appended-to streaming table (the group-commit backlog).
    pub wal_backlog_rows: Gauge,
    /// INSERT batches skipped because their idempotency token was already
    /// in a table's replay ledger (a client retried after a lost ack).
    pub wal_dedup_hits: Counter,
    /// Streaming tables currently in read-only degraded mode after an
    /// `ENOSPC`/`EIO` (queries serve the durable snapshot; INSERTs are
    /// rejected typed until `seal()` succeeds).
    pub degraded_tables: Gauge,
    /// 1 while the server is draining (graceful shutdown in progress:
    /// not accepting, in-flight statements running out their deadline),
    /// else 0. `/healthz` reports 503 while set.
    pub server_draining: Gauge,
    /// Lazily pinned epoch `uptime_ns` is measured from (first observation
    /// of this registry). `Instant` has no `Default`, hence the `OnceLock`.
    epoch: OnceLock<Instant>,
}

/// Whether a series only grows between resets or is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone between resets; `/metrics` suffixes it `_total`.
    Counter,
    /// Last write wins.
    Gauge,
}

impl SeriesKind {
    /// The kind's name in `sys.metrics` and in the exposition's `# TYPE`.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// Where a series' value lives.
#[derive(Debug, Clone, Copy)]
enum Instrument {
    /// A [`Counter`] or [`Gauge`] field of the registry.
    Field(fn(&MetricsRegistry) -> &AtomicU64),
    /// A process-wide counter of a crate below core: its reader and its
    /// reset.
    Extern(fn() -> u64, fn()),
}

/// One scalar series of the registry: its name on every surface, its
/// kind, and its instrument.
#[derive(Debug, Clone, Copy)]
pub struct Series {
    /// The series name (`/metrics` prefixes it, and suffixes counters).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: SeriesKind,
    instrument: Instrument,
}

impl Series {
    /// The series' current value in `registry`.
    pub fn value(&self, registry: &MetricsRegistry) -> u64 {
        match self.instrument {
            Instrument::Field(field) => field(registry).load(Ordering::Relaxed),
            Instrument::Extern(read, _) => read(),
        }
    }

    fn reset(&self, registry: &MetricsRegistry) {
        match self.instrument {
            Instrument::Field(field) => field(registry).store(0, Ordering::Relaxed),
            Instrument::Extern(_, reset) => reset(),
        }
    }
}

/// A series: the registry field of the same name, or a process-wide
/// counter of another crate, given by its reader and its reset.
macro_rules! series {
    ($kind:ident $name:ident) => {
        Series {
            name: stringify!($name),
            kind: SeriesKind::$kind,
            instrument: Instrument::Field(|r| &r.$name.0),
        }
    };
    ($kind:ident $name:ident = $read:path, $reset:path) => {
        Series {
            name: stringify!($name),
            kind: SeriesKind::$kind,
            instrument: Instrument::Extern($read, $reset),
        }
    };
}

/// The singleton behind [`MetricsRegistry::global`].
static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

impl MetricsRegistry {
    /// Every scalar series, counters first, in the order every surface
    /// renders them. Stages are not here: each has its own
    /// [`StageStats`].
    pub const SERIES: &'static [Series] = &[
        series!(Counter queries),
        series!(Counter imprint_cache_hits),
        series!(Counter imprint_cache_misses),
        series!(Counter degraded_probes),
        series!(Counter morsels),
        series!(Counter files_loaded),
        series!(Counter files_quarantined),
        series!(Counter points_loaded),
        series!(Counter queries_shed),
        series!(Counter queries_timed_out),
        series!(Counter queries_killed),
        series!(Counter budget_trips),
        series!(Counter wal_batches),
        series!(Counter wal_syncs),
        series!(Counter wal_recoveries),
        series!(Counter tiles_pruned),
        series!(Counter tiles_probed),
        series!(Counter tiles_loaded),
        series!(Counter tiles_evicted),
        series!(Counter wal_dedup_hits),
        series!(Counter imprint_probes = imprints::probe_count, imprints::reset_probe_count),
        series!(Counter imprint_candidate_rows = imprints::probe_rows, imprints::reset_probe_count),
        series!(Counter scan_rows_examined = scan::rows_examined, scan::reset_scan_counters),
        series!(Gauge table_rows),
        series!(Gauge table_bytes),
        series!(Gauge table_spare_bytes),
        series!(Gauge indexed_columns),
        series!(Gauge resident_tile_bytes),
        series!(Gauge open_connections),
        series!(Gauge admission_in_flight),
        series!(Gauge admission_queued),
        series!(Gauge inflight_queries),
        series!(Gauge wal_backlog_rows),
        series!(Gauge degraded_tables),
        series!(Gauge server_draining),
        series!(Gauge scan_calls = scan::scan_calls, scan::reset_scan_counters),
    ];

    /// The process-wide registry every layer records into.
    pub fn global() -> &'static MetricsRegistry {
        GLOBAL.get_or_init(MetricsRegistry::default)
    }

    /// Record one stage execution: `rows` processed in `took` wall-clock.
    /// Lock-free, `O(1)` — three relaxed adds and one histogram bucket.
    #[inline]
    pub fn record_stage(&self, stage: Stage, rows: usize, took: Duration) {
        let s = &self.stages[stage.index()];
        s.calls.inc();
        s.rows.add(rows as u64);
        s.nanos.add(took.as_nanos() as u64);
        s.latency.record(took);
    }

    /// The instrument bundle of one stage.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        &self.stages[stage.index()]
    }

    /// Nanoseconds since this registry was first observed. The epoch pins
    /// itself on first call and survives [`reset`](Self::reset), so rates
    /// between two scrapes are always measured on the same clock.
    pub fn uptime_ns(&self) -> u64 {
        self.epoch.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Zero every stage and every series, including the cross-crate
    /// scan/probe counters. For benchmarks and tests; not linearisable
    /// against concurrent writers.
    pub fn reset(&self) {
        for s in &self.stages {
            s.reset();
        }
        for s in Self::SERIES {
            s.reset(self);
        }
    }

    /// Every counter series as `(name, value)`, in [`Self::SERIES`] order.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        self.values(SeriesKind::Counter)
    }

    fn values(&self, kind: SeriesKind) -> Vec<(&'static str, u64)> {
        Self::SERIES
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.name, s.value(self)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable_and_indexed() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "imprint_probe",
                "bbox_scan",
                "grid_refine",
                "aggregate",
                "imprint_build",
                "persist_save",
                "persist_load",
                "morsel",
                "governor",
                "wal_append",
                "recover",
                "server_recv",
                "server_send"
            ]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn histogram_buckets_are_log2_nanos() {
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(0)), 0);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(1)), 0);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(2)), 1);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(1023)), 9);
        assert_eq!(Histogram::bucket_of(Duration::from_nanos(1024)), 10);
        assert_eq!(
            Histogram::bucket_of(Duration::from_secs(1_000_000)),
            HIST_BUCKETS - 1,
            "open-ended last bucket"
        );
        let h = Histogram::default();
        h.record(Duration::from_micros(3)); // 3000 ns -> bucket 11
        h.record(Duration::from_micros(3));
        assert_eq!(h.counts()[11], 2);
    }

    #[test]
    fn record_stage_accumulates() {
        let r = MetricsRegistry::default();
        r.record_stage(Stage::BboxScan, 100, Duration::from_millis(2));
        r.record_stage(Stage::BboxScan, 50, Duration::from_millis(1));
        let s = r.stage(Stage::BboxScan);
        assert_eq!(s.calls.get(), 2);
        assert_eq!(s.rows.get(), 150);
        assert_eq!(s.nanos.get(), 3_000_000);
        assert_eq!(r.stage(Stage::GridRefine).calls.get(), 0);
    }

    #[test]
    fn histogram_percentiles_are_log2_bounds() {
        let h = Histogram::default();
        assert_eq!(h.percentile_ns(0.99), 0, "empty histogram");
        for _ in 0..99 {
            h.record(Duration::from_nanos(700)); // bucket 9 -> le 1024
        }
        h.record(Duration::from_micros(50)); // bucket 15 -> le 65536
        assert_eq!(h.percentile_ns(0.5), 1024);
        assert_eq!(h.percentile_ns(0.99), 1024);
        assert_eq!(h.percentile_ns(1.0), 65536);
    }

    /// `reset` walks the series list, so every series of a registry —
    /// and every stage — reads 0 after it. The cross-crate counters are
    /// process-wide, and other tests of this binary move them
    /// concurrently; `tests/stage_timing.rs` checks them in a process of
    /// their own.
    #[test]
    fn reset_zeroes_every_series() {
        let r = MetricsRegistry::default();
        let mut names: Vec<&str> = MetricsRegistry::SERIES.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MetricsRegistry::SERIES.len(), "names unique");
        for name in ["table_rows", "table_bytes", "table_spare_bytes"] {
            let s = MetricsRegistry::SERIES.iter().find(|s| s.name == name);
            assert_eq!(s.map(|s| s.kind), Some(SeriesKind::Gauge), "{name}");
        }
        let own = |s: &Series| matches!(s.instrument, Instrument::Field(_));
        for (i, s) in MetricsRegistry::SERIES.iter().enumerate() {
            if let Instrument::Field(field) = s.instrument {
                field(&r).store(i as u64 + 1, Ordering::Relaxed);
            }
        }
        for stage in Stage::ALL {
            r.record_stage(stage, 7, Duration::from_micros(3));
        }
        for s in MetricsRegistry::SERIES.iter().filter(|s| own(s)) {
            assert_ne!(s.value(&r), 0, "{} not set", s.name);
        }
        r.reset();
        for s in MetricsRegistry::SERIES.iter().filter(|s| own(s)) {
            assert_eq!(s.value(&r), 0, "{} survived reset", s.name);
        }
        for stage in Stage::ALL {
            let st = r.stage(stage);
            assert_eq!(
                (st.calls.get(), st.rows.get(), st.nanos.get()),
                (0, 0, 0),
                "{}",
                stage.name()
            );
            assert_eq!(st.latency.counts(), [0; HIST_BUCKETS]);
        }
    }
}
