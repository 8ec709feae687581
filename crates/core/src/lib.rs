//! # lidardb-core — the paper's system
//!
//! The primary contribution of *"GIS Navigation Boosted by Column Stores"*
//! (VLDB 2015): a "spatially-enabled" column store for massive point
//! clouds, built from
//!
//! * a **flat 26-column table** (§3.1) over `lidardb-storage` — one column
//!   per LAS attribute, one row per point, no block reorganisation;
//! * **lazily built column imprints** (§3.2) — the secondary index is
//!   created the first time a range query touches a column, then cached;
//! * a **binary bulk loader** (§3.2) — LAS/laz-lite files are decoded to
//!   per-column binary dumps which are appended to the column tails
//!   `COPY BINARY`-style, with file decode parallelised across threads
//!   (the reason the paper loads all of AHN2 "in less than one day"), plus
//!   the CSV text path other systems pay for comparison;
//! * the **two-step query model** (§3.3) — imprint filtering on the X and
//!   Y columns down to candidate cacheline runs, an exact bbox check that
//!   skips runs the imprints prove fully qualifying, and a **regular-grid
//!   refinement** for non-rectangular geometries where each non-empty cell
//!   is classified against the query geometry in a single step and only
//!   boundary cells fall back to exact per-point predicates;
//! * **thematic filters and aggregates** over any attribute column, which
//!   is what makes scenario 2's "average elevation near a fast transit
//!   road" a one-liner;
//! * one **morsel-driven executor** ([`exec`]) — the candidate list is
//!   split into balanced row-range morsels, run inline by one worker or on
//!   scoped threads by several, and merged in row order, so results are
//!   identical at every worker count ([`Parallelism`] selects it).
//!
//! Every query returns an [`query::Explain`] timing/cardinality breakdown,
//! mirroring the demo's per-operator plan view.
//!
//! The engine is **fault-tolerant by construction**: persistence is
//! atomic and checksummed ([`persist`]), the bulk loader isolates and
//! quarantines bad files ([`loader::LoadPolicy`]), queries degrade to
//! full scans when an imprint cannot be built, and the whole stack is
//! exercised by a deterministic fault-injection harness ([`fault`]).

pub mod crc;
pub mod csv;
pub mod error;
pub mod exec;
pub mod fault;
pub mod governor;
pub mod loader;
pub mod metrics;
pub mod persist;
pub mod pointcloud;
pub mod query;
pub mod segment;
pub mod soa;
pub mod table;
pub mod trace;
pub mod wal;

pub use error::{is_storage_exhausted_io, CancelReason, CoreError};
pub use exec::{MorselTiming, Parallelism, MORSEL_MIN_ROWS};
pub use fault::{FaultInjector, FaultKind, FaultStage};
pub use governor::{
    AdmissionController, CancelToken, GovernCtx, MemBudget, QueryId, QueryInfo, QueryRegistry,
    SessionInfo, SessionRegistry, SessionTicket, CHECKPOINT_STRIDE,
};
pub use loader::{FileOutcome, FileReport, LoadMethod, LoadPolicy, LoadReport, LoadStats, Loader};
pub use metrics::{MetricsRegistry, Stage};
pub use pointcloud::{IngestAck, PointCloud};
pub use query::{Aggregate, AttrRange, Explain, RefineStrategy, Selection, SpatialPredicate};
pub use segment::{TileOptions, TileResidency, TiledCloud};
pub use table::{ColumnSet, PointTable, Run, Segment};
pub use trace::{SlowQuery, SlowQueryLog, SpanKind, SpanRecord, TraceSink, Tracer};
pub use wal::{Durability, RecoveryReport, LEDGER_CAP};
