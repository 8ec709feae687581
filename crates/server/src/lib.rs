//! # lidardb-server — the network surface
//!
//! A thread-per-connection TCP server (and matching client) that puts
//! lidardb's SQL layer on a socket without giving up the governor. The
//! protocol is deliberately small and deliberately paranoid:
//!
//! * **Framing** ([`protocol`]): length-prefixed, CRC-checked frames with
//!   a versioned magic hello — the same discipline as the WAL's on-disk
//!   format, pointed at the network. Every declared length is validated
//!   *before* allocation; hostile bytes produce typed errors, not panics
//!   or 4 GiB `Vec`s.
//! * **Sessions** ([`server`]): one connection = one SQL session
//!   ([`lidardb_sql::Catalog::session`]) with private `SET` knobs over
//!   the shared tables. Statements run through the same admission
//!   control, statement timeouts, `KILL`, and `SHOW QUERIES` as embedded
//!   queries — the admission permit is held across result delivery, and a
//!   client disconnect trips the statement's `CancelToken`.
//! * **Streaming**: results leave as bounded row batches with
//!   write-flush backpressure; neither side ever materialises a large
//!   selection.
//!
//! Server traffic shows up in `lidardb_core::metrics` under the
//! `server_recv` / `server_send` stages, and the server carries the
//! **observability plane** ([`promtext`]): an optional second listener
//! ([`Server::with_metrics_addr`]) answering `GET /metrics` with the
//! Prometheus text exposition (every registry series and the per-stage
//! log₂ latency histograms, read live) and `GET /healthz`
//! with a 200/503 saturation verdict (503 also while draining or while
//! any table is storage-degraded). Every connection is also visible in
//! `SELECT * FROM sys.sessions` via the core `SessionRegistry`.
//!
//! **Fault domains**: [`ServerHandle::shutdown`] runs a typed graceful
//! drain (idle sessions and late connections get `ShuttingDown` frames,
//! in-flight statements get the drain deadline, WAL groups are
//! force-fsynced); [`client::RetryingClient`] reconnects through drains
//! and restarts with seeded backoff and replays `INSERT`s under
//! idempotency tokens; and [`chaos::ChaosProxy`] is the deterministic
//! network-fault harness that proves the two ends compose into
//! exactly-once ingestion.

pub mod chaos;
pub mod client;
pub mod promtext;
pub mod protocol;
pub mod server;

pub use chaos::{ChaosProxy, ChaosScript};
pub use client::{Client, ClientError, InsertOutcome, QueryStats, RetryPolicy, RetryingClient};
pub use protocol::{Message, ProtoError, MAGIC, MAX_FRAME};
pub use server::{Server, ServerHandle, DEFAULT_DRAIN_DEADLINE};
