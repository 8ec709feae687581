//! # lidardb-sql — the declarative query layer
//!
//! §2.2 of the paper argues that file-based tools cannot express ad-hoc
//! analysis: *"a declarative language like SQL allows the user to easily
//! express queries that combine numerous data sources"*. MonetDB exposes
//! the OGC Simple Features SQL functions; this crate reproduces the subset
//! the demo exercises (and a little more):
//!
//! * a hand-written **lexer + recursive-descent parser** for
//!   `SELECT ... FROM ... [WHERE] [GROUP BY] [ORDER BY] [LIMIT]`, with
//!   `EXPLAIN` support;
//! * a **catalog** of point-cloud tables (the flat 26-column table of
//!   `lidardb-core`) and in-memory **vector tables** (OSM roads/rivers,
//!   Urban Atlas zones) with float/int/string/geometry columns;
//! * the **OGC function library**: `ST_Point`, `ST_MakeEnvelope`,
//!   `ST_GeomFromText`, `ST_Contains`, `ST_Within`, `ST_Intersects`,
//!   `ST_DWithin`, `ST_Distance`, `ST_X`, `ST_Y`, `ST_Area`, `ST_Length`;
//! * a **planner** that pushes constant spatial predicates on the
//!   point-cloud table into the two-step imprint engine, turns
//!   `pointcloud × vector` queries with an `ST_DWithin`/`ST_Contains`
//!   join predicate into an index-driven **spatial join** (one two-step
//!   query per qualifying vector feature), and evaluates everything else
//!   as residual filters;
//! * an **executor** with per-operator tracing — `EXPLAIN` shows the plan
//!   and every query result carries the operator timings the demo
//!   displays (§4.2: *"users will have the option to see the plans of the
//!   queries and the execution time spent in each operator"*).

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod sys;
pub mod value;

pub use catalog::{Catalog, VectorTable};
pub use error::SqlError;
pub use exec::{
    execute, execute_streamed, ColumnBatch, ColumnChunk, ResultSet, RowSink, StreamSummary,
    STREAM_BATCH_ROWS,
};
pub use value::SqlValue;

use std::sync::Arc;

/// Parse and execute one SQL statement against a catalog.
pub fn query(catalog: &Catalog, sql: &str) -> Result<ResultSet, SqlError> {
    let stmt = parser::parse(sql)?;
    exec::execute(catalog, &stmt)
}

/// Parse and execute one SQL statement, streaming rows to `sink` in
/// batches of at most `batch_rows` (see [`execute_streamed`]). This is the
/// entry point the network server uses: the result set never materialises
/// for natively streamable scans, and a sink that blocks backpressures the
/// statement.
pub fn query_streamed(
    catalog: &Catalog,
    sql: &str,
    batch_rows: usize,
    sink: &mut dyn RowSink,
) -> Result<StreamSummary, SqlError> {
    let stmt = parser::parse(sql)?;
    exec::execute_streamed(catalog, &stmt, batch_rows, sink)
}

/// Convenience: build a catalog holding one point cloud as table
/// `"points"`.
pub fn catalog_with_points(pc: Arc<lidardb_core::PointCloud>) -> Catalog {
    let mut c = Catalog::new();
    c.register_pointcloud("points", pc);
    c
}
