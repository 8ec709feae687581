//! # lidardb-storage — the columnar storage substrate
//!
//! This crate implements the flat-table columnar storage model described in
//! §3.1 of *"GIS Navigation Boosted by Column Stores"* (VLDB 2015): every
//! attribute of a point lives in its own densely packed, typed column, and a
//! point ("tuple") is simply a row id shared by all columns of a table.
//!
//! The crate provides:
//!
//! * [`Column`] — a type-erased, growable column over the ten numeric
//!   physical types used by LAS point records,
//! * [`FlatTable`] / [`Schema`] — schema-checked collections of equal-length
//!   columns with `COPY BINARY`-style bulk append,
//! * [`scan`] — tight predicate-evaluation kernels producing selection
//!   vectors, the building block of the query engine,
//! * [`compress`] — run-length and frame-of-reference/bit-packing codecs for
//!   cold columns (the paper notes RLE as the natural fit for flat columnar
//!   point-cloud storage),
//! * [`segment`] — per-tile key ranges and min/max zone maps of sealed,
//!   SFC-clustered tiles.
//!
//! The crate is deliberately free of any spatial knowledge; geometry lives in
//! `lidardb-geom` and the imprints index in `lidardb-imprints`.

pub mod column;
pub mod compress;
pub mod error;
pub mod scan;
pub mod segment;
pub mod table;
pub mod types;

pub use column::Column;
pub use error::StorageError;
pub use segment::{TileMeta, TileSet, ZoneEntry};
pub use table::{Field, FlatTable, Schema};
pub use types::{Native, PhysicalType, Value};

/// Size, in bytes, of the cacheline unit used throughout the system.
///
/// Column imprints index one 64-byte cacheline per bit-vector; all storage
/// layouts are described in these units.
pub const CACHELINE_BYTES: usize = 64;
