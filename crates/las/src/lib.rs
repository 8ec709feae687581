//! # lidardb-las — LAS / laz-lite point-cloud file I/O
//!
//! The ASPRS LAS format is "the de-facto standard to store and distribute"
//! airborne LIDAR data (§1 of the paper); AHN2 is shipped as 60,185
//! LAZ-compressed files. This crate implements:
//!
//! * a faithful **LAS subset**: the classic `LASF` public header block with
//!   scale/offset quantisation and min/max bbox, followed by fixed-width
//!   binary point records carrying the full 26-attribute payload (X, Y, Z
//!   plus the 23 LAS properties the paper counts — returns, classification
//!   and its flag bits, scan geometry, GPS time, RGB, and the waveform
//!   descriptor fields of LAS 1.3);
//! * **`laz-lite`**, this repository's substitute for Rapidlasso LAZ
//!   (see DESIGN.md §2): the same header with a compression flag, point
//!   chunks of 4096 records compressed column-wise with
//!   frame-of-reference bit packing. It preserves the two properties the
//!   experiments need from LAZ — files several times smaller than LAS and
//!   a real decompression cost on the read path — without pretending to be
//!   the arithmetic-coded original;
//! * the canonical **26-column flat-table schema** shared by the loader,
//!   the generators and the baselines.
//!
//! Readers validate magic bytes, version, record length and counts, and
//! fail with typed errors on truncated or corrupt input (failure-injection
//! tests live in `reader.rs`).

pub mod error;
pub mod header;
pub mod lazlite;
pub mod reader;
pub mod record;
pub mod schema;
pub mod writer;

pub use error::LasError;
pub use header::{Compression, LasHeader};
pub use reader::{read_las_file, LasReader};
pub use record::PointRecord;
pub use schema::{point_schema, COLUMN_NAMES, NUM_COLUMNS};
pub use writer::{write_las_file, LasWriter};
