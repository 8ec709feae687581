//! # lidardb-baselines — the comparison systems
//!
//! The paper evaluates its flat-table-plus-imprints design against two
//! other physical designs (§2.2/§2.3) and its binary loader against the
//! CSV text route (§3.2); all three are reimplemented here from their
//! published descriptions so every experiment can run without
//! proprietary software:
//!
//! * [`filestore`] — the **file-based solution** (Rapidlasso LAStools):
//!   a directory of LAS/laz-lite files queried directly, with the three
//!   optimisations the paper credits: a *metadata catalog* holding every
//!   file header so selection skips non-intersecting files without
//!   opening them (the trick of van Oosterom et al., who "had to use
//!   a DBMS to store the metadata of each file"), a per-file *quadtree
//!   index* (`lasindex`) that narrows a query to candidate record ranges,
//!   and a *spatial sort* (`lassort`) along a space-filling curve that
//!   makes those ranges contiguous;
//! * [`blockstore`] — the **block-based DBMS layout** (PostgreSQL
//!   pointcloud / Oracle SDO_PC): points grouped into fixed-capacity
//!   blocks along a Morton or Hilbert curve, each block carrying its bbox
//!   and a compressed payload; queries scan the block table by bbox and
//!   refine per point inside matching blocks;
//! * [`csv`] — the **CSV text route** most systems load through: decode
//!   LAS, format every record to text, parse it back and append row at a
//!   time ([`load_via_csv`]), the cost E1 sets against the binary loader.
//!
//! Both query engines return plain [`lidardb_las::PointRecord`] result
//! sets, so the integration tests can assert that every engine in the
//! repository produces identical answers.

pub mod blockstore;
pub mod csv;
pub mod error;
pub mod filestore;
pub mod quadtree;

pub use blockstore::{BlockQueryStats, BlockStore};
pub use csv::load_via_csv;
pub use error::BaselineError;
pub use filestore::{FileQueryStats, FileStore};
pub use quadtree::QuadTree;
