//! # lidardb-imprints — the column imprints secondary index
//!
//! Implementation of **column imprints** [Sidirourgos & Kersten, SIGMOD
//! 2013], the lightweight cache-conscious secondary index that the paper
//! (*"GIS Navigation Boosted by Column Stores"*, VLDB 2015, §2.1.1/§3.2)
//! uses in place of a spatial R-tree for the coarse filtering step of
//! geospatial selections.
//!
//! ## The structure
//!
//! A column imprint is *"a collection of 64-bit vectors, each indexing data
//! points that fit into a single cache line. Each of the 64 bits is
//! associated with a range of values. A bit is set to 1 when the cache line
//! indexed by the vector contains values in the corresponding range. The 64
//! ranges are global to an imprint and are decided based on the distribution
//! of the values of the indexed column."*
//!
//! Concretely:
//!
//! * [`BinMap`] — at most 64 value ranges ("bins") whose borders come from an
//!   equi-depth histogram over a small sample of the column;
//! * [`Imprints`] — one 64-bit vector per 64-byte cacheline of column data
//!   (8 × `f64`, 16 × `i32`, … values per vector), compressed with the
//!   SIGMOD'13 *cacheline dictionary*: runs of identical vectors collapse to
//!   a single vector plus a repetition counter, exploiting the local
//!   clustering that acquisition-ordered data (LIDAR flight lines!) exhibits.
//!   A *summary level* beside the dictionary holds, per group of 64
//!   dictionary entries, the OR of the group's vectors and where the group
//!   starts; a probe decodes only the groups whose OR meets its mask;
//! * restricted probes — [`Imprints::probe_within`] returns exactly the
//!   rows of `probe(lo, hi)` that `list` also holds, each flagged when
//!   both sides flag it, but also skips the groups whose rows
//!   the restricting list does not reach. A query orders its probes by
//!   [`Imprints::estimate`] (the candidate rows of a summary-only walk),
//!   cheapest first, and restricts each later probe to the running list,
//!   so the filter step costs about the groups a viewport touches;
//! * [`CandidateList`] — the result of probing the index with a range
//!   predicate: maximal row ranges that *may* contain qualifying values,
//!   each flagged when the imprint proves that *every* value in it
//!   qualifies, letting the executor skip per-value checking entirely;
//! * [`ColumnImprints`] — a type-erased wrapper that builds over any
//!   [`lidardb_storage::Column`] and answers `f64` range probes with
//!   correct inward rounding on integer columns;
//! * [`ImprintStats`] — storage-overhead accounting used by experiment E2
//!   (the paper reports 5–12 % overhead).
//!
//! ## Guarantees
//!
//! * **No false negatives**: every row whose value satisfies the probed
//!   range is covered by the returned candidate list (property-tested).
//! * **Sound all-qualify flags**: a range flagged `all_qualify` contains
//!   only qualifying values (property-tested).
//! * **Skipping changes nothing**: summary-skipping and restricted probes
//!   equal a walk of every line's vector (intersected with the restricting
//!   list), flags included, after any sequence of appends
//!   (property-tested).

pub mod bins;
pub mod candidates;
pub mod erased;
pub mod imprint;
pub mod stats;

pub use bins::BinMap;
pub use candidates::{CandidateList, CandidateRange};
pub use erased::{probe_count, probe_rows, reset_probe_count, ColumnImprints};
pub use imprint::Imprints;
pub use stats::ImprintStats;

/// Maximum number of bins of an imprint (one per bit of the vector).
pub const MAX_BINS: usize = 64;

/// Default sample size used to derive the bin borders, as in SIGMOD'13.
pub const SAMPLE_SIZE: usize = 2048;
